//! Figure 14: energy vs decoding time per second of speech, all six
//! configurations on one plane.
//!
//! Paper: the CPU sits at the worst corner; the GPU is ~9.8x faster and
//! 4.2x more efficient; the accelerator versions match or beat GPU speed
//! at two orders of magnitude less energy (final: 16.7x/1185x vs CPU,
//! 1.7x/287x vs GPU).

use asr_bench::{banner, standard_points, Scale};

struct Point {
    config: String,
    decode_s_per_speech_s: f64,
    energy_j_per_speech_s: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig14",
        "energy vs decoding time (per second of speech)",
        "GPU: 9.8x faster / 4.2x less energy than CPU; final ASIC: 1.7x / 287x vs GPU",
    );
    let points = standard_points(&scale);
    let rows: Vec<Point> = points
        .iter()
        .map(|(name, p, _)| Point {
            config: name.clone(),
            decode_s_per_speech_s: p.decode_s_per_speech_s,
            energy_j_per_speech_s: p.energy_j_per_speech_s,
        })
        .collect();
    println!("{:<16} {:>16} {:>16}", "config", "time (s)", "energy (J)");
    for r in &rows {
        println!(
            "{:<16} {:>16.5} {:>16.5}",
            r.config, r.decode_s_per_speech_s, r.energy_j_per_speech_s
        );
    }
    let cpu = points.iter().find(|(n, _, _)| n == "CPU").unwrap().1;
    let gpu = points.iter().find(|(n, _, _)| n == "GPU").unwrap().1;
    let final_asic = points
        .iter()
        .find(|(n, _, _)| n.contains("State&Arc"))
        .unwrap()
        .1;
    println!("\nderived ratios:");
    println!(
        "  GPU vs CPU: {:.1}x faster, {:.1}x less energy (paper: 9.8x, 4.2x)",
        gpu.speedup_over(&cpu),
        gpu.energy_reduction_vs(&cpu)
    );
    println!(
        "  final ASIC vs GPU: {:.2}x faster, {:.0}x less energy (paper: 1.7x, 287x)",
        final_asic.speedup_over(&gpu),
        final_asic.energy_reduction_vs(&gpu)
    );
    println!(
        "  final ASIC vs CPU: {:.1}x faster, {:.0}x less energy (paper: 16.7x, 1185x)",
        final_asic.speedup_over(&cpu),
        final_asic.energy_reduction_vs(&cpu)
    );
}
