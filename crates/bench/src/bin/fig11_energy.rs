//! Figure 11: energy reduction of each accelerator version vs the GPU.
//!
//! Paper: the base ASIC uses 171x less energy than the GPU; with both
//! memory optimizations the reduction reaches 287x (and 1185x vs CPU).

use asr_bench::{banner, standard_points, Scale};

struct Row {
    config: String,
    energy_j_per_speech_s: f64,
    reduction_vs_gpu: f64,
    reduction_vs_cpu: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig11",
        "energy reduction vs the GPU",
        "base ASIC 171x, final ASIC 287x less energy than the GPU",
    );
    let points = standard_points(&scale);
    let gpu = points.iter().find(|(n, _, _)| n == "GPU").unwrap().1;
    let cpu = points.iter().find(|(n, _, _)| n == "CPU").unwrap().1;
    let rows: Vec<Row> = points
        .iter()
        .filter(|(n, _, _)| n != "CPU" && n != "GPU")
        .map(|(name, p, _)| Row {
            config: name.clone(),
            energy_j_per_speech_s: p.energy_j_per_speech_s,
            reduction_vs_gpu: p.energy_reduction_vs(&gpu),
            reduction_vs_cpu: p.energy_reduction_vs(&cpu),
        })
        .collect();
    println!(
        "{:<16} {:>14} {:>14} {:>14}",
        "config", "J/speech-s", "vs GPU", "vs CPU"
    );
    for r in &rows {
        println!(
            "{:<16} {:>14.5} {:>13.0}x {:>13.0}x",
            r.config, r.energy_j_per_speech_s, r.reduction_vs_gpu, r.reduction_vs_cpu
        );
    }
    println!("\nchecks (shape):");
    let final_r = rows
        .iter()
        .find(|r| r.config.contains("State&Arc"))
        .unwrap();
    let base_r = rows.iter().find(|r| r.config == "ASIC").unwrap();
    println!(
        "  two orders of magnitude vs GPU: {}",
        base_r.reduction_vs_gpu > 50.0
    );
    println!(
        "  optimizations increase the reduction: {}",
        final_r.reduction_vs_gpu > base_r.reduction_vs_gpu
    );
}
