//! Figure 10: speedup of each accelerator version over the GPU baseline.
//!
//! Paper: base ASIC reaches 0.88x of the GPU; +State 0.90x; +Arc 1.64x;
//! +State&Arc 1.7x (about 2x over the base ASIC).

use asr_bench::{banner, standard_points, Scale};

struct Row {
    config: String,
    speedup_vs_gpu: f64,
    speedup_vs_base_asic: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig10",
        "speedup over the GPU",
        "ASIC 0.88x, +State 0.90x, +Arc 1.64x, +State&Arc 1.7x",
    );
    let points = standard_points(&scale);
    let gpu = points
        .iter()
        .find(|(n, _, _)| n == "GPU")
        .expect("GPU point")
        .1;
    let base = points
        .iter()
        .find(|(n, _, _)| n == "ASIC")
        .expect("base ASIC point")
        .1;
    let rows: Vec<Row> = points
        .iter()
        .filter(|(n, _, _)| n != "CPU" && n != "GPU")
        .map(|(name, p, _)| Row {
            config: name.clone(),
            speedup_vs_gpu: p.speedup_over(&gpu),
            speedup_vs_base_asic: p.speedup_over(&base),
        })
        .collect();
    println!("{:<16} {:>14} {:>18}", "config", "vs GPU", "vs base ASIC");
    for r in &rows {
        println!(
            "{:<16} {:>13.2}x {:>17.2}x",
            r.config, r.speedup_vs_gpu, r.speedup_vs_base_asic
        );
    }
    println!("\nchecks (shape):");
    let by = |n: &str| rows.iter().find(|r| r.config.contains(n)).unwrap();
    let base_r = by("ASIC").speedup_vs_gpu;
    let state = rows
        .iter()
        .find(|r| r.config == "ASIC+State")
        .unwrap()
        .speedup_vs_gpu;
    let arc = by("+Arc").speedup_vs_gpu;
    let both = by("State&Arc").speedup_vs_gpu;
    println!(
        "  +State barely changes performance: {}",
        (state / base_r) < 1.10
    );
    println!("  +Arc beats the GPU: {}", arc > 1.0);
    println!(
        "  +State&Arc is the fastest: {}",
        both >= arc && both > state
    );
}
