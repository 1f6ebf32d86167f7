//! Figure 12: average power dissipation of every configuration.
//!
//! Paper: CPU 32.2 W, GPU 76.4 W, accelerator versions 389-462 mW (the
//! prefetcher raises power because it shortens execution time).

use asr_bench::{banner, standard_points, Scale};

struct Row {
    config: String,
    power_w: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig12",
        "power dissipation",
        "CPU 32.2 W, GPU 76.4 W, ASIC versions 389-462 mW",
    );
    let points = standard_points(&scale);
    let rows: Vec<Row> = points
        .iter()
        .map(|(name, p, _)| Row {
            config: name.clone(),
            power_w: p.power_w(),
        })
        .collect();
    println!("{:<16} {:>12}", "config", "power");
    for r in &rows {
        if r.power_w >= 1.0 {
            println!("{:<16} {:>10.1} W", r.config, r.power_w);
        } else {
            println!("{:<16} {:>10.1} mW", r.config, r.power_w * 1e3);
        }
    }
    println!("\nchecks (shape):");
    let asics: Vec<&Row> = rows
        .iter()
        .filter(|r| r.config.starts_with("ASIC"))
        .collect();
    let base = asics.iter().find(|r| r.config == "ASIC").unwrap();
    let arc = asics.iter().find(|r| r.config.contains("+Arc")).unwrap();
    println!(
        "  ASIC power is orders of magnitude below CPU/GPU: {}",
        asics.iter().all(|r| r.power_w < 2.0)
    );
    println!(
        "  prefetcher raises power (shorter runtime): {}",
        arc.power_w > base.power_w
    );
}
