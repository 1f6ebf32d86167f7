//! Section VI text: accelerator area.
//!
//! Paper: 24.06 mm² for the base design (16.5x smaller than a GTX 980's
//! 398 mm² die); the prefetcher adds 0.05% and the bandwidth-saving State
//! Issuer hardware 0.02%, totalling 24.09 mm².

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::energy::AreaModel;
use asr_bench::banner;

struct Row {
    config: String,
    caches_mm2: f64,
    hash_mm2: f64,
    acoustic_mm2: f64,
    logic_mm2: f64,
    prefetch_mm2: f64,
    state_opt_mm2: f64,
    total_mm2: f64,
}

const GTX980_MM2: f64 = 398.0;

fn main() {
    banner(
        "area",
        "accelerator area by component",
        "24.06 mm2 base, +0.05% prefetch, +0.02% state issuer; 16.5x below GTX 980",
    );
    let mut rows = Vec::new();
    for design in DesignPoint::ALL {
        let area = AreaModel.area(&AcceleratorConfig::for_design(design));
        rows.push(Row {
            config: design.label().to_owned(),
            caches_mm2: area.caches_mm2,
            hash_mm2: area.hash_mm2,
            acoustic_mm2: area.acoustic_mm2,
            logic_mm2: area.logic_mm2,
            prefetch_mm2: area.prefetch_mm2,
            state_opt_mm2: area.state_opt_mm2,
            total_mm2: area.total_mm2(),
        });
    }
    println!(
        "{:<16} {:>8} {:>8} {:>9} {:>8} {:>9} {:>10} {:>8}",
        "config", "caches", "hash", "acoustic", "logic", "prefetch", "state-opt", "total"
    );
    for r in &rows {
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>9.2} {:>8.2} {:>9.3} {:>10.3} {:>8.2}",
            r.config,
            r.caches_mm2,
            r.hash_mm2,
            r.acoustic_mm2,
            r.logic_mm2,
            r.prefetch_mm2,
            r.state_opt_mm2,
            r.total_mm2
        );
    }
    let final_total = rows.last().unwrap().total_mm2;
    println!("\nchecks:");
    println!("  base total: {:.2} mm2 (paper 24.06)", rows[0].total_mm2);
    println!("  final total: {:.2} mm2 (paper 24.09)", final_total);
    println!(
        "  vs GTX 980 die: {:.1}x smaller (paper 16.5x)",
        GTX980_MM2 / rows[0].total_mm2
    );
}
