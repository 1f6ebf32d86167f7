//! Figure 5: average cycles per hash-table request and overall speedup vs
//! number of entries (8K-64K).
//!
//! Paper: collisions make small tables cost extra cycles per request; at
//! 32K entries requests are close to one cycle and going to 64K buys
//! almost nothing, so Table I picks 32K (768 KB per table).

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

struct Row {
    entries: usize,
    avg_cycles_per_request: f64,
    cycles: u64,
    speedup_vs_8k: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig05",
        "hash table: cycles/request and speedup vs entries",
        "requests near 1 cycle at 32K entries; 64K adds little",
    );
    let (wfst, scores) = scale.build();
    let mut rows: Vec<Row> = Vec::new();
    for entries in [8 * 1024usize, 16 * 1024, 32 * 1024, 64 * 1024] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(scale.beam);
        cfg.hash_entries = entries;
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        rows.push(Row {
            entries,
            avg_cycles_per_request: r.stats.hash.avg_cycles_per_request(),
            cycles: r.stats.cycles,
            speedup_vs_8k: 0.0,
        });
    }
    let base_cycles = rows[0].cycles as f64;
    for r in &mut rows {
        r.speedup_vs_8k = base_cycles / r.cycles as f64;
    }
    println!(
        "{:>8} {:>22} {:>14}",
        "entries", "avg cycles/request", "speedup vs 8K"
    );
    for r in &rows {
        println!(
            "{:>7}K {:>22.3} {:>14.3}",
            r.entries / 1024,
            r.avg_cycles_per_request,
            r.speedup_vs_8k
        );
    }
    println!("\nchecks:");
    println!(
        "  cycles/request decreases with entries: {}",
        rows.windows(2)
            .all(|w| w[0].avg_cycles_per_request >= w[1].avg_cycles_per_request)
    );
    let gain_32_to_64 = rows[3].speedup_vs_8k / rows[2].speedup_vs_8k;
    println!(
        "  32K -> 64K speedup gain: {:.4} (paper: very small)",
        gain_32_to_64
    );
}
