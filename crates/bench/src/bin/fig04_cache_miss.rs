//! Figure 4: miss ratio vs capacity for the State, Arc and Token caches.
//!
//! Paper: even 1-2 MB caches keep significant miss ratios (20-45% for the
//! State/Arc caches at the Table I sizes) because only a tiny, sparsely
//! distributed subset of the model is touched per frame; the Token cache
//! fares better thanks to its append-mostly access pattern.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

struct Row {
    state_miss: f64,
    arc_miss: f64,
    token_miss: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig04",
        "cache miss ratio vs capacity (256K-4M)",
        "large miss ratios persist even at 1-2 MB; Token cache lowest",
    );
    let (wfst, scores) = scale.build();
    let mut rows = Vec::new();
    for capacity_kb in [256usize, 512, 1024, 2048, 4096] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(scale.beam);
        cfg.state_cache.capacity = capacity_kb * 1024;
        cfg.arc_cache.capacity = capacity_kb * 1024;
        cfg.token_cache.capacity = capacity_kb * 1024;
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        let row = Row {
            state_miss: r.stats.state_cache.miss_ratio(),
            arc_miss: r.stats.arc_cache.miss_ratio(),
            token_miss: r.stats.token_cache.miss_ratio(),
        };
        println!(
            "{:>6} KB   state {:>5.1}%   arc {:>5.1}%   token {:>5.1}%",
            capacity_kb,
            100.0 * row.state_miss,
            100.0 * row.arc_miss,
            100.0 * row.token_miss,
        );
        rows.push(row);
    }
    // The paper's qualitative claims.
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    println!("\nchecks:");
    println!(
        "  miss ratios fall with capacity: state {} arc {} token {}",
        first.state_miss >= last.state_miss,
        first.arc_miss >= last.arc_miss,
        first.token_miss >= last.token_miss
    );
    println!(
        "  token cache lowest at small sizes: {}",
        first.token_miss <= first.state_miss && first.token_miss <= first.arc_miss
    );
}
