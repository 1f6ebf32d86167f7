//! Figure 13: off-chip memory traffic breakdown (states, arcs, tokens,
//! overflow) for the base ASIC and the version with the state-fetch
//! optimization.
//!
//! Paper: state fetches are 23% of off-chip traffic; the Section IV-B
//! layout removes most of them, cutting total traffic by 20%. The
//! prefetcher is excluded here because computed-address prefetches do not
//! change traffic.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

struct Row {
    config: String,
    states_mb: f64,
    arcs_mb: f64,
    tokens_mb: f64,
    overflow_mb: f64,
    total_mb: f64,
    normalized_to_base: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig13",
        "off-chip traffic breakdown: base vs +State",
        "states are 23% of traffic; optimization removes ~20% of total",
    );
    let (wfst, scores) = scale.build();
    let mut rows = Vec::new();
    for design in [DesignPoint::Base, DesignPoint::StateOpt] {
        let cfg = AcceleratorConfig::for_design(design).with_beam(scale.beam);
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        let t = r.stats.traffic;
        let mb = |b: u64| b as f64 / 1e6;
        rows.push(Row {
            config: design.label().to_owned(),
            states_mb: mb(t.states),
            arcs_mb: mb(t.arcs),
            tokens_mb: mb(t.tokens),
            overflow_mb: mb(t.overflow),
            total_mb: mb(t.search_bytes()),
            normalized_to_base: 0.0,
        });
    }
    let base_total = rows[0].total_mb;
    for r in &mut rows {
        r.normalized_to_base = r.total_mb / base_total;
    }
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "config", "states", "arcs", "tokens", "overflow", "total", "normalized"
    );
    for r in &rows {
        println!(
            "{:<16} {:>7.1}MB {:>7.1}MB {:>7.1}MB {:>7.1}MB {:>7.1}MB {:>10.3}",
            r.config,
            r.states_mb,
            r.arcs_mb,
            r.tokens_mb,
            r.overflow_mb,
            r.total_mb,
            r.normalized_to_base
        );
    }
    let state_share = rows[0].states_mb / rows[0].total_mb;
    let reduction = 1.0 - rows[1].normalized_to_base;
    println!("\nchecks:");
    println!(
        "  state share of base traffic: {:.1}% (paper: 23%)",
        100.0 * state_share
    );
    println!(
        "  total traffic removed by +State: {:.1}% (paper: ~20%)",
        100.0 * reduction
    );
}
