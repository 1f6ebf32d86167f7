//! Section IV-A baseline: conventional hardware prefetchers.
//!
//! Paper: "the miss address stream during the Viterbi search is highly
//! unpredictable due to the pruning and, hence, conventional hardware
//! prefetchers are ineffective. We implemented and evaluated different
//! state-of-the-art hardware prefetchers, and our results show that these
//! schemes produce slowdowns and increase energy due to the useless
//! prefetches that they generate."
//!
//! This experiment puts next-line and stride prefetchers on the Arc cache
//! and compares them against the paper's decoupled computed-address
//! architecture.

use asr_accel::config::{AcceleratorConfig, DesignPoint, HwPrefetcher};
use asr_accel::energy::EnergyModel;
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

struct Row {
    config: String,
    cycles: u64,
    speedup_vs_base: f64,
    arc_traffic_mb: f64,
    prefetch_fills: u64,
    useful_fraction: f64,
    energy_mj: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "ablation_prefetchers",
        "conventional prefetchers vs the decoupled architecture",
        "predicted-address prefetchers waste bandwidth; computed addresses do not",
    );
    let (wfst, scores) = scale.build();
    let model = EnergyModel::default();
    let configs: Vec<(String, AcceleratorConfig)> = vec![
        (
            "base (no prefetch)".into(),
            AcceleratorConfig::for_design(DesignPoint::Base).with_beam(scale.beam),
        ),
        ("base + next-line".into(), {
            let mut c = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(scale.beam);
            c.hw_prefetcher = HwPrefetcher::NextLine;
            c
        }),
        ("base + stride".into(), {
            let mut c = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(scale.beam);
            c.hw_prefetcher = HwPrefetcher::Stride;
            c
        }),
        (
            "decoupled (paper)".into(),
            AcceleratorConfig::for_design(DesignPoint::ArcPrefetch).with_beam(scale.beam),
        ),
    ];
    let mut rows: Vec<Row> = Vec::new();
    let mut base_cycles = 0u64;
    for (name, cfg) in configs {
        let r = Simulator::new(cfg.clone())
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        if base_cycles == 0 {
            base_cycles = r.stats.cycles;
        }
        let s = &r.stats;
        let fills = s.arc_cache.prefetch_fills;
        rows.push(Row {
            config: name,
            cycles: s.cycles,
            speedup_vs_base: base_cycles as f64 / s.cycles as f64,
            arc_traffic_mb: s.traffic.arcs as f64 / 1e6,
            prefetch_fills: fills,
            useful_fraction: if fills == 0 {
                0.0
            } else {
                s.arc_cache.prefetch_hits as f64 / fills as f64
            },
            energy_mj: model.energy(&cfg, &r.stats).total_j() * 1e3,
        });
    }
    println!(
        "{:<20} {:>12} {:>9} {:>10} {:>10} {:>8} {:>10}",
        "config", "cycles", "speedup", "arc MB", "pf fills", "useful", "energy"
    );
    for r in &rows {
        println!(
            "{:<20} {:>12} {:>8.2}x {:>9.1}MB {:>10} {:>7.0}% {:>8.3}mJ",
            r.config,
            r.cycles,
            r.speedup_vs_base,
            r.arc_traffic_mb,
            r.prefetch_fills,
            100.0 * r.useful_fraction,
            r.energy_mj
        );
    }
    let base = &rows[0];
    let decoupled = rows.last().unwrap();
    let conventional_best = rows[1..3]
        .iter()
        .map(|r| r.speedup_vs_base)
        .fold(f64::MIN, f64::max);
    println!("\nchecks (paper claims):");
    println!(
        "  conventional prefetchers increase arc traffic: {}",
        rows[1].arc_traffic_mb > base.arc_traffic_mb
            && rows[2].arc_traffic_mb > base.arc_traffic_mb
    );
    println!(
        "  conventional prefetchers increase energy: {}",
        rows[1].energy_mj > base.energy_mj && rows[2].energy_mj > base.energy_mj
    );
    println!(
        "  best conventional speedup {:.2}x << decoupled {:.2}x",
        conventional_best, decoupled.speedup_vs_base
    );
}
