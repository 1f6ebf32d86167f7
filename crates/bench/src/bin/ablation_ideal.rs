//! Section IV analysis: idealized memory structures.
//!
//! Paper: perfect caches speed the base accelerator up by 2.11x, while an
//! ideal (collision-free) hash gains only 2.8% — which is why the paper
//! attacks memory latency. Per cache: a perfect Token cache gives 1.02x, a
//! perfect State cache 1.09x, and a perfect Arc cache 1.95x; the
//! prefetcher reaches ~97% of the perfect Arc cache.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

struct Row {
    config: String,
    cycles: u64,
    speedup_vs_base: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "ablation_ideal",
        "idealized caches and hash (Section IV)",
        "perfect caches 2.11x; ideal hash +2.8%; Arc/State/Token perfect = 1.95x/1.09x/1.02x",
    );
    let (wfst, scores) = scale.build();
    let beam = scale.beam;
    let base_cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(beam);
    let configs: Vec<(&str, AcceleratorConfig)> = vec![
        ("base", base_cfg.clone()),
        ("perfect all caches", base_cfg.clone().with_perfect_caches()),
        ("ideal hash", base_cfg.clone().with_ideal_hash()),
        ("perfect State cache", {
            let mut c = base_cfg.clone();
            c.perfect_state_cache = true;
            c
        }),
        ("perfect Arc cache", {
            let mut c = base_cfg.clone();
            c.perfect_arc_cache = true;
            c
        }),
        ("perfect Token cache", {
            let mut c = base_cfg.clone();
            c.perfect_token_cache = true;
            c
        }),
        (
            "arc prefetcher",
            AcceleratorConfig::for_design(DesignPoint::ArcPrefetch).with_beam(beam),
        ),
    ];
    let mut rows = Vec::new();
    let mut base_cycles = 0u64;
    for (name, cfg) in configs {
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        if name == "base" {
            base_cycles = r.stats.cycles;
        }
        rows.push(Row {
            config: name.to_owned(),
            cycles: r.stats.cycles,
            speedup_vs_base: base_cycles as f64 / r.stats.cycles as f64,
        });
    }
    println!("{:<22} {:>12} {:>14}", "config", "cycles", "speedup");
    for r in &rows {
        println!(
            "{:<22} {:>12} {:>13.3}x",
            r.config, r.cycles, r.speedup_vs_base
        );
    }
    let get = |n: &str| rows.iter().find(|r| r.config == n).unwrap().speedup_vs_base;
    let prefetch_vs_perfect_arc = {
        let pf = rows.iter().find(|r| r.config == "arc prefetcher").unwrap();
        let pa = rows
            .iter()
            .find(|r| r.config == "perfect Arc cache")
            .unwrap();
        pa.cycles as f64 / pf.cycles as f64
    };
    println!("\nchecks (paper values in parens):");
    println!(
        "  perfect caches speedup:   {:.2}x (2.11x)",
        get("perfect all caches")
    );
    println!(
        "  ideal hash speedup:       {:.3}x (1.028x)",
        get("ideal hash")
    );
    println!(
        "  perfect Arc cache:        {:.2}x (1.95x)",
        get("perfect Arc cache")
    );
    println!(
        "  perfect State cache:      {:.2}x (1.09x)",
        get("perfect State cache")
    );
    println!(
        "  perfect Token cache:      {:.2}x (1.02x)",
        get("perfect Token cache")
    );
    println!(
        "  Arc cache dominates:      {}",
        get("perfect Arc cache") > get("perfect State cache")
            && get("perfect State cache") >= get("perfect Token cache")
    );
    println!(
        "  prefetcher vs perfect Arc: {:.1}% (97%)",
        100.0 * prefetch_vs_perfect_arc
    );
}
