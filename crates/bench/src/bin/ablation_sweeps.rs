//! Design-space sweeps beyond the paper's figures, exercising the design
//! choices the paper fixes (ARCHITECTURE.md, "The figure binaries"):
//! beam width, prefetch FIFO depth (timeliness), the direct-index
//! threshold `N`, and the memory controller's in-flight limit.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

fn main() {
    let scale = Scale::from_args();
    banner(
        "ablation_sweeps",
        "beam / FIFO depth / N / in-flight sweeps",
        "design-choice sensitivity (not a paper figure)",
    );
    let (wfst, scores) = scale.build();

    println!("beam width (base design):");
    for beam in [4.0f32, 8.0, 12.0, 16.0] {
        let cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(beam);
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        println!(
            "  beam {:>4}: cycles {:>12}, arcs/frame {:>9.0}",
            beam,
            r.stats.cycles,
            r.stats.arcs_per_frame()
        );
    }

    println!("\nprefetch FIFO depth (arc-prefetch design):");
    for depth in [8usize, 16, 32, 64, 128] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::ArcPrefetch).with_beam(scale.beam);
        cfg.prefetch_fifo = depth;
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        println!("  depth {:>4}: cycles {:>12}", depth, r.stats.cycles);
    }

    println!("\ndirect-index threshold N (state-opt design):");
    for n in [2usize, 4, 8, 16, 32] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::StateOpt).with_beam(scale.beam);
        cfg.state_opt_threshold = n;
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        let direct_frac = r.stats.state_fetches_avoided as f64
            / (r.stats.state_fetches + r.stats.state_fetches_avoided).max(1) as f64;
        println!(
            "  N {:>3}: state traffic {:>10} B, direct fraction {:>6.1}%",
            n,
            r.stats.traffic.states,
            100.0 * direct_frac
        );
    }

    println!("\nmemory controller in-flight limit (final design):");
    for inflight in [4usize, 8, 16, 32, 64] {
        let mut cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(scale.beam);
        cfg.mem_inflight = inflight;
        let r = Simulator::new(cfg)
            .decode_wfst(&wfst, &scores)
            .expect("sim");
        println!("  in-flight {:>3}: cycles {:>12}", inflight, r.stats.cycles);
    }
}
