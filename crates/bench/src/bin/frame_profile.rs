//! Per-frame activity profile (extension beyond the paper's figures).
//!
//! The paper reports per-frame *averages* (25k arcs/frame); this
//! experiment shows the distribution over time: how the active set grows
//! from the single start token, where it saturates under the beam, and
//! how per-frame cycles track per-frame arcs — the data behind sizing the
//! double-buffered Acoustic Likelihood Buffer and batch boundaries.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_bench::{banner, Scale};

fn main() {
    let scale = Scale::from_args();
    banner(
        "frame_profile",
        "per-frame cycles / tokens / arcs over the utterance",
        "extension: the paper reports only per-frame averages",
    );
    let (wfst, scores) = scale.build();
    let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(scale.beam);
    let r = Simulator::new(cfg)
        .decode_wfst(&wfst, &scores)
        .expect("sim");
    let pf = &r.stats.per_frame;

    // Warm-up = frames before the active set first reaches 80% of the
    // maximum arc count.
    let peak_arcs = pf.iter().map(|f| f.arcs).max().unwrap_or(0);
    let warmup = pf
        .iter()
        .position(|f| f.arcs as f64 >= 0.8 * peak_arcs as f64)
        .unwrap_or(0);
    let steady: Vec<&asr_accel::stats::FrameStats> = pf.iter().skip(warmup).collect();
    let steady_arcs = if steady.is_empty() {
        0.0
    } else {
        steady.iter().map(|f| f.arcs as f64).sum::<f64>() / steady.len() as f64
    };

    println!(
        "{:>6} {:>10} {:>8} {:>8}",
        "frame", "cycles", "tokens", "arcs"
    );
    let stride = (pf.len() / 20).max(1);
    for (i, f) in pf.iter().enumerate() {
        if i % stride == 0 || i + 1 == pf.len() {
            println!("{:>6} {:>10} {:>8} {:>8}", i, f.cycles, f.tokens, f.arcs);
        }
    }
    println!("\nwarm-up: {warmup} frames to reach 80% of peak activity");
    println!("steady state: {steady_arcs:.0} arcs/frame (peak {peak_arcs})");
}
