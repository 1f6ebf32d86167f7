//! Figure 7: cumulative percentage of dynamically accessed states vs
//! out-degree.
//!
//! Paper: although the maximum out-degree is 770, 97% of the states
//! fetched from memory during decoding have 15 or fewer arcs — the
//! observation behind the Section IV-B bandwidth-saving layout.

use asr_bench::{banner, Scale};
use asr_decoder::probe::Probe;
use asr_decoder::search::{DecodeOptions, DecodeScratch, ViterbiDecoder};
use asr_wfst::stats::DegreeCdf;
use asr_wfst::StateId;
use std::collections::HashMap;

/// Counts how often the search expands each state: every expansion is a
/// fetch of the state's record and arcs.
#[derive(Default)]
struct Fetches(HashMap<u32, u64>);

impl Probe for Fetches {
    fn expand(&mut self, state: u32) {
        *self.0.entry(state).or_insert(0) += 1;
    }
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig07",
        "cumulative % of state accesses vs out-degree",
        "97% of dynamically fetched states have <= 15 arcs (max 770)",
    );
    let (wfst, scores) = scale.build();
    let static_cdf = DegreeCdf::from_static(&wfst);

    let decoder = ViterbiDecoder::new(DecodeOptions::with_beam(scale.beam));
    let mut fetches = Fetches::default();
    let mut scratch = DecodeScratch::new(wfst.num_states());
    decoder.decode_probed(&mut scratch, &wfst, &scores, &mut fetches);
    let dynamic_cdf =
        DegreeCdf::from_accesses(&wfst, fetches.0.iter().map(|(&s, &n)| (StateId(s), n)));

    println!("{:>8} {:>12} {:>12}", "degree", "static", "dynamic");
    for d in [1usize, 2, 3, 5, 8, 10, 15, 16, 32, 64, 128, 770] {
        if d <= static_cdf.max_degree().max(770) {
            println!(
                "{:>8} {:>11.1}% {:>11.1}%",
                d,
                100.0 * static_cdf.cumulative(d),
                100.0 * dynamic_cdf.cumulative(d)
            );
        }
    }
    println!("\nchecks (paper: dynamic <=15 is 97%; static <=16 over 95%; max 770):");
    println!("  dynamic <=15: {:.1}%", 100.0 * dynamic_cdf.cumulative(15));
    println!("  static  <=16: {:.1}%", 100.0 * static_cdf.cumulative(16));
    println!("  max degree:   {}", static_cdf.max_degree());
}
