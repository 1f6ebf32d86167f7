//! Equivalence suite: the token-table decoder must reproduce the retained
//! `HashMap` reference decoder byte-for-byte on `words`, `cost`, and
//! `best_state` — across graph sizes, beams, histogram caps and graph
//! backings (owned arrays, zero-copy store image). This is what licenses
//! replacing the hot path: prune-on-insert may only skip work, never
//! change the answer.

use asr_acoustic::scores::AcousticTable;
use asr_decoder::reference::ReferenceDecoder;
use asr_decoder::search::{DecodeOptions, DecodeResult, DecodeScratch, ViterbiDecoder};
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::Wfst;

fn workload(states: usize, frames: usize, seed: u64) -> (Wfst, AcousticTable) {
    let wfst = SynthWfst::generate(&SynthConfig::with_states(states).with_seed(seed)).unwrap();
    let scores = AcousticTable::random(
        frames,
        wfst.num_phones() as usize,
        (0.5, 4.0),
        seed.wrapping_mul(0x9E37_79B9),
    );
    (wfst, scores)
}

/// Returns the token-table decoder's result once it is known to equal
/// the reference's.
fn assert_equivalent(
    opts: &DecodeOptions,
    wfst: &Wfst,
    scores: &AcousticTable,
    label: &str,
) -> DecodeResult {
    let reference = ReferenceDecoder::new(opts.clone()).decode(wfst, scores);
    let table = ViterbiDecoder::new(opts.clone()).decode(wfst, scores);
    assert_eq!(
        table.cost.to_bits(),
        reference.cost.to_bits(),
        "{label}: cost"
    );
    assert_eq!(table.words, reference.words, "{label}: words");
    assert_eq!(
        table.best_state, reference.best_state,
        "{label}: best_state"
    );
    assert_eq!(
        table.reached_final, reference.reached_final,
        "{label}: reached_final"
    );
    table
}

#[test]
fn equivalent_across_graph_sizes_and_seeds() {
    for states in [2_000usize, 10_000, 50_000] {
        for seed in [1u64, 2, 3] {
            let (wfst, scores) = workload(states, 20, seed);
            let opts = DecodeOptions::with_beam(6.0);
            assert_equivalent(
                &opts,
                &wfst,
                &scores,
                &format!("{states} states, seed {seed}"),
            );
        }
    }
}

#[test]
fn equivalent_across_beams() {
    let (wfst, scores) = workload(8_000, 25, 11);
    for beam in [0.0f32, 2.0, 4.0, 8.0, 16.0, 64.0] {
        let opts = DecodeOptions::with_beam(beam);
        assert_equivalent(&opts, &wfst, &scores, &format!("beam {beam}"));
    }
}

#[test]
fn equivalent_under_histogram_pruning() {
    let (wfst, scores) = workload(6_000, 20, 23);
    // cap 0 is the degenerate everything-pruned decode; it must not
    // panic and must agree with the reference's empty result.
    for cap in [0usize, 1, 8, 64, 512] {
        let opts = DecodeOptions {
            beam: 12.0,
            max_active: Some(cap),
        };
        assert_equivalent(&opts, &wfst, &scores, &format!("max_active {cap}"));
    }
}

#[test]
fn equivalent_with_and_without_lattice_gc() {
    // The search compacts its trace every 32 frames: 20 frames never
    // reach a GC, 100 run three.
    for frames in [20, 100] {
        let (wfst, scores) = workload(5_000, frames, 31);
        let opts = DecodeOptions::with_beam(6.0);
        assert_equivalent(&opts, &wfst, &scores, &format!("{frames} frames"));
    }
}

#[test]
fn equivalent_on_truncated_audio_without_finals_in_beam() {
    // A tight beam often strands the best path outside final states; the
    // final-frame handling (pruning disabled) must match the reference's
    // full-set final-state selection.
    for seed in [5u64, 17, 40] {
        let (wfst, scores) = workload(3_000, 7, seed);
        let opts = DecodeOptions::with_beam(1.5);
        assert_equivalent(&opts, &wfst, &scores, &format!("tight beam, seed {seed}"));
    }
}

#[test]
fn equivalent_over_an_image_backed_graph_and_its_owned_rebuild() {
    // The same degree-sorted graph twice: records read in place from a v2
    // store image, and the owned arrays the image was written from. Each
    // must match the reference run over the same backing, and the two
    // backings must give the same answer.
    let wfst = SynthWfst::generate(&SynthConfig::with_states(20_000).with_seed(0x570E)).unwrap();
    let scores = AcousticTable::random(50, wfst.num_phones() as usize, (0.5, 4.0), 0xACC0);
    let sorted = SortedWfst::new(&wfst).unwrap();
    let image = GraphImage::from_bytes(&store::to_bytes(&sorted)).unwrap();
    assert!(image.wfst().is_image_backed());
    assert!(!sorted.wfst().is_image_backed());
    let opts = DecodeOptions::with_beam(8.0);
    let over_image = assert_equivalent(&opts, image.wfst(), &scores, "image-backed");
    let over_owned = assert_equivalent(&opts, sorted.wfst(), &scores, "owned");
    assert_eq!(over_image.words, over_owned.words);
    assert_eq!(over_image.cost.to_bits(), over_owned.cost.to_bits());
    assert_eq!(over_image.best_state, over_owned.best_state);
}

#[test]
fn scratch_reuse_across_different_graphs_matches_reference() {
    // One scratch serving interleaved decodes of differently sized graphs
    // (the serving pattern): results must not depend on scratch history.
    let mut scratch = DecodeScratch::new(1);
    let opts = DecodeOptions::with_beam(6.0);
    let decoder = ViterbiDecoder::new(opts.clone());
    for &(states, seed) in &[(2_000usize, 1u64), (9_000, 2), (3_000, 3), (9_000, 4)] {
        let (wfst, scores) = workload(states, 15, seed);
        let reference = ReferenceDecoder::new(opts.clone()).decode(&wfst, &scores);
        let reused = decoder.decode_with(&mut scratch, &wfst, &scores);
        assert_eq!(reused.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(reused.words, reference.words);
        assert_eq!(reused.best_state, reference.best_state);
    }
}
