//! Equivalence suite: the token-table decoder must reproduce the retained
//! `HashMap` reference decoder byte-for-byte on `words`, `cost`, and
//! `best_state` — across graph sizes, beams, histogram caps and graph
//! backings (owned arrays, zero-copy store image). This is what licenses
//! replacing the hot path: prune-on-insert may only skip work, never
//! change the answer.
//!
//! Each test is one cell of the consumer matrix (`asr-testkit`): the
//! fixture, the consumer and the oracle assertion all come from the kit,
//! and `tests/consumer_matrix.rs` runs the same cells beside every other
//! consumer's.

use asr_testkit::{assert_cell, Consumer, Fixture};

#[test]
fn equivalent_across_graph_sizes_and_seeds() {
    assert_cell(Consumer::Viterbi, Fixture::GraphSizes);
}

#[test]
fn equivalent_across_beams() {
    assert_cell(Consumer::Viterbi, Fixture::Beams);
}

#[test]
fn equivalent_under_histogram_pruning() {
    // Cap 0 is the degenerate everything-pruned decode; it must not
    // panic and must agree with the reference's empty result.
    assert_cell(Consumer::Viterbi, Fixture::HistogramCaps);
}

#[test]
fn equivalent_with_and_without_lattice_gc() {
    // The search compacts its trace every 32 frames: 20 frames never
    // reach a GC, 100 run three.
    assert_cell(Consumer::Viterbi, Fixture::LatticeGc);
}

#[test]
fn equivalent_on_truncated_audio_without_finals_in_beam() {
    // A tight beam often strands the best path outside final states; the
    // final-frame handling (pruning disabled) must match the reference's
    // full-set final-state selection.
    assert_cell(Consumer::Viterbi, Fixture::TightBeam);
}

#[test]
fn equivalent_over_an_image_backed_graph_and_its_owned_rebuild() {
    // The same degree-sorted graph twice: records read in place from a v2
    // store image, and the owned arrays the image was written from. Both
    // must match the reference on the unsorted graph, best state mapped
    // back, so they also match each other.
    assert_cell(Consumer::SortedImage, Fixture::StoreImage);
    assert_cell(Consumer::SortedOwned, Fixture::StoreImage);
}

#[test]
fn scratch_reuse_across_different_graphs_matches_reference() {
    // One scratch serving interleaved decodes of differently sized graphs
    // (the serving pattern): results must not depend on scratch history.
    assert_cell(Consumer::ViterbiReused, Fixture::MixedSizes);
}
