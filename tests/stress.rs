//! Stress and failure-injection tests: undersized structures and degenerate
//! workloads must degrade gracefully, never silently corrupt results.
//! Corrupted graph images are `asr-wfst`'s `store_corrupt` suite. Fixtures
//! and the oracle come from `asr-testkit`.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_testkit::{assert_cell, assert_same, Consumer, Fixture, Outcome};
use asr_wfst::{StateId, WordId};

/// The paper's final configuration, the simulator the degenerate graphs
/// run on.
const FINAL: Consumer = Consumer::Simulator(DesignPoint::StateAndArc);

#[test]
fn undersized_hash_overflows_but_stays_correct() {
    // A hash table far smaller than the active set forces collision chains
    // and overflow-buffer spills; the decode must still be exact.
    let case = &Fixture::UndersizedHash.cases()[0];
    let base = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(case.opts.beam);
    let mut cfg = base.clone();
    cfg.hash_entries = 64; // absurdly small
    let r = Simulator::new(cfg)
        .decode_wfst(&case.wfst, &case.scores)
        .unwrap();
    let want = Outcome::from(case.oracle());
    assert_same(&Outcome::from(&r), &want, "64-entry hash");
    assert!(r.stats.hash.collisions > 0, "must have collided");
    assert!(r.stats.hash.overflow_accesses > 0, "must have spilled");
    assert!(r.stats.traffic.overflow > 0, "spills cost DRAM traffic");
    // And it must be slower than a properly sized table.
    let ok = Simulator::new(base)
        .decode_wfst(&case.wfst, &case.scores)
        .unwrap();
    assert!(r.stats.cycles > ok.stats.cycles);
}

#[test]
fn tiny_caches_thrash_but_stay_correct() {
    let case = &Fixture::TinyCaches.cases()[0];
    let mut cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(case.opts.beam);
    cfg.arc_cache.capacity = 4 * 1024;
    cfg.state_cache.capacity = 4 * 1024;
    cfg.token_cache.capacity = 4 * 1024;
    let r = Simulator::new(cfg)
        .decode_wfst(&case.wfst, &case.scores)
        .unwrap();
    assert_same(
        &Outcome::from(&r),
        &Outcome::from(case.oracle()),
        "4 KB caches",
    );
    assert!(r.stats.arc_cache.miss_ratio() > 0.5, "4 KB must thrash");
}

#[test]
fn zero_beam_keeps_only_the_best_token() {
    assert_cell(FINAL, Fixture::ZeroBeam);
}

#[test]
fn single_state_graph_decodes() {
    let r = Fixture::SingleState.cases()[0].oracle();
    assert_eq!(r.words, vec![WordId(1); 4]);
    assert_eq!(r.best_state, StateId(0));
    assert_cell(FINAL, Fixture::SingleState);
}

#[test]
fn all_paths_pruned_terminates_cleanly() {
    // An acoustic table of prohibitive costs plus beam 1 starves the
    // search; both engines must finish without panicking and agree.
    assert_cell(FINAL, Fixture::AllPruned);
}

#[test]
fn deep_epsilon_chains_are_followed() {
    // A 50-deep epsilon ladder before the only emitting arc.
    let r = Fixture::DeepEpsilon.cases()[0].oracle();
    assert!(r.reached_final);
    assert_eq!(r.words, vec![WordId(7)]);
    assert_cell(FINAL, Fixture::DeepEpsilon);
}
