//! Stress and failure-injection tests: undersized structures and degenerate
//! workloads must degrade gracefully, never silently corrupt results.
//! Corrupted graph images are `asr-wfst`'s `store_corrupt` suite.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_acoustic::scores::AcousticTable;
use asr_decoder::search::{DecodeOptions, ViterbiDecoder};
use asr_wfst::builder::WfstBuilder;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{PhoneId, StateId, WordId};

#[test]
fn undersized_hash_overflows_but_stays_correct() {
    // A hash table far smaller than the active set forces collision chains
    // and overflow-buffer spills; the decode must still be exact.
    let wfst = SynthWfst::generate(&SynthConfig::with_states(50_000).with_seed(3)).unwrap();
    let scores = AcousticTable::random(50, wfst.num_phones() as usize, (0.5, 4.0), 4);
    let reference = ViterbiDecoder::new(DecodeOptions::with_beam(16.0)).decode(&wfst, &scores);

    let mut cfg = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(16.0);
    cfg.hash_entries = 64; // absurdly small
    let r = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
    assert_eq!(r.cost, reference.cost);
    assert_eq!(r.words, reference.words);
    assert!(r.stats.hash.collisions > 0, "must have collided");
    assert!(r.stats.hash.overflow_accesses > 0, "must have spilled");
    assert!(r.stats.traffic.overflow > 0, "spills cost DRAM traffic");
    // And it must be slower than a properly sized table.
    let ok = Simulator::new(AcceleratorConfig::for_design(DesignPoint::Base).with_beam(16.0))
        .decode_wfst(&wfst, &scores)
        .unwrap();
    assert!(r.stats.cycles > ok.stats.cycles);
}

#[test]
fn tiny_caches_thrash_but_stay_correct() {
    let wfst = SynthWfst::generate(&SynthConfig::with_states(20_000).with_seed(7)).unwrap();
    let scores = AcousticTable::random(10, wfst.num_phones() as usize, (0.5, 4.0), 6);
    let reference = ViterbiDecoder::new(DecodeOptions::with_beam(10.0)).decode(&wfst, &scores);
    let mut cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(10.0);
    cfg.arc_cache.capacity = 4 * 1024;
    cfg.state_cache.capacity = 4 * 1024;
    cfg.token_cache.capacity = 4 * 1024;
    let r = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
    assert_eq!(r.cost, reference.cost);
    assert!(r.stats.arc_cache.miss_ratio() > 0.5, "4 KB must thrash");
}

#[test]
fn zero_beam_keeps_only_the_best_token() {
    let wfst = SynthWfst::generate(&SynthConfig::with_states(5_000).with_seed(9)).unwrap();
    let scores = AcousticTable::random(8, wfst.num_phones() as usize, (0.5, 4.0), 2);
    let reference = ViterbiDecoder::new(DecodeOptions::with_beam(0.0)).decode(&wfst, &scores);
    let cfg = AcceleratorConfig::final_design().with_beam(0.0);
    let r = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
    assert_eq!(r.cost, reference.cost);
    assert_eq!(r.words, reference.words);
}

#[test]
fn single_state_graph_decodes() {
    let mut b = WfstBuilder::new();
    let s = b.add_state();
    b.set_start(s);
    b.set_final(s, 0.25);
    b.add_arc(s, s, PhoneId(1), WordId(1), 0.5);
    let wfst = b.build().unwrap();
    let scores = AcousticTable::from_fn(4, 2, |_, p| if p == 1 { 0.1 } else { 0.0 });
    let reference = ViterbiDecoder::default().decode(&wfst, &scores);
    let r = Simulator::new(AcceleratorConfig::final_design())
        .decode_wfst(&wfst, &scores)
        .unwrap();
    assert_eq!(r.cost, reference.cost);
    assert_eq!(r.words, vec![WordId(1); 4]);
    assert_eq!(r.best_state, StateId(0));
}

#[test]
fn all_paths_pruned_terminates_cleanly() {
    // An acoustic table of prohibitive costs plus beam 0 starves the
    // search; both engines must finish without panicking and agree.
    let mut b = WfstBuilder::new();
    let s0 = b.add_state();
    let s1 = b.add_state();
    b.set_start(s0);
    b.set_final(s1, 0.0);
    b.add_arc(s0, s1, PhoneId(1), WordId(1), 1.0);
    let wfst = b.build().unwrap();
    // Phone 2 is what the graph needs... but only phone 1 arcs exist, so
    // after frame 1 the single token at s1 has no outgoing arcs.
    let scores = AcousticTable::from_fn(3, 3, |_, _| 5.0);
    let reference = ViterbiDecoder::new(DecodeOptions::with_beam(1.0)).decode(&wfst, &scores);
    let r = Simulator::new(AcceleratorConfig::final_design().with_beam(1.0))
        .decode_wfst(&wfst, &scores)
        .unwrap();
    assert_eq!(r.reached_final, reference.reached_final);
    assert_eq!(r.cost.is_finite(), reference.cost.is_finite());
}

#[test]
fn deep_epsilon_chains_are_followed() {
    // A 50-deep epsilon ladder before the only emitting arc.
    let mut b = WfstBuilder::new();
    let states: Vec<StateId> = (0..52).map(|_| b.add_state()).collect();
    b.set_start(states[0]);
    for i in 0..50 {
        b.add_epsilon_arc(states[i], states[i + 1], 0.01);
    }
    b.add_arc(states[50], states[51], PhoneId(1), WordId(7), 0.5);
    b.set_final(states[51], 0.0);
    let wfst = b.build().unwrap();
    let scores = AcousticTable::from_fn(1, 2, |_, _| 0.25);
    let reference = ViterbiDecoder::default().decode(&wfst, &scores);
    assert!(reference.reached_final);
    assert_eq!(reference.words, vec![WordId(7)]);
    let r = Simulator::new(AcceleratorConfig::final_design())
        .decode_wfst(&wfst, &scores)
        .unwrap();
    assert_eq!(r.cost, reference.cost);
    assert_eq!(r.words, reference.words);
}
