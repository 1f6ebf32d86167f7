//! Differential suite: the ported simulator (functional search on
//! `asr-decoder::token_table` + `lattice`, timing as a probe) must be
//! byte-identical to [`ViterbiDecoder`] — `words`, `cost`, `best_state`,
//! `reached_final` — across design points, seeds, and beams, including the
//! degenerate decodes (empty audio, dead-end graphs, unreachable finals),
//! and its base-design hardware counters must match the pre-port
//! simulator exactly. On epsilon-free graphs its per-frame counters also
//! match the software search's, read through the search's probe.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::{PreparedWfst, SimResult, Simulator};
use asr_acoustic::scores::AcousticTable;
use asr_decoder::probe::RecordingProbe;
use asr_decoder::search::{DecodeOptions, DecodeResult, DecodeScratch, ViterbiDecoder};
use asr_wfst::builder::WfstBuilder;
use asr_wfst::rmeps::remove_epsilons;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{PhoneId, StateId, Wfst, WordId};

fn workload(states: usize, frames: usize, seed: u64) -> (Wfst, AcousticTable) {
    let w = SynthWfst::generate(&SynthConfig::with_states(states).with_seed(seed)).unwrap();
    let scores = AcousticTable::random(frames, w.num_phones() as usize, (0.5, 4.0), seed ^ 0xABCD);
    (w, scores)
}

fn reference(wfst: &Wfst, scores: &AcousticTable, beam: f32) -> DecodeResult {
    ViterbiDecoder::new(DecodeOptions::with_beam(beam)).decode(wfst, scores)
}

fn simulate(wfst: &Wfst, scores: &AcousticTable, design: DesignPoint, beam: f32) -> SimResult {
    let cfg = AcceleratorConfig::for_design(design).with_beam(beam);
    Simulator::new(cfg).decode_wfst(wfst, scores).unwrap()
}

#[track_caller]
fn assert_identical(sim: &SimResult, reference: &DecodeResult, context: &str) {
    assert_eq!(sim.words, reference.words, "words diverged: {context}");
    assert_eq!(
        sim.cost.to_bits(),
        reference.cost.to_bits(),
        "cost diverged ({} vs {}): {context}",
        sim.cost,
        reference.cost
    );
    assert_eq!(
        sim.best_state, reference.best_state,
        "best_state diverged: {context}"
    );
    assert_eq!(
        sim.reached_final, reference.reached_final,
        "reached_final diverged: {context}"
    );
}

#[test]
fn all_design_points_match_reference_across_seeds_and_beams() {
    for seed in [1u64, 2, 3, 4, 5] {
        let (w, scores) = workload(1_500, 12, seed);
        for beam in [3.0f32, 6.0, 12.0] {
            let r = reference(&w, &scores, beam);
            for design in DesignPoint::ALL {
                let sim = simulate(&w, &scores, design, beam);
                assert_identical(&sim, &r, &format!("seed {seed}, beam {beam}, {design:?}"));
            }
        }
    }
}

#[test]
fn zero_frame_decode_matches_reference() {
    let (w, _) = workload(800, 0, 17);
    let scores = AcousticTable::random(0, w.num_phones() as usize, (0.5, 4.0), 17);
    let r = reference(&w, &scores, 6.0);
    for design in DesignPoint::ALL {
        let sim = simulate(&w, &scores, design, 6.0);
        assert_identical(&sim, &r, &format!("zero frames, {design:?}"));
        assert_eq!(sim.stats.frames, 0);
        assert!(sim.words.is_empty());
        assert!(
            sim.cost.is_finite(),
            "the start state's token survives a zero-frame decode"
        );
    }
}

/// A two-arc chain: feeding it more frames than the chain is long starves
/// the search — every token dies mid-utterance and both implementations
/// must report the same empty-decode sentinel.
fn dead_end_chain() -> (Wfst, AcousticTable) {
    let mut b = WfstBuilder::new();
    let s0 = b.add_state();
    let s1 = b.add_state();
    let s2 = b.add_state();
    b.set_start(s0);
    b.add_arc(s0, s1, PhoneId(1), WordId(1), 0.5);
    b.add_arc(s1, s2, PhoneId(2), WordId::NONE, 0.5);
    b.set_final(s2, 0.0);
    let w = b.build().unwrap();
    let scores = AcousticTable::from_fn(5, 3, |_, _| 1.0);
    (w, scores)
}

#[test]
fn all_paths_pruned_yields_the_infinity_sentinel_on_every_design() {
    let (w, scores) = dead_end_chain();
    let r = reference(&w, &scores, 8.0);
    assert!(r.cost.is_infinite() && !r.reached_final && r.words.is_empty());
    for design in DesignPoint::ALL {
        let sim = simulate(&w, &scores, design, 8.0);
        assert_identical(&sim, &r, &format!("dead-end chain, {design:?}"));
        assert_eq!(
            sim.best_state,
            w.start(),
            "empty decode pins best_state to the start state, {design:?}"
        );
    }
}

/// Final states exist but three frames of audio cannot reach them: the
/// result must fall back to the cheapest non-final token, identically.
#[test]
fn unreachable_final_falls_back_to_best_token_identically() {
    let mut b = WfstBuilder::new();
    let states: Vec<StateId> = (0..6).map(|_| b.add_state()).collect();
    b.set_start(states[0]);
    for i in 0..5 {
        b.add_arc(
            states[i],
            states[i + 1],
            PhoneId(1 + (i as u32 % 2)),
            WordId(1 + i as u32),
            0.25,
        );
    }
    b.set_final(states[5], 0.0); // needs 5 frames; only 3 provided
    let w = b.build().unwrap();
    let scores = AcousticTable::from_fn(3, 3, |_, _| 0.75);
    let r = reference(&w, &scores, 20.0);
    assert!(!r.reached_final && r.cost.is_finite());
    for design in DesignPoint::ALL {
        let sim = simulate(&w, &scores, design, 20.0);
        assert_identical(&sim, &r, &format!("unreachable final, {design:?}"));
    }
}

/// Two final states tie bit-exactly; the degree-sorted layout reorders
/// them, so the simulator must break the tie in the *original* numbering
/// (as `ViterbiDecoder` does), not in layout order.
#[test]
fn cost_ties_break_in_original_state_order_under_sorted_layout() {
    let mut b = WfstBuilder::new();
    let s0 = b.add_state();
    let a = b.add_state(); // original id 1, out-degree 2
    let bb = b.add_state(); // original id 2, out-degree 1 — sorted first
    let dead = b.add_state();
    b.set_start(s0);
    // Identical phone + weight: the two destination tokens tie bit-exactly.
    b.add_arc(s0, a, PhoneId(1), WordId(1), 0.5);
    b.add_arc(s0, bb, PhoneId(1), WordId(2), 0.5);
    // Degree split so the sorted layout swaps a and bb.
    b.add_arc(a, dead, PhoneId(2), WordId::NONE, 9.0);
    b.add_arc(a, dead, PhoneId(3), WordId::NONE, 9.0);
    b.add_arc(bb, dead, PhoneId(2), WordId::NONE, 9.0);
    b.set_final(a, 0.0);
    b.set_final(bb, 0.0);
    let w = b.build().unwrap();
    let scores = AcousticTable::from_fn(1, 4, |_, _| 1.0);
    let r = reference(&w, &scores, 20.0);
    assert_eq!(r.best_state, StateId(1), "reference picks the lowest id");
    for design in [DesignPoint::StateOpt, DesignPoint::StateAndArc] {
        let sim = simulate(&w, &scores, design, 20.0);
        // The sorted layout visits bb before a; only the original-order
        // tie-break keeps the implementations aligned.
        let prepared = PreparedWfst::new(&w, &AcceleratorConfig::for_design(design)).unwrap();
        assert!(
            prepared.to_original(StateId(0)) == StateId(2),
            "precondition: the layout really does reorder the tied states"
        );
        assert_identical(&sim, &r, &format!("tied finals, {design:?}"));
    }
}

/// The base design's hardware counters on the long-standing fixture
/// (`workload(2_000, 20, 5)`, beam 6) — captured from the pre-port
/// simulator. The token-table port moved the functional search but must
/// not move a single counter: same walk order, same pruning decisions,
/// same cache/hash/DRAM event sequence.
#[test]
fn base_design_counters_match_the_pre_port_simulator_exactly() {
    let (w, scores) = workload(2_000, 20, 5);
    let sim = simulate(&w, &scores, DesignPoint::Base, 6.0);
    let s = &sim.stats;
    assert_eq!(s.cycles, 21_632);
    assert_eq!(s.tokens_fetched, 785);
    assert_eq!(s.tokens_pruned, 373);
    assert_eq!(s.tokens_created, 786);
    assert_eq!(s.arcs_processed, 672);
    assert_eq!(s.eps_arcs_processed, 125);
    assert_eq!(s.arc_fetches, 1_152);
    assert_eq!(s.state_fetches, 412);
    assert_eq!(s.state_fetches_avoided, 0);
    assert_eq!(s.hash.requests, 798);
    assert_eq!(s.hash.cycles, 798);
    assert_eq!(s.hash.collisions, 0);
    assert_eq!(s.hash.overflow_accesses, 0);
    assert_eq!(s.hash.peak_occupancy, 159);
    assert_eq!(s.traffic.states, 12_736);
    assert_eq!(s.traffic.arcs, 29_824);
    assert_eq!(s.traffic.tokens, 6_336);
    assert_eq!(s.traffic.overflow, 0);
    assert_eq!(s.traffic.acoustic, 160_000);
    assert_eq!(s.mem_requests, 764);
    assert_eq!(s.fp_adds, 1_469);
    assert_eq!(s.fp_compares, 1_582);
    assert_eq!(sim.cost, 81.25823);
    assert_eq!(sim.best_state, StateId(815));
    assert!(!sim.reached_final);
}

/// Same pin for a denser fixture (`workload(20_000, 30, 2)`, beam 6):
/// the base design's hardware counters equal the values the HashMap-era
/// simulator produced at the commit before the token-table port.
#[test]
fn bench_fixture_counters_match_the_pre_port_simulator_exactly() {
    let (w, scores) = workload(20_000, 30, 2);
    let sim = simulate(&w, &scores, DesignPoint::Base, 6.0);
    let s = &sim.stats;
    assert_eq!(s.cycles, 72_085);
    assert_eq!(s.tokens_fetched, 4_230);
    assert_eq!(s.tokens_pruned, 2_624);
    assert_eq!(s.tokens_created, 4_273);
    assert_eq!(s.arcs_processed, 3_710);
    assert_eq!(s.eps_arcs_processed, 633);
    assert_eq!(s.hash.requests, 4_344);
    assert_eq!(s.hash.cycles, 4_344);
    assert_eq!(s.hash.peak_occupancy, 501);
    assert_eq!(s.traffic.states, 59_008);
    assert_eq!(s.traffic.arcs, 111_040);
    assert_eq!(s.traffic.tokens, 34_240);
    assert_eq!(s.mem_requests, 3_192);
    assert_eq!(s.fp_adds, 8_053);
    assert_eq!(s.fp_compares, 8_573);
}

/// Scores-level property: on tiny graphs where every arc stays in beam,
/// the simulator's token accounting is tied to the search it now shares —
/// every created token is a lattice push, every fetch a walk step.
#[test]
fn token_accounting_is_consistent_with_the_shared_search() {
    for seed in [7u64, 21] {
        let (w, scores) = workload(600, 8, seed);
        let r = reference(&w, &scores, 1e6);
        let sim = simulate(&w, &scores, DesignPoint::Base, 1e6);
        assert_identical(&sim, &r, &format!("wide beam, seed {seed}"));
        // With an effectively infinite beam nothing is pruned at fetch.
        assert_eq!(
            sim.stats.tokens_pruned, 0,
            "an unbounded beam prunes nothing"
        );
        // Every evaluated arc probed a hash table (plus one probe for the
        // start token) — the observer fired for stored AND rejected
        // relaxes, exactly one per arc.
        assert_eq!(
            sim.stats.hash.requests,
            sim.stats.arcs_processed + sim.stats.eps_arcs_processed + 1
        );
    }
}

/// The paper's per-frame counter method as a check: the software search,
/// read through a [`RecordingProbe`], and the simulator count the same
/// work on every frame. On epsilon-free graphs (the synth graphs with
/// their epsilon arcs removed, beam only) each frame's arcs are equal,
/// and the simulator reads at least the tokens the software held live
/// (the software's prune-on-insert stores fewer).
///
/// On graphs with epsilon arcs the counts differ by design: the simulator
/// closes epsilon one wave later and re-expands a token within a wave
/// when it improves. Seed 1 at 1,500 states and beam 12, for one, reads
/// 38,707 software arcs over 30 frames against 38,581 in the simulator's
/// 30 frame waves (38,886 with its start and end closures).
#[test]
fn per_frame_counters_match_the_software_probe_on_epsilon_free_graphs() {
    for seed in 1u64..=5 {
        for states in [1_500, 20_000] {
            let (w, scores) = workload(states, 30, seed);
            let w = remove_epsilons(&w).unwrap();
            assert_eq!(w.epsilon_fraction(), 0.0);
            for beam in [3.0f32, 6.0, 12.0] {
                let mut probe = RecordingProbe::default();
                let mut scratch = DecodeScratch::new(w.num_states());
                ViterbiDecoder::new(DecodeOptions::with_beam(beam)).decode_probed(
                    &mut scratch,
                    &w,
                    &scores,
                    &mut probe,
                );
                for design in DesignPoint::ALL {
                    let sim = simulate(&w, &scores, design, beam);
                    let what = format!("seed {seed}, {states} states, beam {beam}, {design:?}");
                    let hw = &sim.stats.per_frame;
                    assert_eq!(hw.len(), probe.frames.len(), "frames: {what}");
                    for (f, (hw, sw)) in hw.iter().zip(&probe.frames).enumerate() {
                        let arcs = (sw.relax_arcs + sw.closure_arcs) as u64;
                        assert_eq!(hw.arcs, arcs, "frame {f} arcs: {what}");
                        assert!(
                            hw.tokens >= sw.live as u64,
                            "frame {f}: {} tokens read, {} live: {what}",
                            hw.tokens,
                            sw.live
                        );
                    }
                }
            }
        }
    }
}
