//! Differential suite: the ported simulator (functional search on
//! `asr-decoder::token_table` + `lattice`, timing as a probe) must be
//! byte-identical to the reference decoder, as [`ViterbiDecoder`] is —
//! `words`, `cost`, `best_state`,
//! `reached_final` — across design points, seeds, and beams, including the
//! degenerate decodes (empty audio, dead-end graphs, unreachable finals),
//! and its base-design hardware counters must match the pre-port
//! simulator exactly. On epsilon-free graphs its per-frame counters also
//! match the software search's, read through the search's probe.
//!
//! Fixtures and the oracle come from `asr-testkit`; the plain
//! byte-identity checks are cells of its consumer matrix, which
//! `tests/consumer_matrix.rs` runs beside every other consumer's.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::{PreparedWfst, SimResult, Simulator};
use asr_decoder::probe::RecordingProbe;
use asr_decoder::search::{DecodeScratch, ViterbiDecoder};
use asr_testkit::{assert_cell, Case, Consumer, Fixture};
use asr_wfst::StateId;

fn simulate(case: &Case, design: DesignPoint) -> SimResult {
    let cfg = AcceleratorConfig::for_design(design).with_beam(case.opts.beam);
    Simulator::new(cfg)
        .decode_wfst(&case.wfst, &case.scores)
        .unwrap()
}

#[test]
fn all_design_points_match_reference_across_seeds_and_beams() {
    for design in DesignPoint::ALL {
        assert_cell(Consumer::Simulator(design), Fixture::PortSeeds);
    }
}

#[test]
fn zero_frame_decode_matches_reference() {
    let case = &Fixture::ZeroFrames.cases()[0];
    for design in DesignPoint::ALL {
        assert_cell(Consumer::Simulator(design), Fixture::ZeroFrames);
        let sim = simulate(case, design);
        assert_eq!(sim.stats.frames, 0);
        assert!(sim.words.is_empty());
        assert!(
            sim.cost.is_finite(),
            "the start state's token survives a zero-frame decode"
        );
    }
}

/// A two-arc chain fed more frames than it is long: every token dies
/// mid-utterance and both implementations must report the same
/// empty-decode sentinel.
#[test]
fn all_paths_pruned_yields_the_infinity_sentinel_on_every_design() {
    let case = &Fixture::DeadEnd.cases()[0];
    let r = case.oracle();
    assert!(r.cost.is_infinite() && !r.reached_final && r.words.is_empty());
    assert_eq!(
        r.best_state,
        case.wfst.start(),
        "empty decode pins best_state to the start state"
    );
    for design in DesignPoint::ALL {
        assert_cell(Consumer::Simulator(design), Fixture::DeadEnd);
    }
}

/// Final states exist but three frames of audio cannot reach them: the
/// result must fall back to the cheapest non-final token, identically.
#[test]
fn unreachable_final_falls_back_to_best_token_identically() {
    let r = Fixture::UnreachableFinal.cases()[0].oracle();
    assert!(!r.reached_final && r.cost.is_finite());
    for design in DesignPoint::ALL {
        assert_cell(Consumer::Simulator(design), Fixture::UnreachableFinal);
    }
}

/// Two final states tie bit-exactly; the degree-sorted layout reorders
/// them, so the simulator must break the tie in the *original* numbering
/// (as the software search does), not in layout order.
#[test]
fn cost_ties_break_in_original_state_order_under_sorted_layout() {
    let case = &Fixture::TiedFinals.cases()[0];
    assert_eq!(
        case.oracle().best_state,
        StateId(1),
        "reference picks the lowest id"
    );
    for design in [DesignPoint::StateOpt, DesignPoint::StateAndArc] {
        // The sorted layout visits state 2 before state 1; only the
        // original-order tie-break keeps the implementations aligned.
        let prepared =
            PreparedWfst::new(&case.wfst, &AcceleratorConfig::for_design(design)).unwrap();
        assert!(
            prepared.to_original(StateId(0)) == StateId(2),
            "precondition: the layout really does reorder the tied states"
        );
        assert_cell(Consumer::Simulator(design), Fixture::TiedFinals);
    }
}

/// The base design's hardware counters on the long-standing fixture
/// (2,000 states, 20 frames, seed 5, beam 6) — captured from the pre-port
/// simulator. The token-table port moved the functional search but must
/// not move a single counter: same walk order, same pruning decisions,
/// same cache/hash/DRAM event sequence.
#[test]
fn base_design_counters_match_the_pre_port_simulator_exactly() {
    let sim = simulate(&Fixture::Counters.cases()[0], DesignPoint::Base);
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

/// Same pin for a denser fixture (20,000 states, 30 frames, seed 2, beam 6):
/// the base design's hardware counters equal the values the HashMap-era
/// simulator produced at the commit before the token-table port.
#[test]
fn bench_fixture_counters_match_the_pre_port_simulator_exactly() {
    let sim = simulate(&Fixture::Counters.cases()[1], DesignPoint::Base);
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
    assert_cell(Consumer::Simulator(DesignPoint::Base), Fixture::WideBeam);
    for case in Fixture::WideBeam.cases() {
        let sim = simulate(case, DesignPoint::Base);
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
    for case in Fixture::EpsilonFree.cases() {
        let w = &case.wfst;
        assert_eq!(w.epsilon_fraction(), 0.0);
        let mut probe = RecordingProbe::default();
        let mut scratch = DecodeScratch::new(w.num_states());
        ViterbiDecoder::new(case.opts.clone()).decode_probed(
            &mut scratch,
            w,
            &case.scores,
            &mut probe,
        );
        for design in DesignPoint::ALL {
            let sim = simulate(case, design);
            let what = format!("{}, {design:?}", case.label);
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
