//! Cross-crate integration: the cycle-accurate simulator must be
//! functionally identical to the reference software decoder on every
//! design point, workload shape, and idealization — the property that
//! makes the timing numbers trustworthy. Fixtures and the oracle come
//! from `asr-testkit`; `tests/consumer_matrix.rs` runs the same cells.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_decoder::search::ViterbiDecoder;
use asr_testkit::{assert_cell, assert_same, Consumer, Fixture, Outcome};

#[test]
fn simulator_matches_decoder_across_seeds_and_designs() {
    for design in DesignPoint::ALL {
        assert_cell(Consumer::Simulator(design), Fixture::DesignSeeds);
    }
}

#[test]
fn idealizations_never_change_function() {
    let case = &Fixture::Idealized.cases()[0];
    let cfgs = [
        AcceleratorConfig::default().with_perfect_caches(),
        AcceleratorConfig::default().with_ideal_hash(),
        AcceleratorConfig::for_design(DesignPoint::StateAndArc)
            .with_perfect_caches()
            .with_ideal_hash(),
    ];
    for (i, cfg) in cfgs.into_iter().enumerate() {
        let cfg = cfg.with_beam(case.opts.beam);
        let sim = Simulator::new(cfg)
            .decode_wfst(&case.wfst, &case.scores)
            .unwrap();
        let what = format!("idealization {i}");
        assert_same(&Outcome::from(&sim), &Outcome::from(case.oracle()), &what);
    }
}

#[test]
fn beam_width_changes_work_not_result_validity() {
    // Wider beams may change the result (less pruning) but every beam
    // must keep simulator and decoder in lockstep.
    assert_cell(
        Consumer::Simulator(DesignPoint::StateAndArc),
        Fixture::SimBeams,
    );
}

#[test]
fn sorted_layout_preserves_the_language() {
    // Decoding on the degree-sorted WFST directly gives the reference's
    // result on the original layout, best state mapped back.
    assert_cell(Consumer::SortedOwned, Fixture::Layout);
}

#[test]
fn epsilon_removal_preserves_best_paths() {
    // Decoding an epsilon-free rewrite of the graph must find the same
    // best cost and words (synthetic epsilon arcs carry no output labels,
    // so removal is exact up to the order weights are summed in).
    for case in Fixture::EpsilonRemoval.cases() {
        let eps_free = asr_wfst::rmeps::remove_epsilons(&case.wfst).unwrap();
        assert_eq!(eps_free.epsilon_fraction(), 0.0);
        let original = case.oracle();
        let rewritten = ViterbiDecoder::new(case.opts.clone()).decode(&eps_free, &case.scores);
        assert!(
            (original.cost - rewritten.cost).abs() < 1e-3,
            "{}: {} vs {}",
            case.label,
            original.cost,
            rewritten.cost
        );
        assert_eq!(original.words, rewritten.words, "{}", case.label);
    }
}
