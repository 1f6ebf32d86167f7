//! Cross-crate integration: the cycle-accurate simulator must be
//! functionally identical to the reference software decoder on every
//! design point, workload shape, and idealization — the property that
//! makes the timing numbers trustworthy.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_acoustic::scores::AcousticTable;
use asr_decoder::search::{DecodeOptions, ViterbiDecoder};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::Wfst;

fn workload(states: usize, frames: usize, seed: u64) -> (Wfst, AcousticTable) {
    let wfst = SynthWfst::generate(&SynthConfig::with_states(states).with_seed(seed)).unwrap();
    let scores = AcousticTable::random(
        frames,
        wfst.num_phones() as usize,
        (0.5, 4.0),
        seed.wrapping_mul(31),
    );
    (wfst, scores)
}

#[test]
fn simulator_matches_decoder_across_seeds_and_designs() {
    for seed in [1u64, 2, 3, 4, 5] {
        let (wfst, scores) = workload(4_000, 15, seed);
        let reference = ViterbiDecoder::new(DecodeOptions::with_beam(6.0)).decode(&wfst, &scores);
        for design in DesignPoint::ALL {
            let cfg = AcceleratorConfig::for_design(design).with_beam(6.0);
            let sim = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
            assert_eq!(sim.cost, reference.cost, "seed {seed}, {design:?}");
            assert_eq!(sim.words, reference.words, "seed {seed}, {design:?}");
            assert_eq!(
                sim.best_state, reference.best_state,
                "seed {seed}, {design:?}"
            );
            assert_eq!(sim.reached_final, reference.reached_final);
        }
    }
}

#[test]
fn idealizations_never_change_function() {
    let (wfst, scores) = workload(5_000, 12, 77);
    let reference = ViterbiDecoder::new(DecodeOptions::with_beam(6.0)).decode(&wfst, &scores);
    let cfgs = [
        AcceleratorConfig::default()
            .with_beam(6.0)
            .with_perfect_caches(),
        AcceleratorConfig::default()
            .with_beam(6.0)
            .with_ideal_hash(),
        AcceleratorConfig::final_design()
            .with_beam(6.0)
            .with_perfect_caches()
            .with_ideal_hash(),
    ];
    for cfg in cfgs {
        let sim = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
        assert_eq!(sim.cost, reference.cost);
        assert_eq!(sim.words, reference.words);
    }
}

#[test]
fn beam_width_changes_work_not_result_validity() {
    // Wider beams may change the result (less pruning) but every beam
    // must keep simulator and decoder in lockstep.
    let (wfst, scores) = workload(3_000, 10, 13);
    for beam in [2.0f32, 4.0, 8.0, 16.0] {
        let reference = ViterbiDecoder::new(DecodeOptions::with_beam(beam)).decode(&wfst, &scores);
        let cfg = AcceleratorConfig::final_design().with_beam(beam);
        let sim = Simulator::new(cfg).decode_wfst(&wfst, &scores).unwrap();
        assert_eq!(sim.cost, reference.cost, "beam {beam}");
        assert_eq!(sim.words, reference.words, "beam {beam}");
    }
}

#[test]
fn sorted_layout_preserves_the_language() {
    // Decoding on the degree-sorted WFST directly (reference decoder on
    // the rewritten graph) gives the same costs as the original layout.
    let (wfst, scores) = workload(3_000, 10, 17);
    let sorted = asr_wfst::sorted::SortedWfst::new(&wfst).unwrap();
    let opts = DecodeOptions::with_beam(6.0);
    let original = ViterbiDecoder::new(opts.clone()).decode(&wfst, &scores);
    let rewritten = ViterbiDecoder::new(opts).decode(sorted.wfst(), &scores);
    assert_eq!(original.cost, rewritten.cost);
    assert_eq!(original.words, rewritten.words);
    assert_eq!(
        sorted.unmap_state(rewritten.best_state),
        original.best_state
    );
}

#[test]
fn epsilon_removal_preserves_best_paths() {
    // Decoding an epsilon-free rewrite of the graph must find the same
    // best cost and words (synthetic epsilon arcs carry no output labels,
    // so removal is exact).
    for seed in [1u64, 7, 23] {
        let (wfst, scores) = workload(2_000, 12, seed);
        let eps_free = asr_wfst::rmeps::remove_epsilons(&wfst).unwrap();
        assert_eq!(eps_free.epsilon_fraction(), 0.0);
        let opts = DecodeOptions::with_beam(8.0);
        let original = ViterbiDecoder::new(opts.clone()).decode(&wfst, &scores);
        let rewritten = ViterbiDecoder::new(opts).decode(&eps_free, &scores);
        assert!(
            (original.cost - rewritten.cost).abs() < 1e-3,
            "seed {seed}: {} vs {}",
            original.cost,
            rewritten.cost
        );
        assert_eq!(original.words, rewritten.words, "seed {seed}");
    }
}
