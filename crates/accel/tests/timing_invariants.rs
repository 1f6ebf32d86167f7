//! Timing-model invariants: relations that must hold for *any* workload,
//! independent of the exact cycle counts.

use asr_accel::config::{AcceleratorConfig, DesignPoint};
use asr_accel::sim::Simulator;
use asr_acoustic::scores::AcousticTable;
use asr_testkit::{graph, rows};
use asr_wfst::Wfst;
use proptest::prelude::*;

fn workload(states: usize, frames: usize, seed: u64) -> (Wfst, AcousticTable) {
    let wfst = graph(states, seed);
    let scores = rows(&wfst, frames, seed ^ 0xF00D);
    (wfst, scores)
}

fn cycles(cfg: AcceleratorConfig, wfst: &Wfst, scores: &AcousticTable) -> u64 {
    Simulator::new(cfg)
        .decode_wfst(wfst, scores)
        .unwrap()
        .stats
        .cycles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn idealizations_never_slow_the_machine(seed in 0u64..50) {
        let (wfst, scores) = workload(2_000, 8, seed);
        let base = AcceleratorConfig::for_design(DesignPoint::Base).with_beam(6.0);
        let real = cycles(base.clone(), &wfst, &scores);
        prop_assert!(cycles(base.clone().with_perfect_caches(), &wfst, &scores) <= real);
        prop_assert!(cycles(base.clone().with_ideal_hash(), &wfst, &scores) <= real);
        let mut pa = base.clone();
        pa.perfect_arc_cache = true;
        prop_assert!(cycles(pa, &wfst, &scores) <= real);
    }

    #[test]
    fn wider_prefetch_fifo_never_hurts(seed in 0u64..50) {
        let (wfst, scores) = workload(2_000, 8, seed);
        let mut shallow = AcceleratorConfig::for_design(DesignPoint::ArcPrefetch).with_beam(6.0);
        shallow.prefetch_fifo = 8;
        let mut deep = shallow.clone();
        deep.prefetch_fifo = 128;
        prop_assert!(cycles(deep, &wfst, &scores) <= cycles(shallow, &wfst, &scores));
    }

    #[test]
    fn more_frames_cost_more_cycles(seed in 0u64..50) {
        let wfst = graph(2_000, seed);
        let short = rows(&wfst, 4, seed);
        let mut long = short.clone();
        long.extend(&rows(&wfst, 8, seed ^ 1));
        let cfg = AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(6.0);
        prop_assert!(
            cycles(cfg.clone(), &wfst, &long) > cycles(cfg, &wfst, &short)
        );
    }

    #[test]
    fn traffic_accounting_is_consistent(seed in 0u64..50) {
        let (wfst, scores) = workload(2_000, 8, seed);
        let r = Simulator::new(AcceleratorConfig::default().with_beam(6.0))
            .decode_wfst(&wfst, &scores)
            .unwrap();
        let s = &r.stats;
        // Every off-chip byte is a whole line.
        prop_assert_eq!(s.traffic.search_bytes() % 64, 0);
        // Line fills are bounded by misses (+ token writebacks).
        prop_assert!(s.traffic.arcs / 64 == s.arc_cache.misses);
        prop_assert!(s.traffic.states / 64 == s.state_cache.misses);
        prop_assert!(
            s.traffic.tokens / 64 == s.token_cache.misses + s.token_cache.writebacks
        );
        // DRAM served every line (acoustic DMA is bulk-accounted).
        prop_assert_eq!(
            s.mem_requests,
            s.traffic.search_bytes() / 64
        );
    }

    #[test]
    fn functional_counters_are_design_invariant(seed in 0u64..30) {
        // Cycles change across design points; the *work* (arcs evaluated,
        // tokens created) must not.
        let (wfst, scores) = workload(2_000, 8, seed);
        let mut reference: Option<(u64, u64, u64)> = None;
        for design in DesignPoint::ALL {
            let r = Simulator::new(AcceleratorConfig::for_design(design).with_beam(6.0))
                .decode_wfst(&wfst, &scores)
                .unwrap();
            let key = (
                r.stats.arcs_processed,
                r.stats.eps_arcs_processed,
                r.stats.tokens_created,
            );
            match &reference {
                None => reference = Some(key),
                Some(prev) => prop_assert_eq!(*prev, key, "{:?}", design),
            }
        }
    }
}
