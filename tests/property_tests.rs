//! Property-based tests over the core data structures and invariants.

use asr_decoder::lattice::{Lattice, TraceId};
use asr_decoder::wer::align;
use asr_wfst::builder::WfstBuilder;
use asr_wfst::layout::{pack_arc, pack_state, unpack_arc, unpack_state};
use asr_wfst::sorted::SortedWfst;
use asr_wfst::store::{self, GraphImage};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::{Arc, ArcId, PhoneId, StateEntry, StateId, Wfst, WordId};
use proptest::prelude::*;

proptest! {
    #[test]
    fn state_record_packing_roundtrips(first in 0u32..u32::MAX, ne in 0u16..=u16::MAX, eps in 0u16..=u16::MAX) {
        let entry = StateEntry {
            first_arc: ArcId(first),
            num_emitting: ne,
            num_epsilon: eps,
        };
        prop_assert_eq!(unpack_state(pack_state(entry)), entry);
    }

    #[test]
    fn arc_record_packing_roundtrips(dest in 0u32..u32::MAX, bits in any::<u32>(), il in 0u32..1_000_000, ol in 0u32..1_000_000) {
        let arc = Arc {
            dest: StateId(dest),
            weight: f32::from_bits(bits),
            ilabel: PhoneId(il),
            olabel: WordId(ol),
        };
        let back = unpack_arc(pack_arc(arc));
        prop_assert_eq!(back.dest, arc.dest);
        prop_assert_eq!(back.weight.to_bits(), arc.weight.to_bits());
        prop_assert_eq!(back.ilabel, arc.ilabel);
        prop_assert_eq!(back.olabel, arc.olabel);
    }

    #[test]
    fn store_image_roundtrips_arbitrary_graphs(
        num_states in 2usize..40,
        arcs in prop::collection::vec((0usize..40, 0usize..40, 1u32..10, 0u32..5, 0.0f32..5.0), 1..120),
        final_state in 0usize..40,
    ) {
        let mut b = WfstBuilder::new();
        let first = b.add_states(num_states);
        b.set_start(first);
        b.set_final(StateId((final_state % num_states) as u32), 0.5);
        for (src, dst, il, ol, w) in arcs {
            let src = StateId((src % num_states) as u32);
            let dst = StateId((dst % num_states) as u32);
            // il >= 1 keeps these emitting; throw in epsilons via ol == 0.
            let ilabel = if ol == 0 { PhoneId::EPSILON } else { PhoneId(il) };
            let olabel = if ilabel.is_epsilon() { WordId::NONE } else { WordId(ol) };
            b.add_arc(src, dst, ilabel, olabel, w);
        }
        let sorted = SortedWfst::new(&b.build().unwrap()).unwrap();
        let image = GraphImage::from_bytes(&store::to_bytes(&sorted)).unwrap();
        let (want, back) = (sorted.wfst(), image.wfst());
        prop_assert_eq!(back.start(), want.start());
        prop_assert_eq!(back.state_entries(), want.state_entries());
        // Packed records compare every field bit for bit, weights included.
        let packed = |w: &Wfst| w.arc_entries().iter().map(|a| pack_arc(*a)).collect::<Vec<_>>();
        prop_assert_eq!(packed(back), packed(want));
        for idx in 0..want.num_states() {
            let s = StateId(idx as u32);
            prop_assert_eq!(back.final_cost(s).to_bits(), want.final_cost(s).to_bits());
            prop_assert_eq!(image.sorted().map_state(s), sorted.map_state(s));
            prop_assert_eq!(image.sorted().unmap_state(s), sorted.unmap_state(s));
        }
    }

    #[test]
    fn sorted_layout_direct_index_is_always_correct(seed in 0u64..500) {
        let wfst = SynthWfst::generate(
            &SynthConfig { num_states: 300, ..SynthConfig::default() }.with_seed(seed),
        ).unwrap();
        let sorted = SortedWfst::new(&wfst).unwrap();
        for idx in 0..sorted.wfst().num_states() {
            let sid = StateId(idx as u32);
            let entry = sorted.wfst().state(sid);
            match sorted.unit().direct_arc_index(sid) {
                Some((arc, degree)) => {
                    prop_assert_eq!(arc, entry.first_arc);
                    prop_assert_eq!(degree as usize, entry.num_arcs());
                }
                None => {
                    prop_assert!(entry.num_arcs() == 0 || entry.num_arcs() > 16);
                }
            }
        }
    }

    #[test]
    fn sorted_layout_is_a_permutation(seed in 0u64..200) {
        let wfst = SynthWfst::generate(
            &SynthConfig { num_states: 200, ..SynthConfig::default() }.with_seed(seed),
        ).unwrap();
        let sorted = SortedWfst::new(&wfst).unwrap();
        let mut seen = vec![false; wfst.num_states()];
        for idx in 0..wfst.num_states() {
            let new = sorted.map_state(StateId(idx as u32));
            prop_assert_eq!(sorted.unmap_state(new), StateId(idx as u32));
            prop_assert!(!seen[new.index()]);
            seen[new.index()] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(sorted.wfst().num_arcs(), wfst.num_arcs());
    }

    #[test]
    fn lattice_backtrack_returns_pushed_words_in_order(words in prop::collection::vec(0u32..50, 0..30)) {
        let mut lattice = Lattice::new();
        let mut cur = TraceId::ROOT;
        for &w in &words {
            cur = lattice.push(cur, WordId(w));
        }
        let expected: Vec<WordId> = words.iter().filter(|&&w| w != 0).map(|&w| WordId(w)).collect();
        let got = if cur.is_root() { Vec::new() } else { lattice.backtrack(cur) };
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn wer_is_a_metric_like_quantity(
        a in prop::collection::vec(1u32..6, 0..12),
        b in prop::collection::vec(1u32..6, 0..12),
    ) {
        let to_ids = |v: &[u32]| -> Vec<WordId> { v.iter().map(|&x| WordId(x)).collect() };
        let (ia, ib) = (to_ids(&a), to_ids(&b));
        let ab = align(&ia, &ib);
        let ba = align(&ib, &ia);
        // Identity of indiscernibles and symmetry of the edit distance.
        if a == b {
            prop_assert_eq!(ab.errors(), 0);
        }
        prop_assert_eq!(ab.errors(), ba.errors());
        // Distance bounded by the longer sequence.
        prop_assert!(ab.errors() <= a.len().max(b.len()));
        // Alignment counts are self-consistent.
        prop_assert_eq!(ab.correct + ab.substitutions + ab.deletions, a.len());
        prop_assert_eq!(ab.correct + ab.substitutions + ab.insertions, b.len());
    }

    #[test]
    fn synthetic_wfst_statistics_hold_for_any_seed(seed in 0u64..100) {
        let wfst = SynthWfst::generate(
            &SynthConfig { num_states: 2_000, ..SynthConfig::default() }.with_seed(seed),
        ).unwrap();
        // Every state has at least one emitting arc.
        prop_assert!(wfst.state_entries().iter().all(|s| s.num_emitting >= 1));
        // Epsilon fraction in a loose band around the 11.5% target.
        let eps = wfst.epsilon_fraction();
        prop_assert!(eps < 0.25, "epsilon fraction {eps}");
        // At least one final state; start in range.
        prop_assert!(wfst.final_states().count() >= 1);
        prop_assert!(wfst.start().index() < wfst.num_states());
    }
}
