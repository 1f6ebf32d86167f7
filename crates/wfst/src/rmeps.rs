//! Epsilon removal.
//!
//! Kaldi's decoding graphs keep some epsilon arcs (11.5% in the paper's
//! English WFST) because full removal blows up arc counts; but the
//! operation itself belongs in any WFST toolbox, and it lets experiments
//! quantify exactly that trade-off: an epsilon-free graph never pays the
//! in-frame closure passes, at the price of more (and denser) arcs.
//!
//! The algorithm is the standard one for non-negative weights: compute the
//! epsilon-closure distances `d(p, q)` from every state `p` with epsilon
//! arcs (Dijkstra over the epsilon-only subgraph), then replace each
//! epsilon path `p ~> q` followed by an emitting arc `q -> r` with a
//! direct arc `p -> r` carrying the combined weight, and merge final
//! costs reachable through epsilon.
//!
//! Output labels on epsilon arcs are preserved only when the closure path
//! emits at most one word (true for every graph this workspace builds; a
//! multi-word epsilon path returns an error rather than silently dropping
//! labels).

use crate::builder::WfstBuilder;
use crate::{Result, StateId, Wfst, WfstError, WordId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ordered wrapper so `f32` costs can live in a binary heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost(f32);

impl Eq for Cost {}
impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One reachable-by-epsilon entry: destination, distance, emitted word.
#[derive(Debug, Clone, Copy)]
struct Closure {
    dest: u32,
    cost: f32,
    word: WordId,
}

/// Removes every epsilon arc, preserving the recognized weighted language.
///
/// # Errors
///
/// Returns [`WfstError::IncompatibleComposition`] if some epsilon path
/// emits more than one word (cannot be folded onto a single arc), or
/// propagates builder validation failures.
pub fn remove_epsilons(wfst: &Wfst) -> Result<Wfst> {
    let n = wfst.num_states();
    let mut b = WfstBuilder::with_capacity(n);
    b.add_states(n);
    b.set_start(wfst.start());

    for idx in 0..n {
        let src = StateId::from_index(idx);
        // Epsilon closure of src: Dijkstra over epsilon arcs only.
        let closure = epsilon_closure(wfst, src)?;
        // Original emitting arcs stay.
        for arc in wfst.emitting_arcs(src) {
            b.add_arc(src, arc.dest, arc.ilabel, arc.olabel, arc.weight);
        }
        let mut final_cost = wfst.final_cost(src);
        for c in &closure {
            let via = StateId(c.dest);
            // Fold closure + emitting arc into a direct arc.
            for arc in wfst.emitting_arcs(via) {
                let word = if arc.olabel.is_none() {
                    c.word
                } else if c.word.is_none() {
                    arc.olabel
                } else {
                    return Err(WfstError::IncompatibleComposition(
                        "epsilon path emits more than one word".into(),
                    ));
                };
                b.add_arc(src, arc.dest, arc.ilabel, word, c.cost + arc.weight);
            }
            // Fold finality through epsilon (words on a path into a final
            // state cannot be represented on a final cost; reject).
            let f = wfst.final_cost(via);
            if f.is_finite() {
                if !c.word.is_none() {
                    return Err(WfstError::IncompatibleComposition(
                        "epsilon path into a final state emits a word".into(),
                    ));
                }
                final_cost = final_cost.min(c.cost + f);
            }
        }
        if final_cost.is_finite() {
            b.set_final(src, final_cost);
        }
    }
    b.build()
}

/// All states reachable from `src` through epsilon arcs only (excluding
/// `src` itself), with shortest epsilon distance and the single word
/// emitted on that path (if any), in ascending destination order so the
/// folded arcs come out the same on every call.
fn epsilon_closure(wfst: &Wfst, src: StateId) -> Result<Vec<Closure>> {
    if wfst.epsilon_arcs(src).is_empty() {
        return Ok(Vec::new());
    }
    let mut dist: HashMap<u32, (f32, WordId)> = HashMap::new();
    let mut heap: BinaryHeap<(Reverse<Cost>, u32, u32)> = BinaryHeap::new(); // (cost, state, word)
    heap.push((Reverse(Cost(0.0)), src.0, WordId::NONE.0));
    while let Some((Reverse(Cost(cost)), state, word)) = heap.pop() {
        if state != src.0 {
            match dist.get(&state) {
                Some(&(existing, _)) if existing <= cost => continue,
                _ => {
                    dist.insert(state, (cost, WordId(word)));
                }
            }
        }
        for arc in wfst.epsilon_arcs(StateId(state)) {
            let next_word = if arc.olabel.is_none() {
                WordId(word)
            } else if word == WordId::NONE.0 {
                arc.olabel
            } else {
                return Err(WfstError::IncompatibleComposition(
                    "epsilon path emits more than one word".into(),
                ));
            };
            let next_cost = cost + arc.weight;
            let better = dist
                .get(&arc.dest.0)
                .is_none_or(|&(existing, _)| next_cost < existing);
            if arc.dest != src && better {
                heap.push((Reverse(Cost(next_cost)), arc.dest.0, next_word.0));
            }
        }
    }
    let mut closure: Vec<Closure> = dist
        .into_iter()
        .map(|(dest, (cost, word))| Closure { dest, cost, word })
        .collect();
    closure.sort_unstable_by_key(|c| c.dest);
    Ok(closure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhoneId;

    /// start -eps(0.1)-> a -p1(w5)-> final, plus a direct p2 arc.
    fn simple() -> Wfst {
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_start(s0);
        b.set_final(s2, 0.25);
        b.add_epsilon_arc(s0, s1, 0.1);
        b.add_arc(s1, s2, PhoneId(1), WordId(5), 0.5);
        b.add_arc(s0, s2, PhoneId(2), WordId::NONE, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn output_has_no_epsilons_and_same_paths() {
        let w = simple();
        let e = remove_epsilons(&w).unwrap();
        assert_eq!(e.epsilon_fraction(), 0.0);
        // The folded arc start -p1-> s2 exists with weight 0.6 and word 5.
        let folded = e
            .emitting_arcs(e.start())
            .iter()
            .find(|a| a.ilabel == PhoneId(1))
            .copied()
            .expect("folded arc");
        assert!((folded.weight - 0.6).abs() < 1e-6);
        assert_eq!(folded.olabel, WordId(5));
        assert_eq!(folded.dest, StateId(2));
    }

    #[test]
    fn finality_propagates_through_epsilon() {
        // start -eps(0.2)-> final(0.3): start becomes final at 0.5.
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.set_start(s0);
        b.set_final(s1, 0.3);
        b.add_epsilon_arc(s0, s1, 0.2);
        b.add_arc(s1, s0, PhoneId(1), WordId::NONE, 1.0);
        let w = b.build().unwrap();
        let e = remove_epsilons(&w).unwrap();
        assert!(e.final_cost(s0).is_finite());
        assert!((e.final_cost(s0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn epsilon_chains_take_the_cheapest_path() {
        // Two epsilon routes to the same emitting arc; the cheaper wins.
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..4).map(|_| b.add_state()).collect();
        b.set_start(s[0]);
        b.set_final(s[3], 0.0);
        b.add_epsilon_arc(s[0], s[1], 0.5);
        b.add_epsilon_arc(s[0], s[2], 0.1);
        b.add_epsilon_arc(s[2], s[1], 0.1); // 0.2 total, cheaper
        b.add_arc(s[1], s[3], PhoneId(1), WordId::NONE, 1.0);
        let w = b.build().unwrap();
        let e = remove_epsilons(&w).unwrap();
        let costs: Vec<f32> = e
            .emitting_arcs(s[0])
            .iter()
            .filter(|a| a.dest == s[3])
            .map(|a| a.weight)
            .collect();
        assert!(costs.iter().any(|c| (c - 1.2).abs() < 1e-6), "{costs:?}");
    }

    #[test]
    fn decoding_is_equivalent_before_and_after() {
        use crate::synth::{SynthConfig, SynthWfst};
        // Synthetic graphs have epsilon arcs with no word labels; removal
        // must preserve best paths exactly (checked by shortest accepted
        // cost over a few frames via brute force is impractical here, so
        // compare arc/final reachability invariants instead).
        let w = SynthWfst::generate(&SynthConfig::with_states(300)).unwrap();
        let e = remove_epsilons(&w).unwrap();
        assert_eq!(e.num_states(), w.num_states());
        assert_eq!(e.epsilon_fraction(), 0.0);
        assert!(e.num_arcs() >= w.num_arcs() - w.num_arcs() / 5);
        assert!(e.final_states().count() >= w.final_states().count());
    }

    #[test]
    fn folded_arcs_follow_closure_state_order() {
        // start reaches ten states over epsilon arcs, five of them through
        // a chain; each reached state has one emitting self-loop, so a
        // folded arc's destination names the closure state it came
        // through. Epsilon arcs are added (and cost) in descending state
        // order, so neither insertion nor Dijkstra order is ascending.
        const REACHED: u32 = 10;
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..=REACHED).map(|_| b.add_state()).collect();
        b.set_start(s[0]);
        b.set_final(s[1], 0.0);
        for k in (6..=REACHED).rev() {
            b.add_epsilon_arc(s[0], s[k as usize], 0.01 * (REACHED + 1 - k) as f32);
        }
        for k in (1..=5).rev() {
            b.add_epsilon_arc(s[k + 1], s[k], 0.5);
        }
        for &v in &s[1..] {
            b.add_arc(v, v, PhoneId(1), WordId::NONE, 1.0);
        }
        let w = b.build().unwrap();
        let e = remove_epsilons(&w).unwrap();
        let folded: Vec<u32> = e.arcs(s[0]).iter().map(|a| a.dest.0).collect();
        assert_eq!(folded, (1..=REACHED).collect::<Vec<_>>());
        assert_eq!(remove_epsilons(&w).unwrap().arc_entries(), e.arc_entries());
    }

    #[test]
    fn multi_word_epsilon_paths_are_rejected() {
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..3).map(|_| b.add_state()).collect();
        b.set_start(s[0]);
        b.set_final(s[2], 0.0);
        // Epsilon input with word outputs, chained: cannot fold two words.
        b.add_arc(s[0], s[1], PhoneId::EPSILON, WordId(1), 0.1);
        b.add_arc(s[1], s[2], PhoneId::EPSILON, WordId(2), 0.1);
        b.add_arc(s[2], s[0], PhoneId(1), WordId::NONE, 1.0);
        let w = b.build().unwrap();
        assert!(matches!(
            remove_epsilons(&w),
            Err(WfstError::IncompatibleComposition(_))
        ));
    }

    #[test]
    fn epsilon_free_input_is_unchanged() {
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.set_start(s0);
        b.set_final(s1, 0.0);
        b.add_arc(s0, s1, PhoneId(1), WordId(1), 0.5);
        let w = b.build().unwrap();
        let e = remove_epsilons(&w).unwrap();
        assert_eq!(e.num_arcs(), w.num_arcs());
        assert_eq!(e.arcs(s0)[0].weight, 0.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn epsilon_removal_is_idempotent(seed in 0u64..100) {
            let config = crate::synth::SynthConfig {
                num_states: 80,
                ..crate::synth::SynthConfig::default()
            };
            let w = crate::synth::SynthWfst::generate(&config.with_seed(seed)).unwrap();
            let once = remove_epsilons(&w).unwrap();
            proptest::prop_assert_eq!(once.epsilon_fraction(), 0.0);
            let twice = remove_epsilons(&once).unwrap();
            proptest::prop_assert_eq!(twice.num_arcs(), once.num_arcs());
            proptest::prop_assert_eq!(twice.num_states(), once.num_states());
        }
    }
}
