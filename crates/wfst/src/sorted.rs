//! Bandwidth-saving WFST layout (Section IV-B of the paper).
//!
//! The only purpose of a state fetch is to locate the state's outgoing arcs.
//! If all states had the same out-degree `d`, the arc index would simply be
//! `state_index * d` and the state array would never be read. Real WFSTs
//! have degrees from 1 to 770, but ~97% of dynamically visited states have
//! 15 or fewer arcs (Figure 7). The paper therefore sorts the states with
//! `degree <= N` (N = 16) to the front of the state array, grouped by
//! degree, so that for those states the arc index is an affine function of
//! the state index:
//!
//! ```text
//! arc_index(x) = x * d + offset[d]      for states x in degree group d
//! ```
//!
//! The hardware realizes this with `N` parallel comparators against the
//! cumulative group boundaries `S1, S1+S2, ...` and an `N`-entry offset
//! table; the multiply-add runs on the State Issuer's existing address
//! generation unit. States with more than `N` arcs (and arc-less dead
//! states) stay behind the sorted region and still require a state fetch.
//!
//! [`SortedWfst`] performs the offline transformation (state reordering,
//! arc-array rebuild, destination remapping) and [`DirectIndexUnit`] models
//! the runtime hardware decision, which `asr-accel`'s State Issuer uses to
//! skip state fetches.

use crate::store::Section;
use crate::{Arc, ArcId, Result, StateEntry, StateId, Wfst};

/// Default comparator count used in the paper's experiments.
const DEFAULT_THRESHOLD: usize = 16;

/// The runtime decision hardware of the optimized State Issuer: `N`
/// comparators over cumulative boundaries plus an offset table.
///
/// This is deliberately a standalone value type so the accelerator model
/// can own one "in hardware" without referencing the full transducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectIndexUnit {
    /// Cumulative number of states in degree groups `1..=d` — the `S1`,
    /// `S1+S2`, ... registers. `boundaries[d-1]` bounds group `d`.
    boundaries: Vec<u32>,
    /// Per-degree offsets such that `arc = x*d + offsets[d-1]`.
    offsets: Vec<i64>,
}

impl DirectIndexUnit {
    /// Assembles a unit directly from its hardware registers: the
    /// cumulative group `boundaries` and per-degree `offsets` (one of each
    /// per comparator). This is the hardware bring-up path — the registers
    /// are programmed separately from the graph image — and what the
    /// fault-injection tests use to present a unit that disagrees with the
    /// layout it claims to describe.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` and `offsets` differ in length (every
    /// comparator has exactly one offset register).
    pub fn from_registers(boundaries: Vec<u32>, offsets: Vec<i64>) -> Self {
        assert_eq!(
            boundaries.len(),
            offsets.len(),
            "one offset register per comparator"
        );
        Self {
            boundaries,
            offsets,
        }
    }

    /// Number of comparators (the paper's `N`).
    pub fn threshold(&self) -> usize {
        self.boundaries.len()
    }

    /// The cumulative boundary register bounding degree group `d = group + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `group >= threshold()`.
    pub fn group_boundary(&self, group: usize) -> u32 {
        self.boundaries[group]
    }

    /// The offset register of degree group `d = group + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `group >= threshold()`.
    pub fn group_offset(&self, group: usize) -> i64 {
        self.offsets[group]
    }

    /// One past the last state index served by direct computation.
    pub(crate) fn sorted_region_end(&self) -> u32 {
        self.boundaries.last().copied().unwrap_or(0)
    }

    /// Attempts to compute the first-arc index of `state` directly.
    ///
    /// Returns `Some((arc, degree))` when the state lies in the sorted
    /// region (degree ≤ N), in which case *no state fetch is needed*;
    /// `None` means the State Issuer must read the state record from
    /// memory.
    #[inline]
    pub fn direct_arc_index(&self, state: StateId) -> Option<(ArcId, u16)> {
        let x = state.0;
        if x >= self.sorted_region_end() {
            return None;
        }
        // The hardware evaluates all comparators in parallel; a priority
        // encoder picks the first group whose boundary exceeds the index.
        // A binary search is the software equivalent (identical outcome).
        let group = self.boundaries.partition_point(|&b| b <= x);
        let d = (group + 1) as i64;
        let arc = x as i64 * d + self.offsets[group];
        debug_assert!(arc >= 0);
        Some((ArcId(arc as u32), d as u16))
    }
}

/// A WFST rewritten into the degree-sorted layout, together with the state
/// renumbering and the hardware decision unit.
///
/// # Example
///
/// ```
/// use asr_wfst::sorted::SortedWfst;
/// use asr_wfst::synth::{SynthConfig, SynthWfst};
/// use asr_wfst::StateId;
///
/// let wfst = SynthWfst::generate(&SynthConfig::with_states(1_000))?;
/// let sorted = SortedWfst::new(&wfst)?; // the paper's N = 16
/// // More than 95% of states no longer need a state fetch:
/// assert!(sorted.static_direct_fraction() > 0.95);
/// // The direct computation agrees with the actual layout everywhere:
/// let (arc, degree) = sorted.unit().direct_arc_index(StateId(0)).unwrap();
/// assert_eq!(arc, sorted.wfst().state(StateId(0)).first_arc);
/// assert_eq!(degree as usize, sorted.wfst().state(StateId(0)).num_arcs());
/// # Ok::<(), asr_wfst::WfstError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SortedWfst {
    wfst: Wfst,
    unit: DirectIndexUnit,
    old_to_new: Section<u32>,
    new_to_old: Section<u32>,
    threshold: usize,
}

impl SortedWfst {
    /// Rewrites `wfst` into the sorted layout with the paper's default
    /// threshold `N = 16`.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from rebuilding the transducer.
    pub fn new(wfst: &Wfst) -> Result<Self> {
        Self::with_threshold(wfst, DEFAULT_THRESHOLD)
    }

    /// Rewrites `wfst` with an explicit comparator count `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from rebuilding the transducer.
    pub fn with_threshold(wfst: &Wfst, n: usize) -> Result<Self> {
        assert!(n > 0, "threshold must be at least 1");
        let num_states = wfst.num_states();

        // Group states: degree groups 1..=n first (ascending degree, stable
        // within a group), then everything else in original order.
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut tail: Vec<u32> = Vec::new();
        for idx in 0..num_states {
            let d = wfst.state(StateId::from_index(idx)).num_arcs();
            if d >= 1 && d <= n {
                groups[d - 1].push(idx as u32);
            } else {
                tail.push(idx as u32);
            }
        }

        let mut new_to_old = Vec::with_capacity(num_states);
        let mut boundaries = Vec::with_capacity(n);
        for g in &groups {
            new_to_old.extend_from_slice(g);
            boundaries.push(new_to_old.len() as u32);
        }
        new_to_old.extend_from_slice(&tail);

        let mut old_to_new = vec![0u32; num_states];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }

        // Rebuild the state/arc arrays in the new order, remapping arc
        // destinations into the new index space.
        let mut states = Vec::with_capacity(num_states);
        let mut arcs = Vec::with_capacity(wfst.num_arcs());
        let mut final_costs = Vec::with_capacity(num_states);
        for &old in &new_to_old {
            let old_id = StateId(old);
            let entry = wfst.state(old_id);
            let first_arc = ArcId::from_index(arcs.len());
            for a in wfst.arcs(old_id) {
                arcs.push(Arc {
                    dest: StateId(old_to_new[a.dest.index()]),
                    ..*a
                });
            }
            states.push(StateEntry {
                first_arc,
                num_emitting: entry.num_emitting,
                num_epsilon: entry.num_epsilon,
            });
            final_costs.push(wfst.final_cost(old_id));
        }

        // offset[d] = A_d - d * B_{d-1}, where A_d is the arc-array base of
        // group d and B_{d-1} the cumulative state count below it.
        let mut offsets = Vec::with_capacity(n);
        let mut arc_base = 0i64;
        let mut state_base = 0i64;
        for d in 1..=n as i64 {
            offsets.push(arc_base - d * state_base);
            let group_states = groups[(d - 1) as usize].len() as i64;
            arc_base += d * group_states;
            state_base += group_states;
        }

        let start = StateId(old_to_new[wfst.start().index()]);
        let rebuilt = Wfst::from_parts(states, arcs, start, final_costs)?;
        Ok(Self {
            wfst: rebuilt,
            unit: DirectIndexUnit {
                boundaries,
                offsets,
            },
            old_to_new: old_to_new.into(),
            new_to_old: new_to_old.into(),
            threshold: n,
        })
    }

    /// Assembles a sorted transducer out of image-backed parts. Callers
    /// (the zero-copy store) must have validated that `unit` agrees with
    /// the state table and that the maps are inverse permutations.
    pub(crate) fn from_image_parts(
        wfst: Wfst,
        unit: DirectIndexUnit,
        old_to_new: Section<u32>,
        new_to_old: Section<u32>,
        threshold: usize,
    ) -> Self {
        Self {
            wfst,
            unit,
            old_to_new,
            new_to_old,
            threshold,
        }
    }

    /// Raw old→new state map, in original-numbering order.
    pub(crate) fn old_to_new_raw(&self) -> &[u32] {
        &self.old_to_new
    }

    /// Raw new→old state map, in sorted-numbering order.
    pub(crate) fn new_to_old_raw(&self) -> &[u32] {
        &self.new_to_old
    }

    /// The rewritten transducer (new state numbering).
    pub fn wfst(&self) -> &Wfst {
        &self.wfst
    }

    /// The hardware decision unit (comparators + offset table).
    pub fn unit(&self) -> &DirectIndexUnit {
        &self.unit
    }

    /// Comparator count `N`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Maps an original state id into the sorted numbering.
    pub fn map_state(&self, old: StateId) -> StateId {
        StateId(self.old_to_new[old.index()])
    }

    /// Maps a sorted-space state id back to the original numbering.
    pub fn unmap_state(&self, new: StateId) -> StateId {
        StateId(self.new_to_old[new.index()])
    }

    /// Fraction of *static* states whose arc index is directly computable
    /// (the paper reports > 95% for N = 16 on the Kaldi WFST).
    pub fn static_direct_fraction(&self) -> f64 {
        if self.wfst.num_states() == 0 {
            return 0.0;
        }
        self.unit.sorted_region_end() as f64 / self.wfst.num_states() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WfstBuilder;
    use crate::{PhoneId, WordId};

    /// Builds a chain-ish WFST with a controlled degree profile.
    fn degree_profile(degrees: &[usize]) -> Wfst {
        let mut b = WfstBuilder::new();
        let n = degrees.len();
        let first = b.add_states(n);
        b.set_start(first);
        b.set_final(StateId(n as u32 - 1), 0.0);
        for (i, &d) in degrees.iter().enumerate() {
            for k in 0..d {
                let dest = StateId(((i + k + 1) % n) as u32);
                b.add_arc(
                    StateId(i as u32),
                    dest,
                    PhoneId(1 + (k as u32 % 3)),
                    WordId::NONE,
                    0.1 * k as f32,
                );
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn direct_index_matches_actual_first_arc() {
        let w = degree_profile(&[3, 1, 5, 2, 1, 4, 2, 7, 1, 3]);
        let s = SortedWfst::with_threshold(&w, 4).unwrap();
        for idx in 0..s.wfst().num_states() {
            let sid = StateId(idx as u32);
            let entry = s.wfst().state(sid);
            match s.unit().direct_arc_index(sid) {
                Some((arc, degree)) => {
                    assert_eq!(arc, entry.first_arc, "state {sid:?}");
                    assert_eq!(degree as usize, entry.num_arcs(), "state {sid:?}");
                    assert!(entry.num_arcs() <= 4);
                }
                None => {
                    assert!(
                        entry.num_arcs() > 4 || entry.num_arcs() == 0,
                        "state {sid:?} with degree {} should be direct",
                        entry.num_arcs()
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_region_is_grouped_by_ascending_degree() {
        let w = degree_profile(&[3, 1, 5, 2, 1, 4, 2, 7, 1, 3]);
        let s = SortedWfst::with_threshold(&w, 4).unwrap();
        let end = s.unit().sorted_region_end() as usize;
        let degrees: Vec<usize> = (0..end)
            .map(|i| s.wfst().state(StateId(i as u32)).num_arcs())
            .collect();
        let mut sorted = degrees.clone();
        sorted.sort_unstable();
        assert_eq!(degrees, sorted);
        assert!(degrees.iter().all(|&d| (1..=4).contains(&d)));
    }

    #[test]
    fn language_is_preserved_under_renumbering() {
        let w = degree_profile(&[2, 1, 3, 1, 2]);
        let s = SortedWfst::with_threshold(&w, 2).unwrap();
        // Each original arc must exist in the renamed graph with identical
        // labels and weight.
        for old_idx in 0..w.num_states() {
            let old_id = StateId(old_idx as u32);
            let new_id = s.map_state(old_id);
            assert_eq!(s.unmap_state(new_id), old_id);
            let old_arcs = w.arcs(old_id);
            let new_arcs = s.wfst().arcs(new_id);
            assert_eq!(old_arcs.len(), new_arcs.len());
            for (oa, na) in old_arcs.iter().zip(new_arcs) {
                assert_eq!(s.map_state(oa.dest), na.dest);
                assert_eq!(oa.ilabel, na.ilabel);
                assert_eq!(oa.olabel, na.olabel);
                assert_eq!(oa.weight, na.weight);
            }
            assert_eq!(w.final_cost(old_id), s.wfst().final_cost(new_id));
        }
        assert_eq!(s.map_state(w.start()), s.wfst().start());
    }

    #[test]
    fn states_beyond_threshold_need_memory_fetch() {
        let w = degree_profile(&[1, 8, 1, 9, 1]);
        let s = SortedWfst::with_threshold(&w, 4).unwrap();
        let fetches = (0..5)
            .filter(|&i| s.unit().direct_arc_index(StateId(i)).is_none())
            .count();
        assert_eq!(fetches, 2, "the two high-degree states");
        assert!((s.static_direct_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn threshold_one_still_works() {
        let w = degree_profile(&[1, 2, 1, 1]);
        let s = SortedWfst::with_threshold(&w, 1).unwrap();
        for i in 0..s.unit().sorted_region_end() {
            let (arc, d) = s.unit().direct_arc_index(StateId(i)).unwrap();
            assert_eq!(d, 1);
            assert_eq!(arc, s.wfst().state(StateId(i)).first_arc);
        }
    }

    #[test]
    fn default_threshold_is_sixteen() {
        let w = degree_profile(&[1, 2, 3]);
        let s = SortedWfst::new(&w).unwrap();
        assert_eq!(s.threshold(), 16);
        assert_eq!(s.unit().threshold(), 16);
    }
}
