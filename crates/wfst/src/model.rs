//! In-memory WFST data model mirroring the accelerator's packed layout.

use crate::store::Section;
use crate::{ArcId, PhoneId, Result, StateId, WfstError, WordId};
use serde::{Deserialize, Serialize};

/// A single transition of the recognition network.
///
/// The hardware stores each arc as a 128-bit record: destination state index,
/// transition weight, input label (phoneme id) and output label (word id),
/// each 32 bits (Section III of the paper). The weight is a cost
/// (negative log probability), so following an arc *adds* `weight`.
///
/// The struct is `#[repr(C)]` so that on little-endian targets its in-memory
/// bytes are exactly the 128-bit wire record of [`crate::layout::pack_arc`];
/// the zero-copy graph store ([`crate::store`]) relies on this to expose
/// `&[Arc]` views directly over a loaded image buffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Arc {
    /// Destination state.
    pub dest: StateId,
    /// Transition cost (negative log probability); always finite.
    pub weight: f32,
    /// Input label; `PhoneId::EPSILON` for epsilon arcs.
    pub ilabel: PhoneId,
    /// Output label; `WordId::NONE` when no word is emitted.
    pub olabel: WordId,
}

impl Arc {
    /// Returns `true` if this arc consumes no acoustic frame.
    #[inline]
    pub fn is_epsilon(&self) -> bool {
        self.ilabel.is_epsilon()
    }
}

/// Packed per-state record: where the state's arcs live in the arc array.
///
/// Matches the paper's 64-bit state record: 32-bit index of the first arc,
/// 16-bit count of non-epsilon (emitting) arcs, 16-bit count of epsilon
/// arcs. All outgoing arcs are stored consecutively, non-epsilon first.
///
/// `#[repr(C)]` for the same reason as [`Arc`]: the in-memory bytes on a
/// little-endian target match the 64-bit wire record of
/// [`crate::layout::pack_state`], so image buffers can be viewed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(C)]
pub struct StateEntry {
    /// Index of the first outgoing arc in the arc array.
    pub first_arc: ArcId,
    /// Number of non-epsilon (frame-consuming) arcs.
    pub num_emitting: u16,
    /// Number of epsilon arcs, stored after the non-epsilon arcs.
    pub num_epsilon: u16,
}

impl StateEntry {
    /// Total out-degree of the state.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.num_emitting as usize + self.num_epsilon as usize
    }

    /// Range of arc indices covering all outgoing arcs.
    #[inline]
    pub fn arc_range(&self) -> std::ops::Range<usize> {
        let first = self.first_arc.index();
        first..first + self.num_arcs()
    }

    /// Range of arc indices covering only non-epsilon arcs.
    #[inline]
    pub fn emitting_range(&self) -> std::ops::Range<usize> {
        let first = self.first_arc.index();
        first..first + self.num_emitting as usize
    }

    /// Range of arc indices covering only epsilon arcs.
    #[inline]
    pub fn epsilon_range(&self) -> std::ops::Range<usize> {
        let first = self.first_arc.index() + self.num_emitting as usize;
        first..first + self.num_epsilon as usize
    }
}

// The zero-copy store casts aligned image bytes to `&[Arc]` / `&[StateEntry]`
// (see `crate::store`). That is only sound while these records keep the exact
// field sizes and offsets of the packed wire format, so pin them here.
const _: () = {
    assert!(std::mem::size_of::<Arc>() == 16);
    assert!(std::mem::align_of::<Arc>() == 4);
    assert!(std::mem::size_of::<StateEntry>() == 8);
    assert!(std::mem::align_of::<StateEntry>() == 4);
    assert!(std::mem::size_of::<StateId>() == 4);
    assert!(std::mem::size_of::<ArcId>() == 4);
    assert!(std::mem::size_of::<PhoneId>() == 4);
    assert!(std::mem::size_of::<WordId>() == 4);
};

/// An immutable weighted finite-state transducer.
///
/// States and arcs live in two flat arrays, exactly as the accelerator lays
/// them out in main memory. Construct one with
/// [`crate::builder::WfstBuilder`], [`crate::synth::SynthWfst`] or
/// [`crate::compose::compose`]; the invariants (arc ranges in bounds,
/// non-epsilon before epsilon, finite weights) are checked at build time so
/// traversal never needs to re-validate.
#[derive(Debug, Clone)]
pub struct Wfst {
    states: Section<StateEntry>,
    arcs: Section<Arc>,
    start: StateId,
    /// Final cost per state; `f32::INFINITY` means "not final".
    final_costs: Section<f32>,
    /// One bit per state, set when the state owns an epsilon arc: the
    /// emitting/epsilon split of the 64-bit state record distilled until it
    /// is cache-resident (25 KB for 200k states), so the search's epsilon
    /// closure can skip a token without fetching its [`StateEntry`].
    /// Shared, so cloning an image-backed graph stays a refcount bump.
    epsilon_states: std::sync::Arc<[u64]>,
    num_phones: u32,
    num_words: u32,
}

impl Wfst {
    /// Checks every structural invariant over borrowed arrays and returns
    /// what the search derives from them: the `(num_phones, num_words)`
    /// label-space sizes and the one-bit-per-state epsilon summary.
    ///
    /// `degree_groups` are the cumulative boundaries of a degree-sorted
    /// region (a [`crate::sorted::DirectIndexUnit`]'s boundary registers;
    /// empty for any other graph). They are not an invariant of the
    /// transducer: the fast path only reports, in [`Derived::grouped`],
    /// whether every state of group `g` has `g + 1` arcs, so the store can
    /// vouch for its registers without a second walk over the states.
    ///
    /// This is the single validation choke point: [`Wfst::from_parts`] runs
    /// it over freshly built `Vec`s and the zero-copy store
    /// ([`crate::store::GraphImage`]) runs it once over the typed views of a
    /// loaded image, after which traversal never re-validates.
    fn validate(
        states: &[StateEntry],
        arcs: &[Arc],
        start: StateId,
        final_costs: &[f32],
        degree_groups: &[u32],
    ) -> Result<Derived> {
        assert_eq!(
            states.len(),
            final_costs.len(),
            "one final cost per state required"
        );
        // Fast path: one streaming pass over the arcs, one over the states.
        // It answers only "all invariants hold" on layouts whose states
        // partition the arc array in order — which every construction path
        // produces — so a 200k-state image validates at memory-bandwidth
        // speed. Anything else (a violation somewhere, or an exotic
        // overlapping layout) falls back to the exhaustive walk below,
        // which reports the exact typed error or vets the layouts the fast
        // pass refuses to judge.
        if let Some(derived) = Self::validate_bulk(states, arcs, start, final_costs, degree_groups)
        {
            return Ok(derived);
        }
        let (num_phones, num_words) = Self::validate_precise(states, arcs, start, final_costs)?;
        Ok(Derived {
            num_phones,
            num_words,
            epsilon_states: states.chunks(64).map(epsilon_word).collect(),
            grouped: false,
        })
    }

    /// The streaming fast path of [`Wfst::validate`]: `Some` means every
    /// invariant checked out; `None` means "let the precise walk decide".
    ///
    /// The arc pass streams the arc array once — AVX2 over the packed
    /// records where available — checking the position-independent
    /// invariants (weights finite, destinations in range, label maxima) and
    /// distilling each arc's epsilon flag into a bitmap (1 bit per arc, so
    /// ~0.8% of the arc bytes and cache-resident for graphs that matter).
    ///
    /// The state pass walks the state table once. It checks *cover* — each
    /// state's arc window starts where the previous one ended, and the last
    /// ends at the arc count — sums `num_epsilon`, builds the epsilon
    /// summary words, and compares each degree-group state's degree with
    /// its group's. The epsilon/emitting order then needs only two checks
    /// over the bitmap, never the arc records again:
    ///
    /// * its popcount equals the sum of `num_epsilon`;
    /// * every state with epsilon arcs (a summary bit; ~13% of states) has
    ///   its epsilon window all ones.
    ///
    /// Cover makes the windows disjoint, so the ones inside the epsilon
    /// windows account for every set flag: no flag is set in an emitting
    /// window, which is exactly "emitting arcs first, then epsilon arcs".
    fn validate_bulk(
        states: &[StateEntry],
        arcs: &[Arc],
        start: StateId,
        final_costs: &[f32],
        degree_groups: &[u32],
    ) -> Option<Derived> {
        if start.index() >= states.len() || states.len() > u32::MAX as usize {
            return None;
        }
        let mut scan = BulkArcScan::new(states.len() as u32, arcs.len());
        scan.scan(arcs);
        if !scan.ok {
            return None;
        }

        let mut walk = StateWalk::new(degree_groups);
        let epsilon_states: std::sync::Arc<[u64]> = (states.chunks(64).enumerate())
            .map(|(w, chunk)| walk.chunk(w * 64, chunk))
            .collect();
        if walk.gaps != 0 || walk.cursor != arcs.len() as u64 {
            return None;
        }
        let flags: u64 = scan
            .eps_bits
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        if flags != walk.epsilon_arcs {
            return None;
        }
        let mut windows_ok = true;
        for (w, &word) in epsilon_states.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let st = &states[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                let first = st.first_arc.index() + st.num_emitting as usize;
                windows_ok &= all_ones(&scan.eps_bits, first, st.num_epsilon as usize);
            }
        }
        if !windows_ok {
            return None;
        }

        // A finite final cost is also a usable one, so this one scan, which
        // stops at the first final state, settles both final-cost checks.
        if !final_costs.iter().any(|c| c.is_finite()) {
            return None;
        }
        let (num_phones, num_words) = if arcs.is_empty() {
            (0, 0)
        } else {
            (scan.max_il + 1, scan.max_ol + 1)
        };
        Some(Derived {
            num_phones,
            num_words,
            epsilon_states,
            grouped: walk.misgrouped == 0,
        })
    }

    /// The exhaustive walk of [`Wfst::validate`]: visits every state's arc
    /// window (including overlapping or gapped layouts the bulk pass
    /// refuses to judge) and reports the first violation as a typed error.
    fn validate_precise(
        states: &[StateEntry],
        arcs: &[Arc],
        start: StateId,
        final_costs: &[f32],
    ) -> Result<(u32, u32)> {
        if start.index() >= states.len() {
            return Err(WfstError::UnknownState(start));
        }
        let mut num_phones = 0u32;
        let mut num_words = 0u32;
        for (idx, st) in states.iter().enumerate() {
            let sid = StateId::from_index(idx);
            let range = st.arc_range();
            if range.end > arcs.len() {
                return Err(WfstError::UnknownArc(ArcId::from_index(range.end - 1)));
            }
            for (k, arc) in arcs[range].iter().enumerate() {
                if !arc.weight.is_finite() {
                    return Err(WfstError::InvalidWeight {
                        state: sid,
                        weight: arc.weight,
                    });
                }
                if arc.dest.index() >= states.len() {
                    return Err(WfstError::UnknownState(arc.dest));
                }
                let should_be_epsilon = k >= st.num_emitting as usize;
                if arc.is_epsilon() != should_be_epsilon {
                    return Err(WfstError::Corrupt(format!(
                        "state {sid:?}: arc {k} violates non-epsilon-first ordering"
                    )));
                }
                num_phones = num_phones.max(arc.ilabel.0 + 1);
                num_words = num_words.max(arc.olabel.0 + 1);
            }
        }
        if !final_costs
            .iter()
            .any(|c| c.is_finite() || *c == f32::INFINITY)
        {
            return Err(WfstError::Corrupt("non-finite final cost".into()));
        }
        if !final_costs.iter().any(|c| c.is_finite()) {
            return Err(WfstError::NoFinalStates);
        }
        Ok((num_phones, num_words))
    }

    /// Assembles a transducer from raw parts, validating every invariant.
    ///
    /// This is the choke point all *authoring* construction paths funnel
    /// through (the zero-copy image path funnels through the same checks via
    /// the crate-internal `Wfst::from_sections`).
    ///
    /// # Errors
    ///
    /// Returns an error if the start state is out of range, any arc range
    /// exceeds the arc array, epsilon arcs precede non-epsilon arcs within a
    /// state, any weight or final cost is NaN/-inf, or no state is final.
    pub fn from_parts(
        states: Vec<StateEntry>,
        arcs: Vec<Arc>,
        start: StateId,
        final_costs: Vec<f32>,
    ) -> Result<Self> {
        let (wfst, _) =
            Self::from_sections(states.into(), arcs.into(), start, final_costs.into(), &[])?;
        Ok(wfst)
    }

    /// Assembles a transducer over [`Section`] storage — owned vectors or
    /// zero-copy views into a shared image buffer — running the exact same
    /// validation as [`Wfst::from_parts`]. Also returns
    /// [`Derived::grouped`] for `degree_groups` (see [`Wfst::validate`]).
    pub(crate) fn from_sections(
        states: Section<StateEntry>,
        arcs: Section<Arc>,
        start: StateId,
        final_costs: Section<f32>,
        degree_groups: &[u32],
    ) -> Result<(Self, bool)> {
        let Derived {
            num_phones,
            num_words,
            epsilon_states,
            grouped,
        } = Self::validate(&states, &arcs, start, &final_costs, degree_groups)?;
        let wfst = Self {
            states,
            arcs,
            start,
            final_costs,
            epsilon_states,
            num_phones,
            num_words,
        };
        Ok((wfst, grouped))
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of arcs across all states.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The start state of the search.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Packed record of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn state(&self, state: StateId) -> StateEntry {
        self.states[state.index()]
    }

    /// All outgoing arcs of `state` (non-epsilon first).
    #[inline]
    pub fn arcs(&self, state: StateId) -> &[Arc] {
        &self.arcs[self.states[state.index()].arc_range()]
    }

    /// Only the non-epsilon (frame-consuming) arcs of `state`.
    #[inline]
    pub fn emitting_arcs(&self, state: StateId) -> &[Arc] {
        &self.arcs[self.states[state.index()].emitting_range()]
    }

    /// Only the epsilon arcs of `state`.
    #[inline]
    pub fn epsilon_arcs(&self, state: StateId) -> &[Arc] {
        &self.arcs[self.states[state.index()].epsilon_range()]
    }

    /// Whether `state` owns at least one epsilon arc, answered from the
    /// one-bit-per-state summary without touching the state record.
    ///
    /// # Panics
    ///
    /// Panics if `state` is beyond the summary's last word.
    #[inline]
    pub fn has_epsilon(&self, state: StateId) -> bool {
        let idx = state.index();
        (self.epsilon_states[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    /// Arc by flat index.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range.
    #[inline]
    pub fn arc(&self, arc: ArcId) -> Arc {
        self.arcs[arc.index()]
    }

    /// Final cost of `state`; `f32::INFINITY` when the state is not final.
    #[inline]
    pub fn final_cost(&self, state: StateId) -> f32 {
        self.final_costs[state.index()]
    }

    /// Returns `true` if `state` accepts.
    #[inline]
    pub fn is_final(&self, state: StateId) -> bool {
        self.final_costs[state.index()].is_finite()
    }

    /// Iterator over all final states with their costs.
    pub fn final_states(&self) -> impl Iterator<Item = (StateId, f32)> + '_ {
        self.final_costs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_finite())
            .map(|(i, c)| (StateId::from_index(i), *c))
    }

    /// One past the largest input label, i.e. the size of the phone table
    /// the acoustic model must score (label 0 is epsilon).
    #[inline]
    pub fn num_phones(&self) -> u32 {
        self.num_phones
    }

    /// One past the largest output label (label 0 is "no word").
    #[inline]
    pub fn num_words(&self) -> u32 {
        self.num_words
    }

    /// Raw state array, in layout order.
    #[inline]
    pub fn state_entries(&self) -> &[StateEntry] {
        &self.states
    }

    /// Raw arc array, in layout order.
    #[inline]
    pub fn arc_entries(&self) -> &[Arc] {
        &self.arcs
    }

    /// Raw per-state final-cost array (`f32::INFINITY` = not final).
    #[inline]
    pub(crate) fn final_costs_raw(&self) -> &[f32] {
        &self.final_costs
    }

    /// Bytes occupied by the state, arc and final-cost arrays.
    ///
    /// For an image-backed transducer these bytes live inside the shared
    /// [`crate::store::ImageBytes`] buffer (counted once per buffer, however
    /// many views share it); for an owned transducer they are heap
    /// allocations of this value.
    pub fn storage_bytes(&self) -> usize {
        self.states.len() * std::mem::size_of::<StateEntry>()
            + self.arcs.len() * std::mem::size_of::<Arc>()
            + self.final_costs.len() * std::mem::size_of::<f32>()
    }

    /// Returns `true` when the arrays are zero-copy views into a loaded
    /// image buffer rather than owned heap allocations.
    pub fn is_image_backed(&self) -> bool {
        self.arcs.is_view()
    }

    /// Fraction of arcs that are epsilon (Kaldi's English WFST: 0.115).
    pub fn epsilon_fraction(&self) -> f64 {
        if self.arcs.is_empty() {
            return 0.0;
        }
        let eps = self.arcs.iter().filter(|a| a.is_epsilon()).count();
        eps as f64 / self.arcs.len() as f64
    }
}

/// One word of the epsilon summary: bit `i` is set when `states[i]` (at
/// most 64 of them) owns an epsilon arc.
///
/// Written for the vectorizer — flags to bytes first, then eight bytes to
/// eight bits with one multiply — because the obvious shift-and-or fold
/// over 200k states costs a tenth of a whole image load.
fn epsilon_word(states: &[StateEntry]) -> u64 {
    let mut flags = [[0u8; 8]; 8];
    for (flag, st) in flags.as_flattened_mut().iter_mut().zip(states) {
        *flag = u8::from(st.num_epsilon != 0);
    }
    pack_flags(&flags)
}

/// Packs 64 flag bytes (each 0 or 1) into one word, byte `k` to bit `k`.
#[inline(always)]
fn pack_flags(flags: &[[u8; 8]; 8]) -> u64 {
    let mut word = 0;
    for (i, eight) in flags.iter().enumerate() {
        // Each byte holds 0 or 1; the product's top byte collects byte `k`
        // at bit `k` (no two partial products share a bit, so no carries).
        let byte = u64::from_le_bytes(*eight).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        word |= byte << (8 * i);
    }
    word
}

/// Extracts 64 bits of `bits` starting at bit index `bit` (the vector is
/// padded so the word after the last data word always exists).
#[inline(always)]
fn window64(bits: &[u64], bit: usize) -> u64 {
    let (word, shift) = (bit >> 6, (bit & 63) as u32);
    // The double shift sends the high word to 0 when `shift` is 0 instead
    // of overflowing the shift amount.
    (bits[word] >> shift) | ((bits[word + 1] << 1) << (63 - shift))
}

/// Whether the `len` epsilon flags starting at bit `first` are all set.
#[inline(always)]
fn all_ones(bits: &[u64], first: usize, len: usize) -> bool {
    let mut ok = true;
    let mut at = first;
    let mut rem = len;
    while rem > 0 {
        let take = rem.min(64);
        let mask = u64::MAX >> (64 - take);
        ok &= window64(bits, at) & mask == mask;
        at += take;
        rem -= take;
    }
    ok
}

/// What [`Wfst::validate`] derives from a valid graph.
struct Derived {
    num_phones: u32,
    num_words: u32,
    epsilon_states: std::sync::Arc<[u64]>,
    /// The fast path vouches that the states partition the arc array in
    /// order and that every state of degree group `g` has `g + 1` arcs —
    /// so each state's first arc is its group's first plus a multiple of
    /// the degree. Always `false` from the precise walk.
    grouped: bool,
}

/// Accumulator for the state pass of [`Wfst::validate_bulk`], fed the
/// state table 64 states at a time.
struct StateWalk<'a> {
    /// Cumulative degree-group boundaries: state `x` is in the first group
    /// `g` with `degree_groups[g] > x`, and past the last one in none.
    degree_groups: &'a [u32],
    /// The group of the next state to walk (`degree_groups.len()` past
    /// the sorted region).
    group: usize,
    /// Where the next state's window must start: the previous state's
    /// `first_arc + degree` (so every check compares neighbours, and no
    /// running sum serializes the walk).
    cursor: u64,
    /// Nonzero once some window did not start at its cursor.
    gaps: u64,
    /// Nonzero once some grouped state's degree differed from its group's.
    misgrouped: u64,
    /// Sum of `num_epsilon` over the walked states.
    epsilon_arcs: u64,
}

impl<'a> StateWalk<'a> {
    fn new(degree_groups: &'a [u32]) -> Self {
        Self {
            degree_groups,
            group: 0,
            cursor: 0,
            gaps: 0,
            misgrouped: 0,
            epsilon_arcs: 0,
        }
    }

    /// Walks up to 64 states starting at state `base` and returns their
    /// epsilon summary word. The chunk splits into runs of one degree group
    /// each (a group boundary lands inside at most one chunk per group).
    fn chunk(&mut self, base: usize, states: &[StateEntry]) -> u64 {
        let mut flags = [[0u8; 8]; 8];
        let mut done = 0;
        while done < states.len() {
            // Step over the groups that end at or before this state (empty
            // groups included).
            let groups = self.degree_groups;
            while groups
                .get(self.group)
                .is_some_and(|&b| b as usize <= base + done)
            {
                self.group += 1;
            }
            let (degree, end) = match groups.get(self.group) {
                Some(&b) => (self.group as u64 + 1, (b as usize - base).min(states.len())),
                None => (0, states.len()),
            };
            self.run(
                &states[done..end],
                &mut flags.as_flattened_mut()[done..end],
                degree,
            );
            done = end;
        }
        pack_flags(&flags)
    }

    /// Walks one run of states whose degree must be `degree` (`0`: any),
    /// setting each state's epsilon flag byte; branch-free per state.
    #[inline(always)]
    fn run(&mut self, states: &[StateEntry], flags: &mut [u8], degree: u64) {
        let grouped = if degree == 0 { 0 } else { u64::MAX };
        let mut cursor = self.cursor;
        let mut gaps = 0u64;
        let mut misgrouped = 0u64;
        let mut epsilon_arcs = 0u64;
        for (flag, st) in flags.iter_mut().zip(states) {
            let first = u64::from(st.first_arc.0);
            let arcs = u64::from(st.num_emitting) + u64::from(st.num_epsilon);
            gaps |= first ^ cursor;
            misgrouped |= (arcs ^ degree) & grouped;
            cursor = first + arcs;
            epsilon_arcs += u64::from(st.num_epsilon);
            *flag = u8::from(st.num_epsilon != 0);
        }
        self.cursor = cursor;
        self.gaps |= gaps;
        self.misgrouped |= misgrouped;
        self.epsilon_arcs += epsilon_arcs;
    }
}

/// Accumulator for the arc pass of [`Wfst::validate_bulk`].
///
/// Streams arc records and checks everything that does not depend on which
/// state owns an arc — weights finite, destinations in `0..n`, running label
/// maxima — while distilling each arc's epsilon flag into a bitmap for the
/// popcount and epsilon-window checks that follow the state pass. The scan
/// is one plain body over whole 64-arc words ([`BulkArcScan::scan_words`]),
/// compiled once per [`ScanWidth`]; the scalar loop finishes the tail and
/// is the oracle every width must match bit for bit.
struct BulkArcScan {
    /// Number of states; every destination must be below it.
    n: u32,
    /// All weight/destination checks passed so far.
    ok: bool,
    /// Largest input label seen.
    max_il: u32,
    /// Largest output label seen.
    max_ol: u32,
    /// One epsilon flag per arc, little-endian bit order, padded so that
    /// reading one word past the last data word is always in bounds.
    eps_bits: Vec<u64>,
}

impl BulkArcScan {
    fn new(n: u32, num_arcs: usize) -> Self {
        Self {
            n,
            ok: true,
            max_il: 0,
            max_ol: 0,
            eps_bits: vec![0u64; num_arcs / 64 + 2],
        }
    }

    /// Scans the whole arc array into a fresh accumulator at the widest
    /// width the CPU runs.
    fn scan(&mut self, arcs: &[Arc]) {
        let widest = ScanWidth::supported().last();
        widest.unwrap_or(ScanWidth::Baseline).scan(self, arcs);
    }

    /// Portable scan of `arcs[from..]`, one arc at a time: the oracle, and
    /// the sub-word tail of [`BulkArcScan::scan_words`].
    fn scan_scalar(&mut self, arcs: &[Arc], from: usize) {
        for (i, a) in arcs.iter().enumerate().skip(from) {
            self.eps_bits[i / 64] |= u64::from(a.is_epsilon()) << (i % 64);
            self.ok &= a.weight.is_finite() & (a.dest.0 < self.n);
            self.max_il = self.max_il.max(a.ilabel.0);
            self.max_ol = self.max_ol.max(a.olabel.0);
        }
    }

    /// The scan body, one bitmap word (64 arcs) per outer step, inlined
    /// into every [`ScanWidth`]. Per arc it sets the epsilon bit and keeps
    /// four running unsigned maxima, which settle every check at the end:
    /// destinations below `n`; weights finite, since a finite `f32`'s
    /// magnitude bits (sign masked off) are at most `0x7f7f_ffff`; and the
    /// label maxima.
    #[inline(always)]
    fn scan_words(&mut self, arcs: &[Arc]) {
        let (mut dest, mut weight, mut il, mut ol) = (0u32, 0u32, 0u32, 0u32);
        for (bits, chunk) in self.eps_bits.iter_mut().zip(arcs.chunks_exact(64)) {
            let mut word = 0u64;
            for (i, a) in chunk.iter().enumerate() {
                word |= u64::from(a.ilabel.0 == 0) << i;
                dest = dest.max(a.dest.0);
                weight = weight.max(a.weight.to_bits() & 0x7fff_ffff);
                il = il.max(a.ilabel.0);
                ol = ol.max(a.olabel.0);
            }
            *bits = word;
        }
        let whole = arcs.len() / 64 * 64;
        if whole > 0 {
            self.ok &= (dest < self.n) & (weight <= 0x7f7f_ffff);
            self.max_il = self.max_il.max(il);
            self.max_ol = self.max_ol.max(ol);
        }
        self.scan_scalar(arcs, whole);
    }
}

/// The widths [`BulkArcScan::scan_words`] is compiled for.
#[derive(Clone, Copy, Debug)]
enum ScanWidth {
    Baseline,
    Avx2,
    Avx512,
}

impl ScanWidth {
    /// Every width this CPU runs, narrowest first: the baseline on every
    /// target, then AVX2 and AVX-512 where detected (never off x86_64).
    fn supported() -> impl Iterator<Item = ScanWidth> {
        [Self::Baseline, Self::Avx2, Self::Avx512]
            .into_iter()
            .filter(|width| width.detected())
    }

    fn detected(self) -> bool {
        match self {
            Self::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Self::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Runs [`BulkArcScan::scan_words`] compiled for this width; a width
    /// the CPU lacks runs the baseline.
    fn scan(self, acc: &mut BulkArcScan, arcs: &[Arc]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the guard saw the CPU report AVX2, the one feature
            // `scan_avx2` enables.
            Self::Avx2 if self.detected() => unsafe { scan_avx2(acc, arcs) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the guard saw the CPU report `avx512f` and
            // `avx512bw`, the features `scan_avx512` enables.
            Self::Avx512 if self.detected() => unsafe { scan_avx512(acc, arcs) },
            _ => acc.scan_words(arcs),
        }
    }
}

/// [`BulkArcScan::scan_words`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2(acc: &mut BulkArcScan, arcs: &[Arc]) {
    acc.scan_words(arcs);
}

/// [`BulkArcScan::scan_words`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn scan_avx512(acc: &mut BulkArcScan, arcs: &[Arc]) {
    acc.scan_words(arcs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WfstBuilder;

    fn tiny() -> Wfst {
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_start(s0);
        b.add_arc(s0, s1, PhoneId(1), WordId(1), 1.0);
        b.add_arc(s0, s2, PhoneId::EPSILON, WordId::NONE, 0.5);
        b.add_arc(s1, s2, PhoneId(2), WordId::NONE, 2.0);
        b.set_final(s2, 0.25);
        b.build().unwrap()
    }

    #[test]
    fn arcs_are_partitioned_epsilon_last() {
        let w = tiny();
        let s0 = StateId(0);
        assert_eq!(w.arcs(s0).len(), 2);
        assert_eq!(w.emitting_arcs(s0).len(), 1);
        assert_eq!(w.epsilon_arcs(s0).len(), 1);
        assert!(!w.emitting_arcs(s0)[0].is_epsilon());
        assert!(w.epsilon_arcs(s0)[0].is_epsilon());
    }

    #[test]
    fn final_states_are_reported() {
        let w = tiny();
        assert!(w.is_final(StateId(2)));
        assert!(!w.is_final(StateId(0)));
        assert_eq!(w.final_cost(StateId(2)), 0.25);
        assert_eq!(w.final_states().count(), 1);
    }

    #[test]
    fn label_spaces_are_sized_from_content() {
        let w = tiny();
        assert_eq!(w.num_phones(), 3); // phones 0..=2
        assert_eq!(w.num_words(), 2); // words 0..=1
    }

    #[test]
    fn epsilon_summary_matches_the_state_records() {
        use crate::sorted::SortedWfst;
        use crate::store::{self, GraphImage};
        use crate::synth::{SynthConfig, SynthWfst};
        let w = tiny();
        assert!(w.has_epsilon(StateId(0)));
        assert!(!w.has_epsilon(StateId(1)) && !w.has_epsilon(StateId(2)));
        // 130 states leave the summary's last word partial; the image
        // path goes through the same choke point as the owned one.
        let owned = SynthWfst::generate(&SynthConfig::with_states(130)).unwrap();
        let sorted = SortedWfst::new(&owned).unwrap();
        let image = GraphImage::from_bytes(&store::to_bytes(&sorted)).unwrap();
        for w in [&owned, image.wfst()] {
            let mut with_epsilon = 0;
            for (idx, st) in w.state_entries().iter().enumerate() {
                let has = w.has_epsilon(StateId::from_index(idx));
                assert_eq!(has, st.num_epsilon > 0, "state {idx}");
                with_epsilon += usize::from(has);
            }
            assert!(with_epsilon > 0 && with_epsilon < w.num_states());
        }
    }

    /// One mutant of a graph's owned arrays: states, arcs, start, final
    /// costs and degree-group boundaries.
    type Parts = (Vec<StateEntry>, Vec<Arc>, StateId, Vec<f32>, Vec<u32>);

    /// A degree-sorted synthetic graph's arrays, unmutated and mutated one
    /// field at a time the way the image mutation suite mutates records.
    fn record_mutants() -> Vec<(String, Parts)> {
        use crate::sorted::SortedWfst;
        use crate::synth::{SynthConfig, SynthWfst};
        let config = SynthConfig::with_states(600).with_seed(23);
        let sorted = SortedWfst::new(&SynthWfst::generate(&config).unwrap()).unwrap();
        let w = sorted.wfst();
        let groups = (0..sorted.threshold())
            .map(|g| sorted.unit().group_boundary(g))
            .collect();
        let base: Parts = (
            w.state_entries().to_vec(),
            w.arc_entries().to_vec(),
            w.start(),
            w.final_costs_raw().to_vec(),
            groups,
        );
        let states = &base.0;
        let mut out = vec![("unmutated".to_owned(), base.clone())];
        let mut add = |name: String, edit: &dyn Fn(&mut Parts)| {
            let mut parts = base.clone();
            edit(&mut parts);
            out.push((name, parts));
        };
        let sorted_end = sorted.unit().sorted_region_end() as usize;
        let with_epsilon = states.iter().position(|st| st.num_epsilon > 0).unwrap();
        let mixed = states
            .iter()
            .position(|st| st.num_emitting > 0 && st.num_epsilon > 0)
            .unwrap();
        let emitting = states.iter().position(|st| st.num_emitting > 1).unwrap();
        let last = states.len() - 1;
        for s in [0, sorted_end / 2, sorted_end, last, with_epsilon] {
            for d in [-1i32, 1] {
                add(format!("state {s} first_arc {d:+}"), &|p| {
                    let first = &mut p.0[s].first_arc.0;
                    *first = first.wrapping_add_signed(d);
                });
            }
        }
        for s in [with_epsilon, mixed] {
            add(format!("state {s} counts swapped"), &|p| {
                let st = &mut p.0[s];
                std::mem::swap(&mut st.num_emitting, &mut st.num_epsilon);
            });
            add(format!("state {s} one more epsilon arc"), &|p| {
                let st = &mut p.0[s];
                st.num_emitting = st.num_emitting.wrapping_sub(1);
                st.num_epsilon += 1;
            });
        }
        add(format!("state {mixed} one fewer epsilon arc"), &|p| {
            p.0[mixed].num_emitting += 1;
            p.0[mixed].num_epsilon -= 1;
        });
        let first = states[emitting].first_arc.index();
        let last_emitting = first + states[emitting].num_emitting as usize - 1;
        let eps = states[with_epsilon].epsilon_range();
        for (name, arc, label) in [
            ("first emitting arc relabelled epsilon", first, 0),
            ("last emitting arc relabelled epsilon", last_emitting, 0),
            ("first epsilon arc relabelled phone 1", eps.start, 1),
            ("last epsilon arc relabelled phone 7", eps.end - 1, 7),
        ] {
            add(name.to_owned(), &|p| p.1[arc].ilabel = PhoneId(label));
        }
        let both = &states[mixed];
        let (x, y) = (both.first_arc.index(), both.epsilon_range().start);
        add("emitting and epsilon arc swapped".to_owned(), &|p| {
            p.1.swap(x, y)
        });
        for g in [0, 1, 7, 15] {
            for d in [-1i32, 1] {
                add(format!("degree group {g} boundary {d:+}"), &|p| {
                    p.4[g] = p.4[g].wrapping_add_signed(d);
                });
            }
        }
        let final_state = base.3.iter().position(|c| c.is_finite()).unwrap();
        let inner_state = base.3.iter().position(|c| !c.is_finite()).unwrap();
        for cost in [f32::NAN, f32::NEG_INFINITY] {
            for s in [final_state, inner_state] {
                add(format!("state {s} final cost {cost}"), &|p| p.3[s] = cost);
            }
        }
        add("every final cost NaN".to_owned(), &|p| p.3.fill(f32::NAN));
        add("start past the last state".to_owned(), &|p| {
            p.2 = StateId::from_index(last + 1)
        });
        add("start on the last state".to_owned(), &|p| {
            p.2 = StateId::from_index(last)
        });
        out
    }

    #[test]
    fn bulk_validation_never_accepts_what_the_precise_walk_rejects() {
        let (mut accepted, mut declined) = (0, 0);
        for (name, (states, arcs, start, finals, groups)) in record_mutants() {
            let bulk = Wfst::validate_bulk(&states, &arcs, start, &finals, &groups);
            let precise = Wfst::validate_precise(&states, &arcs, start, &finals);
            let Some(derived) = bulk else {
                declined += 1;
                continue;
            };
            // Bulk `Some` implies precise `Ok` (equivalently: precise
            // `Err` implies bulk `None`), with the same derived facts.
            let sizes = precise
                .unwrap_or_else(|e| panic!("{name}: bulk accepted what precise rejects: {e}"));
            assert_eq!((derived.num_phones, derived.num_words), sizes, "{name}");
            let summary: Vec<u64> = states.chunks(64).map(epsilon_word).collect();
            assert_eq!(&*derived.epsilon_states, &summary[..], "{name}");
            assert!(derived.grouped || name != "unmutated");
            if derived.grouped {
                let mut prev = 0;
                for (g, &boundary) in groups.iter().enumerate() {
                    for st in states.get(prev..boundary as usize).unwrap_or(&[]) {
                        assert_eq!(st.num_arcs(), g + 1, "{name}: misgrouped state");
                    }
                    prev = prev.max(boundary as usize);
                }
            }
            accepted += 1;
        }
        assert!(
            accepted >= 5 && declined >= 15,
            "{accepted} accepted, {declined} declined"
        );
    }

    #[test]
    fn vector_arc_scan_matches_the_scalar_scan() {
        // Pseudo-random arcs over every length class around the 64-arc
        // word, with epsilon labels, out-of-range destinations, NaN, inf
        // and negative weights planted at varying places; every width the
        // CPU runs must match the scalar oracle, not only the widest.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0, 1, 7, 8, 63, 64, 65, 127, 128, 1000, 4099] {
            for plant in 0..5 {
                let mut arcs: Vec<Arc> = (0..len)
                    .map(|_| Arc {
                        dest: StateId((next() % 90) as u32),
                        weight: (next() % 1000) as f32 / 100.0 - 2.0,
                        ilabel: PhoneId((next() % 4) as u32 * (next() % 50) as u32),
                        olabel: WordId((next() % 3000) as u32),
                    })
                    .collect();
                if len > 0 {
                    let at = next() as usize % len;
                    match plant {
                        1 => arcs[at].weight = f32::NAN,
                        2 => arcs[at].weight = f32::NEG_INFINITY,
                        3 => arcs[at].dest = StateId(100),
                        4 => arcs[at].weight = -f32::MAX,
                        _ => {}
                    }
                }
                let mut scalar = BulkArcScan::new(100, len);
                scalar.scan_scalar(&arcs, 0);
                for width in ScanWidth::supported() {
                    let mut fast = BulkArcScan::new(100, len);
                    width.scan(&mut fast, &arcs);
                    let case = format!("{width:?}, len {len}, plant {plant}");
                    assert_eq!(fast.eps_bits, scalar.eps_bits, "{case}");
                    assert_eq!(fast.ok, scalar.ok, "{case}");
                    assert_eq!(fast.ok, !matches!(plant, 1..=3) || len == 0, "{case}");
                    assert_eq!(
                        (fast.max_il, fast.max_ol),
                        (scalar.max_il, scalar.max_ol),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn epsilon_fraction_counts_epsilon_arcs() {
        let w = tiny();
        assert!((w.epsilon_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn from_parts_rejects_bad_start() {
        let err = Wfst::from_parts(vec![], vec![], StateId(0), vec![]).unwrap_err();
        assert_eq!(err, WfstError::UnknownState(StateId(0)));
    }

    #[test]
    fn from_parts_rejects_out_of_range_arc_window() {
        let states = vec![StateEntry {
            first_arc: ArcId(0),
            num_emitting: 1,
            num_epsilon: 0,
        }];
        let err = Wfst::from_parts(states, vec![], StateId(0), vec![0.0]).unwrap_err();
        assert!(matches!(err, WfstError::UnknownArc(_)));
    }

    #[test]
    fn from_parts_rejects_nan_weight() {
        let states = vec![StateEntry {
            first_arc: ArcId(0),
            num_emitting: 1,
            num_epsilon: 0,
        }];
        let arcs = vec![Arc {
            dest: StateId(0),
            weight: f32::NAN,
            ilabel: PhoneId(1),
            olabel: WordId::NONE,
        }];
        let err = Wfst::from_parts(states, arcs, StateId(0), vec![0.0]).unwrap_err();
        assert!(matches!(err, WfstError::InvalidWeight { .. }));
    }

    #[test]
    fn from_parts_rejects_epsilon_ordering_violation() {
        let states = vec![StateEntry {
            first_arc: ArcId(0),
            num_emitting: 1,
            num_epsilon: 1,
        }];
        // Epsilon arc first, emitting second: violates the packed layout.
        let arcs = vec![
            Arc {
                dest: StateId(0),
                weight: 0.0,
                ilabel: PhoneId::EPSILON,
                olabel: WordId::NONE,
            },
            Arc {
                dest: StateId(0),
                weight: 0.0,
                ilabel: PhoneId(1),
                olabel: WordId::NONE,
            },
        ];
        let err = Wfst::from_parts(states, arcs, StateId(0), vec![0.0]).unwrap_err();
        assert!(matches!(err, WfstError::Corrupt(_)));
    }

    #[test]
    fn from_parts_requires_a_final_state() {
        let states = vec![StateEntry {
            first_arc: ArcId(0),
            num_emitting: 0,
            num_epsilon: 0,
        }];
        let err = Wfst::from_parts(states, vec![], StateId(0), vec![f32::INFINITY]).unwrap_err();
        assert_eq!(err, WfstError::NoFinalStates);
    }

    #[test]
    fn state_entry_ranges_are_consistent() {
        let e = StateEntry {
            first_arc: ArcId(10),
            num_emitting: 3,
            num_epsilon: 2,
        };
        assert_eq!(e.num_arcs(), 5);
        assert_eq!(e.arc_range(), 10..15);
        assert_eq!(e.emitting_range(), 10..13);
        assert_eq!(e.epsilon_range(), 13..15);
    }
}
