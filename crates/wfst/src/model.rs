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
    /// the derived `(num_phones, num_words)` label-space sizes.
    ///
    /// This is the single validation choke point: [`Wfst::from_parts`] runs
    /// it over freshly built `Vec`s and the zero-copy store
    /// ([`crate::store::GraphImage`]) runs it once over the typed views of a
    /// loaded image, after which traversal never re-validates.
    pub(crate) fn validate(
        states: &[StateEntry],
        arcs: &[Arc],
        start: StateId,
        final_costs: &[f32],
    ) -> Result<(u32, u32)> {
        assert_eq!(
            states.len(),
            final_costs.len(),
            "one final cost per state required"
        );
        // Fast path: one branch-light streaming pass. It answers only
        // "all invariants hold" on layouts whose states partition the arc
        // array in order — which every construction path produces — so a
        // 200k-state image validates at memory-bandwidth speed. Anything
        // else (a violation somewhere, or an exotic overlapping layout)
        // falls back to the exhaustive walk below, which reports the exact
        // typed error or vets the layouts the fast pass refuses to judge.
        if let Some(sizes) = Self::validate_bulk(states, arcs, start, final_costs) {
            return Ok(sizes);
        }
        Self::validate_precise(states, arcs, start, final_costs)
    }

    /// The streaming fast path of [`Wfst::validate`]: `Some` means every
    /// invariant checked out; `None` means "let the precise walk decide".
    ///
    /// Two sequential passes. The first streams the arc array once — AVX2
    /// over the packed records where available — checking the
    /// position-independent invariants (weights finite, destinations in
    /// range, label maxima) and distilling each arc's epsilon flag into a
    /// bitmap (1 bit per arc, so ~0.8% of the arc bytes and cache-resident
    /// for graphs that matter). The second walks the state table, requiring
    /// each state's window to start exactly where the previous ended and
    /// comparing the window's flag bits against the one valid pattern
    /// `non-eps^emit eps^(deg-emit)` with 64-bit mask compares — exact,
    /// and it never touches the 16-byte arc records again.
    fn validate_bulk(
        states: &[StateEntry],
        arcs: &[Arc],
        start: StateId,
        final_costs: &[f32],
    ) -> Option<(u32, u32)> {
        /// Arcs per scan block: 8192 records keep the pass L2-resident and
        /// are a multiple of 64, so the bitmap frontier lands on a word
        /// boundary after every block.
        const BLOCK: usize = 8192;

        if start.index() >= states.len() || states.len() > u32::MAX as usize {
            return None;
        }
        let mut scan = BulkArcScan::new(states.len() as u32, arcs.len());
        let mut si = 0usize; // next state to consume
        let mut cursor = 0usize; // arcs covered by consumed states
        let mut processed = 0usize; // arcs folded into the scan
        let mut ok = true;
        loop {
            // Consume every state whose arc window the scanned prefix
            // covers, while the block's bitmap words are still hot; the
            // scalar pattern checks also hide in the next block's memory
            // stalls. Zero-degree states consume eagerly.
            while si < states.len() {
                let st = &states[si];
                let deg = st.num_arcs();
                if st.first_arc.index() != cursor {
                    return None;
                }
                if processed - cursor < deg {
                    break;
                }
                if deg != 0 {
                    ok &= epsilon_pattern_ok(&scan.eps_bits, cursor, deg, st.num_emitting as usize);
                }
                cursor += deg;
                si += 1;
            }
            if processed == arcs.len() {
                break;
            }
            let next = (processed + BLOCK).min(arcs.len());
            scan.scan(&arcs[processed..next]);
            processed = next;
            if processed == arcs.len() {
                // Whole blocks flush on word boundaries on their own; the
                // final partial block leaves its tail bits buffered, and
                // they must land before the loop consumes the last states.
                scan.flush();
            }
        }
        // Exact cover: every state consumed, every arc owned by one. A
        // state here can only be left over because its window overran the
        // arc array (the frontier reached the end without covering it).
        if si != states.len() || cursor != arcs.len() {
            return None;
        }
        if !ok || !scan.ok {
            return None;
        }
        let mut any_usable = false;
        let mut any_finite = false;
        for &c in final_costs {
            any_usable |= c.is_finite() | (c == f32::INFINITY);
            any_finite |= c.is_finite();
        }
        if !any_usable || !any_finite {
            return None;
        }
        if arcs.is_empty() {
            return Some((0, 0));
        }
        Some((scan.max_il + 1, scan.max_ol + 1))
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
        Self::from_sections(states.into(), arcs.into(), start, final_costs.into())
    }

    /// Assembles a transducer over [`Section`] storage — owned vectors or
    /// zero-copy views into a shared image buffer — running the exact same
    /// validation as [`Wfst::from_parts`].
    pub(crate) fn from_sections(
        states: Section<StateEntry>,
        arcs: Section<Arc>,
        start: StateId,
        final_costs: Section<f32>,
    ) -> Result<Self> {
        let (num_phones, num_words) = Self::validate(&states, &arcs, start, &final_costs)?;
        let epsilon_states = states.chunks(64).map(epsilon_word).collect();
        Ok(Self {
            states,
            arcs,
            start,
            final_costs,
            epsilon_states,
            num_phones,
            num_words,
        })
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

/// Checks that the `deg` epsilon flags starting at bit `first` are exactly
/// the one pattern the state's counts permit: `emit` zeros, then ones.
#[inline(always)]
fn epsilon_pattern_ok(bits: &[u64], first: usize, deg: usize, emit: usize) -> bool {
    if deg <= 64 {
        let mask = u64::MAX >> (64 - deg);
        // `checked_shl` handles `emit == deg == 64` (all-emitting: no flag
        // set) without an overflowing shift.
        let expected = mask.checked_shl(emit as u32).unwrap_or(0) & mask;
        (window64(bits, first) & mask) == expected
    } else {
        let mut ok = true;
        let mut emit = emit;
        let mut rem = deg;
        while rem > 0 {
            let take = rem.min(64);
            let mask = u64::MAX >> (64 - take);
            let e = emit.min(take);
            let expected = mask.checked_shl(e as u32).unwrap_or(0) & mask;
            ok &= (window64(bits, first + deg - rem) & mask) == expected;
            rem -= take;
            emit -= e;
        }
        ok
    }
}

/// Accumulator for the arc pass of [`Wfst::validate_bulk`].
///
/// Streams arc records and checks everything that does not depend on which
/// state owns an arc — weights finite, destinations in `0..n`, running label
/// maxima — while distilling each arc's epsilon flag into a bitmap for the
/// state pass to pattern-match. On x86-64 with AVX2 the scan runs 8 arcs
/// per step directly over the packed records; elsewhere a scalar loop
/// computes the identical result.
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
    /// Partial word being filled (low `filled` bits are valid).
    word: u64,
    /// Bits accumulated in `word`.
    filled: u32,
    /// Index of the word `word` will be flushed to.
    word_idx: usize,
}

impl BulkArcScan {
    fn new(n: u32, num_arcs: usize) -> Self {
        Self {
            n,
            ok: true,
            max_il: 0,
            max_ol: 0,
            eps_bits: vec![0u64; num_arcs / 64 + 2],
            word: 0,
            filled: 0,
            word_idx: 0,
        }
    }

    /// Scans a run of consecutive arcs (callable repeatedly; the epsilon
    /// bitmap keeps filling where the previous run left off).
    fn scan(&mut self, block: &[Arc]) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.scan_avx2(block) };
            return;
        }
        self.scan_scalar(block);
    }

    /// Flushes the buffered partial word into the bitmap (idempotent).
    fn flush(&mut self) {
        if self.filled > 0 {
            self.eps_bits[self.word_idx] = self.word;
            self.word = 0;
            self.filled = 0;
            self.word_idx += 1;
        }
    }

    /// Appends `count` epsilon flags packed in the low bits of `bits`.
    #[inline(always)]
    fn push_bits(&mut self, bits: u64, count: u32) {
        self.word |= bits << self.filled;
        self.filled += count;
        if self.filled >= 64 {
            self.eps_bits[self.word_idx] = self.word;
            self.word_idx += 1;
            self.filled -= 64;
            // Bits that did not fit in the flushed word (when the push
            // straddles a boundary); `count` 64 would overflow the shift,
            // but pushes are at most 8 bits.
            self.word = bits >> (count - self.filled);
        }
    }

    /// Portable scan; also finishes sub-vector tails of the AVX2 path.
    fn scan_scalar(&mut self, block: &[Arc]) {
        for a in block {
            self.push_bits(a.is_epsilon() as u64, 1);
            self.ok &= a.weight.is_finite() & (a.dest.0 < self.n);
            self.max_il = self.max_il.max(a.ilabel.0);
            self.max_ol = self.max_ol.max(a.olabel.0);
        }
    }

    /// Vector scan over the packed 16-byte records, 8 arcs per iteration.
    ///
    /// Each 256-bit load covers two arcs, dwords `[dest, weight, ilabel,
    /// olabel]` twice over (`Arc` is `#[repr(C)]`, pinned by the layout
    /// asserts above), so per-field checks are whole-vector compares masked
    /// to that field's dword positions. Destinations use an unsigned
    /// `max(v, n) == v` test; weights are non-finite exactly when
    /// `bits & 0x7fff_ffff > 0x7f7f_ffff`; epsilon flags (`ilabel == 0`)
    /// drop out of a zero-compare movemask at the ilabel dword positions.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_avx2(&mut self, block: &[Arc]) {
        use std::arch::x86_64::*;

        let full = block.len() / 8 * 8;
        let dest_pos = _mm256_setr_epi32(-1, 0, 0, 0, -1, 0, 0, 0);
        let weight_pos = _mm256_setr_epi32(0, -1, 0, 0, 0, -1, 0, 0);
        let n_vec = _mm256_set1_epi32(self.n as i32);
        let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
        let finite_max = _mm256_set1_epi32(0x7f7f_ffff);
        let zero = _mm256_setzero_si256();

        let mut viol = zero;
        let mut max_acc = zero;

        let mut i = 0usize;
        while i < full {
            // SAFETY: `i + 8 <= block.len()` and `Arc` is 16 bytes, so all
            // four unaligned 32-byte loads stay inside `block`.
            let p = unsafe { block.as_ptr().add(i) } as *const __m256i;
            // Prefetch never faults, and `wrapping_add` keeps the address
            // computation defined even past the slice end. Hinting ~4 KiB
            // ahead keeps the stream off the hardware prefetcher's worst
            // case on freshly mapped pages.
            _mm_prefetch(
                block.as_ptr().wrapping_add(i + 256) as *const i8,
                _MM_HINT_T0,
            );
            let mut eps8 = 0u64;
            for k in 0..4 {
                // SAFETY: vector `k` covers arcs `i + 2k` and `i + 2k + 1`,
                // both below `full <= block.len()`.
                let v = unsafe { _mm256_loadu_si256(p.add(k)) };
                let dest_ge_n = _mm256_cmpeq_epi32(_mm256_max_epu32(v, n_vec), v);
                let w_abs = _mm256_and_si256(v, abs_mask);
                let non_finite = _mm256_cmpgt_epi32(w_abs, finite_max);
                viol = _mm256_or_si256(
                    viol,
                    _mm256_or_si256(
                        _mm256_and_si256(dest_ge_n, dest_pos),
                        _mm256_and_si256(non_finite, weight_pos),
                    ),
                );
                max_acc = _mm256_max_epu32(max_acc, v);
                // Epsilon flags live at the ilabel dwords 2 and 6.
                let m = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))) as u64;
                eps8 |= (((m >> 2) & 1) | ((m >> 5) & 2)) << (2 * k);
            }
            self.push_bits(eps8, 8);
            i += 8;
        }

        self.ok &= _mm256_testz_si256(viol, viol) == 1;
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is exactly 32 bytes; the store is unaligned.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, max_acc) };
        self.max_il = self.max_il.max(lanes[2]).max(lanes[6]);
        self.max_ol = self.max_ol.max(lanes[3]).max(lanes[7]);
        self.scan_scalar(&block[full..]);
    }
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
