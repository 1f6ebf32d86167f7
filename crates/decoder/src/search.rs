//! Frame-synchronous Viterbi beam search (the algorithm of Section II),
//! rebuilt as a software twin of the accelerator's hash datapath.
//!
//! Each frame, every surviving token's outgoing non-epsilon arcs are
//! expanded with the frame's acoustic cost added (Equation 1 in log space:
//! additions replace multiplications), destination tokens keep only their
//! best ingoing path, and epsilon arcs are then followed transitively
//! without consuming a frame. Backpointers and word labels go to the
//! [`crate::lattice::Lattice`]; backtracking recovers the word sequence.
//!
//! # The hot path
//!
//! Where the retained [`crate::reference::ReferenceDecoder`] drives every
//! frame through `HashMap` lookups, full re-sorts of the map, and
//! unconditional lattice pushes, this decoder mirrors the accelerator's
//! structure (Section III of the paper):
//!
//! * **Token storage** is the double-buffered, epoch-tagged
//!   [`crate::token_table::TokenTable`] — the software stand-in for the
//!   two on-chip token hash tables. Clearing a frame is one epoch bump;
//!   after warm-up the whole frame loop performs **zero heap
//!   allocations** (asserted by `tests/alloc_free.rs`).
//! * **Prune-on-insert**: the table tracks the running frame-best during
//!   expansion, and arcs whose destination cost already exceeds
//!   `running_best + beam` skip both the relax and the lattice push — the
//!   accelerator's on-insert beam test. Because the running best can only
//!   over-estimate the final frame best, every skipped token is exactly
//!   one the next frame's prune would discard: decode results stay
//!   byte-identical to the reference (the equivalence suite asserts
//!   `words`, `cost`, and `best_state` match). On the final frame the
//!   filter is disabled so end-of-utterance final-state selection sees
//!   the same token set as the reference.
//! * **Active tracking** is the table's append-only active list (deduped
//!   by the epoch check). Per-frame bookkeeping touches as few tokens as
//!   the algorithm allows: the frontier is one in-place sort of the
//!   surviving state ids, `max_active` is a single rank-selection over
//!   flat `(cost, state)` integer keys (Kaldi's `GetCutoff` over a copied
//!   cost array, never a comparator chasing token slots), and the epsilon
//!   closure consults [`Wfst::has_epsilon`] — one cache-resident bit per
//!   state — so only the tokens whose state owns an epsilon arc are
//!   collected, sorted and fetched.
//! * **Lattice compaction**: every
//!   [`DecodeOptions::lattice_gc_interval`] frames the backpointer trace
//!   is mark-compacted from the live tokens (Kaldi's periodic token GC),
//!   so long utterances stop growing the trace unboundedly.

use crate::lattice::{CompactScratch, Lattice, TraceId};
use crate::token_table::TokenTable;
use asr_acoustic::scores::AcousticTable;
use asr_wfst::{StateId, Wfst, WordId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Tuning knobs of the beam search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeOptions {
    /// Beam width: tokens costlier than `frame_best + beam` are pruned.
    pub beam: f32,
    /// Optional cap on tokens expanded per frame (histogram pruning); the
    /// paper's accelerator uses pure beam pruning, so this defaults off.
    pub max_active: Option<usize>,
    /// Record per-state fetch counts (feeds the Figure 7 dynamic CDF).
    pub record_state_accesses: bool,
    /// Compact the lattice every this many frames (`None` keeps the full
    /// trace, as the accelerator leaves stale tokens in DRAM). Ignored by
    /// the reference decoder.
    pub lattice_gc_interval: Option<u32>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        Self {
            beam: 8.0,
            max_active: None,
            record_state_accesses: false,
            lattice_gc_interval: Some(32),
        }
    }
}

impl DecodeOptions {
    /// Convenience constructor fixing only the beam width.
    pub fn with_beam(beam: f32) -> Self {
        Self {
            beam,
            ..Self::default()
        }
    }
}

/// Per-frame activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Tokens alive at the start of the frame (before pruning).
    pub active_tokens: usize,
    /// Tokens that survived pruning and were expanded.
    pub expanded_tokens: usize,
    /// Arcs traversed (emitting + epsilon).
    pub arcs_traversed: usize,
    /// Token insertions/improvements into the next frame.
    pub tokens_created: usize,
}

/// Aggregated decode statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecodeStats {
    /// One entry per frame.
    pub frames: Vec<FrameStats>,
    /// State-fetch counts keyed by raw state id (present only when
    /// [`DecodeOptions::record_state_accesses`] is set).
    pub state_accesses: HashMap<u32, u64>,
}

impl DecodeStats {
    /// Total arcs traversed across all frames.
    pub fn total_arcs(&self) -> u64 {
        self.frames.iter().map(|f| f.arcs_traversed as u64).sum()
    }

    /// Mean arcs traversed per frame (the paper observes ~25k on the full
    /// Kaldi model, 0.07% of all arcs).
    pub fn mean_arcs_per_frame(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.total_arcs() as f64 / self.frames.len() as f64
    }

    /// Mean tokens expanded per frame.
    pub fn mean_expanded_per_frame(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let total: u64 = self.frames.iter().map(|f| f.expanded_tokens as u64).sum();
        total as f64 / self.frames.len() as f64
    }
}

/// Outcome of a decode.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// Words on the best path, in utterance order.
    pub words: Vec<WordId>,
    /// Cost of the best path (including final cost when reached).
    pub cost: f32,
    /// Whether the best path ends in a final state.
    pub reached_final: bool,
    /// The state of the winning token in the last frame.
    pub best_state: StateId,
    /// Activity statistics.
    pub stats: DecodeStats,
    /// The full token trace (for inspection and memory accounting).
    pub lattice: Lattice,
}

/// Reusable decode working set: the double-buffered token tables plus the
/// frontier/worklist/GC buffers. Holding one across decodes makes repeated
/// decoding of same-sized graphs allocation-free end to end.
#[derive(Debug, Clone)]
pub struct DecodeScratch {
    pub(crate) cur: TokenTable<TraceId>,
    next: TokenTable<TraceId>,
    /// Beam survivors of the current frame, sorted by state id.
    frontier: Vec<u32>,
    /// Epsilon-closure worklist.
    worklist: Vec<u32>,
    /// `max_active` rank-select keys ([`frontier_key`]); holds live tokens
    /// only while the cap binds, so it grows on demand.
    keys: Vec<u64>,
    /// Live trace roots handed to the lattice GC.
    gc_roots: Vec<TraceId>,
    gc: CompactScratch,
}

impl DecodeScratch {
    /// Allocates scratch for graphs of up to `num_states` states.
    pub fn new(num_states: usize) -> Self {
        Self {
            cur: TokenTable::new(num_states, TraceId::ROOT),
            next: TokenTable::new(num_states, TraceId::ROOT),
            frontier: Vec::with_capacity(num_states.min(1 << 16)),
            worklist: Vec::with_capacity(num_states.min(1 << 16)),
            keys: Vec::new(),
            gc_roots: Vec::with_capacity(num_states.min(1 << 16)),
            gc: CompactScratch::new(),
        }
    }

    /// Grows the token tables if `num_states` exceeds their capacity.
    pub(crate) fn ensure(&mut self, num_states: usize) {
        if self.cur.capacity() < num_states {
            self.cur = TokenTable::new(num_states, TraceId::ROOT);
            self.next = TokenTable::new(num_states, TraceId::ROOT);
        }
    }
}

/// The token-table beam-search decoder.
///
/// Deterministic: tokens are expanded in ascending state order, so equal
/// inputs produce identical lattices and results on every run and
/// platform. Results (`words`, `cost`, `best_state`, `reached_final`) are
/// byte-identical to [`crate::reference::ReferenceDecoder`] on the same
/// inputs.
#[derive(Debug, Clone, Default)]
pub struct ViterbiDecoder {
    opts: DecodeOptions,
}

impl ViterbiDecoder {
    /// Creates a decoder with the given options.
    pub fn new(opts: DecodeOptions) -> Self {
        Self { opts }
    }

    /// The configured options.
    pub fn options(&self) -> &DecodeOptions {
        &self.opts
    }

    /// Runs the search over all frames of `scores`.
    ///
    /// # Panics
    ///
    /// Panics if the WFST references phone labels outside the score table.
    pub fn decode(&self, wfst: &Wfst, scores: &AcousticTable) -> DecodeResult {
        let mut scratch = DecodeScratch::new(wfst.num_states());
        self.decode_with(&mut scratch, wfst, scores)
    }

    /// Runs the search reusing `scratch`; repeated decodes through the
    /// same scratch skip all token-table allocation.
    ///
    /// # Panics
    ///
    /// Panics if the WFST references phone labels outside the score table.
    pub fn decode_with(
        &self,
        scratch: &mut DecodeScratch,
        wfst: &Wfst,
        scores: &AcousticTable,
    ) -> DecodeResult {
        let mut lattice = Lattice::new();
        let mut stats = DecodeStats::default();
        seed_start(wfst, scratch, &mut lattice);
        let num_frames = scores.num_frames();
        for frame in 0..num_frames {
            // The final frame keeps every token so final-state selection
            // sees the full set, exactly like the reference.
            let last_frame = frame + 1 == num_frames;
            let alive = search_frame(
                wfst,
                &self.opts,
                scratch,
                &mut lattice,
                &mut stats,
                scores.frame_row(frame),
                last_frame,
            );
            if !alive {
                break; // the beam killed every path; decode fails gracefully
            }
        }
        finish(wfst, scratch, lattice, stats)
    }
}

/// Starts a decode in `scratch`: sizes the tables for `wfst`, seeds the
/// start state's token and runs the initial epsilon closure, before any
/// frame is consumed; no beam applies yet (mirrors the reference). The
/// one preamble of the batch and streaming drivers.
pub(crate) fn seed_start(wfst: &Wfst, scratch: &mut DecodeScratch, lattice: &mut Lattice) {
    scratch.ensure(wfst.num_states());
    scratch.cur.begin_frame();
    let start_trace = lattice.push(TraceId::ROOT, WordId::NONE);
    scratch.cur.relax(wfst.start().0, 0.0, || start_trace);
    epsilon_closure(
        wfst,
        &mut scratch.cur,
        lattice,
        &mut FrameStats::default(),
        f32::INFINITY,
        &mut scratch.worklist,
    );
}

/// Consumes one frame's score row: prune into the frontier, expand the
/// emitting arcs, close over epsilon arcs, swap the tables, record the
/// frame's stats (frame `stats.frames.len()` of the utterance) and run
/// the periodic lattice GC. The one frame body of the batch and
/// streaming drivers, so the two can never drift apart. Returns `false`
/// once the beam has killed every path.
///
/// `row[p]` is the acoustic cost of phone `p` this frame. `last_frame`
/// turns prune-on-insert and the closure threshold off and skips the GC,
/// so final-state selection sees every token.
pub(crate) fn search_frame(
    wfst: &Wfst,
    opts: &DecodeOptions,
    scratch: &mut DecodeScratch,
    lattice: &mut Lattice,
    stats: &mut DecodeStats,
    row: &[f32],
    last_frame: bool,
) -> bool {
    let DecodeScratch {
        cur,
        next,
        frontier,
        worklist,
        keys,
        gc_roots,
        gc,
    } = scratch;
    let beam = opts.beam;
    let frame = stats.frames.len();

    let mut fs = FrameStats {
        active_tokens: cur.len(),
        ..FrameStats::default()
    };
    build_frontier(cur, frontier, keys, beam, opts.max_active);
    fs.expanded_tokens = frontier.len();
    if opts.record_state_accesses {
        for &state in frontier.iter() {
            *stats.state_accesses.entry(state).or_insert(0) += 1;
        }
    }

    relax_frame(
        wfst, cur, next, frontier, lattice, &mut fs, beam, last_frame, row,
    );
    // Epsilon closure under a threshold frozen at the end of the emitting
    // phase, so the closure is independent of the worklist order.
    let closure_threshold = if last_frame {
        f32::INFINITY
    } else {
        next.best() + beam
    };
    epsilon_closure(wfst, next, lattice, &mut fs, closure_threshold, worklist);
    std::mem::swap(cur, next);
    stats.frames.push(fs);
    if cur.is_empty() {
        return false;
    }
    if !last_frame {
        maybe_gc(
            opts.lattice_gc_interval,
            frame,
            cur,
            lattice,
            gc_roots,
            frontier,
            gc,
        );
    }
    true
}

/// Rank-select key of a token: the cost mapped to an unsigned integer in
/// `f32::total_cmp` order above the state id, so comparing keys as plain
/// integers is exactly `total_cmp(cost).then(state)`.
#[inline]
fn frontier_key(cost: f32, state: u32) -> u64 {
    let bits = cost.to_bits();
    // Negative floats order by descending magnitude: flip every bit.
    // Non-negative ones only need to sort above those: set the sign bit.
    let monotone = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(monotone) << 32 | u64::from(state)
}

/// Collects the beam (and optional histogram) survivors of `table` into
/// `frontier`, sorted by state id — the deterministic expansion order.
fn build_frontier(
    table: &TokenTable<TraceId>,
    frontier: &mut Vec<u32>,
    keys: &mut Vec<u64>,
    beam: f32,
    max_active: Option<usize>,
) {
    frontier.clear();
    let threshold = table.best() + beam;
    match max_active {
        Some(0) => {}
        // The cap can only bind with more live tokens than `cap`: gather
        // flat keys so the rank-select compares integers it already holds
        // instead of chasing two token slots per comparison. The `cap`
        // cheapest (ties by state id) are a set, independent of the
        // selection's internal order, so the one state-order sort below
        // suffices.
        Some(cap) if table.len() > cap => {
            keys.clear();
            for &state in table.active() {
                let cost = table.cost(state);
                if cost <= threshold {
                    keys.push(frontier_key(cost, state));
                }
            }
            if keys.len() > cap {
                keys.select_nth_unstable(cap - 1);
                keys.truncate(cap);
            }
            frontier.extend(keys.iter().map(|&key| key as u32));
        }
        _ => {
            for &state in table.active() {
                if table.cost(state) <= threshold {
                    frontier.push(state);
                }
            }
        }
    }
    frontier.sort_unstable();
}

/// Expands one frame's emitting arcs from `frontier` into `next` with
/// prune-on-insert and inline lattice pushes.
///
/// Prune-on-insert: the running frame-best can only over-estimate the
/// final best, so anything skipped here is a token the next frame's prune
/// would kill. The final frame keeps every token so final-state selection
/// sees the full set, exactly like the reference.
///
/// `row[p]` is the acoustic cost of phone `p` this frame (an
/// [`AcousticTable`] row or a streamed score row).
#[allow(clippy::too_many_arguments)]
fn relax_frame(
    wfst: &Wfst,
    cur: &TokenTable<TraceId>,
    next: &mut TokenTable<TraceId>,
    frontier: &[u32],
    lattice: &mut Lattice,
    fs: &mut FrameStats,
    beam: f32,
    last_frame: bool,
    row: &[f32],
) {
    next.begin_frame();
    for &state_raw in frontier {
        let cost0 = cur.cost(state_raw);
        let trace = cur.payload(state_raw);
        for arc in wfst.emitting_arcs(StateId(state_raw)) {
            fs.arcs_traversed += 1;
            let cost = cost0 + arc.weight + row[arc.ilabel.index()];
            if !last_frame && cost > next.best() + beam {
                continue;
            }
            if next.relax(arc.dest.0, cost, || lattice.push(trace, arc.olabel)) {
                fs.tokens_created += 1;
            }
        }
    }
}

/// Transitively relaxes epsilon arcs inside one frame's token table.
///
/// Worklist algorithm: whenever a token improves, its epsilon arcs are
/// reconsidered. Non-negative weights guarantee termination (zero-weight
/// cycles yield no strict improvement and stop). Deterministic because the
/// initial worklist is sorted by state id. Tokens beyond `threshold`
/// (frozen by the caller at the end of the emitting phase) are neither
/// stored nor expanded — they could never improve an in-beam token, since
/// epsilon weights are non-negative.
///
/// Only states that own an epsilon arc ([`Wfst::has_epsilon`]) enter the
/// worklist. Popping any other state relaxes nothing, pushes nothing and
/// counts no arc, and dropping them keeps the rest in the same relative
/// order, so the relaxations and lattice pushes happen in exactly the
/// sequence a walk over every live token would produce.
fn epsilon_closure(
    wfst: &Wfst,
    table: &mut TokenTable<TraceId>,
    lattice: &mut Lattice,
    fs: &mut FrameStats,
    threshold: f32,
    worklist: &mut Vec<u32>,
) {
    worklist.clear();
    for &state in table.active() {
        if wfst.has_epsilon(StateId(state)) && table.cost(state) <= threshold {
            worklist.push(state);
        }
    }
    worklist.sort_unstable();
    let mut idx = 0;
    while idx < worklist.len() {
        let state_raw = worklist[idx];
        idx += 1;
        let cost = table.cost(state_raw);
        let trace = table.payload(state_raw);
        for arc in wfst.epsilon_arcs(StateId(state_raw)) {
            fs.arcs_traversed += 1;
            let dest_cost = cost + arc.weight;
            if dest_cost > threshold {
                continue;
            }
            if table.relax(arc.dest.0, dest_cost, || lattice.push(trace, arc.olabel)) {
                fs.tokens_created += 1;
                if wfst.has_epsilon(arc.dest) {
                    worklist.push(arc.dest.0);
                }
            }
        }
    }
}

/// Runs lattice GC when `frame` crosses the configured interval: live
/// roots are the stored tokens' traces, and every surviving token's
/// backpointer is retargeted to the compacted trace.
fn maybe_gc(
    interval: Option<u32>,
    frame: usize,
    table: &mut TokenTable<TraceId>,
    lattice: &mut Lattice,
    gc_roots: &mut Vec<TraceId>,
    states_scratch: &mut Vec<u32>,
    gc: &mut CompactScratch,
) {
    let Some(interval) = interval else {
        return;
    };
    if interval == 0 || !(frame as u64 + 1).is_multiple_of(interval as u64) {
        return;
    }
    states_scratch.clear();
    states_scratch.extend_from_slice(table.active());
    gc_roots.clear();
    for &state in states_scratch.iter() {
        gc_roots.push(table.payload(state));
    }
    lattice.compact(gc_roots, gc);
    for (&state, &root) in states_scratch.iter().zip(gc_roots.iter()) {
        table.set_payload(state, root);
    }
}

/// End-of-utterance selection: prefer tokens in final states (cost +
/// final cost); fall back to the globally cheapest token, as Kaldi does
/// for truncated audio. Iterates stored tokens in ascending state order —
/// the reference's deterministic tie-break.
pub(crate) fn finish(
    wfst: &Wfst,
    scratch: &mut DecodeScratch,
    lattice: Lattice,
    stats: DecodeStats,
) -> DecodeResult {
    let cur = &scratch.cur;
    let states_scratch = &mut scratch.frontier;
    states_scratch.clear();
    states_scratch.extend_from_slice(cur.active());
    states_scratch.sort_unstable();
    let mut best_final: Option<(u32, f32, TraceId)> = None;
    let mut best_any: Option<(u32, f32, TraceId)> = None;
    for &state in states_scratch.iter() {
        let cost = cur.cost(state);
        let trace = cur.payload(state);
        if best_any.is_none_or(|(_, c, _)| cost < c) {
            best_any = Some((state, cost, trace));
        }
        let f = wfst.final_cost(StateId(state));
        if f.is_finite() {
            let total = cost + f;
            if best_final.is_none_or(|(_, c, _)| total < c) {
                best_final = Some((state, total, trace));
            }
        }
    }
    let (reached_final, chosen) = match (best_final, best_any) {
        (Some(f), _) => (true, Some(f)),
        (None, any) => (false, any),
    };
    match chosen {
        Some((state, cost, trace)) => {
            let words = lattice.backtrack(trace);
            DecodeResult {
                words,
                cost,
                reached_final,
                best_state: StateId(state),
                stats,
                lattice,
            }
        }
        None => DecodeResult {
            words: Vec::new(),
            cost: f32::INFINITY,
            reached_final: false,
            best_state: wfst.start(),
            stats,
            lattice,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_wfst::builder::WfstBuilder;
    use asr_wfst::PhoneId;
    use proptest::prelude::*;

    /// The Figure 2 example: a WFST recognizing "low" (l ow) and "less"
    /// (l eh s), three frames of acoustic scores favouring "low".
    fn figure2() -> (Wfst, AcousticTable) {
        let (l, ow, eh, _s) = (1u32, 2, 3, 4);
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..7).map(|_| b.add_state()).collect();
        b.set_start(s[0]);
        // costs = -ln(prob) of Figure 2a
        b.add_arc(s[0], s[1], PhoneId(l), WordId(1), 0.51); // 0.6, "low" path
        b.add_arc(s[0], s[4], PhoneId(l), WordId(2), 0.92); // 0.4, "less" path
        b.add_arc(s[1], s[2], PhoneId(ow), WordId::NONE, 0.22); // 0.8
        b.add_arc(s[2], s[3], PhoneId(ow), WordId::NONE, 0.36); // 0.7 self-ish
        b.add_arc(s[4], s[5], PhoneId(eh), WordId::NONE, 0.51);
        b.add_arc(s[5], s[6], PhoneId(4), WordId::NONE, 0.22);
        b.set_final(s[3], 0.0);
        b.set_final(s[6], 0.0);
        let w = b.build().unwrap();
        // Frames: l, ow, ow — acoustically "low" (cost = -ln(p)).
        let probs: [[f32; 5]; 3] = [
            // eps, l, ow, eh, s
            [1.0, 0.9, 0.3, 0.1, 0.2],
            [1.0, 0.2, 0.8, 0.4, 0.1],
            [1.0, 0.1, 0.9, 0.3, 0.2],
        ];
        let table = AcousticTable::from_fn(3, 5, |f, p| -probs[f][p].ln());
        (w, table)
    }

    #[test]
    fn decodes_figure2_to_low() {
        let (w, scores) = figure2();
        let r = ViterbiDecoder::new(DecodeOptions::with_beam(20.0)).decode(&w, &scores);
        assert!(r.reached_final);
        assert_eq!(r.words, vec![WordId(1)], "expected the word 'low'");
        assert_eq!(r.best_state, StateId(3));
        // Path cost: 0.51 + 0.22 + 0.36 (graph) + acoustic(l,ow,ow).
        let expect = 0.51 + 0.22 + 0.36 - (0.9f32.ln() + 0.8f32.ln() + 0.9f32.ln());
        assert!(
            (r.cost - expect).abs() < 1e-4,
            "cost {} vs {}",
            r.cost,
            expect
        );
    }

    #[test]
    fn tight_beam_prunes_the_weak_path() {
        let (w, scores) = figure2();
        // Beam narrow enough that the "less" branch dies at frame 1.
        let r = ViterbiDecoder::new(DecodeOptions::with_beam(0.5)).decode(&w, &scores);
        assert_eq!(r.words, vec![WordId(1)]);
        // Frame 1 should have expanded fewer tokens than frame 0 created.
        assert!(r.stats.frames[1].expanded_tokens <= r.stats.frames[1].active_tokens);
    }

    #[test]
    fn epsilon_arcs_are_traversed_without_consuming_frames() {
        // start --eps(0.1)--> a --phone1--> b(final)
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_start(s0);
        b.add_epsilon_arc(s0, s1, 0.1);
        b.add_arc(s1, s2, PhoneId(1), WordId(3), 0.2);
        b.set_final(s2, 0.0);
        let w = b.build().unwrap();
        let scores = AcousticTable::from_fn(1, 2, |_, p| if p == 1 { 0.3 } else { 0.0 });
        let r = ViterbiDecoder::default().decode(&w, &scores);
        assert!(r.reached_final);
        assert_eq!(r.words, vec![WordId(3)]);
        assert!((r.cost - 0.6).abs() < 1e-5);
    }

    #[test]
    fn epsilon_cycles_terminate() {
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.set_start(s0);
        // Zero-cost epsilon cycle between s0 and s1.
        b.add_epsilon_arc(s0, s1, 0.0);
        b.add_epsilon_arc(s1, s0, 0.0);
        b.add_arc(s0, s2, PhoneId(1), WordId::NONE, 0.1);
        b.set_final(s2, 0.0);
        let w = b.build().unwrap();
        let scores = AcousticTable::from_fn(1, 2, |_, _| 0.5);
        let r = ViterbiDecoder::default().decode(&w, &scores);
        assert!(r.reached_final);
        assert!((r.cost - 0.6).abs() < 1e-5);
    }

    #[test]
    fn best_ingoing_path_wins_at_merge_states() {
        // Two parallel arcs into the same destination with different costs.
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.set_start(s0);
        b.add_arc(s0, s1, PhoneId(1), WordId(1), 2.0); // worse
        b.add_arc(s0, s1, PhoneId(2), WordId(2), 0.5); // better
        b.set_final(s1, 0.0);
        let w = b.build().unwrap();
        let scores = AcousticTable::from_fn(1, 3, |_, _| 1.0);
        let r = ViterbiDecoder::default().decode(&w, &scores);
        assert_eq!(r.words, vec![WordId(2)]);
        assert!((r.cost - 1.5).abs() < 1e-5);
    }

    #[test]
    fn empty_score_table_returns_start_closure() {
        let (w, _) = figure2();
        let scores = AcousticTable::from_fn(0, 5, |_, _| 0.0);
        let r = ViterbiDecoder::default().decode(&w, &scores);
        assert!(!r.reached_final);
        assert!(r.words.is_empty());
        assert_eq!(r.best_state, w.start());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn stats_count_frames_and_arcs() {
        let (w, scores) = figure2();
        let r = ViterbiDecoder::new(DecodeOptions::with_beam(20.0)).decode(&w, &scores);
        assert_eq!(r.stats.frames.len(), 3);
        assert!(r.stats.total_arcs() >= 4);
        assert!(r.stats.mean_arcs_per_frame() > 0.0);
    }

    #[test]
    fn state_access_recording_is_optional() {
        let (w, scores) = figure2();
        let off = ViterbiDecoder::default().decode(&w, &scores);
        assert!(off.stats.state_accesses.is_empty());
        let on = ViterbiDecoder::new(DecodeOptions {
            record_state_accesses: true,
            ..DecodeOptions::default()
        })
        .decode(&w, &scores);
        assert!(!on.stats.state_accesses.is_empty());
        assert!(on.stats.state_accesses.contains_key(&0));
    }

    #[test]
    fn max_active_caps_expansion() {
        let (w, scores) = figure2();
        let r = ViterbiDecoder::new(DecodeOptions {
            beam: 100.0,
            max_active: Some(1),
            ..DecodeOptions::default()
        })
        .decode(&w, &scores);
        for f in &r.stats.frames {
            assert!(f.expanded_tokens <= 1);
        }
        // Greedy expansion still finds "low" here.
        assert_eq!(r.words, vec![WordId(1)]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn decode_is_deterministic() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let w = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let scores = AcousticTable::random(30, w.num_phones() as usize, (0.5, 4.0), 3);
        let d = ViterbiDecoder::new(DecodeOptions::with_beam(6.0));
        let a = d.decode(&w, &scores);
        let b = d.decode(&w, &scores);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.words, b.words);
        assert_eq!(a.lattice.len(), b.lattice.len());
        assert_eq!(a.best_state, b.best_state);
    }

    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn scratch_reuse_matches_fresh_decodes() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let w = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let scores = AcousticTable::random(25, w.num_phones() as usize, (0.5, 4.0), 9);
        let d = ViterbiDecoder::new(DecodeOptions::with_beam(6.0));
        let fresh = d.decode(&w, &scores);
        let mut scratch = DecodeScratch::new(w.num_states());
        for _ in 0..3 {
            let reused = d.decode_with(&mut scratch, &w, &scores);
            assert_eq!(reused.cost, fresh.cost);
            assert_eq!(reused.words, fresh.words);
            assert_eq!(reused.best_state, fresh.best_state);
            assert_eq!(reused.lattice.len(), fresh.lattice.len());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn lattice_gc_shrinks_the_trace_without_changing_results() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let w = SynthWfst::generate(&SynthConfig::with_states(3_000)).unwrap();
        let scores = AcousticTable::random(60, w.num_phones() as usize, (0.5, 4.0), 21);
        let keep_all = ViterbiDecoder::new(DecodeOptions {
            lattice_gc_interval: None,
            ..DecodeOptions::with_beam(6.0)
        })
        .decode(&w, &scores);
        let gc = ViterbiDecoder::new(DecodeOptions {
            lattice_gc_interval: Some(8),
            ..DecodeOptions::with_beam(6.0)
        })
        .decode(&w, &scores);
        assert_eq!(gc.cost, keep_all.cost);
        assert_eq!(gc.words, keep_all.words);
        assert_eq!(gc.best_state, keep_all.best_state);
        assert!(
            gc.lattice.len() < keep_all.lattice.len(),
            "GC {} vs full {}",
            gc.lattice.len(),
            keep_all.lattice.len()
        );
    }

    // --- frontier: keyed rank-select ---------------------------------

    /// A frame's token table holding exactly `tokens`, inserted in order.
    fn table_of(tokens: &[(u32, f32)]) -> TokenTable<TraceId> {
        let mut table = TokenTable::new(16, TraceId::ROOT);
        table.begin_frame();
        for &(state, cost) in tokens {
            assert!(table.relax(state, cost, || TraceId::ROOT));
        }
        table
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn frontier_key_order_is_total_cmp_then_state(
            pick in (0usize..16, 0usize..16),
            bits in (any::<u32>(), any::<u32>()),
            states in (any::<u32>(), 0u32..3, 0u32..3),
        ) {
            const EDGES: [f32; 8] = [
                -0.0,
                0.0,
                f32::MIN_POSITIVE / 2.0, // subnormal
                -f32::MIN_POSITIVE / 2.0,
                f32::MAX,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1.0,
            ];
            // Half the draws are edge values (so equal costs are common),
            // half arbitrary bit patterns, NaNs included.
            let cost = |pick: usize, bits: u32| EDGES.get(pick).copied().unwrap_or(f32::from_bits(bits));
            let (a, b) = (cost(pick.0, bits.0), cost(pick.1, bits.1));
            // Equal, adjacent and far-apart state ids.
            let (sa, sb) = (states.0.wrapping_add(states.1), states.0.wrapping_add(states.2));
            prop_assert_eq!(
                frontier_key(a, sa).cmp(&frontier_key(b, sb)),
                a.total_cmp(&b).then(sa.cmp(&sb)),
                "{a:?}/{sa} vs {b:?}/{sb}"
            );
        }
    }

    #[test]
    fn equal_costs_straddling_the_cut_keep_the_lower_state_ids() {
        let table = table_of(&[(9, 1.0), (3, 1.0), (12, 0.5), (7, 1.0), (5, 1.0), (1, 2.0)]);
        let (mut frontier, mut keys) = (Vec::new(), Vec::new());
        build_frontier(&table, &mut frontier, &mut keys, 100.0, Some(3));
        assert_eq!(frontier, [3, 5, 12], "cheapest first, ties by state id");
        // The same cut through the full decode agrees with the reference.
        let mut b = WfstBuilder::new();
        let s0 = b.add_state();
        b.set_start(s0);
        for word in 1..=4 {
            let mid = b.add_state();
            let end = b.add_state();
            b.add_arc(s0, mid, PhoneId(1), WordId(word), 1.0);
            b.add_arc(mid, end, PhoneId(1), WordId::NONE, 1.0);
            b.set_final(end, 0.0);
        }
        let w = b.build().unwrap();
        let scores = AcousticTable::from_fn(2, 2, |_, _| 0.5);
        let opts = DecodeOptions {
            beam: 100.0,
            max_active: Some(2),
            ..DecodeOptions::default()
        };
        let fast = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let reference = crate::reference::ReferenceDecoder::new(opts).decode(&w, &scores);
        assert_eq!(fast.stats.frames[1].expanded_tokens, 2);
        assert_eq!(fast.words, vec![WordId(1)], "lowest state id wins the tie");
        assert_eq!(fast.words, reference.words);
        assert_eq!(fast.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(fast.best_state, reference.best_state);
    }

    #[test]
    fn a_cap_that_cannot_bind_builds_no_keys() {
        let table = table_of(&[(9, 1.0), (3, 4.0), (12, 0.5), (7, 1.0)]);
        let (mut frontier, mut keys) = (Vec::new(), Vec::new());
        for cap in [None, Some(4), Some(5), Some(usize::MAX)] {
            build_frontier(&table, &mut frontier, &mut keys, 2.0, cap);
            assert_eq!(frontier, [7, 9, 12], "beam survivors in state order");
            assert_eq!(keys.capacity(), 0, "cap {cap:?}: no key traffic");
        }
        build_frontier(&table, &mut frontier, &mut keys, 2.0, Some(0));
        assert!(frontier.is_empty());
        assert_eq!(keys.capacity(), 0);
        // More live tokens than the cap, fewer beam survivors: keyed
        // gather, no selection needed.
        build_frontier(&table, &mut frontier, &mut keys, 2.0, Some(3));
        assert_eq!(frontier, [7, 9, 12]);
    }

    // --- closure differential ----------------------------------------

    /// The closure as it stood before the epsilon summary: every live
    /// in-threshold token enters the worklist, whether or not its state
    /// owns an epsilon arc. The oracle for [`epsilon_closure`].
    fn epsilon_closure_every_token(
        wfst: &Wfst,
        table: &mut TokenTable<TraceId>,
        lattice: &mut Lattice,
        fs: &mut FrameStats,
        threshold: f32,
        worklist: &mut Vec<u32>,
    ) {
        worklist.clear();
        for &state in table.active() {
            if table.cost(state) <= threshold {
                worklist.push(state);
            }
        }
        worklist.sort_unstable();
        let mut idx = 0;
        while idx < worklist.len() {
            let state_raw = worklist[idx];
            idx += 1;
            let cost = table.cost(state_raw);
            let trace = table.payload(state_raw);
            for arc in wfst.epsilon_arcs(StateId(state_raw)) {
                fs.arcs_traversed += 1;
                let dest_cost = cost + arc.weight;
                if dest_cost > threshold {
                    continue;
                }
                if table.relax(arc.dest.0, dest_cost, || lattice.push(trace, arc.olabel)) {
                    fs.tokens_created += 1;
                    worklist.push(arc.dest.0);
                }
            }
        }
    }

    /// The whole trace, dead entries included, in push order.
    fn entries(lattice: &Lattice) -> Vec<crate::lattice::TraceEntry> {
        (0..lattice.len() as u32)
            .map(|id| lattice.entry(TraceId(id)))
            .collect()
    }

    /// One decode in flight: what a driver threads from frame to frame.
    struct Run {
        scratch: DecodeScratch,
        lattice: Lattice,
        stats: DecodeStats,
        /// Tokens created by the oracle closures (not the emitting phase).
        closure_tokens: usize,
    }

    impl Run {
        fn new(wfst: &Wfst) -> Self {
            Self {
                scratch: DecodeScratch::new(wfst.num_states()),
                lattice: Lattice::new(),
                stats: DecodeStats::default(),
                closure_tokens: 0,
            }
        }

        /// [`seed_start`] with the oracle closure.
        fn oracle_seed_start(&mut self, wfst: &Wfst) {
            let cur = &mut self.scratch.cur;
            cur.begin_frame();
            let start_trace = self.lattice.push(TraceId::ROOT, WordId::NONE);
            cur.relax(wfst.start().0, 0.0, || start_trace);
            let mut closure = FrameStats::default();
            epsilon_closure_every_token(
                wfst,
                cur,
                &mut self.lattice,
                &mut closure,
                f32::INFINITY,
                &mut self.scratch.worklist,
            );
            self.closure_tokens += closure.tokens_created;
        }

        /// [`search_frame`] with the oracle closure; every other stage is
        /// the production function.
        fn oracle_frame(
            &mut self,
            wfst: &Wfst,
            opts: &DecodeOptions,
            row: &[f32],
            last_frame: bool,
        ) -> bool {
            let DecodeScratch {
                cur,
                next,
                frontier,
                worklist,
                keys,
                gc_roots,
                gc,
            } = &mut self.scratch;
            let lattice = &mut self.lattice;
            let frame = self.stats.frames.len();
            let mut fs = FrameStats {
                active_tokens: cur.len(),
                ..FrameStats::default()
            };
            build_frontier(cur, frontier, keys, opts.beam, opts.max_active);
            fs.expanded_tokens = frontier.len();
            relax_frame(
                wfst, cur, next, frontier, lattice, &mut fs, opts.beam, last_frame, row,
            );
            let threshold = if last_frame {
                f32::INFINITY
            } else {
                next.best() + opts.beam
            };
            let mut closure = FrameStats::default();
            epsilon_closure_every_token(wfst, next, lattice, &mut closure, threshold, worklist);
            self.closure_tokens += closure.tokens_created;
            fs.arcs_traversed += closure.arcs_traversed;
            fs.tokens_created += closure.tokens_created;
            std::mem::swap(cur, next);
            self.stats.frames.push(fs);
            if cur.is_empty() {
                return false;
            }
            if !last_frame {
                let interval = opts.lattice_gc_interval;
                maybe_gc(interval, frame, cur, lattice, gc_roots, frontier, gc);
            }
            true
        }

        /// Live tokens in insertion order: `(state, cost bits, trace)`.
        fn tokens(&self) -> Vec<(u32, u32, TraceId)> {
            let cur = &self.scratch.cur;
            cur.active()
                .iter()
                .map(|&s| (s, cur.cost(s).to_bits(), cur.payload(s)))
                .collect()
        }
    }

    /// Decodes `scores` twice in lock step — production closure and
    /// oracle closure — asserting identical stats, token tables and
    /// lattice entries after the start closure and after every frame.
    /// Returns the total number of tokens the closures created.
    fn assert_closure_matches_oracle(
        wfst: &Wfst,
        scores: &AcousticTable,
        opts: &DecodeOptions,
    ) -> usize {
        let (mut fast, mut oracle) = (Run::new(wfst), Run::new(wfst));
        seed_start(wfst, &mut fast.scratch, &mut fast.lattice);
        oracle.oracle_seed_start(wfst);
        let same = |fast: &Run, oracle: &Run, at: &str| {
            assert_eq!(fast.stats.frames, oracle.stats.frames, "{at}: stats");
            assert_eq!(fast.tokens(), oracle.tokens(), "{at}: tokens");
            let (a, b) = (&fast.scratch.cur, &oracle.scratch.cur);
            assert_eq!(a.best().to_bits(), b.best().to_bits(), "{at}: best");
            assert_eq!(
                entries(&fast.lattice),
                entries(&oracle.lattice),
                "{at}: lattice"
            );
        };
        same(&fast, &oracle, "start closure");
        let num_frames = scores.num_frames();
        for frame in 0..num_frames {
            let (row, last) = (scores.frame_row(frame), frame + 1 == num_frames);
            let alive = search_frame(
                wfst,
                opts,
                &mut fast.scratch,
                &mut fast.lattice,
                &mut fast.stats,
                row,
                last,
            );
            assert_eq!(alive, oracle.oracle_frame(wfst, opts, row, last));
            same(&fast, &oracle, &format!("frame {frame}"));
            if !alive {
                break;
            }
        }
        oracle.closure_tokens
    }

    /// The option sets every differential graph is decoded under: wide
    /// and tight beams, a binding `max_active`, frequent and no GC.
    fn differential_options() -> [DecodeOptions; 4] {
        let gc = |interval| DecodeOptions {
            lattice_gc_interval: interval,
            ..DecodeOptions::with_beam(6.0)
        };
        [
            DecodeOptions::with_beam(1e9),
            gc(Some(4)),
            gc(None),
            DecodeOptions {
                max_active: Some(12),
                ..gc(Some(3))
            },
        ]
    }

    /// A small seeded graph built to stress the closure: a four-deep
    /// zero-weight epsilon chain out of the start state (so the start
    /// closure runs deep and its tokens tie), two epsilon paths of equal
    /// cost into one state, a zero-weight epsilon cycle, and random
    /// epsilon arcs with weights from `{0, 0, 0.5, 1}` on about half the
    /// states, so ties and zero-weight cycles are the norm. Epsilon arcs
    /// carry distinct words, which makes a reordered lattice push visible.
    fn epsilon_maze(seed: u64) -> Wfst {
        const N: u32 = 48;
        let mut rng = TestRng::for_test(&format!("epsilon_maze {seed}"));
        let mut below = |n: u64| (rng.next_u64() % n) as u32;
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..N).map(|_| b.add_state()).collect();
        b.set_start(s[0]);
        let mut word = 0;
        let mut eps = |b: &mut WfstBuilder, from: u32, to: u32, weight: f32| {
            word += 1;
            b.add_arc(
                s[from as usize],
                s[to as usize],
                PhoneId::EPSILON,
                WordId(word),
                weight,
            );
        };
        for i in 0..4 {
            eps(&mut b, i, i + 1, 0.0);
        }
        eps(&mut b, 1, 7, 0.5);
        eps(&mut b, 2, 7, 0.5);
        eps(&mut b, 5, 6, 0.0);
        eps(&mut b, 6, 5, 0.0);
        for from in 0..N {
            for _ in 0..1 + below(3) {
                let weight = 0.5 * (1 + below(3)) as f32;
                let phone = PhoneId(1 + below(3));
                b.add_arc(
                    s[from as usize],
                    s[below(N as u64) as usize],
                    phone,
                    WordId::NONE,
                    weight,
                );
            }
            if below(2) == 0 {
                for _ in 0..1 + below(3) {
                    let weight = [0.0, 0.0, 0.5, 1.0][below(4) as usize];
                    eps(&mut b, from, below(N as u64), weight);
                }
            }
            if below(6) == 0 {
                b.set_final(s[from as usize], 0.5 * below(3) as f32);
            }
        }
        b.set_final(s[N as usize - 1], 0.0);
        b.build().unwrap()
    }

    #[test]
    fn filtered_closure_matches_every_token_closure_on_epsilon_mazes() {
        let frames = if cfg!(miri) { 6 } else { 24 };
        for seed in 0..if cfg!(miri) { 2 } else { 12 } {
            let w = epsilon_maze(seed);
            let with_eps = (0..w.num_states())
                .filter(|&i| w.has_epsilon(StateId::from_index(i)))
                .count();
            assert!(with_eps >= 8 && with_eps < w.num_states(), "both kinds");
            // Two-valued scores keep path costs on a coarse grid: ties.
            let scores = AcousticTable::from_fn(frames, 4, |f, p| 0.5 + 0.5 * ((f + p) % 2) as f32);
            let mut closure_tokens = 0;
            for opts in differential_options() {
                closure_tokens += assert_closure_matches_oracle(&w, &scores, &opts);
            }
            assert!(closure_tokens > frames, "seed {seed}: closure barely ran");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn filtered_closure_matches_every_token_closure_at_half_epsilon_arcs() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        for seed in 1..=3 {
            let w = SynthWfst::generate(&SynthConfig {
                epsilon_fraction: 0.5,
                seed,
                ..SynthConfig::with_states(3_000)
            })
            .unwrap();
            assert!(w.epsilon_fraction() > 0.4);
            let scores = AcousticTable::random(40, w.num_phones() as usize, (0.5, 4.0), seed);
            for opts in differential_options() {
                let closure_tokens = assert_closure_matches_oracle(&w, &scores, &opts);
                assert!(closure_tokens > 40, "seed {seed}: closure barely ran");
            }
        }
    }

    // --- epoch wrap under the double-buffer swap ---------------------

    #[test]
    fn decode_across_the_epoch_wrap_matches_a_fresh_scratch() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let states = if cfg!(miri) { 150 } else { 2_000 };
        let w = SynthWfst::generate(&SynthConfig::with_states(states)).unwrap();
        let scores = AcousticTable::random(60, w.num_phones() as usize, (0.5, 4.0), 5);
        let d = ViterbiDecoder::new(DecodeOptions {
            lattice_gc_interval: Some(8),
            ..DecodeOptions::with_beam(6.0)
        });
        let fresh = d.decode(&w, &scores);
        assert_eq!(fresh.stats.frames.len(), 60, "the beam must not empty");

        let mut scratch = DecodeScratch::new(w.num_states());
        // A first decode over other scores leaves small tags in slots this
        // utterance reaches later: exactly what a wrap that forgot to
        // reset them would bring back to life.
        let other = AcousticTable::random(60, w.num_phones() as usize, (0.5, 4.0), 6);
        d.decode_with(&mut scratch, &w, &other);
        scratch.cur.seed_epoch(u32::MAX - 7);
        scratch.next.seed_epoch(u32::MAX - 12);
        let wrapped = d.decode_with(&mut scratch, &w, &scores);
        assert!(scratch.cur.epoch() < 64 && scratch.next.epoch() < 64);

        assert_eq!(wrapped.words, fresh.words);
        assert_eq!(wrapped.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(wrapped.best_state, fresh.best_state);
        assert_eq!(wrapped.reached_final, fresh.reached_final);
        assert_eq!(wrapped.stats.frames, fresh.stats.frames);
        assert_eq!(entries(&wrapped.lattice), entries(&fresh.lattice));
    }
}
