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
//! * **Token storage is split by lifetime.** A decode keeps only its live
//!   tokens between frames: a `LiveTokens` list of
//!   `{state, cost, backpointer}`, 12 bytes a token, sized by the active
//!   set (and a second one the next frame fills, swapped in at its end:
//!   a `Vec` swap, not a copy). The graph-sized part — the
//!   epoch-tagged `StateIndex` that deduplicates
//!   relaxes, 8 bytes a state — lives only for one frame, so each thread
//!   keeps one (with the frontier, worklist, key and GC buffers) and
//!   lends it to whichever decode it steps; the frame's epoch bump is
//!   what isolates one decode's frame from the next. Sixteen decodes
//!   stepped round-robin on a thread therefore share one table instead
//!   of bringing 32 cold ones into its cache. After warm-up the whole
//!   frame loop performs **zero heap allocations** (asserted by
//!   `tests/alloc_free.rs`, interleaved decodes included).
//! * **Prune-on-insert**: the list tracks the running frame-best during
//!   expansion, and arcs whose destination cost already exceeds
//!   `running_best + beam` skip both the relax and the lattice push — the
//!   accelerator's on-insert beam test. Because the running best can only
//!   over-estimate the final frame best, every skipped token is exactly
//!   one the next frame's prune would discard: decode results stay
//!   byte-identical to the reference (the equivalence suite asserts
//!   `words`, `cost`, and `best_state` match). On the final frame the
//!   filter is disabled so end-of-utterance final-state selection sees
//!   the same token set as the reference.
//! * **Active tracking** is the live list itself, in insertion order
//!   (deduped by the epoch check), so the frontier, the cap's cutoff, the
//!   GC and final-state selection walk a dense array and never the
//!   graph-sized index. Per-frame bookkeeping touches as few tokens as
//!   the algorithm allows: the frontier and the closure seeds are put in
//!   state order by a linear-time radix sort (`sort_states`) over
//!   `{state, position}` items that carry everything the expansion reads,
//!   `max_active` is a single rank-selection over flat `(cost, position)`
//!   integer keys (Kaldi's `GetCutoff` over a copied cost array, never a
//!   comparator chasing token slots; a tie straddling the cut falls back
//!   to state order), and the epsilon closure consults
//!   [`Wfst::has_epsilon`] — one cache-resident bit per state — so only
//!   the tokens whose state owns an epsilon arc are collected, sorted and
//!   fetched.
//! * **The cap's cutoff, taken where tokens are made**: under a binding
//!   `max_active` the same rank-selection runs once more, right after the
//!   emitting phase, and yields the cost of the `cap`-th cheapest token.
//!   The closure only adds tokens and lowers costs, so the next frame's
//!   real cutoff can only be lower: a token strictly above that cost has
//!   `cap` strictly cheaper rivals, will never be expanded, and neither
//!   will anything reached from it. The closure therefore runs under
//!   `min(best + beam, that cost)` and the next frontier gathers keys only
//!   up to it — Kaldi runs its non-emitting pass under the cutoff its
//!   `--max-active` pruning derived, and this is the same idea with an
//!   exact bound instead of a heuristic one. Results stay byte-identical;
//!   what shrinks is the epsilon work, the live set and the lattice (see
//!   [`FrameStats`]).
//! * **Lattice compaction**: every
//!   [`DecodeOptions::lattice_gc_interval`] frames the backpointer trace
//!   is mark-compacted from the live tokens (Kaldi's periodic token GC),
//!   so long utterances stop growing the trace unboundedly.
//!
//! Pruning inside a frame (on insert, and in the closure under the beam
//! and the cap's cutoff) has one visible edge. Between two paths of
//! *exactly* equal cost the first relaxation keeps the backpointer, and
//! not walking tokens the reference's closure still walks can change
//! which comes first. Cost, end state and every frame's frontier are
//! unaffected; `words` can then be the other, equally cheap path. It
//! takes a graph built to tie (weights and scores on a coarse grid) to
//! see it; ARCHITECTURE.md, "Where a frame goes", has the counts.

use crate::lattice::{CompactScratch, Lattice, TraceId};
use crate::token_table::{LiveTokens, StateIndex};
use asr_acoustic::scores::AcousticTable;
use asr_wfst::{StateId, Wfst, WordId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
///
/// Under a binding [`DecodeOptions::max_active`] the epsilon closure skips
/// tokens that can no longer make the next frame's cut, so
/// `active_tokens`, `arcs_traversed` and `tokens_created` are smaller than
/// the reference decoder's (which closes over every token);
/// `expanded_tokens` is the same number in both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Tokens alive at the start of the frame (before pruning): what the
    /// previous frame's emitting phase and closure stored.
    pub active_tokens: usize,
    /// Tokens that survived pruning and were expanded.
    pub expanded_tokens: usize,
    /// Arcs traversed (emitting + epsilon); epsilon arcs of tokens the
    /// closure skipped are not counted.
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

/// Live tokens a fresh [`DecodeScratch`] has room for before its lists
/// first grow: about what a 2000-token cap leaves alive per frame.
const RESERVED_TOKENS: usize = 4096;

/// A decode's own working set, carried from frame to frame: its live
/// tokens as a list sized by the active set (12 bytes a token, not per
/// graph state), the list the next frame fills, and what the last frame
/// learnt about the cap's cutoff.
///
/// Everything a frame needs only while it runs — the graph-sized state
/// index that deduplicates relaxes, the frontier, the closure worklist,
/// the rank-select keys and the GC buffers — is one per thread instead,
/// borrowed by each frame and shared by every decode the thread steps.
/// Holding a scratch across decodes (or pooling it, see
/// [`crate::pool::ScratchPool`]) makes repeated decoding allocation-free
/// end to end once the lists have grown to the largest live set.
#[derive(Debug)]
pub struct DecodeScratch {
    /// The live tokens: the start closure's, then each consumed frame's.
    pub(crate) cur: LiveTokens<TraceId>,
    /// The list the frame in flight fills and then swaps into `cur`;
    /// between frames, only spare capacity.
    next: LiveTokens<TraceId>,
    /// What the previous frame's emitting phase learnt about this frame's
    /// `max_active` cutoff.
    limit: CapLimit,
}

/// An upper bound on the cost a token may have and still be among the
/// `cap` cheapest of its frame, valid for any cap up to `cap` (a smaller
/// cap only lowers the real cutoff).
#[derive(Debug, Clone, Copy)]
struct CapLimit {
    cost: f32,
    cap: usize,
}

impl CapLimit {
    /// Nothing is known: every cost passes, whatever the cap.
    const NONE: Self = Self {
        cost: f32::INFINITY,
        cap: usize::MAX,
    };
}

impl DecodeScratch {
    /// Allocates scratch for decodes over graphs of `num_states` states,
    /// with room for that many live tokens up to 4096; the lists grow on
    /// demand beyond that.
    pub fn new(num_states: usize) -> Self {
        let room = num_states.min(RESERVED_TOKENS);
        *live_scratches() += 1;
        Self {
            cur: LiveTokens::with_capacity(room),
            next: LiveTokens::with_capacity(room),
            limit: CapLimit::NONE,
        }
    }
}

impl Clone for DecodeScratch {
    fn clone(&self) -> Self {
        *live_scratches() += 1;
        Self {
            cur: self.cur.clone(),
            next: self.next.clone(),
            limit: self.limit,
        }
    }
}

impl Drop for DecodeScratch {
    /// The last scratch of the process takes the dropping thread's frame
    /// scratch with it: with no decode left there is nothing for the
    /// graph-sized index to serve, and an index that outlived every
    /// decode would pin the heap freed below it (a process that drops one
    /// runtime and builds the next would carry the first one's memory).
    fn drop(&mut self) {
        let mut live = live_scratches();
        *live -= 1;
        if *live == 0 {
            // `try_with`: this thread may be tearing its locals down.
            let _ = FRAME.try_with(|frame| {
                if let Ok(mut frame) = frame.try_borrow_mut() {
                    *frame = FrameScratch::default();
                }
            });
        }
    }
}

/// Decode scratches alive in the process (see `DecodeScratch`'s `Drop`).
static LIVE_SCRATCHES: Mutex<usize> = Mutex::new(0);

/// The live-scratch count; a `usize` is never left half-updated, so a
/// poisoned lock is recovered.
fn live_scratches() -> MutexGuard<'static, usize> {
    LIVE_SCRATCHES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// What one frame needs and no frame leaves behind; each thread keeps one
/// ([`FRAME`]) for every decode it steps.
#[derive(Debug, Default)]
struct FrameScratch {
    /// State → position in the list the frame fills: the graph-sized
    /// part, 8 bytes a state, grown to the largest graph searched.
    index: StateIndex,
    /// The frame's beam survivors as [`item`]s, in state order.
    frontier: Vec<u64>,
    /// Epsilon-closure worklist: [`item`]s of the list being closed.
    worklist: Vec<u64>,
    /// `max_active` rank-select keys ([`frontier_key`]); holds live tokens
    /// only while the cap binds, so it grows on demand.
    keys: Vec<u64>,
    /// [`sort_states`]' second buffer; grows on demand like `keys`.
    sort_buf: Vec<u64>,
    /// Live trace roots handed to the lattice GC.
    gc_roots: Vec<TraceId>,
    gc: CompactScratch,
}

thread_local! {
    /// This thread's [`FrameScratch`]. A frame borrows it from its first
    /// relax to its GC and bumps the index's epoch before relaxing, so no
    /// position one decode's frame stored is visible to the next frame,
    /// whichever decode that is. It lives until the thread exits or drops
    /// the process's last `DecodeScratch`.
    static FRAME: RefCell<FrameScratch> = RefCell::default();
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
    /// same scratch skip all token-list allocation.
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

/// Starts a decode in `scratch`: seeds the start state's token and runs
/// the initial epsilon closure, before any frame is consumed; no beam
/// applies yet (mirrors the reference). The one preamble of the batch and
/// streaming drivers.
pub(crate) fn seed_start(wfst: &Wfst, scratch: &mut DecodeScratch, lattice: &mut Lattice) {
    FRAME.with_borrow_mut(|frame| {
        let FrameScratch {
            index,
            worklist,
            sort_buf,
            ..
        } = frame;
        scratch.limit = CapLimit::NONE;
        let cur = &mut scratch.cur;
        cur.clear();
        index.ensure(wfst.num_states());
        index.begin_frame();
        let start_trace = lattice.push(TraceId::ROOT, WordId::NONE);
        index.relax(cur, wfst.start().0, 0.0, || start_trace);
        epsilon_closure(
            wfst,
            index,
            cur,
            lattice,
            &mut FrameStats::default(),
            f32::INFINITY,
            f32::INFINITY,
            worklist,
            sort_buf,
        );
    });
}

/// Consumes one frame's score row: prune into the frontier, expand the
/// emitting arcs, take the cap's cutoff, close over epsilon arcs under
/// it, swap the lists, record the frame's stats (frame
/// `stats.frames.len()` of the utterance) and run the periodic lattice
/// GC. The one frame body of the batch and streaming drivers, so the two
/// can never drift apart. Returns `false` once the beam has killed every
/// path.
///
/// `row[p]` is the acoustic cost of phone `p` this frame. `last_frame`
/// turns prune-on-insert, the cap's cutoff and the closure threshold off
/// and skips the GC, so final-state selection sees every token. A frame
/// consumed as non-final leaves a token set pruned for the frame after
/// it, not for final-state selection.
pub(crate) fn search_frame(
    wfst: &Wfst,
    opts: &DecodeOptions,
    scratch: &mut DecodeScratch,
    lattice: &mut Lattice,
    stats: &mut DecodeStats,
    row: &[f32],
    last_frame: bool,
) -> bool {
    FRAME.with_borrow_mut(|frame| {
        let FrameScratch {
            index,
            frontier,
            worklist,
            keys,
            sort_buf,
            gc_roots,
            gc,
        } = frame;
        let DecodeScratch { cur, next, limit } = scratch;
        let beam = opts.beam;

        let mut fs = FrameStats {
            active_tokens: cur.len(),
            ..FrameStats::default()
        };
        build_frontier(cur, frontier, keys, sort_buf, beam, opts.max_active, *limit);
        fs.expanded_tokens = frontier.len();
        if opts.record_state_accesses {
            for &item in frontier.iter() {
                *stats.state_accesses.entry(item_state(item)).or_insert(0) += 1;
            }
        }

        index.ensure(wfst.num_states());
        relax_frame(
            wfst, index, cur, next, frontier, lattice, &mut fs, beam, last_frame, row,
        );
        // Epsilon closure under thresholds frozen at the end of the emitting
        // phase, so the closure is independent of the worklist order: the
        // beam, and whatever the cap already rules out.
        let mut closure_threshold = f32::INFINITY;
        *limit = CapLimit::NONE;
        if !last_frame {
            closure_threshold = next.best() + beam;
            *limit = cap_limit(next, keys, closure_threshold, opts.max_active);
        }
        epsilon_closure(
            wfst,
            index,
            next,
            lattice,
            &mut fs,
            closure_threshold,
            limit.cost,
            worklist,
            sort_buf,
        );
        std::mem::swap(cur, next);
        let frame = stats.frames.len();
        stats.frames.push(fs);
        if cur.is_empty() {
            return false;
        }
        if !last_frame {
            maybe_gc(opts.lattice_gc_interval, frame, cur, lattice, gc_roots, gc);
        }
        true
    })
}

/// Rank-select key of a token: the cost mapped to an unsigned integer in
/// `f32::total_cmp` order above a 32-bit tie-breaker `low` (the search
/// puts the token's position in its list there), so comparing keys as
/// plain integers is exactly `total_cmp(cost).then(low)`.
#[inline]
fn frontier_key(cost: f32, low: u32) -> u64 {
    let bits = cost.to_bits();
    // Negative floats order by descending magnitude: flip every bit.
    // Non-negative ones only need to sort above those: set the sign bit.
    let monotone = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(monotone) << 32 | u64::from(low)
}

/// The cost a [`frontier_key`] was built from.
#[inline]
fn key_cost(key: u64) -> f32 {
    let monotone = (key >> 32) as u32;
    f32::from_bits(if monotone >> 31 == 1 {
        monotone & !(1 << 31)
    } else {
        !monotone
    })
}

/// Replaces `keys` with the [`frontier_key`] of every token of `tokens`
/// costing at most `bound` (none when `bound` is NaN), over its position.
///
/// Under the cap's cutoff about half the tokens pass, which no branch
/// predictor learns: every key is written and the test only decides
/// whether the next one overwrites it.
fn gather_keys(tokens: &LiveTokens<TraceId>, keys: &mut Vec<u64>, bound: f32) {
    keys.resize(tokens.len(), 0);
    let mut kept = 0;
    for (pos, token) in tokens.tokens().iter().enumerate() {
        keys[kept] = frontier_key(token.cost, pos as u32);
        kept += usize::from(token.cost <= bound);
    }
    keys.truncate(kept);
}

/// A token as the frontier and the closure worklist hold it: its state
/// above its position in its list, so sorting items by state needs no
/// lookup and expanding one needs no search.
#[inline]
fn item(state: u32, pos: usize) -> u64 {
    u64::from(state) << 32 | pos as u64
}

/// The state of an [`item`].
#[inline]
fn item_state(item: u64) -> u32 {
    (item >> 32) as u32
}

/// The list position of an [`item`].
#[inline]
fn item_pos(item: u64) -> usize {
    item as u32 as usize
}

/// Collects the beam (and optional histogram) survivors of `tokens` into
/// `frontier` as [`item`]s, in state order — the deterministic expansion
/// order.
///
/// `limit` is what the frame that filled `tokens` learnt about the cap's
/// cutoff. Taken under a cap at least as wide as this frame's, it rules
/// out every token above it before a key is built; under a narrower one
/// (the search was retuned wider in between) it says nothing about this
/// frame's cut and is ignored.
fn build_frontier(
    tokens: &LiveTokens<TraceId>,
    frontier: &mut Vec<u64>,
    keys: &mut Vec<u64>,
    sort_buf: &mut Vec<u64>,
    beam: f32,
    max_active: Option<usize>,
    limit: CapLimit,
) {
    frontier.clear();
    let threshold = tokens.best() + beam;
    let key_item = |key: u64| {
        let pos = key as u32 as usize;
        item(tokens.tokens()[pos].state, pos)
    };
    match max_active {
        Some(0) => {}
        // The cap can only bind with more live tokens than `cap`: gather
        // flat keys so the rank-select compares integers it already holds.
        // The `cap` cheapest are a set, independent of the selection's
        // internal order, so the one state-order sort below suffices.
        Some(cap) if tokens.len() > cap => {
            let bound = if cap <= limit.cap && limit.cost < threshold {
                limit.cost
            } else {
                threshold
            };
            gather_keys(tokens, keys, bound);
            if keys.len() <= cap {
                frontier.extend(keys.iter().map(|&key| key_item(key)));
            } else {
                let cut = *keys.select_nth_unstable(cap - 1).1 >> 32;
                let (chosen, rest) = keys.split_at(cap);
                if rest.iter().all(|&key| key >> 32 != cut) {
                    frontier.extend(chosen.iter().map(|&key| key_item(key)));
                } else {
                    // Tokens costing exactly the cut straddle it, and the
                    // keys broke their tie by position: the cap takes the
                    // lowest state ids among them instead (the reference's
                    // order), after every strictly cheaper token.
                    let cheaper = chosen.iter().filter(|&&key| key >> 32 < cut);
                    frontier.extend(cheaper.map(|&key| key_item(key)));
                    let tied_from = frontier.len();
                    let tied = keys.iter().filter(|&&key| key >> 32 == cut);
                    frontier.extend(tied.map(|&key| key_item(key)));
                    frontier[tied_from..].sort_unstable();
                    frontier.truncate(cap);
                }
            }
        }
        _ => {
            frontier.resize(tokens.len(), 0);
            let mut kept = 0;
            for (pos, token) in tokens.tokens().iter().enumerate() {
                frontier[kept] = item(token.state, pos);
                kept += usize::from(token.cost <= threshold);
            }
            frontier.truncate(kept);
        }
    }
    sort_states(frontier, sort_buf);
}

/// The cap's cutoff, taken once the emitting phase has filled `tokens`:
/// with more than `cap` tokens inside `threshold`, the cost of the
/// `cap`-th cheapest (the rank-select [`build_frontier`] runs, over the
/// same keys).
///
/// The epsilon closure that follows only adds tokens and strictly lowers
/// costs (epsilon weights are non-negative, the fact its threshold
/// already rests on), so the `cap`-th cheapest key of the finished frame
/// is at most this one. A token costing strictly more has `cap` strictly
/// cheaper rivals whatever the closure does: the next frame's
/// rank-select cannot keep it, and everything reached from it costs at
/// least as much. Tokens costing exactly the limit may still make the
/// cut (the state id decides), so they stay.
fn cap_limit(
    tokens: &LiveTokens<TraceId>,
    keys: &mut Vec<u64>,
    threshold: f32,
    max_active: Option<usize>,
) -> CapLimit {
    let Some(cap) = max_active else {
        return CapLimit::NONE;
    };
    if cap == 0 || tokens.len() <= cap {
        return CapLimit::NONE;
    }
    gather_keys(tokens, keys, threshold);
    if keys.len() <= cap {
        return CapLimit::NONE;
    }
    let (_, &mut kth, _) = keys.select_nth_unstable(cap - 1);
    CapLimit {
        cost: key_cost(kth),
        cap,
    }
}

/// Widest digit of [`sort_states`]: two passes cover 4M states.
const RADIX_BITS: u32 = 11;
/// Below this many ids a comparison sort is cheaper than clearing and
/// summing `2^RADIX_BITS` buckets per pass.
const RADIX_MIN_LEN: usize = 384;

/// Sorts [`item`]s by state: an LSD radix sort over as few digits of at
/// most [`RADIX_BITS`] bits as the largest state present needs, split
/// evenly (so a 16-bit range takes two passes over 256 buckets, not one
/// over 2048 and one over 32), ping-ponging between `items` and `buf`;
/// short inputs take `sort_unstable`. The search sorts each state at most
/// once, so stability never matters.
fn sort_states(items: &mut [u64], buf: &mut Vec<u64>) {
    if items.len() < RADIX_MIN_LEN {
        items.sort_unstable();
        return;
    }
    if buf.len() < items.len() {
        buf.resize(items.len(), 0);
    }
    let buf = &mut buf[..items.len()];
    let used_bits =
        u32::BITS - item_state(items.iter().fold(0, |all, &item| all | item)).leading_zeros();
    let passes = used_bits.div_ceil(RADIX_BITS);
    let width = used_bits.div_ceil(passes.max(1));
    let mut offsets = [0u32; 1 << RADIX_BITS];
    let offsets = &mut offsets[..1 << width];
    let mut in_buf = false;
    for pass in 0..passes {
        let (src, dst) = if in_buf {
            (&*buf, &mut *items)
        } else {
            (&*items, &mut *buf)
        };
        let shift = pass * width;
        let digit = |item: u64| (item_state(item) >> shift) as usize & ((1 << width) - 1);
        offsets.fill(0);
        for &item in src {
            offsets[digit(item)] += 1;
        }
        let mut sum = 0;
        for offset in offsets.iter_mut() {
            sum += std::mem::replace(offset, sum);
        }
        for &item in src {
            let offset = &mut offsets[digit(item)];
            dst[*offset as usize] = item;
            *offset += 1;
        }
        in_buf = !in_buf;
    }
    if in_buf {
        items.copy_from_slice(buf);
    }
}

/// Expands one frame's emitting arcs from the `frontier` [`item`]s of
/// `cur` into `next` with prune-on-insert and inline lattice pushes,
/// starting a new epoch of `index` and emptying `next` first.
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
    index: &mut StateIndex,
    cur: &LiveTokens<TraceId>,
    next: &mut LiveTokens<TraceId>,
    frontier: &[u64],
    lattice: &mut Lattice,
    fs: &mut FrameStats,
    beam: f32,
    last_frame: bool,
    row: &[f32],
) {
    index.begin_frame();
    next.clear();
    for &item in frontier {
        let token = cur.tokens()[item_pos(item)];
        for arc in wfst.emitting_arcs(StateId(token.state)) {
            fs.arcs_traversed += 1;
            let cost = token.cost + arc.weight + row[arc.ilabel.index()];
            if !last_frame && cost > next.best() + beam {
                continue;
            }
            let push = || lattice.push(token.payload, arc.olabel);
            if index.relax(next, arc.dest.0, cost, push).is_some() {
                fs.tokens_created += 1;
            }
        }
    }
}

/// Transitively relaxes epsilon arcs inside one frame's token list,
/// through the `index` that filled it this epoch.
///
/// Worklist algorithm: whenever a token improves, its epsilon arcs are
/// reconsidered. Non-negative weights guarantee termination (zero-weight
/// cycles yield no strict improvement and stop). Deterministic because the
/// initial worklist is sorted by state id. Tokens beyond the lower of
/// `threshold` (the beam) and `limit` (the cap's cutoff), both frozen by
/// the caller at the end of the emitting phase, are neither stored nor
/// expanded — they could never improve a token the next frame can
/// expand, since epsilon weights are non-negative.
///
/// Seeds are chosen under the beam alone and held to the limit only when
/// their turn comes. A seed above the limit that an earlier seed pulls
/// under it is then expanded at its place in state order, where the
/// reference (which seeds every token) expands it, and not behind all
/// the other seeds: between paths of exactly equal cost the first
/// relaxation keeps the backpointer, so the place matters.
///
/// Only states that own an epsilon arc ([`Wfst::has_epsilon`]) enter the
/// worklist. Popping any other state relaxes nothing, pushes nothing and
/// counts no arc, and dropping them keeps the rest in the same relative
/// order, so the relaxations and lattice pushes happen in exactly the
/// sequence a walk over every live token would produce.
#[allow(clippy::too_many_arguments)]
fn epsilon_closure(
    wfst: &Wfst,
    index: &mut StateIndex,
    tokens: &mut LiveTokens<TraceId>,
    lattice: &mut Lattice,
    fs: &mut FrameStats,
    threshold: f32,
    limit: f32,
    worklist: &mut Vec<u64>,
    sort_buf: &mut Vec<u64>,
) {
    worklist.clear();
    for (pos, token) in tokens.tokens().iter().enumerate() {
        if wfst.has_epsilon(StateId(token.state)) && token.cost <= threshold {
            worklist.push(item(token.state, pos));
        }
    }
    sort_states(worklist, sort_buf);
    let cutoff = if limit < threshold { limit } else { threshold };
    let mut idx = 0;
    while idx < worklist.len() {
        let token = tokens.tokens()[item_pos(worklist[idx])];
        idx += 1;
        if token.cost > cutoff {
            continue;
        }
        for arc in wfst.epsilon_arcs(StateId(token.state)) {
            fs.arcs_traversed += 1;
            let dest_cost = token.cost + arc.weight;
            if dest_cost > cutoff {
                continue;
            }
            let push = || lattice.push(token.payload, arc.olabel);
            if let Some(pos) = index.relax(tokens, arc.dest.0, dest_cost, push) {
                fs.tokens_created += 1;
                if wfst.has_epsilon(arc.dest) {
                    worklist.push(item(arc.dest.0, pos));
                }
            }
        }
    }
}

/// Runs lattice GC when `frame` crosses the configured interval: live
/// roots are the tokens' traces, and every token's backpointer is
/// retargeted to the compacted trace.
fn maybe_gc(
    interval: Option<u32>,
    frame: usize,
    tokens: &mut LiveTokens<TraceId>,
    lattice: &mut Lattice,
    gc_roots: &mut Vec<TraceId>,
    gc: &mut CompactScratch,
) {
    let Some(interval) = interval else {
        return;
    };
    if interval == 0 || !(frame as u64 + 1).is_multiple_of(interval as u64) {
        return;
    }
    gc_roots.clear();
    gc_roots.extend(tokens.tokens().iter().map(|token| token.payload));
    lattice.compact(gc_roots, gc);
    for (trace, &root) in tokens.payloads_mut().zip(gc_roots.iter()) {
        *trace = root;
    }
}

/// What a scan of tokens in ascending state order that replaces its pick
/// on a strictly lower cost (`<`) ends up with — the reference's
/// end-of-utterance rule — computed from tokens offered in any order.
///
/// Such a scan starts from the lowest state id and, unless that token's
/// cost is NaN (which no `<` ever displaces), ends on the cheapest
/// token, ties to the lower state id.
#[derive(Default)]
struct AscendingScan {
    lowest: Option<(u32, f32, TraceId)>,
    cheapest: Option<(u32, f32, TraceId)>,
}

impl AscendingScan {
    fn offer(&mut self, state: u32, cost: f32, trace: TraceId) {
        if self.lowest.is_none_or(|(s, _, _)| state < s) {
            self.lowest = Some((state, cost, trace));
        }
        let cheaper = |(s, c, _): (u32, f32, TraceId)| cost < c || (cost == c && state < s);
        if !cost.is_nan() && self.cheapest.is_none_or(cheaper) {
            self.cheapest = Some((state, cost, trace));
        }
    }

    fn pick(self) -> Option<(u32, f32, TraceId)> {
        match self.lowest {
            Some((_, cost, _)) if !cost.is_nan() => self.cheapest,
            lowest => lowest,
        }
    }
}

/// End-of-utterance selection: prefer tokens in final states (cost +
/// final cost); fall back to the globally cheapest token, as Kaldi does
/// for truncated audio. Cost ties fall to the lower state id, as in the
/// reference's scan in ascending state order.
pub(crate) fn finish(
    wfst: &Wfst,
    scratch: &DecodeScratch,
    lattice: Lattice,
    stats: DecodeStats,
) -> DecodeResult {
    let cur = &scratch.cur;
    let mut best_final = AscendingScan::default();
    let mut best_any = AscendingScan::default();
    for token in cur.tokens() {
        best_any.offer(token.state, token.cost, token.payload);
        let f = wfst.final_cost(StateId(token.state));
        if f.is_finite() {
            best_final.offer(token.state, token.cost + f, token.payload);
        }
    }
    let (reached_final, chosen) = match (best_final.pick(), best_any.pick()) {
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
    use crate::reference::ReferenceDecoder;
    use asr_wfst::builder::WfstBuilder;
    use asr_wfst::PhoneId;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

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

    /// A frame's token list holding exactly `tokens`, inserted in order.
    fn table_of(tokens: &[(u32, f32)]) -> LiveTokens<TraceId> {
        let (mut index, mut table) = (StateIndex::new(16), LiveTokens::with_capacity(0));
        index.begin_frame();
        for &(state, cost) in tokens {
            assert!(index
                .relax(&mut table, state, cost, || TraceId::ROOT)
                .is_some());
        }
        table
    }

    /// [`build_frontier`] over `table` with fresh buffers but the caller's
    /// `keys`, whose growth some tests watch: the frontier's states.
    fn frontier_of(
        table: &LiveTokens<TraceId>,
        keys: &mut Vec<u64>,
        beam: f32,
        max_active: Option<usize>,
        limit: CapLimit,
    ) -> Vec<u32> {
        let (mut frontier, mut buf) = (Vec::new(), Vec::new());
        build_frontier(
            table,
            &mut frontier,
            keys,
            &mut buf,
            beam,
            max_active,
            limit,
        );
        frontier.into_iter().map(item_state).collect()
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
            prop_assert_eq!(key_cost(frontier_key(a, sa)).to_bits(), a.to_bits());
        }
    }

    // --- state order: radix sort ---------------------------------------

    /// [`sort_states`] over `ids` as items at positions `0..`, checked to
    /// have kept every item; returns the sorted states.
    fn sorted_states(ids: &[u32], buf: &mut Vec<u64>) -> Vec<u32> {
        let mut items: Vec<u64> = ids
            .iter()
            .enumerate()
            .map(|(pos, &id)| item(id, pos))
            .collect();
        let mut kept = items.clone();
        sort_states(&mut items, buf);
        let mut got = items.clone();
        got.sort_unstable();
        kept.sort_unstable();
        assert_eq!(got, kept, "every item survives the sort");
        items.into_iter().map(item_state).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 512 }))]

        #[test]
        fn sort_states_orders_like_sort_unstable(
            raw in prop::collection::vec(any::<u32>(), 0..3 * RADIX_MIN_LEN),
            shift in 0u32..32,
            distinct in any::<bool>(),
        ) {
            // `shift` walks the largest id from one bit to all 32 (zero to
            // three passes); at `shift = 0` ids reach `u32::MAX`.
            let mut ids: Vec<u32> = raw.iter().map(|&id| id >> shift).collect();
            if distinct {
                // What the search sorts: each state at most once.
                ids.sort_unstable();
                ids.dedup();
                ids.reverse();
            }
            let mut want = ids.clone();
            want.sort_unstable();
            // A buffer left over from a longer sort must not leak in.
            let mut buf = vec![u64::MAX; raw.len() / 2];
            prop_assert_eq!(sorted_states(&ids, &mut buf), want);
        }
    }

    #[test]
    fn sort_states_either_side_of_the_radix_cutoff() {
        let mut buf = Vec::new();
        assert!(sorted_states(&[], &mut buf).is_empty());
        for len in [2, RADIX_MIN_LEN - 1, RADIX_MIN_LEN, RADIX_MIN_LEN + 1] {
            // Descending, spread over all 32 bits, both extremes present.
            let step = u32::MAX / len as u32;
            let mut ids: Vec<u32> = (0..len as u32).rev().map(|i| i * step).collect();
            ids[0] = u32::MAX;
            let ids = sorted_states(&ids, &mut buf);
            assert!(ids.is_sorted(), "len {len}");
            assert_eq!((ids[0], ids[len - 1]), (0, u32::MAX), "len {len}");
            // Small ids: one pass, which ends in the buffer.
            let ids: Vec<u32> = (0..len as u32).rev().collect();
            let ids = sorted_states(&ids, &mut buf);
            assert!(ids.iter().copied().eq(0..len as u32), "len {len}");
        }
        assert_eq!(buf.len(), RADIX_MIN_LEN + 1, "grown to the longest input");
        // All zero: no digit to sort on.
        let ids = sorted_states(&[0; RADIX_MIN_LEN], &mut buf);
        assert_eq!(ids, vec![0; RADIX_MIN_LEN]);
    }

    #[test]
    fn equal_costs_straddling_the_cut_keep_the_lower_state_ids() {
        let table = table_of(&[(9, 1.0), (3, 1.0), (12, 0.5), (7, 1.0), (5, 1.0), (1, 2.0)]);
        let frontier = frontier_of(&table, &mut Vec::new(), 100.0, Some(3), CapLimit::NONE);
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
        let reference = ReferenceDecoder::new(opts).decode(&w, &scores);
        assert_eq!(fast.stats.frames[1].expanded_tokens, 2);
        assert_eq!(fast.words, vec![WordId(1)], "lowest state id wins the tie");
        assert_eq!(fast.words, reference.words);
        assert_eq!(fast.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(fast.best_state, reference.best_state);
    }

    #[test]
    fn a_cap_that_cannot_bind_builds_no_keys() {
        let table = table_of(&[(9, 1.0), (3, 4.0), (12, 0.5), (7, 1.0)]);
        let mut keys = Vec::new();
        let none = CapLimit::NONE;
        for cap in [None, Some(4), Some(5), Some(usize::MAX), Some(0)] {
            let frontier = frontier_of(&table, &mut keys, 2.0, cap, none);
            if cap == Some(0) {
                assert!(frontier.is_empty());
            } else {
                assert_eq!(frontier, [7, 9, 12], "beam survivors in state order");
            }
            assert_eq!(keys.capacity(), 0, "cap {cap:?}: no key traffic");
            assert_eq!(cap_limit(&table, &mut keys, 2.5, cap).cost, f32::INFINITY);
            assert_eq!(keys.capacity(), 0, "cap {cap:?}: no cutoff to take");
        }
        // More live tokens than the cap, fewer beam survivors: keyed
        // gather, no selection needed and no cutoff learnt.
        assert_eq!(
            frontier_of(&table, &mut keys, 2.0, Some(3), none),
            [7, 9, 12]
        );
        assert_eq!(
            cap_limit(&table, &mut keys, 2.5, Some(3)).cost,
            f32::INFINITY
        );
    }

    // --- end-of-utterance selection -------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 32 } else { 2048 }))]

        #[test]
        fn ascending_scan_is_the_scan_in_state_order(
            offers in prop::collection::vec((0u32..12, 0usize..5), 0..10),
        ) {
            // Few distinct costs (ties are the point), NaN among them;
            // states offered in arbitrary order, each at most once.
            const COSTS: [f32; 5] = [0.5, 1.0, f32::NAN, f32::INFINITY, -1.0];
            let mut tokens: Vec<(u32, f32, TraceId)> = Vec::new();
            for &(state, cost) in &offers {
                if tokens.iter().all(|&(s, _, _)| s != state) {
                    tokens.push((state, COSTS[cost], TraceId(state)));
                }
            }
            let mut scan = AscendingScan::default();
            for &(state, cost, trace) in &tokens {
                scan.offer(state, cost, trace);
            }
            // The reference's rule, verbatim.
            tokens.sort_unstable_by_key(|&(state, _, _)| state);
            let mut want: Option<(u32, f32, TraceId)> = None;
            for &(state, cost, trace) in &tokens {
                if want.is_none_or(|(_, c, _)| cost < c) {
                    want = Some((state, cost, trace));
                }
            }
            let bits = |pick: Option<(u32, f32, TraceId)>| pick.map(|(s, c, t)| (s, c.to_bits(), t));
            prop_assert_eq!(bits(scan.pick()), bits(want));
        }
    }

    /// Cost ties at the end of the utterance, in both branches of
    /// `finish` (a final state reached, none reached), with the tied
    /// tokens inserted in descending and in ascending state order.
    #[test]
    fn equal_cost_winners_fall_to_the_lower_state_id_like_the_reference() {
        for reach_final in [true, false] {
            for descending in [true, false] {
                let mut b = WfstBuilder::new();
                let s: Vec<StateId> = (0..6).map(|_| b.add_state()).collect();
                b.set_start(s[0]);
                let mut dests = [2, 4, 5, 3];
                if descending {
                    dests.reverse();
                }
                for dest in dests {
                    // All four tie, unless finals count: then state 5,
                    // never final, is cheaper than the tied 2, 3 and 4.
                    let weight = if reach_final && dest == 5 { 0.5 } else { 1.0 };
                    b.add_arc(s[0], s[dest], PhoneId(1), WordId(dest as u32), weight);
                    if reach_final && dest != 5 {
                        // Equal totals from unequal parts for 2 and 3.
                        b.set_final(s[dest], if dest == 4 { 0.25 } else { 0.0 });
                    }
                }
                if !reach_final {
                    // A graph needs a final state; this one is unreachable.
                    b.set_final(s[1], 0.0);
                }
                let w = b.build().unwrap();
                let scores = AcousticTable::from_fn(1, 2, |_, _| 0.5);
                let opts = DecodeOptions::with_beam(100.0);
                let fast = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
                let reference = ReferenceDecoder::new(opts).decode(&w, &scores);
                let what = format!("final {reach_final}, descending {descending}");
                assert_eq!(fast.reached_final, reach_final, "{what}");
                assert_eq!(fast.best_state, s[2], "{what}");
                assert_same_search(&fast, &reference, &what);
                assert_eq!(fast.words, reference.words, "{what}");
            }
        }
    }

    // --- the cap's cutoff ----------------------------------------------

    #[test]
    fn cap_limit_is_the_cost_of_the_capth_cheapest_token_in_beam() {
        let table = table_of(&[(9, 1.0), (3, 1.0), (12, 0.5), (7, 1.0), (5, 1.0), (1, 2.0)]);
        let mut keys = Vec::new();
        let mut limit = |threshold, cap| {
            let limit = cap_limit(&table, &mut keys, threshold, Some(cap));
            assert!(limit.cost == f32::INFINITY || limit.cap == cap);
            limit.cost
        };
        assert_eq!(limit(100.0, 1), 0.5);
        for cap in 2..=5 {
            assert_eq!(limit(100.0, cap), 1.0, "cap {cap} cuts through the tie");
        }
        assert_eq!(limit(100.0, 6), f32::INFINITY, "cap = live count");
        assert_eq!(limit(1.5, 4), 1.0);
        assert_eq!(limit(1.5, 5), f32::INFINITY, "five tokens in beam");
        assert_eq!(
            limit(f32::NAN, 1),
            f32::INFINITY,
            "nothing is in a NaN beam"
        );

        // The limit is compared as a float: `0.0` is not above a `-0.0`
        // limit although its key is, so it stays for the rank-select.
        let table = table_of(&[(4, 1.0), (3, 0.0), (2, -0.0), (1, -1.0)]);
        let limit = cap_limit(&table, &mut keys, 100.0, Some(2));
        assert_eq!(limit.cost.to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            frontier_of(&table, &mut keys, 100.0, Some(2), limit),
            [1, 2]
        );
        let narrower = frontier_of(&table, &mut keys, 100.0, Some(1), limit);
        assert_eq!(narrower, [1], "a narrower cap may use it too");
    }

    #[test]
    fn a_limit_from_a_narrower_cap_does_not_filter_a_wider_frontier() {
        let table = table_of(&[(9, 1.0), (3, 1.5), (12, 0.5), (7, 1.0), (5, 3.0), (1, 2.0)]);
        let mut keys = Vec::new();
        // What a frame under `max_active: Some(2)` leaves behind.
        let narrow = cap_limit(&table, &mut keys, 100.0, Some(2));
        assert_eq!((narrow.cost, narrow.cap), (1.0, 2));
        let mut frontier_under = |cap, limit| frontier_of(&table, &mut keys, 100.0, cap, limit);
        // Retuned wider before the next frame: the four cheapest include
        // tokens above the old limit.
        assert_eq!(frontier_under(Some(4), narrow), [1, 3, 7, 9, 12][1..]);
        assert_eq!(frontier_under(Some(5), narrow), [1, 3, 7, 9, 12]);
        assert_eq!(frontier_under(None, narrow), [1, 3, 5, 7, 9, 12]);
        // Same or narrower: the limit applies and changes nothing.
        for cap in [Some(2), Some(1)] {
            let with = frontier_under(cap, narrow);
            assert_eq!(with, frontier_under(cap, CapLimit::NONE));
        }
    }

    /// `s0` fans out on one phone to a cheap state and three tied ones;
    /// two of the tied ones reach, over free epsilon arcs, states with
    /// the lowest ids of the graph. Under `max_active: Some(2)` the limit
    /// is the tied cost itself: the tied tokens, and what they reach at
    /// that same cost, must survive the closure, and the lowest state id
    /// among them takes the cap's last slot in the next frame.
    #[test]
    fn tokens_at_exactly_the_limit_survive_and_the_lowest_state_id_wins_the_last_slot() {
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..9).map(|_| b.add_state()).collect();
        let (start, e1, e2, cheap, dear_end, tied_end) = (s[0], s[1], s[2], s[3], s[7], s[8]);
        let tied = [s[4], s[5], s[6]];
        b.set_start(start);
        b.add_arc(start, cheap, PhoneId(1), WordId(1), 0.5);
        for state in tied {
            b.add_arc(start, state, PhoneId(1), WordId(state.0), 1.0);
        }
        b.add_arc(tied[0], e2, PhoneId::EPSILON, WordId(12), 0.0);
        b.add_arc(tied[1], e1, PhoneId::EPSILON, WordId(11), 0.0);
        b.add_arc(cheap, dear_end, PhoneId(1), WordId::NONE, 5.0);
        b.add_arc(e1, tied_end, PhoneId(1), WordId::NONE, 0.25);
        b.add_arc(e2, tied_end, PhoneId(1), WordId::NONE, 0.125);
        b.set_final(dear_end, 0.0);
        b.set_final(tied_end, 0.0);
        let w = b.build().unwrap();
        let scores = AcousticTable::from_fn(2, 2, |_, _| 0.5);
        let opts = DecodeOptions {
            beam: 100.0,
            max_active: Some(2),
            ..DecodeOptions::default()
        };
        let checked = assert_closure_matches_oracle(&w, &scores, &opts);
        let fast = &checked.fast;
        assert_eq!(
            fast.stats.frames[1].active_tokens, 6,
            "cheap, tied x3, e1, e2"
        );
        assert_eq!(fast.stats.frames[1].expanded_tokens, 2, "cheap and e1");
        // Through `e1` (state 1), not the cheaper continuation of `e2`.
        assert_eq!(fast.words, vec![WordId(5), WordId(11)]);
        assert_eq!(fast.cost, 1.5 + 0.25 + 0.5);
        assert_eq!(fast.words, checked.reference.words);
    }

    /// One cheap dead end and one dear token whose epsilon arc reaches
    /// the only final state: under `max_active: Some(1)` a non-final frame
    /// skips the dear token's closure, the last frame must not.
    #[test]
    fn the_last_frame_is_closed_over_in_full() {
        let mut b = WfstBuilder::new();
        let s: Vec<StateId> = (0..4).map(|_| b.add_state()).collect();
        b.set_start(s[0]);
        b.add_arc(s[0], s[1], PhoneId(1), WordId(1), 0.5);
        b.add_arc(s[0], s[2], PhoneId(1), WordId(2), 3.0);
        b.add_arc(s[2], s[3], PhoneId::EPSILON, WordId(3), 0.0);
        b.add_arc(s[1], s[1], PhoneId(1), WordId::NONE, 0.5);
        b.set_final(s[3], 0.0);
        let w = b.build().unwrap();
        let opts = DecodeOptions {
            beam: 100.0,
            max_active: Some(1),
            ..DecodeOptions::default()
        };
        let one = AcousticTable::from_fn(1, 2, |_, _| 0.5);
        let checked = assert_closure_matches_oracle(&w, &one, &opts);
        assert!(checked.fast.reached_final);
        assert_eq!(checked.fast.words, vec![WordId(2), WordId(3)]);
        assert_eq!(checked.fast.words, checked.reference.words);

        // The same row consumed as a non-final frame is pruned for the
        // frame after it: the final state is never reached, which is why
        // a stream holds its newest row back for `finish`.
        let mut run = Run::new(&w);
        seed_start(&w, &mut run.scratch, &mut run.lattice);
        let row = one.frame_row(0);
        assert!(search_frame(
            &w,
            &opts,
            &mut run.scratch,
            &mut run.lattice,
            &mut run.stats,
            row,
            false
        ));
        assert_eq!(run.scratch.limit.cost, 1.0);
        let stepped = finish(&w, &run.scratch, run.lattice, run.stats);
        assert!(!stepped.reached_final);
        assert_eq!(stepped.best_state, s[1]);

        // Two frames: the skipped closure changes the live count of
        // frame 1 and nothing the reference can see.
        let two = AcousticTable::from_fn(2, 2, |_, _| 0.5);
        let checked = assert_closure_matches_oracle(&w, &two, &opts);
        assert_eq!(checked.fast.stats.frames[1].active_tokens, 2);
        assert_eq!(checked.reference.stats.frames[1].active_tokens, 3);
        assert_eq!(checked.fast.words, checked.reference.words);
    }

    /// Rows with `+inf` and NaN costs scattered through them. Neither
    /// may panic the rank-selects or split the search from its oracle.
    /// An infinite cost is an ordinary (hopeless) cost and the reference
    /// agrees on everything. A NaN cost is not ordered: a token holding
    /// one is in no beam, so no frontier and no closure seed of this
    /// search ever takes it, while the reference's closure, which asks
    /// no cost before it expands, carries it on over epsilon arcs. With
    /// NaN rows the two therefore agree where that difference (as old
    /// as the closure threshold) has nothing to act on: a graph without
    /// epsilon arcs.
    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn non_finite_rows_neither_panic_nor_diverge() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        const FRAMES: usize = 30;
        for (seed, epsilon_fraction) in [(1, 0.115), (2, 0.5), (3, 0.0)] {
            let w = SynthWfst::generate(&SynthConfig {
                epsilon_fraction,
                seed,
                ..SynthConfig::with_states(2_000)
            })
            .unwrap();
            assert_eq!(epsilon_fraction == 0.0, w.epsilon_fraction() == 0.0);
            let phones = w.num_phones() as usize;
            let raw = AcousticTable::random(FRAMES, phones, (0.5, 4.0), seed);
            for bad in [f32::INFINITY, f32::NAN] {
                for every in [3, 7, 50] {
                    let scores = AcousticTable::from_fn(FRAMES, phones, |f, p| {
                        if p > 0 && (f * 31 + p * 17) % every == 0 {
                            bad
                        } else {
                            raw.frame_row(f)[p]
                        }
                    });
                    for cap in [None, Some(1), Some(20), Some(200)] {
                        let opts = DecodeOptions {
                            max_active: cap,
                            ..DecodeOptions::with_beam(6.0)
                        };
                        let what = format!("{bad} every {every}, {epsilon_fraction} eps, {cap:?}");
                        if bad.is_nan() && epsilon_fraction > 0.0 {
                            lock_step(&w, &scores, |_| opts.clone());
                        } else {
                            let checked = assert_closure_matches_oracle(&w, &scores, &opts);
                            assert_eq!(checked.fast.words, checked.reference.words, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Caps lowered and raised every few frames (what
    /// `StreamingDecode::set_search_params` does between rows). Frame by
    /// frame the search must equal the oracle, whose frontier never
    /// trusts the previous frame's limit: a limit is used only where it
    /// cannot change the frontier. The trace is scripted, so two runs
    /// of it are the same bytes, and a constant trace is the decoder
    /// constructed with those options (every `lock_step` caller).
    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn retuning_the_cap_between_frames_matches_the_oracle() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        const FRAMES: usize = 48;
        let w = SynthWfst::generate(&SynthConfig {
            epsilon_fraction: 0.3,
            ..SynthConfig::with_states(3_000).with_seed(5)
        })
        .unwrap();
        let scores = AcousticTable::random(FRAMES, w.num_phones() as usize, (0.5, 4.0), 8);
        let caps = [Some(300), Some(40), Some(1000), None, Some(40), Some(60)];
        let opts_at = |frame: usize| DecodeOptions {
            max_active: caps[frame / 3 % caps.len()],
            lattice_gc_interval: Some(5),
            ..DecodeOptions::with_beam(if frame % 7 < 4 { 14.0 } else { 9.0 })
        };
        let (fast, _) = lock_step(&w, &scores, opts_at);
        let expanded: Vec<usize> = (fast.stats.frames.iter())
            .map(|f| f.expanded_tokens)
            .collect();
        // The trace did what it says: the narrow caps bind on every
        // frame they govern, and the frame after a raise (40 to 1000 at
        // frame 6, 40 to 60 at frames 15 and 33) expands more tokens
        // than the old cap, which its limit alone would not admit.
        for (frame, &n) in expanded.iter().enumerate().skip(3) {
            match opts_at(frame).max_active {
                Some(cap) if cap <= 60 => assert_eq!(n, cap, "frame {frame}"),
                _ => assert!(n > 60, "frame {frame}: {n}"),
            }
        }
        assert_eq!(expanded.len(), FRAMES);

        let (again, _) = lock_step(&w, &scores, opts_at);
        assert_eq!(again.stats.frames, fast.stats.frames);
        assert_eq!(again.tokens(), fast.tokens());
        assert_eq!(entries(&again.lattice), entries(&fast.lattice));
    }

    // --- closure differential ----------------------------------------

    /// The closure as it stood before the epsilon summary: every live
    /// in-beam token enters the worklist, whether or not its state owns
    /// an epsilon arc. The oracle for [`epsilon_closure`], with its
    /// signature so that [`Run::frame`] takes either.
    #[allow(clippy::too_many_arguments)]
    fn epsilon_closure_every_token(
        wfst: &Wfst,
        index: &mut StateIndex,
        tokens: &mut LiveTokens<TraceId>,
        lattice: &mut Lattice,
        fs: &mut FrameStats,
        threshold: f32,
        limit: f32,
        worklist: &mut Vec<u64>,
        _sort_buf: &mut Vec<u64>,
    ) {
        worklist.clear();
        for (pos, token) in tokens.tokens().iter().enumerate() {
            if token.cost <= threshold {
                worklist.push(item(token.state, pos));
            }
        }
        worklist.sort_unstable();
        let cutoff = if limit < threshold { limit } else { threshold };
        let mut idx = 0;
        while idx < worklist.len() {
            let token = tokens.tokens()[item_pos(worklist[idx])];
            idx += 1;
            if token.cost > cutoff {
                continue;
            }
            for arc in wfst.epsilon_arcs(StateId(token.state)) {
                fs.arcs_traversed += 1;
                let dest_cost = token.cost + arc.weight;
                if dest_cost > cutoff {
                    continue;
                }
                let push = || lattice.push(token.payload, arc.olabel);
                if let Some(pos) = index.relax(tokens, arc.dest.0, dest_cost, push) {
                    fs.tokens_created += 1;
                    worklist.push(item(arc.dest.0, pos));
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

    /// Wall time and work of the frames a [`Run`] has consumed, by stage.
    #[derive(Debug, Clone, Copy, Default)]
    struct StageSplit {
        frontier: Duration,
        relax: Duration,
        cutoff: Duration,
        closure: Duration,
        gc: Duration,
        relax_arcs: usize,
        relax_tokens: usize,
        closure_arcs: usize,
        closure_tokens: usize,
    }

    /// One decode in flight: what a driver threads from frame to frame.
    struct Run {
        scratch: DecodeScratch,
        lattice: Lattice,
        stats: DecodeStats,
        split: StageSplit,
    }

    impl Run {
        fn new(wfst: &Wfst) -> Self {
            Self::with_scratch(DecodeScratch::new(wfst.num_states()))
        }

        fn with_scratch(scratch: DecodeScratch) -> Self {
            Self {
                scratch,
                lattice: Lattice::new(),
                stats: DecodeStats::default(),
                split: StageSplit::default(),
            }
        }

        /// [`seed_start`] with the oracle closure.
        fn oracle_seed_start(&mut self, wfst: &Wfst) {
            self.scratch.limit = CapLimit::NONE;
            let cur = &mut self.scratch.cur;
            cur.clear();
            let mut closure = FrameStats::default();
            FRAME.with_borrow_mut(|frame| {
                let index = &mut frame.index;
                index.ensure(wfst.num_states());
                index.begin_frame();
                let start_trace = self.lattice.push(TraceId::ROOT, WordId::NONE);
                index.relax(cur, wfst.start().0, 0.0, || start_trace);
                epsilon_closure_every_token(
                    wfst,
                    index,
                    cur,
                    &mut self.lattice,
                    &mut closure,
                    f32::INFINITY,
                    f32::INFINITY,
                    &mut frame.worklist,
                    &mut frame.sort_buf,
                );
            });
            self.split.closure_tokens += closure.tokens_created;
        }

        /// The test module's one copy of [`search_frame`]: the same
        /// stages in the same order with a clock around each, so it
        /// serves both as the stage profiler (`ORACLE = false`: every
        /// stage is the production function) and as the lock-step oracle
        /// (`ORACLE = true`: the walk-every-token closure, and a frontier
        /// that never trusts the previous frame's limit).
        fn frame<const ORACLE: bool>(
            &mut self,
            wfst: &Wfst,
            opts: &DecodeOptions,
            row: &[f32],
            last_frame: bool,
        ) -> bool {
            FRAME.with_borrow_mut(|frame| {
                let FrameScratch {
                    index,
                    frontier,
                    worklist,
                    keys,
                    sort_buf,
                    gc_roots,
                    gc,
                } = frame;
                let DecodeScratch { cur, next, limit } = &mut self.scratch;
                let (lattice, split) = (&mut self.lattice, &mut self.split);
                let frame = self.stats.frames.len();
                let mut fs = FrameStats {
                    active_tokens: cur.len(),
                    ..FrameStats::default()
                };

                let clock = Instant::now();
                let trusted = if ORACLE { CapLimit::NONE } else { *limit };
                build_frontier(
                    cur,
                    frontier,
                    keys,
                    sort_buf,
                    opts.beam,
                    opts.max_active,
                    trusted,
                );
                fs.expanded_tokens = frontier.len();
                split.frontier += clock.elapsed();

                let clock = Instant::now();
                index.ensure(wfst.num_states());
                relax_frame(
                    wfst, index, cur, next, frontier, lattice, &mut fs, opts.beam, last_frame, row,
                );
                split.relax += clock.elapsed();
                split.relax_arcs += fs.arcs_traversed;
                split.relax_tokens += fs.tokens_created;

                let clock = Instant::now();
                let mut threshold = f32::INFINITY;
                *limit = CapLimit::NONE;
                if !last_frame {
                    threshold = next.best() + opts.beam;
                    *limit = cap_limit(next, keys, threshold, opts.max_active);
                }
                split.cutoff += clock.elapsed();

                let clock = Instant::now();
                let mut closure = FrameStats::default();
                let run = if ORACLE {
                    epsilon_closure_every_token
                } else {
                    epsilon_closure
                };
                run(
                    wfst,
                    index,
                    next,
                    lattice,
                    &mut closure,
                    threshold,
                    limit.cost,
                    worklist,
                    sort_buf,
                );
                split.closure += clock.elapsed();
                split.closure_arcs += closure.arcs_traversed;
                split.closure_tokens += closure.tokens_created;
                fs.arcs_traversed += closure.arcs_traversed;
                fs.tokens_created += closure.tokens_created;

                std::mem::swap(cur, next);
                self.stats.frames.push(fs);
                if cur.is_empty() {
                    return false;
                }
                if !last_frame {
                    let clock = Instant::now();
                    let interval = opts.lattice_gc_interval;
                    maybe_gc(interval, frame, cur, lattice, gc_roots, gc);
                    split.gc += clock.elapsed();
                }
                true
            })
        }

        /// Live tokens in insertion order: `(state, cost bits, trace)`.
        fn tokens(&self) -> Vec<(u32, u32, TraceId)> {
            let cur = self.scratch.cur.tokens().iter();
            cur.map(|t| (t.state, t.cost.to_bits(), t.payload))
                .collect()
        }
    }

    /// Decodes `scores` twice in lock step — [`search_frame`] and the
    /// oracle frame, frame `t` under `opts_at(t)` — asserting identical
    /// stats, live tokens and lattice entries after the start closure
    /// and after every frame. Returns the two runs.
    fn lock_step(
        wfst: &Wfst,
        scores: &AcousticTable,
        opts_at: impl Fn(usize) -> DecodeOptions,
    ) -> (Run, Run) {
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
            let opts = opts_at(frame);
            let alive = search_frame(
                wfst,
                &opts,
                &mut fast.scratch,
                &mut fast.lattice,
                &mut fast.stats,
                row,
                last,
            );
            assert_eq!(alive, oracle.frame::<true>(wfst, &opts, row, last));
            same(&fast, &oracle, &format!("frame {frame}, {opts:?}"));
            if !alive {
                break;
            }
        }
        (fast, oracle)
    }

    /// A lock-step decode's two ends: the finished fast decode and the
    /// reference's, already held to [`assert_same_search`].
    struct Checked {
        fast: DecodeResult,
        reference: DecodeResult,
        /// Tokens the closures created (not the emitting phase).
        closure_tokens: usize,
    }

    /// What no pruning may move, against the prune-nothing reference: the
    /// best path's cost and end, and how many tokens every frame expanded.
    ///
    /// `words` is the caller's to compare. Between paths of *exactly*
    /// equal cost the first relaxation keeps the backpointer, and which
    /// comes first can shift once the closure stops walking tokens the
    /// beam or the cap has ruled out (the reference walks them all), so a
    /// graph built to tie everywhere pins its words in lock step against
    /// the oracle instead.
    fn assert_same_search(fast: &DecodeResult, reference: &DecodeResult, what: &str) {
        let expanded = |r: &DecodeResult| -> Vec<usize> {
            r.stats.frames.iter().map(|f| f.expanded_tokens).collect()
        };
        assert_eq!(fast.cost.to_bits(), reference.cost.to_bits(), "{what}");
        assert_eq!(fast.best_state, reference.best_state, "{what}");
        assert_eq!(fast.reached_final, reference.reached_final, "{what}");
        assert_eq!(expanded(fast), expanded(reference), "{what}: expanded");
    }

    /// [`lock_step`] under constant options, then the finished decode
    /// against the reference.
    fn assert_closure_matches_oracle(
        wfst: &Wfst,
        scores: &AcousticTable,
        opts: &DecodeOptions,
    ) -> Checked {
        let (fast, oracle) = lock_step(wfst, scores, |_| opts.clone());
        let fast = finish(wfst, &fast.scratch, fast.lattice, fast.stats);
        let what = format!("{opts:?}");
        let reference = ReferenceDecoder::new(opts.clone()).decode(wfst, scores);
        assert_same_search(&fast, &reference, &what);
        Checked {
            fast,
            reference,
            closure_tokens: oracle.split.closure_tokens,
        }
    }

    /// The option sets every differential graph is decoded under: wide
    /// and tight beams, frequent and no GC, and caps from "expand
    /// nothing" through binding ones to one no graph here can reach.
    fn differential_options() -> Vec<DecodeOptions> {
        let gc = |interval| DecodeOptions {
            lattice_gc_interval: interval,
            ..DecodeOptions::with_beam(6.0)
        };
        let mut sets = vec![DecodeOptions::with_beam(1e9), gc(Some(4)), gc(None)];
        // Interpreted, the sets multiply a slow decode: keep two that bind.
        let caps: &[usize] = if cfg!(miri) {
            &[1, 12]
        } else {
            &[0, 1, 5, 12, 40, 1 << 20]
        };
        for &cap in caps {
            sets.push(DecodeOptions {
                max_active: Some(cap),
                ..gc(Some(3))
            });
        }
        sets.push(DecodeOptions {
            max_active: Some(12),
            ..DecodeOptions::with_beam(1e9)
        });
        sets
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
            // Two-valued scores keep path costs on a coarse grid: ties,
            // also across the cap's cutoff.
            let scores = AcousticTable::from_fn(frames, 4, |f, p| 0.5 + 0.5 * ((f + p) % 2) as f32);
            let mut closure_tokens = 0;
            let mut most_live = 0;
            for opts in differential_options() {
                let checked = assert_closure_matches_oracle(&w, &scores, &opts);
                closure_tokens += checked.closure_tokens;
                let live = checked.fast.stats.frames.iter().map(|f| f.active_tokens);
                most_live = most_live.max(live.max().unwrap());
            }
            assert!(closure_tokens > frames, "seed {seed}: closure barely ran");
            // Caps at, just under and just over the live count.
            for cap in most_live - 1..=most_live + 1 {
                let opts = DecodeOptions {
                    max_active: Some(cap),
                    ..DecodeOptions::with_beam(1e9)
                };
                assert_closure_matches_oracle(&w, &scores, &opts);
            }
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
            // Raw scores, and scores on a half-unit grid: arc weights are
            // arbitrary floats, so only a path and its own detours tie.
            let raw = AcousticTable::random(40, w.num_phones() as usize, (0.5, 4.0), seed);
            let grid = AcousticTable::from_fn(40, w.num_phones() as usize, |f, p| {
                (raw.frame_row(f)[p] * 2.0).round() / 2.0
            });
            for scores in [&raw, &grid] {
                for opts in differential_options() {
                    let checked = assert_closure_matches_oracle(&w, scores, &opts);
                    assert_eq!(checked.fast.words, checked.reference.words, "{opts:?}");
                    if opts.max_active.is_none_or(|cap| cap >= 12) {
                        let made = checked.closure_tokens;
                        assert!(made > 40, "seed {seed}: closure barely ran ({made})");
                    }
                    // Pruning takes work away and nothing else.
                    let arcs = |r: &DecodeResult| r.stats.total_arcs();
                    if matches!(opts.max_active, Some(1..=40)) {
                        assert!(arcs(&checked.fast) < arcs(&checked.reference));
                    }
                }
            }
        }
    }

    // --- stage split ---------------------------------------------------

    impl StageSplit {
        fn total(&self) -> Duration {
            self.frontier + self.relax + self.cutoff + self.closure + self.gc
        }
    }

    /// Where a search frame goes (`just stages`): decodes the benchmark's
    /// two search shapes and their beam-only counterparts stage by stage
    /// through [`Run::frame`], checks every result against
    /// [`search_frame`]'s, and prints the best of `ROUNDS` passes over
    /// eight 100-frame tables on a warm scratch; then what stepping 16
    /// decodes round-robin costs ([`interleave_split`]).
    #[test]
    #[ignore = "a profiler, not a check: run with `just stages`"]
    fn stage_split() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        const ROUNDS: usize = 12;
        const TABLES: u64 = 8;
        const FRAMES: usize = 100;
        for (states, beam, max_active) in [
            (200_000, 40.0, Some(1_500)),
            (50_000, 40.0, Some(2_000)),
            (200_000, 8.0, None),
            (50_000, 8.0, None),
        ] {
            // The benchmark's graph statistics (`benchmark/src/inputs.rs`).
            let w = SynthWfst::generate(&SynthConfig {
                num_phones: 2_000,
                vocab_size: 2_000,
                final_fraction: 0.05,
                ..SynthConfig::with_states(states).with_seed(1)
            })
            .unwrap();
            let opts = DecodeOptions {
                max_active,
                ..DecodeOptions::with_beam(beam)
            };
            let decoder = ViterbiDecoder::new(opts.clone());
            let tables: Vec<AcousticTable> = (0..TABLES)
                .map(|seed| AcousticTable::random(FRAMES, 2_001, (0.5, 4.0), seed))
                .collect();
            let mut scratch = DecodeScratch::new(w.num_states());
            let (mut frames, mut live, mut expanded) = (0, 0, 0);
            let mut best: Option<StageSplit> = None;
            for round in 0..=ROUNDS {
                let mut split = StageSplit::default();
                for scores in &tables {
                    let mut run = Run::with_scratch(scratch);
                    run.split = split;
                    seed_start(&w, &mut run.scratch, &mut run.lattice);
                    for frame in 0..FRAMES {
                        let last = frame + 1 == FRAMES;
                        if !run.frame::<false>(&w, &opts, scores.frame_row(frame), last) {
                            break;
                        }
                    }
                    split = run.split;
                    let staged = finish(&w, &run.scratch, run.lattice, run.stats);
                    scratch = run.scratch;
                    if round == 0 {
                        // The warm-up pass doubles as the check.
                        let whole = decoder.decode_with(&mut scratch, &w, scores);
                        assert_eq!(staged.words, whole.words);
                        assert_eq!(staged.cost.to_bits(), whole.cost.to_bits());
                        assert_eq!(staged.best_state, whole.best_state);
                        assert_eq!(staged.reached_final, whole.reached_final);
                        assert_eq!(staged.stats.frames, whole.stats.frames);
                        assert_eq!(entries(&staged.lattice), entries(&whole.lattice));
                        frames += staged.stats.frames.len();
                        for fs in &staged.stats.frames {
                            live += fs.active_tokens;
                            expanded += fs.expanded_tokens;
                        }
                    }
                }
                if round > 0 && best.is_none_or(|b| split.total() < b.total()) {
                    best = Some(split);
                }
            }
            let best = best.unwrap();
            let per_frame = |n: usize| n as f64 / frames as f64;
            let us = |d: Duration| d.as_secs_f64() * 1e6 / frames as f64;
            println!(
                "{states} states, beam {beam}, max_active {max_active:?}: \
                 {frames} frames, best of {ROUNDS} rounds, us per frame"
            );
            println!(
                "  frontier {:7.1}   live {:.1} -> expanded {:.1}",
                us(best.frontier),
                per_frame(live),
                per_frame(expanded)
            );
            println!(
                "  relax    {:7.1}   arcs {:.1}, tokens {:.1}",
                us(best.relax),
                per_frame(best.relax_arcs),
                per_frame(best.relax_tokens)
            );
            println!("  cutoff   {:7.1}", us(best.cutoff));
            println!(
                "  closure  {:7.1}   arcs {:.1}, tokens {:.1}",
                us(best.closure),
                per_frame(best.closure_arcs),
                per_frame(best.closure_tokens)
            );
            println!("  gc       {:7.1}", us(best.gc));
            println!("  frame    {:7.1}", us(best.total()));
        }
        interleave_split();
    }

    // --- one index per thread, many decodes ---------------------------

    /// `n` decodes of `scores` (one table each) stepped on this thread
    /// through its shared index, every decode one frame in turn when
    /// `round_robin`, else each to its end before the next starts, and
    /// finished with the last row. Returns the results and the wall time
    /// of the steps alone.
    fn step_decodes(
        wfst: &Wfst,
        opts: &DecodeOptions,
        scores: &[AcousticTable],
        round_robin: bool,
    ) -> (Vec<DecodeResult>, Duration) {
        let mut runs: Vec<Run> = scores.iter().map(|_| Run::new(wfst)).collect();
        for run in &mut runs {
            seed_start(wfst, &mut run.scratch, &mut run.lattice);
        }
        let frames = scores
            .iter()
            .map(AcousticTable::num_frames)
            .max()
            .unwrap_or(0);
        let step = |run: &mut Run, scores: &AcousticTable, frame: usize| {
            if frame + 1 < scores.num_frames() {
                let (scratch, lattice) = (&mut run.scratch, &mut run.lattice);
                let row = scores.frame_row(frame);
                search_frame(wfst, opts, scratch, lattice, &mut run.stats, row, false);
            }
        };
        let clock = Instant::now();
        if round_robin {
            for frame in 0..frames {
                for (run, scores) in runs.iter_mut().zip(scores) {
                    step(run, scores, frame);
                }
            }
        } else {
            for (run, scores) in runs.iter_mut().zip(scores) {
                for frame in 0..frames {
                    step(run, scores, frame);
                }
            }
        }
        let wall = clock.elapsed();
        let results = (runs.into_iter().zip(scores))
            .map(|(mut run, scores)| {
                let last = scores.num_frames() - 1;
                let (row, scratch) = (scores.frame_row(last), &mut run.scratch);
                search_frame(
                    wfst,
                    opts,
                    scratch,
                    &mut run.lattice,
                    &mut run.stats,
                    row,
                    true,
                );
                finish(wfst, &run.scratch, run.lattice, run.stats)
            })
            .collect();
        (results, wall)
    }

    /// [`stage_split`]'s last shape, what interleaving decodes costs the
    /// search: 16 decodes over the 50k-state graph at cap 2000, stepped
    /// round-robin (the `voice_16s_batched` pattern) and back to back, in
    /// us per step, best of `ROUNDS`; both orders must decode the same
    /// bytes.
    fn interleave_split() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        const ROUNDS: usize = 6;
        const DECODES: u64 = 16;
        const FRAMES: usize = 60;
        let w = SynthWfst::generate(&SynthConfig {
            num_phones: 2_000,
            vocab_size: 2_000,
            final_fraction: 0.05,
            ..SynthConfig::with_states(50_000).with_seed(1)
        })
        .unwrap();
        let opts = DecodeOptions {
            max_active: Some(2_000),
            ..DecodeOptions::with_beam(40.0)
        };
        let tables: Vec<AcousticTable> = (0..DECODES)
            .map(|seed| AcousticTable::random(FRAMES, 2_001, (0.5, 4.0), seed))
            .collect();
        let steps = (DECODES as usize * (FRAMES - 1)) as f64;
        let mut best = [f64::INFINITY; 2];
        let mut decoded: [Vec<DecodeResult>; 2] = Default::default();
        for _ in 0..=ROUNDS {
            for round_robin in [false, true] {
                let (results, wall) = step_decodes(&w, &opts, &tables, round_robin);
                let us = wall.as_secs_f64() * 1e6 / steps;
                best[usize::from(round_robin)] = best[usize::from(round_robin)].min(us);
                decoded[usize::from(round_robin)] = results;
            }
        }
        for (a, b) in decoded[0].iter().zip(&decoded[1]) {
            assert_eq!(a.words, b.words);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(entries(&a.lattice), entries(&b.lattice));
        }
        println!(
            "50000 states, beam 40, max_active Some(2000): {DECODES} decodes x {} steps, \
             best of {ROUNDS} rounds, us per step",
            FRAMES - 1
        );
        println!("  back to back {:7.1}", best[0]);
        println!("  round robin  {:7.1}   x{:.2}", best[1], best[1] / best[0]);
    }

    /// Two decodes interleaved on this thread across the wrap of its
    /// shared index's epoch, after decodes that left small tags in the
    /// slots they reach: each must match the same decode before the wrap.
    #[test]
    fn decode_across_the_epoch_wrap_matches_a_fresh_scratch() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let states = if cfg!(miri) { 150 } else { 2_000 };
        let w = SynthWfst::generate(&SynthConfig::with_states(states)).unwrap();
        let tables: Vec<AcousticTable> = (5..7)
            .map(|seed| AcousticTable::random(60, w.num_phones() as usize, (0.5, 4.0), seed))
            .collect();
        let opts = DecodeOptions {
            lattice_gc_interval: Some(8),
            ..DecodeOptions::with_beam(6.0)
        };
        // A scratch held throughout keeps this thread's index alive.
        let _held = DecodeScratch::new(w.num_states());
        let d = ViterbiDecoder::new(opts.clone());
        let fresh: Vec<DecodeResult> = tables.iter().map(|scores| d.decode(&w, scores)).collect();
        for fresh in &fresh {
            assert_eq!(fresh.stats.frames.len(), 60, "the beam must not empty");
        }

        // The fresh decodes left small tags in the slots these utterances
        // reach: exactly what a wrap that forgot to reset them would
        // bring back to life.
        FRAME.with_borrow_mut(|frame| frame.index.seed_epoch(u32::MAX - 7));
        let (wrapped, _) = step_decodes(&w, &opts, &tables, true);
        assert!(FRAME.with_borrow(|frame| frame.index.epoch()) < 128);

        for (wrapped, fresh) in wrapped.iter().zip(&fresh) {
            assert_eq!(wrapped.words, fresh.words);
            assert_eq!(wrapped.cost.to_bits(), fresh.cost.to_bits());
            assert_eq!(wrapped.best_state, fresh.best_state);
            assert_eq!(wrapped.reached_final, fresh.reached_final);
            assert_eq!(wrapped.stats.frames, fresh.stats.frames);
            assert_eq!(entries(&wrapped.lattice), entries(&fresh.lattice));
        }
    }
}
