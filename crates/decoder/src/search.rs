//! Frame-synchronous Viterbi beam search (the algorithm of Section II),
//! rebuilt as a software twin of the accelerator's hash datapath.
//!
//! Each frame, every surviving token's outgoing non-epsilon arcs are
//! expanded with the frame's acoustic cost added (Equation 1 in log space:
//! additions replace multiplications), destination tokens keep only their
//! best ingoing path, and epsilon arcs are then followed transitively
//! without consuming a frame. Backpointers and word labels go to the
//! [`crate::lattice::Lattice`] of word-carrying tokens that expand;
//! backtracking recovers the word sequence.
//!
//! # The hot path
//!
//! Where the retained [`crate::reference::ReferenceDecoder`] drives every
//! frame through `HashMap` lookups, full re-sorts of the map, and
//! unconditional lattice pushes, this decoder mirrors the accelerator's
//! structure (Section III of the paper):
//!
//! * **Token storage is split by lifetime.** A decode keeps only its live
//!   tokens between frames: one `LiveTokens` list of
//!   `{state, cost, pending backpointer}`, 16 bytes a token, sized by the
//!   active set, plus its token trace. What lives only for one frame —
//!   the graph-sized, epoch-tagged `StateIndex` that deduplicates
//!   relaxes (8 bytes a state) and the list the frame fills — is one per
//!   thread (with the frontier, worklist, key and GC buffers), lent to
//!   whichever decode the thread steps: the frame fills the thread's
//!   list and swaps it with the decode's at its end (a `Vec` swap, not a
//!   copy), and its epoch bump is what isolates one decode's frame from
//!   the next. Sixteen decodes stepped round-robin on a thread therefore
//!   share one table and one spare list instead of bringing 32 cold
//!   tables into its cache and keeping 16 spare lists. After warm-up the
//!   whole frame loop performs **zero heap allocations** (asserted by
//!   `tests/alloc_free.rs`, interleaved decodes included).
//! * **A trace entry only for a word-carrying token that expands**: a
//!   stored token carries its `{prev, word}` as a pending backpointer
//!   ([`crate::lattice`]) and pushes it when it first stores a successor,
//!   in the emitting phase or the closure, if its arc emitted a word; a
//!   wordless token's successors point at its predecessor's entry, and a
//!   token dropped before it expands never reaches the trace. At 50k
//!   states and a 2000-token cap that is ~230 entries a frame instead of
//!   the ~4,700 tokens stored. The relax pays no branch for it: the one
//!   test `Pending::entry` makes is the same, against another constant.
//!   The trace lives in the [`DecodeScratch`], so a recycled scratch
//!   decodes the next utterance into the capacity the last one grew.
//! * **Prune-on-insert**: the list tracks the running frame-best during
//!   expansion, and arcs whose destination cost already exceeds
//!   `running_best + beam` skip the relax — the accelerator's on-insert
//!   beam test. Because the running best can only
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
//! * **Lattice compaction**: every 32 frames the backpointer trace is
//!   mark-compacted from the live tokens' pending backpointers (Kaldi's
//!   periodic token GC), so long utterances stop growing the trace
//!   unboundedly.
//!
//! Pruning inside a frame (on insert, and in the closure under the beam
//! and the cap's cutoff) has one visible edge. Between two paths of
//! *exactly* equal cost the first relaxation keeps the backpointer, and
//! not walking tokens the reference's closure still walks can change
//! which comes first. Cost, end state and every frame's frontier are
//! unaffected; `words` can then be the other, equally cheap path. It
//! takes a graph built to tie (weights and scores on a coarse grid) to
//! see it; ARCHITECTURE.md, "Where a frame goes", has the counts.

use crate::lattice::{CompactScratch, Lattice, Pending, TraceId};
use crate::probe::{FrameWork, Probe, Stage};
use crate::token_table::{LiveTokens, StateIndex};
use asr_acoustic::scores::AcousticTable;
use asr_wfst::{StateId, Wfst, WordId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Tuning knobs of the beam search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeOptions {
    /// Beam width: tokens costlier than `frame_best + beam` are pruned.
    pub beam: f32,
    /// Optional cap on tokens expanded per frame (histogram pruning); the
    /// paper's accelerator uses pure beam pruning, so this defaults off.
    pub max_active: Option<usize>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        Self {
            beam: 8.0,
            max_active: None,
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

/// Aggregated decode statistics: the [`Probe`] the batch and streaming
/// decoders pass, which keeps one [`FrameStats`] a frame.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DecodeStats {
    /// One entry per frame.
    pub frames: Vec<FrameStats>,
}

impl Probe for DecodeStats {
    fn frame(&mut self, work: &FrameWork) {
        self.frames.push(work.stats());
    }
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
}

/// Live tokens a fresh [`DecodeScratch`] has room for before its list
/// first grows: about what a 2000-token cap leaves alive per frame.
const RESERVED_TOKENS: usize = 4096;

/// A decode's own working set, carried from frame to frame: its live
/// tokens as one list sized by the active set (16 bytes a token, not per
/// graph state), its token trace, what the last frame learnt about the
/// cap's cutoff, and how many frames it has consumed.
///
/// The trace holds what the last lattice GC kept and one 8-byte entry
/// per word-carrying token that expanded since. Under the benchmark's
/// 2000-token cap on a 50k-state graph it peaks at about 9,400 entries
/// (74 KiB) between two GCs, in a buffer grown to 128 KiB; with the list
/// (about 5,800 tokens at its peak, 128 KiB once grown) a warm scratch
/// holds about 0.25 MiB of capacity. The decode that starts in a scratch
/// empties its trace and keeps the capacity.
///
/// Everything a frame needs only while it runs — the graph-sized state
/// index that deduplicates relaxes, the list the frame fills, the
/// frontier, the closure worklist, the rank-select keys and the GC
/// buffers — is one per thread instead, borrowed by each frame and shared
/// by every decode the thread steps. Holding a scratch across decodes (or
/// pooling it, see [`crate::pool::ScratchPool`]) makes repeated decoding
/// allocation-free end to end once the lists and the trace have grown to
/// the largest utterance's.
#[derive(Debug)]
pub struct DecodeScratch {
    /// The live tokens: the start closure's, then each consumed frame's.
    pub(crate) cur: LiveTokens<Pending>,
    /// The entries of the word-carrying tokens that expanded, for
    /// backtracking; kept after the decode until the next one starts.
    pub(crate) trace: Lattice,
    /// The cap's cutoff the previous frame's emitting phase took (see
    /// [`cap_limit`]): no token costing more is among this frame's
    /// `max_active` cheapest. `+inf` when nothing is known. A decode's
    /// options are fixed, so the cap it was taken under is this frame's.
    limit: f32,
    /// Frames the decode has consumed: what schedules the lattice GC,
    /// whoever listens to the search.
    pub(crate) frames: usize,
}

impl DecodeScratch {
    /// Allocates scratch for decodes over graphs of `num_states` states,
    /// with room for that many live tokens up to 4096; the list grows on
    /// demand beyond that.
    pub fn new(num_states: usize) -> Self {
        let room = num_states.min(RESERVED_TOKENS);
        *live_scratches() += 1;
        Self {
            cur: LiveTokens::with_capacity(room),
            trace: Lattice::new(),
            limit: f32::INFINITY,
            frames: 0,
        }
    }

    /// Entries in the token trace of the decode this scratch last ran (or
    /// is running): what its last lattice GC kept, and one per
    /// word-carrying token that expanded since.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }
}

impl Clone for DecodeScratch {
    fn clone(&self) -> Self {
        *live_scratches() += 1;
        Self {
            cur: self.cur.clone(),
            trace: self.trace.clone(),
            limit: self.limit,
            frames: self.frames,
        }
    }
}

impl Drop for DecodeScratch {
    /// The last scratch of the process takes the dropping thread's frame
    /// scratch with it: with no decode left there is nothing for the
    /// graph-sized index or the spare list to serve, and an index that outlived every
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
    /// State → position in `next`: the graph-sized part, 8 bytes a state,
    /// grown to the largest graph searched.
    index: StateIndex,
    /// The list the frame in flight fills and then swaps with the
    /// decode's: between frames, the spare capacity of whichever decode
    /// the thread stepped last.
    next: LiveTokens<Pending>,
    /// The frame's beam survivors as [`item`]s, in state order.
    frontier: Vec<u64>,
    /// Epsilon-closure worklist: [`item`]s of the list being closed.
    worklist: Vec<u64>,
    /// `max_active` rank-select keys ([`frontier_key`]); holds live tokens
    /// only while the cap binds, so it grows on demand.
    keys: Vec<u64>,
    /// [`sort_states`]' second buffer; grows on demand like `keys`.
    sort_buf: Vec<u64>,
    /// Live trace roots handed to the lattice GC: the live tokens'
    /// [`Pending::root`]s.
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
/// inputs produce identical traces and results on every run and
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
    /// same scratch skip all token-list and trace allocation. The
    /// decode's trace stays in `scratch` until the next one starts.
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
        let mut stats = DecodeStats::default();
        let result = self.decode_probed(scratch, wfst, scores, &mut stats);
        DecodeResult { stats, ..result }
    }

    /// [`ViterbiDecoder::decode_with`] reporting to `probe` (see
    /// [`crate::probe`]) instead of recording [`DecodeStats`]: the
    /// result's `stats` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the WFST references phone labels outside the score table.
    pub fn decode_probed(
        &self,
        scratch: &mut DecodeScratch,
        wfst: &Wfst,
        scores: &AcousticTable,
        probe: &mut impl Probe,
    ) -> DecodeResult {
        seed_start(wfst, scratch, probe);
        let num_frames = scores.num_frames();
        for frame in 0..num_frames {
            // The final frame keeps every token so final-state selection
            // sees the full set, exactly like the reference.
            let last_frame = frame + 1 == num_frames;
            let alive = search_frame(
                wfst,
                &self.opts,
                scratch,
                probe,
                scores.frame_row(frame),
                last_frame,
            );
            if !alive {
                break; // the beam killed every path; decode fails gracefully
            }
        }
        finish(wfst, scratch, DecodeStats::default())
    }
}

/// Starts a decode in `scratch`: empties its trace, seeds the start
/// state's token and runs the initial epsilon closure, before any frame
/// is consumed; no beam applies yet (mirrors the reference). The one
/// preamble of the batch and streaming decoders; the closure's work goes
/// to [`Probe::start`].
pub(crate) fn seed_start(wfst: &Wfst, scratch: &mut DecodeScratch, probe: &mut impl Probe) {
    FRAME.with_borrow_mut(|frame| {
        let FrameScratch {
            index,
            worklist,
            sort_buf,
            ..
        } = frame;
        scratch.limit = f32::INFINITY;
        scratch.frames = 0;
        scratch.trace.clear();
        let cur = &mut scratch.cur;
        cur.clear();
        index.ensure(wfst.num_states());
        index.begin_frame();
        let start = Pending::new(TraceId::ROOT, WordId::NONE);
        index.relax(cur, wfst.start().0, 0.0, || start);
        let mut work = FrameWork::default();
        epsilon_closure(
            wfst,
            index,
            cur,
            &mut scratch.trace,
            &mut work,
            f32::INFINITY,
            f32::INFINITY,
            worklist,
            sort_buf,
        );
        work.closure_popped = worklist.len();
        work.trace_len = scratch.trace.len();
        work.entries = work.trace_len;
        probe.start(&work);
    });
}

/// Consumes one frame's score row: prune into the frontier, expand the
/// emitting arcs, take the cap's cutoff, close over epsilon arcs under
/// it, swap the lists and run the periodic lattice GC, marking each
/// [`Stage`] to `probe` as it begins and reporting the frame's
/// [`FrameWork`] when it ends. The one frame body of the batch and
/// streaming decoders, so the two can never drift apart. Returns `false`
/// once the beam has killed every path.
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
    probe: &mut impl Probe,
    row: &[f32],
    last_frame: bool,
) -> bool {
    FRAME.with_borrow_mut(|frame| {
        let FrameScratch {
            index,
            next,
            frontier,
            worklist,
            keys,
            sort_buf,
            gc_roots,
            gc,
        } = frame;
        let DecodeScratch {
            cur,
            trace,
            limit,
            frames,
        } = scratch;
        let beam = opts.beam;
        let trace_before = trace.len();
        let mut work = FrameWork {
            live: cur.len(),
            ..FrameWork::default()
        };

        probe.stage(Stage::Frontier);
        build_frontier(cur, frontier, keys, sort_buf, beam, opts.max_active, *limit);
        work.expanded = frontier.len();
        for &item in frontier.iter() {
            probe.expand(item_state(item));
        }

        probe.stage(Stage::Relax);
        index.ensure(wfst.num_states());
        relax_frame(
            wfst, index, cur, next, frontier, trace, &mut work, beam, last_frame, row,
        );

        // Epsilon closure under thresholds frozen at the end of the emitting
        // phase, so the closure is independent of the worklist order: the
        // beam, and whatever the cap already rules out.
        probe.stage(Stage::Cutoff);
        let mut closure_threshold = f32::INFINITY;
        *limit = f32::INFINITY;
        if !last_frame {
            closure_threshold = next.best() + beam;
            *limit = cap_limit(next, keys, closure_threshold, opts.max_active);
        }
        probe.stage(Stage::Closure);
        epsilon_closure(
            wfst,
            index,
            next,
            trace,
            &mut work,
            closure_threshold,
            *limit,
            worklist,
            sort_buf,
        );
        work.closure_popped = worklist.len();
        work.trace_len = trace.len();
        work.entries = work.trace_len - trace_before;
        std::mem::swap(cur, next);
        let frame = *frames;
        *frames += 1;
        let alive = !cur.is_empty();
        if alive && !last_frame {
            probe.stage(Stage::Gc);
            maybe_gc(LATTICE_GC_INTERVAL, frame, cur, trace, gc_roots, gc);
        }
        probe.frame(&work);
        alive
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
fn gather_keys(tokens: &LiveTokens<Pending>, keys: &mut Vec<u64>, bound: f32) {
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
/// `limit` is the cap's cutoff the frame that filled `tokens` took
/// ([`cap_limit`]): it rules out every token above it before a key is
/// built.
fn build_frontier(
    tokens: &LiveTokens<Pending>,
    frontier: &mut Vec<u64>,
    keys: &mut Vec<u64>,
    sort_buf: &mut Vec<u64>,
    beam: f32,
    max_active: Option<usize>,
    limit: f32,
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
            let bound = if limit < threshold { limit } else { threshold };
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
/// cut (the state id decides), so they stay. `+inf` when the cap does not
/// bind.
fn cap_limit(
    tokens: &LiveTokens<Pending>,
    keys: &mut Vec<u64>,
    threshold: f32,
    max_active: Option<usize>,
) -> f32 {
    let Some(cap) = max_active else {
        return f32::INFINITY;
    };
    if cap == 0 || tokens.len() <= cap {
        return f32::INFINITY;
    }
    gather_keys(tokens, keys, threshold);
    if keys.len() <= cap {
        return f32::INFINITY;
    }
    let (_, &mut kth, _) = keys.select_nth_unstable(cap - 1);
    key_cost(kth)
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
/// `cur` into `next` with prune-on-insert, starting a new epoch of
/// `index` and emptying `next` first. A frontier token pushes its
/// pending trace entry into `trace` when it stores its first successor,
/// and not at all if it stores none.
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
    cur: &LiveTokens<Pending>,
    next: &mut LiveTokens<Pending>,
    frontier: &[u64],
    trace: &mut Lattice,
    work: &mut FrameWork,
    beam: f32,
    last_frame: bool,
    row: &[f32],
) {
    index.begin_frame();
    next.clear();
    for &item in frontier {
        let token = cur.tokens()[item_pos(item)];
        // `cur` dies with this frame: the pushed form need not go back.
        let mut pending = token.payload;
        for arc in wfst.emitting_arcs(StateId(token.state)) {
            work.relax_arcs += 1;
            let cost = token.cost + arc.weight + row[arc.ilabel.index()];
            if !last_frame && cost > next.best() + beam {
                continue;
            }
            let made = || Pending::new(pending.entry(trace), arc.olabel);
            if index.relax(next, arc.dest.0, cost, made).is_some() {
                work.relax_stored += 1;
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
///
/// A token pushes its pending trace entry when it stores its first
/// successor, and keeps the pushed form, so the next frame's expansion of
/// the same token reuses the entry.
#[allow(clippy::too_many_arguments)]
fn epsilon_closure(
    wfst: &Wfst,
    index: &mut StateIndex,
    tokens: &mut LiveTokens<Pending>,
    trace: &mut Lattice,
    work: &mut FrameWork,
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
        let pos = item_pos(worklist[idx]);
        let token = tokens.tokens()[pos];
        idx += 1;
        if token.cost > cutoff {
            continue;
        }
        let mut pending = token.payload;
        // Whether a relax replaced this very token: its new backpointer
        // then stands (only a negative-weight self-loop improves on
        // itself).
        let mut replaced = false;
        for arc in wfst.epsilon_arcs(StateId(token.state)) {
            work.closure_arcs += 1;
            let dest_cost = token.cost + arc.weight;
            if dest_cost > cutoff {
                continue;
            }
            let made = || Pending::new(pending.entry(trace), arc.olabel);
            if let Some(dest) = index.relax(tokens, arc.dest.0, dest_cost, made) {
                work.closure_stored += 1;
                replaced |= dest == pos;
                if wfst.has_epsilon(arc.dest) {
                    worklist.push(item(arc.dest.0, dest));
                }
            }
        }
        if !replaced && pending != token.payload {
            *tokens.payload_mut(pos) = pending;
        }
    }
}

/// Frames between two lattice compactions: 64 peaked at a third more
/// memory, 8 cost 5–10 % frames/s (ARCHITECTURE.md has the sweep).
const LATTICE_GC_INTERVAL: usize = 32;

/// Runs lattice GC when `frame` ends a run of `every` frames: live
/// roots are the tokens' [`Pending::root`]s, and every one is retargeted
/// to the compacted trace.
fn maybe_gc(
    every: usize,
    frame: usize,
    tokens: &mut LiveTokens<Pending>,
    lattice: &mut Lattice,
    gc_roots: &mut Vec<TraceId>,
    gc: &mut CompactScratch,
) {
    if !(frame + 1).is_multiple_of(every) {
        return;
    }
    gc_roots.clear();
    gc_roots.extend(tokens.tokens().iter().map(|token| token.payload.root()));
    lattice.compact(gc_roots, gc);
    for (pending, &root) in tokens.payloads_mut().zip(gc_roots.iter()) {
        *pending.root_mut() = root;
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
    lowest: Option<(u32, f32, Pending)>,
    cheapest: Option<(u32, f32, Pending)>,
}

impl AscendingScan {
    fn offer(&mut self, state: u32, cost: f32, trace: Pending) {
        if self.lowest.is_none_or(|(s, _, _)| state < s) {
            self.lowest = Some((state, cost, trace));
        }
        let cheaper = |(s, c, _): (u32, f32, Pending)| cost < c || (cost == c && state < s);
        if !cost.is_nan() && self.cheapest.is_none_or(cheaper) {
            self.cheapest = Some((state, cost, trace));
        }
    }

    fn pick(self) -> Option<(u32, f32, Pending)> {
        match self.lowest {
            Some((_, cost, _)) if !cost.is_nan() => self.cheapest,
            lowest => lowest,
        }
    }
}

/// End-of-utterance selection: prefer tokens in final states (cost +
/// final cost); fall back to the globally cheapest token, as Kaldi does
/// for truncated audio. Cost ties fall to the lower state id, as in the
/// reference's scan in ascending state order. The words are backtracked
/// through the scratch's trace, which stays there.
pub(crate) fn finish(wfst: &Wfst, scratch: &DecodeScratch, stats: DecodeStats) -> DecodeResult {
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
        Some((state, cost, pending)) => DecodeResult {
            words: pending.backtrack(&scratch.trace),
            cost,
            reached_final,
            best_state: StateId(state),
            stats,
        },
        None => DecodeResult {
            words: Vec::new(),
            cost: f32::INFINITY,
            reached_final: false,
            best_state: wfst.start(),
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::RecordingProbe;
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

    /// What a decode reports to its probe: the start closure once, then
    /// per frame its stage marks in order, one `expand` per expanded
    /// token and the frame's work, whose stats are what the decoders
    /// record.
    #[test]
    fn a_probe_hears_every_stage_and_every_expanded_state() {
        #[derive(Default)]
        struct Log {
            starts: usize,
            marks: Vec<Stage>,
            expanded: usize,
            frames: Vec<FrameWork>,
        }
        impl Probe for Log {
            fn stage(&mut self, stage: Stage) {
                self.marks.push(stage);
            }
            fn expand(&mut self, _state: u32) {
                self.expanded += 1;
            }
            fn start(&mut self, _work: &FrameWork) {
                self.starts += 1;
            }
            fn frame(&mut self, work: &FrameWork) {
                self.frames.push(*work);
            }
        }
        let (w, scores) = figure2();
        let d = ViterbiDecoder::new(DecodeOptions::with_beam(20.0));
        let mut log = Log::default();
        let mut scratch = DecodeScratch::new(w.num_states());
        let probed = d.decode_probed(&mut scratch, &w, &scores, &mut log);
        let plain = d.decode(&w, &scores);
        assert!(probed.stats.frames.is_empty(), "the probe has the frames");
        assert_eq!(probed.words, plain.words);
        assert_eq!(probed.cost.to_bits(), plain.cost.to_bits());
        assert_eq!(log.starts, 1);
        let stats: Vec<FrameStats> = log.frames.iter().map(FrameWork::stats).collect();
        assert_eq!(stats, plain.stats.frames);
        let expanded = plain.stats.frames.iter().map(|f| f.expanded_tokens);
        assert_eq!(log.expanded, expanded.sum::<usize>());
        // Three frames; the last one runs no GC.
        use Stage::*;
        let frame = [Frontier, Relax, Cutoff, Closure, Gc];
        assert_eq!(log.marks, [&frame[..], &frame[..], &frame[..4]].concat());
    }

    #[test]
    fn max_active_caps_expansion() {
        let (w, scores) = figure2();
        let r = ViterbiDecoder::new(DecodeOptions {
            beam: 100.0,
            max_active: Some(1),
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
        let (a, a_trace) = decode_traced(&d, &w, &scores);
        let (b, b_trace) = decode_traced(&d, &w, &scores);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.words, b.words);
        assert_eq!(a_trace, b_trace);
        assert_eq!(a.best_state, b.best_state);
    }

    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn scratch_reuse_matches_fresh_decodes() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let w = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let scores = AcousticTable::random(25, w.num_phones() as usize, (0.5, 4.0), 9);
        let d = ViterbiDecoder::new(DecodeOptions::with_beam(6.0));
        let (fresh, fresh_trace) = decode_traced(&d, &w, &scores);
        let mut scratch = DecodeScratch::new(w.num_states());
        for _ in 0..3 {
            let reused = d.decode_with(&mut scratch, &w, &scores);
            assert_eq!(reused.cost, fresh.cost);
            assert_eq!(reused.words, fresh.words);
            assert_eq!(reused.best_state, fresh.best_state);
            assert_eq!(entries(&scratch.trace), fresh_trace);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn lattice_gc_shrinks_the_trace_without_changing_results() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        // Three compactions, at frames 31, 63 and 95.
        let w = SynthWfst::generate(&SynthConfig::with_states(3_000)).unwrap();
        let scores = AcousticTable::random(100, w.num_phones() as usize, (0.5, 4.0), 21);
        let opts = DecodeOptions::with_beam(6.0);
        let (mut scratch, mut probe) = (
            DecodeScratch::new(w.num_states()),
            RecordingProbe::default(),
        );
        let gc =
            ViterbiDecoder::new(opts.clone()).decode_probed(&mut scratch, &w, &scores, &mut probe);
        // The reference keeps its full trace.
        let keep_all = ReferenceDecoder::new(opts).decode(&w, &scores);
        assert_eq!(gc.cost, keep_all.cost);
        assert_eq!(gc.words, keep_all.words);
        assert_eq!(gc.best_state, keep_all.best_state);
        // Every entry pushed is the trace a decode that never compacts keeps.
        let pushed = probe.start.entries + probe.frames.iter().map(|w| w.entries).sum::<usize>();
        assert!(
            scratch.trace_len() < pushed,
            "GC {} vs full {pushed}",
            scratch.trace_len()
        );
    }

    // --- frontier: keyed rank-select ---------------------------------

    /// A frame's token list holding exactly `tokens`, inserted in order.
    fn table_of(tokens: &[(u32, f32)]) -> LiveTokens<Pending> {
        let (mut index, mut table) = (StateIndex::new(16), LiveTokens::default());
        index.begin_frame();
        let start = Pending::new(TraceId::ROOT, WordId::NONE);
        for &(state, cost) in tokens {
            assert!(index.relax(&mut table, state, cost, || start).is_some());
        }
        table
    }

    /// [`build_frontier`] over `table` with fresh buffers but the caller's
    /// `keys`, whose growth some tests watch: the frontier's states.
    fn frontier_of(
        table: &LiveTokens<Pending>,
        keys: &mut Vec<u64>,
        beam: f32,
        max_active: Option<usize>,
        limit: f32,
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
        let frontier = frontier_of(&table, &mut Vec::new(), 100.0, Some(3), f32::INFINITY);
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
        let none = f32::INFINITY;
        for cap in [None, Some(4), Some(5), Some(usize::MAX), Some(0)] {
            let frontier = frontier_of(&table, &mut keys, 2.0, cap, none);
            if cap == Some(0) {
                assert!(frontier.is_empty());
            } else {
                assert_eq!(frontier, [7, 9, 12], "beam survivors in state order");
            }
            assert_eq!(keys.capacity(), 0, "cap {cap:?}: no key traffic");
            assert_eq!(cap_limit(&table, &mut keys, 2.5, cap), f32::INFINITY);
            assert_eq!(keys.capacity(), 0, "cap {cap:?}: no cutoff to take");
        }
        // More live tokens than the cap, fewer beam survivors: keyed
        // gather, no selection needed and no cutoff learnt.
        assert_eq!(
            frontier_of(&table, &mut keys, 2.0, Some(3), none),
            [7, 9, 12]
        );
        assert_eq!(cap_limit(&table, &mut keys, 2.5, Some(3)), f32::INFINITY);
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
            let mut tokens: Vec<(u32, f32, Pending)> = Vec::new();
            for &(state, cost) in &offers {
                if tokens.iter().all(|&(s, _, _)| s != state) {
                    tokens.push((state, COSTS[cost], Pending::new(TraceId(state), WordId::NONE)));
                }
            }
            let mut scan = AscendingScan::default();
            for &(state, cost, trace) in &tokens {
                scan.offer(state, cost, trace);
            }
            // The reference's rule, verbatim.
            tokens.sort_unstable_by_key(|&(state, _, _)| state);
            let mut want: Option<(u32, f32, Pending)> = None;
            for &(state, cost, trace) in &tokens {
                if want.is_none_or(|(_, c, _)| cost < c) {
                    want = Some((state, cost, trace));
                }
            }
            let bits = |pick: Option<(u32, f32, Pending)>| pick.map(|(s, c, t)| (s, c.to_bits(), t));
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
        let mut limit = |threshold, cap| cap_limit(&table, &mut keys, threshold, Some(cap));
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
        assert_eq!(limit.to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            frontier_of(&table, &mut keys, 100.0, Some(2), limit),
            [1, 2]
        );
        let narrower = frontier_of(&table, &mut keys, 100.0, Some(1), limit);
        assert_eq!(narrower, [1], "a narrower cap may use it too");
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
        };
        let checked = assert_closure_matches_oracle(&w, &scores, None, &opts);
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
        };
        let one = AcousticTable::from_fn(1, 2, |_, _| 0.5);
        let checked = assert_closure_matches_oracle(&w, &one, None, &opts);
        assert!(checked.fast.reached_final);
        assert_eq!(checked.fast.words, vec![WordId(2), WordId(3)]);
        assert_eq!(checked.fast.words, checked.reference.words);

        // The same row consumed as a non-final frame is pruned for the
        // frame after it: the final state is never reached, which is why
        // a stream holds its newest row back for `finish`.
        let mut run = Run::new(&w);
        run.seed_start(&w);
        assert!(run.step(&w, &opts, one.frame_row(0), false));
        assert_eq!(run.scratch.limit, 1.0);
        let stepped = run.finish(&w);
        assert!(!stepped.reached_final);
        assert_eq!(stepped.best_state, s[1]);

        // Two frames: the skipped closure changes the live count of
        // frame 1 and nothing the reference can see.
        let two = AcousticTable::from_fn(2, 2, |_, _| 0.5);
        let checked = assert_closure_matches_oracle(&w, &two, None, &opts);
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
                            lock_step(&w, &scores, None, &opts);
                        } else {
                            let checked = assert_closure_matches_oracle(&w, &scores, None, &opts);
                            assert_eq!(checked.fast.words, checked.reference.words, "{what}");
                        }
                    }
                }
            }
        }
    }

    // --- closure differential ----------------------------------------

    /// [`relax_frame`] as it stood before pending backpointers: every
    /// stored token pushes its trace entry at once, as the accelerator
    /// (and its simulator) writes every token to DRAM. The oracle's
    /// emitting phase; its tokens all carry pushed entries.
    #[allow(clippy::too_many_arguments)]
    fn relax_frame_every_token(
        wfst: &Wfst,
        index: &mut StateIndex,
        cur: &LiveTokens<Pending>,
        next: &mut LiveTokens<Pending>,
        frontier: &[u64],
        trace: &mut Lattice,
        work: &mut FrameWork,
        beam: f32,
        last_frame: bool,
        row: &[f32],
    ) {
        index.begin_frame();
        next.clear();
        for &item in frontier {
            let token = cur.tokens()[item_pos(item)];
            let prev = { token.payload }.entry(trace);
            for arc in wfst.emitting_arcs(StateId(token.state)) {
                work.relax_arcs += 1;
                let cost = token.cost + arc.weight + row[arc.ilabel.index()];
                if !last_frame && cost > next.best() + beam {
                    continue;
                }
                let push = || Pending::new(trace.push(prev, arc.olabel), WordId::NONE);
                if index.relax(next, arc.dest.0, cost, push).is_some() {
                    work.relax_stored += 1;
                }
            }
        }
    }

    /// The closure as it stood before the epsilon summary and pending
    /// backpointers: every live in-beam token enters the worklist,
    /// whether or not its state owns an epsilon arc, and every stored
    /// token pushes its trace entry at once. The oracle for
    /// [`epsilon_closure`].
    #[allow(clippy::too_many_arguments)]
    fn epsilon_closure_every_token(
        wfst: &Wfst,
        index: &mut StateIndex,
        tokens: &mut LiveTokens<Pending>,
        trace: &mut Lattice,
        work: &mut FrameWork,
        threshold: f32,
        limit: f32,
        worklist: &mut Vec<u64>,
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
            let prev = { token.payload }.entry(trace);
            for arc in wfst.epsilon_arcs(StateId(token.state)) {
                work.closure_arcs += 1;
                let dest_cost = token.cost + arc.weight;
                if dest_cost > cutoff {
                    continue;
                }
                let push = || Pending::new(trace.push(prev, arc.olabel), WordId::NONE);
                if let Some(pos) = index.relax(tokens, arc.dest.0, dest_cost, push) {
                    work.closure_stored += 1;
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

    /// A finished decode and the trace it left, dead entries included.
    type Traced = (DecodeResult, Vec<crate::lattice::TraceEntry>);

    /// `decoder` over `scores` on a fresh scratch.
    fn decode_traced(decoder: &ViterbiDecoder, wfst: &Wfst, scores: &AcousticTable) -> Traced {
        let mut scratch = DecodeScratch::new(wfst.num_states());
        let result = decoder.decode_with(&mut scratch, wfst, scores);
        (result, entries(&scratch.trace))
    }

    /// One decode in flight: what a decoder threads from frame to frame,
    /// with a probe that keeps every frame's work.
    struct Run {
        scratch: DecodeScratch,
        probe: RecordingProbe,
    }

    impl Run {
        fn new(wfst: &Wfst) -> Self {
            Self {
                scratch: DecodeScratch::new(wfst.num_states()),
                probe: RecordingProbe::default(),
            }
        }

        /// [`seed_start`] through the run's probe.
        fn seed_start(&mut self, wfst: &Wfst) {
            seed_start(wfst, &mut self.scratch, &mut self.probe);
        }

        /// [`search_frame`] through the run's probe.
        fn step(&mut self, wfst: &Wfst, opts: &DecodeOptions, row: &[f32], last: bool) -> bool {
            search_frame(wfst, opts, &mut self.scratch, &mut self.probe, row, last)
        }

        /// [`maybe_gc`] every `every` frames after stepping `frame`,
        /// beside the search's own every [`LATTICE_GC_INTERVAL`]: what a
        /// shorter interval would have run there.
        fn compact(&mut self, every: usize, frame: usize) {
            let DecodeScratch { cur, trace, .. } = &mut self.scratch;
            FRAME.with_borrow_mut(|f| {
                maybe_gc(every, frame, cur, trace, &mut f.gc_roots, &mut f.gc)
            });
        }

        /// [`seed_start`] with the oracle closure and an eager start entry.
        fn oracle_seed_start(&mut self, wfst: &Wfst) {
            let DecodeScratch {
                cur,
                trace,
                limit,
                frames,
                ..
            } = &mut self.scratch;
            *limit = f32::INFINITY;
            *frames = 0;
            trace.clear();
            cur.clear();
            let mut work = FrameWork::default();
            FRAME.with_borrow_mut(|frame| {
                let index = &mut frame.index;
                index.ensure(wfst.num_states());
                index.begin_frame();
                let start = Pending::new(trace.push(TraceId::ROOT, WordId::NONE), WordId::NONE);
                index.relax(cur, wfst.start().0, 0.0, || start);
                epsilon_closure_every_token(
                    wfst,
                    index,
                    cur,
                    trace,
                    &mut work,
                    f32::INFINITY,
                    f32::INFINITY,
                    &mut frame.worklist,
                );
                work.closure_popped = frame.worklist.len();
            });
            work.trace_len = trace.len();
            work.entries = work.trace_len;
            self.probe.start(&work);
        }

        /// The lock-step oracle's frame: [`search_frame`]'s stages in its
        /// order, with an entry pushed for every stored token, the
        /// walk-every-token closure, and a frontier that never trusts the
        /// previous frame's limit. Reports each frame's work to the run's
        /// probe, unmarked.
        fn frame(
            &mut self,
            wfst: &Wfst,
            opts: &DecodeOptions,
            row: &[f32],
            last_frame: bool,
        ) -> bool {
            FRAME.with_borrow_mut(|frame| {
                let FrameScratch {
                    index,
                    next,
                    frontier,
                    worklist,
                    keys,
                    sort_buf,
                    gc_roots,
                    gc,
                } = frame;
                let DecodeScratch {
                    cur,
                    trace,
                    limit,
                    frames,
                } = &mut self.scratch;
                let trace_before = trace.len();
                let mut work = FrameWork {
                    live: cur.len(),
                    ..FrameWork::default()
                };
                let (beam, max_active) = (opts.beam, opts.max_active);
                build_frontier(
                    cur,
                    frontier,
                    keys,
                    sort_buf,
                    beam,
                    max_active,
                    f32::INFINITY,
                );
                work.expanded = frontier.len();
                index.ensure(wfst.num_states());
                relax_frame_every_token(
                    wfst, index, cur, next, frontier, trace, &mut work, beam, last_frame, row,
                );
                let mut threshold = f32::INFINITY;
                *limit = f32::INFINITY;
                if !last_frame {
                    threshold = next.best() + beam;
                    *limit = cap_limit(next, keys, threshold, max_active);
                }
                epsilon_closure_every_token(
                    wfst, index, next, trace, &mut work, threshold, *limit, worklist,
                );
                work.closure_popped = worklist.len();
                work.trace_len = trace.len();
                work.entries = work.trace_len - trace_before;
                std::mem::swap(cur, next);
                let frame = *frames;
                *frames += 1;
                let alive = !cur.is_empty();
                if alive && !last_frame {
                    maybe_gc(LATTICE_GC_INTERVAL, frame, cur, trace, gc_roots, gc);
                }
                self.probe.frame(&work);
                alive
            })
        }

        /// The [`DecodeStats`] a decoder would have recorded.
        fn stats(&self) -> DecodeStats {
            let frames = self.probe.frames.iter().map(FrameWork::stats).collect();
            DecodeStats { frames }
        }

        /// [`finish`] of this decode.
        fn finish(&self, wfst: &Wfst) -> DecodeResult {
            finish(wfst, &self.scratch, self.stats())
        }

        /// Live tokens in insertion order: `(state, cost bits, pending)`.
        fn tokens(&self) -> Vec<(u32, u32, Pending)> {
            let cur = self.scratch.cur.tokens().iter();
            cur.map(|t| (t.state, t.cost.to_bits(), t.payload))
                .collect()
        }

        /// [`StreamingDecode::partial`](crate::stream::StreamingDecode::partial)
        /// of this decode.
        fn partial(&self) -> Option<crate::stream::PartialHypothesis> {
            crate::stream::best_hypothesis(&self.scratch)
        }
    }

    /// Decodes `scores` twice in lock step — [`search_frame`] and the
    /// oracle frame, both under `opts` and both compacting their
    /// traces also every `gc_every` frames ([`Run::compact`]) — asserting
    /// identical stats, live states and costs, and best hypotheses
    /// (words, cost and state) after the start closure and after every
    /// frame, a trace no longer than the oracle's, which pushes an entry
    /// for every stored token, and no entry without a word in the search's
    /// own. Returns the two runs.
    fn lock_step(
        wfst: &Wfst,
        scores: &AcousticTable,
        gc_every: Option<usize>,
        opts: &DecodeOptions,
    ) -> (Run, Run) {
        let (mut fast, mut oracle) = (Run::new(wfst), Run::new(wfst));
        fast.seed_start(wfst);
        oracle.oracle_seed_start(wfst);
        let closure = |run: &Run| (run.probe.start.closure_arcs, run.probe.start.closure_stored);
        assert_eq!(closure(&fast), closure(&oracle), "start closure");
        let same = |fast: &Run, oracle: &Run, at: &str| {
            assert_eq!(fast.stats().frames, oracle.stats().frames, "{at}: stats");
            let live = |run: &Run| -> Vec<(u32, u32)> {
                run.tokens().iter().map(|&(s, c, _)| (s, c)).collect()
            };
            assert_eq!(live(fast), live(oracle), "{at}: tokens");
            let (a, b) = (&fast.scratch.cur, &oracle.scratch.cur);
            assert_eq!(a.best().to_bits(), b.best().to_bits(), "{at}: best");
            let (a, b) = (fast.partial(), oracle.partial());
            let bits = |p: Option<crate::stream::PartialHypothesis>| {
                p.map(|p| (p.words, p.cost.to_bits(), p.state, p.frames))
            };
            assert_eq!(bits(a), bits(b), "{at}: partial");
            let (a, b) = (fast.scratch.trace_len(), oracle.scratch.trace_len());
            assert!(a <= b, "{at}: trace {a} vs the oracle's {b}");
            let wordless = entries(&fast.scratch.trace)
                .iter()
                .filter(|e| e.word.is_none())
                .count();
            assert_eq!(wordless, 0, "{at}: entries pushed with no word");
        };
        same(&fast, &oracle, "start closure");
        let num_frames = scores.num_frames();
        for frame in 0..num_frames {
            let (row, last) = (scores.frame_row(frame), frame + 1 == num_frames);
            let alive = fast.step(wfst, opts, row, last);
            assert_eq!(alive, oracle.frame(wfst, opts, row, last));
            if let Some(every) = gc_every.filter(|_| alive && !last) {
                fast.compact(every, frame);
                oracle.compact(every, frame);
            }
            same(
                &fast,
                &oracle,
                &format!("frame {frame}, {opts:?}, GC every {gc_every:?}"),
            );
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
    /// against the oracle's (words included) and the reference.
    fn assert_closure_matches_oracle(
        wfst: &Wfst,
        scores: &AcousticTable,
        gc_every: Option<usize>,
        opts: &DecodeOptions,
    ) -> Checked {
        let (fast, oracle) = lock_step(wfst, scores, gc_every, opts);
        let frames = oracle.probe.frames.iter();
        let closure_tokens = oracle.probe.start.closure_stored
            + frames.map(|work| work.closure_stored).sum::<usize>();
        let fast = fast.finish(wfst);
        let oracle = oracle.finish(wfst);
        let what = format!("{opts:?}, GC every {gc_every:?}");
        assert_eq!(fast.words, oracle.words, "{what}: words");
        assert_same_search(&fast, &oracle, &what);
        let reference = ReferenceDecoder::new(opts.clone()).decode(wfst, scores);
        assert_same_search(&fast, &reference, &what);
        Checked {
            fast,
            reference,
            closure_tokens,
        }
    }

    /// The option sets every differential graph is decoded under, each
    /// with the extra GC interval [`lock_step`] runs it at: wide and
    /// tight beams, GC every 1, 2, 3, 4 frames and only the search's own,
    /// and caps from "expand nothing" through binding ones to one no
    /// graph here can reach.
    fn differential_options() -> Vec<(Option<usize>, DecodeOptions)> {
        let tight = DecodeOptions::with_beam(6.0);
        let mut sets = vec![
            (None, DecodeOptions::with_beam(1e9)),
            (Some(1), tight.clone()),
            (Some(2), tight.clone()),
            (Some(4), tight.clone()),
            (None, tight.clone()),
        ];
        // Interpreted, the sets multiply a slow decode: keep two that bind.
        let caps: &[usize] = if cfg!(miri) {
            &[1, 12]
        } else {
            &[0, 1, 5, 12, 40, 1 << 20]
        };
        for &cap in caps {
            let capped = DecodeOptions {
                max_active: Some(cap),
                ..tight.clone()
            };
            sets.push((Some(3), capped));
        }
        let capped = DecodeOptions {
            max_active: Some(12),
            ..DecodeOptions::with_beam(1e9)
        };
        sets.push((None, capped));
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
            for (gc, opts) in differential_options() {
                let checked = assert_closure_matches_oracle(&w, &scores, gc, &opts);
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
                assert_closure_matches_oracle(&w, &scores, None, &opts);
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
                for (gc, opts) in differential_options() {
                    let checked = assert_closure_matches_oracle(&w, scores, gc, &opts);
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

    // --- pending backpointers ------------------------------------------

    /// The lazy trace against the oracle's every-token trace under every
    /// GC interval from each frame to never, on a float graph with a
    /// third of its states owning epsilon arcs and on the tie mazes, beam
    /// only and capped: [`lock_step`] holds the best hypothesis to the
    /// oracle's after every frame, [`assert_closure_matches_oracle`] the
    /// finished words.
    #[test]
    fn pending_backpointers_match_the_every_token_trace_under_every_gc_interval() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let intervals = [Some(1), Some(2), Some(3), None];
        let options = |beam: f32| {
            intervals.into_iter().flat_map(move |interval| {
                [None, Some(12)].map(|max_active| {
                    let opts = DecodeOptions {
                        max_active,
                        ..DecodeOptions::with_beam(beam)
                    };
                    (interval, opts)
                })
            })
        };
        let (states, frames) = if cfg!(miri) { (150, 6) } else { (2_000, 40) };
        let w = SynthWfst::generate(&SynthConfig {
            epsilon_fraction: 0.3,
            ..SynthConfig::with_states(states).with_seed(7)
        })
        .unwrap();
        let scores = AcousticTable::random(frames, w.num_phones() as usize, (0.5, 4.0), 17);
        for (gc, opts) in options(6.0) {
            let checked = assert_closure_matches_oracle(&w, &scores, gc, &opts);
            assert_eq!(checked.fast.words, checked.reference.words, "{opts:?}");
        }
        let maze_frames = if cfg!(miri) { 6 } else { 24 };
        let grid = AcousticTable::from_fn(maze_frames, 4, |f, p| 0.5 + 0.5 * ((f + p) % 2) as f32);
        for seed in 0..if cfg!(miri) { 1 } else { 4 } {
            let w = epsilon_maze(seed);
            for (gc, opts) in options(1e9) {
                assert_closure_matches_oracle(&w, &grid, gc, &opts);
            }
        }
    }

    /// Entries of `scratch`'s trace its live tokens' roots reach, and
    /// those every live token reaches (the chain all live paths share):
    /// a mark pass that counts, per entry, the tokens whose chain runs
    /// through it.
    fn reached_and_shared(scratch: &DecodeScratch) -> (usize, usize) {
        let trace = &scratch.trace;
        let mut through = vec![0usize; trace.len()];
        for token in scratch.cur.tokens() {
            let root = token.payload.root();
            if root != TraceId::ROOT {
                through[root.0 as usize] += 1;
            }
        }
        // Predecessors precede their successors: one backward pass.
        for id in (0..trace.len()).rev() {
            let prev = trace.entry(TraceId(id as u32)).prev;
            if prev != TraceId::ROOT {
                through[prev.0 as usize] += through[id];
            }
        }
        let live = scratch.cur.len();
        let reached = through.iter().filter(|&&n| n > 0).count();
        (reached, through.iter().filter(|&&n| n == live).count())
    }

    /// A long capped utterance under the benchmark's beam, cap and GC.
    /// Right after each GC the trace holds exactly the entries the live
    /// tokens' roots reach; between two GCs it grows by the frames'
    /// entries and nothing else; and every frame pushes at most one entry
    /// per token it expanded (the frontier, and at most every closure
    /// pop).
    ///
    /// What the trace may gain over the utterance is the chain every live
    /// path shares: the settled best path's words, which a one-best
    /// backtrack keeps until the end (about an entry every two frames
    /// here). The rest — what lies beyond that chain at the last GC —
    /// peaks over frames 1000..2000 within 10 % of its peak over the
    /// first 200.
    #[test]
    #[cfg_attr(miri, ignore = "a synthetic graph is too slow interpreted")]
    fn a_long_capped_decode_keeps_its_trace_bounded() {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        const FRAMES: usize = 2_000;
        let w = SynthWfst::generate(&SynthConfig {
            epsilon_fraction: 0.3,
            ..SynthConfig::with_states(10_000).with_seed(4)
        })
        .unwrap();
        let scores = AcousticTable::random(FRAMES, w.num_phones() as usize, (0.5, 4.0), 19);
        let opts = DecodeOptions {
            max_active: Some(1_000),
            ..DecodeOptions::with_beam(40.0)
        };
        let mut run = Run::new(&w);
        run.seed_start(&w);
        // What the last GC kept, the shared chain among it, and the
        // entries pushed since.
        let (mut kept, mut shared, mut since) = (run.probe.start.trace_len, 0, 0);
        let mut beyond_shared = Vec::with_capacity(FRAMES);
        for frame in 0..FRAMES {
            let last = frame + 1 == FRAMES;
            assert!(run.step(&w, &opts, scores.frame_row(frame), last));
            let work = run.probe.frames[frame];
            let (entries, popped) = (work.entries, work.closure_popped);
            assert!(
                entries <= work.expanded + popped,
                "frame {frame}: {entries} entries, {} expanded, {popped} popped",
                work.expanded
            );
            since += entries;
            assert_eq!(work.trace_len, kept + since, "frame {frame}");
            beyond_shared.push(work.trace_len - shared);
            if !last && (frame + 1).is_multiple_of(LATTICE_GC_INTERVAL) {
                (kept, shared) = reached_and_shared(&run.scratch);
                assert_eq!(run.scratch.trace_len(), kept, "frame {frame}: GC");
                since = 0;
            }
        }
        let peak = |range: std::ops::Range<usize>| beyond_shared[range].iter().max().copied();
        let (early, late) = (peak(0..200).unwrap(), peak(1_000..FRAMES).unwrap());
        assert!(
            late as f64 <= early as f64 * 1.1,
            "peak {late} beyond the shared chain over frames 1000..2000 vs {early} over 0..200"
        );
        let frames = &run.probe.frames;
        let sum = |count: fn(&FrameWork) -> usize| frames.iter().map(count).sum::<usize>();
        let (entries, expanded) = (sum(|w| w.entries), sum(|w| w.expanded));
        let stored = sum(|w| w.relax_stored + w.closure_stored);
        assert!(entries < stored, "{entries} entries");
        assert!(
            expanded > FRAMES * 900,
            "the cap binds: {expanded} expanded"
        );
        assert!(run.finish(&w).cost.is_finite());
    }

    // --- stage split ---------------------------------------------------

    /// Where a search frame goes (`just stages`): decodes the benchmark's
    /// two search shapes and their beam-only counterparts through
    /// [`search_frame`] with a [`RecordingProbe`] and prints the best of
    /// `ROUNDS` passes (the first is a warm-up) over eight 100-frame
    /// tables on a warm scratch: each stage's time from the probe's marks,
    /// and beside their sum a wall clock around the `search_frame` calls.
    /// Then what stepping 16 decodes round-robin costs
    /// ([`interleave_split`]).
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
            let tables: Vec<AcousticTable> = (0..TABLES)
                .map(|seed| AcousticTable::random(FRAMES, 2_001, (0.5, 4.0), seed))
                .collect();
            let mut scratch = DecodeScratch::new(w.num_states());
            let mut best: Option<(RecordingProbe, Duration)> = None;
            for round in 0..=ROUNDS {
                let (mut probe, mut wall) = (RecordingProbe::default(), Duration::ZERO);
                for scores in &tables {
                    seed_start(&w, &mut scratch, &mut probe);
                    for frame in 0..FRAMES {
                        let (row, last) = (scores.frame_row(frame), frame + 1 == FRAMES);
                        let clock = Instant::now();
                        let alive = search_frame(&w, &opts, &mut scratch, &mut probe, row, last);
                        wall += clock.elapsed();
                        if !alive {
                            break;
                        }
                    }
                }
                let total = probe.total_time();
                if round > 0 && best.as_ref().is_none_or(|(b, _)| total < b.total_time()) {
                    best = Some((probe, wall));
                }
            }
            let (best, wall) = best.unwrap();
            let frames = best.frames.len();
            let per_frame = |count: fn(&FrameWork) -> usize| {
                best.frames.iter().map(count).sum::<usize>() as f64 / frames as f64
            };
            let us = |d: Duration| d.as_secs_f64() * 1e6 / frames as f64;
            let time = |stage| us(best.time(stage));
            println!(
                "{states} states, beam {beam}, max_active {max_active:?}: \
                 {frames} frames, best of {ROUNDS} rounds, us per frame"
            );
            println!(
                "  frontier {:7.1}   live {:.1} -> expanded {:.1}",
                time(Stage::Frontier),
                per_frame(|w| w.live),
                per_frame(|w| w.expanded)
            );
            println!(
                "  relax    {:7.1}   arcs {:.1}, tokens {:.1}",
                time(Stage::Relax),
                per_frame(|w| w.relax_arcs),
                per_frame(|w| w.relax_stored)
            );
            println!("  cutoff   {:7.1}", time(Stage::Cutoff));
            println!(
                "  closure  {:7.1}   arcs {:.1}, tokens {:.1}",
                time(Stage::Closure),
                per_frame(|w| w.closure_arcs),
                per_frame(|w| w.closure_stored)
            );
            println!("  gc       {:7.1}", time(Stage::Gc));
            let (sum, wall) = (us(best.total_time()), us(wall));
            println!(
                "  frame    {sum:7.1}   wall around search_frame {wall:.1} ({:+.1} %)",
                100.0 * (sum - wall) / wall
            );
            // Entries and the peaks are the same every round.
            let peak = |count: fn(&FrameWork) -> usize| best.frames.iter().map(count).max();
            let kib = |bytes: usize| bytes as f64 / 1024.0;
            let trace_peak = peak(|w| w.trace_len).unwrap_or(0);
            println!(
                "  trace    entries {:.1} per frame (tokens stored {:.1}), \
                 peak {trace_peak} entries ({:.1} KiB)",
                per_frame(|w| w.entries),
                per_frame(|w| w.relax_stored + w.closure_stored),
                kib(trace_peak * std::mem::size_of::<crate::lattice::TraceEntry>())
            );
            let list_peak = peak(|w| w.live).unwrap_or(0);
            println!(
                "  list     peak {list_peak} live tokens ({:.1} KiB)",
                kib(list_peak * std::mem::size_of::<crate::token_table::Token<Pending>>())
            );
        }
        interleave_split();
    }

    // --- one index per thread, many decodes ---------------------------

    /// `n` decodes of `scores` (one table each, each [`Run`] through its
    /// own probe) stepped on this thread through its shared index, every
    /// decode one frame in turn when
    /// `round_robin`, else each to its end before the next starts, and
    /// finished with the last row. Returns the results with their traces
    /// and the wall time of the steps alone.
    fn step_decodes(
        wfst: &Wfst,
        opts: &DecodeOptions,
        scores: &[AcousticTable],
        round_robin: bool,
    ) -> (Vec<Traced>, Duration) {
        let mut runs: Vec<Run> = scores.iter().map(|_| Run::new(wfst)).collect();
        for run in &mut runs {
            run.seed_start(wfst);
        }
        let frames = scores
            .iter()
            .map(AcousticTable::num_frames)
            .max()
            .unwrap_or(0);
        let step = |run: &mut Run, scores: &AcousticTable, frame: usize| {
            if frame + 1 < scores.num_frames() {
                run.step(wfst, opts, scores.frame_row(frame), false);
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
                run.step(wfst, opts, scores.frame_row(scores.num_frames() - 1), true);
                (run.finish(wfst), entries(&run.scratch.trace))
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
        let mut decoded: [Vec<Traced>; 2] = Default::default();
        for _ in 0..=ROUNDS {
            for round_robin in [false, true] {
                let (results, wall) = step_decodes(&w, &opts, &tables, round_robin);
                let us = wall.as_secs_f64() * 1e6 / steps;
                best[usize::from(round_robin)] = best[usize::from(round_robin)].min(us);
                decoded[usize::from(round_robin)] = results;
            }
        }
        for ((a, a_trace), (b, b_trace)) in decoded[0].iter().zip(&decoded[1]) {
            assert_eq!(a.words, b.words);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a_trace, b_trace);
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
        // One lattice GC per decode, at frame 31: after the wrap below.
        let tables: Vec<AcousticTable> = (5..7)
            .map(|seed| AcousticTable::random(60, w.num_phones() as usize, (0.5, 4.0), seed))
            .collect();
        let opts = DecodeOptions::with_beam(6.0);
        // A scratch held throughout keeps this thread's index alive.
        let _held = DecodeScratch::new(w.num_states());
        let d = ViterbiDecoder::new(opts.clone());
        let fresh: Vec<Traced> = (tables.iter())
            .map(|scores| decode_traced(&d, &w, scores))
            .collect();
        for (fresh, _) in &fresh {
            assert_eq!(fresh.stats.frames.len(), 60, "the beam must not empty");
        }

        // The fresh decodes left small tags in the slots these utterances
        // reach: exactly what a wrap that forgot to reset them would
        // bring back to life.
        FRAME.with_borrow_mut(|frame| frame.index.seed_epoch(u32::MAX - 7));
        let (wrapped, _) = step_decodes(&w, &opts, &tables, true);
        assert!(FRAME.with_borrow(|frame| frame.index.epoch()) < 128);

        for ((wrapped, wrapped_trace), (fresh, fresh_trace)) in wrapped.iter().zip(&fresh) {
            assert_eq!(wrapped.words, fresh.words);
            assert_eq!(wrapped.cost.to_bits(), fresh.cost.to_bits());
            assert_eq!(wrapped.best_state, fresh.best_state);
            assert_eq!(wrapped.reached_final, fresh.reached_final);
            assert_eq!(wrapped.stats.frames, fresh.stats.frames);
            assert_eq!(wrapped_trace, fresh_trace);
        }
    }
}
