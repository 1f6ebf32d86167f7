//! Incremental (streaming) decoding: the batch frame loop of
//! [`crate::search::ViterbiDecoder`], cut open so frames can arrive one at
//! a time, plus the one score→search handoff every streaming consumer
//! goes through.
//!
//! The paper's full system pipelines its stages: the GPU scores acoustic
//! batch *i + 1* while the accelerator searches batch *i*, handing score
//! rows over through the double-buffered Acoustic Likelihood Buffer
//! (Section VI). The two types here are the two sides of that handoff:
//!
//! * [`StreamingDecode`] is the search. It consumes score rows as they
//!   are produced and keeps the full decode state (live tokens, trace,
//!   statistics) alive between rows, so hypotheses can be read out
//!   mid-utterance. [`StreamingDecode::step`] advances one *non-final*
//!   frame; [`StreamingDecode::finish`] takes the utterance's last row.
//! * [`AlbQueue`] is the buffer, and it owns the **hold-back protocol**.
//!
//! # The hold-back protocol
//!
//! The batch decoder treats the final frame specially (prune-on-insert
//! off, unbounded epsilon-closure threshold) so end-of-utterance
//! final-state selection sees every token. A stream does not know which
//! frame is last, so the rule is: *step every row that cannot be last,
//! hold the newest back for `finish`*. It is spelled exactly twice, both
//! on [`AlbQueue`]:
//!
//! * [`AlbQueue::advance`] runs when a block of `fresh >= 1` new rows is
//!   about to exist. Its existence proves no already-queued row is the
//!   last, so it steps **every** queued row, oldest first, while one
//!   call of the caller's `fill(block)` writes the fresh rows into the
//!   back buffer: on a [`WorkerPool`] the two run as the chunks of one
//!   fork-join (the Section VI overlap: search on chunk 0, `fill` on
//!   chunk 1), so the search cannot read the block being filled;
//!   without one, `fill` runs first on the calling thread. Then, on
//!   either path, the calling thread steps the fresh rows but the
//!   newest and the buffers swap. After every call exactly one row — the newest —
//!   stays queued, so the search trails the producer by one row.
//! * [`AlbQueue::finish`] hands the queued row, if any, to
//!   [`StreamingDecode::finish`] for the last-frame treatment.
//!
//! Where a block comes from — a copy of a caller's pre-scored row, one
//! block acoustic forward pass over the frames gathered since the last
//! call (inline or overlapped), a row scattered back from a
//! cross-session batch — is entirely the `fill` closure's business; the
//! runtime's sessions are the composer and pass a different `fill` per
//! source.
//!
//! # Byte-identical to the batch decoder
//!
//! Row order into the search and per-row arithmetic never change, so
//! feeding `n` rows through any sequence of `advance` calls (any `fresh`
//! split, with or without a pool, under any task schedule) and then
//! `finish` produces a [`DecodeResult`] that is byte-identical — `words`,
//! `cost`, `best_state`, `reached_final`, and the trace it leaves in the
//! scratch — to `ViterbiDecoder::decode` over the same `n` rows, which
//! is how the runtime's sessions pin their correctness. The queue is
//! exactly two buffers that swap, so once both have grown to the largest
//! block the handoff allocates nothing.

use crate::lattice::Pending;
use crate::pool::WorkerPool;
use crate::search::{
    finish as finish_decode, search_frame, seed_start, DecodeOptions, DecodeResult, DecodeScratch,
    DecodeStats,
};
use crate::token_table::Token;
use asr_wfst::{StateId, Wfst, WordId};
use std::ops::Deref;
use std::sync::{Mutex, PoisonError};

/// A mid-utterance best hypothesis, read without disturbing the search.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialHypothesis {
    /// Words on the current best path, in utterance order.
    pub words: Vec<WordId>,
    /// Path cost of the current best token (no final cost applied).
    pub cost: f32,
    /// State of the current best token.
    pub state: StateId,
    /// Frames consumed so far.
    pub frames: usize,
}

/// An in-flight incremental decode over a WFST handle.
///
/// Generic over how the graph is held: `G` is any [`Deref`] to a
/// [`Wfst`] — a plain `&Wfst` for scoped streams, or an
/// `Arc<Wfst>` for **owned** streams with no borrowed lifetime at all,
/// which is what lets the runtime's sessions be `Send + 'static` and
/// migrate between threads mid-utterance.
///
/// Create one per utterance with a (pooled) [`DecodeScratch`], feed score
/// rows through an [`AlbQueue`] (or, holding the last row back yourself,
/// through [`StreamingDecode::step`]), and recover the scratch from
/// [`StreamingDecode::finish`] for the next utterance.
#[derive(Debug)]
pub struct StreamingDecode<G: Deref<Target = Wfst>> {
    wfst: G,
    opts: DecodeOptions,
    scratch: DecodeScratch,
    stats: DecodeStats,
    alive: bool,
}

impl<G: Deref<Target = Wfst>> StreamingDecode<G> {
    /// Starts a decode: seeds the start state and runs the initial
    /// epsilon closure, exactly like the batch decoder's preamble. The
    /// decode's trace lives in `scratch`, which it empties.
    pub fn new(wfst: G, opts: DecodeOptions, mut scratch: DecodeScratch) -> Self {
        let mut stats = DecodeStats::default();
        seed_start(&wfst, &mut scratch, &mut stats);
        Self {
            wfst,
            opts,
            scratch,
            stats,
            alive: true,
        }
    }

    /// Frames consumed so far.
    pub fn frames(&self) -> usize {
        self.scratch.frames
    }

    /// The search options the decode was constructed with; every frame
    /// runs under them.
    pub fn options(&self) -> &DecodeOptions {
        &self.opts
    }

    /// Consumes one frame's score row (`row[p]` = acoustic cost of phone
    /// `p`, `row[0]` the unread epsilon column), treating it as a
    /// *non-final* frame.
    ///
    /// A row stepped as non-final leaves the tokens pruned for the *next*
    /// frame — the beam applied on insert, and under `max_active` no
    /// epsilon closure past the cap's cutoff — not for final-state
    /// selection: a final state only such a pruned token reaches is not
    /// there. [`StreamingDecode::partial`] is unaffected (the cheapest
    /// token always survives), but the utterance's last row must be held
    /// back for [`StreamingDecode::finish`], which is what [`AlbQueue`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the WFST references a phone label at or beyond
    /// `row.len()`.
    pub fn step(&mut self, row: &[f32]) {
        self.consume(row, false);
    }

    /// The current best hypothesis: the cheapest live token (ties broken
    /// toward the lowest state id), backtracked through the trace. A
    /// fresh stream already has live tokens (the start state's epsilon
    /// closure), so this returns `Some` with empty words and `frames: 0`
    /// before any row is consumed; `None` only once the beam has killed
    /// every path.
    pub fn partial(&self) -> Option<PartialHypothesis> {
        if !self.alive {
            return None;
        }
        best_hypothesis(&self.scratch)
    }

    /// Ends the utterance: consumes the held-back final row (if any) with
    /// the batch decoder's last-frame semantics, runs final-state
    /// selection, and hands the scratch back for reuse.
    pub fn finish(mut self, last_row: Option<&[f32]>) -> (DecodeResult, DecodeScratch) {
        if let Some(row) = last_row {
            self.consume(row, true);
        }
        let Self {
            wfst,
            scratch,
            stats,
            ..
        } = self;
        let result = finish_decode(&wfst, &scratch, stats);
        (result, scratch)
    }

    /// Abandons the decode, recovering the scratch (used by sessions
    /// dropped without finalizing).
    pub fn into_scratch(self) -> DecodeScratch {
        self.scratch
    }

    /// One iteration of the batch decoder's frame loop.
    fn consume(&mut self, row: &[f32], last_frame: bool) {
        if !self.alive {
            return;
        }
        self.alive = search_frame(
            &self.wfst,
            &self.opts,
            &mut self.scratch,
            &mut self.stats,
            row,
            last_frame,
        );
    }
}

/// The cheapest live token of the decode in `scratch` (ties broken
/// toward the lowest state id), backtracked through its trace; `None`
/// when no token is live.
pub(crate) fn best_hypothesis(scratch: &DecodeScratch) -> Option<PartialHypothesis> {
    let mut best: Option<Token<Pending>> = None;
    for &token in scratch.cur.tokens() {
        let better = best.is_none_or(|best| {
            token.cost < best.cost || (token.cost == best.cost && token.state < best.state)
        });
        if better {
            best = Some(token);
        }
    }
    best.map(|best| PartialHypothesis {
        words: best.payload.backtrack(&scratch.trace),
        cost: best.cost,
        state: StateId(best.state),
        frames: scratch.frames,
    })
}

/// The software Acoustic Likelihood Buffer: the paper's double buffer,
/// and the single owner of the hold-back protocol (see the module docs).
///
/// The paper's ALB holds two *multi-frame* score batches — the scorer
/// fills one while the search reads the other, swapped at the batch
/// edge — precisely to amortize the score/search handoff; this is that
/// shape in software. Rows only ever enter through [`AlbQueue::advance`]
/// and leave through it or [`AlbQueue::finish`], so no caller can step
/// the row that might turn out to be the utterance's last.
#[derive(Debug, Default)]
pub struct AlbQueue {
    /// The block the search reads, packed oldest first at `stride`
    /// floats a row: its first `stepped` rows are consumed, the newest
    /// queued.
    front: Vec<f32>,
    /// The block the scorer fills during an `advance`; it becomes
    /// `front` when the call returns.
    back: Vec<f32>,
    /// Row stride of `front`: the row length its block was filled at
    /// (each block remembers its own, so successive advances may differ
    /// in width), counted as 1 for zero-width rows so they still queue.
    stride: usize,
    /// Rows of `front` already stepped: all but the newest.
    stepped: usize,
}

impl AlbQueue {
    /// An empty queue; the two buffers grow on demand and then swap
    /// forever.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rows of a block, oldest first. Borrows the block, not `self`,
    /// so `advance` can fill `back` while the search reads `front`.
    fn rows(block: &[f32], stride: usize) -> std::slice::ChunksExact<'_, f32> {
        // `max(1)`: a fresh queue has stride 0, and `chunks_exact(0)`
        // panics even over an empty slice.
        block.chunks_exact(stride.max(1))
    }

    /// Admits a block of `fresh` new rows of `row_len` costs each and
    /// steps the search over every row queued before them and every
    /// fresh row but the newest, which alone stays queued.
    ///
    /// `fill(block)` is called **exactly once** and must write the fresh
    /// rows, packed in frame order, into `block`, which arrives as
    /// exactly `fresh * row_len` floats of stale contents. With a
    /// `pool`, the search over the queued rows runs as chunk 0 and
    /// `fill` as chunk 1 of one two-chunk [`WorkerPool::fork_join`], so
    /// `fill` runs concurrently with a search that reads only rows
    /// queued by earlier calls. Without one, `fill` runs first and the
    /// queued rows are stepped after it. Either way the calling thread
    /// then steps the fresh rows but the newest, so rows enter the
    /// search in the same order and the result is the same bytes. The
    /// buffers then swap: the block just filled is what the next call
    /// reads.
    ///
    /// `fresh == 0` is a no-op (`fill` is not called): with no newer
    /// row in sight, the newest queued row may be the utterance's last
    /// and must not be stepped.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `fill`, and panics like
    /// [`StreamingDecode::step`] if a queued row is shorter than the
    /// graph's phone-label range.
    pub fn advance<G: Deref<Target = Wfst> + Send>(
        &mut self,
        decode: &mut StreamingDecode<G>,
        pool: Option<&WorkerPool>,
        row_len: usize,
        fresh: usize,
        fill: &mut (dyn FnMut(&mut [f32]) + Send),
    ) {
        if fresh == 0 {
            return;
        }
        let stride = row_len.max(1);
        self.back.resize(fresh * stride, 0.0);
        let queued = Self::rows(&self.front, self.stride).skip(self.stepped);
        match pool {
            Some(pool) => {
                // Each half's state sits behind a mutex only so the two
                // chunks can reach it through the shared closure a
                // fork-join takes; chunk 0 alone locks the search, chunk
                // 1 the block.
                let search = Mutex::new(&mut *decode);
                let block = Mutex::new((fill, &mut self.back[..fresh * row_len]));
                pool.fork_join(2, &|chunk: usize| {
                    if chunk == 0 {
                        let mut decode = search.lock().unwrap_or_else(PoisonError::into_inner);
                        for row in queued.clone() {
                            decode.step(row);
                        }
                    } else {
                        let mut block = block.lock().unwrap_or_else(PoisonError::into_inner);
                        let (fill, rows) = &mut *block;
                        fill(rows);
                    }
                });
            }
            None => {
                fill(&mut self.back[..fresh * row_len]);
                for row in queued {
                    decode.step(row);
                }
            }
        }
        for row in Self::rows(&self.back, stride).take(fresh - 1) {
            decode.step(row);
        }
        std::mem::swap(&mut self.front, &mut self.back);
        self.stride = stride;
        self.stepped = fresh - 1;
    }

    /// Ends the utterance: gives the one queued row, if any, the batch
    /// decoder's last-frame treatment through
    /// [`StreamingDecode::finish`], and leaves the queue empty with both
    /// buffers kept for reuse.
    pub fn finish<G: Deref<Target = Wfst>>(
        &mut self,
        decode: StreamingDecode<G>,
    ) -> (DecodeResult, DecodeScratch) {
        let last = Self::rows(&self.front, self.stride).nth(self.stepped);
        let out = decode.finish(last);
        self.front.clear();
        self.stepped = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::ViterbiDecoder;
    use asr_acoustic::scores::AcousticTable;
    use asr_wfst::synth::{SynthConfig, SynthWfst};
    use asr_wfst::{ArcId, StateEntry};

    /// Number of scored rows held back from the search.
    fn ready_len(q: &AlbQueue) -> usize {
        AlbQueue::rows(&q.front, q.stride).len() - q.stepped
    }

    fn workload(states: usize, frames: usize, seed: u64) -> (Wfst, AcousticTable) {
        let w = SynthWfst::generate(&SynthConfig::with_states(states)).unwrap();
        let scores = AcousticTable::random(frames, w.num_phones() as usize, (0.5, 4.0), seed);
        (w, scores)
    }

    fn stream_decode(wfst: &Wfst, scores: &AcousticTable, opts: DecodeOptions) -> DecodeResult {
        stream_decode_traced(wfst, scores, opts).0
    }

    /// [`stream_decode`], and the length of the trace it left.
    fn stream_decode_traced(
        wfst: &Wfst,
        scores: &AcousticTable,
        opts: DecodeOptions,
    ) -> (DecodeResult, usize) {
        let mut d = StreamingDecode::new(wfst, opts, DecodeScratch::new(wfst.num_states()));
        let n = scores.num_frames();
        for frame in 0..n.saturating_sub(1) {
            d.step(scores.frame_row(frame));
        }
        let last = if n > 0 {
            Some(scores.frame_row(n - 1))
        } else {
            None
        };
        let (result, scratch) = d.finish(last);
        (result, scratch.trace_len())
    }

    /// The batch decode of `scores`, and the length of the trace it left.
    fn batch_decode_traced(
        wfst: &Wfst,
        scores: &AcousticTable,
        opts: DecodeOptions,
    ) -> (DecodeResult, usize) {
        let mut scratch = DecodeScratch::new(wfst.num_states());
        let result = ViterbiDecoder::new(opts).decode_with(&mut scratch, wfst, scores);
        (result, scratch.trace_len())
    }

    #[test]
    fn streaming_matches_batch_byte_for_byte() {
        let (w, scores) = workload(3_000, 40, 29);
        let opts = DecodeOptions::with_beam(6.0);
        let (batch, batch_trace) = batch_decode_traced(&w, &scores, opts.clone());
        let (streamed, streamed_trace) = stream_decode_traced(&w, &scores, opts);
        assert_eq!(streamed.cost.to_bits(), batch.cost.to_bits());
        assert_eq!(streamed.words, batch.words);
        assert_eq!(streamed.best_state, batch.best_state);
        assert_eq!(streamed.reached_final, batch.reached_final);
        assert_eq!(streamed_trace, batch_trace);
        assert_eq!(streamed.stats.frames.len(), batch.stats.frames.len());
    }

    #[test]
    fn single_frame_utterance_matches_batch() {
        let (w, scores) = workload(500, 1, 31);
        let opts = DecodeOptions::with_beam(8.0);
        let batch = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let streamed = stream_decode(&w, &scores, opts);
        assert_eq!(streamed.cost.to_bits(), batch.cost.to_bits());
        assert_eq!(streamed.words, batch.words);
    }

    #[test]
    fn empty_utterance_matches_batch() {
        let (w, _) = workload(500, 1, 37);
        let empty = AcousticTable::from_fn(0, w.num_phones() as usize, |_, _| 0.0);
        let opts = DecodeOptions::with_beam(8.0);
        let batch = ViterbiDecoder::new(opts.clone()).decode(&w, &empty);
        let streamed = stream_decode(&w, &empty, opts);
        assert_eq!(streamed.cost, batch.cost);
        assert_eq!(streamed.words, batch.words);
        assert_eq!(streamed.best_state, batch.best_state);
    }

    #[test]
    fn partials_become_available_and_track_frames() {
        let (w, scores) = workload(2_000, 30, 41);
        let mut d = StreamingDecode::new(
            &w,
            DecodeOptions::with_beam(6.0),
            DecodeScratch::new(w.num_states()),
        );
        for frame in 0..scores.num_frames() - 1 {
            d.step(scores.frame_row(frame));
            let p = d.partial().expect("live decode has a best token");
            assert_eq!(p.frames, frame + 1);
            assert!(p.cost.is_finite());
        }
        let (result, _) = d.finish(Some(scores.frame_row(scores.num_frames() - 1)));
        assert!(result.cost.is_finite());
    }

    #[test]
    fn scratch_recycles_across_streamed_utterances() {
        let (w, scores) = workload(2_000, 25, 43);
        let opts = DecodeOptions::with_beam(6.0);
        let batch = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let mut scratch = DecodeScratch::new(w.num_states());
        for _ in 0..3 {
            let mut d = StreamingDecode::new(&w, opts.clone(), scratch);
            for frame in 0..scores.num_frames() - 1 {
                d.step(scores.frame_row(frame));
            }
            let (result, recovered) = d.finish(Some(scores.frame_row(scores.num_frames() - 1)));
            assert_eq!(result.cost.to_bits(), batch.cost.to_bits());
            assert_eq!(result.words, batch.words);
            scratch = recovered;
        }
    }

    /// Feeds `scores` through an [`AlbQueue`] as `advance` calls of the
    /// given `fresh` sizes (the last one clipped to the rows that are
    /// left), checking after every call that `fill` ran exactly once
    /// over exactly the fresh block and that the search has consumed
    /// every row but the newest, with or without a pool, then finishes.
    /// Returns the result and the length of the trace it left.
    fn alb_decode(
        wfst: &Wfst,
        scores: &AcousticTable,
        opts: DecodeOptions,
        pool: Option<&WorkerPool>,
        mut split: impl FnMut() -> usize,
    ) -> (DecodeResult, usize) {
        let mut d = StreamingDecode::new(wfst, opts, DecodeScratch::new(wfst.num_states()));
        let mut q = AlbQueue::new();
        let row_len = wfst.num_phones() as usize;
        let mut pushed = 0;
        while pushed < scores.num_frames() {
            let fresh = split().min(scores.num_frames() - pushed);
            let mut fills = Vec::new();
            q.advance(&mut d, pool, row_len, fresh, &mut |block| {
                fills.push(block.len());
                for (i, row) in block.chunks_exact_mut(row_len).enumerate() {
                    row.copy_from_slice(scores.frame_row(pushed + i));
                }
            });
            assert_eq!(fills, [fresh * row_len], "one fill, over the whole block");
            assert_eq!(
                d.frames(),
                pushed + fresh - 1,
                "the newest row is never stepped"
            );
            assert_eq!(ready_len(&q), 1, "exactly the newest row stays queued");
            pushed += fresh;
        }
        let (result, scratch) = q.finish(d);
        (result, scratch.trace_len())
    }

    /// Results and trace lengths equal.
    fn assert_same_bytes(got: &(DecodeResult, usize), want: &(DecodeResult, usize), what: &str) {
        let ((got, got_trace), (want, want_trace)) = (got, want);
        assert_eq!(got.words, want.words, "{what}");
        assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}");
        assert_eq!(got.best_state, want.best_state, "{what}");
        assert_eq!(got.reached_final, want.reached_final, "{what}");
        assert_eq!(got_trace, want_trace, "{what}");
    }

    #[test]
    fn advance_matches_batch_for_every_row_count_split_and_pool() {
        let w = SynthWfst::generate(&SynthConfig::with_states(200)).unwrap();
        let opts = DecodeOptions::with_beam(6.0);
        let pool = WorkerPool::new(2);
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for rows in 0..=40usize {
            let scores = AcousticTable::random(rows, w.num_phones() as usize, (0.5, 4.0), 61);
            let batch = batch_decode_traced(&w, &scores, opts.clone());
            for pool in [None, Some(&pool)] {
                let split = || {
                    // xorshift64: a different 1..=5 split per (rows, pool).
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    1 + (rng % 5) as usize
                };
                let streamed = alb_decode(&w, &scores, opts.clone(), pool, split);
                let what = format!("{rows} rows, pool: {}", pool.is_some());
                assert_same_bytes(&streamed, &batch, &what);
            }
        }
    }

    #[test]
    fn alb_handoff_holds_back_exactly_one_row() {
        // One row per advance is the classic double buffer: the search
        // trails the producer by exactly the newest row, which only
        // `finish` may consume (`alb_decode` asserts the lag per call).
        let (w, scores) = workload(500, 12, 67);
        let opts = DecodeOptions::with_beam(8.0);
        let batch = batch_decode_traced(&w, &scores, opts.clone());
        let streamed = alb_decode(&w, &scores, opts.clone(), None, || 1);
        assert_same_bytes(&streamed, &batch, "one row per advance");

        // Without a fresh row in sight the newest queued row may be the
        // last one, so a zero-row advance must not step it.
        let mut d = StreamingDecode::new(&w, opts.clone(), DecodeScratch::new(w.num_states()));
        let mut q = AlbQueue::new();
        let mut copy = |row: &mut [f32]| row.copy_from_slice(scores.frame_row(0));
        q.advance(&mut d, None, scores.num_phones(), 1, &mut copy);
        q.advance(&mut d, None, scores.num_phones(), 0, &mut copy);
        assert_eq!((d.frames(), ready_len(&q)), (0, 1));

        // Zero-width rows carry no costs but still count as rows: on a
        // pool, as without one, all but the newest of a fresh block step
        // (over a one-state graph without arcs, which reads no cost).
        let lone = StateEntry {
            first_arc: ArcId(0),
            num_emitting: 0,
            num_epsilon: 0,
        };
        let lone = Wfst::from_parts(vec![lone], Vec::new(), StateId(0), vec![0.0]).unwrap();
        let mut d = StreamingDecode::new(&lone, opts, DecodeScratch::new(1));
        let pool = WorkerPool::new(2);
        let mut q = AlbQueue::new();
        q.advance(&mut d, Some(&pool), 0, 2, &mut |block| {
            assert!(block.is_empty())
        });
        assert_eq!((d.frames(), ready_len(&q)), (1, 1));
    }

    #[test]
    fn advance_leaves_exactly_one_row_queued_for_every_split() {
        // One hold-back rule: after every call, whatever its block height
        // and whether a pool runs the fill, the newest row alone stays
        // queued (`alb_decode` asserts it per call) and `finish` gives it
        // the last-frame treatment.
        let (w, scores) = workload(500, 17, 73);
        let opts = DecodeOptions::with_beam(8.0);
        let batch = batch_decode_traced(&w, &scores, opts.clone());
        let pool = WorkerPool::new(2);
        for fresh in 1..=5 {
            for pool in [None, Some(&pool)] {
                let streamed = alb_decode(&w, &scores, opts.clone(), pool, || fresh);
                let what = format!("blocks of {fresh}, pool: {}", pool.is_some());
                assert_same_bytes(&streamed, &batch, &what);
            }
        }
    }

    #[test]
    fn tight_beam_still_matches_batch() {
        // A zero-width beam exercises the prune-on-insert and closure
        // thresholds at their most aggressive; the stream must follow the
        // batch decoder through every pruning decision (and through the
        // early exit, should the beam ever kill every path).
        let (w, scores) = workload(300, 10, 47);
        let opts = DecodeOptions::with_beam(0.0);
        let batch = ViterbiDecoder::new(opts.clone()).decode(&w, &scores);
        let streamed = stream_decode(&w, &scores, opts);
        assert_eq!(streamed.cost.to_bits(), batch.cost.to_bits());
        assert_eq!(streamed.words, batch.words);
        assert_eq!(streamed.stats.frames.len(), batch.stats.frames.len());
    }

    #[test]
    fn alb_queue_recycles_buffers_and_keeps_fifo_order() {
        let (w, _) = workload(300, 1, 71);
        let row_len = w.num_phones() as usize;
        let mut d = StreamingDecode::new(
            &w,
            DecodeOptions::with_beam(8.0),
            DecodeScratch::new(w.num_states()),
        );
        let fill_with = |first: f32| {
            move |block: &mut [f32]| {
                for (i, row) in block.chunks_exact_mut(row_len).enumerate() {
                    row.fill(first + i as f32);
                }
            }
        };
        // Three rows in one advance sit in the block in index order.
        let mut q = AlbQueue::new();
        q.advance(&mut d, None, row_len, 3, &mut fill_with(1.0));
        let order: Vec<f32> = AlbQueue::rows(&q.front, q.stride)
            .map(|row| row[0])
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0], "FIFO frame order");

        // The queue is two buffers: after two advances both exist, and
        // from then on the same two allocations swap forever — the block
        // just stepped is the one the next fresh rows land in.
        let mut q = AlbQueue::new();
        q.advance(&mut d, None, row_len, 1, &mut fill_with(4.0));
        q.advance(&mut d, None, row_len, 1, &mut fill_with(5.0));
        let (a, b) = (q.front.as_ptr(), q.back.as_ptr());
        for v in 6..12 {
            q.advance(&mut d, None, row_len, 1, &mut fill_with(v as f32));
            assert_eq!(ready_len(&q), 1);
            assert_eq!(q.front[0], v as f32);
            let swapped = if v % 2 == 0 { (b, a) } else { (a, b) };
            assert_eq!((q.front.as_ptr(), q.back.as_ptr()), swapped);
        }
        // `finish` drains the queue and keeps both buffers for reuse.
        let buffers = (q.front.as_ptr(), q.back.as_ptr());
        let _ = q.finish(d);
        assert_eq!(ready_len(&q), 0);
        assert_eq!((q.front.as_ptr(), q.back.as_ptr()), buffers);
        assert!(q.front.capacity() >= row_len && q.back.capacity() >= row_len);
    }
}
