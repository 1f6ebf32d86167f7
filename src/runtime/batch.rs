//! Cross-session batched scoring: the gather window, its flush, and the
//! per-session slots rows scatter back to.
//!
//! Per-session scoring runs one forward pass per session per frame;
//! production inference servers amortize the matrix work by batching
//! across requests. Installing a [`BatchScoringConfig`]
//! ([`RuntimeConfig::batch_scoring`]) adds a batched scoring
//! service to the runtime: audio-fed sessions enqueue each completed
//! feature frame into a shared **gather window**, one matrix–matrix
//! forward pass (the row-block entry points in `asr-acoustic`) scores
//! the whole block, and the rows **scatter** back to each session's
//! slot, from where the session hands them to its own ALB — the
//! CPU-lane image of the paper's Acoustic Likelihood Buffer decoupling
//! scoring throughput from search. The window is bounded by a
//! configurable row cap and a fixed per-session wait budget
//! (`MAX_WAIT_FRAMES`), its flush target is the number of live
//! sessions, and a lone session falls back to scoring its own one-row
//! block synchronously (it never stalls on a batch that will not fill).
//! Transcripts are **byte-identical** per session regardless of batch
//! composition: every row of a block is a function of that row alone
//! (the dense kernel's contract), and each session's search still
//! consumes its own rows in push order (see
//! `tests/runtime_batch_equivalence.rs`).
//!
//! [`BatchService`] owns the whole protocol — slot generations, the
//! window, who flushes and when — and takes the acoustic model as an
//! argument, so it depends on nothing else in the runtime. A flush is one
//! `score_block_into` call on the thread that triggers it (a submitter
//! filling the window or spending its wait budget, or a session's sync
//! point): the service never touches the executor.

use super::{AcousticModel, RuntimeConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Counters of the cross-session batched scoring service, from
/// [`super::RuntimeStats::batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchScoringStats {
    /// Gather windows flushed through the block forward pass.
    pub batches: u64,
    /// Score rows produced by block flushes (across all sessions).
    pub batched_rows: u64,
    /// Rows scored synchronously because the session was alone on the
    /// service (the lone-session fallback).
    pub single_row_fallbacks: u64,
    /// The widest block any flush has scored.
    pub widest_batch: usize,
    /// Always `0`: no executor lane flushes the window any more (the
    /// idle-lane hook is gone). Kept only because the benchmark crate
    /// reports it as `runtime.batch.idle_flushes`; it goes when that
    /// metric is dropped (ROADMAP B1).
    pub idle_flushes: u64,
    /// Sessions currently registered with the service (audio-fed
    /// sessions that have pushed at least one sample).
    pub open_slots: usize,
    /// Rows sitting in the gather window right now, awaiting the next
    /// flush.
    pub pending_rows: usize,
}

/// The per-session wait budget, in frames (see [`BatchScoringConfig`]).
const MAX_WAIT_FRAMES: usize = 2;

/// Configuration of the cross-session batched scoring service, for
/// [`RuntimeConfig::batch_scoring`].
///
/// The gather window is bounded two ways: `max_rows` caps how many
/// frames one block forward pass may score, and a fixed wait budget of
/// two frames caps how many of its *own* frames any session lets ride
/// unscored before it forces a flush — so a session's search never lags
/// its audio by more than the budget, however idle its batch mates are.
/// The flush target between those bounds is the number of live sessions
/// (one row each per round-robin cycle).
///
/// ```
/// use asr_repro::runtime::{AsrRuntime, BatchScoringConfig, RuntimeConfig};
///
/// let config = RuntimeConfig::new().batch_scoring(BatchScoringConfig::new(32));
/// let runtime = AsrRuntime::demo_with(config)?;
/// assert_eq!(runtime.stats().batch.map(|b| b.pending_rows), Some(0));
/// # Ok::<(), asr_repro::PipelineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchScoringConfig {
    max_rows: usize,
}

impl BatchScoringConfig {
    /// A service whose gather window holds at most `max_rows` frames.
    ///
    /// # Panics
    ///
    /// Panics if `max_rows == 0`.
    pub fn new(max_rows: usize) -> Self {
        assert!(max_rows > 0, "the gather window needs at least one row");
        Self { max_rows }
    }
}

impl RuntimeConfig {
    /// Installs the cross-session batched scoring service: raw-audio
    /// sessions gather completed feature frames into a shared window
    /// and score them with one block forward pass (see the module
    /// docs). Transcripts are byte-identical with or without the
    /// service, for any window bound — pinned by the differential test
    /// layer.
    pub fn batch_scoring(mut self, cfg: BatchScoringConfig) -> Self {
        self.batch = Some(cfg);
        self
    }
}

/// A session's registration with the batched scoring service: the slot
/// index plus a generation counter, so a slot recycled after a
/// mid-batch `Session::Drop` can never receive (or steal) a stale row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct BatchSlot {
    index: usize,
    gen: u64,
}

/// Per-session state inside the batched scoring service.
#[derive(Debug, Default)]
struct SlotState {
    gen: u64,
    live: bool,
    /// Rows this session has in the gather window, not yet flushed.
    in_flight: usize,
    /// Scored rows awaiting this session's next drain, FIFO, flattened
    /// at the service row length.
    ready: VecDeque<f32>,
}

/// The mutable heart of the batched scoring service: the gather window
/// plus per-session slots, all preallocated at construction so the
/// steady-state submit → flush → scatter cycle never allocates.
///
/// One mutex guards the whole state, **held across the flush**: the
/// block forward pass runs under the lock. That serializes flushes and
/// makes per-session row order trivially FIFO (a session's rows cannot
/// leapfrog each other through overlapping flushes); submitting
/// sessions briefly queue on the mutex instead — they would otherwise
/// be queueing on the same matrix compute anyway.
#[derive(Debug)]
struct BatchState {
    slots: Vec<SlotState>,
    free: Vec<usize>,
    /// Registered (live) slots.
    live: usize,
    /// The gather window: `pending` packed feature rows.
    feats: Vec<f32>,
    /// Which slot each pending row belongs to.
    owners: Vec<BatchSlot>,
    pending: usize,
    /// The scatter buffer one flush scores into.
    out: Vec<f32>,
    /// Block activation scratch (empty for the template model).
    scratch: Vec<f32>,
}

/// The cross-session batched scoring service (see the module docs).
#[derive(Debug)]
pub(super) struct BatchService {
    cfg: BatchScoringConfig,
    feat_dim: usize,
    row_len: usize,
    state: Mutex<BatchState>,
    batches: AtomicU64,
    batched_rows: AtomicU64,
    single_row_fallbacks: AtomicU64,
    widest_batch: AtomicUsize,
}

/// What [`BatchService::submit`] asks the session to do with the frame
/// it just completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SubmitOutcome {
    /// The frame joined the gather window (and any due flush already
    /// ran); drain the ready queue.
    Queued,
    /// The session is alone on the service: score the frame
    /// synchronously as a one-row block (bit-identical to any row of a
    /// wider one) — the lone-session fallback that keeps a single
    /// caller from ever waiting out a batch window.
    ScoreInline,
}

impl BatchService {
    pub(super) fn new(cfg: BatchScoringConfig, model: &AcousticModel) -> Self {
        let feat_dim = model.feat_dim();
        let row_len = model.row_len();
        let max = cfg.max_rows;
        Self {
            cfg,
            feat_dim,
            row_len,
            state: Mutex::new(BatchState {
                slots: Vec::new(),
                free: Vec::new(),
                live: 0,
                feats: vec![0.0; max * feat_dim],
                owners: vec![BatchSlot { index: 0, gen: 0 }; max],
                pending: 0,
                out: vec![0.0; max * row_len],
                scratch: vec![0.0; model.block_scratch_len(max)],
            }),
            batches: AtomicU64::new(0),
            batched_rows: AtomicU64::new(0),
            single_row_fallbacks: AtomicU64::new(0),
            widest_batch: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn stats(&self) -> BatchScoringStats {
        let (live, pending) = {
            let st = self.lock();
            (st.live, st.pending)
        };
        BatchScoringStats {
            batches: self.batches.load(Ordering::Acquire),
            batched_rows: self.batched_rows.load(Ordering::Acquire),
            single_row_fallbacks: self.single_row_fallbacks.load(Ordering::Acquire),
            widest_batch: self.widest_batch.load(Ordering::Acquire),
            idle_flushes: 0,
            open_slots: live,
            pending_rows: pending,
        }
    }

    /// Registers a session with the service, handing it a
    /// generation-stamped slot.
    pub(super) fn register(&self) -> BatchSlot {
        let mut st = self.lock();
        let index = match st.free.pop() {
            Some(index) => index,
            None => {
                st.slots.push(SlotState::default());
                st.slots.len() - 1
            }
        };
        let live = st.live + 1;
        st.live = live;
        let slot = &mut st.slots[index];
        slot.live = true;
        slot.in_flight = 0;
        slot.ready.clear();
        BatchSlot {
            index,
            gen: slot.gen,
        }
    }

    /// Unregisters a session's slot: bumps the generation (so any stale
    /// handle is dead), drops its ready rows, and compacts its pending
    /// rows out of the gather window — a mid-batch `Session::Drop`
    /// leaves the service healthy for everyone else.
    pub(super) fn unregister(&self, handle: BatchSlot) {
        let mut st = self.lock();
        let st = &mut *st;
        let slot = &mut st.slots[handle.index];
        if !slot.live || slot.gen != handle.gen {
            return;
        }
        slot.live = false;
        slot.gen += 1;
        slot.in_flight = 0;
        slot.ready.clear();
        let fd = self.feat_dim;
        let mut kept = 0;
        for r in 0..st.pending {
            let owner = st.owners[r];
            if owner == handle {
                continue;
            }
            if kept != r {
                st.owners[kept] = owner;
                st.feats.copy_within(r * fd..(r + 1) * fd, kept * fd);
            }
            kept += 1;
        }
        st.pending = kept;
        st.live -= 1;
        st.free.push(handle.index);
    }

    /// Submits one completed feature frame to the gather window,
    /// flushing it inline (under the service lock, on the submitting
    /// thread) when the window reaches its target or this session's wait
    /// budget is spent. Returns [`SubmitOutcome::ScoreInline`] instead
    /// when the session is alone on the service — the lone caller scores
    /// synchronously and never waits out a window.
    pub(super) fn submit(
        &self,
        handle: BatchSlot,
        feat: &[f32],
        model: &AcousticModel,
    ) -> SubmitOutcome {
        let mut st = self.lock();
        let state = &mut *st;
        let slot = &state.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        if state.live == 1 && slot.in_flight == 0 && slot.ready.is_empty() && state.pending == 0 {
            self.single_row_fallbacks.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::ScoreInline;
        }
        let fd = self.feat_dim;
        debug_assert_eq!(feat.len(), fd, "feature width mismatch");
        let r = state.pending;
        state.feats[r * fd..(r + 1) * fd].copy_from_slice(feat);
        state.owners[r] = handle;
        state.pending += 1;
        state.slots[handle.index].in_flight += 1;
        // One row per live session per round-robin cycle fills the
        // window; a session past its own wait budget flushes early.
        let target = state.live.clamp(1, self.cfg.max_rows);
        if state.pending >= target || state.slots[handle.index].in_flight > MAX_WAIT_FRAMES {
            self.flush_locked(state, model);
        }
        SubmitOutcome::Queued
    }

    /// Scores the whole gather window with one block forward pass on the
    /// flushing thread and scatters each row to its owner's ready queue.
    /// Runs with the service lock held (see [`BatchState`]).
    fn flush_locked(&self, st: &mut BatchState, model: &AcousticModel) {
        let rows = st.pending;
        if rows == 0 {
            return;
        }
        let rl = self.row_len;
        let BatchState {
            slots,
            feats,
            owners,
            pending,
            out,
            scratch,
            ..
        } = st;
        model.score_block_into(
            &feats[..rows * self.feat_dim],
            rows,
            &mut out[..rows * rl],
            &mut scratch[..model.block_scratch_len(rows)],
        );
        // Scatter in window order: submits are serialized by the
        // service lock, so this preserves strict per-session FIFO.
        for r in 0..rows {
            let owner = owners[r];
            let slot = &mut slots[owner.index];
            debug_assert!(
                slot.live && slot.gen == owner.gen,
                "scattering a row to a dead slot"
            );
            debug_assert!(slot.in_flight > 0, "scatter/in-flight bookkeeping drifted");
            slot.in_flight -= 1;
            slot.ready.extend(out[r * rl..(r + 1) * rl].iter().copied());
        }
        *pending = 0;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.widest_batch.fetch_max(rows, Ordering::Relaxed);
    }

    /// Scored rows the session's slot holds, awaiting its next drain.
    pub(super) fn ready_rows(&self, handle: BatchSlot) -> usize {
        let st = self.lock();
        let slot = &st.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        slot.ready.len() / self.row_len
    }

    /// Moves the session's oldest scored rows, packed in submission
    /// order, into `block`: as many as it holds, which must be no more
    /// than [`BatchService::ready_rows`] counted. A flush between the
    /// count and the move only adds newer rows behind them.
    pub(super) fn take_ready_into(&self, handle: BatchSlot, block: &mut [f32]) {
        let mut st = self.lock();
        let slot = &mut st.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        let rows = slot.ready.drain(..block.len());
        for (dst, cost) in block.iter_mut().zip(rows) {
            *dst = cost;
        }
    }

    /// Flushes the gather window if this session still has rows in it —
    /// the sync point behind [`super::Session::flush_scoring`] and
    /// finalize.
    pub(super) fn flush_for(&self, handle: BatchSlot, model: &AcousticModel) {
        let mut st = self.lock();
        let state = &mut *st;
        let slot = &state.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        if slot.in_flight > 0 {
            self.flush_locked(state, model);
        }
    }
}
