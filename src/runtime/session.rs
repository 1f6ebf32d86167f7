//! Owned streaming sessions: the one frame loop every decode in the
//! runtime runs, and the row sources that feed it.
//!
//! [`AsrRuntime::open_session`] returns an **owned [`Session`]**:
//! `Send + 'static`, no borrowed pipeline lifetime, so callers can open
//! a session on one thread, hand it to another mid-utterance, and
//! finalize it anywhere — the natural shape for per-connection tasks in
//! a server.
//!
//! # One handoff
//!
//! Whatever its source, every score row enters the search through the
//! session's [`AlbQueue`] — the paper's double-buffered Acoustic
//! Likelihood Buffer — as one *block* per [`Session::advance`]: a copy
//! of a caller's pre-scored row, a row scattered back by the batched
//! scoring service, or one `score_block_into` call over the feature
//! frames the online front-end has held for it. The queue alone decides
//! which rows the search may step (all but the newest block when the
//! block is scored on another lane, all but the newest row when it is
//! scored on the session's thread) and runs the block's one scoring
//! call beside the search or before it.
//!
//! # Section VI pipelining
//!
//! On top of the shared executor, a session overlaps its scoring with
//! its search: while the search relaxes the held-back rows of packet
//! *i*, the scoring of packet *i + 1* runs as a fork-join chunk on another
//! lane — exactly the paper's GPU-scores-batch-*i + 1*-while-the-
//! accelerator-searches-batch-*i* overlap, shrunk to frame granularity
//! (or to [`SessionOptions::overlap_depth`] frames per block). Results
//! stay **byte-identical** to the sequential path because the two
//! halves touch disjoint state (the search never reads the block being
//! scored, the scorer never reads the search) and the rows enter the
//! search in the same order; determinism is structural, not lucky.
//! A session takes its executor handle with its first audio push, and
//! only on a multi-lane runtime without the batched scoring service.
//! Otherwise it takes none: a batched session's rows come back from the
//! gather window, a row-fed session has nothing to score, and on a
//! single lane a session scores on its own thread.
//!
//! # Blocks in time on one thread
//!
//! A session that scores on its own thread leaves completed feature
//! frames in its front-end until [`SCORE_BLOCK`] are ready, scores them
//! with one block forward pass and then lets the search step them back
//! to back, so the acoustic weights and the search's graph and index
//! stop evicting each other from the cache on every 10 ms hop — the
//! paper's frame batches through the ALB (Sections IV-B and VI), as an
//! online decoder scores a chunk of frames and then searches it.
//! [`Session::flush_scoring`] and [`Session::finalize`] score whatever
//! is ready as a shorter block. Same rows, same order, same bytes: only
//! *when* the search runs changes, trailing the audio by up to
//! `SCORE_BLOCK - 1` more frames between sync points.

use super::batch::{BatchSlot, SubmitOutcome};
use super::registry::ModelCounters;
use super::{AsrRuntime, PipelineError, RuntimeInner, Transcript};
use asr_acoustic::mfcc::MfccConfig;
use asr_acoustic::online::OnlineMfcc;
use asr_acoustic::scores::AcousticTable;
use asr_decoder::pool::WorkerPool;
use asr_decoder::stream::{AlbQueue, StreamingDecode};
use asr_wfst::Wfst;
use std::sync::Arc;

/// A mid-utterance hypothesis pulled from a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// Words on the current best path, in utterance order.
    pub words: Vec<String>,
    /// Path cost of the current best token (no final cost applied).
    pub cost: f32,
    /// Frames the search has consumed so far: one behind the rows
    /// pushed (the newest waits in the session's score buffer). An
    /// audio-fed session trails its audio further — see
    /// [`Session::partial`].
    pub frames_decoded: usize,
}

/// Per-session options for [`AsrRuntime::open_session_with`], as a
/// builder.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// `None` = depth 1: the classic single-row Section VI overlap.
    overlap_depth: Option<usize>,
    /// Decode over a registered model instead of the runtime's default
    /// graph.
    model: Option<String>,
}

impl SessionOptions {
    /// The default options: the runtime's default graph and depth-1
    /// overlap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the block height of the overlapped scoring call: each push
    /// gathers up to `depth` completed feature frames and scores them
    /// with **one** block forward pass, as one executor task, *while* the
    /// search relaxes every already-scored row — the paper's Acoustic
    /// Likelihood Buffer as a multi-frame batch buffer. `1` (the
    /// default) is the classic single-row overlap. A taller block costs
    /// less per row (the weights stream once per block, not once per
    /// row) but its rows no longer spread over lanes; only
    /// [`Session::finalize`]'s flush and callers pushing more than one
    /// hop of audio at a time ever gather more than one frame.
    /// Transcripts are byte-identical for any depth: row order and
    /// per-row arithmetic never change, only when rows are scored.
    /// [`Session::partial`] may lag the pushes by up to `depth` rows
    /// instead of one. Ignored when the session scores on its own thread
    /// (a one-lane runtime, where it scores fixed blocks of eight
    /// frames in time instead) or joins the batched scoring service.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn overlap_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "overlap_depth must be at least 1");
        self.overlap_depth = Some(depth);
        self
    }

    /// Decodes this session over the registered model `name` instead of
    /// the runtime's default graph (see
    /// [`AsrRuntime::register_model_image`]). The session resolves the
    /// name once, at open: it keeps decoding over the graph it resolved
    /// even if the model is swapped mid-utterance.
    ///
    /// [`AsrRuntime::try_open_session_with`] reports an unknown name as
    /// a typed [`PipelineError::UnknownModel`] (before admission is
    /// charged); the infallible [`AsrRuntime::open_session_with`]
    /// panics on one, like every other invalid-options misuse.
    pub fn model(mut self, name: impl Into<String>) -> Self {
        self.model = Some(name.into());
        self
    }
}

/// Frames a session that scores on its own thread (no executor lane, no
/// batched scoring service) waits for before it scores them as one
/// block and the search steps them back to back. Swept on the
/// `voice_1s` shape (50k states, cap 2000, MLP `[39, 512, 512, 2000]`;
/// µs per frame over three runs): block 1 read 185–200, 4 read 168–190,
/// 8 read 158–184, 16 read 164–202, and 32 read level with 8. 8 is the
/// smallest height on the plateau; a taller block only adds latency
/// (`just stages` prints the sweep).
pub(super) const SCORE_BLOCK: usize = 8;

/// The per-session streaming front-end: an [`OnlineMfcc`] plus the
/// buffers one [`Session::advance`] worth of scoring works over. Checked
/// out of (and restored to) the runtime's front-end pool, so the buffers
/// stay warm across sessions.
#[derive(Debug)]
pub(super) struct SessionFrontend {
    pub(super) mfcc: OnlineMfcc,
    /// Completed feature frames gathered for one advance, packed: up to
    /// [`SCORE_BLOCK`] on the session's own thread, up to
    /// `overlap_depth` overlapped, one for the batched service.
    feats: Vec<f32>,
    /// The MLP's block activation scratch, sized per advance to the
    /// gathered block (empty for the template model).
    scratch: Vec<f32>,
}

impl SessionFrontend {
    pub(super) fn new(cfg: MfccConfig) -> Self {
        Self {
            mfcc: OnlineMfcc::new(cfg),
            feats: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Pops up to `depth` completed feature frames, packed, into
    /// `feats` and returns how many, growing the buffer on first use.
    fn gather(&mut self, depth: usize) -> usize {
        let dim = self.mfcc.dim();
        let mut n = 0;
        while n < depth {
            let end = (n + 1) * dim;
            if self.feats.len() < end {
                self.feats.resize(end, 0.0);
            }
            if !self.mfcc.pop_frame_into(&mut self.feats[end - dim..end]) {
                break;
            }
            n += 1;
        }
        n
    }
}

impl AsrRuntime {
    /// Opens an owned streaming session with default [`SessionOptions`].
    ///
    /// The session is `Send + 'static`: it holds the engine through the
    /// runtime's `Arc`, not a borrow, so it can be driven from any
    /// thread and handed between threads mid-utterance. Push score rows
    /// or raw audio, read [`Session::partial`] hypotheses, then
    /// [`Session::finalize`].
    ///
    /// # Example
    ///
    /// ```
    /// use asr_repro::runtime::AsrRuntime;
    ///
    /// let runtime = AsrRuntime::demo()?;
    /// let audio = runtime.render_words(&["play", "music"])?;
    ///
    /// let mut session = runtime.open_session();
    /// session.push_samples(&audio.samples);
    /// // Owned and Send: finish the utterance on another thread.
    /// let transcript = std::thread::spawn(move || session.finalize())
    ///     .join()
    ///     .expect("session thread");
    /// assert_eq!(transcript.words, vec!["play", "music"]);
    /// # Ok::<(), asr_repro::PipelineError>(())
    /// ```
    pub fn open_session(&self) -> Session {
        self.open_session_with(SessionOptions::default())
    }

    /// Opens an owned streaming session with explicit options.
    ///
    /// Admission is unconditional: this path never sheds, even past the
    /// [`super::RuntimeConfig::max_sessions`] limit (use
    /// [`AsrRuntime::try_open_session_with`] for load-shedding
    /// admission).
    pub fn open_session_with(&self, options: SessionOptions) -> Session {
        let resolved = self
            .resolve_model(&options)
            .unwrap_or_else(|e| panic!("open_session_with: {e}"));
        self.inner.admission.session_opened();
        self.build_session(options, resolved)
    }

    /// Opens a session with default options under admission control:
    /// sheds with [`PipelineError::Overloaded`] once the runtime's
    /// [`super::RuntimeConfig::max_sessions`] limit is reached. Without
    /// a limit (the default, `0`) admission is unlimited and this never
    /// fails.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Overloaded`] at the admission limit.
    /// Shedding is a typed error, never a panic, and leaves every
    /// in-flight session untouched.
    ///
    /// # Example
    ///
    /// ```
    /// use asr_repro::runtime::{AsrRuntime, PipelineError, RuntimeConfig};
    ///
    /// let runtime = AsrRuntime::demo_with(RuntimeConfig::new().max_sessions(1))?;
    /// let admitted = runtime.try_open_session()?;
    /// match runtime.try_open_session() {
    ///     Err(PipelineError::Overloaded { active, limit }) => {
    ///         assert_eq!((active, limit), (1, 1));
    ///     }
    ///     _ => unreachable!("second session must shed"),
    /// }
    /// drop(admitted); // in-flight work finishing reopens admission
    /// assert!(runtime.try_open_session().is_ok());
    /// # Ok::<(), asr_repro::PipelineError>(())
    /// ```
    pub fn try_open_session(&self) -> Result<Session, PipelineError> {
        self.try_open_session_with(SessionOptions::default())
    }

    /// Opens a session with explicit options under admission control
    /// (see [`AsrRuntime::try_open_session`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Overloaded`] at the admission limit.
    pub fn try_open_session_with(&self, options: SessionOptions) -> Result<Session, PipelineError> {
        // Resolve the model first: an unknown name is the caller's
        // error, reported without charging admission or shed counters.
        let resolved = self.resolve_model(&options)?;
        self.inner.admission.try_admit()?;
        Ok(self.build_session(options, resolved))
    }

    /// Resolves the graph a session will decode over, and the per-model
    /// counters it charges (`None` for the default graph). Runs before
    /// admission, and holds the registry lock only for the lookup — the
    /// session keeps the resolved `Arc` through swaps.
    fn resolve_model(
        &self,
        options: &SessionOptions,
    ) -> Result<(Arc<Wfst>, Option<Arc<ModelCounters>>), PipelineError> {
        match &options.model {
            None => Ok((Arc::clone(&self.inner.graph), None)),
            Some(name) => {
                let (graph, counters) = self.registry().resolve(name)?;
                Ok((graph, Some(counters)))
            }
        }
    }

    /// Constructs the session once admission has been decided.
    fn build_session(
        &self,
        options: SessionOptions,
        (graph, model_counters): (Arc<Wfst>, Option<Arc<ModelCounters>>),
    ) -> Session {
        if let Some(counters) = &model_counters {
            counters.session_opened();
        }
        let scratch = self.inner.scratch_pool.checkout();
        let min_row_len = graph.num_phones() as usize;
        Session {
            runtime: Arc::clone(&self.inner),
            decode: Some(StreamingDecode::new(
                graph,
                self.inner.options.clone(),
                scratch,
            )),
            frontend: None,
            executor: None,
            alb: AlbQueue::new(),
            overlap_depth: options.overlap_depth.unwrap_or(1),
            min_row_len,
            scattered: Vec::new(),
            batch_slot: None,
            model_counters,
        }
    }
}

/// An owned, in-flight streaming recognition: `Send + 'static`.
///
/// Created by [`AsrRuntime::open_session`]. The session holds the engine
/// through the runtime's `Arc` — no borrowed lifetime — so it can be
/// moved freely between threads, including mid-utterance. Push acoustic
/// score rows with [`Session::push_row`]/[`Session::push_frames`] or raw
/// 16 kHz audio with [`Session::push_samples`], read the evolving best
/// hypothesis with [`Session::partial`], and end with
/// [`Session::finalize`]. Dropping a session without finalizing returns
/// its warmed scratch and front-end to the runtime's pools.
///
/// Sessions are independent: any number may be open concurrently, from
/// any threads, against one runtime. When the runtime's executor has
/// more than one lane, a raw-audio session overlaps the scoring of each
/// new frame with the search of the previous one (the paper's Section VI
/// pipelining) — byte-identical to the inline path.
#[derive(Debug)]
pub struct Session {
    runtime: Arc<RuntimeInner>,
    decode: Option<StreamingDecode<Arc<Wfst>>>,
    /// The pooled streaming front-end, checked out lazily by the first
    /// [`Session::push_samples`]. `None` for row-fed sessions.
    frontend: Option<SessionFrontend>,
    /// The shared executor, when this session overlaps scoring with the
    /// search (taken by the first [`Session::push_samples`] on a
    /// multi-lane runtime without a batched scoring service); `None`
    /// scores inline.
    executor: Option<Arc<WorkerPool>>,
    /// The score→search handoff: every row, whatever its source,
    /// enters the search through this queue, which holds the newest
    /// rows back so the last one gets the end-of-utterance treatment.
    alb: AlbQueue,
    /// Block height of the one overlapped scoring call: how many
    /// completed frames one advance may gather.
    overlap_depth: usize,
    /// The shortest row the session's graph can be searched over: one
    /// past its largest phone label.
    min_row_len: usize,
    /// Landing buffer for one row scattered back by the batched scoring
    /// service, on its way into `alb`.
    scattered: Vec<f32>,
    /// The session's registration with the service, made lazily by the
    /// first [`Session::push_samples`].
    batch_slot: Option<BatchSlot>,
    /// Counters of the registered model this session decodes over;
    /// `None` on the runtime's default graph.
    model_counters: Option<Arc<ModelCounters>>,
}

impl Session {
    /// Pushes raw 16 kHz audio samples, in any chunking — the
    /// microphone-style entry point. The pooled online front-end turns
    /// them into MFCC frames and acoustic cost rows (bit-identical to
    /// batch scoring) and stages each row behind the search; pushes are
    /// allocation-free per frame once the session is warm.
    ///
    /// With a multi-lane runtime, each completed frame's scoring runs as
    /// a fork-join chunk on the shared executor *while* the search relaxes
    /// the previously staged row — the paper's Section VI overlap — with
    /// byte-identical results to inline scoring; with a batched scoring
    /// service, the frames join its gather window. The first push takes
    /// the executor handle or the service slot. On a one-lane runtime
    /// without the service, completed frames wait in the front-end until
    /// eight are ready, then are scored as one block and searched back
    /// to back: seven pushes in eight run only the front-end.
    ///
    /// The Δ/ΔΔ recurrence looks two frames ahead, so the search lags
    /// the newest audio by up to three frames (two in the front-end, one
    /// in the session's held-back row) — up to ten on one lane, where
    /// up to seven more wait for their block — until
    /// [`Session::flush_scoring`] brings it back to three or
    /// [`Session::finalize`] flushes the tail. Feed a session *either*
    /// samples *or* pre-scored rows: rows pushed while the front-end
    /// still holds lookahead frames would be searched ahead of them,
    /// reordering the utterance.
    pub fn push_samples(&mut self, samples: &[f32]) {
        let mut frontend = match self.frontend.take() {
            Some(frontend) => frontend,
            None => {
                match &self.runtime.batch {
                    Some(svc) => self.batch_slot = Some(svc.register()),
                    None => self.executor = self.runtime.executor().cloned(),
                }
                self.runtime.checkout_frontend()
            }
        };
        frontend.mfcc.push_samples(samples);
        self.drain_frontend(&mut frontend, false);
        self.frontend = Some(frontend);
    }

    /// Scores completed front-end frames and enqueues their cost rows
    /// behind the search, one [`Session::advance`] per gathered block.
    ///
    /// A session registered with the batched service submits one frame
    /// at a time to the gather window (which may flush it, scoring every
    /// pending row of every session in one block forward pass) and
    /// consumes whatever rows of its own have come back; a lone one is
    /// told to score the frame itself. Everyone else scores here, one
    /// block forward pass per advance: with an executor attached, over
    /// up to [`SessionOptions::overlap_depth`] frames as one fork-join
    /// chunk — the paper's Section VI overlap, with the ALB as a
    /// multi-frame batch buffer at depth > 1; on the session's own
    /// thread, over [`SCORE_BLOCK`] frames, leaving fewer in the
    /// front-end until a full block is ready — or, at a `sync` point,
    /// over whatever is ready.
    ///
    /// Determinism: the search relaxes rows in FIFO frame order, and
    /// every path computes a row with the same per-row arithmetic
    /// (block height is numerically invisible) — the source changes
    /// *when* rows are scored, never their order or values, for any lane
    /// count or task schedule.
    fn drain_frontend(&mut self, frontend: &mut SessionFrontend, sync: bool) {
        let runtime = Arc::clone(&self.runtime);
        let model = &runtime.model;
        // Only a session scoring on its own thread waits for a full
        // block: the overlap already scores on another core, whose cache
        // the search never touches, and the gather window already
        // blocks across sessions.
        let (depth, wait) = match (&self.executor, self.batch_slot) {
            (Some(_), _) => (self.overlap_depth, false),
            (None, Some(_)) => (1, false),
            (None, None) => (SCORE_BLOCK, !sync),
        };
        let dim = frontend.mfcc.dim();
        loop {
            if wait && frontend.mfcc.ready_frames() < depth {
                return;
            }
            let rows = frontend.gather(depth);
            if rows == 0 {
                return;
            }
            if let (Some(svc), Some(slot)) = (&runtime.batch, self.batch_slot) {
                let feat = &frontend.feats[..dim];
                if let SubmitOutcome::Queued = svc.submit(slot, feat, model) {
                    self.drain_batched_rows();
                    continue;
                }
            }
            let SessionFrontend { feats, scratch, .. } = &mut *frontend;
            scratch.resize(model.block_scratch_len(rows), 0.0);
            self.advance(model.row_len(), rows, &mut |block| {
                model.score_block_into(&feats[..rows * dim], rows, block, scratch);
            });
        }
    }

    /// Enqueues every scored row the service has ready for this
    /// session, in submission order, one advance each — so the search
    /// trails the scattered rows by exactly one, like an unbatched
    /// session's.
    fn drain_batched_rows(&mut self) {
        let Some(slot) = self.batch_slot else {
            return;
        };
        let mut row = std::mem::take(&mut self.scattered);
        while (self.runtime.batch.as_ref()).is_some_and(|svc| svc.pop_into(slot, &mut row)) {
            self.advance(row.len(), 1, &mut |dst| dst.copy_from_slice(&row));
        }
        self.scattered = row;
    }

    /// Forces the session's scoring pipeline to a sync point: the frames
    /// a one-lane session holds for its next block are scored as a
    /// shorter block, and any of its frames still sitting in the batched
    /// service's gather window are flushed (batching the other sessions'
    /// pending rows along with them); either way the search consumes
    /// them. Afterwards the search trails the frames the front-end has
    /// completed by exactly the newest row — one block when overlapping
    /// at [`SessionOptions::overlap_depth`] — so partials compared here
    /// are byte-identical across lane counts and batching modes.
    pub fn flush_scoring(&mut self) {
        if let Some(mut frontend) = self.frontend.take() {
            self.drain_frontend(&mut frontend, true);
            self.frontend = Some(frontend);
        }
        if let (Some(svc), Some(slot)) = (&self.runtime.batch, self.batch_slot) {
            svc.flush_for(slot, &self.runtime.model);
            self.drain_batched_rows();
        }
    }

    /// The session's one frame step, shared by every row source: lets
    /// the ALB step the search over every queued row while `fill`
    /// produces the block of `fresh` new ones (see
    /// [`AlbQueue::advance`]) — on the executor when the session has
    /// one, otherwise on this thread.
    fn advance(&mut self, row_len: usize, fresh: usize, fill: &mut (dyn FnMut(&mut [f32]) + Send)) {
        let Some(decode) = self.decode.as_mut() else {
            return;
        };
        self.alb
            .advance(decode, self.executor.as_deref(), row_len, fresh, fill);
    }

    /// Pushes one frame's acoustic score row (`row[p]` = cost of phone
    /// `p`; use [`AcousticTable::frame_row`] or a scorer's output).
    ///
    /// The row is copied into the back of the session's score queue
    /// while the search consumes the previously pushed row — the
    /// double-buffered handoff of the paper's Acoustic Likelihood
    /// Buffer. After the first two rows the push itself is
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the phone-label range of the
    /// session's graph ([`Wfst::num_phones`]): the search would index
    /// past its end — one push later, since the row is held back first.
    ///
    /// Panics if the session has been fed raw audio via
    /// [`Session::push_samples`]: the front-end's lookahead frames would
    /// be searched after this row, reordering the utterance.
    pub fn push_row(&mut self, row: &[f32]) {
        assert!(
            row.len() >= self.min_row_len,
            "push_row: the row has {} costs but the session's graph reads phone labels up to {}",
            row.len(),
            self.min_row_len
        );
        assert!(
            self.frontend.is_none(),
            "push_row after push_samples: the online front-end still holds \
             lookahead frames, so this row would be searched out of order"
        );
        self.advance(row.len(), 1, &mut |dst| dst.copy_from_slice(row));
    }

    /// Pushes every frame of a scored batch, in order — the per-batch
    /// handoff a pipelined scorer would perform.
    pub fn push_frames(&mut self, scores: &AcousticTable) {
        for frame in 0..scores.num_frames() {
            self.push_row(scores.frame_row(frame));
        }
    }

    /// The current best hypothesis (empty words before any audio: the
    /// start state's closure), or `None` after the beam pruned every
    /// path or the session was finalized. A row-fed session's
    /// `frames_decoded` lags the rows pushed by one. An audio-fed
    /// session's also lags by the front-end's two lookahead frames, and
    /// on one lane by up to seven frames waiting for their scoring block:
    /// up to ten frames behind the audio, three after
    /// [`Session::flush_scoring`]. Overlapping at
    /// [`SessionOptions::overlap_depth`], the held-back row is a block of
    /// up to that many rows.
    pub fn partial(&self) -> Option<Hypothesis> {
        let decode = self.decode.as_ref()?;
        decode.partial().map(|p| Hypothesis {
            words: self.runtime.lexicon.transcript(&p.words),
            cost: p.cost,
            frames_decoded: p.frames,
        })
    }

    /// Ends the utterance: the front-end's delta lookahead (for
    /// raw-audio sessions) is flushed with the batch edge clamping, the
    /// held-back final row gets the batch decoder's end-of-utterance
    /// treatment, final states are selected, and the warmed scratch and
    /// front-end return to the runtime's pools.
    ///
    /// The transcript is byte-identical to
    /// [`AsrRuntime::recognize_scores`] over the same rows — and, for
    /// sessions fed raw samples, to batch-scoring the same waveform and
    /// decoding the table.
    pub fn finalize(mut self) -> Transcript {
        if let Some(frontend) = &mut self.frontend {
            frontend.mfcc.finish();
        }
        self.flush_scoring();
        if let Some(frontend) = self.frontend.take() {
            self.runtime.restore_frontend(frontend);
        }
        let decode = self.decode.take().expect("session not yet finalized");
        let (result, scratch) = self.alb.finish(decode);
        self.runtime.scratch_pool.restore(scratch);
        Transcript {
            words: self.runtime.lexicon.transcript(&result.words),
            cost: result.cost,
            reached_final: result.reached_final,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(slot) = self.batch_slot.take() {
            // Mid-batch drops are fine: unregistering compacts this
            // session's pending rows out of the gather window and kills
            // the slot's generation, so nothing is misrouted.
            if let Some(svc) = &self.runtime.batch {
                svc.unregister(slot);
            }
        }
        if let Some(frontend) = self.frontend.take() {
            self.runtime.restore_frontend(frontend);
        }
        if let Some(decode) = self.decode.take() {
            self.runtime.scratch_pool.restore(decode.into_scratch());
        }
        if let Some(counters) = self.model_counters.take() {
            counters.session_closed();
        }
        // Finalized and abandoned sessions both come off the books here
        // (finalize consumes `self`, so this runs exactly once either
        // way); admission reopens as soon as in-flight work retires.
        self.runtime.admission.session_closed();
    }
}
