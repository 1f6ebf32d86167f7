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
//! Likelihood Buffer — as one *block* per [`AlbQueue::advance`]: a copy
//! of a caller's pre-scored row, the rows the batched scoring service
//! has scored for the session, or one `score_block_into` call over the
//! feature frames the online front-end has held for it. The queue alone
//! decides which rows the search may step (all but the newest, on every
//! path) and runs the block's one scoring call beside the search or
//! before it.
//!
//! # Section VI pipelining
//!
//! On top of the shared executor, a session overlaps its scoring with
//! its search: while the search relaxes the held-back row of packet
//! *i*, the scoring of packet *i + 1* runs as a fork-join chunk on another
//! lane — exactly the paper's GPU-scores-batch-*i + 1*-while-the-
//! accelerator-searches-batch-*i* overlap, shrunk to frame granularity:
//! one frame per fork-join. Results stay **byte-identical** to the
//! sequential path because the two halves touch disjoint state (the
//! search never reads the row being scored, the scorer never reads the
//! search) and the rows enter the search in the same order; determinism
//! is structural, not lucky. A session picks its one scoring mode at its
//! first audio push: overlapped on a multi-lane runtime without the
//! batched scoring service, batched when the runtime has one, and on its
//! own thread otherwise. A row-fed session has nothing to score.
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
use super::{AcousticModel, AsrRuntime, PipelineError, RuntimeInner, Transcript};
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
    /// Frames the search has consumed so far: exactly one behind the
    /// rows that have reached the session's score buffer, on every path
    /// (the newest waits there). An audio-fed session's rows trail its
    /// audio further — see [`Session::partial`].
    pub frames_decoded: usize,
}

/// Per-session options for [`AsrRuntime::open_session_with`], as a
/// builder.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Decode over a registered model instead of the runtime's default
    /// graph.
    model: Option<String>,
}

impl SessionOptions {
    /// The default options: the runtime's default graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read by nothing: an overlapped session scores one frame per
    /// fork-join whatever `depth` says. Kept only because the benchmark
    /// crate's `voice_2s_overlap` spec calls it; it goes once that call
    /// is dropped (ROADMAP B4).
    pub fn overlap_depth(self, _depth: usize) -> Self {
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
/// buffers one [`AlbQueue::advance`] worth of scoring works over. Checked
/// out of (and restored to) the runtime's front-end pool, so the buffers
/// stay warm across sessions.
#[derive(Debug)]
pub(super) struct SessionFrontend {
    pub(super) mfcc: OnlineMfcc,
    /// Completed feature frames gathered for one advance, packed: up to
    /// [`SCORE_BLOCK`] on the session's own thread, one otherwise.
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

    /// Scores the `rows` frames `gather` packed with one block forward
    /// pass, as the `fill` of one advance beside the search on `pool`.
    fn score(
        &mut self,
        model: &AcousticModel,
        rows: usize,
        alb: &mut AlbQueue,
        decode: &mut StreamingDecode<Arc<Wfst>>,
        pool: Option<&WorkerPool>,
    ) {
        let dim = self.mfcc.dim();
        let Self { feats, scratch, .. } = self;
        scratch.resize(model.block_scratch_len(rows), 0.0);
        alb.advance(decode, pool, model.row_len(), rows, &mut |block| {
            model.score_block_into(&feats[..rows * dim], rows, block, scratch);
        });
    }
}

/// How an audio-fed session scores its frames: decided once, by its
/// first [`Session::push_samples`]. Every mode carries the session's
/// pooled front-end.
#[derive(Debug)]
enum Scoring {
    /// On the session's own thread, in blocks of [`SCORE_BLOCK`] frames:
    /// a one-lane runtime without the batched scoring service.
    OwnThread(SessionFrontend),
    /// One frame per fork-join on the shared executor, beside the
    /// search: a multi-lane runtime without the service.
    Overlapped(SessionFrontend, Arc<WorkerPool>),
    /// Through the batched scoring service's gather window, under the
    /// session's registration with it.
    Batched(SessionFrontend, BatchSlot),
}

impl Scoring {
    /// The mode `runtime` gives a session's audio, with a front-end
    /// checked out of its pool. Only a session that overlaps takes the
    /// executor (spawning it on first use).
    fn start(runtime: &RuntimeInner) -> Self {
        let frontend = runtime.checkout_frontend();
        if let Some(svc) = &runtime.batch {
            return Self::Batched(frontend, svc.register());
        }
        match runtime.executor() {
            Some(pool) => Self::Overlapped(frontend, Arc::clone(pool)),
            None => Self::OwnThread(frontend),
        }
    }

    fn frontend(&mut self) -> &mut SessionFrontend {
        match self {
            Self::OwnThread(frontend)
            | Self::Overlapped(frontend, _)
            | Self::Batched(frontend, _) => frontend,
        }
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
        self.build_session(resolved)
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
        Ok(self.build_session(resolved))
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
            scoring: None,
            alb: AlbQueue::new(),
            min_row_len,
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
    /// How the session scores its audio, decided by the first
    /// [`Session::push_samples`]; `None` for a row-fed session or before
    /// any audio.
    scoring: Option<Scoring>,
    /// The score→search handoff: every row, whatever its source,
    /// enters the search through this queue, which holds the newest
    /// rows back so the last one gets the end-of-utterance treatment.
    alb: AlbQueue,
    /// The shortest row the session's graph can be searched over: one
    /// past its largest phone label.
    min_row_len: usize,
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
    /// service, the frames join its gather window. The first push picks
    /// the session's scoring mode, taking the executor handle or the
    /// service slot. On a one-lane runtime
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
        let runtime = &self.runtime;
        let scoring = self.scoring.get_or_insert_with(|| Scoring::start(runtime));
        scoring.frontend().mfcc.push_samples(samples);
        self.drain_frontend(false);
    }

    /// Scores completed front-end frames and enqueues their cost rows
    /// behind the search, as the session's [`Scoring`] mode says.
    ///
    /// On its own thread the session scores [`SCORE_BLOCK`] frames with
    /// one block forward pass per advance, leaving fewer in the
    /// front-end until a full block is ready — or, at a `sync` point,
    /// scoring whatever is ready. Overlapped, it scores one frame per
    /// advance as a fork-join chunk beside the search: the paper's
    /// Section VI overlap. Batched, it submits one frame at a time to
    /// the gather window (which may flush it, scoring every pending row
    /// of every session in one block forward pass) and moves whatever
    /// rows of its own have come back into the ALB in one advance; a
    /// lone session is told to score the frame itself. At a `sync` point
    /// a batched session also flushes its frames still in the window.
    ///
    /// Determinism: the search relaxes rows in FIFO frame order, and
    /// every path computes a row with the same per-row arithmetic
    /// (block height is numerically invisible) — the mode changes
    /// *when* rows are scored, never their order or values, for any lane
    /// count or task schedule.
    fn drain_frontend(&mut self, sync: bool) {
        let Self {
            runtime,
            decode,
            alb,
            scoring,
            ..
        } = self;
        let (Some(decode), Some(scoring)) = (decode.as_mut(), scoring.as_mut()) else {
            return;
        };
        let model = &runtime.model;
        match scoring {
            // Only a session scoring on its own thread waits for a full
            // block: the overlap already scores on another core, whose
            // cache the search never touches, and the gather window
            // already blocks across sessions.
            Scoring::OwnThread(frontend) => {
                while sync || frontend.mfcc.ready_frames() >= SCORE_BLOCK {
                    let rows = frontend.gather(SCORE_BLOCK);
                    if rows == 0 {
                        break;
                    }
                    frontend.score(model, rows, alb, decode, None);
                }
            }
            Scoring::Overlapped(frontend, pool) => {
                while frontend.gather(1) == 1 {
                    frontend.score(model, 1, alb, decode, Some(pool));
                }
            }
            Scoring::Batched(frontend, slot) => {
                let svc = runtime.batch.as_ref().expect("a batched session's service");
                let dim = frontend.mfcc.dim();
                while frontend.gather(1) == 1 {
                    // Told only while none of its rows is in the window
                    // or ready, so the inline row cannot jump ahead.
                    if let SubmitOutcome::ScoreInline =
                        svc.submit(*slot, &frontend.feats[..dim], model)
                    {
                        frontend.score(model, 1, alb, decode, None);
                    }
                }
                if sync {
                    svc.flush_for(*slot, model);
                }
                // A flush on another thread between the count and the take
                // only adds newer rows, which wait for the next drain.
                let rows = svc.ready_rows(*slot);
                alb.advance(decode, None, model.row_len(), rows, &mut |block| {
                    svc.take_ready_into(*slot, block);
                });
            }
        }
    }

    /// Forces the session's scoring pipeline to a sync point: the frames
    /// a one-lane session holds for its next block are scored as a
    /// shorter block, and any of its frames still sitting in the batched
    /// service's gather window are flushed (batching the other sessions'
    /// pending rows along with them); either way the search consumes
    /// them. Afterwards the search trails the frames the front-end has
    /// completed by exactly one row, on every path, so partials compared
    /// here are byte-identical across lane counts and batching modes.
    pub fn flush_scoring(&mut self) {
        self.drain_frontend(true);
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
            self.scoring.is_none(),
            "push_row after push_samples: the online front-end still holds \
             lookahead frames, so this row would be searched out of order"
        );
        if let Some(decode) = self.decode.as_mut() {
            self.alb.advance(decode, None, row.len(), 1, &mut |dst| {
                dst.copy_from_slice(row)
            });
        }
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
    /// [`Session::flush_scoring`] on every path.
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
    /// front-end return to the runtime's pools (the front-end, and the
    /// batched service's slot, as the finalized session drops).
    ///
    /// The transcript is byte-identical to
    /// [`AsrRuntime::recognize_scores`] over the same rows — and, for
    /// sessions fed raw samples, to batch-scoring the same waveform and
    /// decoding the table.
    pub fn finalize(mut self) -> Transcript {
        if let Some(scoring) = &mut self.scoring {
            scoring.frontend().mfcc.finish();
        }
        self.flush_scoring();
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
        if let Some(scoring) = self.scoring.take() {
            let frontend = match scoring {
                Scoring::Batched(frontend, slot) => {
                    // Mid-batch drops are fine: unregistering compacts
                    // this session's pending rows out of the gather
                    // window and kills the slot's generation, so nothing
                    // is misrouted.
                    if let Some(svc) = &self.runtime.batch {
                        svc.unregister(slot);
                    }
                    frontend
                }
                Scoring::OwnThread(frontend) | Scoring::Overlapped(frontend, _) => frontend,
            };
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
