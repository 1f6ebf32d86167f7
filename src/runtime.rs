//! The shared serving runtime: one engine, one executor, any number of
//! owned sessions.
//!
//! The paper's accelerator is a *shared* recognition resource — one
//! datapath multiplexed across all traffic, with scoring and search
//! overlapped (Section VI) — and [`AsrRuntime`] is the software image of
//! that deployment shape. The runtime owns the engine state (decoding
//! graph, lexicon, acoustic scorer, scratch and front-end pools) behind
//! an [`Arc`], plus **one global fork-join executor**
//! ([`WorkerPool`]): every session's fork-joins land in the same
//! queue, so N concurrent decodes share all lanes instead of each
//! hoarding a private thread set.
//!
//! [`AsrRuntime::open_session`] returns an **owned [`Session`]**:
//! `Send + 'static`, no borrowed pipeline lifetime, so callers can open
//! a session on one thread, hand it to another mid-utterance, and
//! finalize it anywhere — the natural shape for per-connection tasks in
//! a server. Cloning the runtime handle is an `Arc` bump; all clones
//! share the same pools and executor.
//!
//! # Section VI pipelining
//!
//! On top of the shared executor, a session overlaps its front-end with
//! its search: while the search relaxes the held-back row of packet
//! *i*, the scoring of packet *i + 1* runs as a queued task on another
//! lane — exactly the paper's GPU-scores-batch-*i + 1*-while-the-
//! accelerator-searches-batch-*i* overlap, shrunk to frame granularity.
//! Results stay **byte-identical** to the sequential path because the
//! two halves touch disjoint state (the search never reads the row
//! being scored, the scorer never reads the search) and the rows enter
//! the search in the same order; determinism is structural, not lucky.
//! When the runtime has a single lane (or overlap is disabled through
//! [`SessionOptions`]), the session simply scores inline — same bytes,
//! no synchronization.
//!
//! # Entry points, unified
//!
//! Batch, pre-scored, and raw-audio recognition are all one code path:
//! [`AsrRuntime::recognize`] and [`AsrRuntime::recognize_scores`] are
//! one-shot sessions internally, so every equivalence pinned for
//! sessions (byte-identity to the batch decoder, zero steady-state
//! allocations per frame) covers the batch API for free.
//!
//! # Load-adaptive QoS
//!
//! The paper trades beam width against cycles and accuracy at design
//! time; the runtime turns the same knob at *serving* time. Installing
//! a [`QosPolicy`] ([`RuntimeConfig::qos`]) gives the runtime ordered
//! pressure tiers that narrow `beam`/`max_active` as a pressure signal
//! rises — the maximum of session saturation, executor queue depth per
//! lane, and an EWMA of the per-frame real-time factor — with
//! configurable per-session floors. It also arms admission control:
//! past the policy's saturation point, [`AsrRuntime::try_open_session`]
//! sheds new sessions with a typed [`PipelineError::Overloaded`]
//! instead of queueing them into unbounded latency, while every
//! admitted session always runs to completion. Tier changes apply at
//! frame boundaries only, so a session's decode is deterministic given
//! its tier trace — pinned to one tier it is byte-identical to a
//! fixed-beam decode at that tier's parameters, and with QoS off the
//! runtime is byte-identical to a runtime with no policy at all.
//! [`AsrRuntime::stats`] exposes the whole signal chain
//! ([`RuntimeStats`]): active/peak/shed sessions, EWMA RTF, pressure,
//! current and peak tier, plus the scratch-pool and executor counters.
//!
//! # Cross-session batched scoring
//!
//! Per-session scoring runs one forward pass per session per frame;
//! production inference servers amortize the matrix work by batching
//! across requests. Installing a [`BatchScoringConfig`]
//! ([`RuntimeConfig::batch_scoring`]) adds a batched scoring service to
//! the runtime: audio-fed sessions enqueue each completed feature frame
//! into a shared **gather window**, one matrix–matrix forward pass (the
//! row-block entry points in `asr-acoustic`) scores the whole block,
//! and the rows **scatter** back to each session's ALB slot — the
//! CPU-lane image of the paper's Acoustic Likelihood Buffer decoupling
//! scoring throughput from search. The window is bounded by a
//! configurable row cap and per-session wait budget, its flush target
//! is the number of live sessions, and a lone session falls back to
//! synchronous single-row scoring (it never stalls on a batch that will
//! not fill).
//! Transcripts are **byte-identical** per session regardless of batch
//! composition: every row of a block is computed with the single-row
//! fold order, and each session's search still consumes its own rows in
//! push order (see `tests/runtime_batch_equivalence.rs`).
//!
//! # Multi-model registry
//!
//! A runtime serves any number of decoding graphs at once. The
//! construction-time graph stays the unnamed default; further models
//! are registered by name — [`AsrRuntime::register_model`] for owned
//! graphs, [`AsrRuntime::register_model_image`] /
//! [`AsrRuntime::load_model`] for zero-copy
//! [`GraphImage`]s whose records stay typed
//! views over the store buffer — and selected per session with
//! [`SessionOptions::model`]. A session resolves its name once, at
//! open: [`AsrRuntime::swap_model`] and
//! [`AsrRuntime::unregister_model`] take effect for *new* opens only,
//! while every in-flight session finishes on the graph it resolved.
//! Replaced graphs are refcounted out: the registry keeps a weak
//! retired record, the sessions' own strong references keep the graph
//! (and any backing image buffer) alive, and the storage frees the
//! moment the last session drops. [`RuntimeStats::models`] reports
//! per-model session counts and resident bytes;
//! [`RuntimeStats::retired_models`] counts swapped-out graphs still
//! draining.

use asr_accel::config::AcceleratorConfig;
use asr_accel::sim::{PreparedWfst, SimResult, Simulator};
use asr_acoustic::dnn::{Mlp, ROW_TILE};
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::online::{FrameScorer, OnlineMfcc};
use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::{SignalConfig, Utterance};
use asr_acoustic::template::TemplateScorer;
use asr_decoder::pool::{ScratchPool, ScratchPoolStats, WorkerPool, WorkerPoolStats};
use asr_decoder::search::DecodeOptions;
use asr_decoder::stream::{AlbQueue, StreamingDecode};
use asr_decoder::wer;
use asr_wfst::compose::build_decoding_graph;
use asr_wfst::grammar::Grammar;
use asr_wfst::lexicon::{demo_lexicon, Lexicon};
use asr_wfst::store::GraphImage;
use asr_wfst::{PhoneId, Wfst, WfstError, WordId};
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Nominal wall-clock duration of one acoustic frame (the 10 ms frame
/// shift every front-end in the repo uses): the denominator of the
/// real-time factor the pressure monitor tracks.
const FRAME_SECONDS: f64 = 0.01;

/// Errors from runtime (or pipeline) construction or use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Underlying WFST construction failed.
    Wfst(WfstError),
    /// A word is not in the runtime's lexicon.
    UnknownWord(String),
    /// Admission control refused a new session: the runtime is at its
    /// [`QosPolicy`] saturation point. Returned by
    /// [`AsrRuntime::try_open_session`] — never a panic — so callers
    /// can shed load (reject, retry later, fail over) while every
    /// in-flight session runs to completion.
    Overloaded {
        /// Sessions in flight when admission was refused.
        active: usize,
        /// The policy's configured session limit.
        limit: usize,
    },
    /// [`SessionOptions::model`] named a model the registry does not
    /// hold (never registered, or already unregistered).
    UnknownModel(String),
    /// [`AsrRuntime::register_model`] was given a name the registry
    /// already holds (use [`AsrRuntime::swap_model`] to replace a live
    /// model).
    DuplicateModel(String),
    /// A registered graph's phone labels exceed the runtime's acoustic
    /// model, so score rows could never cover its emitting arcs.
    IncompatibleModel {
        /// The name the graph was being registered under.
        name: String,
        /// One past the largest phone label the graph's arcs reference
        /// — the graph's label space, epsilon (label 0) included.
        graph_phones: u32,
        /// Score columns the runtime's acoustic model produces per
        /// frame (phones plus the epsilon column).
        model_phones: u32,
    },
}

/// The runtime's error type — the same enum the legacy pipeline facade
/// reports, under the name the new API reads naturally with.
pub type RuntimeError = PipelineError;

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Wfst(e) => write!(f, "decoding-graph construction failed: {e}"),
            PipelineError::UnknownWord(w) => write!(f, "word {w:?} is not in the lexicon"),
            PipelineError::Overloaded { active, limit } => write!(
                f,
                "runtime overloaded: {active} active sessions at the admission limit of {limit}"
            ),
            PipelineError::UnknownModel(name) => {
                write!(f, "model {name:?} is not registered with the runtime")
            }
            PipelineError::DuplicateModel(name) => {
                write!(f, "model {name:?} is already registered with the runtime")
            }
            PipelineError::IncompatibleModel {
                name,
                graph_phones,
                model_phones,
            } => write!(
                f,
                "model {name:?} uses {graph_phones} phones but the runtime's \
                 acoustic model scores only {model_phones}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Wfst(e) => Some(e),
            PipelineError::UnknownWord(_)
            | PipelineError::Overloaded { .. }
            | PipelineError::UnknownModel(_)
            | PipelineError::DuplicateModel(_)
            | PipelineError::IncompatibleModel { .. } => None,
        }
    }
}

impl From<WfstError> for PipelineError {
    fn from(e: WfstError) -> Self {
        PipelineError::Wfst(e)
    }
}

/// A recognized utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript {
    /// Recognized words, in order.
    pub words: Vec<String>,
    /// Viterbi path cost (lower is better).
    pub cost: f32,
    /// Whether the best path ended in a final state of the graph.
    pub reached_final: bool,
}

/// A mid-utterance hypothesis pulled from a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// Words on the current best path, in utterance order.
    pub words: Vec<String>,
    /// Path cost of the current best token (no final cost applied).
    pub cost: f32,
    /// Frames the search has consumed so far (one behind the frames
    /// pushed: the newest row waits in the session's score buffer).
    pub frames_decoded: usize,
}

/// One rung of a [`QosPolicy`]: at or above `min_pressure`, adaptive
/// sessions decode with this beam / max-active pair (clamped to the
/// policy's floors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTier {
    min_pressure: f64,
    beam: f32,
    max_active: Option<usize>,
}

impl QosTier {
    /// The pressure at which this tier engages.
    pub fn min_pressure(&self) -> f64 {
        self.min_pressure
    }

    /// The beam width this tier decodes with (before floor clamping).
    pub fn beam(&self) -> f32 {
        self.beam
    }

    /// The max-active cap this tier decodes with (before floor
    /// clamping); `None` leaves the token count beam-limited only.
    pub fn max_active(&self) -> Option<usize> {
        self.max_active
    }
}

/// A tiered degradation policy: the serving-time image of the paper's
/// beam-width/cycles/accuracy trade-off, plus admission control.
///
/// A policy is an ordered list of pressure tiers. Tier `0` is the
/// runtime's base [`DecodeOptions`]; each [`QosPolicy::tier`] call adds
/// the next rung, engaged when the pressure signal reaches its
/// threshold. Per-session floors ([`QosPolicy::floors`]) bound how far
/// degradation may narrow the search, and
/// [`QosPolicy::max_sessions`] arms admission control for
/// [`AsrRuntime::try_open_session`].
///
/// ```
/// use asr_repro::runtime::QosPolicy;
///
/// let policy = QosPolicy::new()
///     .tier(0.50, 30.0, None)         // mild pressure: narrow the beam
///     .tier(0.75, 20.0, Some(2048))   // heavy: cap active tokens too
///     .tier(0.95, 12.0, Some(512))    // saturated: survival mode
///     .floors(8.0, 128)
///     .max_sessions(8);
/// assert_eq!(policy.num_tiers(), 4); // base + three rungs
/// assert_eq!(policy.select_tier(0.6), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QosPolicy {
    tiers: Vec<QosTier>,
    beam_floor: f32,
    max_active_floor: usize,
    max_sessions: usize,
    ewma_alpha: f64,
}

impl Default for QosPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl QosPolicy {
    /// An empty policy: no degradation tiers, no admission limit. On
    /// its own it only turns on pressure tracking; add tiers and a
    /// session limit to make it bite.
    pub fn new() -> Self {
        Self {
            tiers: Vec::new(),
            beam_floor: 0.0,
            max_active_floor: 1,
            max_sessions: 0,
            ewma_alpha: 0.2,
        }
    }

    /// Appends a degradation tier engaged at `min_pressure`.
    ///
    /// # Panics
    ///
    /// Panics unless `min_pressure` is positive, finite, and strictly
    /// greater than the previous tier's threshold (tiers are declared
    /// in ascending pressure order).
    pub fn tier(mut self, min_pressure: f64, beam: f32, max_active: Option<usize>) -> Self {
        assert!(
            min_pressure.is_finite() && min_pressure > 0.0,
            "tier threshold must be positive and finite"
        );
        if let Some(last) = self.tiers.last() {
            assert!(
                min_pressure > last.min_pressure,
                "tiers must be declared in ascending pressure order \
                 ({min_pressure} after {})",
                last.min_pressure
            );
        }
        self.tiers.push(QosTier {
            min_pressure,
            beam,
            max_active,
        });
        self
    }

    /// Per-session floors degradation never crosses: no tier decodes
    /// below `beam_floor` or with fewer than `max_active_floor` active
    /// tokens, however hard the runtime is pressed.
    ///
    /// # Panics
    ///
    /// Panics if `max_active_floor == 0` (the search needs at least one
    /// live token).
    pub fn floors(mut self, beam_floor: f32, max_active_floor: usize) -> Self {
        assert!(max_active_floor > 0, "need at least one active token");
        self.beam_floor = beam_floor;
        self.max_active_floor = max_active_floor;
        self
    }

    /// Arms admission control: [`AsrRuntime::try_open_session`] sheds
    /// new sessions once `limit` are in flight. `0` (the default)
    /// leaves admission unlimited.
    pub fn max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = limit;
        self
    }

    /// Smoothing factor of the per-frame RTF EWMA, in `(0, 1]`; higher
    /// reacts faster. Defaults to `0.2`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn ewma_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.ewma_alpha = alpha;
        self
    }

    /// The declared degradation rungs, in ascending pressure order
    /// (tier `0`, the runtime's base options, is implicit).
    pub fn tiers(&self) -> &[QosTier] {
        &self.tiers
    }

    /// The configured admission limit (`0` = unlimited).
    pub fn session_limit(&self) -> usize {
        self.max_sessions
    }

    /// Number of tiers including the implicit base tier `0`.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len() + 1
    }

    /// The tier a given pressure selects: the highest rung whose
    /// threshold the pressure reaches, or `0` below every threshold.
    pub fn select_tier(&self, pressure: f64) -> usize {
        self.tiers
            .iter()
            .take_while(|t| pressure >= t.min_pressure)
            .count()
    }

    /// The `(beam, max_active)` a session decodes with at `tier`, given
    /// the runtime's base options: tier `0` is the base pair untouched;
    /// higher tiers are the declared rungs clamped to the policy's
    /// floors. Tiers past the last rung saturate at the last rung.
    pub fn params(&self, tier: usize, base: &DecodeOptions) -> (f32, Option<usize>) {
        if tier == 0 || self.tiers.is_empty() {
            return (base.beam, base.max_active);
        }
        let rung = self.tiers[tier.min(self.tiers.len()) - 1];
        let beam = rung.beam.max(self.beam_floor);
        let max_active = rung.max_active.map(|m| m.max(self.max_active_floor));
        (beam, max_active)
    }
}

/// Lock-free pressure bookkeeping shared by every runtime clone: the
/// serving-side observability the accelerator exposes through its
/// cycle counters, kept off the frame hot path (a handful of relaxed
/// atomics per frame, none at all when no [`QosPolicy`] is installed).
#[derive(Debug, Default)]
struct PressureMonitor {
    active_sessions: AtomicUsize,
    peak_sessions: AtomicUsize,
    shed_sessions: AtomicU64,
    frames_observed: AtomicU64,
    /// EWMA of the per-frame real-time factor, as `f64` bits (`0` =
    /// nothing observed yet).
    ewma_rtf_bits: AtomicU64,
    /// The latest combined pressure signal, as `f64` bits.
    pressure_bits: AtomicU64,
    tier: AtomicUsize,
    peak_tier: AtomicUsize,
}

/// A point-in-time snapshot of the runtime's serving state, from
/// [`AsrRuntime::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Sessions currently in flight.
    pub active_sessions: usize,
    /// High-water mark of concurrent sessions.
    pub peak_sessions: usize,
    /// Sessions refused by [`AsrRuntime::try_open_session`].
    pub shed_sessions: u64,
    /// Frames the pressure monitor has timed (0 without a policy).
    pub frames_observed: u64,
    /// EWMA of the per-frame real-time factor (decode seconds per 10 ms
    /// frame); `0.0` before any frame is observed.
    pub ewma_rtf: f64,
    /// The combined pressure signal: the maximum of session saturation,
    /// executor queue depth per lane, and the RTF EWMA.
    pub pressure: f64,
    /// The degradation tier adaptive sessions currently decode at
    /// (`0` = base options).
    pub tier: usize,
    /// The highest tier the runtime has reached.
    pub peak_tier: usize,
    /// Scratch-pool counters (cold checkouts vs warm restores).
    pub scratch: ScratchPoolStats,
    /// Executor scheduling counters, when the shared pool has been
    /// spun up (`None` on one-lane runtimes or before first use).
    pub executor: Option<WorkerPoolStats>,
    /// Tasks queued in the executor right now (0 when `executor` is
    /// `None`).
    pub executor_queue_depth: usize,
    /// Batched-scoring counters, when the runtime has a
    /// [`BatchScoringConfig`] installed.
    pub batch: Option<BatchScoringStats>,
    /// Per-model registry counters, one entry per registered model (the
    /// construction-time default graph is not listed — its sessions are
    /// the `active_sessions` remainder).
    pub models: Vec<ModelStats>,
    /// Total graph bytes resident for the registered models: image
    /// bytes for image-backed models, heap record bytes for owned ones.
    pub resident_model_bytes: usize,
    /// Swapped-out or unregistered graphs still held alive by in-flight
    /// sessions; each is freed (and leaves this count) when its last
    /// session drops.
    pub retired_models: usize,
}

/// One registered model's counters, from [`RuntimeStats::models`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// The name the model was registered under.
    pub name: String,
    /// Sessions currently decoding over this model.
    pub active_sessions: usize,
    /// Sessions ever opened on this model (across swaps the counter
    /// carries over: it counts the *name*, not the graph behind it).
    pub opened_sessions: u64,
    /// Bytes of graph storage this model keeps resident.
    pub resident_bytes: usize,
    /// Whether the graph is a zero-copy view over a v2 store image.
    pub image_backed: bool,
}

/// Counters of the cross-session batched scoring service, from
/// [`RuntimeStats::batch`].
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
    /// Flushes performed by an idle executor lane draining a partially
    /// filled gather window (rows that would otherwise have waited for
    /// the next submitter).
    pub idle_flushes: u64,
    /// Sessions currently registered with the service (audio-fed
    /// sessions that have pushed at least one sample).
    pub open_slots: usize,
    /// Rows sitting in the gather window right now, awaiting the next
    /// flush (by a submitter or an idle lane).
    pub pending_rows: usize,
}

/// Configuration of the cross-session batched scoring service, as a
/// builder for [`RuntimeConfig::batch_scoring`].
///
/// The gather window is bounded two ways: `max_rows` caps how many
/// frames one block forward pass may score, and `max_wait_frames` caps
/// how many of its *own* frames any session lets ride unscored before
/// it forces a flush — so a session's search never lags its audio by
/// more than the wait budget, however idle its batch mates are. The
/// flush target between those bounds is the number of live sessions
/// (one row each per round-robin cycle).
///
/// ```
/// use asr_repro::runtime::BatchScoringConfig;
///
/// let cfg = BatchScoringConfig::new(32).max_wait_frames(3);
/// assert_eq!(cfg.max_rows(), 32);
/// assert_eq!(cfg.max_wait_frames_limit(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchScoringConfig {
    max_rows: usize,
    max_wait_frames: usize,
}

impl BatchScoringConfig {
    /// A service whose gather window holds at most `max_rows` frames,
    /// with the default wait budget of two frames per session.
    ///
    /// # Panics
    ///
    /// Panics if `max_rows == 0`.
    pub fn new(max_rows: usize) -> Self {
        assert!(max_rows > 0, "the gather window needs at least one row");
        Self {
            max_rows,
            max_wait_frames: 2,
        }
    }

    /// Sets the per-session wait budget: once a session has more than
    /// `frames` of its own rows in the gather window, its next submit
    /// flushes the window regardless of the gather target.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn max_wait_frames(mut self, frames: usize) -> Self {
        assert!(frames > 0, "sessions must be allowed one in-flight row");
        self.max_wait_frames = frames;
        self
    }

    /// The gather window's row cap.
    pub fn max_rows(&self) -> usize {
        self.max_rows
    }

    /// The per-session wait budget, in frames.
    pub fn max_wait_frames_limit(&self) -> usize {
        self.max_wait_frames
    }
}

/// The runtime's acoustic model: the template prototype scorer (the
/// functional default) or a seeded MLP (the realistic DNN compute
/// shape). Both expose the same three entry points — whole waveform,
/// single frame, row block — with the block path bit-identical per row
/// to the single-frame path (the foundation the batched service's
/// determinism rests on).
#[derive(Debug)]
enum AcousticModel {
    Template(TemplateScorer),
    Mlp { mlp: Mlp, pipeline: MfccPipeline },
}

impl AcousticModel {
    /// The MFCC configuration session front-ends must extract with.
    fn mfcc_config(&self) -> &MfccConfig {
        match self {
            AcousticModel::Template(t) => t.mfcc_config(),
            AcousticModel::Mlp { pipeline, .. } => pipeline.config(),
        }
    }

    /// Feature vector width of one frame.
    fn feat_dim(&self) -> usize {
        match self {
            AcousticModel::Template(t) => MfccPipeline::new(*t.mfcc_config()).dim(),
            AcousticModel::Mlp { mlp, .. } => mlp.input_dim(),
        }
    }

    /// Width of one acoustic cost row (phones + the epsilon column).
    fn row_len(&self) -> usize {
        match self {
            AcousticModel::Template(t) => t.num_phones() as usize + 1,
            AcousticModel::Mlp { mlp, .. } => mlp.output_dim() + 1,
        }
    }

    /// Batch-scores a whole waveform (the one-shot [`AsrRuntime::score`]
    /// path).
    fn score_waveform(&self, samples: &[f32]) -> AcousticTable {
        match self {
            AcousticModel::Template(t) => t.score_waveform(samples),
            AcousticModel::Mlp { mlp, pipeline } => mlp.score_utterance(&pipeline.process(samples)),
        }
    }

    /// Scores one frame into a cost row; `x`/`y` are the MLP's pooled
    /// activation buffers (untouched by the template model).
    fn score_frame_into(&self, feat: &[f32], row: &mut [f32], x: &mut Vec<f32>, y: &mut Vec<f32>) {
        match self {
            AcousticModel::Template(t) => {
                let mut shared = t;
                shared.score_into(feat, row);
            }
            AcousticModel::Mlp { mlp, .. } => mlp.score_row_into(feat, row, x, y),
        }
    }

    /// Exact scratch length the block path needs for `rows` frames.
    fn block_scratch_len(&self, rows: usize) -> usize {
        match self {
            AcousticModel::Template(_) => 0,
            AcousticModel::Mlp { mlp, .. } => mlp.block_scratch_len(rows),
        }
    }

    /// Scores a packed block of `rows` feature vectors into packed cost
    /// rows, each row bit-identical to [`AcousticModel::score_frame_into`]
    /// on that row alone.
    fn score_block_into(&self, feats: &[f32], rows: usize, out: &mut [f32], scratch: &mut [f32]) {
        match self {
            AcousticModel::Template(t) => {
                debug_assert!(
                    scratch.is_empty(),
                    "template block scoring takes no scratch"
                );
                t.score_block_into(feats, rows, out);
            }
            AcousticModel::Mlp { mlp, .. } => mlp.score_block_into(feats, rows, out, scratch),
        }
    }
}

/// A session's registration with the batched scoring service: the slot
/// index plus a generation counter, so a slot recycled after a
/// mid-batch `Session::Drop` can never receive (or steal) a stale row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchSlot {
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
    /// at the service row length — the session's slice of the ALB.
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
struct BatchService {
    cfg: BatchScoringConfig,
    feat_dim: usize,
    row_len: usize,
    state: Mutex<BatchState>,
    batches: AtomicU64,
    batched_rows: AtomicU64,
    single_row_fallbacks: AtomicU64,
    widest_batch: AtomicUsize,
    idle_flushes: AtomicU64,
}

impl BatchService {
    fn new(cfg: BatchScoringConfig, model: &AcousticModel) -> Self {
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
            idle_flushes: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BatchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> BatchScoringStats {
        let (live, pending) = {
            let st = self.lock();
            (st.live, st.pending)
        };
        BatchScoringStats {
            batches: self.batches.load(Ordering::Acquire),
            batched_rows: self.batched_rows.load(Ordering::Acquire),
            single_row_fallbacks: self.single_row_fallbacks.load(Ordering::Acquire),
            widest_batch: self.widest_batch.load(Ordering::Acquire),
            idle_flushes: self.idle_flushes.load(Ordering::Acquire),
            open_slots: live,
            pending_rows: pending,
        }
    }
}

/// What [`RuntimeInner::batch_submit`] asks the session to do with the
/// frame it just completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubmitOutcome {
    /// The frame joined the gather window (and any due flush already
    /// ran); drain the ready queue.
    Queued,
    /// The session is alone on the service: score the row synchronously
    /// (bit-identical to the block path) — the lone-session fallback
    /// that keeps a single caller from ever waiting out a batch window.
    ScoreInline,
}

/// Construction-time configuration for an [`AsrRuntime`], as a builder.
///
/// ```
/// use asr_repro::runtime::{AsrRuntime, RuntimeConfig};
///
/// let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2).beam(40.0))?;
/// assert_eq!(runtime.lanes(), 2);
/// # Ok::<(), asr_repro::PipelineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    lanes: usize,
    options: DecodeOptions,
    frames_per_phone: usize,
    qos: Option<QosPolicy>,
    acoustic: AcousticSpec,
    batch: Option<BatchScoringConfig>,
}

/// Which acoustic backend [`RuntimeConfig`] builds the runtime with.
#[derive(Debug, Clone)]
enum AcousticSpec {
    Template,
    Mlp { hidden: Vec<usize>, seed: u64 },
}

impl Default for RuntimeConfig {
    /// Machine-sized executor, the demo beam, six frames per rendered
    /// phone, no QoS policy.
    fn default() -> Self {
        Self {
            lanes: WorkerPool::default_lanes(),
            options: DecodeOptions::with_beam(40.0),
            frames_per_phone: 6,
            qos: None,
            acoustic: AcousticSpec::Template,
            batch: None,
        }
    }
}

impl RuntimeConfig {
    /// The default configuration (see [`RuntimeConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the executor width: the number of lanes the runtime's shared
    /// [`WorkerPool`] has. `1` means no worker threads at all — every
    /// decode and every session runs inline.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        self.lanes = lanes;
        self
    }

    /// Sets the beam width every decode uses.
    pub fn beam(mut self, beam: f32) -> Self {
        self.options.beam = beam;
        self
    }

    /// Replaces the full beam-search option set.
    pub fn decode_options(mut self, options: DecodeOptions) -> Self {
        self.options = options;
        self
    }

    /// Frames per phone for [`AsrRuntime::render_words`]' synthetic
    /// speech.
    ///
    /// # Panics
    ///
    /// Panics if `frames_per_phone == 0`.
    pub fn frames_per_phone(mut self, frames_per_phone: usize) -> Self {
        assert!(frames_per_phone > 0, "need at least one frame per phone");
        self.frames_per_phone = frames_per_phone;
        self
    }

    /// Installs a load-adaptive [`QosPolicy`]: tiered degradation plus
    /// admission control. Without a policy the runtime behaves exactly
    /// as before — no pressure tracking on the frame path, infallible
    /// admission, fixed search parameters.
    pub fn qos(mut self, policy: QosPolicy) -> Self {
        self.qos = Some(policy);
        self
    }

    /// Replaces the template prototype scorer with a seeded
    /// random-weight MLP over the default MFCC front-end — the
    /// realistic DNN compute shape for batching experiments (the
    /// template model's per-frame cost is too cheap for a block forward
    /// pass to amortize anything). `hidden` lists the hidden layer
    /// widths; the input width is the MFCC dimension and the output
    /// width the lexicon's phone count. Deterministic in `seed`.
    pub fn mlp_acoustic(mut self, hidden: &[usize], seed: u64) -> Self {
        self.acoustic = AcousticSpec::Mlp {
            hidden: hidden.to_vec(),
            seed,
        };
        self
    }

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

/// Per-session options for [`AsrRuntime::open_session_with`], as a
/// builder.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// `None` = automatic: overlap scoring with the search whenever the
    /// runtime's executor has more than one lane.
    overlap: Option<bool>,
    /// `None` = depth 1: the classic single-row Section VI overlap.
    overlap_depth: Option<usize>,
    /// `None` = automatic: follow the runtime's [`QosPolicy`] tier
    /// whenever one is installed.
    qos: Option<bool>,
    /// Pin the session to one policy tier instead of following the
    /// pressure signal.
    pinned_tier: Option<usize>,
    /// `None` = automatic: join the runtime's batched scoring service
    /// whenever one is installed.
    batched: Option<bool>,
    /// Decode over a registered model instead of the runtime's default
    /// graph.
    model: Option<String>,
}

impl SessionOptions {
    /// The default options: overlap scoring and search automatically
    /// when the executor has more than one lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces the Section VI scoring/search overlap on or off for this
    /// session. Results are byte-identical either way; `false` removes
    /// all executor traffic from the session's pushes, `true` requests
    /// overlap even where it cannot win (it still degrades to inline
    /// execution on a one-lane runtime).
    pub fn overlap_scoring(mut self, overlap: bool) -> Self {
        self.overlap = Some(overlap);
        self
    }

    /// Widens the scoring/search overlap to multi-row ALB batches: each
    /// push runs fork-joins that score up to `depth` future rows as
    /// independent executor tasks *while* the search relaxes every
    /// already-scored row — the paper's Acoustic Likelihood Buffer as a
    /// multi-frame batch buffer. `1` (the default) is the classic
    /// single-row overlap. Transcripts are byte-identical for any depth:
    /// row order and per-row arithmetic never change, only when rows are
    /// scored. [`Session::partial`] may lag the pushes by up to `depth`
    /// rows instead of one. Ignored when the session scores inline (a
    /// one-lane runtime or [`SessionOptions::overlap_scoring`]`(false)`)
    /// or joins the batched scoring service.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn overlap_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "overlap_depth must be at least 1");
        self.overlap_depth = Some(depth);
        self
    }

    /// Opts this session out of (or explicitly into) the runtime's
    /// adaptive QoS. With `false` the session decodes at the runtime's
    /// base [`DecodeOptions`] for its whole life — byte-identical to a
    /// session on a runtime with no policy installed — though it still
    /// counts toward admission control.
    pub fn adaptive_qos(mut self, enabled: bool) -> Self {
        self.qos = Some(enabled);
        self
    }

    /// Pins the session to policy tier `tier` (0 = base options)
    /// instead of following the pressure signal: every frame decodes at
    /// that tier's beam/max-active, making the session byte-identical
    /// to a fixed-beam decode at those parameters. Implies QoS is
    /// enabled for the session.
    ///
    /// # Panics (at `open_session*`)
    ///
    /// Opening the session panics if the runtime has no policy, `tier`
    /// is out of range, or the session also set `adaptive_qos(false)`.
    pub fn pin_tier(mut self, tier: usize) -> Self {
        self.pinned_tier = Some(tier);
        self
    }

    /// Opts this raw-audio session out of (or explicitly into) the
    /// runtime's batched scoring service. With `false` the session
    /// scores every frame synchronously on its own — byte-identical to
    /// the batched path (that is the service's core contract), which
    /// makes `batched_scoring(false)` the differential baseline the
    /// test layer diffs the service against. Ignored on runtimes
    /// without [`RuntimeConfig::batch_scoring`] and for row-fed
    /// sessions (pre-scored rows never re-score).
    pub fn batched_scoring(mut self, batched: bool) -> Self {
        self.batched = Some(batched);
        self
    }

    /// Decodes this session over the registered model `name` instead of
    /// the runtime's default graph (see [`AsrRuntime::register_model`]).
    /// The session resolves the name once, at open: it keeps decoding
    /// over the graph it resolved even if the model is swapped or
    /// unregistered mid-utterance.
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

/// The per-session streaming front-end: an [`OnlineMfcc`] plus the
/// buffers one [`Session::advance`] worth of scoring works over. Checked
/// out of (and restored to) the runtime's front-end pool, so the buffers
/// stay warm across sessions.
#[derive(Debug)]
struct SessionFrontend {
    mfcc: OnlineMfcc,
    /// Completed feature frames gathered for one advance: one without
    /// overlap, up to `overlap_depth` with it.
    feats: Vec<Vec<f32>>,
    /// MLP activation ping-pong buffers, one `(x, y)` pair per gathered
    /// frame (unused by the template model). Behind a mutex each so the
    /// concurrent scoring tasks of one advance can reach theirs through
    /// a shared reference; task `i` alone locks pair `i`.
    scratch: Vec<Mutex<(Vec<f32>, Vec<f32>)>>,
}

impl SessionFrontend {
    /// Pops up to `depth` completed feature frames into `feats[..n]`
    /// and returns `n`, growing the buffers on first use.
    fn gather(&mut self, depth: usize) -> usize {
        let mut n = 0;
        while n < depth {
            if self.feats.len() == n {
                self.feats.push(vec![0.0; self.mfcc.dim()]);
                self.scratch.push(Mutex::default());
            }
            if !self.mfcc.pop_frame_into(&mut self.feats[n]) {
                break;
            }
            n += 1;
        }
        n
    }
}

/// Per-name session counters, shared between the registry entry and
/// every session opened on that name (so a swap does not reset them:
/// they follow the name, not the graph).
#[derive(Debug, Default)]
struct ModelCounters {
    active: AtomicUsize,
    opened: AtomicU64,
}

/// One registered model: its decoding graph plus bookkeeping.
#[derive(Debug)]
struct ModelEntry {
    graph: Arc<Wfst>,
    resident_bytes: usize,
    counters: Arc<ModelCounters>,
}

/// A graph swapped out or unregistered while sessions may still be
/// decoding over it. The registry keeps only a [`Weak`]; the sessions'
/// own strong references keep the graph (and any backing image buffer)
/// alive until the last one drops, at which point the sweep in
/// [`AsrRuntime::stats`] (and every registry mutation) forgets it.
#[derive(Debug)]
struct RetiredModel {
    graph: Weak<Wfst>,
}

/// The multi-model registry: named graphs sessions can select with
/// [`SessionOptions::model`], plus the retired list that tracks
/// swapped-out graphs until their in-flight sessions finish.
#[derive(Debug, Default)]
struct ModelRegistry {
    /// Registration order is preserved (it is the order
    /// [`RuntimeStats::models`] reports) and lookups are linear: the
    /// registry holds a handful of models, not a symbol table.
    entries: Vec<(String, ModelEntry)>,
    retired: Vec<RetiredModel>,
}

impl ModelRegistry {
    fn find(&self, name: &str) -> Option<&ModelEntry> {
        self.entries
            .iter()
            .find_map(|(n, e)| (n == name).then_some(e))
    }

    /// Drops retired records whose graphs no session holds anymore.
    fn sweep_retired(&mut self) {
        self.retired.retain(|r| r.graph.strong_count() > 0);
    }

    /// Moves a replaced graph to the retired list — unless nothing but
    /// the registry held it, in which case it frees right here.
    fn retire(&mut self, graph: Arc<Wfst>) {
        let weak = Arc::downgrade(&graph);
        drop(graph);
        if weak.strong_count() > 0 {
            self.retired.push(RetiredModel { graph: weak });
        }
        self.sweep_retired();
    }
}

/// Engine state shared by every clone of a runtime handle and every
/// session opened from it.
#[derive(Debug)]
struct RuntimeInner {
    lexicon: Lexicon,
    graph: Arc<Wfst>,
    model: AcousticModel,
    /// The cross-session batched scoring service, when one is
    /// configured.
    batch: Option<BatchService>,
    signal: SignalConfig,
    options: DecodeOptions,
    lanes: usize,
    scratch_pool: ScratchPool,
    /// Warmed streaming front-ends (online MFCC state + scoring
    /// buffers), pooled like decode scratches so raw-audio sessions are
    /// allocation-free per frame in the steady state.
    frontend_pool: Mutex<Vec<SessionFrontend>>,
    /// The shared fork-join executor, spun up on first use (a
    /// one-lane runtime never spawns it).
    executor: OnceLock<Arc<WorkerPool>>,
    frames_per_phone: usize,
    /// The load-adaptive degradation policy, when one is installed.
    qos: Option<QosPolicy>,
    /// Pressure bookkeeping: session counts always, frame timing and
    /// tier selection only when `qos` is present.
    monitor: PressureMonitor,
    /// The multi-model registry (empty until a model is registered; the
    /// construction-time `graph` stays the unnamed default).
    models: Mutex<ModelRegistry>,
}

impl RuntimeInner {
    /// Pops a warmed streaming front-end, or builds the first one.
    fn checkout_frontend(&self) -> SessionFrontend {
        let pooled = self
            .frontend_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match pooled {
            Some(mut fe) => {
                fe.mfcc.reset();
                fe
            }
            None => SessionFrontend {
                mfcc: OnlineMfcc::new(*self.model.mfcc_config()),
                feats: Vec::new(),
                scratch: Vec::new(),
            },
        }
    }

    /// Returns a front-end to the pool for the next raw-audio session.
    fn restore_frontend(&self, frontend: SessionFrontend) {
        self.frontend_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(frontend);
    }

    /// Unconditional admission: counts the session in and refreshes the
    /// pressure signal (the infallible [`AsrRuntime::open_session`]
    /// path).
    fn session_opened(&self) {
        let now = self.monitor.active_sessions.fetch_add(1, Ordering::AcqRel) + 1;
        self.monitor.peak_sessions.fetch_max(now, Ordering::AcqRel);
        self.refresh_pressure();
    }

    /// Counts a session out (from `Session`'s `Drop`, so finalize and
    /// abandonment both land here exactly once) and lets the pressure
    /// signal relax.
    fn session_closed(&self) {
        self.monitor.active_sessions.fetch_sub(1, Ordering::AcqRel);
        self.refresh_pressure();
    }

    /// Fallible admission: atomically admits the session iff the
    /// policy's limit leaves room, otherwise sheds it with a typed
    /// [`PipelineError::Overloaded`]. No limit (or no policy) admits
    /// unconditionally.
    fn try_admit(&self) -> Result<(), PipelineError> {
        let limit = self.qos.as_ref().map_or(0, QosPolicy::session_limit);
        if limit == 0 {
            self.session_opened();
            return Ok(());
        }
        let admitted = self.monitor.active_sessions.fetch_update(
            Ordering::AcqRel,
            Ordering::Acquire,
            |active| (active < limit).then_some(active + 1),
        );
        match admitted {
            Ok(previous) => {
                self.monitor
                    .peak_sessions
                    .fetch_max(previous + 1, Ordering::AcqRel);
                self.refresh_pressure();
                Ok(())
            }
            Err(active) => {
                self.monitor.shed_sessions.fetch_add(1, Ordering::AcqRel);
                Err(PipelineError::Overloaded { active, limit })
            }
        }
    }

    /// Feeds one frame's decode wall time into the RTF EWMA and
    /// re-selects the degradation tier. Called at most once per frame,
    /// and only when a policy is installed.
    fn observe_frame(&self, elapsed: Duration) {
        let Some(policy) = &self.qos else { return };
        self.monitor.frames_observed.fetch_add(1, Ordering::Relaxed);
        let rtf = elapsed.as_secs_f64() / FRAME_SECONDS;
        let alpha = policy.ewma_alpha;
        let _ =
            self.monitor
                .ewma_rtf_bits
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |bits| {
                    let next = if bits == 0 {
                        rtf
                    } else {
                        let prev = f64::from_bits(bits);
                        prev + alpha * (rtf - prev)
                    };
                    Some(next.to_bits())
                });
        self.refresh_pressure();
    }

    /// Recomputes the combined pressure signal — the maximum of session
    /// saturation, executor queue depth per lane, and the RTF EWMA —
    /// and the tier it selects. Deliberately reads `executor.get()` so
    /// observation never spawns the pool.
    fn refresh_pressure(&self) {
        let Some(policy) = &self.qos else { return };
        let mut pressure = f64::from_bits(self.monitor.ewma_rtf_bits.load(Ordering::Acquire));
        if policy.max_sessions > 0 {
            let active = self.monitor.active_sessions.load(Ordering::Acquire);
            pressure = pressure.max(active as f64 / policy.max_sessions as f64);
        }
        if let Some(pool) = self.executor.get() {
            pressure = pressure.max(pool.queue_depth() as f64 / self.lanes as f64);
        }
        self.monitor
            .pressure_bits
            .store(pressure.to_bits(), Ordering::Release);
        let tier = policy.select_tier(pressure);
        self.monitor.tier.store(tier, Ordering::Release);
        self.monitor.peak_tier.fetch_max(tier, Ordering::AcqRel);
    }

    /// Registers a session with the batched scoring service, handing it
    /// a generation-stamped slot; `None` when no service is configured.
    fn batch_register(&self) -> Option<BatchSlot> {
        let svc = self.batch.as_ref()?;
        let mut st = svc.lock();
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
        Some(BatchSlot {
            index,
            gen: slot.gen,
        })
    }

    /// Unregisters a session's slot: bumps the generation (so any stale
    /// handle is dead), drops its ready rows, and compacts its pending
    /// rows out of the gather window — a mid-batch `Session::Drop`
    /// leaves the service healthy for everyone else.
    fn batch_unregister(&self, handle: BatchSlot) {
        let Some(svc) = self.batch.as_ref() else {
            return;
        };
        let mut st = svc.lock();
        let st = &mut *st;
        let slot = &mut st.slots[handle.index];
        if !slot.live || slot.gen != handle.gen {
            return;
        }
        slot.live = false;
        slot.gen += 1;
        slot.in_flight = 0;
        slot.ready.clear();
        let fd = svc.feat_dim;
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
    /// thread) when the window reaches its target or this session's
    /// wait budget is spent. Returns [`SubmitOutcome::ScoreInline`]
    /// instead when the session is alone on the service — the lone
    /// caller scores synchronously and never waits out a window.
    fn batch_submit(&self, handle: BatchSlot, feat: &[f32]) -> SubmitOutcome {
        let svc = self.batch.as_ref().expect("batch_submit without a service");
        let mut st = svc.lock();
        let state = &mut *st;
        let slot = &state.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        if state.live == 1 && slot.in_flight == 0 && slot.ready.is_empty() && state.pending == 0 {
            svc.single_row_fallbacks.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::ScoreInline;
        }
        let fd = svc.feat_dim;
        debug_assert_eq!(feat.len(), fd, "feature width mismatch");
        let r = state.pending;
        state.feats[r * fd..(r + 1) * fd].copy_from_slice(feat);
        state.owners[r] = handle;
        state.pending += 1;
        state.slots[handle.index].in_flight += 1;
        // One row per live session per round-robin cycle fills the
        // window; a session past its own wait budget flushes early.
        let target = state.live.clamp(1, svc.cfg.max_rows);
        if state.pending >= target || state.slots[handle.index].in_flight > svc.cfg.max_wait_frames
        {
            self.flush_batch_locked(svc, state, true);
        }
        SubmitOutcome::Queued
    }

    /// Scores the whole gather window with one block forward pass and
    /// scatters each row to its owner's ready queue. Runs with the
    /// service lock held (see [`BatchState`]); on a multi-lane runtime
    /// the block is sharded across pool lanes, which cannot change a
    /// single byte because every output row depends only on its own
    /// feature vector. `sharded: false` forces the inline block path —
    /// the idle-flush hook runs *on* a pool lane, so it must not
    /// fork-join back into the same pool.
    fn flush_batch_locked(&self, svc: &BatchService, st: &mut BatchState, sharded: bool) {
        let rows = st.pending;
        if rows == 0 {
            return;
        }
        let fd = svc.feat_dim;
        let rl = svc.row_len;
        {
            let feats = &st.feats[..rows * fd];
            let out = &mut st.out[..rows * rl];
            let scratch = &mut st.scratch[..self.model.block_scratch_len(rows)];
            let chunks = if sharded {
                self.executor.get().map_or(1, |p| p.lanes().min(rows))
            } else {
                1
            };
            if chunks > 1 {
                let pool = self.executor.get().expect("chunks > 1 implies a pool");
                // Whole kernel row tiles per lane: a shard that ended
                // mid-tile would push its last row down the untiled path.
                let per = rows.div_ceil(chunks).next_multiple_of(ROW_TILE);
                let srl = self.model.block_scratch_len(1);
                let shards = BlockShards {
                    out: out.as_mut_ptr(),
                    scratch: scratch.as_mut_ptr(),
                };
                let model = &self.model;
                pool.fork_join(chunks, &|chunk| {
                    // Capture the shard struct whole (not its raw-pointer
                    // fields) so its `Sync` impl applies.
                    let shards = &shards;
                    let lo = chunk * per;
                    let hi = rows.min(lo + per);
                    if lo >= hi {
                        return;
                    }
                    let n = hi - lo;
                    // SAFETY: chunk ranges [lo, hi) are disjoint, so
                    // each lane writes a private row range of `out`; the
                    // base pointer outlives the fork_join (the buffer
                    // lives in the locked BatchState).
                    let out =
                        unsafe { std::slice::from_raw_parts_mut(shards.out.add(lo * rl), n * rl) };
                    // SAFETY: same disjointness and lifetime argument
                    // for each lane's private region of `scratch`.
                    let scratch = unsafe {
                        std::slice::from_raw_parts_mut(shards.scratch.add(lo * srl), n * srl)
                    };
                    model.score_block_into(&feats[lo * fd..hi * fd], n, out, scratch);
                });
            } else {
                self.model.score_block_into(feats, rows, out, scratch);
            }
        }
        // Scatter in window order: submits are serialized by the
        // service lock, so this preserves strict per-session FIFO.
        let BatchState {
            slots,
            owners,
            out,
            pending,
            ..
        } = st;
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
        svc.batches.fetch_add(1, Ordering::Relaxed);
        svc.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
        svc.widest_batch.fetch_max(rows, Ordering::Relaxed);
    }

    /// Pops the session's oldest scored row into `buf` (cleared and
    /// refilled; allocation-free once warm). `false` when no row is
    /// ready.
    fn batch_pop_into(&self, handle: BatchSlot, buf: &mut Vec<f32>) -> bool {
        let Some(svc) = self.batch.as_ref() else {
            return false;
        };
        let mut st = svc.lock();
        let slot = &mut st.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        if slot.ready.is_empty() {
            return false;
        }
        debug_assert!(slot.ready.len() >= svc.row_len, "partial row in the ALB");
        buf.clear();
        buf.extend(slot.ready.drain(..svc.row_len));
        true
    }

    /// Flushes the gather window if this session still has rows in it —
    /// the sync point behind [`Session::flush_scoring`] and finalize.
    fn batch_flush_for(&self, handle: BatchSlot) {
        let Some(svc) = self.batch.as_ref() else {
            return;
        };
        let mut st = svc.lock();
        let state = &mut *st;
        let slot = &state.slots[handle.index];
        debug_assert!(slot.live && slot.gen == handle.gen, "stale batch slot");
        if slot.in_flight > 0 {
            self.flush_batch_locked(svc, state, true);
        }
    }

    /// The executor's idle hook: a lane about to park drains a partially
    /// filled gather window instead of leaving those rows to wait on the
    /// next submitter (PR 7's "remaining headroom"). `try_lock` only — a
    /// parking lane must never contend with the submit hot path — and
    /// the block scores inline on the idle lane itself, because the hook
    /// runs *on* a pool lane and must not fork-join back into the same
    /// pool. Returns whether it flushed anything (the hook contract:
    /// `true` re-scans for work instead of parking).
    fn try_idle_flush(&self) -> bool {
        let Some(svc) = self.batch.as_ref() else {
            return false;
        };
        let Ok(mut st) = svc.state.try_lock() else {
            return false;
        };
        let state = &mut *st;
        if state.pending == 0 {
            return false;
        }
        self.flush_batch_locked(svc, state, false);
        svc.idle_flushes.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Raw-pointer shards of one flush's output and scratch buffers,
/// letting pool lanes score disjoint row ranges of the block in place.
#[derive(Clone, Copy)]
struct BlockShards {
    out: *mut f32,
    scratch: *mut f32,
}

// SAFETY: lanes only ever dereference these through disjoint row ranges
// (see `flush_batch_locked`), so sharing the base pointers is sound.
unsafe impl Send for BlockShards {}
unsafe impl Sync for BlockShards {}

/// The shared serving runtime: engine state plus one global fork-join
/// executor, handing out owned [`Session`]s.
///
/// Cloning the handle is an `Arc` bump — clone it freely into
/// per-connection threads; every clone shares the scratch pool, the
/// front-end pool, and the executor.
///
/// # Quick start
///
/// ```
/// use asr_repro::runtime::AsrRuntime;
///
/// let runtime = AsrRuntime::demo()?;
/// let audio = runtime.render_words(&["call", "mom"])?;
/// let transcript = runtime.recognize(&audio);
/// assert_eq!(transcript.words, vec!["call", "mom"]);
/// # Ok::<(), asr_repro::PipelineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AsrRuntime {
    inner: Arc<RuntimeInner>,
}

impl AsrRuntime {
    /// Builds a runtime from a lexicon and grammar with the default
    /// [`RuntimeConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Wfst`] if the decoding graph cannot be
    /// composed.
    pub fn new(lexicon: Lexicon, grammar: &Grammar) -> Result<Self, PipelineError> {
        Self::with_config(lexicon, grammar, RuntimeConfig::default())
    }

    /// Builds a runtime with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Wfst`] if the decoding graph cannot be
    /// composed.
    pub fn with_config(
        lexicon: Lexicon,
        grammar: &Grammar,
        config: RuntimeConfig,
    ) -> Result<Self, PipelineError> {
        let graph = build_decoding_graph(&lexicon, grammar)?;
        Ok(Self::with_graph(graph, lexicon, config))
    }

    /// Builds a runtime directly over an existing decoding graph — the
    /// entry point for synthetic-scale serving experiments (the
    /// `bench_load` overload harness builds graphs far larger than any
    /// composed demo vocabulary) and for callers that compose or load
    /// graphs themselves.
    ///
    /// The lexicon provides word spellings for transcripts and the
    /// phone space for the *raw-audio* path; sessions fed pre-scored
    /// rows only need the rows to match the graph's phone labels.
    /// Unknown word IDs on decoded paths render as `"<?>"`.
    pub fn with_graph(graph: Wfst, lexicon: Lexicon, config: RuntimeConfig) -> Self {
        let graph = Arc::new(graph);
        let model = match &config.acoustic {
            AcousticSpec::Template => AcousticModel::Template(TemplateScorer::with_default_signal(
                lexicon.num_phones() as u32,
            )),
            AcousticSpec::Mlp { hidden, seed } => {
                let pipeline = MfccPipeline::new(MfccConfig::default());
                let mut dims = vec![pipeline.dim()];
                dims.extend_from_slice(hidden);
                dims.push(lexicon.num_phones());
                AcousticModel::Mlp {
                    mlp: Mlp::new(&dims, *seed),
                    pipeline,
                }
            }
        };
        let batch = config
            .batch
            .as_ref()
            .map(|cfg| BatchService::new(cfg.clone(), &model));
        let scratch_pool = ScratchPool::new(graph.num_states());
        Self {
            inner: Arc::new(RuntimeInner {
                lexicon,
                graph,
                model,
                batch,
                signal: SignalConfig::default(),
                options: config.options,
                lanes: config.lanes,
                scratch_pool,
                frontend_pool: Mutex::new(Vec::new()),
                executor: OnceLock::new(),
                frames_per_phone: config.frames_per_phone,
                qos: config.qos,
                monitor: PressureMonitor::default(),
                models: Mutex::new(ModelRegistry::default()),
            }),
        }
    }

    /// The ready-made demo system: twelve command words, uniform
    /// grammar, default configuration.
    ///
    /// # Errors
    ///
    /// Propagates graph construction failures (none for the built-in
    /// data).
    pub fn demo() -> Result<Self, PipelineError> {
        Self::demo_with(RuntimeConfig::default())
    }

    /// The demo system with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Propagates graph construction failures (none for the built-in
    /// data).
    pub fn demo_with(config: RuntimeConfig) -> Result<Self, PipelineError> {
        let lexicon = demo_lexicon();
        let words: Vec<WordId> = (1..=lexicon.num_words() as u32).map(WordId).collect();
        Self::with_config(lexicon, &Grammar::uniform(&words), config)
    }

    /// The decoding graph (for inspection and accelerator experiments).
    pub fn graph(&self) -> &Wfst {
        &self.inner.graph
    }

    /// The lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.inner.lexicon
    }

    /// The beam-search options every decode uses.
    pub fn options(&self) -> &DecodeOptions {
        &self.inner.options
    }

    /// The configured executor width.
    pub fn lanes(&self) -> usize {
        self.inner.lanes
    }

    /// The scratch pool backing the serving path (for observability:
    /// [`ScratchPool::stats`] splits cold checkouts from warm restores).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.inner.scratch_pool
    }

    /// The installed QoS policy, when the runtime has one.
    pub fn qos_policy(&self) -> Option<&QosPolicy> {
        self.inner.qos.as_ref()
    }

    /// Checks a candidate graph against the runtime's acoustic model:
    /// every phone its emitting arcs reference must have a score
    /// column, or sessions on it could index past their rows. Both
    /// sides count label 0 (epsilon): `num_phones` is one past the
    /// largest input label, and a score row is phones + the epsilon
    /// column.
    fn check_model_compat(&self, name: &str, graph: &Wfst) -> Result<(), PipelineError> {
        let model_phones = self.inner.model.row_len() as u32;
        if graph.num_phones() > model_phones {
            return Err(PipelineError::IncompatibleModel {
                name: name.to_owned(),
                graph_phones: graph.num_phones(),
                model_phones,
            });
        }
        Ok(())
    }

    /// Registers `graph` under `name` in the runtime's model registry,
    /// so sessions can select it with [`SessionOptions::model`]. The
    /// graph's heap storage is counted as its resident bytes; to share
    /// a store image's buffer instead, use
    /// [`AsrRuntime::register_model_image`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::DuplicateModel`] if `name` is already
    /// registered, [`PipelineError::IncompatibleModel`] if the graph
    /// references phones the runtime's acoustic model cannot score.
    pub fn register_model(&self, name: &str, graph: Wfst) -> Result<(), RuntimeError> {
        let resident = graph.storage_bytes();
        self.register_entry(name, Arc::new(graph), resident)
    }

    /// Registers the graph of a loaded zero-copy store image under
    /// `name`. The registry holds typed views over the image buffer —
    /// no record is copied — and the model's resident bytes are the
    /// image's bytes. The buffer lives exactly as long as some session
    /// or registry entry still views it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AsrRuntime::register_model`].
    pub fn register_model_image(&self, name: &str, image: GraphImage) -> Result<(), RuntimeError> {
        let resident = image.resident_bytes();
        // Cloning an image-backed graph clones section views (pointer +
        // buffer handle), never the records.
        self.register_entry(name, Arc::new(image.wfst().clone()), resident)
    }

    /// Loads a v2 store image from `path` and registers its graph under
    /// `name` — the one-call deployment path for prebuilt models.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Wfst`] for unreadable or corrupt images (the
    /// registry is untouched on failure), plus the
    /// [`AsrRuntime::register_model`] conditions.
    pub fn load_model(&self, name: &str, path: &Path) -> Result<(), RuntimeError> {
        self.register_model_image(name, GraphImage::load(path)?)
    }

    fn register_entry(
        &self,
        name: &str,
        graph: Arc<Wfst>,
        resident_bytes: usize,
    ) -> Result<(), RuntimeError> {
        self.check_model_compat(name, &graph)?;
        let mut reg = self.registry();
        if reg.find(name).is_some() {
            return Err(PipelineError::DuplicateModel(name.to_owned()));
        }
        reg.entries.push((
            name.to_owned(),
            ModelEntry {
                graph,
                resident_bytes,
                counters: Arc::new(ModelCounters::default()),
            },
        ));
        reg.sweep_retired();
        Ok(())
    }

    /// Atomically replaces the graph behind a registered model:
    /// sessions opened after the swap decode over `graph`, while every
    /// in-flight session finishes on the graph it opened with (the old
    /// graph is retired and freed when its last session drops — watch
    /// [`RuntimeStats::retired_models`]). The model's session counters
    /// carry over: they follow the name.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownModel`] if `name` is not registered,
    /// [`PipelineError::IncompatibleModel`] as at registration.
    pub fn swap_model(&self, name: &str, graph: Wfst) -> Result<(), RuntimeError> {
        let resident = graph.storage_bytes();
        self.swap_entry(name, Arc::new(graph), resident)
    }

    /// [`AsrRuntime::swap_model`] for a loaded store image: the
    /// replacement graph views the image buffer zero-copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AsrRuntime::swap_model`].
    pub fn swap_model_image(&self, name: &str, image: GraphImage) -> Result<(), RuntimeError> {
        let resident = image.resident_bytes();
        self.swap_entry(name, Arc::new(image.wfst().clone()), resident)
    }

    fn swap_entry(
        &self,
        name: &str,
        graph: Arc<Wfst>,
        resident_bytes: usize,
    ) -> Result<(), RuntimeError> {
        self.check_model_compat(name, &graph)?;
        let mut reg = self.registry();
        let entry = reg
            .entries
            .iter_mut()
            .find_map(|(n, e)| (n.as_str() == name).then_some(e))
            .ok_or_else(|| PipelineError::UnknownModel(name.to_owned()))?;
        let old = std::mem::replace(&mut entry.graph, graph);
        entry.resident_bytes = resident_bytes;
        reg.retire(old);
        Ok(())
    }

    /// Removes a model from the registry. Sessions already decoding
    /// over it are unaffected — the graph is retired and its storage
    /// (image buffer included) freed when the last such session drops;
    /// new opens naming it fail with [`PipelineError::UnknownModel`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownModel`] if `name` is not registered.
    pub fn unregister_model(&self, name: &str) -> Result<(), RuntimeError> {
        let mut reg = self.registry();
        let index = reg
            .entries
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| PipelineError::UnknownModel(name.to_owned()))?;
        let (_, entry) = reg.entries.remove(index);
        reg.retire(entry.graph);
        Ok(())
    }

    /// The registered model names, in registration order.
    pub fn model_names(&self) -> Vec<String> {
        self.registry()
            .entries
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    fn registry(&self) -> std::sync::MutexGuard<'_, ModelRegistry> {
        self.inner
            .models
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time snapshot of the serving state: session counts,
    /// shed counts, pressure and tier, scratch-pool counters, and the
    /// executor's scheduling counters. Reading stats never spawns the
    /// executor — `executor` is `None` until some decode first needs
    /// the pool (and always on one-lane runtimes).
    pub fn stats(&self) -> RuntimeStats {
        let m = &self.inner.monitor;
        let executor = self.inner.executor.get();
        let (models, resident_model_bytes, retired_models) = {
            let mut reg = self.registry();
            reg.sweep_retired();
            let models: Vec<ModelStats> = reg
                .entries
                .iter()
                .map(|(name, e)| ModelStats {
                    name: name.clone(),
                    active_sessions: e.counters.active.load(Ordering::Acquire),
                    opened_sessions: e.counters.opened.load(Ordering::Acquire),
                    resident_bytes: e.resident_bytes,
                    image_backed: e.graph.is_image_backed(),
                })
                .collect();
            let resident = models.iter().map(|m| m.resident_bytes).sum();
            (models, resident, reg.retired.len())
        };
        RuntimeStats {
            models,
            resident_model_bytes,
            retired_models,
            active_sessions: m.active_sessions.load(Ordering::Acquire),
            peak_sessions: m.peak_sessions.load(Ordering::Acquire),
            shed_sessions: m.shed_sessions.load(Ordering::Acquire),
            frames_observed: m.frames_observed.load(Ordering::Acquire),
            ewma_rtf: f64::from_bits(m.ewma_rtf_bits.load(Ordering::Acquire)),
            pressure: f64::from_bits(m.pressure_bits.load(Ordering::Acquire)),
            tier: m.tier.load(Ordering::Acquire),
            peak_tier: m.peak_tier.load(Ordering::Acquire),
            scratch: self.inner.scratch_pool.stats(),
            executor: executor.map(|p| p.stats()),
            executor_queue_depth: executor.map_or(0, |p| p.queue_depth()),
            batch: self.inner.batch.as_ref().map(BatchService::stats),
        }
    }

    /// The shared fork-join executor, or `None` on a one-lane
    /// runtime (which never spawns worker threads). Spun up lazily on
    /// first call; every session shares it.
    pub fn executor(&self) -> Option<&Arc<WorkerPool>> {
        if self.inner.lanes <= 1 {
            return None;
        }
        Some(self.inner.executor.get_or_init(|| {
            let pool = Arc::new(WorkerPool::new(self.inner.lanes));
            if self.inner.batch.is_some() {
                // Weak, so the hook (owned by the pool, owned by the
                // runtime) never keeps the runtime alive.
                let inner = Arc::downgrade(&self.inner);
                pool.set_idle_hook(Box::new(move || {
                    inner.upgrade().is_some_and(|rt| rt.try_idle_flush())
                }));
            }
            pool
        }))
    }

    /// Renders a synthetic utterance speaking `words`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::UnknownWord`] for out-of-vocabulary
    /// words.
    pub fn render_words(&self, words: &[&str]) -> Result<Utterance, PipelineError> {
        let mut phones: Vec<PhoneId> = Vec::new();
        for word in words {
            let id = self
                .inner
                .lexicon
                .word_id(word)
                .ok_or_else(|| PipelineError::UnknownWord((*word).to_owned()))?;
            let pron = self
                .inner
                .lexicon
                .pronunciations()
                .iter()
                .find(|(w, _)| *w == id)
                .expect("lexicon invariant: every word has a pronunciation");
            phones.extend_from_slice(&pron.1);
        }
        Ok(Utterance::render(
            &phones,
            self.inner.frames_per_phone,
            &self.inner.signal,
        ))
    }

    /// Scores a waveform into the per-frame acoustic cost table the
    /// search consumes — the scoring stage of the paper's pipeline,
    /// exposed so callers can split scoring from search.
    pub fn score(&self, utterance: &Utterance) -> AcousticTable {
        self.inner.model.score_waveform(&utterance.samples)
    }

    /// Recognizes a waveform: a one-shot [`Session`] fed the raw
    /// samples. Byte-identical to batch-scoring the waveform and
    /// decoding the table (both halves of that contract are pinned by
    /// tests), allocation-free per frame once the pools are warm.
    pub fn recognize(&self, utterance: &Utterance) -> Transcript {
        let mut session = self.open_session();
        session.push_samples(&utterance.samples);
        session.finalize()
    }

    /// Recognizes a pre-scored utterance (the accelerator-style
    /// deployment, where the acoustic model runs elsewhere): a one-shot
    /// [`Session`] fed the score rows, riding a warmed scratch from the
    /// shared pool — the same admission accounting, QoS tiers and search
    /// as any other session, for every graph size and executor width.
    /// Pre-scored rows leave nothing to overlap with the search, so the
    /// session takes no executor handle: a multi-lane runtime that only
    /// ever decodes tables never spawns its worker threads.
    ///
    /// # Panics
    ///
    /// Panics like [`Session::push_row`] if the table has fewer columns
    /// than the graph's phone-label range.
    pub fn recognize_scores(&self, scores: &AcousticTable) -> Transcript {
        let mut session = self.open_session_with(SessionOptions::new().overlap_scoring(false));
        session.push_frames(scores);
        session.finalize()
    }

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
    /// policy's session limit (use [`AsrRuntime::try_open_session_with`]
    /// for load-shedding admission).
    pub fn open_session_with(&self, options: SessionOptions) -> Session {
        let resolved = self
            .resolve_model(&options)
            .unwrap_or_else(|e| panic!("open_session_with: {e}"));
        self.inner.session_opened();
        self.build_session(options, resolved)
    }

    /// Opens a session with default options under admission control:
    /// sheds with [`PipelineError::Overloaded`] once the runtime's
    /// [`QosPolicy`] session limit is reached. Without a policy (or
    /// with a limit of `0`) admission is unlimited and this never
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
    /// use asr_repro::runtime::{AsrRuntime, PipelineError, QosPolicy, RuntimeConfig};
    ///
    /// let runtime = AsrRuntime::demo_with(
    ///     RuntimeConfig::new().qos(QosPolicy::new().max_sessions(1)),
    /// )?;
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
    pub fn try_open_session(&self) -> Result<Session, RuntimeError> {
        self.try_open_session_with(SessionOptions::default())
    }

    /// Opens a session with explicit options under admission control
    /// (see [`AsrRuntime::try_open_session`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Overloaded`] at the admission limit.
    pub fn try_open_session_with(&self, options: SessionOptions) -> Result<Session, RuntimeError> {
        // Resolve the model first: an unknown name is the caller's
        // error, reported without charging admission or shed counters.
        let resolved = self.resolve_model(&options)?;
        self.inner.try_admit()?;
        Ok(self.build_session(options, resolved))
    }

    /// Resolves the graph a session will decode over, and the per-model
    /// counters it charges (`None` for the default graph). Runs before
    /// admission, and holds the registry lock only for the lookup — the
    /// session keeps the resolved `Arc` through swaps and unregisters.
    fn resolve_model(
        &self,
        options: &SessionOptions,
    ) -> Result<(Arc<Wfst>, Option<Arc<ModelCounters>>), PipelineError> {
        match &options.model {
            None => Ok((Arc::clone(&self.inner.graph), None)),
            Some(name) => {
                let reg = self.registry();
                let entry = reg
                    .find(name)
                    .ok_or_else(|| PipelineError::UnknownModel(name.clone()))?;
                Ok((Arc::clone(&entry.graph), Some(Arc::clone(&entry.counters))))
            }
        }
    }

    /// Constructs the session once admission has been decided.
    fn build_session(
        &self,
        options: SessionOptions,
        (graph, model_counters): (Arc<Wfst>, Option<Arc<ModelCounters>>),
    ) -> Session {
        let qos_enabled = match &self.inner.qos {
            Some(policy) => {
                let enabled = options.qos.unwrap_or(true);
                if let Some(tier) = options.pinned_tier {
                    assert!(
                        enabled,
                        "SessionOptions::pin_tier contradicts adaptive_qos(false)"
                    );
                    assert!(
                        tier < policy.num_tiers(),
                        "pinned tier {tier} out of range: the policy has {} tiers",
                        policy.num_tiers()
                    );
                }
                enabled
            }
            None => {
                assert!(
                    options.pinned_tier.is_none(),
                    "SessionOptions::pin_tier on a runtime without a QosPolicy"
                );
                false
            }
        };
        if let Some(counters) = &model_counters {
            counters.opened.fetch_add(1, Ordering::AcqRel);
            counters.active.fetch_add(1, Ordering::AcqRel);
        }
        let scratch = self.inner.scratch_pool.checkout();
        let overlap = options.overlap.unwrap_or(true);
        let executor = if overlap {
            self.executor().cloned()
        } else {
            None
        };
        let min_row_len = graph.num_phones() as usize;
        Session {
            runtime: Arc::clone(&self.inner),
            decode: Some(StreamingDecode::new(
                graph,
                self.inner.options.clone(),
                scratch,
            )),
            frontend: None,
            executor,
            alb: AlbQueue::new(),
            overlap_depth: options.overlap_depth.unwrap_or(1),
            min_row_len,
            scattered: Vec::new(),
            frames_pushed: 0,
            qos_enabled,
            pinned_tier: options.pinned_tier,
            batch_enabled: options.batched.unwrap_or(true) && self.inner.batch.is_some(),
            batch_slot: None,
            model_counters,
        }
    }

    /// Recognizes a waveform on the simulated accelerator, returning the
    /// transcript together with the full hardware result (cycles,
    /// traffic, cache statistics).
    ///
    /// # Errors
    ///
    /// Propagates WFST re-layout failures for state-optimized designs.
    pub fn recognize_on_accelerator(
        &self,
        utterance: &Utterance,
        cfg: AcceleratorConfig,
    ) -> Result<(Transcript, SimResult), PipelineError> {
        let prepared = self.prepare_accelerator(&cfg)?;
        self.recognize_on_prepared(utterance, cfg, &prepared)
    }

    /// Prepares the runtime's decoding graph for an accelerator design
    /// point: the original layout for the base design, the
    /// degree-sorted layout (plus direct-index registers) for
    /// state-optimized designs. Preparing once and decoding many
    /// utterances with [`AsrRuntime::recognize_on_prepared`] amortizes
    /// the re-layout.
    ///
    /// # Errors
    ///
    /// Propagates WFST re-layout validation failures as
    /// [`PipelineError::Wfst`].
    pub fn prepare_accelerator(
        &self,
        cfg: &AcceleratorConfig,
    ) -> Result<PreparedWfst, PipelineError> {
        Ok(PreparedWfst::new(&self.inner.graph, cfg)?)
    }

    /// Recognizes a waveform on the simulated accelerator over an
    /// already-prepared graph layout.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Wfst`] when the simulator refuses the
    /// prepared layout — e.g. [`WfstError::LayoutMismatch`] when the
    /// direct-index registers disagree with the sorted graph. The
    /// failure is a typed error, never a panic, and leaves the runtime
    /// fully serviceable: live sessions, pools, and future accelerator
    /// decodes are untouched.
    pub fn recognize_on_prepared(
        &self,
        utterance: &Utterance,
        cfg: AcceleratorConfig,
        prepared: &PreparedWfst,
    ) -> Result<(Transcript, SimResult), PipelineError> {
        let scores = self.inner.model.score_waveform(&utterance.samples);
        let mut cfg = cfg;
        cfg.beam = self.inner.options.beam;
        let result = Simulator::new(cfg).decode(prepared, &scores)?;
        let transcript = Transcript {
            words: self.inner.lexicon.transcript(&result.words),
            cost: result.cost,
            reached_final: result.reached_final,
        };
        Ok((transcript, result))
    }

    /// Word error rate of a hypothesis against a reference word
    /// sequence.
    pub fn wer(&self, reference: &[&str], transcript: &Transcript) -> f64 {
        let to_ids = |words: &[String]| -> Vec<WordId> {
            words
                .iter()
                .map(|w| self.inner.lexicon.word_id(w).unwrap_or(WordId(u32::MAX)))
                .collect()
        };
        let ref_owned: Vec<String> = reference.iter().map(|s| (*s).to_owned()).collect();
        wer::wer(&to_ids(&ref_owned), &to_ids(&transcript.words))
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
    /// search; `None` scores inline.
    executor: Option<Arc<WorkerPool>>,
    /// The score→search handoff: every row, whatever its source,
    /// enters the search through this queue, which holds the newest
    /// rows back so the last one gets the end-of-utterance treatment.
    alb: AlbQueue,
    /// How many future rows one overlapped advance may score.
    overlap_depth: usize,
    /// The shortest row the session's graph can be searched over: one
    /// past its largest phone label.
    min_row_len: usize,
    /// Landing buffer for one row scattered back by the batched scoring
    /// service, on its way into `alb`.
    scattered: Vec<f32>,
    frames_pushed: usize,
    /// Whether this session follows the runtime's QoS policy (always
    /// `false` without a policy).
    qos_enabled: bool,
    /// A fixed tier overriding the pressure signal, when pinned.
    pinned_tier: Option<usize>,
    /// Whether this session joins the batched scoring service (always
    /// `false` without one).
    batch_enabled: bool,
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
    /// a queued task on the shared executor *while* the search relaxes
    /// the previously staged row — the paper's Section VI overlap — with
    /// byte-identical results to inline scoring.
    ///
    /// The Δ/ΔΔ recurrence looks two frames ahead, so the search lags
    /// the newest audio by up to three frames (two in the front-end, one
    /// in the session's held-back row) until [`Session::finalize`]
    /// flushes the tail. Feed a session *either* samples *or* pre-scored
    /// rows: rows pushed while the front-end still holds lookahead
    /// frames would be searched ahead of them, reordering the utterance.
    pub fn push_samples(&mut self, samples: &[f32]) {
        if self.batch_enabled && self.batch_slot.is_none() {
            self.batch_slot = self.runtime.batch_register();
        }
        let mut frontend = self
            .frontend
            .take()
            .unwrap_or_else(|| self.runtime.checkout_frontend());
        frontend.mfcc.push_samples(samples);
        self.drain_frontend(&mut frontend);
        self.frontend = Some(frontend);
    }

    /// Scores every completed front-end frame and enqueues its cost row
    /// behind the search, one [`Session::advance`] per gathered batch.
    ///
    /// A session registered with the batched service submits one frame
    /// at a time to the gather window (which may flush it, scoring every
    /// pending row of every session in one block forward pass) and
    /// consumes whatever rows of its own have come back; a lone one is
    /// told to score the frame itself. Everyone else scores here: one
    /// frame per advance inline, or up to [`SessionOptions::overlap_depth`]
    /// frames per advance as queued tasks when an executor is attached —
    /// the paper's Section VI overlap, with the ALB as a multi-frame
    /// batch buffer at depth > 1.
    ///
    /// Determinism: the search relaxes rows in FIFO frame order, and
    /// every path computes a row with the same per-row arithmetic — the
    /// source changes *when* rows are scored, never their order or
    /// values, for any lane count or task schedule.
    fn drain_frontend(&mut self, frontend: &mut SessionFrontend) {
        let runtime = Arc::clone(&self.runtime);
        let model = &runtime.model;
        let overlap = self.batch_slot.is_none() && self.executor.is_some();
        let depth = if overlap { self.overlap_depth } else { 1 };
        loop {
            let gathered = frontend.gather(depth);
            if gathered == 0 {
                return;
            }
            if let Some(slot) = self.batch_slot {
                if let SubmitOutcome::Queued = runtime.batch_submit(slot, &frontend.feats[0]) {
                    self.drain_batched_rows();
                    continue;
                }
            }
            let SessionFrontend { feats, scratch, .. } = &*frontend;
            self.advance(overlap, model.row_len(), gathered, &|i, row| {
                let mut scratch = scratch[i].lock().unwrap_or_else(PoisonError::into_inner);
                let (x, y) = &mut *scratch;
                model.score_frame_into(&feats[i], row, x, y);
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
        while self.runtime.batch_pop_into(slot, &mut row) {
            self.advance(false, row.len(), 1, &|_, dst| dst.copy_from_slice(&row));
        }
        self.scattered = row;
    }

    /// Forces the session's scoring pipeline to a sync point: any of its
    /// frames still sitting in the gather window are flushed (batching
    /// the other sessions' pending rows along with them) and their rows
    /// consumed by the search. Afterwards the session has searched
    /// exactly the frames its front-end has completed — the same state
    /// an unbatched session is in after every push — so partials
    /// compared here are byte-identical across batching modes. A no-op
    /// for unbatched sessions.
    pub fn flush_scoring(&mut self) {
        if let Some(slot) = self.batch_slot {
            self.runtime.batch_flush_for(slot);
            self.drain_batched_rows();
        }
    }

    /// The session's one frame step, shared by every row source:
    /// retunes the search to the current QoS tier, then lets the ALB
    /// step the search over every queued row while `fill` produces the
    /// `fresh` new ones (see [`AlbQueue::advance`]) — on the executor
    /// when `overlap` is set and the session has one, otherwise on this
    /// thread — and feeds the wall time to the pressure monitor.
    ///
    /// Tier changes land here (and once more before the last frame, in
    /// [`Session::finalize`]), so they only ever apply at a frame
    /// boundary.
    fn advance(
        &mut self,
        overlap: bool,
        row_len: usize,
        fresh: usize,
        fill: &(dyn Fn(usize, &mut [f32]) + Sync),
    ) {
        self.apply_qos();
        // Time the advance only when the pressure monitor will consume
        // the sample, and only when it drives a search step: an
        // utterance's first row is merely enqueued, and a near-zero
        // sample would drag the RTF EWMA toward zero for free.
        let timed = self.qos_enabled && self.runtime.qos.is_some() && self.alb.ready_len() > 0;
        let timer = timed.then(Instant::now);
        let Some(decode) = self.decode.as_mut() else {
            return;
        };
        let pool = self.executor.as_deref().filter(|_| overlap);
        self.alb.advance(decode, pool, row_len, fresh, fill);
        self.frames_pushed += fresh;
        if let Some(started) = timer {
            // One sample per row keeps the RTF EWMA comparable across
            // advance sizes.
            let per_frame = started.elapsed() / fresh as u32;
            for _ in 0..fresh {
                self.runtime.observe_frame(per_frame);
            }
        }
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
        self.advance(false, row.len(), 1, &|_, dst| dst.copy_from_slice(row));
    }

    /// Pushes every frame of a scored batch, in order — the per-batch
    /// handoff a pipelined scorer would perform.
    pub fn push_frames(&mut self, scores: &AcousticTable) {
        for frame in 0..scores.num_frames() {
            self.push_row(scores.frame_row(frame));
        }
    }

    /// Frames pushed into the session so far.
    pub fn frames_pushed(&self) -> usize {
        self.frames_pushed
    }

    /// The degradation tier the *next* frame will decode at: the pinned
    /// tier if set, otherwise the runtime's current pressure tier.
    /// Always `0` when QoS is off for this session.
    pub fn tier(&self) -> usize {
        if !self.qos_enabled {
            return 0;
        }
        self.pinned_tier
            .unwrap_or_else(|| self.runtime.monitor.tier.load(Ordering::Acquire))
    }

    /// Pins the session to policy tier `tier` from the next frame on —
    /// the mid-utterance form of [`SessionOptions::pin_tier`], for
    /// scripted tier traces. Tier changes only ever land at frame
    /// boundaries, so the decode stays deterministic given the trace.
    /// Implies QoS is enabled for the session from here on.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has no [`QosPolicy`] or `tier` is out of
    /// range.
    pub fn pin_tier(&mut self, tier: usize) {
        let policy = self
            .runtime
            .qos
            .as_ref()
            .expect("Session::pin_tier on a runtime without a QosPolicy");
        assert!(
            tier < policy.num_tiers(),
            "pinned tier {tier} out of range: the policy has {} tiers",
            policy.num_tiers()
        );
        self.qos_enabled = true;
        self.pinned_tier = Some(tier);
    }

    /// Retunes the search to the session's current tier — called at
    /// every frame boundary (and before the final frame), so parameter
    /// changes never land mid-frame.
    fn apply_qos(&mut self) {
        if !self.qos_enabled {
            return;
        }
        let Some(policy) = &self.runtime.qos else {
            return;
        };
        let tier = self
            .pinned_tier
            .unwrap_or_else(|| self.runtime.monitor.tier.load(Ordering::Acquire));
        let (beam, max_active) = policy.params(tier, &self.runtime.options);
        if let Some(decode) = self.decode.as_mut() {
            decode.set_search_params(beam, max_active);
        }
    }

    /// The current best hypothesis (empty words before any audio: the
    /// start state's closure), or `None` after the beam pruned every
    /// path or the session was finalized. The search trails the pushes
    /// by the rows of the latest advance, so `frames_decoded` lags
    /// [`Session::frames_pushed`] by one row — by up to
    /// [`SessionOptions::overlap_depth`] rows for an audio-fed session
    /// overlapping at that depth.
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
        if let Some(mut frontend) = self.frontend.take() {
            frontend.mfcc.finish();
            self.drain_frontend(&mut frontend);
            self.runtime.restore_frontend(frontend);
        }
        self.flush_scoring();
        self.apply_qos();
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
            self.runtime.batch_unregister(slot);
        }
        if let Some(frontend) = self.frontend.take() {
            self.runtime.restore_frontend(frontend);
        }
        if let Some(decode) = self.decode.take() {
            self.runtime.scratch_pool.restore(decode.into_scratch());
        }
        if let Some(counters) = self.model_counters.take() {
            counters.active.fetch_sub(1, Ordering::AcqRel);
        }
        // Finalized and abandoned sessions both come off the books here
        // (finalize consumes `self`, so this runs exactly once either
        // way); admission reopens as soon as in-flight work retires.
        self.runtime.session_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_static<T: Send + 'static>() {}

    #[test]
    fn session_and_runtime_are_send_and_static() {
        assert_send_static::<Session>();
        assert_send_static::<AsrRuntime>();
    }

    #[test]
    fn repeated_recognize_reuses_pooled_scratch() {
        let runtime = AsrRuntime::demo().unwrap();
        let audio = runtime.render_words(&["go"]).unwrap();
        assert_eq!(runtime.scratch_pool().idle(), 0);
        let first = runtime.recognize(&audio);
        assert_eq!(
            runtime.scratch_pool().idle(),
            1,
            "scratch returned to the pool"
        );
        for _ in 0..3 {
            assert_eq!(runtime.recognize(&audio), first);
        }
        assert_eq!(
            runtime.scratch_pool().idle(),
            1,
            "sequential decodes share one scratch"
        );
        let stats = runtime.scratch_pool().stats();
        assert_eq!(stats.cold_checkouts, 1, "only the first checkout was cold");
        assert_eq!(stats.warm_checkouts, 3);
    }

    #[test]
    fn session_matches_batch_recognize() {
        let runtime = AsrRuntime::demo().unwrap();
        for words in [vec!["go"], vec!["lights", "on"], vec!["call", "mom"]] {
            let audio = runtime.render_words(&words).unwrap();
            let scores = runtime.score(&audio);
            let batch = runtime.recognize_scores(&scores);
            let mut session = runtime.open_session();
            session.push_frames(&scores);
            assert_eq!(session.frames_pushed(), scores.num_frames());
            let streamed = session.finalize();
            assert_eq!(streamed.words, batch.words);
            assert_eq!(streamed.cost.to_bits(), batch.cost.to_bits());
            assert_eq!(streamed.reached_final, batch.reached_final);
        }
    }

    #[test]
    fn session_partials_evolve_toward_the_transcript() {
        let runtime = AsrRuntime::demo().unwrap();
        let audio = runtime.render_words(&["play", "music"]).unwrap();
        let scores = runtime.score(&audio);
        let mut session = runtime.open_session();
        let opening = session.partial().expect("start closure is live");
        assert_eq!(opening.frames_decoded, 0);
        assert!(opening.words.is_empty(), "nothing recognized before audio");
        let mut partials = 0;
        for frame in 0..scores.num_frames() {
            session.push_row(scores.frame_row(frame));
            if let Some(h) = session.partial() {
                assert_eq!(h.frames_decoded, frame, "search runs one row behind");
                partials += 1;
            }
        }
        assert!(partials > 0, "partials became available mid-utterance");
        let t = session.finalize();
        assert_eq!(t.words, vec!["play", "music"]);
    }

    #[test]
    fn dropped_session_returns_its_scratch() {
        let runtime = AsrRuntime::demo().unwrap();
        let audio = runtime.render_words(&["stop"]).unwrap();
        let scores = runtime.score(&audio);
        {
            let mut session = runtime.open_session();
            session.push_frames(&scores);
            // Dropped without finalize (caller went away mid-utterance).
        }
        assert_eq!(runtime.scratch_pool().idle(), 1);
        // The recovered scratch serves the next request.
        let t = runtime.recognize(&audio);
        assert_eq!(t.words, vec!["stop"]);
        assert_eq!(runtime.scratch_pool().idle(), 1);
    }

    #[test]
    fn empty_session_finalizes_gracefully() {
        let runtime = AsrRuntime::demo().unwrap();
        let t = runtime.open_session().finalize();
        assert!(t.words.is_empty());
        // Identical to a batch decode of zero frames.
        let empty = AcousticTable::from_fn(0, runtime.lexicon().num_phones() + 1, |_, _| 0.0);
        let batch = runtime.recognize_scores(&empty);
        assert_eq!(t, batch);
    }

    #[test]
    fn unknown_word_is_reported() {
        let runtime = AsrRuntime::demo().unwrap();
        let err = runtime.render_words(&["xylophone"]).unwrap_err();
        assert_eq!(err, PipelineError::UnknownWord("xylophone".into()));
        assert!(err.to_string().contains("xylophone"));
    }

    #[test]
    fn wer_detects_errors() {
        let runtime = AsrRuntime::demo().unwrap();
        let t = Transcript {
            words: vec!["go".into(), "home".into()],
            cost: 0.0,
            reached_final: true,
        };
        assert_eq!(runtime.wer(&["go", "home"], &t), 0.0);
        assert!(runtime.wer(&["stop"], &t) > 0.0);
    }

    #[test]
    fn runtime_clones_share_the_pools() {
        let a = AsrRuntime::demo().unwrap();
        let b = a.clone();
        let audio = a.render_words(&["go"]).unwrap();
        let t = a.recognize(&audio);
        assert_eq!(t.words, vec!["go"]);
        assert_eq!(
            b.scratch_pool().stats().cold_checkouts,
            1,
            "clone observes the same scratch pool"
        );
        let t2 = b.recognize(&audio);
        assert_eq!(t2, t);
        assert_eq!(
            b.scratch_pool().stats().cold_checkouts,
            1,
            "second recognize rode the warmed scratch"
        );
    }

    #[test]
    fn one_lane_runtime_has_no_executor() {
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
        assert!(runtime.executor().is_none());
        let audio = runtime.render_words(&["stop"]).unwrap();
        assert_eq!(runtime.recognize(&audio).words, vec!["stop"]);
    }

    #[test]
    fn overlapped_and_inline_scoring_are_byte_identical() {
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
        assert!(runtime.executor().is_some());
        let audio = runtime.render_words(&["lights", "on"]).unwrap();
        let run = |overlap: bool| {
            let mut session =
                runtime.open_session_with(SessionOptions::new().overlap_scoring(overlap));
            for packet in audio.samples.chunks(160) {
                session.push_samples(packet);
            }
            session.finalize()
        };
        let overlapped = run(true);
        let inline = run(false);
        assert_eq!(overlapped.words, inline.words);
        assert_eq!(overlapped.cost.to_bits(), inline.cost.to_bits());
        assert_eq!(overlapped.reached_final, inline.reached_final);
        // ... and both match the batch path.
        let batch = runtime.recognize_scores(&runtime.score(&audio));
        assert_eq!(overlapped.words, batch.words);
        assert_eq!(overlapped.cost.to_bits(), batch.cost.to_bits());
    }

    #[test]
    fn multi_row_overlap_is_byte_identical_to_inline_for_every_depth() {
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
        let audio = runtime.render_words(&["play", "music"]).unwrap();
        let inline = {
            let mut session =
                runtime.open_session_with(SessionOptions::new().overlap_scoring(false));
            for packet in audio.samples.chunks(160) {
                session.push_samples(packet);
            }
            session.finalize()
        };
        for depth in [2usize, 3, 5] {
            for chunk in [160usize, 517] {
                let mut session =
                    runtime.open_session_with(SessionOptions::new().overlap_depth(depth));
                for packet in audio.samples.chunks(chunk) {
                    session.push_samples(packet);
                }
                let deep = session.finalize();
                assert_eq!(deep.words, inline.words, "depth {depth} chunk {chunk}");
                assert_eq!(
                    deep.cost.to_bits(),
                    inline.cost.to_bits(),
                    "depth {depth} chunk {chunk}"
                );
                assert_eq!(deep.reached_final, inline.reached_final);
            }
        }
    }

    #[test]
    fn idle_lane_flushes_a_partial_gather_window() {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(2)
                .batch_scoring(BatchScoringConfig::new(16).max_wait_frames(8)),
        )
        .unwrap();
        let audio = runtime.render_words(&["go"]).unwrap();
        // Three registered sessions set the gather target to 3 rows, so
        // single frames can sit in the window without tripping a submit
        // flush. Registration happens on the first push; 100 samples
        // complete no frame, so nothing pends yet.
        let mut a = runtime.open_session();
        let mut b = runtime.open_session();
        let mut c = runtime.open_session();
        a.push_samples(&audio.samples[..100]);
        b.push_samples(&audio.samples[..100]);
        c.push_samples(&audio.samples[..100]);
        // Feed `a` in sub-frame chunks until the window holds a partial
        // batch (pending > 0 and below the 3-row target).
        let mut fed = 100;
        while runtime
            .stats()
            .batch
            .expect("service installed")
            .pending_rows
            == 0
        {
            assert!(
                fed < audio.samples.len(),
                "audio exhausted before a row pended"
            );
            let next = (fed + 170).min(audio.samples.len());
            a.push_samples(&audio.samples[fed..next]);
            fed = next;
        }
        // No submitter will touch the window now; waking the lanes runs
        // the idle hook on their way back to parking, which must drain
        // the partial window inline.
        let pool = Arc::clone(runtime.executor().expect("two lanes"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let batch = runtime.stats().batch.expect("service installed");
            if batch.idle_flushes > 0 && batch.pending_rows == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "idle lanes never flushed the gather window"
            );
            pool.fork_join(2, &|_| {});
            std::thread::yield_now();
        }
        // The drained rows are real scores: the sessions still finalize
        // to the exact batch-path transcripts.
        a.push_samples(&audio.samples[fed..]);
        assert_eq!(a.finalize().words, vec!["go"]);
        drop((b, c));
    }

    #[test]
    fn multi_row_session_migrates_a_pushed_row_into_the_queue() {
        // A row pushed before the first audio push sits in the same
        // queue the overlapped audio rows enter behind it, so it must
        // still be searched first, in order, at every overlap depth.
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(2)).unwrap();
        let audio = runtime.render_words(&["go"]).unwrap();
        let scores = runtime.score(&audio);
        let run = |options: SessionOptions| {
            let mut session = runtime.open_session_with(options);
            session.push_row(scores.frame_row(0));
            for packet in audio.samples.chunks(160) {
                session.push_samples(packet);
            }
            session.finalize()
        };
        let inline = run(SessionOptions::new().overlap_scoring(false));
        for depth in [1usize, 3] {
            let deep = run(SessionOptions::new().overlap_depth(depth));
            assert_eq!(deep.words, inline.words, "depth {depth}");
            assert_eq!(deep.cost.to_bits(), inline.cost.to_bits(), "depth {depth}");
            assert_eq!(deep.reached_final, inline.reached_final, "depth {depth}");
        }
    }

    #[test]
    #[should_panic(expected = "push_row: the row has 3 costs")]
    fn push_row_rejects_a_short_row_at_the_call() {
        // The row is held back before it is searched, so without the
        // check the out-of-bounds read would surface one push later.
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
        assert!(runtime.graph().num_phones() > 3);
        let mut session = runtime.open_session();
        session.push_row(&[0.0; 3]);
    }

    /// A synthetic-graph runtime plus a score table matching the
    /// graph's phone range.
    fn synth_runtime(states: usize, frames: usize, lanes: usize) -> (AsrRuntime, AcousticTable) {
        use asr_wfst::synth::{SynthConfig, SynthWfst};
        let graph = SynthWfst::generate(&SynthConfig::with_states(states)).unwrap();
        let scores = AcousticTable::random(frames, graph.num_phones() as usize, (0.5, 4.0), 17);
        let config = RuntimeConfig::new().lanes(lanes).beam(8.0);
        (
            AsrRuntime::with_graph(graph, demo_lexicon(), config),
            scores,
        )
    }

    #[test]
    fn recognize_scores_is_a_session_at_every_size_and_width() {
        use asr_decoder::search::ViterbiDecoder;
        for lanes in [1usize, 2] {
            let (runtime, scores) = synth_runtime(25_000, 40, lanes);
            let reference =
                ViterbiDecoder::new(DecodeOptions::with_beam(8.0)).decode(runtime.graph(), &scores);
            let got = runtime.recognize_scores(&scores);
            assert_eq!(
                got.words,
                runtime.lexicon().transcript(&reference.words),
                "lanes {lanes}"
            );
            assert_eq!(
                got.cost.to_bits(),
                reference.cost.to_bits(),
                "lanes {lanes}"
            );
            assert_eq!(got.reached_final, reference.reached_final, "lanes {lanes}");
            let stats = runtime.stats();
            assert!(
                stats.executor.is_none(),
                "lanes {lanes}: a pre-scored decode has nothing to fork"
            );
            assert_eq!(stats.active_sessions, 0, "lanes {lanes}");
            assert_eq!(stats.peak_sessions, 1, "lanes {lanes}");
        }
    }

    #[test]
    fn recognize_scores_panics_at_the_call_on_a_narrow_table_and_frees_its_slot() {
        let (runtime, scores) = synth_runtime(2_000, 5, 2);
        let narrow = AcousticTable::from_fn(5, scores.num_phones() - 1, |_, _| 1.0);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runtime.recognize_scores(&narrow)
        }))
        .expect_err("a table one column short must be rejected");
        let message = panic
            .downcast_ref::<String>()
            .expect("assert! panics with a formatted message");
        assert!(message.starts_with("push_row:"), "{message}");
        assert_eq!(runtime.stats().active_sessions, 0, "the slot was freed");
        // The runtime still serves.
        assert!(runtime.recognize_scores(&scores).cost.is_finite());
    }

    #[test]
    fn qos_policy_tiers_floors_and_selection() {
        let policy = QosPolicy::new()
            .tier(0.5, 30.0, None)
            .tier(0.75, 20.0, Some(2048))
            .tier(0.95, 6.0, Some(64))
            .floors(10.0, 256);
        assert_eq!(policy.num_tiers(), 4);
        assert_eq!(policy.select_tier(0.0), 0);
        assert_eq!(policy.select_tier(0.5), 1);
        assert_eq!(policy.select_tier(0.94), 2);
        assert_eq!(policy.select_tier(7.0), 3);
        let base = DecodeOptions::with_beam(40.0);
        assert_eq!(policy.params(0, &base), (40.0, None));
        assert_eq!(policy.params(1, &base), (30.0, None));
        assert_eq!(policy.params(2, &base), (20.0, Some(2048)));
        // The floors bite on the last rung...
        assert_eq!(policy.params(3, &base), (10.0, Some(256)));
        // ...and out-of-range tiers saturate there.
        assert_eq!(policy.params(9, &base), (10.0, Some(256)));
    }

    #[test]
    fn try_open_session_sheds_at_the_limit_and_recovers() {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .qos(QosPolicy::new().max_sessions(2)),
        )
        .unwrap();
        let first = runtime.try_open_session().unwrap();
        let second = runtime.try_open_session().unwrap();
        match runtime.try_open_session() {
            Err(PipelineError::Overloaded { active, limit }) => {
                assert_eq!((active, limit), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = runtime.stats();
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(stats.peak_sessions, 2);
        assert_eq!(stats.shed_sessions, 1);
        assert!(
            stats.pressure >= 1.0,
            "saturated admission shows full pressure, got {}",
            stats.pressure
        );
        // Retiring an in-flight session reopens admission.
        drop(first);
        let third = runtime.try_open_session().unwrap();
        drop(third);
        drop(second);
        let after = runtime.stats();
        assert_eq!(after.active_sessions, 0);
        assert_eq!(after.peak_sessions, 2);
        assert_eq!(after.shed_sessions, 1);
    }

    #[test]
    fn open_session_never_sheds_even_at_the_limit() {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .qos(QosPolicy::new().max_sessions(1)),
        )
        .unwrap();
        let _admitted = runtime.try_open_session().unwrap();
        // The infallible path keeps working past the limit...
        let audio = runtime.render_words(&["go"]).unwrap();
        assert_eq!(runtime.recognize(&audio).words, vec!["go"]);
        // ...while the fallible path sheds.
        assert!(matches!(
            runtime.try_open_session(),
            Err(PipelineError::Overloaded { .. })
        ));
    }

    #[test]
    fn pressure_monitor_times_frames_under_a_policy() {
        let policy = QosPolicy::new().tier(1e9, 5.0, None); // unreachable rung
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1).qos(policy)).unwrap();
        let audio = runtime.render_words(&["go"]).unwrap();
        assert_eq!(runtime.recognize(&audio).words, vec!["go"]);
        let stats = runtime.stats();
        assert!(stats.frames_observed > 0, "frames get timed under a policy");
        assert!(stats.ewma_rtf > 0.0);
        assert_eq!(stats.tier, 0, "unreachable threshold never engages");
        assert_eq!(stats.peak_tier, 0);

        // Without a policy, the frame path is never timed.
        let plain = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1)).unwrap();
        assert_eq!(plain.recognize(&audio).words, vec!["go"]);
        assert_eq!(plain.stats().frames_observed, 0);
        assert_eq!(plain.stats().ewma_rtf, 0.0);
    }

    #[test]
    fn sessions_follow_pins_and_report_tiers() {
        let policy = QosPolicy::new().tier(0.5, 20.0, Some(512)).max_sessions(4);
        let runtime = AsrRuntime::demo_with(RuntimeConfig::new().lanes(1).qos(policy)).unwrap();
        let mut session = runtime.open_session_with(SessionOptions::new().pin_tier(1));
        assert_eq!(session.tier(), 1);
        session.pin_tier(0);
        assert_eq!(session.tier(), 0);
        drop(session);

        let opted_out = runtime.open_session_with(SessionOptions::new().adaptive_qos(false));
        assert_eq!(opted_out.tier(), 0, "QoS-off sessions sit at base");
        drop(opted_out);
    }

    #[test]
    fn config_builder_is_applied() {
        let runtime =
            AsrRuntime::demo_with(RuntimeConfig::new().lanes(3).beam(12.0).frames_per_phone(4))
                .unwrap();
        assert_eq!(runtime.lanes(), 3);
        assert_eq!(runtime.options().beam, 12.0);
        let audio = runtime.render_words(&["go"]).unwrap();
        let t = runtime.recognize(&audio);
        assert_eq!(t.words, vec!["go"]);
    }

    #[test]
    fn lone_batched_session_scores_synchronously() {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .batch_scoring(BatchScoringConfig::new(8)),
        )
        .unwrap();
        let audio = runtime.render_words(&["play", "music"]).unwrap();
        let t = runtime.recognize(&audio);
        assert_eq!(t.words, vec!["play", "music"]);
        let stats = runtime.stats().batch.expect("service configured");
        assert_eq!(stats.batches, 0, "a lone session never waits out a window");
        assert!(stats.single_row_fallbacks > 0);
        assert_eq!(stats.open_slots, 0, "finalize released the slot");
    }

    #[test]
    fn interleaved_batched_sessions_match_unbatched_byte_for_byte() {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .batch_scoring(BatchScoringConfig::new(4)),
        )
        .unwrap();
        let a = runtime.render_words(&["call", "mom"]).unwrap();
        let b = runtime.render_words(&["lights", "off"]).unwrap();
        let run = |batched: bool| {
            let opts = SessionOptions::new().batched_scoring(batched);
            let mut sa = runtime.open_session_with(opts.clone());
            let mut sb = runtime.open_session_with(opts);
            let mut ia = a.samples.chunks(160);
            let mut ib = b.samples.chunks(160);
            loop {
                let pa = ia.next();
                let pb = ib.next();
                if pa.is_none() && pb.is_none() {
                    break;
                }
                if let Some(p) = pa {
                    sa.push_samples(p);
                }
                if let Some(p) = pb {
                    sb.push_samples(p);
                }
            }
            (sa.finalize(), sb.finalize())
        };
        let (ba, bb) = run(true);
        let (ua, ub) = run(false);
        assert_eq!(ba.words, ua.words);
        assert_eq!(ba.cost.to_bits(), ua.cost.to_bits());
        assert_eq!(bb.words, ub.words);
        assert_eq!(bb.cost.to_bits(), ub.cost.to_bits());
        assert_eq!(ba.words, vec!["call", "mom"]);
        assert_eq!(bb.words, vec!["lights", "off"]);
        let stats = runtime.stats().batch.expect("service configured");
        assert!(stats.batches > 0, "two interleaved sessions must batch");
        assert!(stats.widest_batch >= 2);
        assert_eq!(stats.open_slots, 0);
    }

    #[test]
    fn mlp_acoustic_runtime_batches_identically() {
        let config = || {
            RuntimeConfig::new()
                .lanes(1)
                .beam(1.0e9)
                .mlp_acoustic(&[32], 7)
        };
        let batched_rt =
            AsrRuntime::demo_with(config().batch_scoring(BatchScoringConfig::new(8))).unwrap();
        let plain_rt = AsrRuntime::demo_with(config()).unwrap();
        let a = batched_rt.render_words(&["go"]).unwrap();
        let b = batched_rt.render_words(&["stop"]).unwrap();
        let drive = |rt: &AsrRuntime| {
            let mut sa = rt.open_session();
            let mut sb = rt.open_session();
            for (pa, pb) in a.samples.chunks(160).zip(b.samples.chunks(160)) {
                sa.push_samples(pa);
                sb.push_samples(pb);
            }
            let ta = sa.finalize();
            let tb = sb.finalize();
            (ta, tb)
        };
        let (ba, bb) = drive(&batched_rt);
        let (ua, ub) = drive(&plain_rt);
        assert_eq!(ba.cost.to_bits(), ua.cost.to_bits());
        assert_eq!(bb.cost.to_bits(), ub.cost.to_bits());
        assert_eq!(ba.words, ua.words);
        assert_eq!(bb.words, ub.words);
        assert!(batched_rt.stats().batch.unwrap().batches > 0);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_row_batch_window_is_rejected() {
        let _ = BatchScoringConfig::new(0);
    }

    #[test]
    fn dropping_a_batched_session_mid_window_leaves_the_service_healthy() {
        let runtime = AsrRuntime::demo_with(
            RuntimeConfig::new()
                .lanes(1)
                .batch_scoring(BatchScoringConfig::new(16).max_wait_frames(4)),
        )
        .unwrap();
        let keep_audio = runtime.render_words(&["call", "mom"]).unwrap();
        let drop_audio = runtime.render_words(&["stop"]).unwrap();
        let mut keep = runtime.open_session();
        let mut doomed = runtime.open_session();
        // Interleave a few packets so both sessions have rows pending in
        // the shared window, then drop one mid-batch.
        for (pk, pd) in keep_audio
            .samples
            .chunks(160)
            .zip(drop_audio.samples.chunks(160))
            .take(20)
        {
            keep.push_samples(pk);
            doomed.push_samples(pd);
        }
        drop(doomed);
        for pk in keep_audio.samples.chunks(160).skip(20) {
            keep.push_samples(pk);
        }
        let survivor = keep.finalize();
        assert_eq!(survivor.words, vec!["call", "mom"]);
        // The reference: the same audio on an unbatched session.
        let mut unbatched = runtime.open_session_with(SessionOptions::new().batched_scoring(false));
        unbatched.push_samples(&keep_audio.samples);
        let reference = unbatched.finalize();
        assert_eq!(survivor.cost.to_bits(), reference.cost.to_bits());
        assert_eq!(runtime.stats().batch.unwrap().open_slots, 0);
    }
}
