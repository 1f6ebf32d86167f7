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
//! hoarding a private thread set. Cloning the runtime handle is an
//! `Arc` bump; all clones share the same pools and executor.
//!
//! This module holds the handle, its construction and configuration,
//! the error and stats types, and the acoustic model behind every
//! scoring call. Each serving subsystem is a module that owns its own
//! protocol and is handed what it needs (the model) as arguments;
//! everything public is re-exported here. The executor has one tenant:
//! a session's Section VI score/search overlap
//! ([`asr_decoder::stream::AlbQueue::advance`]). Batch flushes run on the
//! thread that triggers them, and admission never reads the executor.
//!
//! | module | owns |
//! |---|---|
//! | `session` | [`Session`] / [`SessionOptions`]: the one frame loop, its row sources (pre-scored rows, inline / overlapped / batched audio scoring) and the ALB handoff — Section VI pipelining, byte-identical to the sequential path |
//! | `admission` | the session count and [`RuntimeConfig::max_sessions`]: [`AsrRuntime::try_open_session`] sheds with [`PipelineError::Overloaded`] at the limit |
//! | `batch` | [`BatchScoringConfig`]: the cross-session gather window, its one block forward pass per flush, and the per-session slots rows scatter back to — byte-identical per session for any batch composition |
//! | `registry` | named models ([`AsrRuntime::register_model_image`], [`AsrRuntime::swap_model_image`], [`SessionOptions::model`]): sessions resolve a name once at open, replaced graphs retire when their last session drops |
//!
//! # Entry points, unified
//!
//! Batch, pre-scored, and raw-audio recognition are all one code path:
//! [`AsrRuntime::recognize`] and [`AsrRuntime::recognize_scores`] are
//! one-shot sessions internally, so every equivalence pinned for
//! sessions (byte-identity to the batch decoder, zero steady-state
//! allocations per frame) covers the batch API for free.
//! [`AsrRuntime::stats`] exposes the whole signal chain
//! ([`RuntimeStats`]): active/peak/shed sessions, the scratch-pool,
//! executor and batch-service counters, and the registry's per-model
//! counts.

mod admission;
mod batch;
mod registry;
mod session;
#[cfg(test)]
mod tests;

pub use batch::{BatchScoringConfig, BatchScoringStats};
pub use registry::ModelStats;
pub use session::{Hypothesis, Session, SessionOptions};

use admission::Admission;
use asr_acoustic::dnn::Mlp;
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::{SignalConfig, Utterance};
use asr_acoustic::template::TemplateScorer;
use asr_decoder::pool::{ScratchPool, ScratchPoolStats, WorkerPool, WorkerPoolStats};
use asr_decoder::search::DecodeOptions;
use asr_decoder::wer;
use asr_wfst::compose::build_decoding_graph;
use asr_wfst::grammar::Grammar;
use asr_wfst::lexicon::{demo_lexicon, Lexicon};
use asr_wfst::{PhoneId, Wfst, WfstError, WordId};
use batch::BatchService;
use registry::ModelRegistry;
use session::SessionFrontend;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Errors from runtime (or pipeline) construction or use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Underlying WFST construction failed.
    Wfst(WfstError),
    /// A word is not in the runtime's lexicon.
    UnknownWord(String),
    /// Admission control refused a new session: the runtime is at its
    /// [`RuntimeConfig::max_sessions`] limit. Returned by
    /// [`AsrRuntime::try_open_session`] — never a panic — so callers
    /// can shed load (reject, retry later, fail over) while every
    /// in-flight session runs to completion.
    Overloaded {
        /// Sessions in flight when admission was refused.
        active: usize,
        /// The configured session limit.
        limit: usize,
    },
    /// [`SessionOptions::model`] named a model the registry does not
    /// hold.
    UnknownModel(String),
    /// [`AsrRuntime::register_model_image`] was given a name the
    /// registry already holds (use [`AsrRuntime::swap_model_image`] to
    /// replace a live model).
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

/// A point-in-time snapshot of the runtime's serving state, from
/// [`AsrRuntime::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// Sessions currently in flight.
    pub active_sessions: usize,
    /// High-water mark of concurrent sessions.
    pub peak_sessions: usize,
    /// Sessions refused by [`AsrRuntime::try_open_session`].
    pub shed_sessions: u64,
    /// Scratch-pool counters (cold checkouts vs warm restores).
    pub scratch: ScratchPoolStats,
    /// Executor scheduling counters, when the shared pool has been
    /// spun up (`None` on one-lane runtimes or before first use).
    pub executor: Option<WorkerPoolStats>,
    /// Batched-scoring counters, when the runtime has a
    /// [`BatchScoringConfig`] installed.
    pub batch: Option<BatchScoringStats>,
    /// Per-model registry counters, one entry per registered model (the
    /// construction-time default graph is not listed — its sessions are
    /// the `active_sessions` remainder).
    pub models: Vec<ModelStats>,
    /// Total graph bytes resident for the registered models: their
    /// store images' bytes.
    pub resident_model_bytes: usize,
    /// Swapped-out graphs still held alive by in-flight
    /// sessions; each is freed (and leaves this count) when its last
    /// session drops.
    pub retired_models: usize,
}

/// The runtime's acoustic model: the template prototype scorer (the
/// functional default) or a seeded MLP (the realistic DNN compute
/// shape). Both expose the same two entry points — whole waveform and
/// row block — with every row of a block bit-identical to that row
/// scored alone (the foundation the determinism of batching and of
/// multi-row overlap rests on).
///
/// The model's *shape* — row width, feature width, MFCC configuration,
/// block scratch — follows from the [`RuntimeConfig`] and the lexicon,
/// so construction, the registry's compatibility check, the batch
/// service and every session that pushes pre-scored rows read it without
/// a scorer existing. The scorer itself is built by the first call that
/// scores audio: a runtime fed only rows (the accelerator's ALB
/// interface: scores in, words out) never renders a phone template or
/// draws a weight.
#[derive(Debug)]
struct AcousticModel {
    spec: AcousticSpec,
    /// Phones scored per frame (the epsilon column excluded).
    num_phones: usize,
    mfcc: MfccConfig,
    /// Widest activation of the block forward pass; `0` for the template
    /// model, which scores a block without scratch.
    block_width: usize,
    scorer: OnceLock<Scorer>,
}

/// The built scorer behind an [`AcousticModel`].
#[derive(Debug)]
enum Scorer {
    Template(TemplateScorer),
    Mlp { mlp: Mlp, pipeline: MfccPipeline },
}

impl AcousticModel {
    /// The model `spec` describes over `num_phones` phones, unbuilt.
    fn new(spec: AcousticSpec, num_phones: usize) -> Self {
        let mfcc = MfccConfig::default();
        let block_width = match &spec {
            AcousticSpec::Template => 0,
            // The MLP's layer widths are `[feat_dim, hidden.., phones]`.
            AcousticSpec::Mlp { hidden, .. } => hidden
                .iter()
                .copied()
                .chain([mfcc.dim(), num_phones])
                .max()
                .unwrap_or(0),
        };
        Self {
            spec,
            num_phones,
            mfcc,
            block_width,
            scorer: OnceLock::new(),
        }
    }

    /// The scorer, built on first use (concurrent first callers wait for
    /// one build).
    fn scorer(&self) -> &Scorer {
        self.scorer.get_or_init(|| match &self.spec {
            AcousticSpec::Template => {
                let t = TemplateScorer::with_default_signal(self.num_phones as u32);
                debug_assert_eq!(*t.mfcc_config(), self.mfcc);
                Scorer::Template(t)
            }
            AcousticSpec::Mlp { hidden, seed } => {
                let pipeline = MfccPipeline::new(self.mfcc);
                let mut dims = vec![pipeline.dim()];
                dims.extend_from_slice(hidden);
                dims.push(self.num_phones);
                let mlp = Mlp::new(&dims, *seed);
                debug_assert_eq!(mlp.block_scratch_len(1), self.block_scratch_len(1));
                Scorer::Mlp { mlp, pipeline }
            }
        })
    }

    /// The MFCC configuration session front-ends must extract with.
    fn mfcc_config(&self) -> &MfccConfig {
        &self.mfcc
    }

    /// Feature vector width of one frame.
    fn feat_dim(&self) -> usize {
        self.mfcc.dim()
    }

    /// Width of one acoustic cost row (phones + the epsilon column).
    fn row_len(&self) -> usize {
        self.num_phones + 1
    }

    /// Batch-scores a whole waveform (the one-shot [`AsrRuntime::score`]
    /// path).
    fn score_waveform(&self, samples: &[f32]) -> AcousticTable {
        match self.scorer() {
            Scorer::Template(t) => t.score_waveform(samples),
            Scorer::Mlp { mlp, pipeline } => mlp.score_utterance(&pipeline.process(samples)),
        }
    }

    /// Exact scratch length the block path needs for `rows` frames: two
    /// ping-pong activation planes of the widest layer for the MLP.
    fn block_scratch_len(&self, rows: usize) -> usize {
        2 * rows * self.block_width
    }

    /// Scores a packed block of `rows` feature vectors into packed cost
    /// rows — the runtime's one scoring call. Each row is bit-identical
    /// whatever block it rides in, a one-row block included.
    fn score_block_into(&self, feats: &[f32], rows: usize, out: &mut [f32], scratch: &mut [f32]) {
        match self.scorer() {
            Scorer::Template(t) => {
                debug_assert!(
                    scratch.is_empty(),
                    "template block scoring takes no scratch"
                );
                t.score_block_into(feats, rows, out);
            }
            Scorer::Mlp { mlp, .. } => mlp.score_block_into(feats, rows, out, scratch),
        }
    }
}

/// Construction-time configuration for an [`AsrRuntime`], as a builder.
///
/// ```
/// use asr_repro::decoder::search::DecodeOptions;
/// use asr_repro::runtime::{AsrRuntime, RuntimeConfig};
///
/// let config = RuntimeConfig::new()
///     .lanes(2)
///     .decode_options(DecodeOptions::with_beam(40.0));
/// let runtime = AsrRuntime::demo_with(config)?;
/// assert_eq!(runtime.lanes(), 2);
/// # Ok::<(), asr_repro::PipelineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    lanes: usize,
    options: DecodeOptions,
    max_sessions: usize,
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
    /// Machine-sized executor, the demo beam, unlimited admission.
    fn default() -> Self {
        Self {
            lanes: WorkerPool::default_lanes(),
            options: DecodeOptions::with_beam(40.0),
            max_sessions: 0,
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

    /// Replaces the full beam-search option set.
    pub fn decode_options(mut self, options: DecodeOptions) -> Self {
        self.options = options;
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
    /// Session counts and the admission limit.
    admission: Admission,
    /// The multi-model registry (empty until a model is registered; the
    /// construction-time `graph` stays the unnamed default).
    models: Mutex<ModelRegistry>,
}

impl RuntimeInner {
    /// The shared fork-join executor, or `None` on a one-lane runtime
    /// (which never spawns worker threads). Spun up lazily on first
    /// call; every overlapping session shares it.
    fn executor(&self) -> Option<&Arc<WorkerPool>> {
        let spawn = || Arc::new(WorkerPool::new(self.lanes));
        (self.lanes > 1).then(|| self.executor.get_or_init(spawn))
    }

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
            None => SessionFrontend::new(*self.model.mfcc_config()),
        }
    }

    /// Returns a front-end to the pool for the next raw-audio session.
    fn restore_frontend(&self, frontend: SessionFrontend) {
        self.frontend_pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(frontend);
    }
}

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
    fn with_config(
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
    ///
    /// Construction builds no acoustic model: the scorer (templates
    /// rendered for every phone, or the MLP's weights) is built by the
    /// first call that scores audio — [`AsrRuntime::score`], or a
    /// session fed [`Session::push_samples`] — so a runtime whose
    /// sessions only push rows never pays for one.
    pub fn with_graph(graph: Wfst, lexicon: Lexicon, config: RuntimeConfig) -> Self {
        let graph = Arc::new(graph);
        let model = AcousticModel::new(config.acoustic, lexicon.num_phones());
        let batch = config
            .batch
            .as_ref()
            .map(|cfg| BatchService::new(cfg.clone(), &model));
        let scratch_pool = ScratchPool::new(graph.num_states());
        let models = Mutex::new(ModelRegistry::new(model.row_len() as u32));
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
                admission: Admission::new(config.max_sessions),
                models,
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

    /// A point-in-time snapshot of the serving state: session counts,
    /// shed counts, scratch-pool counters, and the executor's scheduling
    /// counters. Reading stats never spawns the
    /// executor — `executor` is `None` until some decode first needs
    /// the pool (and always on one-lane runtimes).
    pub fn stats(&self) -> RuntimeStats {
        let executor = self.inner.executor.get();
        let (models, resident_model_bytes, retired_models) = self.registry().stats();
        RuntimeStats {
            models,
            resident_model_bytes,
            retired_models,
            scratch: self.inner.scratch_pool.stats(),
            executor: executor.map(|pool| pool.stats()),
            batch: self.inner.batch.as_ref().map(BatchService::stats),
            ..self.inner.admission.stats()
        }
    }

    /// Renders a synthetic utterance speaking `words`, six frames
    /// (60 ms) per phone.
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
        const FRAMES_PER_PHONE: usize = 6;
        Ok(Utterance::render(
            &phones,
            FRAMES_PER_PHONE,
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
    /// shared pool — the same admission accounting and search as any
    /// other session, for every graph size and executor width.
    /// Pre-scored rows leave nothing to overlap, so, like every row-fed
    /// session, it takes no executor handle: a multi-lane runtime that
    /// only ever decodes tables never spawns its worker threads.
    ///
    /// # Panics
    ///
    /// Panics like [`Session::push_row`] if the table has fewer columns
    /// than the graph's phone-label range.
    pub fn recognize_scores(&self, scores: &AcousticTable) -> Transcript {
        let mut session = self.open_session();
        session.push_frames(scores);
        session.finalize()
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
