//! The layer replay: the same inputs driven through the layers' public
//! functions, composed the way `Session` composes them.
//!
//! The replay serves two purposes. Untraced, at set-up, it is the
//! **oracle**: every expected transcript is built here, from the layers
//! directly, never from the runtime under test. Traced, each call into a
//! layer is a span, which gives the per-layer times with no probe inside
//! the program.
//!
//! Composition per frame, as in `src/runtime.rs`: `OnlineMfcc` produces a
//! feature frame, the acoustic model scores it into a cost row, and the
//! search consumes the *previous* row (the newest row is held back so the
//! utterance's final row gets `StreamingDecode::finish`'s end-of-utterance
//! treatment).

use crate::inputs::{Feed, Spec, BEAM, MLP_HIDDEN, PACKET};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use asr_acoustic::dnn::Mlp;
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::online::{FrameScorer, MlpScorer, OnlineMfcc};
use asr_acoustic::scores::AcousticTable;
use asr_decoder::pool::{ScratchPool, WorkerPool};
use asr_decoder::search::{DecodeOptions, DecodeResult, ViterbiDecoder};
use asr_decoder::stream::StreamingDecode;
use asr_wfst::lexicon::Lexicon;
use asr_wfst::store::GraphImage;
use asr_wfst::Wfst;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const SPAN_UTTERANCE: &str = "replay.utterance";
pub const SPAN_FRONTEND: &str = "acoustic.frontend";
pub const SPAN_SCORE_ROW: &str = "acoustic.scoring.row";
pub const SPAN_SCORE_BLOCK: &str = "acoustic.scoring.block";
pub const SPAN_SEARCH_NEW: &str = "decoder.search.new";
pub const SPAN_SEARCH_STEP: &str = "decoder.search.step";
pub const SPAN_SEARCH_FINISH: &str = "decoder.search.finish";
pub const SPAN_FORK_JOIN: &str = "decoder.pool.fork_join";
pub const SPAN_STORE_LOAD: &str = "wfst.store.load";

/// What an operation must produce: the transcript, compared by words,
/// the cost's bit pattern, and whether a final state was reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub words: Vec<String>,
    pub cost_bits: u32,
    pub reached_final: bool,
    /// Rows the search consumed: the operation's 10 ms frames.
    pub frames: usize,
    /// Arcs traversed and tokens expanded, exact, from `DecodeStats`.
    pub arcs: u64,
    pub tokens: u64,
}

/// How the acoustic model is invoked, mirroring the session mode the
/// workload runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `MlpScorer::score_into` inline, one row per frame.
    Inline,
    /// `Mlp::score_block_into` over blocks of this many rows (the flush
    /// size of the batched scoring service).
    Block(usize),
    /// One `WorkerPool::fork_join` per frame: the search steps the
    /// held-back row while another lane scores the new one.
    Overlap,
}

/// The search options of a workload, for the runtime under test and the
/// replay alike.
pub fn decode_options(spec: &Spec) -> DecodeOptions {
    DecodeOptions {
        max_active: Some(spec.max_active),
        ..DecodeOptions::with_beam(BEAM)
    }
}

/// The layers a workload's sessions are made of, built from the same
/// seeds as the runtime under test.
pub struct Layers {
    lexicon: Lexicon,
    graph: Arc<Wfst>,
    opts: DecodeOptions,
    /// The acoustic model and front-end configuration; `None` for the
    /// row-fed workloads, which never invoke one.
    acoustic: Option<(Mlp, MfccConfig)>,
    shape: Shape,
    /// The overlap shape's executor.
    pool: Option<WorkerPool>,
    /// Warm search scratches, pooled as the runtime pools them.
    scratch: ScratchPool,
}

impl Layers {
    pub fn new(spec: &Spec, lexicon: &Lexicon, graph: Arc<Wfst>, mlp_seed: u64) -> Self {
        let acoustic = (spec.feed == Feed::Audio).then(|| {
            // The dimensions `AsrRuntime::with_graph` derives for
            // `RuntimeConfig::mlp_acoustic`.
            let mfcc = MfccConfig::default();
            let mut dims = vec![MfccPipeline::new(mfcc).dim()];
            dims.extend_from_slice(&MLP_HIDDEN);
            dims.push(lexicon.num_phones());
            (Mlp::new(&dims, mlp_seed), mfcc)
        });
        let shape = match (spec.batch_rows, spec.overlap_depth) {
            (Some(rows), _) => Shape::Block(rows),
            (None, Some(_)) => Shape::Overlap,
            (None, None) => Shape::Inline,
        };
        Self {
            lexicon: lexicon.clone(),
            scratch: ScratchPool::new(graph.num_states()),
            graph,
            opts: decode_options(spec),
            acoustic,
            shape,
            pool: (shape == Shape::Overlap).then(|| WorkerPool::new(spec.lanes)),
        }
    }

    pub fn mlp(&self) -> Option<&Mlp> {
        self.acoustic.as_ref().map(|(mlp, _)| mlp)
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    pub fn graph(&self) -> &Arc<Wfst> {
        &self.graph
    }

    fn expected(&self, result: &DecodeResult) -> Expected {
        Expected {
            words: self.lexicon.transcript(&result.words),
            cost_bits: result.cost.to_bits(),
            reached_final: result.reached_final,
            frames: result.stats.frames.len(),
            arcs: result.stats.total_arcs(),
            tokens: result
                .stats
                .frames
                .iter()
                .map(|f| f.expanded_tokens as u64)
                .sum(),
        }
    }

    /// The independent second opinion: the batch decoder over the same
    /// rows must agree with the streamed replay bit for bit.
    fn cross_check(&self, graph: &Wfst, rows: &AcousticTable, streamed: &Expected) {
        let batch = self.expected(&ViterbiDecoder::new(self.opts.clone()).decode(graph, rows));
        assert_eq!(
            &batch, streamed,
            "oracle disagreement: ViterbiDecoder::decode and the streamed replay differ"
        );
        assert!(
            f32::from_bits(streamed.cost_bits).is_finite() && streamed.reached_final,
            "oracle decode must end in a final state at finite cost (got {streamed:?})"
        );
    }

    /// Builds the expected transcript of one voice utterance.
    pub fn oracle_audio(&self, samples: &[f32]) -> Expected {
        let mut rows = Vec::new();
        let expected = self.replay_audio(samples, &mut Tracer::new(false), 0, Some(&mut rows));
        let width = self.lexicon.num_phones() + 1;
        let table = AcousticTable::from_fn(rows.len() / width, width, |f, p| rows[f * width + p]);
        self.cross_check(&self.graph, &table, &expected);
        expected
    }

    /// Builds the expected transcript of `rows` of `table` decoded over
    /// `graph`.
    pub fn oracle_rows(
        &self,
        graph: &Arc<Wfst>,
        table: &AcousticTable,
        rows: std::ops::Range<usize>,
    ) -> Expected {
        let expected = self.replay_rows(graph, table, rows.clone(), &mut Tracer::new(false), 0);
        let slice = AcousticTable::from_fn(rows.len(), table.num_phones(), |f, p| {
            table.frame_row(rows.start + f)[p]
        });
        self.cross_check(graph, &slice, &expected);
        expected
    }

    /// Replays one raw-audio utterance through front-end, scoring and
    /// search in the workload's shape. When `rows_out` is given, every
    /// cost row the search consumed is appended to it.
    pub fn replay_audio(
        &self,
        samples: &[f32],
        tracer: &mut Tracer,
        utt: u32,
        rows_out: Option<&mut Vec<f32>>,
    ) -> Expected {
        let (mlp, mfcc_cfg) = self
            .acoustic
            .as_ref()
            .expect("audio replay needs the model");
        let root = tracer.open(SPAN_UTTERANCE, Instant::now(), NO_PARENT, utt);
        let mut mfcc = OnlineMfcc::new(*mfcc_cfg);
        let dim = mfcc.dim();
        let row_len = mlp.output_dim() + 1;
        let mut feat = vec![0.0f32; dim];
        let mut row = vec![0.0f32; row_len];
        let mut scorer = MlpScorer::new(mlp);
        // The block shape scores once the window is full; the features
        // wait here meanwhile.
        let mut window: Vec<f32> = Vec::new();
        let mut search = HeldBackSearch::new(
            self,
            Arc::clone(&self.graph),
            row_len,
            rows_out,
            tracer,
            root,
            utt,
        );

        let mut packets = samples.chunks(PACKET);
        loop {
            let t = Instant::now();
            match packets.next() {
                Some(packet) => mfcc.push_samples(packet),
                None if !mfcc.is_finished() => mfcc.finish(),
                None => break,
            }
            tracer.record(SPAN_FRONTEND, t, Instant::now(), root, utt);
            loop {
                let t = Instant::now();
                let popped = mfcc.pop_frame_into(&mut feat);
                tracer.record(SPAN_FRONTEND, t, Instant::now(), root, utt);
                if !popped {
                    break;
                }
                match self.shape {
                    Shape::Block(_) => window.extend_from_slice(&feat),
                    Shape::Overlap if search.has_front => {
                        self.overlapped_frame(&mut search, &mut scorer, &feat, &mut row, tracer);
                    }
                    Shape::Inline | Shape::Overlap => {
                        search.score_and_push(&mut scorer, &feat, &mut row, tracer);
                    }
                }
            }
        }

        if let Shape::Block(block) = self.shape {
            // Full windows take the block forward pass; the short tail is
            // scored row by row, like the service's lone-session fallback.
            let mut out = vec![0.0f32; block * row_len];
            let mut scratch = vec![0.0f32; mlp.block_scratch_len(block)];
            let mut blocks = window.chunks_exact(block * dim);
            for feats in &mut blocks {
                let t = Instant::now();
                mlp.score_block_into(feats, block, &mut out, &mut scratch);
                tracer.record(SPAN_SCORE_BLOCK, t, Instant::now(), root, utt);
                for scored in out.chunks_exact(row_len) {
                    search.push(scored, tracer);
                }
            }
            for feat in blocks.remainder().chunks_exact(dim) {
                search.score_and_push(&mut scorer, feat, &mut row, tracer);
            }
        }

        let expected = search.finish(tracer);
        tracer.close(root, Instant::now());
        expected
    }

    /// One frame of the overlap shape: `fork_join(2)` with the search
    /// step on chunk 0 and the scoring of the new row on chunk 1, as
    /// `Session::score_and_stage` runs them. The scored row then becomes
    /// the held-back row.
    fn overlapped_frame(
        &self,
        search: &mut HeldBackSearch<'_>,
        scorer: &mut MlpScorer<'_>,
        feat: &[f32],
        row: &mut [f32],
        tracer: &mut Tracer,
    ) {
        let pool = self.pool.as_ref().expect("overlap shape has a pool");
        let front: &[f32] = &search.front;
        let step_slot = Mutex::new((&mut search.decode, None));
        let score_slot = Mutex::new((scorer, &mut *row, None));
        let t = Instant::now();
        pool.fork_join(2, &|chunk| {
            if chunk == 0 {
                let mut slot = step_slot.lock().expect("step slot");
                let t = Instant::now();
                slot.0.step(front);
                slot.1 = Some((t, Instant::now()));
            } else {
                let mut slot = score_slot.lock().expect("score slot");
                let (scorer, row, times) = &mut *slot;
                let t = Instant::now();
                scorer.score_into(feat, row);
                *times = Some((t, Instant::now()));
            }
        });
        let end = Instant::now();
        let (_, step) = step_slot.into_inner().expect("step slot");
        let (_, _, score) = score_slot.into_inner().expect("score slot");
        let join = tracer.record(SPAN_FORK_JOIN, t, end, search.root, search.utt);
        let (s0, s1) = step.expect("chunk 0 ran");
        tracer.record(SPAN_SEARCH_STEP, s0, s1, join, search.utt);
        let (c0, c1) = score.expect("chunk 1 ran");
        tracer.record(SPAN_SCORE_ROW, c0, c1, join, search.utt);
        search.hold(row);
    }

    /// Replays `rows` of a pre-scored table through the search over
    /// `graph`.
    pub fn replay_rows(
        &self,
        graph: &Arc<Wfst>,
        table: &AcousticTable,
        rows: std::ops::Range<usize>,
        tracer: &mut Tracer,
        utt: u32,
    ) -> Expected {
        let root = tracer.open(SPAN_UTTERANCE, Instant::now(), NO_PARENT, utt);
        let expected = self.search_rows(graph, table, rows, tracer, root, utt);
        tracer.close(root, Instant::now());
        expected
    }

    /// Replays the layer half of a swap cycle: load the image, then
    /// decode `rows` over the graph it views.
    pub fn replay_image(
        &self,
        image: &Path,
        table: &AcousticTable,
        rows: std::ops::Range<usize>,
        tracer: &mut Tracer,
        utt: u32,
    ) -> Expected {
        let root = tracer.open(SPAN_UTTERANCE, Instant::now(), NO_PARENT, utt);
        let t = Instant::now();
        let loaded = GraphImage::load(image).expect("load a store image the set-up wrote");
        tracer.record(SPAN_STORE_LOAD, t, Instant::now(), root, utt);
        let graph = Arc::new(loaded.wfst().clone());
        let expected = self.search_rows(&graph, table, rows, tracer, root, utt);
        tracer.close(root, Instant::now());
        expected
    }

    fn search_rows(
        &self,
        graph: &Arc<Wfst>,
        table: &AcousticTable,
        rows: std::ops::Range<usize>,
        tracer: &mut Tracer,
        root: SpanId,
        utt: u32,
    ) -> Expected {
        let width = table.num_phones();
        let mut search =
            HeldBackSearch::new(self, Arc::clone(graph), width, None, tracer, root, utt);
        for r in rows {
            search.push(table.frame_row(r), tracer);
        }
        search.finish(tracer)
    }
}

/// The search half of a session: `StreamingDecode` behind a one-row
/// hold-back, so the utterance's final row reaches `finish` instead of
/// `step` — the protocol `Session` implements with its `AlbHandoff`.
struct HeldBackSearch<'a> {
    layers: &'a Layers,
    decode: StreamingDecode<Arc<Wfst>>,
    front: Vec<f32>,
    has_front: bool,
    rows_out: Option<&'a mut Vec<f32>>,
    root: SpanId,
    utt: u32,
}

impl<'a> HeldBackSearch<'a> {
    fn new(
        layers: &'a Layers,
        graph: Arc<Wfst>,
        row_len: usize,
        rows_out: Option<&'a mut Vec<f32>>,
        tracer: &mut Tracer,
        root: SpanId,
        utt: u32,
    ) -> Self {
        let t = Instant::now();
        let decode = StreamingDecode::new(graph, layers.opts.clone(), layers.scratch.checkout());
        tracer.record(SPAN_SEARCH_NEW, t, Instant::now(), root, utt);
        Self {
            layers,
            decode,
            front: vec![0.0; row_len],
            has_front: false,
            rows_out,
            root,
            utt,
        }
    }

    /// Steps the search over the held-back row, then holds `row` back.
    fn push(&mut self, row: &[f32], tracer: &mut Tracer) {
        if self.has_front {
            let t = Instant::now();
            self.decode.step(&self.front);
            tracer.record(SPAN_SEARCH_STEP, t, Instant::now(), self.root, self.utt);
        }
        self.hold(row);
    }

    /// Scores `feat` into `row` inline, then pushes the row.
    fn score_and_push(
        &mut self,
        scorer: &mut MlpScorer<'_>,
        feat: &[f32],
        row: &mut [f32],
        tracer: &mut Tracer,
    ) {
        let t = Instant::now();
        scorer.score_into(feat, row);
        tracer.record(SPAN_SCORE_ROW, t, Instant::now(), self.root, self.utt);
        self.push(row, tracer);
    }

    /// Holds `row` back without stepping (the caller already stepped the
    /// previous one).
    fn hold(&mut self, row: &[f32]) {
        self.front.copy_from_slice(row);
        self.has_front = true;
        if let Some(out) = self.rows_out.as_deref_mut() {
            out.extend_from_slice(row);
        }
    }

    fn finish(self, tracer: &mut Tracer) -> Expected {
        let t = Instant::now();
        let (result, scratch) = self
            .decode
            .finish(self.has_front.then_some(self.front.as_slice()));
        tracer.record(SPAN_SEARCH_FINISH, t, Instant::now(), self.root, self.utt);
        self.layers.scratch.restore(scratch);
        self.layers.expected(&result)
    }
}
