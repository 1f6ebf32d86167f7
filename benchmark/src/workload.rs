//! Set-up and the runtime path: the workload's operations driven through
//! `AsrRuntime`, closed loop, from one driver thread.
//!
//! An *operation* is one utterance (open → push packets → finalize) or,
//! in `model_swap`, one swap cycle. Every call into the runtime is timed
//! from outside; in a traced round the same intervals are also kept as
//! root spans.

use crate::inputs::{self, Feed, Spec, PACKET, SWAP_MODEL, SWAP_ROWS};
use crate::proc::SchedSample;
use crate::replay::{self, Expected, Layers};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use asr_acoustic::scores::AcousticTable;
use asr_repro::runtime::{
    AsrRuntime, BatchScoringConfig, RuntimeConfig, Session, SessionOptions, Transcript,
};
use asr_wfst::store::GraphImage;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub const SPAN_OP: &str = "op";
pub const SPAN_OPEN: &str = "runtime.open_session";
pub const SPAN_PUSH: &str = "runtime.push";
pub const SPAN_FINALIZE: &str = "runtime.finalize";
pub const SPAN_LOAD: &str = "wfst.store.load";
pub const SPAN_SWAP: &str = "runtime.registry.swap";

/// A workload's generated inputs with the transcripts the oracle expects
/// for them.
pub enum Inputs {
    Audio {
        utterances: Vec<Vec<f32>>,
        expected: Vec<Expected>,
    },
    Rows {
        tables: Vec<AcousticTable>,
        expected: Vec<Expected>,
    },
    Swap {
        tables: Vec<AcousticTable>,
        images: Vec<PathBuf>,
        /// Indexed by `op % expected.len()`: the transcripts of the
        /// session opened before the swap and of the one opened after.
        expected: Vec<[Expected; 2]>,
    },
}

/// Everything one workload needs, ready to run.
pub struct Setup {
    pub spec: &'static Spec,
    pub runtime: AsrRuntime,
    pub layers: Layers,
    pub inputs: Inputs,
    /// Directory holding the swap workload's store images; removed on
    /// drop.
    image_dir: Option<PathBuf>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(dir) = &self.image_dir {
            // Best effort: a leftover directory is ignored by git and
            // overwritten by the next run.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Which image a swap cycle loads, and which table feeds its sessions.
/// Op `k` runs its first session on the image op `k - 1` installed.
pub fn swap_plan(op: usize, images: usize, tables: usize) -> (usize, usize) {
    (op % images, op % tables)
}

impl Setup {
    /// Generates the inputs from `seed`, builds the runtime under test
    /// and the layers beside it, and computes every expected transcript
    /// from the layers.
    pub fn new(spec: &'static Spec, seed: u64, out_dir: &std::path::Path) -> Self {
        let lexicon = inputs::lexicon();
        let graph = inputs::default_graph(spec);
        let mlp_seed = inputs::mlp_seed();

        let mut config = RuntimeConfig::new()
            .lanes(spec.lanes)
            .decode_options(replay::decode_options(spec));
        if spec.feed == Feed::Audio {
            config = config.mlp_acoustic(&inputs::MLP_HIDDEN, mlp_seed);
        }
        if let Some(rows) = spec.batch_rows {
            config = config.batch_scoring(BatchScoringConfig::new(rows));
        }
        // The layers view the same graph; the runtime takes its own copy
        // because `with_graph` wants to own it.
        let layers = Layers::new(spec, &lexicon, Arc::new(graph.clone()), mlp_seed);
        let runtime = AsrRuntime::with_graph(graph, lexicon, config);

        let mut image_dir = None;
        let inputs = match spec.feed {
            Feed::Audio => {
                let utterances = inputs::utterances(seed);
                let expected = utterances.iter().map(|u| layers.oracle_audio(u)).collect();
                Inputs::Audio {
                    utterances,
                    expected,
                }
            }
            Feed::Rows => {
                let tables = inputs::tables(seed);
                let expected = tables
                    .iter()
                    .map(|t| layers.oracle_rows(layers.graph(), t, 0..t.num_frames()))
                    .collect();
                Inputs::Rows { tables, expected }
            }
            Feed::Swap => {
                let tables = inputs::tables(seed);
                let dir = out_dir.join(format!("images-{}", std::process::id()));
                let images = inputs::save_images(spec, &dir);
                image_dir = Some(dir);
                let graphs: Vec<_> = images
                    .iter()
                    .map(|path| {
                        let image = GraphImage::load(path).expect("reload a saved image");
                        Arc::new(image.wfst().clone())
                    })
                    .collect();
                // The model starts on the last image, so op 0's swap to
                // image 0 is a real change.
                let last = GraphImage::load(&images[images.len() - 1]).expect("reload");
                runtime
                    .register_model_image(SWAP_MODEL, last)
                    .expect("register the swap model");
                // The plan repeats with the least common period of the
                // two rotations.
                let period = images.len().max(tables.len());
                assert_eq!(period % images.len(), 0);
                assert_eq!(period % tables.len(), 0);
                let expected = (0..period)
                    .map(|op| {
                        let (image, table) = swap_plan(op, images.len(), tables.len());
                        let before = (image + images.len() - 1) % images.len();
                        let table = &tables[table];
                        [
                            layers.oracle_rows(&graphs[before], table, 0..SWAP_ROWS),
                            layers.oracle_rows(&graphs[image], table, SWAP_ROWS..2 * SWAP_ROWS),
                        ]
                    })
                    .collect();
                Inputs::Swap {
                    tables,
                    images,
                    expected,
                }
            }
        };
        let setup = Self {
            spec,
            runtime,
            layers,
            inputs,
            image_dir,
        };
        // The workloads are sized by the active-set cap; a search that
        // never fans out (a start state leading into a chain of
        // one-arc states) would silently measure nothing.
        let (arcs, _) = setup.arcs_and_tokens_per_frame();
        assert!(
            arcs >= spec.max_active as f64,
            "{}: the search traverses {arcs:.0} arcs per frame, below its cap of {} tokens",
            spec.name,
            spec.max_active
        );
        setup
    }

    /// Mean arcs traversed per frame over the workload's distinct
    /// inputs: the exact size of the search problem.
    pub fn arcs_and_tokens_per_frame(&self) -> (f64, f64) {
        let all: Vec<&Expected> = match &self.inputs {
            Inputs::Audio { expected, .. } | Inputs::Rows { expected, .. } => {
                expected.iter().collect()
            }
            Inputs::Swap { expected, .. } => expected.iter().flatten().collect(),
        };
        let frames: usize = all.iter().map(|e| e.frames).sum();
        let arcs: u64 = all.iter().map(|e| e.arcs).sum();
        let tokens: u64 = all.iter().map(|e| e.tokens).sum();
        (arcs as f64 / frames as f64, tokens as f64 / frames as f64)
    }
}

/// Latency samples pooled over every timed round, plus the per-round
/// totals the rates are computed from.
#[derive(Debug, Default)]
pub struct Samples {
    pub packet_us: Vec<f64>,
    pub finalize_us: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    /// Most retired graphs the registry held at once (traced rounds
    /// only: reading it takes the registry lock).
    pub retired_peak: usize,
}

/// One timed round of fixed work.
#[derive(Debug, Clone)]
pub struct Round {
    pub wall_s: f64,
    pub frames: usize,
    pub sched: SchedSample,
    /// The round's share of [`Samples::packet_us`].
    pub packets: std::ops::Range<usize>,
}

impl Round {
    pub fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.wall_s
    }

    /// CPU seconds (all threads) per second of audio decoded.
    pub fn cpu_s_per_audio_s(&self) -> f64 {
        (self.sched.cpu_ns as f64 * 1e-9) / (self.frames as f64 * 0.01)
    }

    pub fn runqueue_wait_ratio(&self) -> f64 {
        self.sched.wait_ns as f64 / (self.sched.cpu_ns as f64).max(1.0)
    }
}

fn micros(start: Instant, end: Instant) -> f64 {
    (end - start).as_secs_f64() * 1e6
}

fn matches(transcript: &Transcript, expected: &Expected) -> bool {
    transcript.words == expected.words
        && transcript.cost.to_bits() == expected.cost_bits
        && transcript.reached_final == expected.reached_final
}

/// The driver's view of one in-flight stream.
struct Stream<'a> {
    session: Session,
    feed: StreamFeed<'a>,
    cursor: usize,
    expected: &'a Expected,
    op: SpanId,
    opened: Instant,
    utt: u32,
}

#[derive(Clone, Copy)]
enum StreamFeed<'a> {
    Audio(&'a [f32]),
    Rows(&'a AcousticTable),
}

impl Stream<'_> {
    /// Pushes the next packet; `false` once the input is exhausted.
    fn push_next(&mut self, samples: &mut Samples, tracer: &mut Tracer) -> bool {
        let (start, end) = match self.feed {
            StreamFeed::Audio(audio) => {
                let lo = self.cursor * PACKET;
                if lo >= audio.len() {
                    return false;
                }
                let packet = &audio[lo..audio.len().min(lo + PACKET)];
                let start = Instant::now();
                self.session.push_samples(packet);
                (start, Instant::now())
            }
            StreamFeed::Rows(table) => {
                if self.cursor >= table.num_frames() {
                    return false;
                }
                let row = table.frame_row(self.cursor);
                let start = Instant::now();
                self.session.push_row(row);
                (start, Instant::now())
            }
        };
        self.cursor += 1;
        samples.packet_us.push(micros(start, end));
        tracer.record(SPAN_PUSH, start, end, self.op, self.utt);
        true
    }
}

impl<'a> Stream<'a> {
    /// Finalizes the session; returns whether its transcript matched and
    /// when it arrived.
    fn finish(self, samples: &mut Samples, tracer: &mut Tracer) -> (bool, Instant) {
        let start = Instant::now();
        let transcript = self.session.finalize();
        let end = Instant::now();
        samples.finalize_us.push(micros(start, end));
        tracer.record(SPAN_FINALIZE, start, end, self.op, self.utt);
        (matches(&transcript, self.expected), end)
    }
}

impl Setup {
    /// Distinct inputs of the workload: the operations after which its
    /// plan repeats.
    pub fn distinct_inputs(&self) -> usize {
        match &self.inputs {
            Inputs::Audio { expected, .. } | Inputs::Rows { expected, .. } => expected.len(),
            Inputs::Swap { expected, .. } => expected.len(),
        }
    }

    /// Runs `ops` operations through the runtime as one round and appends
    /// its samples. `ops` must be a multiple of [`Setup::distinct_inputs`],
    /// so every round starts from the same state (the swap workload's
    /// model is back on its starting image). `first_op` numbers the
    /// round's operations (the spans' utterance ids).
    pub fn run_ops(&self, ops: usize, samples: &mut Samples, tracer: &mut Tracer, first_op: u32) {
        assert_eq!(ops % self.distinct_inputs(), 0, "partial plan period");
        let first_packet = samples.packet_us.len();
        let sched = SchedSample::now();
        let start = Instant::now();
        let frames = match &self.inputs {
            Inputs::Audio {
                utterances,
                expected,
            } => {
                let feeds: Vec<_> = utterances
                    .iter()
                    .map(|u| StreamFeed::Audio(u.as_slice()))
                    .collect();
                self.run_waves(ops, &feeds, expected, samples, tracer, first_op)
            }
            Inputs::Rows { tables, expected } => {
                let feeds: Vec<_> = tables.iter().map(StreamFeed::Rows).collect();
                self.run_waves(ops, &feeds, expected, samples, tracer, first_op)
            }
            Inputs::Swap {
                tables,
                images,
                expected,
            } => (0..ops)
                .map(|op| {
                    let utt = first_op + op as u32;
                    self.run_swap(op, tables, images, expected, samples, tracer, utt)
                })
                .sum(),
        };
        samples.rounds.push(Round {
            wall_s: start.elapsed().as_secs_f64(),
            frames,
            sched: SchedSample::now().since(sched),
            packets: first_packet..samples.packet_us.len(),
        });
    }

    /// Opens a session under operation span `op` and wraps it with its
    /// feed, starting at packet `cursor`; `None` when the runtime refuses.
    #[allow(clippy::too_many_arguments)]
    fn open_stream<'a>(
        &self,
        options: SessionOptions,
        feed: StreamFeed<'a>,
        cursor: usize,
        expected: &'a Expected,
        op: SpanId,
        utt: u32,
        tracer: &mut Tracer,
    ) -> Option<Stream<'a>> {
        let opened = Instant::now();
        let session = self.runtime.try_open_session_with(options);
        tracer.record(SPAN_OPEN, opened, Instant::now(), op, utt);
        session.ok().map(|session| Stream {
            session,
            feed,
            cursor,
            expected,
            op,
            opened,
            utt,
        })
    }

    fn session_options(&self) -> SessionOptions {
        let mut options = SessionOptions::new();
        if let Some(depth) = self.spec.overlap_depth {
            options = options.overlap_depth(depth);
        }
        options
    }

    /// Drives `ops` utterances in waves of `streams` sessions,
    /// round-robin, one packet per session per turn; a session that runs
    /// out of packets is finalized on the spot, so lifetimes stagger with
    /// the utterance lengths. Returns the frames decoded.
    fn run_waves(
        &self,
        ops: usize,
        feeds: &[StreamFeed<'_>],
        expected: &[Expected],
        samples: &mut Samples,
        tracer: &mut Tracer,
        first_op: u32,
    ) -> usize {
        let mut frames = 0;
        for wave in (0..ops).step_by(self.spec.streams) {
            let mut live: Vec<Stream<'_>> = Vec::with_capacity(self.spec.streams);
            for op in wave..ops.min(wave + self.spec.streams) {
                let input = op % feeds.len();
                let utt = first_op + op as u32;
                samples.attempted += 1;
                let span = tracer.open(SPAN_OP, Instant::now(), NO_PARENT, utt);
                let options = self.session_options();
                let expected = &expected[input];
                match self.open_stream(options, feeds[input], 0, expected, span, utt, tracer) {
                    Some(stream) => live.push(stream),
                    None => {
                        // A refused operation fails; nothing to drive.
                        samples.failed += 1;
                        tracer.close(span, Instant::now());
                    }
                }
            }
            while !live.is_empty() {
                let mut i = 0;
                while i < live.len() {
                    if live[i].push_next(samples, tracer) {
                        i += 1;
                        continue;
                    }
                    let stream = live.remove(i);
                    let (op, opened, op_frames) =
                        (stream.op, stream.opened, stream.expected.frames);
                    let (ok, end) = stream.finish(samples, tracer);
                    samples.op_ms.push(micros(opened, end) / 1e3);
                    tracer.close(op, end);
                    samples.failed += u64::from(!ok);
                    frames += op_frames;
                }
            }
        }
        frames
    }

    /// One swap cycle: a session opens on model `m` and pushes rows; the
    /// next image is loaded and swapped in under it; a second session
    /// opens on the new graph, pushes rows and is finalized (the first
    /// words from the new model); then the first session is finalized,
    /// which retires the old graph. Returns the frames decoded.
    #[allow(clippy::too_many_arguments)]
    fn run_swap(
        &self,
        op: usize,
        tables: &[AcousticTable],
        images: &[PathBuf],
        expected: &[[Expected; 2]],
        samples: &mut Samples,
        tracer: &mut Tracer,
        utt: u32,
    ) -> usize {
        let (image, table) = swap_plan(op, images.len(), tables.len());
        let table = &tables[table];
        let [expect_old, expect_new] = &expected[op % expected.len()];
        let options = || SessionOptions::new().model(SWAP_MODEL);
        samples.attempted += 1;

        let span = tracer.open(SPAN_OP, Instant::now(), NO_PARENT, utt);
        let feed = StreamFeed::Rows(table);
        let mut old = self.open_stream(options(), feed, 0, expect_old, span, utt, tracer);
        if let Some(stream) = &mut old {
            for _ in 0..SWAP_ROWS {
                stream.push_next(samples, tracer);
            }
        }

        let load_start = Instant::now();
        let loaded = GraphImage::load(&images[image]);
        let load_end = Instant::now();
        tracer.record(SPAN_LOAD, load_start, load_end, span, utt);
        let swapped = loaded
            .ok()
            .map(|image| self.runtime.swap_model_image(SWAP_MODEL, image).is_ok());
        tracer.record(SPAN_SWAP, load_end, Instant::now(), span, utt);

        let mut new = self.open_stream(options(), feed, SWAP_ROWS, expect_new, span, utt, tracer);
        if tracer.enabled() {
            samples.retired_peak = samples
                .retired_peak
                .max(self.runtime.stats().retired_models);
        }
        if let Some(stream) = &mut new {
            for _ in 0..SWAP_ROWS {
                stream.push_next(samples, tracer);
            }
        }

        // New graph first: its transcript is the cycle's first words.
        let mut ok = swapped == Some(true);
        let mut frames = 0;
        for (stream, first_words) in [(new, true), (old, false)] {
            let Some(stream) = stream else {
                ok = false;
                continue;
            };
            frames += stream.expected.frames;
            let (matched, end) = stream.finish(samples, tracer);
            if first_words {
                samples.op_ms.push(micros(load_start, end) / 1e3);
            }
            ok &= matched;
        }
        tracer.close(span, Instant::now());
        samples.failed += u64::from(!ok);
        frames
    }
}
