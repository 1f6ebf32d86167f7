//! One run of one workload: set-up, timed rounds, and the metrics.
//!
//! Untraced (`--trace 0`) the run yields the end-to-end metrics. Traced
//! (`--trace 1`) it yields the per-layer metrics: root spans around the
//! runtime calls, then the layer replay with a span per layer call, then
//! a few micro-probes of calls no workload makes in its steady state.

use crate::inputs::{Spec, SWAP_ROWS};
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::replay::{self, Shape};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, Inputs, Samples, Setup};
use asr_decoder::pool::{ScratchPool, WorkerPool};
use asr_decoder::search::DecodeScratch;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall time the timed rounds of a run take, all legs together.
    pub measure: Duration,
    /// Legs of an untraced run: each is one complete set-up followed by
    /// its share of the measuring time (see [`end_to_end`]).
    pub legs: usize,
    /// Rounds of one pass over the distinct inputs instead of the
    /// workload's `ops_per_round`.
    pub short_rounds: bool,
}

impl Budget {
    pub fn full(seconds: u64) -> Self {
        Self {
            measure: Duration::from_secs(seconds),
            legs: 3,
            short_rounds: false,
        }
    }

    /// `--smoke`: one set-up and one short round, same checks.
    pub fn smoke() -> Self {
        Self {
            measure: Duration::ZERO,
            legs: 1,
            short_rounds: true,
        }
    }

    fn round_ops(&self, setup: &Setup) -> usize {
        if self.short_rounds {
            setup.distinct_inputs()
        } else {
            setup.spec.ops_per_round
        }
    }
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Where run artefacts (store images, span files, results) go: `out/`
/// beside the benchmark's manifest, inside the checkout that built it.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One complete set-up: inputs, runtime, oracle, and a warm-up pass of
/// every distinct input through the runtime (so pools are filled, lazy
/// construction is done, and each input is checked once before timing).
fn set_up(spec: &'static Spec, seed: u64) -> (Setup, f64) {
    let start = Instant::now();
    let setup = Setup::new(spec, seed, &out_dir());
    let mut warm = Samples::default();
    setup.run_ops(
        setup.distinct_inputs(),
        &mut warm,
        &mut Tracer::new(false),
        0,
    );
    assert_eq!(
        warm.failed, 0,
        "{}: the runtime disagrees with the oracle during warm-up",
        spec.name
    );
    (setup, start.elapsed().as_secs_f64())
}

fn warn_unsupported(name: &str, n: usize, p: f64) {
    if !stats::supported(n, p) {
        eprintln!(
            "warning: {name}: p{p} over {n} samples has fewer than {} beyond it",
            stats::MIN_BEYOND
        );
    }
}

/// Nearest-rank percentile `p` of `samples` (0 for none), with a warning
/// when the sample cannot support it.
fn pooled(name: &str, samples: &[f64], p: f64) -> f64 {
    warn_unsupported(name, samples.len(), p);
    percentile_or_zero(samples, p)
}

/// The tail of the packet latency: percentile `p` of each round's own
/// packets, then the median of the rounds. A pooled tail percentile *is*
/// the disturbed part of a run — a burst of interference that slows a
/// tenth of the rounds lands entirely beyond the pooled p90 — while the
/// median of per-round tails ignores bursts that hit under half of them.
fn per_round_percentile(samples: &Samples, p: f64) -> f64 {
    let tails: Vec<f64> = samples
        .rounds
        .iter()
        .map(|round| {
            pooled(
                "packet (per round)",
                &samples.packet_us[round.packets.clone()],
                p,
            )
        })
        .collect();
    stats::median(&tails)
}

/// One timed round reduced to the values the end-to-end metrics are
/// taken from.
struct RoundValues {
    frames_per_s: f64,
    cpu_s_per_audio_s: f64,
    packet_p50_us: f64,
    op_p50_ms: f64,
}

/// Runs fixed-work rounds on `setup` for `wall` (at least one) and
/// appends them to `rounds`. The latency samples are reduced round by
/// round and dropped, so a long run holds no more memory than a short one.
fn measure(
    setup: &Setup,
    budget: Budget,
    wall: Duration,
    samples: &mut Samples,
    rounds: &mut Vec<RoundValues>,
) {
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    loop {
        setup.run_ops(budget.round_ops(setup), samples, &mut tracer, 0);
        let round = samples.rounds.pop().expect("the round just run");
        rounds.push(RoundValues {
            frames_per_s: round.frames_per_s(),
            cpu_s_per_audio_s: round.cpu_s_per_audio_s(),
            packet_p50_us: pooled("packet", &samples.packet_us, 50.0),
            op_p50_ms: percentile_or_zero(&samples.op_ms, 50.0),
        });
        samples.packet_us.clear();
        samples.op_ms.clear();
        samples.finalize_us.clear();
        if started.elapsed() >= wall {
            break;
        }
    }
}

/// The untraced run: `budget.legs` legs, each one complete set-up
/// followed by its share of the measuring time in fixed-work rounds.
///
/// Every time-based metric is the **best round's** value (`setup_s`: the
/// fastest set-up). The host is shared: its neighbours slow a round by up
/// to half, in bursts of a fraction of a second to minutes, and nothing
/// ever speeds one up — so among a hundred repetitions of the same work
/// the fastest is the one the neighbours left alone, and it is what
/// repeats from run to run (see the README for the measurements). The
/// legs spread the set-ups over the run for the same reason.
pub fn end_to_end(spec: &'static Spec, seed: u64, budget: Budget) -> Outcome {
    let mut setup_times = Vec::new();
    let mut rounds = Vec::new();
    let mut samples = Samples::default();
    let wall = budget.measure / budget.legs as u32;
    for _ in 0..budget.legs {
        // The previous leg's set-up is gone by now: two 200k-state
        // runtimes side by side would double the peak memory reported.
        let (setup, seconds) = set_up(spec, seed);
        setup_times.push(seconds);
        measure(&setup, budget, wall, &mut samples, &mut rounds);
    }

    let per_round = |f: fn(&RoundValues) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let rates = per_round(|r| r.frames_per_s);
    let frames_per_s = stats::best(&rates, true);
    let values = metrics::zip(
        &END_TO_END,
        &[
            ("setup_s", stats::best(&setup_times, false)),
            ("frames_per_s", frames_per_s),
            (
                "cpu_s_per_audio_s",
                stats::best(&per_round(|r| r.cpu_s_per_audio_s), false),
            ),
            (
                "packet_p50_us",
                stats::best(&per_round(|r| r.packet_p50_us), false),
            ),
            ("op_p50_ms", stats::best(&per_round(|r| r.op_p50_ms), false)),
            ("peak_rss_mib", crate::proc::peak_rss_mib()),
        ],
    );
    eprintln!(
        "{}: {} rounds, frames_per_s best {frames_per_s:.0}, median {:.0} (the host took {:.1} % \
         off the median round); {} operations; RTF per stream {:.3}",
        spec.name,
        rates.len(),
        stats::median(&rates),
        100.0 * (1.0 - stats::median(&rates) / frames_per_s),
        samples.attempted,
        100.0 * spec.streams as f64 / frames_per_s,
    );
    Outcome {
        correct: samples.failed == 0,
        attempted: samples.attempted,
        failed: samples.failed,
        values,
    }
}

/// Durations (µs) of every span called `name`.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    stats::sort(&mut sorted);
    stats::percentile(&sorted, p)
}

/// Median wall time of `f`, in nanoseconds, over `reps` calls.
fn probe_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// The traced run. Half the time goes to the runtime path, alternating
/// untraced and traced rounds (their ratio is the tracing overhead);
/// the other half to traced passes of the layer replay.
pub fn per_layer(spec: &'static Spec, seed: u64, budget: Budget) -> Outcome {
    let (setup, _) = set_up(spec, seed);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut untraced = Samples::default();
    let mut traced = Samples::default();

    let started = Instant::now();
    let mut next_op = 0;
    while untraced.rounds.is_empty() || started.elapsed() < budget.measure / 2 {
        let ops = budget.round_ops(&setup);
        setup.run_ops(ops, &mut untraced, &mut off, 0);
        setup.run_ops(ops, &mut traced, &mut tracer, next_op);
        next_op += ops as u32;
    }
    let runtime_spans = tracer.spans().len();

    // Layer replay: every distinct input, as many passes as fit.
    let started = Instant::now();
    let mut replayed_frames = 0usize;
    let mut replayed_arcs = 0u64;
    let mut replay_failed = 0u64;
    let mut pass = 0;
    while pass == 0 || started.elapsed() < budget.measure / 2 {
        let (frames, arcs, failed) = replay_pass(&setup, &mut tracer, next_op);
        replayed_frames += frames;
        replayed_arcs += arcs;
        replay_failed += failed;
        next_op += setup.distinct_inputs() as u32;
        pass += 1;
    }

    let spans = tracer.spans();
    let self_ns = trace::self_times_ns(spans);
    let self_us_of = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&self_ns)
            .skip(runtime_spans)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e3)
            // An empty float sum is -0.0; adding 0.0 makes it print as 0.
            .sum::<f64>()
            + 0.0
    };
    let replay = &spans[runtime_spans..];
    let frames = replayed_frames as f64;
    let search_us = self_us_of(replay::SPAN_SEARCH_NEW)
        + self_us_of(replay::SPAN_SEARCH_STEP)
        + self_us_of(replay::SPAN_SEARCH_FINISH);
    let replay_wall_us: f64 = durations_us(replay, replay::SPAN_UTTERANCE).iter().sum();
    let steps = durations_us(replay, replay::SPAN_SEARCH_STEP);

    let round_walls = |s: &Samples| -> Vec<f64> { s.rounds.iter().map(|r| r.wall_s).collect() };
    let untraced_wall = stats::median(&round_walls(&untraced));
    let traced_wall = stats::median(&round_walls(&traced));
    let runtime_us_per_frame = 1e6
        / stats::median(
            &untraced
                .rounds
                .iter()
                .map(workload::Round::frames_per_s)
                .collect::<Vec<_>>(),
        );

    let rt = setup.runtime.stats();
    let executor = rt.executor.unwrap_or_default();
    let batch = rt.batch.unwrap_or_default();
    let block = match setup.layers.shape() {
        Shape::Block(rows) => rows as f64,
        Shape::Inline | Shape::Overlap => 1.0,
    };
    let (arcs_per_frame, tokens_per_frame) = setup.arcs_and_tokens_per_frame();
    let states = spec.states;
    let scratch_pool = ScratchPool::new(states);
    scratch_pool.restore(scratch_pool.checkout());
    let image_mib = match &setup.inputs {
        Inputs::Swap { images, .. } => {
            std::fs::metadata(&images[0]).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0))
        }
        Inputs::Audio { .. } | Inputs::Rows { .. } => 0.0,
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let rates = |f: fn(&workload::Round) -> f64| -> Vec<f64> {
        untraced.rounds.iter().map(f).collect::<Vec<_>>()
    };

    let values = metrics::zip(
        &PER_LAYER,
        &[
            (
                "acoustic.frontend.us_per_frame",
                self_us_of(replay::SPAN_FRONTEND) / frames,
            ),
            (
                "acoustic.scoring.us_per_frame",
                (self_us_of(replay::SPAN_SCORE_ROW) + self_us_of(replay::SPAN_SCORE_BLOCK))
                    / frames,
            ),
            (
                "acoustic.scoring.row_us",
                median_or_zero(&durations_us(replay, replay::SPAN_SCORE_ROW)),
            ),
            (
                "acoustic.scoring.macs_per_frame",
                setup
                    .layers
                    .mlp()
                    .map_or(0.0, |m| m.flops_per_frame() as f64),
            ),
            (
                "acoustic.scoring.block16_row_us",
                median_or_zero(&durations_us(replay, replay::SPAN_SCORE_BLOCK)) / block,
            ),
            ("decoder.search.us_per_frame", search_us / frames),
            (
                "decoder.search.step_p50_us",
                percentile_or_zero(&steps, 50.0),
            ),
            (
                "decoder.search.step_p99_us",
                percentile_or_zero(&steps, 99.0),
            ),
            (
                "decoder.search.finish_us",
                median_or_zero(&durations_us(replay, replay::SPAN_SEARCH_FINISH)),
            ),
            ("decoder.search.arcs_per_frame", arcs_per_frame),
            ("decoder.search.tokens_per_frame", tokens_per_frame),
            (
                "decoder.search.ns_per_arc",
                search_us * 1e3 / replayed_arcs as f64,
            ),
            (
                "decoder.search.scratch_new_us",
                probe_ns(5, || DecodeScratch::new(states)) / 1e3,
            ),
            (
                "decoder.pool.scratch_cycle_ns",
                probe_ns(2_000, || scratch_pool.restore(scratch_pool.checkout())),
            ),
            (
                "decoder.pool.fork_join_us",
                if spec.lanes > 1 {
                    let pool = WorkerPool::new(spec.lanes);
                    probe_ns(2_000, || {
                        pool.fork_join(2, &|chunk| {
                            black_box(chunk);
                        })
                    }) / 1e3
                } else {
                    0.0
                },
            ),
            (
                "decoder.pool.lane_take_ratio",
                ratio(executor.tasks_taken_by_lanes, executor.tasks_queued),
            ),
            (
                "decoder.pool.stolen_back",
                executor.tasks_stolen_back as f64,
            ),
            ("decoder.pool.helped", executor.tasks_helped as f64),
            (
                "wfst.store.load_us",
                median_or_zero(&durations_us(spans, replay::SPAN_STORE_LOAD)),
            ),
            ("wfst.store.image_mib", image_mib),
            (
                "runtime.registry.swap_us",
                median_or_zero(&durations_us(spans, workload::SPAN_SWAP)),
            ),
            ("runtime.registry.retired_peak", traced.retired_peak as f64),
            (
                "runtime.session.open_us",
                median_or_zero(&durations_us(spans, workload::SPAN_OPEN)),
            ),
            (
                "runtime.session.packet_p95_us",
                per_round_percentile(&untraced, 95.0),
            ),
            (
                "runtime.session.packet_p99_us",
                percentile_or_zero(&untraced.packet_us, 99.0),
            ),
            (
                "runtime.session.finalize_p50_us",
                percentile_or_zero(&untraced.finalize_us, 50.0),
            ),
            (
                "runtime.session.finalize_p90_us",
                percentile_or_zero(&untraced.finalize_us, 90.0),
            ),
            (
                "runtime.session.op_p90_ms",
                percentile_or_zero(&untraced.op_ms, 90.0),
            ),
            (
                "runtime.session.glue_us_per_frame",
                runtime_us_per_frame - replay_wall_us / frames,
            ),
            (
                "runtime.batch.rows_per_flush",
                ratio(batch.batched_rows, batch.batches),
            ),
            (
                "runtime.batch.fallback_ratio",
                ratio(
                    batch.single_row_fallbacks,
                    batch.batched_rows + batch.single_row_fallbacks,
                ),
            ),
            ("runtime.batch.idle_flushes", batch.idle_flushes as f64),
            (
                "runtime.scratch.cold_checkouts",
                rt.scratch.cold_checkouts as f64,
            ),
            (
                "proc.runqueue_wait_ratio",
                stats::median(&rates(workload::Round::runqueue_wait_ratio)),
            ),
            ("trace.overhead_ratio", traced_wall / untraced_wall),
            (
                "frames_per_s.iqr",
                stats::relative_iqr(&rates(workload::Round::frames_per_s)),
            ),
            (
                "cpu_s_per_audio_s.iqr",
                stats::relative_iqr(&rates(workload::Round::cpu_s_per_audio_s)),
            ),
        ],
    );

    let dir = out_dir();
    let file = dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, trace::to_json(spec.name, spans)))
        .unwrap_or_else(|e| panic!("write {}: {e}", file.display()));
    eprintln!(
        "{}: {} spans ({} runtime, {} replay over {pass} passes) -> {}",
        spec.name,
        spans.len(),
        runtime_spans,
        spans.len() - runtime_spans,
        file.display()
    );

    let failed = untraced.failed + traced.failed + replay_failed;
    Outcome {
        correct: failed == 0,
        attempted: untraced.attempted + traced.attempted + (pass * setup.distinct_inputs()) as u64,
        failed,
        values,
    }
}

/// One traced pass of the layer replay over every distinct input; the
/// replay's transcripts must be byte-identical to the oracle's (and so
/// to the runtime's). Returns frames, arcs, and mismatches.
fn replay_pass(setup: &Setup, tracer: &mut Tracer, first_utt: u32) -> (usize, u64, u64) {
    let layers = &setup.layers;
    let mut frames = 0;
    let mut arcs = 0;
    let mut failed = 0;
    let mut tally = |got: replay::Expected, want: &replay::Expected| {
        frames += got.frames;
        arcs += got.arcs;
        failed += u64::from(&got != want);
    };
    match &setup.inputs {
        Inputs::Audio {
            utterances,
            expected,
        } => {
            for (i, (audio, want)) in utterances.iter().zip(expected).enumerate() {
                tally(
                    layers.replay_audio(audio, tracer, first_utt + i as u32, None),
                    want,
                );
            }
        }
        Inputs::Rows { tables, expected } => {
            for (i, (table, want)) in tables.iter().zip(expected).enumerate() {
                let rows = 0..table.num_frames();
                tally(
                    layers.replay_rows(layers.graph(), table, rows, tracer, first_utt + i as u32),
                    want,
                );
            }
        }
        Inputs::Swap {
            tables,
            images,
            expected,
        } => {
            for (op, [_, want]) in expected.iter().enumerate() {
                let (image, table) = workload::swap_plan(op, images.len(), tables.len());
                let rows = SWAP_ROWS..2 * SWAP_ROWS;
                tally(
                    layers.replay_image(
                        &images[image],
                        &tables[table],
                        rows,
                        tracer,
                        first_utt + op as u32,
                    ),
                    want,
                );
            }
        }
    }
    (frames, arcs, failed)
}
