//! Cross-session batched scoring benchmark: what the gather window buys.
//!
//! Measures aggregate scored-frames-per-second for N concurrent sessions
//! on an MLP acoustic runtime, batched (all sessions share the runtime's
//! gather window, one block forward pass per window) versus per-session
//! (`batched_scoring(false)`, every frame its own forward pass). Both
//! modes run on the **same runtime** — same weights, same graph — and are
//! driven identically: one thread, round-robin, one 160-sample packet per
//! session per turn, so the delta isolates the batched block pass from
//! scheduling effects.
//!
//! The win mechanism is weight reuse. Inline and batched scoring run
//! the same dense kernel under one pinned fold order (16 striped lanes,
//! see `asr_acoustic::dnn`), so a lone frame is bound by streaming the
//! weight matrix; the block pass dots each weight row against every row
//! of the window (two at a time, sharing each weight load) and so
//! streams the matrix once per window instead of once per row — the
//! same batching economics the paper's accelerator exploits in its DNN
//! pipeline, applied across sessions instead of across time.
//!
//! Every finalized transcript in both modes is checked byte-for-byte
//! (words + cost bits) against the runtime's batch `recognize` path;
//! `equivalent` reports the conjunction.
//!
//! Results are spliced into `BENCH_decode.json` (section `"batch"`), with
//! `batched_speedup_at_8_sessions` as the acceptance headline (recorded
//! as 0.0 / failed when the `--sessions` list never reaches 8 — an
//! unmeasured point is not a pass).
//!
//! ```text
//! cargo run --release -p asr-bench --bin bench_batch [-- --sessions 1,2,4,8,16,32,64]
//! ```

use asr_repro::runtime::{
    AsrRuntime, BatchScoringConfig, RuntimeConfig, Session, SessionOptions, Transcript,
};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Samples per push: one 10 ms hop at 16 kHz, the paper's frame cadence.
const PACKET: usize = 160;
/// Hidden layers of the benchmark MLP. Sized so acoustic scoring
/// (~290k MACs/frame, ~1.2 MB of weights) dominates the frame loop;
/// the demo graph keeps the search side cheap so the measurement
/// isolates the block pass.
const HIDDEN: [usize; 2] = [512, 512];
const MLP_SEED: u64 = 0xBA7C;
/// Gather window capacity — covers the widest sweep point; the window's
/// self-sizing flush target keeps smaller session counts from waiting.
const WINDOW: usize = 64;
/// Timed walls per sweep point, interleaved batched/per-session; best
/// wall wins on each side.
const WALLS: usize = 5;

#[derive(Debug, Clone, Serialize)]
struct Sample {
    seconds: f64,
    frames_per_second: f64,
}

/// One point of the sweep: `sessions` concurrent sessions, batched vs
/// per-session scoring.
#[derive(Debug, Clone, Serialize)]
struct SweepPoint {
    sessions: usize,
    /// Sessions share the gather window; flushes run one block forward
    /// pass over every pending row.
    batched: Sample,
    /// `batched_scoring(false)`: each session scores its own frames
    /// inline, one forward pass per frame.
    per_session: Sample,
    /// batched over per_session throughput.
    batched_vs_per_session_speedup: f64,
    /// Every transcript in both modes matched the batch `recognize`
    /// reference byte-for-byte (words + cost bits).
    equivalent: bool,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    benchmark: String,
    unit: String,
    hidden_layers: Vec<usize>,
    window_rows: usize,
    frames_per_utterance: usize,
    packet_samples: usize,
    sweep: Vec<SweepPoint>,
    /// The acceptance headline: batched over per-session throughput at
    /// the 8-session point. 0.0 when the `--sessions` list never
    /// measured 8 sessions.
    batched_speedup_at_8_sessions: f64,
    /// An 8+-session point was measured AND batched scoring beat the
    /// per-session path on every such point. `false` when unmeasured.
    batched_wins_at_8_plus_sessions: bool,
    /// Widest batch the service actually assembled across the run.
    widest_batch: usize,
}

fn check(t: &Transcript, expected: &Transcript, equivalent: &mut bool) {
    if t.words != expected.words || t.cost.to_bits() != expected.cost.to_bits() {
        *equivalent = false;
    }
}

/// One wall: `sessions` sessions opened in `batched` mode, driven
/// round-robin on this thread one packet each per turn, then finalized.
/// Returns the wall seconds; every transcript is checked against
/// `expected`.
fn one_wall(
    runtime: &AsrRuntime,
    audio: &[f32],
    sessions: usize,
    batched: bool,
    expected: &Transcript,
    equivalent: &mut bool,
) -> f64 {
    let opts = SessionOptions::new().batched_scoring(batched);
    let chunks: Vec<&[f32]> = audio.chunks(PACKET).collect();
    let start = Instant::now();
    let mut open: Vec<Session> = (0..sessions)
        .map(|_| runtime.open_session_with(opts.clone()))
        .collect();
    for piece in &chunks {
        for session in &mut open {
            session.push_samples(piece);
        }
    }
    for session in open {
        check(&session.finalize(), expected, equivalent);
    }
    start.elapsed().as_secs_f64()
}

fn sweep_point(
    runtime: &AsrRuntime,
    audio: &[f32],
    sessions: usize,
    frames: usize,
    expected: &Transcript,
) -> SweepPoint {
    let mut equivalent = true;
    // Warm both modes (slots, ready queues, pooled front-ends, decode
    // scratches at this concurrency), then interleave the timed walls so
    // machine drift cancels out of the comparison.
    one_wall(runtime, audio, sessions, true, expected, &mut equivalent);
    one_wall(runtime, audio, sessions, false, expected, &mut equivalent);
    let (mut batched_best, mut per_session_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..WALLS {
        batched_best = batched_best.min(one_wall(
            runtime,
            audio,
            sessions,
            true,
            expected,
            &mut equivalent,
        ));
        per_session_best = per_session_best.min(one_wall(
            runtime,
            audio,
            sessions,
            false,
            expected,
            &mut equivalent,
        ));
    }

    let total_frames = (sessions * frames) as f64;
    let batched = Sample {
        seconds: batched_best,
        frames_per_second: total_frames / batched_best,
    };
    let per_session = Sample {
        seconds: per_session_best,
        frames_per_second: total_frames / per_session_best,
    };
    SweepPoint {
        sessions,
        batched_vs_per_session_speedup: batched.frames_per_second / per_session.frames_per_second,
        batched,
        per_session,
        equivalent,
    }
}

/// `--sessions 1,2,4,8` override for the sweep's concurrency levels.
fn sweep_sessions_from_args() -> Vec<usize> {
    let default = vec![1, 2, 4, 8, 16, 32, 64];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--sessions" {
            if let Some(list) = args.next() {
                let parsed: Vec<usize> = list
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .filter(|&k| k > 0)
                    .collect();
                if !parsed.is_empty() {
                    return parsed;
                }
            }
        }
    }
    default
}

fn main() {
    asr_bench::banner(
        "bench_batch",
        "cross-session batched acoustic scoring vs per-session forward passes",
        "Section IV-B (DNN pipeline batching economics), serving twin",
    );
    let runtime = AsrRuntime::demo_with(
        RuntimeConfig::new()
            .lanes(1)
            .mlp_acoustic(&HIDDEN, MLP_SEED)
            .batch_scoring(BatchScoringConfig::new(WINDOW)),
    )
    .expect("demo runtime");
    let audio = runtime
        .render_words(&["call", "mom", "play", "music"])
        .expect("render demo utterance");
    let frames = runtime.score(&audio).num_frames();
    // The MLP's weights are random, so the *content* of the transcript is
    // noise; what the benchmark pins is that every session in both modes
    // reproduces this reference byte-for-byte.
    let expected = runtime.recognize(&audio);
    assert!(
        expected.cost.is_finite(),
        "reference decode must survive the beam"
    );

    let sweep_sessions = sweep_sessions_from_args();
    println!(
        "\nMLP {HIDDEN:?}, window {WINDOW} rows, {frames} frames/utterance, \
         sweep {sweep_sessions:?} sessions, {WALLS} walls/point"
    );
    let mut sweep = Vec::new();
    for &sessions in &sweep_sessions {
        let point = sweep_point(&runtime, &audio.samples, sessions, frames, &expected);
        println!(
            "  {sessions:>2} session(s): batched {:>9.1} fps | per-session {:>9.1} fps \
             | batched is {:.2}x | equivalent: {}",
            point.batched.frames_per_second,
            point.per_session.frames_per_second,
            point.batched_vs_per_session_speedup,
            point.equivalent,
        );
        sweep.push(point);
    }

    // The acceptance claim requires a *measured* 8-session point: a
    // `--sessions` list without one (e.g. a quick smoke run) must not
    // splice a vacuously-true acceptance into the artifact.
    let batched_speedup_at_8_sessions = sweep
        .iter()
        .find(|p| p.sessions == 8)
        .map_or(0.0, |p| p.batched_vs_per_session_speedup);
    let eight_plus: Vec<&SweepPoint> = sweep.iter().filter(|p| p.sessions >= 8).collect();
    let batched_wins_at_8_plus_sessions = !eight_plus.is_empty()
        && eight_plus
            .iter()
            .all(|p| p.batched_vs_per_session_speedup >= 1.0);
    if eight_plus.is_empty() {
        println!(
            "NOTE: no sweep point ran 8+ sessions; the acceptance flag is \
             recorded as false (unmeasured), not as a pass"
        );
    } else if !batched_wins_at_8_plus_sessions {
        println!(
            "WARNING: batched scoring did not beat per-session forward passes \
             at 8+ concurrent sessions on this machine"
        );
    }

    let widest_batch = runtime.stats().batch.map_or(0, |stats| stats.widest_batch);
    let report = Report {
        benchmark: "batched_scoring".to_owned(),
        unit: "frames_per_second".to_owned(),
        hidden_layers: HIDDEN.to_vec(),
        window_rows: WINDOW,
        frames_per_utterance: frames,
        packet_samples: PACKET,
        sweep,
        batched_speedup_at_8_sessions,
        batched_wins_at_8_plus_sessions,
        widest_batch,
    };
    println!(
        "widest batch assembled: {widest_batch} rows | speedup at 8 sessions: {:.2}x",
        report.batched_speedup_at_8_sessions
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_decode.json");
    asr_bench::splice_json_section(&path, "batch", &json);
    println!("[spliced section \"batch\" into {}]", path.display());
}
