//! Decode-throughput benchmark: the token-table engine vs the retained
//! `HashMap` reference, across synthetic WFST sizes.
//!
//! Measures frames decoded per second for the reference decoder and the
//! token-table decoder (with and without scratch reuse) on
//! 2k/50k/200k-state Kaldi-statistics graphs, and writes the trajectory
//! to `BENCH_decode.json` in the repository root.
//! The headline acceptance number is the 50k-state, beam-8 speedup.
//!
//! ```text
//! cargo run --release -p asr-bench --bin bench_decode
//! ```

use asr_acoustic::scores::AcousticTable;
use asr_decoder::reference::ReferenceDecoder;
use asr_decoder::search::{DecodeOptions, DecodeScratch, ViterbiDecoder};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::Wfst;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const FRAMES: usize = 50;
const BEAM: f32 = 8.0;

#[derive(Debug, Clone, Serialize)]
struct Sample {
    /// Decode wall time for the whole utterance, seconds.
    seconds: f64,
    /// Frames decoded per second.
    frames_per_second: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ConfigResult {
    states: usize,
    arcs: usize,
    frames: usize,
    beam: f32,
    /// Mean arcs traversed per frame (workload size proxy).
    arcs_per_frame: f64,
    reference: Sample,
    token_table: Sample,
    token_table_reused_scratch: Sample,
    /// token-table (reused scratch) throughput over reference throughput.
    speedup: f64,
    /// Decode results agree with the reference byte-for-byte.
    equivalent: bool,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    benchmark: String,
    unit: String,
    beam: f32,
    frames: usize,
    /// One point per graph size — the throughput trajectory.
    trajectory: Vec<ConfigResult>,
    /// The acceptance headline: 50k states, beam 8.
    headline_speedup_50k: f64,
}

fn time_decode<R>(reps: usize, mut run: impl FnMut() -> R) -> (Sample, R) {
    // One untimed warm-up, then the best of `reps` timed runs.
    let mut result = run();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        result = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (
        Sample {
            seconds: best,
            frames_per_second: FRAMES as f64 / best,
        },
        result,
    )
}

fn bench_config(states: usize) -> ConfigResult {
    let wfst: Wfst =
        SynthWfst::generate(&SynthConfig::with_states(states).with_seed(0xBEA7)).unwrap();
    let scores = AcousticTable::random(FRAMES, wfst.num_phones() as usize, (0.5, 4.0), 0xACC0);
    let opts = DecodeOptions::with_beam(BEAM);
    let reps = if states >= 100_000 { 3 } else { 5 };

    let reference_decoder = ReferenceDecoder::new(opts.clone());
    let (reference, ref_result) = time_decode(reps, || reference_decoder.decode(&wfst, &scores));

    let table_decoder = ViterbiDecoder::new(opts);
    let (token_table, table_result) = time_decode(reps, || table_decoder.decode(&wfst, &scores));

    let mut scratch = DecodeScratch::new(wfst.num_states());
    let (token_table_reused_scratch, reused_result) = time_decode(reps, || {
        table_decoder.decode_with(&mut scratch, &wfst, &scores)
    });

    let equivalent = [&table_result, &reused_result].iter().all(|r| {
        r.cost.to_bits() == ref_result.cost.to_bits()
            && r.words == ref_result.words
            && r.best_state == ref_result.best_state
    });

    ConfigResult {
        states,
        arcs: wfst.num_arcs(),
        frames: FRAMES,
        beam: BEAM,
        arcs_per_frame: ref_result.stats.mean_arcs_per_frame(),
        speedup: token_table_reused_scratch.frames_per_second / reference.frames_per_second,
        reference,
        token_table,
        token_table_reused_scratch,
        equivalent,
    }
}

fn main() {
    asr_bench::banner(
        "bench_decode",
        "decode throughput: token-table engine vs HashMap reference",
        "Section III (token hash datapath), software twin",
    );
    let mut trajectory = Vec::new();
    for states in [2_000usize, 50_000, 200_000] {
        let result = bench_config(states);
        println!(
            "{:>8} states | ref {:>8.1} fps | table {:>8.1} fps | reused {:>8.1} fps | speedup {:>5.2}x | equivalent: {}",
            result.states,
            result.reference.frames_per_second,
            result.token_table.frames_per_second,
            result.token_table_reused_scratch.frames_per_second,
            result.speedup,
            result.equivalent,
        );
        trajectory.push(result);
    }
    let headline = trajectory
        .iter()
        .find(|r| r.states == 50_000)
        .map(|r| r.speedup)
        .unwrap_or(0.0);
    let report = Report {
        benchmark: "decode_throughput".to_owned(),
        unit: "frames_per_second".to_owned(),
        beam: BEAM,
        frames: FRAMES,
        trajectory,
        headline_speedup_50k: headline,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_decode.json");
    // Rewriting the file must not drop the other binaries' spliced
    // sections (bench_frontend, bench_accel, bench_batch, bench_load,
    // bench_store).
    let carried: Vec<(&str, Option<String>)> = ["frontend", "accel", "batch", "load", "store"]
        .into_iter()
        .map(|key| (key, asr_bench::extract_json_section(&path, key)))
        .collect();
    std::fs::write(&path, json).expect("write BENCH_decode.json");
    for (key, section) in carried {
        if let Some(section) = section {
            asr_bench::splice_json_section(&path, key, &section);
        }
    }
    println!("\nheadline speedup at 50k states, beam {BEAM}: {headline:.2}x");
    println!("[wrote {}]", path.display());
}
