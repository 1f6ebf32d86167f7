//! Front-end benchmark: the streaming MFCC/scorer path vs the batch path.
//!
//! The streaming refactor's acceptance bar: pushing raw audio through
//! [`OnlineScorer`] in microphone-sized (160-sample) packets — streaming
//! MFCC with the Δ/ΔΔ lookahead, then per-frame template scoring — must
//! cost no more than **1.25x** the wall-clock of batch-scoring the same
//! waveform ([`TemplateScorer::score_waveform`]), while producing
//! bit-identical cost rows.
//!
//! Results are spliced into `BENCH_decode.json` (section `"frontend"`)
//! next to the decode numbers.
//!
//! ```text
//! cargo run --release -p asr-bench --bin bench_frontend
//! ```
//!
//! [`OnlineScorer`]: asr_acoustic::online::OnlineScorer
//! [`TemplateScorer::score_waveform`]: asr_acoustic::template::TemplateScorer::score_waveform

use asr_acoustic::online::OnlineScorer;
use asr_acoustic::signal::{render_phones, SignalConfig};
use asr_acoustic::template::TemplateScorer;
use asr_wfst::PhoneId;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Phones in the scored inventory (demo-lexicon scale).
const NUM_PHONES: u32 = 16;
/// Phone tokens in the utterance; at 6 frames each this is ~6 s of audio.
const PHONE_TOKENS: usize = 100;
const FRAMES_PER_PHONE: usize = 6;
/// Samples per streamed packet (one 10 ms frame at 16 kHz).
const PACKET: usize = 160;
const REPS: usize = 7;

#[derive(Debug, Clone, Serialize)]
struct Sample {
    seconds: f64,
    samples_per_second: f64,
    frames_per_second: f64,
    /// Fraction of real time spent (decode seconds per speech second).
    real_time_factor: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    benchmark: String,
    unit: String,
    num_phones: u32,
    frames: usize,
    samples: usize,
    audio_seconds: f64,
    packet_samples: usize,
    /// Whole-utterance `score_waveform` (batch MFCC + batch scoring).
    batch: Sample,
    /// 160-sample packets through `OnlineScorer`, rows popped eagerly.
    online: Sample,
    /// online.seconds / batch.seconds — the acceptance bar is <= 1.25.
    online_over_batch_time: f64,
    /// Online rows were bit-identical to the batch table.
    equivalent: bool,
}

fn time_runs(frames: usize, samples: usize, mut run: impl FnMut()) -> Sample {
    run(); // untimed warm-up
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    let audio_seconds = frames as f64 * 0.01;
    Sample {
        seconds: best,
        samples_per_second: samples as f64 / best,
        frames_per_second: frames as f64 / best,
        real_time_factor: best / audio_seconds,
    }
}

fn main() {
    asr_bench::banner(
        "bench_frontend",
        "streaming vs batch acoustic front-end (MFCC + scorer)",
        "Section II front-end / Section VI ALB fill, software streaming twin",
    );
    let signal = SignalConfig::default();
    let scorer = TemplateScorer::new(NUM_PHONES, &signal, 0.05);
    let phones: Vec<PhoneId> = (0..PHONE_TOKENS)
        .map(|i| PhoneId(1 + (i as u32 % NUM_PHONES)))
        .collect();
    let audio = render_phones(&phones, FRAMES_PER_PHONE, &signal);
    let frames = audio.len() / PACKET;

    // Correctness first: online rows must be bit-identical to the batch
    // table before their timings are comparable.
    let table = scorer.score_waveform(&audio);
    let mut online = OnlineScorer::new(*scorer.mfcc_config(), &scorer);
    let mut row = vec![0.0f32; online.row_len()];
    let mut equivalent = table.num_frames() == frames;
    for packet in audio.chunks(PACKET) {
        online.push_samples(packet);
    }
    online.finish();
    for frame in 0..table.num_frames() {
        if !online.pop_row_into(&mut row) {
            equivalent = false;
            break;
        }
        equivalent &= row
            .iter()
            .zip(table.frame_row(frame))
            .all(|(a, b)| a.to_bits() == b.to_bits());
    }

    let batch = time_runs(frames, audio.len(), || {
        let table = scorer.score_waveform(&audio);
        assert_eq!(table.num_frames(), frames);
    });

    let online_sample = time_runs(frames, audio.len(), || {
        online.reset();
        let mut popped = 0usize;
        for packet in audio.chunks(PACKET) {
            online.push_samples(packet);
            while online.pop_row_into(&mut row) {
                popped += 1;
            }
        }
        online.finish();
        while online.pop_row_into(&mut row) {
            popped += 1;
        }
        assert_eq!(popped, frames);
    });

    let report = Report {
        benchmark: "frontend_throughput".to_owned(),
        unit: "samples_per_second".to_owned(),
        num_phones: NUM_PHONES,
        frames,
        samples: audio.len(),
        audio_seconds: frames as f64 * 0.01,
        packet_samples: PACKET,
        online_over_batch_time: online_sample.seconds / batch.seconds,
        batch,
        online: online_sample,
        equivalent,
    };

    println!(
        "{} phones, {} frames ({:.1} s of audio), {PACKET}-sample packets\n\
         batch  score_waveform   {:>12.0} samples/s  ({:>8.1} frames/s, RTF {:.4})\n\
         online push+pop packets {:>12.0} samples/s  ({:>8.1} frames/s, RTF {:.4})\n\
         online/batch time: {:.3}x (bar: 1.25x)   rows bit-identical: {}",
        NUM_PHONES,
        report.frames,
        report.audio_seconds,
        report.batch.samples_per_second,
        report.batch.frames_per_second,
        report.batch.real_time_factor,
        report.online.samples_per_second,
        report.online.frames_per_second,
        report.online.real_time_factor,
        report.online_over_batch_time,
        report.equivalent,
    );
    if report.online_over_batch_time > 1.25 {
        println!("WARNING: online front-end exceeded 1.25x of batch time on this machine");
    }
    if !report.equivalent {
        println!("WARNING: online rows diverged from the batch table");
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_decode.json");
    asr_bench::splice_json_section(&path, "frontend", &json);
    println!("[spliced section \"frontend\" into {}]", path.display());
}
