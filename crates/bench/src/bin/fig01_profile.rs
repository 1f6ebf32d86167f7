//! Figure 1: execution-time share of the Viterbi search vs the DNN on the
//! CPU and GPU baselines.
//!
//! Paper: the search takes 73% of CPU time and 86% of GPU time, which
//! motivates accelerating the search rather than (only) the DNN.

use asr_bench::{banner, Scale};
use asr_platform::calibration::REFERENCE_DNN_FLOPS_PER_FRAME;
use asr_platform::{CpuModel, GpuModel};

struct Row {
    platform: String,
    viterbi_s: f64,
    dnn_s: f64,
    viterbi_share: f64,
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "fig01",
        "Viterbi vs DNN execution-time share",
        "CPU 73% / GPU 86% of time in the Viterbi search",
    );
    // Learn the workload's arc volume by decoding once with the reference
    // decoder (any design point would report the same functional counts).
    let (wfst, scores) = scale.build();
    let decoder = asr_decoder::search::ViterbiDecoder::new(
        asr_decoder::search::DecodeOptions::with_beam(scale.beam),
    );
    let result = decoder.decode(&wfst, &scores);
    let arcs_per_frame = result.stats.mean_arcs_per_frame();
    println!(
        "workload: {arcs_per_frame:.0} arcs/frame over {} frames\n",
        scale.frames
    );

    let cpu = CpuModel::default();
    let gpu = GpuModel::default();
    let rows = vec![
        Row {
            platform: "CPU".into(),
            viterbi_s: cpu.viterbi_s_per_speech_s(arcs_per_frame),
            dnn_s: cpu.dnn_s_per_speech_s(REFERENCE_DNN_FLOPS_PER_FRAME),
            viterbi_share: 0.0,
        },
        Row {
            platform: "GPU".into(),
            viterbi_s: gpu.viterbi_s_per_speech_s(arcs_per_frame),
            dnn_s: gpu.dnn_s_per_speech_s(REFERENCE_DNN_FLOPS_PER_FRAME),
            viterbi_share: 0.0,
        },
    ];
    let rows: Vec<Row> = rows
        .into_iter()
        .map(|mut r| {
            r.viterbi_share = r.viterbi_s / (r.viterbi_s + r.dnn_s);
            r
        })
        .collect();

    println!(
        "{:<6} {:>12} {:>12} {:>16}",
        "", "Viterbi (s)", "DNN (s)", "Viterbi share"
    );
    for r in &rows {
        println!(
            "{:<6} {:>12.4} {:>12.4} {:>15.1}%",
            r.platform,
            r.viterbi_s,
            r.dnn_s,
            100.0 * r.viterbi_share
        );
    }
    println!("\npaper reference: CPU 73%, GPU 86%");
}
