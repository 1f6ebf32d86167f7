//! Section VI text: full ASR pipeline comparison.
//!
//! Paper: the system combining the GPU (DNN) with the accelerator (Viterbi
//! search), pipelined over batches, is 1.87x faster end-to-end than a
//! GPU-only system that must run both stages sequentially.

use asr_accel::config::DesignPoint;
use asr_bench::{banner, run_design, Scale};
use asr_platform::calibration::REFERENCE_DNN_FLOPS_PER_FRAME;
use asr_platform::pipeline::PipelineModel;

fn main() {
    let scale = Scale::from_args();
    banner(
        "full_pipeline",
        "end-to-end ASR: GPU-only vs GPU + accelerator (pipelined)",
        "1.87x end-to-end speedup over GPU-only",
    );
    let (wfst, scores) = scale.build();
    let accel = run_design(DesignPoint::StateAndArc, &wfst, &scores, scale.beam);
    let arcs_per_frame = accel.result.stats.arcs_per_frame();
    let model = PipelineModel::default();
    let cmp = model.compare(
        arcs_per_frame,
        REFERENCE_DNN_FLOPS_PER_FRAME,
        accel.point.decode_s_per_speech_s,
    );
    println!("per second of speech:");
    println!("  CPU-only (DNN + search):        {:.4} s", cmp.cpu_only_s);
    println!("  GPU-only (DNN + search):        {:.4} s", cmp.gpu_only_s);
    println!(
        "  GPU + accelerator (pipelined):  {:.4} s",
        cmp.gpu_plus_accel_s
    );
    println!(
        "\nend-to-end speedup over GPU-only: {:.2}x (paper: 1.87x)",
        cmp.speedup_over_gpu_only()
    );
}
