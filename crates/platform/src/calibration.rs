//! Published operating points and the constants derived from them.
//!
//! The paper reports (Sections VI-VII):
//!
//! * the final accelerator decodes **56x faster than real time**, i.e.
//!   0.01786 s of decode per second of speech;
//! * the final accelerator is **1.7x faster than the GPU** and **16.7x
//!   faster than the CPU** (Figure 10 / Section VI), fixing the GPU at
//!   0.0304 s and the CPU at 0.298 s per speech second (consistent with
//!   the 9.8x GPU-over-CPU speedup quoted for Figure 14);
//! * the **Viterbi search is 73% of CPU time and 86% of GPU time**
//!   (Figure 1), fixing the DNN at 0.110 s (CPU) and 4.94 ms (GPU) per
//!   speech second;
//! * average power: **CPU 32.2 W, GPU 76.4 W** (Figure 12);
//! * the search touches **~25k arcs per frame** on average (Section IV-A),
//!   i.e. 2.5M arcs per speech second at 100 frames/s.
//!
//! Dividing, the models use ~119 ns per arc on the CPU and ~12.1 ns per
//! arc on the GPU, and scale DNN time by FLOPs relative to a Kaldi-era
//! acoustic model (~30 MFLOP/frame). The constants are exposed (not
//! hard-wired into the models) so ablations can move them.

/// Frames of speech per second (10 ms frames).
pub const FRAMES_PER_SECOND: f64 = 100.0;

/// Arcs per frame observed by the paper on the Kaldi WFST.
pub const PAPER_ARCS_PER_FRAME: f64 = 25_000.0;

/// Reference DNN cost per frame used to scale acoustic-model time.
pub const REFERENCE_DNN_FLOPS_PER_FRAME: f64 = 30.0e6;

/// Calibrated constants for both baseline platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// CPU Viterbi nanoseconds per traversed arc.
    pub cpu_viterbi_ns_per_arc: f64,
    /// GPU Viterbi nanoseconds per traversed arc.
    pub gpu_viterbi_ns_per_arc: f64,
    /// CPU DNN seconds per speech-second at the reference model size.
    pub cpu_dnn_s_per_speech_s: f64,
    /// GPU DNN seconds per speech-second at the reference model size.
    pub gpu_dnn_s_per_speech_s: f64,
    /// CPU package power in watts while decoding.
    pub cpu_power_w: f64,
    /// GPU board power in watts while decoding.
    pub gpu_power_w: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        // Derivation in the module docs.
        let final_asic = 1.0 / 56.0; // 0.017857 s per speech second
        let gpu_viterbi = final_asic * 1.7; // 0.030357
        let cpu_viterbi = final_asic * 16.7; // 0.298214
        let arcs_per_speech_s = PAPER_ARCS_PER_FRAME * FRAMES_PER_SECOND;
        Self {
            cpu_viterbi_ns_per_arc: cpu_viterbi / arcs_per_speech_s * 1e9,
            gpu_viterbi_ns_per_arc: gpu_viterbi / arcs_per_speech_s * 1e9,
            // Figure 1 shares: Viterbi is 73% (CPU) and 86% (GPU).
            cpu_dnn_s_per_speech_s: cpu_viterbi * (27.0 / 73.0),
            gpu_dnn_s_per_speech_s: gpu_viterbi * (14.0 / 86.0),
            cpu_power_w: 32.2,
            gpu_power_w: 76.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper-published GPU Viterbi decode time per speech second.
    fn gpu_viterbi_s(c: &Calibration) -> f64 {
        c.gpu_viterbi_ns_per_arc * 1e-9 * PAPER_ARCS_PER_FRAME * FRAMES_PER_SECOND
    }

    /// The paper-published CPU Viterbi decode time per speech second.
    fn cpu_viterbi_s(c: &Calibration) -> f64 {
        c.cpu_viterbi_ns_per_arc * 1e-9 * PAPER_ARCS_PER_FRAME * FRAMES_PER_SECOND
    }

    #[test]
    fn derived_times_match_published_ratios() {
        let c = Calibration::default();
        let gpu = gpu_viterbi_s(&c);
        let cpu = cpu_viterbi_s(&c);
        // GPU is 9.8x the CPU (Figure 14 text).
        assert!((cpu / gpu - 9.82).abs() < 0.15, "got {}", cpu / gpu);
        // Final ASIC at 1/56 s: 1.7x and 16.7x checks.
        let asic = 1.0 / 56.0;
        assert!((gpu / asic - 1.7).abs() < 1e-6);
        assert!((cpu / asic - 16.7).abs() < 1e-6);
    }

    #[test]
    fn figure1_shares_are_reproduced() {
        let c = Calibration::default();
        let cpu_share = cpu_viterbi_s(&c) / (cpu_viterbi_s(&c) + c.cpu_dnn_s_per_speech_s);
        let gpu_share = gpu_viterbi_s(&c) / (gpu_viterbi_s(&c) + c.gpu_dnn_s_per_speech_s);
        assert!((cpu_share - 0.73).abs() < 0.01, "CPU share {cpu_share}");
        assert!((gpu_share - 0.86).abs() < 0.01, "GPU share {gpu_share}");
    }

    #[test]
    fn dnn_gpu_speedup_is_in_published_band() {
        // The paper quotes 26x for DNN GPU-over-CPU; the Figure 1 shares
        // imply ~22x. Accept the band.
        let c = Calibration::default();
        let speedup = c.cpu_dnn_s_per_speech_s / c.gpu_dnn_s_per_speech_s;
        assert!((20.0..28.0).contains(&speedup), "got {speedup}");
    }

    #[test]
    fn per_arc_times_are_sane() {
        let c = Calibration::default();
        assert!((c.cpu_viterbi_ns_per_arc - 119.3).abs() < 1.0);
        assert!((c.gpu_viterbi_ns_per_arc - 12.1).abs() < 0.2);
    }
}
