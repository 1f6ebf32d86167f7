//! GPU baseline: the CUDA decoder of Chong et al. on a GeForce GTX 980.
//!
//! Calibrated like [`crate::cpu`], with one structural refinement: the GPU
//! decoder's per-frame cost has a fixed kernel-launch/synchronization
//! component on top of the per-arc throughput term. The paper emphasizes
//! that the Viterbi search parallelizes poorly (3.74-10x, versus 26x for
//! the DNN); the fixed overhead is what keeps small active sets from
//! scaling down GPU time linearly, and it is derived so the published
//! operating point (25k arcs/frame) is preserved exactly.

use crate::calibration::{
    Calibration, FRAMES_PER_SECOND, PAPER_ARCS_PER_FRAME, REFERENCE_DNN_FLOPS_PER_FRAME,
};
use crate::metrics::OperatingPoint;

/// Fraction of the GPU's per-frame Viterbi cost that is fixed overhead
/// (kernel launches, global synchronization between frame phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuOverheadSplit {
    /// Fixed seconds per frame regardless of active-set size.
    pub fixed_fraction: f64,
}

impl Default for GpuOverheadSplit {
    fn default() -> Self {
        // Zero by default: every figure compares platforms at the *same*
        // workload, so the calibrated per-arc cost must scale linearly for
        // the published ratios to be preserved at reduced scale (see
        // ARCHITECTURE.md, "Substitutions"). A non-zero fraction models
        // kernel-launch / synchronization overhead for ablations on
        // absolute GPU latency.
        Self {
            fixed_fraction: 0.0,
        }
    }
}

/// The GPU platform model.
#[derive(Debug, Clone, Default)]
pub struct GpuModel {
    calibration: Calibration,
    overhead: GpuOverheadSplit,
}

impl GpuModel {
    /// Model with explicit constants.
    pub fn new(calibration: Calibration, overhead: GpuOverheadSplit) -> Self {
        Self {
            calibration,
            overhead,
        }
    }

    /// The constants in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Viterbi decode time (seconds per second of speech) for a workload
    /// traversing `arcs_per_frame` arcs on average.
    pub fn viterbi_s_per_speech_s(&self, arcs_per_frame: f64) -> f64 {
        let paper_total = self.calibration.gpu_viterbi_ns_per_arc
            * 1e-9
            * PAPER_ARCS_PER_FRAME
            * FRAMES_PER_SECOND;
        let fixed = paper_total * self.overhead.fixed_fraction;
        let variable = paper_total
            * (1.0 - self.overhead.fixed_fraction)
            * (arcs_per_frame / PAPER_ARCS_PER_FRAME);
        fixed + variable
    }

    /// DNN scoring time (seconds per second of speech) for an acoustic
    /// model of `flops_per_frame`.
    pub fn dnn_s_per_speech_s(&self, flops_per_frame: f64) -> f64 {
        self.calibration.gpu_dnn_s_per_speech_s * (flops_per_frame / REFERENCE_DNN_FLOPS_PER_FRAME)
    }

    /// The Figure 9/11/12 operating point for the Viterbi search.
    pub fn viterbi_point(&self, arcs_per_frame: f64) -> OperatingPoint {
        OperatingPoint::from_power(
            self.viterbi_s_per_speech_s(arcs_per_frame),
            self.calibration.gpu_power_w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_reproduces_published_time() {
        let gpu = GpuModel::default();
        let t = gpu.viterbi_s_per_speech_s(25_000.0);
        assert!((t - 0.0304).abs() < 0.0005, "got {t}");
    }

    #[test]
    fn default_model_scales_linearly() {
        let gpu = GpuModel::default();
        let full = gpu.viterbi_s_per_speech_s(25_000.0);
        let tenth = gpu.viterbi_s_per_speech_s(2_500.0);
        assert!((tenth / full - 0.1).abs() < 1e-9);
    }

    #[test]
    fn fixed_overhead_keeps_small_sets_from_scaling_linearly() {
        let gpu = GpuModel::new(
            Calibration::default(),
            GpuOverheadSplit {
                fixed_fraction: 0.35,
            },
        );
        let full = gpu.viterbi_s_per_speech_s(25_000.0);
        let tenth = gpu.viterbi_s_per_speech_s(2_500.0);
        // Far more than 10% of the time remains: fixed overhead dominates.
        assert!(tenth > 0.35 * full);
        assert!(tenth < full);
    }

    #[test]
    fn operating_point_uses_board_power() {
        let gpu = GpuModel::default();
        let p = gpu.viterbi_point(25_000.0);
        assert!((p.power_w() - 76.4).abs() < 1e-9);
        // ~2.3 J per speech second, 4.2x less than the CPU's ~9.6 J.
        assert!((p.energy_j_per_speech_s - 2.32).abs() < 0.05);
    }

    #[test]
    fn gpu_beats_cpu_by_published_factor() {
        let gpu = GpuModel::default();
        let cpu = crate::cpu::CpuModel::default();
        let ratio = cpu.viterbi_s_per_speech_s(25_000.0) / gpu.viterbi_s_per_speech_s(25_000.0);
        assert!((ratio - 9.8).abs() < 0.2, "got {ratio}");
    }

    #[test]
    fn dnn_is_much_faster_than_viterbi_on_gpu() {
        // Figure 1: the GPU spends 86% of its time in the search.
        let gpu = GpuModel::default();
        let dnn = gpu.dnn_s_per_speech_s(30.0e6);
        let vit = gpu.viterbi_s_per_speech_s(25_000.0);
        assert!(vit / (vit + dnn) > 0.85);
    }
}
