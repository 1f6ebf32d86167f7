//! CPU baseline: Kaldi's software decoder on a Core i7-6700K.
//!
//! Two modes:
//!
//! * **calibrated** — decode time scales the paper's measured per-arc cost
//!   (derived in [`crate::calibration`]) by the workload's actual arc
//!   count, so figures computed on scaled-down WFSTs keep the published
//!   ratios;
//! * **measured** — actually run the reference decoder from `asr-decoder`
//!   and time it on the host, for sanity checks and examples (the host is
//!   not an i7-6700K, so measured numbers are indicative only).

use crate::calibration::{Calibration, FRAMES_PER_SECOND, REFERENCE_DNN_FLOPS_PER_FRAME};
use crate::metrics::OperatingPoint;

/// The CPU platform model.
#[derive(Debug, Clone, Default)]
pub struct CpuModel {
    calibration: Calibration,
}

impl CpuModel {
    /// Model with explicit calibration constants.
    pub fn new(calibration: Calibration) -> Self {
        Self { calibration }
    }

    /// The constants in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Viterbi decode time (seconds per second of speech) for a workload
    /// traversing `arcs_per_frame` arcs on average.
    pub fn viterbi_s_per_speech_s(&self, arcs_per_frame: f64) -> f64 {
        self.calibration.cpu_viterbi_ns_per_arc * 1e-9 * arcs_per_frame * FRAMES_PER_SECOND
    }

    /// DNN scoring time (seconds per second of speech) for an acoustic
    /// model of `flops_per_frame`.
    pub fn dnn_s_per_speech_s(&self, flops_per_frame: f64) -> f64 {
        self.calibration.cpu_dnn_s_per_speech_s * (flops_per_frame / REFERENCE_DNN_FLOPS_PER_FRAME)
    }

    /// The Figure 9/11/12 operating point for the Viterbi search.
    pub fn viterbi_point(&self, arcs_per_frame: f64) -> OperatingPoint {
        OperatingPoint::from_power(
            self.viterbi_s_per_speech_s(arcs_per_frame),
            self.calibration.cpu_power_w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_reproduces_published_time() {
        let cpu = CpuModel::default();
        // 25k arcs/frame -> 0.298 s per speech second (16.7x slower than
        // the final accelerator).
        let t = cpu.viterbi_s_per_speech_s(25_000.0);
        assert!((t - 0.298).abs() < 0.002, "got {t}");
    }

    #[test]
    fn decode_time_scales_linearly_with_arcs() {
        let cpu = CpuModel::default();
        let t1 = cpu.viterbi_s_per_speech_s(5_000.0);
        let t2 = cpu.viterbi_s_per_speech_s(10_000.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn operating_point_uses_rapl_power() {
        let cpu = CpuModel::default();
        let p = cpu.viterbi_point(25_000.0);
        assert!((p.power_w() - 32.2).abs() < 1e-9);
        assert!(p.energy_j_per_speech_s > 9.0); // ~9.6 J per speech second
    }

    #[test]
    fn dnn_time_scales_with_model_size() {
        let cpu = CpuModel::default();
        let small = cpu.dnn_s_per_speech_s(15.0e6);
        let reference = cpu.dnn_s_per_speech_s(30.0e6);
        assert!((reference / small - 2.0).abs() < 1e-9);
        assert!((reference - 0.1103).abs() < 0.002);
    }
}
