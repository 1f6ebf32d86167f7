//! Full ASR pipeline model: DNN + Viterbi, batched and pipelined.
//!
//! Section VI evaluates the complete system: a GPU-only configuration runs
//! the DNN and the search sequentially on the GPU, while the proposed
//! system runs the DNN on the GPU and the search on the accelerator *in
//! parallel*, pipelined over batches of frames (the accelerator decodes
//! batch *i* while the GPU scores batch *i+1*; the Acoustic Likelihood
//! Buffer double-buffers the handoff). The paper reports 1.87x end-to-end
//! over GPU-only.

use crate::cpu::CpuModel;
use crate::gpu::GpuModel;

/// End-to-end times (per second of speech) of the three system options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineComparison {
    /// CPU-only: DNN and search sequential on the CPU.
    pub cpu_only_s: f64,
    /// GPU-only: DNN and search sequential on the GPU.
    pub gpu_only_s: f64,
    /// GPU (DNN) + accelerator (search), pipelined: the stages overlap, so
    /// throughput is set by the slower stage.
    pub gpu_plus_accel_s: f64,
}

impl PipelineComparison {
    /// The headline end-to-end speedup (paper: 1.87x).
    pub fn speedup_over_gpu_only(&self) -> f64 {
        self.gpu_only_s / self.gpu_plus_accel_s
    }
}

/// The full-system model.
#[derive(Debug, Clone, Default)]
pub struct PipelineModel {
    cpu: CpuModel,
    gpu: GpuModel,
}

impl PipelineModel {
    /// Builds from explicit platform models.
    pub fn new(cpu: CpuModel, gpu: GpuModel) -> Self {
        Self { cpu, gpu }
    }

    /// Compares system options for a workload of `arcs_per_frame` and an
    /// acoustic model of `dnn_flops_per_frame`, given the accelerator's
    /// simulated Viterbi time per speech second.
    pub fn compare(
        &self,
        arcs_per_frame: f64,
        dnn_flops_per_frame: f64,
        accel_viterbi_s_per_speech_s: f64,
    ) -> PipelineComparison {
        let cpu_only_s = self.cpu.viterbi_s_per_speech_s(arcs_per_frame)
            + self.cpu.dnn_s_per_speech_s(dnn_flops_per_frame);
        let gpu_dnn = self.gpu.dnn_s_per_speech_s(dnn_flops_per_frame);
        let gpu_only_s = self.gpu.viterbi_s_per_speech_s(arcs_per_frame) + gpu_dnn;
        // Pipelined: batches flow through both stages; steady-state
        // throughput is governed by the slower stage.
        let gpu_plus_accel_s = gpu_dnn.max(accel_viterbi_s_per_speech_s);
        PipelineComparison {
            cpu_only_s,
            gpu_only_s,
            gpu_plus_accel_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{PAPER_ARCS_PER_FRAME, REFERENCE_DNN_FLOPS_PER_FRAME};

    #[test]
    fn paper_operating_point_gives_published_speedup() {
        let model = PipelineModel::default();
        // Final accelerator: 1/56 s per speech second.
        let cmp = model.compare(
            PAPER_ARCS_PER_FRAME,
            REFERENCE_DNN_FLOPS_PER_FRAME,
            1.0 / 56.0,
        );
        let s = cmp.speedup_over_gpu_only();
        // Paper: 1.87x. Our derivation of Figure 1 shares gives ~1.98;
        // accept the band around the published value.
        assert!((1.75..2.1).contains(&s), "got {s}");
    }

    #[test]
    fn pipeline_is_bounded_by_slower_stage() {
        let model = PipelineModel::default();
        let fast_accel = model.compare(25_000.0, 30.0e6, 1e-6);
        // With an infinitely fast accelerator, the DNN bounds throughput.
        let gpu_dnn = model.gpu.dnn_s_per_speech_s(30.0e6);
        assert!((fast_accel.gpu_plus_accel_s - gpu_dnn).abs() < 1e-12);
        let slow_accel = model.compare(25_000.0, 30.0e6, 1.0);
        assert!((slow_accel.gpu_plus_accel_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_only_is_slowest() {
        let model = PipelineModel::default();
        let cmp = model.compare(25_000.0, 30.0e6, 1.0 / 56.0);
        assert!(cmp.cpu_only_s > cmp.gpu_only_s);
        assert!(cmp.gpu_only_s > cmp.gpu_plus_accel_s);
    }
}
