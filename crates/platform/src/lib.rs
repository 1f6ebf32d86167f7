//! Platform models: the CPU and GPU baselines the paper measures against,
//! and the combined ASR pipeline model.
//!
//! The paper's baselines are physical machines we cannot re-measure: Kaldi
//! on a Core i7-6700K (RAPL power) and a CUDA decoder on a GeForce GTX 980
//! (nvprof power). Following ARCHITECTURE.md's "Substitutions", this
//! crate models them analytically, **calibrated to the paper's published
//! operating points** (module [`calibration`]), and scales with the actual
//! workload the simulator ran (arcs per frame, DNN size).
//!
//! * [`calibration`] — the published numbers and the constants derived
//!   from them;
//! * [`cpu`] — CPU Viterbi + DNN times and 32.2 W power;
//! * [`gpu`] — GPU Viterbi + DNN times and 76.4 W power;
//! * [`pipeline`] — the end-to-end system model behind the 1.87x
//!   full-pipeline claim (GPU-only sequential vs GPU+accelerator
//!   pipelined);
//! * [`metrics`] — the decode-time / energy / power triple used by every
//!   figure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod cpu;
pub mod gpu;
pub mod metrics;
pub mod pipeline;

pub use calibration::Calibration;
pub use cpu::CpuModel;
pub use gpu::GpuModel;
pub use metrics::OperatingPoint;
