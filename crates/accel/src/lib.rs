//! Cycle-accurate simulator of the MICRO 2016 ultra low-power Viterbi
//! search accelerator (Yazdani, Segura, Arnau, Gonzalez).
//!
//! This crate is the paper's primary contribution rebuilt in Rust: a
//! hardware model of the five-stage speech-recognition pipeline of Figure 3
//! together with the two memory-system techniques the paper proposes —
//! the decoupled access-execute **arc prefetcher** (Section IV-A) and the
//! **bandwidth-saving state layout** (Section IV-B) — plus the energy and
//! area models behind Figures 11, 12 and 14.
//!
//! * [`config`] — Table I parameters and the four design points.
//! * [`mem`] — State/Arc/Token caches, DRAM + memory controller, address
//!   map.
//! * [`hash`] — the dual token hash tables with collision chains and the
//!   main-memory overflow buffer.
//! * `prefetch` (private) — the in-order issue/commit window realizing the Arc
//!   FIFO / Request FIFO / Reorder Buffer ensemble.
//! * [`sim`] — the execution-driven, cycle-stepped simulator.
//! * [`energy`] — event-based energy/power model and area accounting.
//! * [`stats`] — counters and derived metrics.
//!
//! # Quick start
//!
//! ```
//! use asr_accel::config::{AcceleratorConfig, DesignPoint};
//! use asr_accel::sim::Simulator;
//! use asr_acoustic::scores::AcousticTable;
//! use asr_wfst::synth::{SynthConfig, SynthWfst};
//!
//! let wfst = SynthWfst::generate(&SynthConfig::with_states(2_000))?;
//! let scores = AcousticTable::random(10, wfst.num_phones() as usize, (0.5, 4.0), 7);
//! let sim = Simulator::new(AcceleratorConfig::for_design(DesignPoint::StateAndArc));
//! let result = sim.decode_wfst(&wfst, &scores)?;
//! assert!(result.stats.cycles > 0);
//! println!("decode took {} cycles", result.stats.cycles);
//! # Ok::<(), asr_wfst::WfstError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod energy;
pub mod hash;
pub mod mem;
mod prefetch;
pub mod sim;
pub mod stats;

pub use config::{AcceleratorConfig, DesignPoint};
pub use sim::{PreparedWfst, SimResult, Simulator};
pub use stats::SimStats;
