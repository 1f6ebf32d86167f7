//! `asr-repro`: facade crate for the reproduction of *"An Ultra Low-Power
//! Hardware Accelerator for Automatic Speech Recognition"* (Yazdani et al.,
//! MICRO 2016).
//!
//! The workspace rebuilds the paper's entire system in Rust:
//!
//! | crate | contents |
//! |---|---|
//! | [`wfst`] | recognition-network substrate: packed WFSTs, composition, the degree-sorted layout, synthetic Kaldi-statistics models |
//! | [`acoustic`] | MFCC front-end (FFT, mel, DCT), MLP acoustic model, template scorer, synthetic speech |
//! | [`decoder`] | reference software Viterbi beam search (tokens, pruning, epsilon closure, backtracking, WER) |
//! | [`accel`] | the paper's contribution: a cycle-accurate simulator of the 5-stage accelerator, its caches, hash tables, arc prefetcher, state-layout optimization, and energy/area models |
//! | [`platform`] | calibrated CPU/GPU baselines and the pipelined full-system model |
//!
//! This crate re-exports them and adds the serving layer:
//! [`runtime::AsrRuntime`], a shared "microphone to words" runtime that
//! owns the engine state behind an `Arc` plus **one global fork-join
//! executor** (lanes and each job's submitter claiming its chunks), and
//! hands out owned [`runtime::Session`]s
//! (`Send + 'static`) that any thread can drive and migrate
//! mid-utterance. Scratches and front-ends are pooled
//! ([`decoder::pool::ScratchPool`]) so repeated recognitions are
//! allocation-free per frame; on a multi-lane runtime each session
//! overlaps the scoring of frame *i + 1* with the search of frame *i*
//! (the paper's Section VI pipelining) with byte-identical results, and
//! on every path the search holds back exactly the newest row.
//! The layer is five modules under `src/runtime/` — the handle, and
//! `session`, `admission`, `batch`, `registry`, each owning one protocol —
//! all re-exported at [`runtime`]. [`on_accelerator`] runs the same
//! utterances on the simulated accelerator through the runtime's
//! public accessors.
//!
//! # Quick start
//!
//! ```
//! use asr_repro::runtime::AsrRuntime;
//!
//! let runtime = AsrRuntime::demo()?;
//! let audio = runtime.render_words(&["call", "mom"])?;
//! let transcript = runtime.recognize(&audio);
//! assert_eq!(transcript.words, vec!["call", "mom"]);
//! # Ok::<(), asr_repro::PipelineError>(())
//! ```
//!
//! For incremental input, open an owned session (see
//! [`AsrRuntime::open_session`] for a runnable example): push raw
//! samples or score rows, pull [`runtime::Hypothesis`] partials — from
//! any thread — and `finalize()` into the same transcript the batch
//! path produces.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub use asr_accel as accel;
pub use asr_acoustic as acoustic;
pub use asr_decoder as decoder;
pub use asr_platform as platform;
pub use asr_wfst as wfst;

pub mod on_accelerator;
pub mod runtime;

pub use runtime::{
    AsrRuntime, BatchScoringConfig, BatchScoringStats, Hypothesis, ModelStats, PipelineError,
    RuntimeConfig, RuntimeStats, Session, SessionOptions, Transcript,
};
