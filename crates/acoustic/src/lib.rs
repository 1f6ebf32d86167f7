//! Acoustic substrate for the reproduction of *"An Ultra Low-Power Hardware
//! Accelerator for Automatic Speech Recognition"* (MICRO 2016).
//!
//! The paper's ASR pipeline has two stages: a DNN acoustic model that turns
//! 10 ms frames of audio into phoneme likelihoods, and the Viterbi search
//! (the accelerator's job) that turns those likelihoods into words. This
//! crate implements the first stage end to end, from scratch:
//!
//! * [`signal`]: deterministic synthetic speech — each phone is rendered as
//!   a formant-like mixture of sinusoids, replacing the Librispeech corpus
//!   we cannot redistribute (see DESIGN.md substitution log);
//! * [`frame`]: 10 ms framing, pre-emphasis, Hamming windowing;
//! * [`fft`]: an iterative radix-2 FFT;
//! * [`mel`]: the mel filterbank;
//! * [`dct`]: DCT-II for cepstral coefficients;
//! * [`mfcc`]: the full feature pipeline (13 MFCCs + Δ + ΔΔ);
//! * [`dnn`]: a from-scratch multi-layer perceptron producing per-phone
//!   log-posteriors (the "DNN" of the paper's hybrid system);
//! * [`template`]: a template (nearest-prototype) scorer that behaves like a
//!   trained acoustic model on the synthetic speech, so functional tests can
//!   decode utterances back to the words that produced them;
//! * [`scores`]: the per-frame acoustic cost table the accelerator's
//!   Acoustic Likelihood Buffer is filled from;
//! * [`online`]: the incremental front-end — push raw samples, pop feature
//!   vectors ([`online::OnlineMfcc`]) bit-identical to the batch pipeline,
//!   each scored by the model's block path as a block of one or more.
//!
//! Scores follow the same convention as `asr-wfst`: *costs* (negative log
//! probabilities), added along paths.
//!
//! # Example: features from one second of synthetic speech
//!
//! ```
//! use asr_acoustic::signal::{SignalConfig, render_phones};
//! use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
//! use asr_wfst::PhoneId;
//!
//! let cfg = SignalConfig::default();
//! let wave = render_phones(&[PhoneId(1), PhoneId(2)], 50, &cfg);
//! let pipeline = MfccPipeline::new(MfccConfig::default());
//! let feats = pipeline.process(&wave);
//! assert_eq!(feats.len(), 100); // two phones x 50 frames
//! assert_eq!(feats[0].len(), 39); // 13 MFCC + deltas + delta-deltas
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dct;
pub mod dnn;
pub mod fft;
mod fold;
pub mod frame;
pub mod mel;
pub mod mfcc;
pub mod online;
pub mod scores;
pub mod signal;
pub mod template;

/// Sample rate used throughout the crate (16 kHz, the ASR standard).
pub const SAMPLE_RATE: u32 = 16_000;

/// Samples per 10 ms frame at [`SAMPLE_RATE`] (the paper's frame length).
pub const FRAME_SAMPLES: usize = 160;
