//! Reference software Viterbi beam search for the MICRO 2016 ASR
//! accelerator reproduction.
//!
//! This crate is the software twin of the accelerator: a frame-synchronous
//! Viterbi beam search over a WFST (Section II of the paper), playing two
//! roles in the workspace:
//!
//! 1. **Functional reference.** The cycle-accurate simulator in `asr-accel`
//!    must produce the same best path as this decoder on the same inputs;
//!    integration tests assert that.
//! 2. **CPU baseline.** The paper's CPU numbers come from Kaldi's decoder;
//!    `asr-platform` wraps this implementation (measured, then calibrated)
//!    as the software baseline.
//!
//! # Architecture: the token-table hot path
//!
//! The decode loop is built as a software twin of the accelerator's hash
//! datapath (Section III). The mapping, stage by stage:
//!
//! | accelerator (paper) | this crate |
//! |---|---|
//! | two on-chip token hash tables (current/next frame), owned by the device | one `StateIndex` per thread, lent to each frame, plus each decode's current/next `LiveTokens` lists of 16-byte `{state, cost, pending backpointer}` tokens, swapped at the frame barrier |
//! | hash lookup-or-insert with likelihood compare | `StateIndex::relax` (in [`token_table`]): dense `{epoch, position}` slot per state, epoch tag for liveness |
//! | table flush between frames | one epoch-counter bump (`begin_frame`) — no clearing, no rehash |
//! | insertion-ordered linked list walked by the State Issuer | the live list itself, append-only, deduped by the epoch check |
//! | on-insert beam test against the running frame-best | prune-on-insert in [`search::ViterbiDecoder`]: arcs landing beyond `running_best + beam` skip the relax |
//! | backpointer/word writes to DRAM, one per stored token | one [`lattice::Lattice`] append per token that *expands*, pushed when it stores its first successor (a stored token carries its `{prev, word}` until then), into the trace its `DecodeScratch` recycles, periodically mark-compacted ([`lattice::Lattice::compact`], Kaldi-style token GC); the simulator keeps the per-token writes |
//!
//! After warm-up the steady-state frame loop performs zero heap
//! allocations (asserted by an allocation-counting test). The seed
//! `HashMap` implementation is retained as
//! [`reference::ReferenceDecoder`], the tests' oracle: an equivalence
//! suite asserts the token-table decoder reproduces its `words`, `cost`,
//! and `best_state` byte-identically.
//!
//! Modules:
//!
//! * [`lattice`]: the token trace kept in main memory — backpointer plus
//!   word label, exactly the data the accelerator's Token Issuer writes
//!   out for every token (the search writes it only for tokens that
//!   expand), the input to backtracking, and the target of the periodic
//!   compaction GC;
//! * [`token_table`]: the epoch-tagged sparse-set token store (per-thread
//!   state index, per-decode live lists);
//! * [`search`]: the beam search itself ([`search::ViterbiDecoder`]);
//! * [`probe`]: the one [`probe::Probe`] the search reports to — stage
//!   marks, per-frame counters, expanded states, and the token tables'
//!   slot outcomes the simulator's timing rides on — with the no-op
//!   [`probe::NoopProbe`] and the [`probe::RecordingProbe`] that `just
//!   stages` reads;
//! * [`reference`](mod@reference): the retained seed `HashMap` decoder
//!   ([`reference::ReferenceDecoder`]), the equivalence and benchmark
//!   baseline;
//! * [`pool`]: the serving substrate — the shared fork-join
//!   [`pool::WorkerPool`] (one bounded MPMC ring popped by worker lanes
//!   and helping submitters, eventcount parking) whose one tenant is the
//!   sessions' score/search overlap, and the checkout/restore
//!   [`pool::ScratchPool`] that makes repeated facade decodes
//!   allocation-free;
//! * [`stream`]: the batch frame loop cut open for streaming
//!   ([`stream::StreamingDecode`], generic over borrowed or owned graph
//!   handles): rows in, partial hypotheses out, byte-identical
//!   finalization;
//! * [`wer`]: word-error-rate scoring used by functional tests.
//!
//! # Example
//!
//! ```
//! use asr_acoustic::scores::AcousticTable;
//! use asr_decoder::search::{DecodeOptions, ViterbiDecoder};
//! use asr_wfst::synth::{SynthConfig, SynthWfst};
//!
//! let wfst = SynthWfst::generate(&SynthConfig::with_states(500))?;
//! let scores = AcousticTable::random(20, wfst.num_phones() as usize, (0.5, 4.0), 1);
//! let decoder = ViterbiDecoder::new(DecodeOptions::default());
//! let result = decoder.decode(&wfst, &scores);
//! assert!(result.cost.is_finite());
//! # Ok::<(), asr_wfst::WfstError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lattice;
#[cfg(all(test, feature = "model-check"))]
mod model_check;
pub mod pool;
pub mod probe;
pub mod reference;
pub mod search;
pub mod stream;
pub(crate) mod sync;
pub mod token_table;
pub mod wer;
