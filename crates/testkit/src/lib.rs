//! The consumer matrix's shared parts: one oracle, one fixture set, one
//! list of the search's consumers. Dev-only (`publish = false`): the root
//! package, `asr-decoder` and `asr-accel` take it as a dev-dependency and
//! nothing else depends on it.
//!
//! The claim it serves is the one the paper's timing numbers rest on:
//! every consumer of the Viterbi search — the batch decoder with a fresh
//! or a reused scratch, the streaming decode, a runtime session fed rows
//! or audio, a decode over a degree-sorted or image-backed graph, the
//! accelerator simulator at every design point — reports the words, cost
//! bits, finality and best state of [`ReferenceDecoder`] on the same
//! rows. [`matrix::cell`] gives each consumer × fixture pair its verdict;
//! `tests/consumer_matrix.rs` runs every cell.
//!
//! - [`fixtures`]: the seeded (graph, rows, options) triples the pins
//!   decode, and the demo runtime's utterances.
//! - [`consumers`]: the consumers, each turning a fixture's cases into
//!   [`Outcome`]s.
//! - [`oracle`] and [`assert_same`]: the one oracle and the one equality.
//!
//! A unit-test module of `asr-repro` (its `runtime::tests`) links a
//! second copy of that crate through this one, so it takes only the
//! parts typed by the lower crates: [`fixtures`], [`oracle`], [`Outcome`]
//! and [`assert_same`].

pub mod consumers;
pub mod fixtures;
pub mod matrix;

pub use consumers::{naming_lexicon, Consumer};
pub use fixtures::{graph, rows, Case, Fixture};
pub use matrix::{assert_cell, cell, Departure, Verdict};

use asr_accel::sim::SimResult;
use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::Utterance;
use asr_decoder::reference::ReferenceDecoder;
use asr_decoder::search::{DecodeOptions, DecodeResult};
use asr_repro::runtime::{AsrRuntime, Transcript};
use asr_wfst::lexicon::Lexicon;
use asr_wfst::{StateId, Wfst, WordId};
use std::fmt::Debug;

/// The oracle: the retained `HashMap` reference decoder over `scores`.
pub fn oracle(wfst: &Wfst, scores: &AcousticTable, opts: &DecodeOptions) -> DecodeResult {
    ReferenceDecoder::new(opts.clone()).decode(wfst, scores)
}

/// The oracle's transcript of `audio` on `runtime`: the reference decoder
/// over the runtime's graph and options, on the rows
/// [`AsrRuntime::score`] gives the whole waveform.
pub fn expected(runtime: &AsrRuntime, audio: &Utterance) -> Outcome<String> {
    let result = oracle(runtime.graph(), &runtime.score(audio), runtime.options());
    Outcome::from(&result).spelled(runtime.lexicon())
}

/// What a consumer reports of a decode, in the terms the oracle is
/// compared on. Words are ids, or spellings for a runtime's
/// [`Transcript`]; `best_state` is `None` where the consumer does not
/// report one.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<W = WordId> {
    /// Words on the best path.
    pub words: Vec<W>,
    /// Best path cost, compared bit for bit.
    pub cost: f32,
    /// Whether the best path ended in a final state.
    pub reached_final: bool,
    /// The winning state in the graph's original numbering, if reported.
    pub best_state: Option<StateId>,
}

impl From<&DecodeResult> for Outcome {
    fn from(r: &DecodeResult) -> Self {
        Self {
            words: r.words.clone(),
            cost: r.cost,
            reached_final: r.reached_final,
            best_state: Some(r.best_state),
        }
    }
}

impl From<&SimResult> for Outcome {
    fn from(r: &SimResult) -> Self {
        Self {
            words: r.words.clone(),
            cost: r.cost,
            reached_final: r.reached_final,
            best_state: Some(r.best_state),
        }
    }
}

impl From<&Transcript> for Outcome<String> {
    fn from(t: &Transcript) -> Self {
        Self {
            words: t.words.clone(),
            cost: t.cost,
            reached_final: t.reached_final,
            best_state: None,
        }
    }
}

impl Outcome {
    /// The same outcome with its words spelled by `lexicon`.
    pub fn spelled(&self, lexicon: &Lexicon) -> Outcome<String> {
        Outcome {
            words: lexicon.transcript(&self.words),
            cost: self.cost,
            reached_final: self.reached_final,
            best_state: self.best_state,
        }
    }
}

/// The one equality every pin asserts: words, cost bits, `reached_final`
/// and, where both sides report one, the best state.
#[track_caller]
pub fn assert_same<W: PartialEq + Debug>(got: &Outcome<W>, want: &Outcome<W>, what: &str) {
    assert_eq!(got.words, want.words, "{what}: words");
    assert_eq!(
        got.cost.to_bits(),
        want.cost.to_bits(),
        "{what}: cost bits ({} vs {})",
        got.cost,
        want.cost
    );
    assert_eq!(
        got.reached_final, want.reached_final,
        "{what}: reached_final"
    );
    if let (Some(got), Some(want)) = (got.best_state, want.best_state) {
        assert_eq!(got, want, "{what}: best state");
    }
}

/// [`assert_same`] over runtime transcripts, the `i`-th against `want[i]`.
#[track_caller]
pub fn assert_transcripts(got: &[Transcript], want: &[Outcome<String>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: transcripts");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_same(&Outcome::from(got), want, &format!("{what}, utterance {i}"));
    }
}
