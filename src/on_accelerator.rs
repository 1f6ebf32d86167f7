//! Recognition on the simulated accelerator, built on the serving
//! facade's public accessors ([`AsrRuntime::score`],
//! [`AsrRuntime::graph`], [`AsrRuntime::lexicon`],
//! [`AsrRuntime::options`]) — so the serving layer itself never depends
//! on the simulator crate.

use crate::runtime::{AsrRuntime, PipelineError, Transcript};
use asr_accel::config::AcceleratorConfig;
use asr_accel::sim::{PreparedWfst, SimResult, Simulator};
use asr_acoustic::signal::Utterance;

/// Recognizes a waveform on the simulated accelerator, returning the
/// transcript together with the full hardware result (cycles, traffic,
/// cache statistics).
///
/// # Errors
///
/// Propagates WFST re-layout failures for state-optimized designs.
pub fn recognize(
    runtime: &AsrRuntime,
    utterance: &Utterance,
    cfg: AcceleratorConfig,
) -> Result<(Transcript, SimResult), PipelineError> {
    let prepared = prepare(runtime, &cfg)?;
    recognize_prepared(runtime, utterance, cfg, &prepared)
}

/// Prepares the runtime's decoding graph for an accelerator design
/// point: the original layout for the base design, the degree-sorted
/// layout (plus direct-index registers) for state-optimized designs.
/// Preparing once and decoding many utterances with
/// [`recognize_prepared`] amortizes the re-layout.
///
/// # Errors
///
/// Propagates WFST re-layout validation failures as
/// [`PipelineError::Wfst`].
pub fn prepare(
    runtime: &AsrRuntime,
    cfg: &AcceleratorConfig,
) -> Result<PreparedWfst, PipelineError> {
    Ok(PreparedWfst::new(runtime.graph(), cfg)?)
}

/// Recognizes a waveform on the simulated accelerator over an
/// already-prepared graph layout.
///
/// # Errors
///
/// Returns [`PipelineError::Wfst`] when the simulator refuses the
/// prepared layout — e.g. [`asr_wfst::WfstError::LayoutMismatch`] when
/// the direct-index registers disagree with the sorted graph. The
/// failure is a typed error, never a panic, and leaves the runtime
/// fully serviceable: live sessions, pools, and future accelerator
/// decodes are untouched.
pub fn recognize_prepared(
    runtime: &AsrRuntime,
    utterance: &Utterance,
    mut cfg: AcceleratorConfig,
    prepared: &PreparedWfst,
) -> Result<(Transcript, SimResult), PipelineError> {
    let scores = runtime.score(utterance);
    cfg.beam = runtime.options().beam;
    let result = Simulator::new(cfg).decode(prepared, &scores)?;
    let transcript = Transcript {
        words: runtime.lexicon().transcript(&result.words),
        cost: result.cost,
        reached_final: result.reached_final,
    };
    Ok((transcript, result))
}
