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
/// cache statistics). The graph is laid out for the design point first:
/// the original layout for the base design, the degree-sorted layout
/// (plus direct-index registers) for state-optimized designs.
///
/// # Errors
///
/// Propagates WFST re-layout failures for state-optimized designs as
/// [`PipelineError::Wfst`].
pub fn recognize(
    runtime: &AsrRuntime,
    utterance: &Utterance,
    mut cfg: AcceleratorConfig,
) -> Result<(Transcript, SimResult), PipelineError> {
    let prepared = PreparedWfst::new(runtime.graph(), &cfg)?;
    let scores = runtime.score(utterance);
    cfg.beam = runtime.options().beam;
    let result = Simulator::new(cfg).decode(&prepared, &scores);
    let transcript = Transcript {
        words: runtime.lexicon().transcript(&result.words),
        cost: result.cost,
        reached_final: result.reached_final,
    };
    Ok((transcript, result))
}
