//! The search's one probe: what a frame does, stage by stage, reported to
//! whoever listens — the paper's per-stage profile (Fig. 1) and per-frame
//! hardware counters, in software.
//!
//! [`seed_start`](crate::search) and every frame report stage marks, the
//! states they expand and a [`FrameWork`] of counters to a [`Probe`];
//! [`TokenTable::relax_observed`](crate::token_table::TokenTable::relax_observed)
//! reports each slot outcome, which the accelerator simulator's timing
//! model charges. Every method defaults to nothing and the search is
//! generic over its probe, so a probe pays only for what it overrides:
//! [`NoopProbe`] compiles away, the decoders'
//! [`DecodeStats`](crate::search::DecodeStats) keeps one [`FrameStats`] a
//! frame, and [`RecordingProbe`] keeps every frame's work and the wall
//! time of each stage (what `just stages` prints).

use crate::search::FrameStats;
use crate::token_table::RelaxOutcome;
use std::time::{Duration, Instant};

/// The stages of a search frame, in the order a frame runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Beam and `max_active` survivors of the live tokens, in state order.
    Frontier,
    /// The frontier's emitting arcs, relaxed with prune-on-insert.
    Relax,
    /// The cap's cutoff over what the relax stored.
    Cutoff,
    /// The epsilon closure.
    Closure,
    /// The lattice GC: marked on every non-final frame that leaves a
    /// token, whether or not the interval falls on it.
    Gc,
}

/// What the search did in one frame, counted as it ran. The start closure
/// reports one too, with only its closure and trace fields set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameWork {
    /// Tokens alive when the frame started.
    pub live: usize,
    /// Tokens the frontier kept and the relax expanded.
    pub expanded: usize,
    /// Emitting arcs traversed, prune-on-insert skips included.
    pub relax_arcs: usize,
    /// Tokens the relax stored (inserted or improved).
    pub relax_stored: usize,
    /// Epsilon arcs traversed.
    pub closure_arcs: usize,
    /// Tokens the closure stored.
    pub closure_stored: usize,
    /// Closure worklist items: a bound on the tokens it expanded.
    pub closure_popped: usize,
    /// Trace entries pushed, one per token that expanded.
    pub entries: usize,
    /// The trace's length when the closure ended, before any GC.
    pub trace_len: usize,
}

impl FrameWork {
    /// The frame's [`FrameStats`]: emitting and epsilon work summed.
    pub fn stats(&self) -> FrameStats {
        FrameStats {
            active_tokens: self.live,
            expanded_tokens: self.expanded,
            arcs_traversed: self.relax_arcs + self.closure_arcs,
            tokens_created: self.relax_stored + self.closure_stored,
        }
    }
}

/// A listener to the search; every method defaults to doing nothing.
pub trait Probe {
    /// `stage` of the frame in flight begins; the stage before it ends.
    #[inline(always)]
    fn stage(&mut self, _stage: Stage) {}

    /// The relax expands a token of `state`, once per frontier token.
    #[inline(always)]
    fn expand(&mut self, _state: u32) {}

    /// A token-table relax of `state` found `outcome`, before the token
    /// is written and before its payload is made.
    #[inline(always)]
    fn insert(&mut self, _state: u32, _outcome: RelaxOutcome) {}

    /// The start closure ended, before any frame, having done `work`.
    #[inline(always)]
    fn start(&mut self, _work: &FrameWork) {}

    /// A frame ended, its GC included, having done `work`.
    #[inline(always)]
    fn frame(&mut self, _work: &FrameWork) {}
}

/// The probe that listens to nothing; calls through it compile away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// A probe that keeps the start closure's and every frame's
/// [`FrameWork`], and the wall time of each [`Stage`] from its mark to the
/// next mark or the frame's end, summed over the frames.
#[derive(Debug, Clone, Default)]
pub struct RecordingProbe {
    /// The start closure's work.
    pub start: FrameWork,
    /// Every frame's work, in order.
    pub frames: Vec<FrameWork>,
    /// Per stage, indexed by `Stage as usize`.
    time: [Duration; 5],
    /// The stage in flight and when it began.
    open: Option<(Stage, Instant)>,
}

impl RecordingProbe {
    /// Wall time spent in `stage` over the frames recorded.
    pub fn time(&self, stage: Stage) -> Duration {
        self.time[stage as usize]
    }

    /// Wall time of the frames recorded, first mark to end: the stages'
    /// sum.
    #[cfg(test)]
    pub(crate) fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }

    /// Ends the stage in flight, if any, at `now`.
    fn close(&mut self, now: Instant) {
        if let Some((stage, began)) = self.open.take() {
            self.time[stage as usize] += now - began;
        }
    }
}

impl Probe for RecordingProbe {
    fn stage(&mut self, stage: Stage) {
        let now = Instant::now();
        self.close(now);
        self.open = Some((stage, now));
    }

    fn start(&mut self, work: &FrameWork) {
        self.start = *work;
    }

    fn frame(&mut self, work: &FrameWork) {
        self.close(Instant::now());
        self.frames.push(*work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recording_probe_times_each_stage_up_to_the_next_mark() {
        let mut probe = RecordingProbe::default();
        probe.stage(Stage::Frontier);
        probe.stage(Stage::Relax);
        std::thread::sleep(Duration::from_millis(2));
        probe.stage(Stage::Closure);
        let work = FrameWork {
            relax_arcs: 5,
            closure_arcs: 1,
            ..FrameWork::default()
        };
        probe.frame(&work);
        assert_eq!(probe.frames, [work]);
        assert_eq!(work.stats().arcs_traversed, 6);
        assert!(probe.time(Stage::Relax) >= Duration::from_millis(2));
        let marked = [Stage::Frontier, Stage::Relax, Stage::Closure];
        let sum: Duration = marked.iter().map(|&stage| probe.time(stage)).sum();
        assert_eq!(sum, probe.total_time());
        // A frame without marks (the lock-step oracle's) adds no time.
        probe.frame(&work);
        assert_eq!(probe.total_time(), sum);
    }
}
