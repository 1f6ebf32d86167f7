//! Admission control: the session count every runtime clone shares and
//! the limit new sessions are shed at.
//!
//! [`RuntimeConfig::max_sessions`] caps the sessions in flight. At the
//! cap, [`super::AsrRuntime::try_open_session`] sheds a new session with
//! a typed [`PipelineError::Overloaded`] instead of queueing it into
//! unbounded latency, while every admitted session runs to completion.
//! Admission decides only *whether* a session runs, never how: every
//! session decodes at the runtime's construction-time
//! [`DecodeOptions`], so an admitted session's transcript is
//! byte-identical to the same session on an unlimited runtime. The
//! search width is a design-time trade, as in the paper (Fig. 8), not a
//! serving-time switch.
//!
//! [`Admission`] owns the whole protocol. It reads no clock and no
//! executor, and its counts move only when a session opens or closes.
//! Nothing outside this module touches its atomics.
//!
//! [`DecodeOptions`]: asr_decoder::search::DecodeOptions

use super::{PipelineError, RuntimeConfig, RuntimeStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

impl RuntimeConfig {
    /// Arms admission control: [`super::AsrRuntime::try_open_session`]
    /// sheds new sessions once `limit` are in flight. `0` (the default)
    /// leaves admission unlimited. The infallible
    /// [`super::AsrRuntime::open_session`] never sheds, but its sessions
    /// count toward the limit.
    pub fn max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = limit;
        self
    }
}

/// Lock-free session bookkeeping shared by every runtime clone.
#[derive(Debug, Default)]
pub(super) struct Admission {
    /// Sessions [`Admission::try_admit`] lets in at once; `0` is
    /// unlimited.
    limit: usize,
    active: AtomicUsize,
    peak: AtomicUsize,
    shed: AtomicU64,
}

impl Admission {
    pub(super) fn new(limit: usize) -> Self {
        Self {
            limit,
            ..Self::default()
        }
    }

    /// A [`RuntimeStats`] with the session counts set and every other
    /// field at its default, for the caller to complete.
    pub(super) fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            active_sessions: self.active.load(Ordering::Acquire),
            peak_sessions: self.peak.load(Ordering::Acquire),
            shed_sessions: self.shed.load(Ordering::Acquire),
            ..RuntimeStats::default()
        }
    }

    /// Unconditional admission: counts the session in (the infallible
    /// [`super::AsrRuntime::open_session`] path).
    pub(super) fn session_opened(&self) {
        let now = self.active.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak.fetch_max(now, Ordering::AcqRel);
    }

    /// Counts a session out (from `Session`'s `Drop`, so finalize and
    /// abandonment both land here exactly once).
    pub(super) fn session_closed(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// Fallible admission: atomically admits the session iff the limit
    /// leaves room, otherwise sheds it with a typed
    /// [`PipelineError::Overloaded`]. No limit admits unconditionally.
    pub(super) fn try_admit(&self) -> Result<(), PipelineError> {
        let limit = self.limit;
        if limit == 0 {
            self.session_opened();
            return Ok(());
        }
        let admitted = self
            .active
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                (active < limit).then_some(active + 1)
            });
        match admitted {
            Ok(previous) => {
                self.peak.fetch_max(previous + 1, Ordering::AcqRel);
                Ok(())
            }
            Err(active) => {
                self.shed.fetch_add(1, Ordering::AcqRel);
                Err(PipelineError::Overloaded { active, limit })
            }
        }
    }
}
