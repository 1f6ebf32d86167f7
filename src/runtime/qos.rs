//! Load-adaptive QoS: pressure tiers, the pressure monitor, admission.
//!
//! The paper trades beam width against cycles and accuracy at design
//! time; the runtime turns the same knob at *serving* time. Installing
//! a [`QosPolicy`] ([`RuntimeConfig::qos`]) gives the runtime
//! ordered pressure tiers that narrow `beam`/`max_active` as a pressure
//! signal rises — session occupancy, `active_sessions / max_sessions`
//! (`0` with no session limit, where tiers engage only through pins) —
//! with configurable per-session floors. It also arms admission control:
//! past the policy's saturation point,
//! [`super::AsrRuntime::try_open_session`] sheds new sessions with a
//! typed [`PipelineError::Overloaded`] instead of queueing them into
//! unbounded latency, while every admitted session always runs to
//! completion. Tier changes apply at frame boundaries only, so a
//! session's decode is deterministic given its tier trace — pinned to
//! one tier it is byte-identical to a fixed-beam decode at that tier's
//! parameters, and with QoS off the runtime is byte-identical to a
//! runtime with no policy at all.
//!
//! [`PressureMonitor`] owns the whole protocol: the session count
//! admission decides on, and the occupancy → tier selection every
//! adaptive session reads back at its next frame boundary. It reads no
//! clock and no executor; the pressure moves only when a session opens
//! or closes. Nothing outside this module touches its atomics.

use super::{PipelineError, RuntimeConfig, RuntimeStats};
use asr_decoder::search::DecodeOptions;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One rung of a [`QosPolicy`]: at or above `min_pressure`, adaptive
/// sessions decode with this beam / max-active pair (clamped to the
/// policy's floors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTier {
    min_pressure: f64,
    beam: f32,
    max_active: Option<usize>,
}

impl QosTier {
    /// The pressure at which this tier engages.
    pub fn min_pressure(&self) -> f64 {
        self.min_pressure
    }

    /// The beam width this tier decodes with (before floor clamping).
    pub fn beam(&self) -> f32 {
        self.beam
    }

    /// The max-active cap this tier decodes with (before floor
    /// clamping); `None` leaves the token count beam-limited only.
    pub fn max_active(&self) -> Option<usize> {
        self.max_active
    }
}

/// A tiered degradation policy: the serving-time image of the paper's
/// beam-width/cycles/accuracy trade-off, plus admission control.
///
/// A policy is an ordered list of pressure tiers. Tier `0` is the
/// runtime's base [`DecodeOptions`]; each [`QosPolicy::tier`] call adds
/// the next rung, engaged when the session occupancy reaches its
/// threshold. Per-session floors ([`QosPolicy::floors`]) bound how far
/// degradation may narrow the search, and
/// [`QosPolicy::max_sessions`] arms admission control for
/// [`super::AsrRuntime::try_open_session`].
///
/// ```
/// use asr_repro::runtime::QosPolicy;
///
/// let policy = QosPolicy::new()
///     .tier(0.50, 30.0, None)         // mild pressure: narrow the beam
///     .tier(0.75, 20.0, Some(2048))   // heavy: cap active tokens too
///     .tier(0.95, 12.0, Some(512))    // saturated: survival mode
///     .floors(8.0, 128)
///     .max_sessions(8);
/// assert_eq!(policy.num_tiers(), 4); // base + three rungs
/// assert_eq!(policy.select_tier(0.6), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QosPolicy {
    tiers: Vec<QosTier>,
    beam_floor: f32,
    max_active_floor: usize,
    max_sessions: usize,
}

impl Default for QosPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl QosPolicy {
    /// An empty policy: no degradation tiers, no admission limit. On
    /// its own it only turns on pressure tracking; add tiers and a
    /// session limit to make it bite (without a limit the pressure stays
    /// `0`, so tiers engage only through pins).
    pub fn new() -> Self {
        Self {
            tiers: Vec::new(),
            beam_floor: 0.0,
            max_active_floor: 1,
            max_sessions: 0,
        }
    }

    /// Appends a degradation tier engaged at `min_pressure`.
    ///
    /// # Panics
    ///
    /// Panics unless `min_pressure` is positive, finite, and strictly
    /// greater than the previous tier's threshold (tiers are declared
    /// in ascending pressure order).
    pub fn tier(mut self, min_pressure: f64, beam: f32, max_active: Option<usize>) -> Self {
        assert!(
            min_pressure.is_finite() && min_pressure > 0.0,
            "tier threshold must be positive and finite"
        );
        if let Some(last) = self.tiers.last() {
            assert!(
                min_pressure > last.min_pressure,
                "tiers must be declared in ascending pressure order \
                 ({min_pressure} after {})",
                last.min_pressure
            );
        }
        self.tiers.push(QosTier {
            min_pressure,
            beam,
            max_active,
        });
        self
    }

    /// Per-session floors degradation never crosses: no tier decodes
    /// below `beam_floor` or with fewer than `max_active_floor` active
    /// tokens, however hard the runtime is pressed.
    ///
    /// # Panics
    ///
    /// Panics if `max_active_floor == 0` (the search needs at least one
    /// live token).
    pub fn floors(mut self, beam_floor: f32, max_active_floor: usize) -> Self {
        assert!(max_active_floor > 0, "need at least one active token");
        self.beam_floor = beam_floor;
        self.max_active_floor = max_active_floor;
        self
    }

    /// Arms admission control: [`super::AsrRuntime::try_open_session`] sheds
    /// new sessions once `limit` are in flight, and the pressure signal
    /// becomes `active_sessions / limit`. `0` (the default) leaves
    /// admission unlimited and the pressure at `0`.
    pub fn max_sessions(mut self, limit: usize) -> Self {
        self.max_sessions = limit;
        self
    }

    /// The declared degradation rungs, in ascending pressure order
    /// (tier `0`, the runtime's base options, is implicit).
    pub fn tiers(&self) -> &[QosTier] {
        &self.tiers
    }

    /// The configured admission limit (`0` = unlimited).
    pub fn session_limit(&self) -> usize {
        self.max_sessions
    }

    /// Number of tiers including the implicit base tier `0`.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len() + 1
    }

    /// The tier a given pressure selects: the highest rung whose
    /// threshold the pressure reaches, or `0` below every threshold.
    pub fn select_tier(&self, pressure: f64) -> usize {
        self.tiers
            .iter()
            .take_while(|t| pressure >= t.min_pressure)
            .count()
    }

    /// The `(beam, max_active)` a session decodes with at `tier`, given
    /// the runtime's base options: tier `0` is the base pair untouched;
    /// higher tiers are the declared rungs clamped to the policy's
    /// floors. Tiers past the last rung saturate at the last rung.
    pub fn params(&self, tier: usize, base: &DecodeOptions) -> (f32, Option<usize>) {
        if tier == 0 || self.tiers.is_empty() {
            return (base.beam, base.max_active);
        }
        let rung = self.tiers[tier.min(self.tiers.len()) - 1];
        let beam = rung.beam.max(self.beam_floor);
        let max_active = rung.max_active.map(|m| m.max(self.max_active_floor));
        (beam, max_active)
    }
}

impl RuntimeConfig {
    /// Installs a load-adaptive [`QosPolicy`]: tiered degradation plus
    /// admission control. Without a policy the runtime behaves exactly
    /// as before — no pressure tracking on the frame path, infallible
    /// admission, fixed search parameters.
    pub fn qos(mut self, policy: QosPolicy) -> Self {
        self.qos = Some(policy);
        self
    }
}

/// Lock-free pressure bookkeeping shared by every runtime clone: the
/// serving-side observability the accelerator exposes through its
/// cycle counters, kept off the frame path entirely (it moves only at
/// session open and close; a frame reads one tier atomic). Session
/// counts are kept always; tier selection only under a policy.
#[derive(Debug, Default)]
pub(super) struct PressureMonitor {
    /// The load-adaptive degradation policy, when one is installed.
    policy: Option<QosPolicy>,
    active_sessions: AtomicUsize,
    peak_sessions: AtomicUsize,
    shed_sessions: AtomicU64,
    /// The latest session occupancy, as `f64` bits.
    pressure_bits: AtomicU64,
    tier: AtomicUsize,
    peak_tier: AtomicUsize,
}

impl PressureMonitor {
    pub(super) fn new(policy: Option<QosPolicy>) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The installed policy, when the runtime has one.
    pub(super) fn policy(&self) -> Option<&QosPolicy> {
        self.policy.as_ref()
    }

    /// The degradation tier adaptive sessions decode their next frame
    /// at (`0` without a policy).
    pub(super) fn tier(&self) -> usize {
        self.tier.load(Ordering::Acquire)
    }

    /// A [`RuntimeStats`] with the monitor's fields set and every other
    /// one at its default, for the caller to complete.
    pub(super) fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            active_sessions: self.active_sessions.load(Ordering::Acquire),
            peak_sessions: self.peak_sessions.load(Ordering::Acquire),
            shed_sessions: self.shed_sessions.load(Ordering::Acquire),
            pressure: f64::from_bits(self.pressure_bits.load(Ordering::Acquire)),
            tier: self.tier(),
            peak_tier: self.peak_tier.load(Ordering::Acquire),
            ..RuntimeStats::default()
        }
    }

    /// Unconditional admission: counts the session in and refreshes the
    /// pressure signal (the infallible
    /// [`super::AsrRuntime::open_session`] path).
    pub(super) fn session_opened(&self) {
        let now = self.active_sessions.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak_sessions.fetch_max(now, Ordering::AcqRel);
        self.refresh_pressure();
    }

    /// Counts a session out (from `Session`'s `Drop`, so finalize and
    /// abandonment both land here exactly once) and lets the pressure
    /// signal relax.
    pub(super) fn session_closed(&self) {
        self.active_sessions.fetch_sub(1, Ordering::AcqRel);
        self.refresh_pressure();
    }

    /// Fallible admission: atomically admits the session iff the
    /// policy's limit leaves room, otherwise sheds it with a typed
    /// [`PipelineError::Overloaded`]. No limit (or no policy) admits
    /// unconditionally.
    pub(super) fn try_admit(&self) -> Result<(), PipelineError> {
        let limit = self.policy.as_ref().map_or(0, QosPolicy::session_limit);
        if limit == 0 {
            self.session_opened();
            return Ok(());
        }
        let admitted =
            self.active_sessions
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |active| {
                    (active < limit).then_some(active + 1)
                });
        match admitted {
            Ok(previous) => {
                self.peak_sessions.fetch_max(previous + 1, Ordering::AcqRel);
                self.refresh_pressure();
                Ok(())
            }
            Err(active) => {
                self.shed_sessions.fetch_add(1, Ordering::AcqRel);
                Err(PipelineError::Overloaded { active, limit })
            }
        }
    }

    /// Recomputes the pressure signal — session occupancy,
    /// `active / max_sessions`, or `0` with no limit — and the tier it
    /// selects.
    fn refresh_pressure(&self) {
        let Some(policy) = &self.policy else { return };
        let pressure = match policy.max_sessions {
            0 => 0.0,
            limit => self.active_sessions.load(Ordering::Acquire) as f64 / limit as f64,
        };
        self.pressure_bits
            .store(pressure.to_bits(), Ordering::Release);
        let tier = policy.select_tier(pressure);
        self.tier.store(tier, Ordering::Release);
        self.peak_tier.fetch_max(tier, Ordering::AcqRel);
    }
}
