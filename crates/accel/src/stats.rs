//! Aggregated statistics of one simulated decode.

use crate::hash::HashStats;
use crate::mem::{CacheStats, TrafficStats};

/// Activity of one decoded frame (one emitting wave).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Cycles this frame's wave occupied the pipeline.
    pub cycles: u64,
    /// Tokens read from the current-frame hash table.
    pub tokens: u64,
    /// Arcs evaluated (emitting + epsilon).
    pub arcs: u64,
}

/// Everything the experiment harness needs from one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Frames of speech decoded.
    pub frames: usize,
    /// Total clock cycles.
    pub cycles: u64,
    /// Tokens read from the current-frame hash table.
    pub tokens_fetched: u64,
    /// Tokens discarded by beam pruning at the State Issuer.
    pub tokens_pruned: u64,
    /// Token insertions/updates issued to the next-frame hash table.
    pub tokens_created: u64,
    /// Non-epsilon arcs evaluated.
    pub arcs_processed: u64,
    /// Epsilon arcs evaluated.
    pub eps_arcs_processed: u64,
    /// Arc records fetched through the Arc cache (includes the epsilon
    /// records a direct-indexed state must fetch to discover the split).
    pub arc_fetches: u64,
    /// State records fetched through the State cache.
    pub state_fetches: u64,
    /// State fetches eliminated by the Section IV-B direct computation.
    pub state_fetches_avoided: u64,
    /// State cache counters.
    pub state_cache: CacheStats,
    /// Arc cache counters.
    pub arc_cache: CacheStats,
    /// Token cache counters.
    pub token_cache: CacheStats,
    /// Hash-table counters (both tables combined).
    pub hash: HashStats,
    /// Off-chip traffic by kind.
    pub traffic: TrafficStats,
    /// Floating-point additions performed by the Likelihood Evaluation
    /// unit (three per evaluated arc: source + weight + acoustic).
    pub fp_adds: u64,
    /// Floating-point comparisons (pruning + token max-reduction).
    pub fp_compares: u64,
    /// DRAM line requests.
    pub mem_requests: u64,
    /// Per-frame activity (one entry per emitting wave, in frame order).
    pub per_frame: Vec<FrameStats>,
}

impl SimStats {
    /// Wall-clock seconds at `frequency_hz`.
    pub fn seconds(&self, frequency_hz: u64) -> f64 {
        self.cycles as f64 / frequency_hz as f64
    }

    /// Decode time per second of speech (Figure 9's metric) assuming 10 ms
    /// frames.
    fn decode_time_per_speech_second(&self, frequency_hz: u64) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        let speech_seconds = self.frames as f64 * 0.01;
        self.seconds(frequency_hz) / speech_seconds
    }

    /// Mean evaluated arcs (emitting + epsilon) per frame.
    pub fn arcs_per_frame(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        (self.arcs_processed + self.eps_arcs_processed) as f64 / self.frames as f64
    }

    /// Cycles per evaluated arc — the accelerator's efficiency figure.
    pub fn cycles_per_arc(&self) -> f64 {
        let arcs = self.arcs_processed + self.eps_arcs_processed;
        if arcs == 0 {
            return 0.0;
        }
        self.cycles as f64 / arcs as f64
    }

    /// Real-time factor: how many seconds of speech are decoded per second
    /// of wall-clock (the paper: 56x real time).
    pub fn real_time_factor(&self, frequency_hz: u64) -> f64 {
        let d = self.decode_time_per_speech_second(frequency_hz);
        if d == 0.0 {
            return f64::INFINITY;
        }
        1.0 / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimStats {
        SimStats {
            frames: 100,
            cycles: 600_000, // 1 ms at 600 MHz
            arcs_processed: 90,
            eps_arcs_processed: 10,
            ..SimStats::default()
        }
    }

    #[test]
    fn seconds_follow_frequency() {
        let s = sample();
        assert!((s.seconds(600_000_000) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn decode_time_is_normalized_per_speech_second() {
        let s = sample();
        // 100 frames = 1 s of speech decoded in 1 ms -> 0.001 s per speech
        // second, i.e. 1000x real time.
        assert!((s.decode_time_per_speech_second(600_000_000) - 0.001).abs() < 1e-12);
        assert!((s.real_time_factor(600_000_000) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn per_arc_metrics() {
        let s = sample();
        assert!((s.arcs_per_frame() - 1.0).abs() < 1e-12);
        assert!((s.cycles_per_arc() - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_frames_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.decode_time_per_speech_second(600_000_000), 0.0);
        assert_eq!(s.arcs_per_frame(), 0.0);
        assert_eq!(s.cycles_per_arc(), 0.0);
    }
}
