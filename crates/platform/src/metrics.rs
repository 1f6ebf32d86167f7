//! The decode-time / energy / power triple every figure reports.

/// One platform's operating point on a workload: the axes of Figures 9-14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Decode (Viterbi) time per second of speech, in seconds (Figure 9).
    pub decode_s_per_speech_s: f64,
    /// Energy per second of speech, in joules (Figures 11/14).
    pub energy_j_per_speech_s: f64,
}

impl OperatingPoint {
    /// Builds the point from a decode time and an average power.
    pub fn from_power(decode_s_per_speech_s: f64, power_w: f64) -> Self {
        Self {
            decode_s_per_speech_s,
            energy_j_per_speech_s: decode_s_per_speech_s * power_w,
        }
    }

    /// Average power in watts (Figure 12).
    pub fn power_w(&self) -> f64 {
        if self.decode_s_per_speech_s <= 0.0 {
            return 0.0;
        }
        self.energy_j_per_speech_s / self.decode_s_per_speech_s
    }

    /// Speedup of `self` over `other` (>1 means `self` is faster).
    pub fn speedup_over(&self, other: &OperatingPoint) -> f64 {
        other.decode_s_per_speech_s / self.decode_s_per_speech_s
    }

    /// Energy reduction of `self` versus `other` (>1 means `self` uses
    /// less energy).
    pub fn energy_reduction_vs(&self, other: &OperatingPoint) -> f64 {
        other.energy_j_per_speech_s / self.energy_j_per_speech_s
    }

    /// Real-time factor (56x in the paper for the final accelerator).
    pub fn real_time_factor(&self) -> f64 {
        if self.decode_s_per_speech_s <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / self.decode_s_per_speech_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_power_roundtrips() {
        let p = OperatingPoint::from_power(0.25, 40.0);
        assert!((p.energy_j_per_speech_s - 10.0).abs() < 1e-12);
        assert!((p.power_w() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_energy_reduction() {
        let slow = OperatingPoint::from_power(1.0, 100.0);
        let fast = OperatingPoint::from_power(0.1, 1.0);
        assert!((fast.speedup_over(&slow) - 10.0).abs() < 1e-12);
        assert!((fast.energy_reduction_vs(&slow) - 1000.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn real_time_factor() {
        let p = OperatingPoint::from_power(1.0 / 56.0, 0.45);
        assert!((p.real_time_factor() - 56.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_point_is_safe() {
        let p = OperatingPoint::from_power(0.0, 10.0);
        assert_eq!(p.power_w(), 0.0);
        assert_eq!(p.real_time_factor(), f64::INFINITY);
    }
}
