//! Mel filterbank: perceptually-spaced triangular filters over the power
//! spectrum, the core of the MFCC feature extraction (Section II cites MFCC
//! as the standard signal-processing step of an ASR pipeline).

/// Converts frequency in Hz to the mel scale.
#[inline]
fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mel back to Hz.
#[inline]
fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// A bank of triangular mel-spaced filters.
#[derive(Debug, Clone)]
pub struct MelFilterbank {
    // One weight row per filter over the spectrum bins.
    filters: Vec<Vec<(usize, f32)>>, // sparse (bin, weight) pairs
    num_bins: usize,
}

impl MelFilterbank {
    /// Builds `num_filters` triangular filters between `f_lo` and `f_hi`
    /// Hz for spectra with `num_bins` bins at `sample_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `num_filters == 0`, `num_bins < num_filters + 2`, or the
    /// frequency range is empty.
    pub fn new(
        num_filters: usize,
        num_bins: usize,
        sample_rate: u32,
        f_lo: f32,
        f_hi: f32,
    ) -> Self {
        assert!(num_filters > 0, "need at least one filter");
        assert!(
            num_bins >= num_filters + 2,
            "spectrum too coarse for {num_filters} filters"
        );
        assert!(f_lo < f_hi, "empty frequency range");
        let mel_lo = hz_to_mel(f_lo);
        let mel_hi = hz_to_mel(f_hi);
        // num_filters + 2 edge points, evenly spaced on the mel scale.
        let edges: Vec<f32> = (0..num_filters + 2)
            .map(|i| {
                let mel = mel_lo + (mel_hi - mel_lo) * i as f32 / (num_filters + 1) as f32;
                mel_to_hz(mel)
            })
            .collect();
        let nyquist = sample_rate as f32 / 2.0;
        let bin_hz = nyquist / (num_bins - 1) as f32;
        let mut filters = Vec::with_capacity(num_filters);
        for f in 0..num_filters {
            let (left, center, right) = (edges[f], edges[f + 1], edges[f + 2]);
            let mut taps = Vec::new();
            for bin in 0..num_bins {
                let hz = bin as f32 * bin_hz;
                let w = if hz >= left && hz <= center && center > left {
                    (hz - left) / (center - left)
                } else if hz > center && hz <= right && right > center {
                    (right - hz) / (right - center)
                } else {
                    0.0
                };
                if w > 0.0 {
                    taps.push((bin, w));
                }
            }
            filters.push(taps);
        }
        Self { filters, num_bins }
    }

    /// Standard configuration: 26 filters from 0 Hz to Nyquist.
    pub fn standard(num_bins: usize, sample_rate: u32) -> Self {
        Self::new(26, num_bins, sample_rate, 20.0, sample_rate as f32 / 2.0)
    }

    /// Number of filters.
    #[cfg(test)]
    fn num_filters(&self) -> usize {
        self.filters.len()
    }

    /// Applies the bank to a power spectrum, returning log filterbank
    /// energies (floored to avoid `-inf`).
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len()` differs from the configured bin count.
    #[cfg(test)]
    fn apply(&self, spectrum: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.filters.len()];
        self.apply_into(spectrum, &mut out);
        out
    }

    /// Applies the bank to a power spectrum into caller-owned
    /// storage (one slot per filter).
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len()` differs from the configured bin count or
    /// `out.len()` from the filter count.
    pub fn apply_into(&self, spectrum: &[f32], out: &mut [f32]) {
        assert_eq!(spectrum.len(), self.num_bins, "spectrum bin mismatch");
        assert_eq!(out.len(), self.filters.len(), "filter output length");
        for (o, taps) in out.iter_mut().zip(&self.filters) {
            let energy: f32 = taps.iter().map(|&(bin, w)| spectrum[bin] * w).sum();
            *o = energy.max(1e-10).ln();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_scale_roundtrip() {
        for hz in [0.0f32, 100.0, 1000.0, 4000.0, 8000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.5, "{hz} -> {back}");
        }
    }

    #[test]
    fn mel_scale_is_monotone_and_compressive() {
        assert!(hz_to_mel(1000.0) > hz_to_mel(500.0));
        // Equal Hz steps shrink on the mel axis at higher frequencies.
        let low_step = hz_to_mel(600.0) - hz_to_mel(500.0);
        let high_step = hz_to_mel(6100.0) - hz_to_mel(6000.0);
        assert!(low_step > high_step);
    }

    #[test]
    fn filters_cover_the_spectrum() {
        let fb = MelFilterbank::standard(257, 16_000);
        assert_eq!(fb.num_filters(), 26);
        // Every filter has at least one tap.
        for f in 0..fb.num_filters() {
            assert!(!fb.filters[f].is_empty(), "filter {f} is empty");
        }
    }

    #[test]
    fn flat_spectrum_yields_finite_energies() {
        let fb = MelFilterbank::standard(129, 16_000);
        let out = fb.apply(&vec![1.0; 129]);
        assert_eq!(out.len(), 26);
        assert!(out.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn zero_spectrum_is_floored_not_infinite() {
        let fb = MelFilterbank::standard(129, 16_000);
        let out = fb.apply(&vec![0.0; 129]);
        assert!(out.iter().all(|e| e.is_finite() && *e < 0.0));
    }

    #[test]
    fn narrowband_energy_lands_in_matching_filter() {
        let fb = MelFilterbank::standard(257, 16_000);
        // Energy only in bin 40 (~2.5 kHz).
        let mut spec = vec![0.0f32; 257];
        spec[40] = 100.0;
        let out = fb.apply(&spec);
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        // The peak filter must actually contain bin 40.
        assert!(fb.filters[peak].iter().any(|&(b, _)| b == 40));
    }

    #[test]
    #[should_panic(expected = "bin mismatch")]
    fn wrong_spectrum_length_panics() {
        let fb = MelFilterbank::standard(129, 16_000);
        fb.apply(&[0.0; 64]);
    }
}
