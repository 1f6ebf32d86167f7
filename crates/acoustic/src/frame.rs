//! Framing and windowing of the raw waveform.
//!
//! The paper's pipeline segments audio into 10 ms frames. We apply the
//! standard front-end treatment: pre-emphasis to flatten the spectral tilt,
//! then a Hamming window per frame before the FFT.

/// Framing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameConfig {
    /// Samples per frame (10 ms at 16 kHz = 160).
    pub frame_len: usize,
    /// Hop between frame starts; equal to `frame_len` for non-overlapping
    /// frames as in the paper's description.
    pub hop: usize,
    /// Pre-emphasis coefficient (0.0 disables).
    pub pre_emphasis: f32,
}

impl Default for FrameConfig {
    fn default() -> Self {
        Self {
            frame_len: crate::FRAME_SAMPLES,
            hop: crate::FRAME_SAMPLES,
            pre_emphasis: 0.97,
        }
    }
}

/// Streaming pre-emphasis state: carries `x[t-1]` across pushes so a
/// sample-by-sample front-end produces exactly the filter output of the
/// batch `pre_emphasize` over the concatenated signal.
#[derive(Debug, Clone, Copy)]
pub struct PreEmphasis {
    coefficient: f32,
    prev: f32,
}

impl PreEmphasis {
    /// Creates the filter state (the first sample sees `x[-1] = 0`).
    pub fn new(coefficient: f32) -> Self {
        Self {
            coefficient,
            prev: 0.0,
        }
    }

    /// Filters one sample: `y[t] = x[t] - a * x[t-1]` (identity when the
    /// coefficient is zero, matching the batch form).
    #[inline]
    pub fn step(&mut self, sample: f32) -> f32 {
        let out = if self.coefficient == 0.0 {
            sample
        } else {
            sample - self.coefficient * self.prev
        };
        self.prev = sample;
        out
    }

    /// Forgets the carried sample (start of a new utterance).
    pub fn reset(&mut self) {
        self.prev = 0.0;
    }
}

/// Applies the pre-emphasis filter `y[t] = x[t] - a * x[t-1]` in place.
fn pre_emphasize(samples: &mut [f32], coefficient: f32) {
    let mut filter = PreEmphasis::new(coefficient);
    for s in samples {
        *s = filter.step(*s);
    }
}

/// Windows one frame of already-emphasized samples into `out`: each output
/// is `samples[i] * window[i]`, zero past the end of `samples` (the batch
/// framer's zero-padding of a trailing partial frame).
///
/// # Panics
///
/// Panics if `out` and `window` lengths differ or `samples` is longer than
/// the window.
pub fn window_frame_into(samples: &[f32], window: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), window.len(), "window/output length mismatch");
    assert!(samples.len() <= window.len(), "frame longer than window");
    for (i, (o, w)) in out.iter_mut().zip(window).enumerate() {
        *o = if i < samples.len() {
            samples[i] * w
        } else {
            0.0
        };
    }
}

/// The Hamming window of length `n`.
pub fn hamming(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            0.54 - 0.46 * (2.0 * std::f32::consts::PI * i as f32 / (n.max(2) - 1) as f32).cos()
        })
        .collect()
}

/// Splits `samples` into windowed frames.
///
/// A trailing partial frame is zero-padded so short utterances still emit
/// at least one frame. Returns an empty vector for empty input.
///
/// # Panics
///
/// Panics if `cfg.frame_len == 0` or `cfg.hop == 0`.
pub fn frames(samples: &[f32], cfg: &FrameConfig) -> Vec<Vec<f32>> {
    assert!(cfg.frame_len > 0 && cfg.hop > 0, "degenerate frame config");
    if samples.is_empty() {
        return Vec::new();
    }
    let mut emphasized = samples.to_vec();
    pre_emphasize(&mut emphasized, cfg.pre_emphasis);
    let window = hamming(cfg.frame_len);
    let mut out = Vec::new();
    let mut start = 0;
    while start < emphasized.len() {
        let end = (start + cfg.frame_len).min(emphasized.len());
        let mut frame = vec![0.0f32; cfg.frame_len];
        window_frame_into(&emphasized[start..end], &window, &mut frame);
        out.push(frame);
        start += cfg.hop;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_count_covers_input() {
        let cfg = FrameConfig::default();
        let samples = vec![0.5f32; 160 * 3 + 10]; // 3 full frames + partial
        let f = frames(&samples, &cfg);
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|fr| fr.len() == 160));
    }

    #[test]
    fn empty_input_gives_no_frames() {
        assert!(frames(&[], &FrameConfig::default()).is_empty());
    }

    #[test]
    fn pre_emphasis_removes_dc_trend() {
        let mut dc = vec![1.0f32; 100];
        pre_emphasize(&mut dc, 0.97);
        // After the first sample the output settles near 0.03.
        for &s in &dc[1..] {
            assert!((s - 0.03).abs() < 1e-6);
        }
        assert_eq!(dc[0], 1.0);
    }

    #[test]
    fn zero_coefficient_is_identity() {
        let mut x = vec![0.1, -0.2, 0.3];
        let orig = x.clone();
        pre_emphasize(&mut x, 0.0);
        assert_eq!(x, orig);
    }

    #[test]
    fn hamming_window_is_symmetric_and_peaked() {
        let w = hamming(160);
        assert_eq!(w.len(), 160);
        for i in 0..80 {
            assert!((w[i] - w[159 - i]).abs() < 1e-5, "asymmetry at {i}");
        }
        let peak = w.iter().cloned().fold(f32::MIN, f32::max);
        assert!(peak <= 1.0 && peak > 0.99);
        assert!((w[0] - 0.08).abs() < 1e-5);
    }

    #[test]
    fn windowing_tapers_frame_edges() {
        let cfg = FrameConfig {
            pre_emphasis: 0.0,
            ..FrameConfig::default()
        };
        let samples = vec![1.0f32; 160];
        let f = frames(&samples, &cfg);
        assert!((f[0][0] - 0.08).abs() < 1e-5);
        assert!(f[0][80] > 0.9);
    }

    #[test]
    fn overlapping_hop_increases_frame_count() {
        let cfg = FrameConfig {
            hop: 80,
            ..FrameConfig::default()
        };
        let samples = vec![0.1f32; 320];
        assert_eq!(frames(&samples, &cfg).len(), 4);
    }
}
