//! End-to-end MFCC feature pipeline: waveform → framed/windowed signal →
//! power spectrum → mel filterbank → DCT → cepstra, plus Δ and ΔΔ
//! appending, matching the standard ASR front-end the paper assumes.

use crate::dct::Dct;
use crate::fft::{power_spectrum_into, Complex};
use crate::frame::{frames, FrameConfig};
use crate::mel::MelFilterbank;

/// Configuration of the MFCC pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfccConfig {
    /// Framing parameters.
    pub frame: FrameConfig,
    /// FFT length (power of two, >= frame length).
    pub fft_len: usize,
    /// Number of mel filters.
    pub num_filters: usize,
    /// Number of cepstral coefficients kept.
    pub num_ceps: usize,
    /// Append Δ and ΔΔ features (tripling the dimension).
    pub deltas: bool,
    /// Sample rate in Hz.
    pub sample_rate: u32,
}

impl Default for MfccConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::default(),
            fft_len: 256,
            num_filters: 26,
            num_ceps: 13,
            deltas: true,
            sample_rate: crate::SAMPLE_RATE,
        }
    }
}

impl MfccConfig {
    /// Feature dimension of the vectors a pipeline built from this
    /// configuration emits: the cepstra, tripled when deltas are on.
    pub fn dim(&self) -> usize {
        if self.deltas {
            self.num_ceps * 3
        } else {
            self.num_ceps
        }
    }
}

/// Reusable MFCC extractor (filterbank and DCT tables are precomputed).
#[derive(Debug, Clone)]
pub struct MfccPipeline {
    cfg: MfccConfig,
    filterbank: MelFilterbank,
    dct: Dct,
}

impl MfccPipeline {
    /// Builds the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (FFT shorter than the
    /// frame, non-power-of-two FFT, more cepstra than filters).
    pub fn new(cfg: MfccConfig) -> Self {
        assert!(cfg.fft_len >= cfg.frame.frame_len, "FFT shorter than frame");
        assert!(cfg.fft_len.is_power_of_two(), "FFT length must be 2^k");
        assert!(cfg.num_ceps <= cfg.num_filters, "more cepstra than filters");
        let num_bins = cfg.fft_len / 2 + 1;
        let filterbank = MelFilterbank::standard(num_bins, cfg.sample_rate);
        let dct = Dct::new(cfg.num_filters, cfg.num_ceps);
        Self {
            cfg,
            filterbank,
            dct,
        }
    }

    /// The configuration the pipeline was built with.
    pub fn config(&self) -> &MfccConfig {
        &self.cfg
    }

    /// Feature dimension of the output vectors.
    pub fn dim(&self) -> usize {
        self.cfg.dim()
    }

    /// Allocates the caller-owned scratch [`MfccPipeline::static_features_into`]
    /// works over (FFT buffer, spectrum, filterbank energies).
    pub fn frame_scratch(&self) -> FrameScratch {
        FrameScratch {
            fft: vec![Complex::default(); self.cfg.fft_len],
            spectrum: vec![0.0; self.cfg.fft_len / 2 + 1],
            fbank: vec![0.0; self.cfg.num_filters],
        }
    }

    /// Static cepstra of one pre-emphasized, windowed frame, written into
    /// `out` (`num_ceps` slots) without allocating: the per-frame step the
    /// batch [`MfccPipeline::process`] and the streaming
    /// [`crate::online::OnlineMfcc`] both run, so their outputs are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was built for a different configuration or
    /// `out.len() != num_ceps`.
    pub fn static_features_into(
        &self,
        windowed: &[f32],
        scratch: &mut FrameScratch,
        out: &mut [f32],
    ) {
        power_spectrum_into(windowed, &mut scratch.fft, &mut scratch.spectrum);
        self.filterbank
            .apply_into(&scratch.spectrum, &mut scratch.fbank);
        self.dct.apply_into(&scratch.fbank, out);
    }

    /// Extracts one feature vector per frame of `samples`.
    pub fn process(&self, samples: &[f32]) -> Vec<Vec<f32>> {
        let framed = frames(samples, &self.cfg.frame);
        let mut scratch = self.frame_scratch();
        let mut base: Vec<Vec<f32>> = framed
            .iter()
            .map(|frame| {
                let mut ceps = vec![0.0f32; self.cfg.num_ceps];
                self.static_features_into(frame, &mut scratch, &mut ceps);
                ceps
            })
            .collect();
        if self.cfg.deltas {
            let d = deltas(&base);
            let dd = deltas(&d);
            for ((b, d1), d2) in base.iter_mut().zip(d).zip(dd) {
                b.extend(d1);
                b.extend(d2);
            }
        }
        base
    }
}

/// Caller-owned scratch for [`MfccPipeline::static_features_into`]: the
/// FFT working buffer, the power spectrum, and the filterbank energies,
/// sized once by [`MfccPipeline::frame_scratch`] and reused frame after
/// frame.
#[derive(Debug, Clone)]
pub struct FrameScratch {
    fft: Vec<Complex>,
    spectrum: Vec<f32>,
    fbank: Vec<f32>,
}

/// One step of the delta-feature recurrence: `out[i] = (next[i] - prev[i]) / 2`
/// — the two-point symmetric difference both the batch delta pass and the
/// streaming front-end apply, per coefficient.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn delta_into(prev: &[f32], next: &[f32], out: &mut [f32]) {
    assert_eq!(prev.len(), next.len(), "delta input length mismatch");
    assert_eq!(out.len(), next.len(), "delta output length mismatch");
    for ((o, p), q) in out.iter_mut().zip(prev).zip(next) {
        *o = (q - p) / 2.0;
    }
}

/// Two-point symmetric difference per coefficient, with clamped edges —
/// the standard delta-feature recurrence with a window of 1.
fn deltas(feats: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let n = feats.len();
    (0..n)
        .map(|t| {
            let prev = &feats[t.saturating_sub(1)];
            let next = &feats[(t + 1).min(n - 1)];
            let mut out = vec![0.0f32; prev.len()];
            delta_into(prev, next, &mut out);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{render_phones, SignalConfig};
    use asr_wfst::PhoneId;

    fn pipeline() -> MfccPipeline {
        MfccPipeline::new(MfccConfig::default())
    }

    #[test]
    fn one_vector_per_frame() {
        let cfg = SignalConfig::default();
        let wave = render_phones(&[PhoneId(1)], 7, &cfg);
        let feats = pipeline().process(&wave);
        assert_eq!(feats.len(), 7);
        assert!(feats.iter().all(|f| f.len() == 39));
    }

    #[test]
    fn dim_reports_delta_expansion() {
        assert_eq!(pipeline().dim(), 39);
        let no_deltas = MfccPipeline::new(MfccConfig {
            deltas: false,
            ..MfccConfig::default()
        });
        assert_eq!(no_deltas.dim(), 13);
    }

    #[test]
    fn same_phone_gives_similar_frames_different_phones_differ() {
        let cfg = SignalConfig::default();
        let wave_a = render_phones(&[PhoneId(1)], 6, &cfg);
        let wave_b = render_phones(&[PhoneId(9)], 6, &cfg);
        let p = pipeline();
        let fa = p.process(&wave_a);
        let fb = p.process(&wave_b);
        let dist =
            |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(a, b)| (a - b).powi(2)).sum() };
        // Interior frames of the same phone are close; across phones far.
        // (Use static coefficients only: deltas spike at edges.)
        let within = dist(&fa[2][..13], &fa[3][..13]);
        let across = dist(&fa[2][..13], &fb[2][..13]);
        assert!(
            across > 4.0 * within,
            "within {within}, across {across}: features do not separate phones"
        );
    }

    #[test]
    fn features_are_finite() {
        let cfg = SignalConfig::default();
        let wave = render_phones(&[PhoneId(2), PhoneId(3)], 4, &cfg);
        for f in pipeline().process(&wave) {
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn silence_still_produces_features() {
        let feats = pipeline().process(&vec![0.0f32; 480]);
        assert_eq!(feats.len(), 3);
        assert!(feats.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_input_gives_no_features() {
        assert!(pipeline().process(&[]).is_empty());
    }

    #[test]
    fn deltas_capture_change_direction() {
        let a = vec![vec![0.0f32], vec![1.0], vec![2.0], vec![3.0]];
        let d = deltas(&a);
        // Interior: (next - prev)/2 = 1.0; edges clamped to half-steps.
        assert_eq!(d[1][0], 1.0);
        assert_eq!(d[2][0], 1.0);
        assert_eq!(d[0][0], 0.5);
        assert_eq!(d[3][0], 0.5);
    }

    #[test]
    #[should_panic(expected = "FFT shorter than frame")]
    fn fft_shorter_than_frame_rejected() {
        MfccPipeline::new(MfccConfig {
            fft_len: 128,
            ..MfccConfig::default()
        });
    }
}
