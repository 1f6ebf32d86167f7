//! Deterministic synthetic speech.
//!
//! The paper drives its evaluation with Librispeech audio. We cannot ship
//! that corpus, so utterances are synthesized: each phone id maps to a
//! stable set of three formant-like frequencies (derived from a hash of the
//! id) rendered as a sum of sinusoids with a pinch of deterministic noise.
//! Distinct phones get distinct spectral envelopes, which is all the MFCC +
//! template acoustic model needs to discriminate them — preserving the code
//! path and the workload shape of a real front-end (see ARCHITECTURE.md,
//! "Substitutions").

use crate::SAMPLE_RATE;
use asr_wfst::PhoneId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters of the synthetic speech renderer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalConfig {
    /// Sample rate in Hz.
    pub sample_rate: u32,
    /// Samples per frame (10 ms worth).
    pub frame_samples: usize,
    /// Amplitude of the deterministic noise floor.
    pub noise_level: f32,
    /// Seed for the noise generator.
    pub seed: u64,
}

impl Default for SignalConfig {
    fn default() -> Self {
        Self {
            sample_rate: SAMPLE_RATE,
            frame_samples: crate::FRAME_SAMPLES,
            noise_level: 0.02,
            seed: 7,
        }
    }
}

/// The three formant frequencies assigned to a phone.
///
/// Frequencies are deterministic functions of the phone id, spread over
/// 200-3800 Hz so every phone has a distinct spectral signature.
fn formants(phone: PhoneId) -> [f32; 3] {
    // Small multiplicative hash; stable across runs and platforms.
    let h = phone.0.wrapping_mul(2654435761);
    let f1 = 200.0 + (h % 600) as f32; // 200-800 Hz
    let f2 = 900.0 + ((h >> 10) % 1400) as f32; // 900-2300 Hz
    let f3 = 2400.0 + ((h >> 20) % 1400) as f32; // 2400-3800 Hz
    [f1, f2, f3]
}

/// Renders `frames_per_phone` frames of waveform for each phone in
/// sequence.
///
/// Epsilon ids are rendered as near-silence (noise only), though decoding
/// graphs never ask the acoustic model to score epsilon.
pub fn render_phones(phones: &[PhoneId], frames_per_phone: usize, cfg: &SignalConfig) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let samples_per_phone = frames_per_phone * cfg.frame_samples;
    let mut out = Vec::with_capacity(phones.len() * samples_per_phone);
    for &phone in phones {
        let [f1, f2, f3] = formants(phone);
        let silent = phone.is_epsilon();
        for i in 0..samples_per_phone {
            let t = i as f32 / cfg.sample_rate as f32;
            let mut s = 0.0;
            if !silent {
                let w = 2.0 * std::f32::consts::PI * t;
                s += 0.5 * (w * f1).sin();
                s += 0.3 * (w * f2).sin();
                s += 0.2 * (w * f3).sin();
            }
            s += cfg.noise_level * (rng.gen::<f32>() * 2.0 - 1.0);
            out.push(s);
        }
    }
    out
}

/// A labelled synthetic utterance: the waveform plus the frame-aligned
/// ground-truth phone sequence (one label per frame), used by functional
/// tests to verify that decoding recovers the source words.
#[derive(Debug, Clone)]
pub struct Utterance {
    /// Rendered waveform.
    pub samples: Vec<f32>,
    /// Ground-truth phone per frame.
    pub frame_phones: Vec<PhoneId>,
}

impl Utterance {
    /// Renders an utterance from a phone sequence.
    pub fn render(phones: &[PhoneId], frames_per_phone: usize, cfg: &SignalConfig) -> Self {
        let samples = render_phones(phones, frames_per_phone, cfg);
        let mut frame_phones = Vec::with_capacity(phones.len() * frames_per_phone);
        for &p in phones {
            frame_phones.extend(std::iter::repeat_n(p, frames_per_phone));
        }
        Self {
            samples,
            frame_phones,
        }
    }

    /// Number of frames in the utterance.
    pub fn num_frames(&self) -> usize {
        self.frame_phones.len()
    }

    /// Utterance duration in seconds.
    pub fn seconds(&self, cfg: &SignalConfig) -> f64 {
        self.samples.len() as f64 / cfg.sample_rate as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic() {
        let cfg = SignalConfig::default();
        let a = render_phones(&[PhoneId(1), PhoneId(2)], 3, &cfg);
        let b = render_phones(&[PhoneId(1), PhoneId(2)], 3, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn length_matches_request() {
        let cfg = SignalConfig::default();
        let wave = render_phones(&[PhoneId(1); 4], 5, &cfg);
        assert_eq!(wave.len(), 4 * 5 * cfg.frame_samples);
    }

    #[test]
    fn distinct_phones_have_distinct_formants() {
        let a = formants(PhoneId(1));
        let b = formants(PhoneId(2));
        assert_ne!(a, b);
        for f in a.iter().chain(&b) {
            assert!(*f >= 200.0 && *f <= 3800.0);
        }
    }

    #[test]
    fn formants_are_stable() {
        assert_eq!(formants(PhoneId(5)), formants(PhoneId(5)));
    }

    #[test]
    fn epsilon_renders_near_silence() {
        let cfg = SignalConfig::default();
        let quiet = render_phones(&[PhoneId::EPSILON], 2, &cfg);
        let loud = render_phones(&[PhoneId(3)], 2, &cfg);
        let energy = |w: &[f32]| w.iter().map(|s| s * s).sum::<f32>();
        assert!(energy(&quiet) < energy(&loud) / 10.0);
    }

    #[test]
    fn utterance_tracks_frame_labels() {
        let cfg = SignalConfig::default();
        let u = Utterance::render(&[PhoneId(1), PhoneId(2)], 3, &cfg);
        assert_eq!(u.num_frames(), 6);
        assert_eq!(u.frame_phones[0], PhoneId(1));
        assert_eq!(u.frame_phones[5], PhoneId(2));
        assert!((u.seconds(&cfg) - 0.06).abs() < 1e-9);
    }
}
