//! Template (nearest-prototype) acoustic scorer.
//!
//! The reproduction ships no trained DNN weights, but the functional tests
//! must decode synthetic utterances back to the words that produced them.
//! This scorer fills that role: for every phone it precomputes a prototype
//! MFCC vector from that phone's synthetic rendering, then scores a frame
//! as a scaled squared distance to each prototype — a single-component,
//! identity-covariance Gaussian in feature space. On the synthetic signal
//! this behaves like a well-trained acoustic model (the true phone gets the
//! lowest cost), while exercising exactly the same downstream code path as
//! a DNN: a per-frame table of per-phone costs.

use crate::mfcc::{MfccConfig, MfccPipeline};
use crate::scores::AcousticTable;
use crate::signal::{render_phones, SignalConfig};
use asr_wfst::PhoneId;

/// Prototype-distance acoustic model over a fixed phone set.
#[derive(Debug, Clone)]
pub struct TemplateScorer {
    pipeline: MfccPipeline,
    templates: Vec<Vec<f32>>, // indexed by phone id; [0] unused (epsilon)
    scale: f32,
}

impl TemplateScorer {
    /// Builds prototypes for phones `1..=num_phones` by rendering each
    /// phone in isolation and averaging its interior frames' static
    /// coefficients.
    ///
    /// `scale` converts squared distance to cost; larger values sharpen the
    /// model's discrimination.
    pub fn new(num_phones: u32, signal_cfg: &SignalConfig, scale: f32) -> Self {
        let pipeline = MfccPipeline::new(MfccConfig::default());
        let mut templates = vec![Vec::new(); num_phones as usize + 1];
        for phone in 1..=num_phones {
            let wave = render_phones(&[PhoneId(phone)], 6, signal_cfg);
            let feats = pipeline.process(&wave);
            // Average interior frames (skip the edges where deltas spike).
            let interior = &feats[1..feats.len() - 1];
            let dim = interior[0].len();
            let mut mean = vec![0.0f32; dim];
            for f in interior {
                for (m, v) in mean.iter_mut().zip(f) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= interior.len() as f32;
            }
            templates[phone as usize] = mean;
        }
        Self {
            pipeline,
            templates,
            scale,
        }
    }

    /// Convenience constructor with the default signal model and a scale
    /// tuned so costs land in the same few-nats range as log-posteriors.
    pub fn with_default_signal(num_phones: u32) -> Self {
        Self::new(num_phones, &SignalConfig::default(), 0.05)
    }

    /// Number of phones scored (excluding epsilon).
    pub fn num_phones(&self) -> u32 {
        (self.templates.len() - 1) as u32
    }

    /// Width of the feature vectors the scorer takes (the pipeline's
    /// [`MfccPipeline::dim`]).
    pub fn feat_dim(&self) -> usize {
        self.pipeline.dim()
    }

    /// The MFCC configuration the scorer extracts features with — an
    /// [`crate::online::OnlineMfcc`] built from it feeds
    /// [`TemplateScorer::frame_cost`] features bit-identical to the batch
    /// path.
    pub fn mfcc_config(&self) -> &MfccConfig {
        self.pipeline.config()
    }

    /// Cost of `phone` given one frame's feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `phone` is epsilon/out of range or the feature dimension
    /// does not match the pipeline's.
    pub fn frame_cost(&self, features: &[f32], phone: PhoneId) -> f32 {
        let t = &self.templates[phone.index()];
        assert!(!t.is_empty(), "no template for {phone:?}");
        assert_eq!(features.len(), t.len(), "feature dimension mismatch");
        let d2: f32 = features.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum();
        self.scale * d2
    }

    /// Scores a block of `rows` feature vectors (packed row-major at the
    /// pipeline's feature dimension) into packed acoustic cost rows of
    /// `num_phones + 1` entries each — the template model's leg of the
    /// cross-session batched scoring service. Each output row is computed
    /// with exactly the per-frame [`TemplateScorer::frame_cost`] loop, so
    /// it is bit-identical to scoring the row alone; unlike the MLP the
    /// template model needs no scratch at all.
    ///
    /// # Panics
    ///
    /// Panics if `features` or `out` do not hold exactly `rows` packed
    /// vectors of the expected widths.
    pub fn score_block_into(&self, features: &[f32], rows: usize, out: &mut [f32]) {
        let row_len = self.templates.len();
        let dim = self.feat_dim();
        assert_eq!(
            features.len(),
            rows * dim,
            "feature block dimension mismatch"
        );
        assert_eq!(out.len(), rows * row_len, "output block dimension mismatch");
        for r in 0..rows {
            let feat = &features[r * dim..(r + 1) * dim];
            let row = &mut out[r * row_len..(r + 1) * row_len];
            row[0] = 0.0;
            for (p, slot) in row.iter_mut().enumerate().skip(1) {
                *slot = self.frame_cost(feat, PhoneId(p as u32));
            }
        }
    }

    /// Scores a full waveform into an [`AcousticTable`].
    pub fn score_waveform(&self, samples: &[f32]) -> AcousticTable {
        let feats = self.pipeline.process(samples);
        AcousticTable::from_fn(feats.len(), self.templates.len(), |frame, phone| {
            if phone == 0 {
                0.0
            } else {
                self.frame_cost(&feats[frame], PhoneId(phone as u32))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_phone_gets_lowest_cost_on_interior_frames() {
        let scorer = TemplateScorer::with_default_signal(8);
        let cfg = SignalConfig::default();
        for truth in 1..=8u32 {
            let wave = render_phones(&[PhoneId(truth)], 6, &cfg);
            let table = scorer.score_waveform(&wave);
            // Check an interior frame: the true phone should win.
            let frame = 3;
            let best = (1..=8u32)
                .min_by(|&a, &b| {
                    table
                        .cost(frame, PhoneId(a))
                        .total_cmp(&table.cost(frame, PhoneId(b)))
                })
                .unwrap();
            assert_eq!(best, truth, "frame {frame} misclassified");
        }
    }

    #[test]
    fn costs_are_nonnegative_and_finite() {
        let scorer = TemplateScorer::with_default_signal(4);
        let cfg = SignalConfig::default();
        let wave = render_phones(&[PhoneId(1), PhoneId(2)], 4, &cfg);
        let table = scorer.score_waveform(&wave);
        for f in 0..table.num_frames() {
            for p in 1..=4u32 {
                let c = table.cost(f, PhoneId(p));
                assert!(c.is_finite() && c >= 0.0);
            }
        }
    }

    #[test]
    fn epsilon_column_is_zero() {
        let scorer = TemplateScorer::with_default_signal(3);
        let cfg = SignalConfig::default();
        let wave = render_phones(&[PhoneId(1)], 3, &cfg);
        let table = scorer.score_waveform(&wave);
        for f in 0..table.num_frames() {
            assert_eq!(table.cost(f, PhoneId::EPSILON), 0.0);
        }
    }

    #[test]
    fn scale_multiplies_costs() {
        let cfg = SignalConfig::default();
        let a = TemplateScorer::new(3, &cfg, 0.05);
        let b = TemplateScorer::new(3, &cfg, 0.10);
        let wave = render_phones(&[PhoneId(2)], 4, &cfg);
        let ta = a.score_waveform(&wave);
        let tb = b.score_waveform(&wave);
        let ca = ta.cost(1, PhoneId(1));
        let cb = tb.cost(1, PhoneId(1));
        assert!((cb - 2.0 * ca).abs() < 1e-4 * cb.max(1.0));
    }

    #[test]
    #[should_panic(expected = "no template")]
    fn epsilon_frame_cost_panics() {
        let scorer = TemplateScorer::with_default_signal(2);
        scorer.frame_cost(&[0.0; 39], PhoneId::EPSILON);
    }

    #[test]
    fn block_scoring_matches_per_frame_bit_for_bit() {
        let scorer = TemplateScorer::with_default_signal(5);
        let cfg = SignalConfig::default();
        let wave = render_phones(&[PhoneId(1), PhoneId(3)], 4, &cfg);
        let feats = MfccPipeline::new(MfccConfig::default()).process(&wave);
        let rows = feats.len();
        let dim = feats[0].len();
        let packed: Vec<f32> = feats.iter().flatten().copied().collect();
        let row_len = scorer.num_phones() as usize + 1;
        let mut out = vec![0.0; rows * row_len];
        scorer.score_block_into(&packed, rows, &mut out);
        for (r, feat) in feats.iter().enumerate() {
            assert_eq!(feat.len(), dim);
            let row = &out[r * row_len..(r + 1) * row_len];
            assert_eq!(row[0], 0.0);
            for (p, cost) in row.iter().enumerate().skip(1) {
                assert_eq!(
                    cost.to_bits(),
                    scorer.frame_cost(feat, PhoneId(p as u32)).to_bits(),
                    "frame {r} phone {p}"
                );
            }
        }
    }
}
