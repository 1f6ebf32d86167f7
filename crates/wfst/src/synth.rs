//! Deterministic synthetic WFST generation with Kaldi-like statistics.
//!
//! The paper evaluates on Kaldi's 125k-word English WFST: 13.2M states,
//! 34.5M arcs (mean out-degree ~2.6), out-degrees from 1 to 770 with more
//! than 95% of static states at 16 or fewer arcs and ~97% of dynamically
//! visited states at 15 or fewer (Figure 7), and 11.5% epsilon arcs. That
//! model is not redistributable, so this module generates transducers that
//! reproduce those *published statistics* deterministically from a seed:
//! the accelerator's memory behaviour is driven by graph shape and layout,
//! not by linguistic content (see ARCHITECTURE.md, "Substitutions").
//!
//! Degrees are drawn from a two-component power law: a "small" component
//! over `1..=small_max` holding most of the mass and a heavy tail up to
//! `max_degree`. Destinations mix local transitions (decoding graphs are
//! built from composed word/phone chains, so most arcs stay in a
//! neighbourhood) with uniform long-range jumps; the blend reproduces the
//! partial miss ratios of Figure 4 — only a small, sparsely distributed
//! subset of the model is touched per frame (Section IV-A).

use crate::{Arc, ArcId, PhoneId, Result, StateEntry, StateId, Wfst, WordId};
use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`SynthWfst::generate`].
///
/// The defaults reproduce the published Kaldi statistics at a laptop-friendly
/// scale (100k states).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of states to generate.
    pub num_states: usize,
    /// Size of the phone label space (Kaldi uses thousands of senone-mapped
    /// transition ids; 2000 keeps the acoustic table realistic but small).
    pub num_phones: u32,
    /// Vocabulary size (the paper's model: 125k words).
    pub vocab_size: u32,
    /// Target fraction of epsilon arcs (paper: 0.115).
    pub epsilon_fraction: f64,
    /// Fraction of non-epsilon arcs carrying a word output label.
    pub word_fraction: f64,
    /// Power-law exponent of the small-degree component (`1..=small_max`).
    pub small_alpha: f64,
    /// Largest degree of the small component (paper: 15-16).
    pub small_max: usize,
    /// Probability that a state belongs to the heavy tail (> small_max).
    pub tail_prob: f64,
    /// Power-law exponent of the tail component.
    pub tail_alpha: f64,
    /// Largest out-degree (paper: 770).
    pub max_degree: usize,
    /// Fraction of states that accept.
    pub final_fraction: f64,
    /// Arc weights are drawn uniformly from this cost range.
    pub weight_range: (f32, f32),
    /// Probability that an arc's destination is *local* (within
    /// [`SynthConfig::locality_window`] of the source) rather than uniform
    /// over the whole state space. Real decoding graphs are built from
    /// composed word/phone chains, so most transitions stay within a
    /// neighbourhood; this is what gives the State and Arc caches their
    /// partial (30-40%, Figure 4) rather than total miss ratios.
    pub locality: f64,
    /// Half-width of the local-destination window, in states.
    pub locality_window: usize,
    /// RNG seed; equal seeds give bit-identical transducers.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            num_states: 100_000,
            num_phones: 2_000,
            vocab_size: 125_000,
            epsilon_fraction: 0.115,
            word_fraction: 0.15,
            small_alpha: 2.2,
            small_max: 15,
            tail_prob: 0.035,
            tail_alpha: 2.6,
            max_degree: 770,
            final_fraction: 0.002,
            weight_range: (0.05, 8.0),
            locality: 0.85,
            locality_window: 512,
            seed: 0x5EED_CAFE,
        }
    }
}

impl SynthConfig {
    /// Scaled configuration with `num_states` states, other statistics
    /// unchanged.
    pub fn with_states(num_states: usize) -> Self {
        Self {
            num_states,
            ..Self::default()
        }
    }

    /// Replaces the seed, keeping all statistics.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Sampler for the two-component power-law out-degree distribution.
#[derive(Debug, Clone)]
struct DegreeDistribution {
    small_cdf: Vec<f64>,
    tail_cdf: Vec<f64>,
    small_max: usize,
    tail_prob: f64,
}

impl DegreeDistribution {
    /// Builds the sampler from a configuration.
    pub fn new(cfg: &SynthConfig) -> Self {
        let small_cdf = power_law_cdf(1, cfg.small_max, cfg.small_alpha);
        let tail_lo = cfg.small_max + 1;
        let tail_cdf = if tail_lo <= cfg.max_degree {
            power_law_cdf(tail_lo, cfg.max_degree, cfg.tail_alpha)
        } else {
            Vec::new()
        };
        let tail_prob = if tail_cdf.is_empty() {
            0.0
        } else {
            cfg.tail_prob
        };
        Self {
            small_cdf,
            tail_cdf,
            small_max: cfg.small_max,
            tail_prob,
        }
    }
}

fn power_law_cdf(lo: usize, hi: usize, alpha: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(hi - lo + 1);
    let mut acc = 0.0;
    for d in lo..=hi {
        acc += (d as f64).powf(-alpha);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

impl Distribution<usize> for DegreeDistribution {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let (cdf, lo) = if !self.tail_cdf.is_empty() && rng.gen_bool(self.tail_prob) {
            (&self.tail_cdf, self.small_max + 1)
        } else {
            (&self.small_cdf, 1)
        };
        let u: f64 = rng.gen();
        lo + cdf.partition_point(|&c| c < u)
    }
}

/// Generator entry point; see [`SynthWfst::generate`].
///
/// # Example
///
/// ```
/// use asr_wfst::synth::{SynthConfig, SynthWfst};
///
/// let wfst = SynthWfst::generate(&SynthConfig::with_states(10_000))?;
/// assert_eq!(wfst.num_states(), 10_000);
/// // Kaldi-like statistics: ~2.6-3 arcs/state, ~11.5% epsilon arcs.
/// let mean = wfst.num_arcs() as f64 / wfst.num_states() as f64;
/// assert!((2.0..3.6).contains(&mean));
/// assert!((wfst.epsilon_fraction() - 0.115).abs() < 0.04);
/// # Ok::<(), asr_wfst::WfstError>(())
/// ```
#[derive(Debug)]
pub struct SynthWfst;

impl SynthWfst {
    /// Generates a transducer matching `cfg`'s statistics.
    ///
    /// The generation is fully deterministic in `cfg.seed`. Every state gets
    /// at least one outgoing arc and at least one emitting arc (so the beam
    /// search never strands a token on epsilon-only states); epsilon arcs
    /// are drawn among the remaining arcs at a rate that hits the configured
    /// overall epsilon fraction in expectation.
    ///
    /// # Errors
    ///
    /// Propagates validation errors; with a well-formed configuration
    /// generation always succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_states == 0`.
    pub fn generate(cfg: &SynthConfig) -> Result<Wfst> {
        assert!(cfg.num_states > 0, "cannot generate an empty transducer");
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let dist = DegreeDistribution::new(cfg);

        // Pass 1: draw out-degrees so we know how many arcs are "eligible"
        // to be epsilon (all but the first arc of each state).
        let degrees: Vec<u32> = (0..cfg.num_states)
            .map(|_| dist.sample(&mut rng) as u32)
            .collect();
        let total_arcs: u64 = degrees.iter().map(|&d| d as u64).sum();
        let eligible = total_arcs.saturating_sub(cfg.num_states as u64);
        let eps_prob = if eligible == 0 {
            0.0
        } else {
            (cfg.epsilon_fraction * total_arcs as f64 / eligible as f64).min(1.0)
        };

        // Pass 2: materialize states and arcs directly in packed order.
        let n = cfg.num_states;
        let mut states = Vec::with_capacity(n);
        let mut arcs: Vec<Arc> = Vec::with_capacity(total_arcs as usize);
        let mut final_costs = Vec::with_capacity(n);
        let (w_lo, w_hi) = cfg.weight_range;
        for (idx, &d) in degrees.iter().enumerate() {
            let first_arc = ArcId::from_index(arcs.len());
            let mut emitting: Vec<Arc> = Vec::with_capacity(d as usize);
            let mut epsilon: Vec<Arc> = Vec::new();
            for k in 0..d {
                let dest = if cfg.locality > 0.0 && rng.gen_bool(cfg.locality) {
                    // Local transition: stay within the neighbourhood.
                    let w = cfg.locality_window.max(1) as i64;
                    let offset = rng.gen_range(-w..=w);
                    let d = (idx as i64 + offset).rem_euclid(n as i64);
                    StateId(d as u32)
                } else {
                    StateId(rng.gen_range(0..n as u32))
                };
                let weight = rng.gen_range(w_lo..w_hi);
                let is_eps = k > 0 && rng.gen_bool(eps_prob);
                if is_eps {
                    epsilon.push(Arc {
                        dest,
                        weight,
                        ilabel: PhoneId::EPSILON,
                        olabel: WordId::NONE,
                    });
                } else {
                    let ilabel = PhoneId(rng.gen_range(1..=cfg.num_phones));
                    let olabel = if rng.gen_bool(cfg.word_fraction) {
                        WordId(rng.gen_range(1..=cfg.vocab_size))
                    } else {
                        WordId::NONE
                    };
                    emitting.push(Arc {
                        dest,
                        weight,
                        ilabel,
                        olabel,
                    });
                }
            }
            let entry = StateEntry {
                first_arc,
                num_emitting: emitting.len() as u16,
                num_epsilon: epsilon.len() as u16,
            };
            arcs.extend_from_slice(&emitting);
            arcs.extend_from_slice(&epsilon);
            states.push(entry);
            final_costs.push(if rng.gen_bool(cfg.final_fraction) || idx == n - 1 {
                rng.gen_range(0.0..1.0f32)
            } else {
                f32::INFINITY
            });
        }

        Wfst::from_parts(states, arcs, StateId(0), final_costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected out-degree under `dist`.
    fn mean(dist: &DegreeDistribution) -> f64 {
        let cdf_mean = |cdf: &[f64], lo: usize| {
            let mut prev = 0.0;
            let steps = cdf.iter().enumerate().map(|(i, &c)| {
                let step = (lo + i) as f64 * (c - prev);
                prev = c;
                step
            });
            steps.sum::<f64>()
        };
        let small_mean = cdf_mean(&dist.small_cdf, 1);
        let tail_mean = if dist.tail_cdf.is_empty() {
            0.0
        } else {
            cdf_mean(&dist.tail_cdf, dist.small_max + 1)
        };
        (1.0 - dist.tail_prob) * small_mean + dist.tail_prob * tail_mean
    }

    fn small() -> Wfst {
        SynthWfst::generate(&SynthConfig::with_states(5_000)).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let b = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        assert_eq!(a.num_arcs(), b.num_arcs());
        assert_eq!(a.state_entries(), b.state_entries());
        // Spot-check arc equality (full comparison is O(arcs), cheap here).
        for (x, y) in a.arc_entries().iter().zip(b.arc_entries()) {
            assert_eq!(x.dest, y.dest);
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let b = SynthWfst::generate(&SynthConfig::with_states(2_000).with_seed(99)).unwrap();
        assert_ne!(
            a.arc_entries()[0].weight.to_bits(),
            b.arc_entries()[0].weight.to_bits()
        );
    }

    #[test]
    fn mean_degree_matches_kaldi_ratio() {
        // Kaldi: 34.5M arcs / 13.2M states ~= 2.6 arcs per state.
        let w = small();
        let mean = w.num_arcs() as f64 / w.num_states() as f64;
        assert!(
            (2.0..3.6).contains(&mean),
            "mean out-degree {mean:.2} outside Kaldi-like band"
        );
    }

    #[test]
    fn epsilon_fraction_near_target() {
        let w = small();
        let f = w.epsilon_fraction();
        assert!(
            (f - 0.115).abs() < 0.03,
            "epsilon fraction {f:.3}, expected ~0.115"
        );
    }

    #[test]
    fn most_states_have_at_most_sixteen_arcs() {
        // Paper: >95% of static states directly addressable with N = 16.
        let w = small();
        let small_states = w
            .state_entries()
            .iter()
            .filter(|s| (1..=16).contains(&s.num_arcs()))
            .count();
        let frac = small_states as f64 / w.num_states() as f64;
        assert!(frac > 0.95, "only {frac:.3} of states have <=16 arcs");
    }

    #[test]
    fn tail_reaches_high_degrees() {
        let cfg = SynthConfig::with_states(50_000);
        let w = SynthWfst::generate(&cfg).unwrap();
        let max = w
            .state_entries()
            .iter()
            .map(StateEntry::num_arcs)
            .max()
            .unwrap();
        assert!(max > 16, "heavy tail missing (max degree {max})");
        assert!(max <= cfg.max_degree);
    }

    #[test]
    fn every_state_has_an_emitting_arc() {
        let w = small();
        assert!(w.state_entries().iter().all(|s| s.num_emitting >= 1));
    }

    #[test]
    fn degree_distribution_mean_is_kaldi_like() {
        let dist = DegreeDistribution::new(&SynthConfig::default());
        let mean = mean(&dist);
        assert!((2.0..3.6).contains(&mean), "analytic mean {mean:.2}");
    }

    #[test]
    fn finals_exist_and_last_state_accepts() {
        let w = small();
        assert!(w.final_states().count() >= 1);
        assert!(w.final_cost(StateId(w.num_states() as u32 - 1)).is_finite());
    }

    #[test]
    fn labels_are_in_configured_spaces() {
        let cfg = SynthConfig::with_states(2_000);
        let w = SynthWfst::generate(&cfg).unwrap();
        assert!(w.num_phones() <= cfg.num_phones + 1);
        assert!(w.num_words() <= cfg.vocab_size + 1);
        for a in w.arc_entries() {
            assert!(a.weight >= cfg.weight_range.0 && a.weight < cfg.weight_range.1);
        }
    }
}
