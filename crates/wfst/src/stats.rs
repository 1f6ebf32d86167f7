//! Degree statistics behind Figure 7 of the paper.
//!
//! Figure 7 plots the *cumulative percentage of states accessed dynamically*
//! against out-degree: although the maximum degree is 770, 97% of states
//! fetched from memory have 15 or fewer arcs. [`DegreeCdf`] computes that
//! curve either statically (every state counted once) or dynamically
//! (weighted by per-state access counts recorded during a decode).

use crate::{StateEntry, StateId, Wfst};

/// Histogram of state out-degrees and its cumulative distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeCdf {
    /// `counts[d]` = weight of states with out-degree `d`.
    counts: Vec<u64>,
    total: u64,
}

impl DegreeCdf {
    /// Static CDF: every state weighted equally.
    pub fn from_static(wfst: &Wfst) -> Self {
        let mut counts = Vec::new();
        for entry in wfst.state_entries() {
            bump(&mut counts, entry.num_arcs(), 1);
        }
        let total = wfst.num_states() as u64;
        Self { counts, total }
    }

    /// Dynamic CDF: each state weighted by how many times the search
    /// fetched it. `accesses` pairs state ids with fetch counts (states
    /// never fetched simply do not appear).
    pub fn from_accesses<I>(wfst: &Wfst, accesses: I) -> Self
    where
        I: IntoIterator<Item = (StateId, u64)>,
    {
        let mut counts = Vec::new();
        let mut total = 0u64;
        for (state, hits) in accesses {
            let d = wfst.state(state).num_arcs();
            bump(&mut counts, d, hits);
            total += hits;
        }
        Self { counts, total }
    }

    /// Total weight (states or accesses) covered by the distribution.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest out-degree present.
    pub fn max_degree(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Fraction of weight at out-degree `<= degree`, in `[0, 1]`.
    pub fn cumulative(&self, degree: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto = self.counts.iter().take(degree + 1).sum::<u64>();
        upto as f64 / self.total as f64
    }
}

fn bump(counts: &mut Vec<u64>, degree: usize, by: u64) {
    if counts.len() <= degree {
        counts.resize(degree + 1, 0);
    }
    counts[degree] += by;
}

/// Summary statistics of a transducer, printed by examples and experiment
/// binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct WfstSummary {
    /// Number of states.
    pub num_states: usize,
    /// Number of arcs.
    pub num_arcs: usize,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Largest out-degree.
    pub max_degree: usize,
    /// Fraction of epsilon arcs.
    pub epsilon_fraction: f64,
    /// Packed image size in bytes (states + arcs).
    pub image_bytes: u64,
    /// Fraction of states with out-degree ≤ 16 (the paper's `N`).
    pub small_state_fraction: f64,
}

impl WfstSummary {
    /// Computes the summary for `wfst`.
    pub fn of(wfst: &Wfst) -> Self {
        let cdf = DegreeCdf::from_static(wfst);
        let layout = crate::layout::MemoryLayout::new(wfst, 0);
        Self {
            num_states: wfst.num_states(),
            num_arcs: wfst.num_arcs(),
            mean_degree: wfst.num_arcs() as f64 / wfst.num_states().max(1) as f64,
            max_degree: wfst
                .state_entries()
                .iter()
                .map(StateEntry::num_arcs)
                .max()
                .unwrap_or(0),
            epsilon_fraction: wfst.epsilon_fraction(),
            image_bytes: layout.total_bytes(),
            small_state_fraction: cdf.cumulative(16),
        }
    }
}

impl std::fmt::Display for WfstSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "states:            {:>12}", self.num_states)?;
        writeln!(f, "arcs:              {:>12}", self.num_arcs)?;
        writeln!(f, "mean out-degree:   {:>12.2}", self.mean_degree)?;
        writeln!(f, "max out-degree:    {:>12}", self.max_degree)?;
        writeln!(f, "epsilon fraction:  {:>12.3}", self.epsilon_fraction)?;
        writeln!(
            f,
            "image size:        {:>9.1} MB",
            self.image_bytes as f64 / (1024.0 * 1024.0)
        )?;
        write!(
            f,
            "degree<=16 states: {:>11.1}%",
            100.0 * self.small_state_fraction
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SynthWfst};

    #[test]
    fn static_cdf_is_monotone_and_reaches_one() {
        let w = SynthWfst::generate(&SynthConfig::with_states(3_000)).unwrap();
        let cdf = DegreeCdf::from_static(&w);
        for d in 1..=cdf.max_degree() {
            assert!(cdf.cumulative(d - 1) <= cdf.cumulative(d) + 1e-12);
        }
        assert!((cdf.cumulative(cdf.max_degree()) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.total(), 3_000);
    }

    #[test]
    fn dynamic_cdf_weights_by_access_count() {
        let w = SynthWfst::generate(&SynthConfig::with_states(500)).unwrap();
        // Access only state 0, a hundred times.
        let cdf = DegreeCdf::from_accesses(&w, [(StateId(0), 100)]);
        assert_eq!(cdf.total(), 100);
        let d0 = w.state(StateId(0)).num_arcs();
        assert!((cdf.cumulative(d0) - 1.0).abs() < 1e-12);
        if d0 > 0 {
            assert_eq!(cdf.cumulative(d0 - 1), 0.0);
        }
    }

    #[test]
    fn synthetic_model_matches_figure7_shape() {
        // Figure 7: 97% of fetched states have <=15 arcs. Statically our
        // generator targets >95% at <=16.
        let w = SynthWfst::generate(&SynthConfig::with_states(20_000)).unwrap();
        let cdf = DegreeCdf::from_static(&w);
        assert!(cdf.cumulative(15) > 0.9);
        assert!(cdf.cumulative(16) > 0.95);
    }

    #[test]
    fn summary_reports_consistent_numbers() {
        let w = SynthWfst::generate(&SynthConfig::with_states(2_000)).unwrap();
        let s = WfstSummary::of(&w);
        assert_eq!(s.num_states, 2_000);
        assert_eq!(s.num_arcs, w.num_arcs());
        assert!(s.mean_degree > 1.0);
        assert!(s.small_state_fraction > 0.9);
        let text = s.to_string();
        assert!(text.contains("states"));
        assert!(text.contains("epsilon"));
    }

    #[test]
    fn empty_cdf_is_safe() {
        let w = SynthWfst::generate(&SynthConfig::with_states(10)).unwrap();
        let cdf = DegreeCdf::from_accesses(&w, std::iter::empty());
        assert_eq!(cdf.total(), 0);
        assert_eq!(cdf.cumulative(5), 0.0);
        assert_eq!(cdf.max_degree(), 0);
    }
}
