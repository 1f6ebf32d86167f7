//! Order statistics: the percentile and spread policy of the benchmark.
//!
//! * Latency percentiles are **nearest-rank**, and a percentile is only
//!   supportable when at least [`MIN_BEYOND`] samples lie beyond it.
//! * A run's end-to-end rates and latency medians are taken round by
//!   round; the run's value is that of its **best round** ([`best`]).
//!   Per-layer rates are the median of the per-round values, per-layer
//!   tails are over the pooled samples of every round.
//! * Spread is the distance between the first and third quartile, as
//!   Python's `statistics.quantiles(values, n=4)` gives them.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples: the smallest rank covering at least `p` percent of them.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile
/// `p` — the "≥ 10 beyond" rule.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Sorts `values` ascending in place (total order; the benchmark never
/// produces NaN timings).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best of `values`: the largest when higher is better, else the
/// smallest. The end-to-end metrics are the best of a run's rounds: on a
/// shared host every disturbance slows a round and none speeds it up, so
/// of many repetitions of the same work the best is the undisturbed one.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "best of an empty sample");
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).expect("not empty")
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) computes them; `None` below two
/// samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        // j, delta = divmod(i * (n + 1), 4), clamped to [1, n - 1].
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range over the median: the run-to-run (or
/// round-to-round) spread as a share of the typical value. `0.0` below
/// two samples.
pub fn relative_iqr(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // The classic example: 5 samples.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Rank is ceil(p/100 * n): p50 of 4 samples is the 2nd, not an
        // interpolation.
        assert_eq!(nearest_rank(4, 50.0), 2);
        assert_eq!(nearest_rank(200, 95.0), 190);
        assert_eq!(nearest_rank(1, 99.0), 1);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 samples is rank 190: exactly 10 beyond.
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        // p99 needs 1000, p90 needs 100, p50 needs 20.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn the_best_round_ignores_every_disturbed_one() {
        let round_ms = [31.0, 20.5, 48.0, 20.0, 27.0];
        assert_eq!(best(&round_ms, false), 20.0);
        assert_eq!(best(&round_ms, true), 48.0);
        assert_eq!(best(&[5.0], true), 5.0);
        // Slowing any of the other rounds does not move it.
        assert_eq!(best(&[310.0, 20.5, 480.0, 20.0, 270.0], false), 20.0);
    }

    #[test]
    fn median_and_quartiles_agree_with_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_iqr(&[7.0]), 0.0);
    }
}
