//! `--check <a> <b>`: compares two results files of the suite, one row
//! per (workload, end-to-end metric), against the regression bounds
//! `BENCHMARK.json` declares.
//!
//! `a` is the parent and `b` the change. A metric is `worse` when b's
//! median is worse than a's by more than the bound; `unresolved` when the
//! run-to-run spread (inter-quartile range over the median, the wider of
//! the two sides) exceeds the bound — unless every run of b reads better
//! than every run of a; otherwise `ok`.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from the parent's runs `a` and the change's runs
/// `b`. Returns the relative worsening of the median (positive = worse)
/// and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = stats::relative_iqr(a).max(stats::relative_iqr(b));
    let b_always_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// `(workload, metric) → values of the untraced runs`, in file order.
type RunValues = BTreeMap<(String, String), Vec<f64>>;

fn read_runs(path: &Path) -> Result<RunValues, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no \"runs\" list", path.display()))?;
    let mut values = RunValues::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: a run without a workload", path.display()))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: a run without metrics", path.display()))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{}: {name} has no value", path.display()))?;
            values
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

/// The declared bound of every end-to-end metric.
fn read_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| format!("{}: a metric without name or bound", path.display()))
        })
        .collect()
}

/// Prints the comparison table; `Ok(true)` when every row is `ok`.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let bounds = read_bounds()?;
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse %", "bound"
    );
    let mut all_ok = true;
    for ((workload, metric), values_a) in &runs_a {
        let Some(def) = END_TO_END.iter().find(|d| d.name == metric) else {
            continue;
        };
        let bound = *bounds
            .get(metric)
            .ok_or_else(|| format!("BENCHMARK.json declares no bound for {metric}"))?;
        let Some(values_b) = runs_b.get(&(workload.clone(), metric.clone())) else {
            return Err(format!("{}: no runs of {workload} {metric}", b.display()));
        };
        let (worsening, verdict) = judge(values_a, values_b, def.better, bound);
        all_ok &= verdict == Verdict::Ok;
        println!(
            "{workload:<18} {metric:<18} {:>12.4} {:>12.4} {:>+8.2} {:>6.0}  {}",
            stats::median(values_a),
            stats::median(values_b),
            100.0 * worsening,
            100.0 * bound,
            verdict.as_str()
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_inside_the_bound_is_ok_either_direction() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[105.0, 106.0, 104.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[95.0, 96.0, 94.0], Better::Higher, 0.10).1,
            Verdict::Ok
        );
        // An improvement is never worse, however large.
        assert_eq!(
            judge(&a, &[50.0, 51.0, 49.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_median_past_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0];
        let (w, v) = judge(&a, &[115.0, 116.0, 114.0], Better::Lower, 0.10);
        assert!((w - 0.15).abs() < 1e-9);
        assert_eq!(v, Verdict::Worse);
        let (w, v) = judge(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.10);
        assert!((w - 0.20).abs() < 1e-9);
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [100.0, 140.0, 70.0, 120.0];
        assert_eq!(
            judge(&noisy, &[101.0, 99.0, 100.0, 98.0], Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // Every run of b beats every run of a: resolved in b's favour.
        assert_eq!(
            judge(&noisy, &[60.0, 61.0, 59.0, 62.0], Better::Lower, 0.10).1,
            Verdict::Ok
        );
    }

    #[test]
    fn single_runs_have_no_spread() {
        assert_eq!(judge(&[10.0], &[10.5], Better::Lower, 0.10).1, Verdict::Ok);
        assert_eq!(
            judge(&[10.0], &[12.0], Better::Lower, 0.10).1,
            Verdict::Worse
        );
    }
}
