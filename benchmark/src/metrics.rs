//! The metrics the binary reports, by name. `BENCHMARK.json` declares the
//! same names, units and directions (plus the regression bounds); a test
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; measured with tracing off, reported
/// by every workload.
pub static END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("frames_per_s", "1/s"),
    lower("cpu_s_per_audio_s", "s/s"),
    lower("packet_p50_us", "us"),
    lower("op_p50_ms", "ms"),
    lower("peak_rss_mib", "MiB"),
];

/// Single layers (layer = module); from the traced run. A layer a
/// workload never enters reports 0.
pub static PER_LAYER: [MetricDef; 37] = [
    lower("acoustic.frontend.us_per_frame", "us"),
    lower("acoustic.scoring.us_per_frame", "us"),
    lower("acoustic.scoring.row_us", "us"),
    lower("acoustic.scoring.macs_per_frame", "count"),
    lower("acoustic.scoring.block16_row_us", "us"),
    lower("decoder.search.us_per_frame", "us"),
    lower("decoder.search.step_p50_us", "us"),
    lower("decoder.search.step_p99_us", "us"),
    lower("decoder.search.finish_us", "us"),
    lower("decoder.search.arcs_per_frame", "count"),
    lower("decoder.search.tokens_per_frame", "count"),
    lower("decoder.search.ns_per_arc", "ns"),
    lower("decoder.search.scratch_new_us", "us"),
    lower("decoder.pool.scratch_cycle_ns", "ns"),
    lower("decoder.pool.fork_join_us", "us"),
    higher("decoder.pool.lane_take_ratio", "ratio"),
    lower("decoder.pool.stolen_back", "count"),
    lower("decoder.pool.helped", "count"),
    lower("wfst.store.load_us", "us"),
    lower("wfst.store.image_mib", "MiB"),
    lower("runtime.registry.swap_us", "us"),
    lower("runtime.registry.retired_peak", "count"),
    lower("runtime.session.open_us", "us"),
    lower("runtime.session.packet_p95_us", "us"),
    lower("runtime.session.packet_p99_us", "us"),
    lower("runtime.session.finalize_p50_us", "us"),
    lower("runtime.session.finalize_p90_us", "us"),
    lower("runtime.session.op_p90_ms", "ms"),
    lower("runtime.session.glue_us_per_frame", "us"),
    higher("runtime.batch.rows_per_flush", "count"),
    lower("runtime.batch.fallback_ratio", "ratio"),
    lower("runtime.batch.idle_flushes", "count"),
    lower("runtime.scratch.cold_checkouts", "count"),
    lower("proc.runqueue_wait_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("frames_per_s.iqr", "ratio"),
    lower("cpu_s_per_audio_s.iqr", "ratio"),
];

/// Metric values in declaration order.
pub type Values = Vec<(&'static MetricDef, f64)>;

/// Pairs `defs` with `values`, which must be given in declaration order.
pub fn zip(defs: &'static [MetricDef], values: &[(&str, f64)]) -> Values {
    assert_eq!(
        defs.len(),
        values.len(),
        "every declared metric is reported"
    );
    defs.iter()
        .zip(values)
        .map(|(def, (name, value))| {
            assert_eq!(def.name, *name, "metrics are reported in declaration order");
            (def, *value)
        })
        .collect()
}

/// The result line of the driver contract: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use crate::json::{self, Value};

    fn manifest() -> Value {
        let text = include_str!("../../BENCHMARK.json");
        json::parse(text).expect("BENCHMARK.json is valid JSON")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    fn declared(section: &str) -> Vec<(String, String, String)> {
        manifest()
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn reported(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    match d.better {
                        Better::Lower => "lower".to_owned(),
                        Better::Higher => "higher".to_owned(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn the_binary_reports_exactly_the_declared_metrics() {
        assert_eq!(reported(&END_TO_END), declared("end_to_end"));
        assert_eq!(reported(&PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn the_binary_runs_exactly_the_declared_workloads() {
        let declared: Vec<String> = manifest()
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_owned())
            .collect();
        let built: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(built, declared);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        }
    }

    #[test]
    fn bounds_and_set_up_time_follow_the_contract() {
        let doc = manifest();
        let metrics = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        for m in metrics {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let setup = metrics
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s is declared");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        for w in doc.get("workloads").and_then(Value::as_array).unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let values = zip(
            &END_TO_END[..2],
            &[("setup_s", 0.5), ("frames_per_s", 812.25)],
        );
        let doc = json::parse(&result_line(true, 7, 0, &values)).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("frames_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(812.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }
}
