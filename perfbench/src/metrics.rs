//! The metric catalog (mirrored by `BENCHMARK.json`), sample statistics,
//! and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Reported by every untraced run, on every workload.
pub const END_TO_END: &[Spec] = &[
    spec("train_gps", "graphs/s"),
    spec("classify_gps", "graphs/s"),
    spec("latency_p50_us", "us"),
    spec("success_rate", "ratio"),
    spec("accuracy", "ratio"),
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
];

/// Reported by every traced run, on every workload.
pub const PER_LAYER: &[Spec] = &[
    spec("datasets.generate_s", "s"),
    spec("graphcore.pagerank_us", "us"),
    spec("graphhd.encode_us", "us"),
    spec("graphhd.encode_self_us", "us"),
    spec("graphhd.bundle_s", "s"),
    spec("graphhd.retrain_s", "s"),
    spec("graphhd.retrain_updates", "count"),
    spec("parallel.tasks", "count"),
    spec("parallel.steals", "count"),
    spec("parallel.busy_frac", "ratio"),
    spec("hdvec.score_us", "us"),
    spec("hdvec.scan_bytes", "bytes"),
    spec("engine.queue_wait_p50_us", "us"),
    spec("engine.dispatch_p50_us", "us"),
    spec("engine.batch_mean", "requests"),
    spec("engine.request_p50_us", "us"),
    spec("engine.self_us", "us"),
    spec("netserve.request_p50_us", "us"),
    spec("netserve.self_us", "us"),
    spec("netserve.client_tax_us", "us"),
    spec("netserve.codec_us", "us"),
    spec("netserve.frames_in", "count"),
    spec("netserve.decode_errors", "count"),
    spec("trace.overhead_pct", "%"),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Nearest-rank quantile `q` ∈ (0, 1] of `values` (sorted in place).
/// `None` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    sorted_quantile(values, q)
}

/// [`quantile`] of already sorted values.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of `values` (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&mut values.to_vec(), 0.5)
}

/// One measured value with the number of samples behind it (0 for a
/// value computed rather than sampled, or a count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// The metrics one run reports, by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Records `name` (which must be in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    ///
    /// # Panics
    ///
    /// On a name outside the catalog: a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, Value { value, samples });
    }

    /// A human-readable table of the catalog's metrics with units and
    /// sample counts.
    pub fn table(&self, catalog: &[Spec]) -> String {
        let mut out = String::new();
        for spec in catalog {
            match self.values.get(spec.name) {
                Some(v) if v.samples > 0 => {
                    let _ = writeln!(
                        out,
                        "  {:<26} {:>14.4} {:<9} n={}",
                        spec.name, v.value, spec.unit, v.samples
                    );
                }
                Some(v) => {
                    let _ = writeln!(out, "  {:<26} {:>14.4} {}", spec.name, v.value, spec.unit);
                }
                None => {
                    let _ = writeln!(out, "  {:<26} {:>14} {}", spec.name, "missing", spec.unit);
                }
            }
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with exactly the metrics of `catalog`.
    ///
    /// # Errors
    ///
    /// Names a catalog metric that is missing or not finite.
    pub fn result_line(
        &self,
        catalog: &[Spec],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalog.len());
        for spec in catalog {
            let value = self
                .values
                .get(spec.name)
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !value.value.is_finite() {
                return Err(format!("metric {} is {}", spec.name, value.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name, value.value, spec.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(spec.name), "bad name {}", spec.name);
            assert!(valid_unit(spec.unit), "bad unit {}", spec.unit);
            assert!(seen.insert(spec.name), "duplicate name {}", spec.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("graphhd.encode_self_us"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("graphs/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("micro seconds"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_schema() {
        let mut report = Report::default();
        for (i, spec) in END_TO_END.iter().enumerate() {
            report.set(spec.name, 1.5 + i as f64, 10);
        }
        let line = report
            .result_line(END_TO_END, true, 12, 0)
            .expect("complete");
        let Json::Object(top) = json::parse(&line).expect("valid JSON") else {
            panic!("not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Object(metrics) = &top[3].1 else {
            panic!("metrics is not an object");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, value), spec) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, spec.name);
            let Json::Object(fields) = value else {
                panic!("metric is not an object");
            };
            assert_eq!(fields.len(), 2);
            assert_eq!(fields[0].0, "value");
            assert!(matches!(fields[0].1, Json::Number(_)));
            assert_eq!(
                fields[1],
                ("unit".to_string(), Json::String(spec.unit.into()))
            );
        }
        assert_eq!(top[1].1, Json::Number(12.0));
    }

    #[test]
    fn result_line_refuses_missing_or_non_finite_metrics() {
        let mut report = Report::default();
        report.set("train_gps", 1.0, 1);
        assert!(report.result_line(END_TO_END, true, 1, 0).is_err());
        for spec in END_TO_END {
            report.set(spec.name, 1.0, 1);
        }
        report.set("accuracy", f64::NAN, 1);
        assert!(report.result_line(END_TO_END, true, 1, 0).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalog, with valid names, and bounds inside the contract.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        let Json::Object(top) = json::parse(text).expect("valid JSON") else {
            panic!("not an object");
        };
        let field = |key: &str| {
            top.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing key {key}"))
        };
        let listed = |key: &str| -> Vec<(String, String)> {
            let Json::Array(items) = field(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|item| {
                    let Json::Object(fields) = item else {
                        panic!("{key} entry is not an object");
                    };
                    let get = |k: &str| match fields.iter().find(|(f, _)| f == k) {
                        Some((_, Json::String(s))) => s.clone(),
                        _ => panic!("{key} entry lacks string {k}"),
                    };
                    if key == "end_to_end" {
                        let bound = fields.iter().find(|(f, _)| f == "bound");
                        assert!(
                            matches!(bound, Some((_, Json::Number(b))) if *b > 0.0 && *b <= 0.25),
                            "bad bound in {fields:?}"
                        );
                    }
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let expect = |catalog: &[Spec]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(END_TO_END));
        assert_eq!(listed("per_layer"), expect(PER_LAYER));
        let Json::Array(workloads) = field("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match w {
                Json::Object(fields) => match &fields[0] {
                    (k, Json::String(name)) if k == "name" => name.clone(),
                    other => panic!("workload without a leading name: {other:?}"),
                },
                other => panic!("workload is not an object: {other:?}"),
            })
            .collect();
        let known: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names, known);
        assert!(names.iter().all(|n| valid_name(n)));
    }
}
