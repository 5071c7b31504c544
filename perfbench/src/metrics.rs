//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root is the one list of metric names
//! and units; it is compiled in and read once. A run without tracing
//! reports every `end_to_end` metric; a traced run reports every
//! `per_layer` metric.

use std::fmt::Write as _;
use std::sync::OnceLock;

use serde_json::Value;

/// The benchmark's definition, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Name and unit of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
}

/// The two metric lists of `BENCHMARK.json`.
struct Catalogue {
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let json = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| match json.get(key) {
            Some(Value::Array(entries)) => entries
                .iter()
                .map(|entry| {
                    let field = |field: &str| {
                        entry
                            .get(field)
                            .and_then(Value::as_str)
                            .unwrap_or_else(|| {
                                panic!("BENCHMARK.json: {key} entry without {field}: {entry:?}")
                            })
                            .to_string()
                    };
                    MetricSpec { name: field("name"), unit: field("unit") }
                })
                .collect(),
            _ => panic!("BENCHMARK.json: {key} is not a list"),
        };
        Catalogue { end_to_end: list("end_to_end"), per_layer: list("per_layer") }
    })
}

/// Metrics a user of the system sees, reported by every workload with
/// tracing off. See `NOTES.md` for what each means per workload.
pub fn end_to_end() -> &'static [MetricSpec] {
    &catalogue().end_to_end
}

/// Metrics of single layers and of the inputs, reported by a traced run.
/// A layer a workload never calls reads 0.
pub fn per_layer() -> &'static [MetricSpec] {
    &catalogue().per_layer
}

/// Values for one catalogue, in catalogue order.
#[derive(Debug, Clone)]
pub struct Metrics {
    specs: &'static [MetricSpec],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `specs`.
    pub fn new(specs: &'static [MetricSpec]) -> Self {
        Metrics { specs, values: vec![None; specs.len()] }
    }

    /// Set a metric. Panics on a name outside the catalogue, which is a bug
    /// in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .specs
            .iter()
            .position(|spec| spec.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[index] = Some(value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        let index = self.specs.iter().position(|spec| spec.name == name)?;
        self.values[index]
    }

    /// Set every metric still unset to 0: the layers this workload never
    /// called.
    pub fn zero_unset(&mut self) {
        for value in &mut self.values {
            value.get_or_insert(0.0);
        }
    }

    /// The `metrics` object of the result line. Fails when a metric is
    /// unset or not finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (spec, value)) in self.specs.iter().zip(&self.values).enumerate() {
            let value = value.ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", spec.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", spec.name, spec.unit);
        }
        out.push('}');
        Ok(out)
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count `operations` whose outputs `problems` describes; any problem
    /// fails all of them.
    pub fn record(&mut self, operations: u64, problems: Vec<String>) {
        self.attempted += operations;
        if !problems.is_empty() {
            self.failed += operations;
            self.errors.extend(problems);
        }
    }
}

/// The final line: `{"correct": …, "attempted": …, "failed": …, "metrics": …}`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()?
    ))
}
