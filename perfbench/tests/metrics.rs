//! Tests of the benchmark's metric code and of `BENCHMARK.json`.

use perfbench::metrics::{end_to_end, per_layer, result_line, Metrics, Tally, BENCHMARK_JSON};
use perfbench::stats::{failed_share, median, quantile, samples_beyond, tail_percentile, Digest};
use serde_json::Value;

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    assert_eq!(tail_percentile(204_000), Some(99.99));
}

#[test]
fn samples_beyond_uses_nearest_rank() {
    assert_eq!(samples_beyond(1_000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(samples_beyond(10_000, 99.99), 1);
    assert_eq!(samples_beyond(3, 50.0), 1);
    assert_eq!(samples_beyond(0, 50.0), 0);
}

#[test]
fn failed_share_counts_failures_against_attempts() {
    assert_eq!(failed_share(0, 0), 0.0);
    assert_eq!(failed_share(0, 64), 0.0);
    assert_eq!(failed_share(1, 4), 0.25);
    assert_eq!(failed_share(64, 64), 1.0);
}

#[test]
fn median_and_quartiles_interpolate() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[f64::NAN, 1.0]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
}

#[test]
fn digest_is_order_sensitive() {
    let mut a = Digest::default();
    a.u64(1).u64(2);
    let mut b = Digest::default();
    b.u64(2).u64(1);
    assert_ne!(a.value(), b.value());
    let mut c = Digest::default();
    c.u64(1).u64(2);
    assert_eq!(a, c);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut metrics = Metrics::new(end_to_end());
    for (i, spec) in end_to_end().iter().enumerate() {
        metrics.set(&spec.name, 1.5 + i as f64);
    }
    let tally = Tally { attempted: 10, failed: 0, errors: Vec::new() };
    let line = result_line(&tally, &metrics).expect("every metric is set");
    let value = serde_json::from_str(&line).expect("the result line is JSON");
    let Value::Object(map) = &value else { panic!("not an object") };
    assert_eq!(map.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(value.get("correct"), Some(&Value::Bool(true)));
    let Some(Value::Object(reported)) = value.get("metrics") else { panic!("metrics is not an object") };
    assert_eq!(reported.len(), end_to_end().len());
    for spec in end_to_end() {
        let entry = &reported[&spec.name];
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(spec.unit.as_str()));
        assert!(entry.get("value").and_then(Value::as_f64).is_some());
    }
}

#[test]
fn result_line_refuses_unset_or_non_finite_metrics() {
    let tally = Tally { attempted: 1, failed: 0, errors: Vec::new() };
    let mut metrics = Metrics::new(end_to_end());
    assert!(result_line(&tally, &metrics).is_err());
    metrics.zero_unset();
    assert!(result_line(&tally, &metrics).is_ok());
    metrics.set("docs_per_s", f64::INFINITY);
    assert!(result_line(&tally, &metrics).is_err());
}

#[test]
fn a_failed_check_fails_its_operations() {
    let mut tally = Tally::default();
    tally.record(32, Vec::new());
    tally.record(32, vec!["digest differs".to_string()]);
    assert_eq!((tally.attempted, tally.failed), (64, 32));
    let mut metrics = Metrics::new(end_to_end());
    metrics.zero_unset();
    let line = result_line(&tally, &metrics).expect("every metric is set");
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 64, \"failed\": 32,"));
}

#[test]
#[should_panic(expected = "not in the catalogue")]
fn unknown_metric_names_are_bugs() {
    Metrics::new(per_layer()).set("textmetrics.nonexistent_s", 1.0);
}

fn benchmark_json() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(json: &'a Value, key: &str) -> &'a [Value] {
    match json.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

#[test]
fn benchmark_json_metrics_have_a_direction_and_unique_names() {
    let json = benchmark_json();
    let mut names = std::collections::BTreeSet::new();
    for key in ["end_to_end", "per_layer"] {
        for entry in entries(&json, key) {
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            assert!(names.insert(name.to_string()), "{name} is listed twice");
            let better = entry.get("better").and_then(Value::as_str);
            assert!(matches!(better, Some("higher" | "lower")), "{name}: better is {better:?}");
            assert!(entry.get("unit").and_then(Value::as_str).is_some_and(|u| !u.is_empty()), "{name} unit");
        }
    }
    assert_eq!(end_to_end().len() + per_layer().len(), names.len());
}

#[test]
fn benchmark_json_bounds_and_workloads_follow_the_contract() {
    let json = benchmark_json();
    let bound = |entry: &Value| {
        entry.get("bound").and_then(Value::as_f64).expect("every end-to-end metric has a bound")
    };
    let end_to_end = entries(&json, "end_to_end");
    for entry in end_to_end {
        assert!(bound(entry) > 0.0 && bound(entry) <= 0.25, "{entry:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    assert!(end_to_end.iter().all(|e| bound(e) <= bound(setup)), "setup_s has the largest bound");

    let workloads: Vec<&str> = entries(&json, "workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
    let command: Vec<&str> = entries(&json, "command").iter().map(|c| c.as_str().expect("string")).collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"perfbench/Cargo.toml"));
}

#[test]
fn arguments_are_all_required_and_checked() {
    let args = |list: &[&str]| perfbench::parse_args(list.iter().map(|s| s.to_string()));
    let parsed =
        args(&["--workload", "serve", "--seed", "7", "--seconds", "2", "--trace", "1"]).expect("valid");
    assert_eq!((parsed.workload.as_str(), parsed.seed, parsed.seconds, parsed.trace), ("serve", 7, 2.0, true));
    assert!(args(&["--workload", "serve", "--seed", "7", "--seconds", "2"]).is_err());
    assert!(args(&["--workload", "nope", "--seed", "7", "--seconds", "2", "--trace", "0"]).is_err());
    assert!(args(&["--workload", "serve", "--seed", "-1", "--seconds", "2", "--trace", "0"]).is_err());
    assert!(args(&["--workload", "serve", "--seed", "7", "--seconds", "0", "--trace", "0"]).is_err());
    assert!(args(&["--workload", "serve", "--seed", "7", "--seconds", "2", "--trace", "2"]).is_err());
}

#[test]
fn apportioned_categories_sum_to_the_corpus() {
    let mix = scicorpus::categories::CategoryMix::paper_default();
    assert_eq!(perfbench::inputs::apportion(&mix, 32), vec![4, 7, 3, 18]);
    for n in [1, 12, 128, 256] {
        assert_eq!(perfbench::inputs::apportion(&mix, n).iter().sum::<usize>(), n);
    }
}
