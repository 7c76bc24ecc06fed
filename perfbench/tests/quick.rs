//! Runs every workload of the benchmark in quick mode (one planning
//! round with one churn batch, one engine block, one simulator block,
//! every correctness check) and holds its output to the contract in
//! `BENCHMARK.json`: one JSON result on the last line, every
//! end-to-end metric untraced, every per-layer metric traced.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .unwrap_or_else(|e| panic!("reading BENCHMARK.json: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing BENCHMARK.json: {e}"))
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_remo-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .unwrap_or_else(|e| panic!("running {workload}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e} in {last}"))
}

fn check(workload: &str, trace: bool, metrics_key: &str) {
    let spec = spec();
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    let attempted = result.get("attempted").and_then(number).unwrap_or(0.0);
    let failed = result.get("failed").and_then(number).unwrap_or(-1.0);
    assert!(attempted >= 1.0, "{workload}: attempted {attempted}");
    assert_eq!(failed, 0.0, "{workload}: failed operations");
    let metrics = result
        .get("metrics")
        .unwrap_or_else(|| panic!("no metrics"));
    for m in array(&spec, metrics_key) {
        let name = text(m, "name");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(text(got, "unit"), text(m, "unit"), "{workload}: {name}");
        let value = got.get("value").and_then(number);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        if metrics_key == "end_to_end" {
            assert!(value.unwrap_or(0.0) > 0.0, "{workload}: {name} reads 0");
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in array(&spec(), "workloads") {
        check(text(w, "name"), false, "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for w in array(&spec(), "workloads") {
        check(text(w, "name"), true, "per_layer");
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_remo-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

/// At the budgets the plan fills, relays drop readings and ARQ must
/// retry every one: one full-size block still delivers every reading
/// due (no failed epoch) and passes every check.
#[test]
fn lossy_collection_at_planned_budgets_delivers_every_reading() {
    let out = Command::new(env!("CARGO_BIN_EXE_remo-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            "collect-lossy",
            "--seed",
            "3",
            "--seconds",
            "0.1",
        ])
        .args(["--trace", "1", "--no-headroom"])
        .output()
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result: Value = serde_json::from_str(stdout.lines().last().unwrap_or_default())
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(number), Some(0.0));
    let dropped = result
        .get("metrics")
        .and_then(|m| m.get("runtime.dropped_readings"))
        .and_then(|d| d.get("value"))
        .and_then(number);
    assert!(
        dropped.is_some_and(|d| d > 0.0),
        "relays at planned budgets dropped nothing: {dropped:?}"
    );
}
