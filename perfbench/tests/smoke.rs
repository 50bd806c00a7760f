//! Smoke-sized runs of every workload named in `BENCHMARK.json`: each
//! prints a correct result line with exactly the metrics the file
//! declares, each with its declared unit.

use std::path::PathBuf;
use std::process::Command;

use flowtune_analyze::json::{self, Json};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).expect(key)
}

fn name(entry: &Json) -> &str {
    entry.get("name").and_then(Json::as_str).expect("name")
}

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flowtune-perfbench"))
        .args(args)
        .output()
        .expect("spawn benchmark");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf8"),
    )
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Run one smoke-sized workload and check its result line against the
/// metrics `declared` for it in `BENCHMARK.json`.
fn check(workload: &str, trace: &str, declared: &[Json]) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert_eq!(code, Some(0), "{workload} --trace {trace} exit code");
    let lines: Vec<&str> = stdout.lines().collect();
    let env = json::parse(lines[0]).expect("env line parses");
    assert!(
        env.get("env").and_then(|e| e.get("nproc")).is_some(),
        "env block"
    );
    let result = json::parse(lines.last().expect("result line")).expect("result parses");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} {trace}"
    );
    assert_eq!(result.get("failed"), Some(&Json::Int(0)));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_int)
            .expect("attempted")
            >= 1
    );

    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(name).collect();
    assert_eq!(printed, wanted, "{workload} --trace {trace} metric names");
    for entry in declared {
        let metric = &metrics
            .iter()
            .find(|(k, _)| k == name(entry))
            .expect("present")
            .1;
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            entry.get("unit").and_then(Json::as_str),
            "{workload}: unit of {}",
            name(entry)
        );
        let value = metric.get("value").and_then(number).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {} = {value}", name(entry));
        if trace == "0" {
            // End-to-end metrics are compared as shares of a median.
            assert!(value > 0.0, "{workload}: {} = {value}", name(entry));
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let doc = benchmark_json();
    for w in entries(&doc, "workloads") {
        check(name(w), "0", entries(&doc, "end_to_end"));
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let doc = benchmark_json();
    for w in entries(&doc, "workloads") {
        check(name(w), "1", entries(&doc, "per_layer"));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "gain_phases", "--trace", "2"],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    }
}
