//! Runs every workload at `--quick` and checks what it prints against
//! `BENCHMARK.json`: the result object has exactly the contract's keys, the
//! metric names and units are the declared ones, and two traced runs of the
//! same seed agree exactly on every metric that is a count of the program.

use serde_json::Value;
use std::process::Command;

/// Per-layer metrics that count what the program did, not how long it took.
const EXACT: &[&str] = &[
    "rank.up.share",
    "rank.prefix_reuse.share",
    "rank.computed_tokens.count",
    "kvcache.evictions.count",
    "kvcache.store_fill.share",
    "exec.pool_width.count",
    "serve.rounds.count",
    "serve.chunks.count",
    "sim.hit_rate.share",
    "sim.up.share",
];

fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at repo root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, f: &str| {
        m.get(f)
            .and_then(Value::as_str)
            .expect("string field")
            .to_owned()
    };
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric array")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Runs the harness and returns the object on its last line of output.
fn run(workload: &str, traced: bool, tag: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bat-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--quick"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--out", &format!("out/test-{workload}-{tag}")])
        .output()
        .expect("harness starts");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result parses")
}

fn metrics(result: &Value) -> Vec<(String, String, f64)> {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} is not finite");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned(), value)
        })
        .collect()
}

fn names(m: &[(String, String, f64)]) -> Vec<(String, String)> {
    m.iter().map(|(n, u, _)| (n.clone(), u.clone())).collect()
}

fn check(workload: &str) {
    let untraced = metrics(&run(workload, false, "a"));
    assert_eq!(names(&untraced), declared("end_to_end"));
    for (name, _, value) in &untraced {
        assert!(*value > 0.0, "end-to-end metric {name} must never be 0");
    }
    let first = metrics(&run(workload, true, "a"));
    let second = metrics(&run(workload, true, "b"));
    assert_eq!(names(&first), declared("per_layer"));
    for ((name, _, a), (_, _, b)) in first.iter().zip(&second) {
        if EXACT.contains(&name.as_str()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{workload}: {name} differs between same-seed runs"
            );
        }
    }
}

#[test]
fn rank_warm() {
    check("rank_warm");
}

#[test]
fn rank_churn() {
    check("rank_churn");
}

#[test]
fn serve_slots() {
    check("serve_slots");
}

#[test]
fn sim_replay() {
    check("sim_replay");
}
