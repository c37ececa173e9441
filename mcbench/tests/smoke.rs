//! Smoke test: every workload at scale 1 in both modes prints exactly the
//! metrics `BENCHMARK.json` declares, with their units, and passes the
//! verdict gate, including the traced run's verdict equality, with no
//! failed check.

use serde_json::Value;
use std::process::Command;
use std::sync::Mutex;

/// Runs share two vCPUs and the corpus checks have a wall-clock limit,
/// so they go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    field(&spec, section)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    Command::new(env!("CARGO_BIN_EXE_mcbench"))
        .args(args)
        .output()
        .expect("benchmark runs")
}

fn check_workload(workload: &str, trace: &str, section: &str) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stdout}");
    // Checks that only break a limit lower `ok_share`; none is failed.
    assert!(
        matches!(field(&result, "failed"), Value::Int(0)),
        "{stdout}"
    );
    let metrics = field(&result, "metrics")
        .as_object()
        .expect("metrics object");
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), text(field(v, "unit")).to_string()))
        .collect();
    assert_eq!(got, declared(section), "{workload} --trace {trace}");
    for (name, v) in metrics {
        assert!(
            matches!(field(v, "value"), Value::Int(_) | Value::Float(_)),
            "{name} is not a number"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in ["grid4", "symbolic4", "corpus"] {
        check_workload(w, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_report_every_layer_and_agree_with_the_timed_pass() {
    for w in ["grid4", "symbolic4", "corpus"] {
        check_workload(w, "1", "per_layer");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "grid4", "--trace", "2"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
