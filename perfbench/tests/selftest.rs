//! Runs every workload of `BENCHMARK.json` at a tiny scale, untraced and
//! traced, and checks that each completes with no failed operation and
//! prints exactly the metrics `BENCHMARK.json` names, each with its unit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get_field(key)
        .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}"))
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn arr_of(v: &Value) -> &[Value] {
    match v {
        Value::Arr(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn num_of(v: &Value) -> f64 {
    match v {
        Value::UInt(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(bench: &Value, section: &str) -> Vec<(String, String)> {
    arr_of(field(bench, section))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).to_owned(),
                str_of(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_runs_clean_and_prints_every_metric() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    let workloads: Vec<String> = arr_of(field(&bench, "workloads"))
        .iter()
        .map(|w| str_of(field(w, "name")).to_owned())
        .collect();
    assert!(workloads.len() >= 2);
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    std::fs::create_dir_all(&work).expect("create test dir");

    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_eg-perfbench"))
                .current_dir(&work)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "0.002"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{stderr}"
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("result line is JSON");
            let Value::Obj(keys) = &result else {
                panic!("result is not an object: {last}");
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{last}");
            assert_eq!(num_of(field(&result, "failed")), 0.0, "{last}");
            assert!(num_of(field(&result, "attempted")) >= 1.0, "{last}");

            let metrics = field(&result, "metrics");
            let Value::Obj(printed) = metrics else {
                panic!("metrics is not an object: {last}");
            };
            let want = declared(&bench, section);
            assert_eq!(
                printed.len(),
                want.len(),
                "{workload} trace {trace}: {last}"
            );
            for (name, unit) in &want {
                let m = field(metrics, name);
                assert_eq!(str_of(field(m, "unit")), unit, "{name}");
                let value = num_of(field(m, "value"));
                assert!(value.is_finite(), "{name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} reads 0");
                }
                // The human-readable table names every metric with its unit.
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(name.as_str())
                            && l.split_whitespace().nth(2) == Some(unit.as_str())),
                    "{name} missing from the table:\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "offline_merge", "--trace", "2"],
        &["--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_eg-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
