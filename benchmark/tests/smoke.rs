//! Every workload through the real binary at `--smoke` scale (Tiny study,
//! 500-AS flood topology) for one second: the output checks pass, the
//! result line parses and has exactly the contract's keys, the printed
//! names and units are the ones `BENCHMARK.json` declares, and a
//! perturbed reference makes every workload fail.

use std::collections::BTreeMap;
use std::process::Command;

use bh_benchmark::json::{self, Value};
use bh_benchmark::spec::{valid_name, Declared, Workload};

struct Run {
    success: bool,
    result: Value,
    context: Value,
}

fn run(workload: Workload, trace: bool, extra: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_bh-benchmark"))
        .args(["--workload", workload.name(), "--seed", "7", "--seconds", "1", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let result = json::parse(lines.next().expect("a result line")).expect("result line parses");
    let context = json::parse(lines.next().expect("a context line")).expect("context parses");
    Run { success: output.status.success(), result, context }
}

fn declared() -> Declared {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Declared::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn count(value: &Value, key: &str) -> u64 {
    value.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("no {key}")) as u64
}

fn check_clean(workload: Workload, trace: bool, declared: &Declared) {
    let run = run(workload, trace, &[]);
    let label = format!("{} trace {}", workload.name(), u8::from(trace));
    assert!(run.success, "{label}: non-zero exit");
    let keys: Vec<&str> = run.result.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{label}");
    assert_eq!(run.result.get("correct").and_then(Value::as_bool), Some(true), "{label}");
    assert!(count(&run.result, "attempted") >= 1, "{label}");
    assert_eq!(count(&run.result, "failed"), 0, "{label}");
    assert_eq!(count(&run.context, "ops_failed"), 0, "{label}");
    assert!(count(&run.context, "elems") > 0, "{label}: empty input");

    let mut printed = BTreeMap::new();
    for (name, entry) in run.result.get("metrics").and_then(Value::as_object).unwrap() {
        assert!(valid_name(name), "{label}: bad metric name {name:?}");
        let value = entry.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{label}: {name} is not a finite number");
        printed.insert(name.clone(), entry.get("unit").and_then(Value::as_str).unwrap().to_owned());
    }
    let mismatches = declared.mismatches(trace, &printed);
    assert!(mismatches.is_empty(), "{label} vs BENCHMARK.json: {mismatches:#?}");
    if !trace {
        for name in declared.end_to_end.keys() {
            let value = run.result.get("metrics").unwrap().get(name).unwrap().get("value");
            assert!(
                value.and_then(Value::as_f64).unwrap() > 0.0,
                "{label}: {name} must never be 0"
            );
        }
    }
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_end_to_end_metrics() {
    let declared = declared();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared.workloads, names, "BENCHMARK.json workloads");
    for workload in Workload::ALL {
        check_clean(workload, false, &declared);
    }
}

#[test]
fn every_workload_traced_prints_the_declared_per_layer_metrics_and_a_span_file() {
    let declared = declared();
    for workload in Workload::ALL {
        check_clean(workload, true, &declared);
        let file = format!("{}/out/trace-{}-7.json", env!("CARGO_MANIFEST_DIR"), workload.name());
        let spans = json::parse(&std::fs::read_to_string(&file).expect("span file written"))
            .expect("span file parses");
        let spans = spans.get("spans").and_then(Value::as_array).expect("spans array");
        let fused = format!("fused.{}", workload.name());
        assert!(spans.iter().any(|s| s.get("name").and_then(Value::as_str) == Some(&fused)));
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("ledger.round")));
    }
}

#[test]
fn a_perturbed_reference_fails_every_workload() {
    for workload in Workload::ALL {
        let run = run(workload, false, &["--perturb"]);
        assert!(!run.success, "{}: perturbed run exited 0", workload.name());
        assert_eq!(run.result.get("correct").and_then(Value::as_bool), Some(false));
        assert!(count(&run.result, "failed") > 0, "{}: check is dead", workload.name());
    }
}
