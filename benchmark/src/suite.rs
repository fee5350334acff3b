//! The whole suite in one command: `--all` (what `run.sh` calls) and
//! `--repeat` (what `repeat.sh` calls). Each run is a fresh process of
//! this same binary, because one process measures one workload: peak
//! RSS, set-up time and allocator state must not leak between runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::cli::crate_dir;
use crate::json::{self, Value};
use crate::spec::{valid_name, Declared, Workload};
use crate::stats;

/// One finished run, as parsed back from its result line.
struct RunResult {
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn declared() -> Result<Declared, String> {
    let path = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Declared::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn spawn_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child; nothing is left running.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| {
        format!("{} printed nothing: {}", workload.name(), String::from_utf8_lossy(&output.stderr))
    })?;
    let doc = json::parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let failed = doc.get("failed").and_then(Value::as_f64).ok_or("result without failed")? as u64;
    let mut metrics = BTreeMap::new();
    for (name, entry) in
        doc.get("metrics").and_then(Value::as_object).ok_or("result without metrics")?
    {
        let value = entry.get("value").and_then(Value::as_f64).ok_or("metric without value")?;
        let unit = entry.get("unit").and_then(Value::as_str).ok_or("metric without unit")?;
        metrics.insert(name.clone(), (value, unit.to_owned()));
    }
    if !output.status.success() && failed == 0 {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    Ok(RunResult { failed, metrics })
}

/// Every workload untraced, then traced; print every metric with its
/// unit. False if an output check failed or the printed names and units
/// are not exactly the declared ones.
pub fn all(seed: u64, seconds: Option<f64>, smoke: bool) -> bool {
    let declared = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bh-benchmark: {e}");
            return false;
        }
    };
    let seconds = seconds.unwrap_or(declared.run_seconds);
    let mut problems = Vec::new();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared.workloads != names {
        problems
            .push(format!("BENCHMARK.json workloads {:?}, built-in {names:?}", declared.workloads));
    }
    println!("{:<14} {:<5} {:<40} {:>18} unit", "workload", "trace", "metric", "value");
    for trace in [false, true] {
        for workload in Workload::ALL {
            match spawn_run(workload, seed, seconds, trace, smoke) {
                Err(e) => problems.push(e),
                Ok(result) => {
                    for (name, (value, unit)) in &result.metrics {
                        println!(
                            "{:<14} {:<5} {:<40} {:>18.4} {unit}",
                            workload.name(),
                            u8::from(trace),
                            name,
                            value
                        );
                        if !valid_name(name) {
                            problems.push(format!("invalid metric name {name:?}"));
                        }
                    }
                    if result.failed > 0 {
                        problems.push(format!(
                            "{} (trace {}): {} failed ops",
                            workload.name(),
                            u8::from(trace),
                            result.failed
                        ));
                    }
                    let printed =
                        result.metrics.iter().map(|(n, (_, u))| (n.clone(), u.clone())).collect();
                    for mismatch in declared.mismatches(trace, &printed) {
                        problems.push(format!("{}: {mismatch}", workload.name()));
                    }
                }
            }
        }
    }
    for problem in &problems {
        eprintln!("bh-benchmark: {problem}");
    }
    problems.is_empty()
}

/// Median, quartiles and interquartile spread (as a share of the median)
/// of one set of runs.
struct SetSummary {
    values: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
}

fn summarize(values: &[f64]) -> SetSummary {
    let (q1, median, q3) = stats::quartiles(values);
    SetSummary { values: values.to_vec(), median, q1, q3, spread: (q3 - q1) / median }
}

/// Two interleaved sets of `runs` untraced runs per workload, both over
/// seeds `1..=runs`; writes `results/repeat.json` and returns whether
/// every (metric, workload) pair held its bound: the second set's median
/// not worse than the first's by more than the bound, and (except
/// `setup_s`, per the driver's rule) each set's spread within it.
pub fn repeat(runs: usize, seconds: Option<f64>, smoke: bool) -> bool {
    let declared = match declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bh-benchmark: {e}");
            return false;
        }
    };
    let seconds = seconds.unwrap_or(declared.run_seconds);
    // (workload, metric) → per set, the values in seed order.
    let mut values: BTreeMap<(&'static str, String), [Vec<f64>; 2]> = BTreeMap::new();
    let mut ok = true;
    for seed in 1..=runs as u64 {
        for workload in Workload::ALL {
            for set in 0..2 {
                eprintln!("repeat: seed {seed} {} set {set}", workload.name());
                match spawn_run(workload, seed, seconds, false, smoke) {
                    Ok(result) => {
                        ok &= result.failed == 0;
                        for (name, (value, _)) in result.metrics {
                            values.entry((workload.name(), name)).or_default()[set].push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("bh-benchmark: {e}");
                        ok = false;
                    }
                }
            }
        }
    }

    let mut out = String::new();
    writeln!(
        out,
        "{{\"runs_per_set\":{runs},\"seeds\":\"1..={runs}\",\"seconds\":{seconds},\"smoke\":{smoke},\"nproc\":{},\"pairs\":[",
        crate::sys::nproc()
    )
    .expect("string write");
    let mut first = true;
    for ((workload, metric), sets) in &values {
        let Some(spec) = declared.end_to_end.get(metric) else { continue };
        if sets.iter().any(|s| s.len() < 2) {
            ok = false;
            continue;
        }
        let (a, b) = (summarize(&sets[0]), summarize(&sets[1]));
        let worse_by = if spec.lower_is_better {
            b.median / a.median - 1.0
        } else {
            1.0 - b.median / a.median
        };
        let spread_ok = metric == "setup_s" || a.spread.max(b.spread) <= spec.bound;
        let within = worse_by <= spec.bound && spread_ok;
        ok &= within;
        if !first {
            out.push_str(",\n");
        }
        first = false;
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"metric\":\"{metric}\",\"unit\":\"{}\",\"bound\":{},\"worse_by\":{worse_by:.5},\"within_bound\":{within},\"sets\":[",
            spec.unit, spec.bound
        )
        .expect("string write");
        for (i, set) in [&a, &b].into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"median\":{},\"q1\":{},\"q3\":{},\"spread\":{:.5},\"values\":{}}}",
                set.median,
                set.q1,
                set.q3,
                set.spread,
                json::to_string(&Value::Array(set.values.iter().map(|v| Value::Num(*v)).collect()))
            )
            .expect("string write");
        }
        out.push_str("]}");
        println!(
            "{workload:<14} {metric:<12} median {:>14.4} / {:>14.4}  worse_by {worse_by:>8.4}  spread {:.4} / {:.4}  bound {}  {}",
            a.median,
            b.median,
            a.spread,
            b.spread,
            spec.bound,
            if within { "ok" } else { "OUT OF BOUND" }
        );
    }
    out.push_str("\n]}\n");
    let dir = crate_dir().join("results");
    let path = dir.join(if smoke { "repeat-smoke.json" } else { "repeat.json" });
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("bh-benchmark: cannot write {}: {e}", path.display());
        ok = false;
    }
    ok
}
