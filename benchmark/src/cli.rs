//! Command line and result lines.
//!
//! `bh-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//! runs one workload and prints two JSON lines: the run's context (input
//! size, machine shape, tallies) and, last, the result object the driver
//! reads. `--all` and `--repeat` run the whole suite by spawning this
//! same binary once per run (see `suite.rs`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::{self, Value};
use crate::run::{Config, Outcome};
use crate::spec::Workload;

pub const USAGE: &str = "usage:
  bh-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
  bh-benchmark --all    [--seed <u64>] [--seconds <n>] [--smoke]
  bh-benchmark --repeat [--runs <n>] [--seconds <n>] [--smoke]
workloads: archive_scan memory_infer archive_write fleet_scan live_replay sim_flood";

/// Seconds one run measures when `--seconds` is absent.
pub const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone)]
pub enum Command {
    One(Config),
    All { seed: u64, seconds: Option<f64>, smoke: bool },
    Repeat { runs: usize, seconds: Option<f64>, smoke: bool },
}

/// The directory this crate was built from: the span files and
/// `results/` live under it, `BENCHMARK.json` beside it.
pub fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut perturb = false;
    let mut all = false;
    let mut repeat = false;
    let mut runs = 5usize;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value("a number")?.parse().map_err(|_| "--seed: not a u64")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                runs = value("a number")?.parse().map_err(|_| "--runs: not a number")?;
                if runs < 2 {
                    return Err("--runs must be at least 2".to_owned());
                }
            }
            "--smoke" => smoke = true,
            "--perturb" => perturb = true,
            "--all" => all = true,
            "--repeat" => repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (workload, all, repeat) {
        (Some(workload), false, false) => Ok(Command::One(Config {
            workload,
            seed,
            seconds: seconds.unwrap_or(DEFAULT_SECONDS),
            trace,
            smoke,
            perturb,
            out_dir: crate_dir().join("out"),
        })),
        (None, true, false) => Ok(Command::All { seed, seconds, smoke }),
        (None, false, true) => Ok(Command::Repeat { runs, seconds, smoke }),
        _ => Err("give exactly one of --workload, --all, --repeat".to_owned()),
    }
}

fn num(n: impl Into<f64>) -> Value {
    Value::Num(n.into())
}

/// The context line: everything about the run that is not a metric.
pub fn context_line(config: &Config, outcome: &Outcome) -> String {
    let info = &outcome.info;
    let fields: BTreeMap<String, Value> = [
        ("workload", Value::Str(config.workload.name().to_owned())),
        ("seed", num(config.seed as f64)),
        ("seconds", num(config.seconds)),
        ("trace", num(u8::from(config.trace))),
        ("smoke", Value::Bool(config.smoke)),
        ("elems", num(info.elems as f64)),
        ("records", num(info.records as f64)),
        ("bytes", num(info.bytes as f64)),
        ("as_count", num(info.as_count as f64)),
        ("nproc", num(info.nproc as f64)),
        ("git_rev", Value::Str(info.git_rev.clone())),
        ("iterations", num(info.iterations as f64)),
        (
            "unit_ms_min_p10_p25_p50_p90",
            Value::Array(info.unit_ms.iter().map(|v| Value::Num(*v)).collect()),
        ),
        ("ops_attempted", num(outcome.attempted as f64)),
        ("ops_failed", num(outcome.failed as f64)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    json::to_string(&Value::Object(fields))
}

/// The result line, exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: BTreeMap<String, Value> = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry: BTreeMap<String, Value> = [
                ("value".to_owned(), Value::Num(m.value)),
                ("unit".to_owned(), Value::Str(m.unit.to_owned())),
            ]
            .into();
            (m.name.to_owned(), Value::Object(entry))
        })
        .collect();
    // Keys in the contract's order, not the map's.
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json::to_string(&Value::Object(metrics))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let cmd = parse_args(args("--workload live_replay --seed 7 --seconds 10 --trace 1"));
        match cmd {
            Ok(Command::One(c)) => {
                assert_eq!(c.workload, Workload::LiveReplay);
                assert_eq!((c.seed, c.seconds, c.trace, c.smoke), (7, 10.0, true, false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            "",
            "--workload nope",
            "--workload sim_flood --trace 2",
            "--workload sim_flood --seconds 0",
            "--workload sim_flood --all",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
