//! Names the benchmark is known by: workloads, end-to-end metrics, and
//! the shape of a result. `BENCHMARK.json` declares the same names; the
//! smoke test and `--all` fail when the two disagree.

use std::collections::BTreeMap;

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ArchiveScan,
    MemoryInfer,
    ArchiveWrite,
    FleetScan,
    LiveReplay,
    SimFlood,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ArchiveScan,
        Workload::MemoryInfer,
        Workload::ArchiveWrite,
        Workload::FleetScan,
        Workload::LiveReplay,
        Workload::SimFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveScan => "archive_scan",
            Workload::MemoryInfer => "memory_infer",
            Workload::ArchiveWrite => "archive_write",
            Workload::FleetScan => "fleet_scan",
            Workload::LiveReplay => "live_replay",
            Workload::SimFlood => "sim_flood",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Names may hold letters, digits, `_`, `.`, `-`, start with a letter or
/// digit, and run to 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An end-to-end metric's declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub unit: String,
    /// Share of the baseline median by which it may get worse.
    pub bound: f64,
    pub lower_is_better: bool,
}

/// What `BENCHMARK.json` declares, as far as this crate checks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<String, EndToEnd>,
    /// name → unit
    pub per_layer: BTreeMap<String, String>,
}

impl Declared {
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = crate::json::parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Value::as_array).ok_or_else(|| format!("missing list {key:?}"))
        };
        let text_of = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("entry without {key:?}"))
        };
        let mut declared = Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")?,
            workloads: Vec::new(),
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
        };
        for item in list("workloads")? {
            declared.workloads.push(text_of(item, "name")?);
        }
        for item in list("end_to_end")? {
            let bound = item.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?;
            let lower_is_better = match text_of(item, "better")?.as_str() {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("better: {other:?} is neither lower nor higher")),
            };
            let unit = text_of(item, "unit")?;
            declared
                .end_to_end
                .insert(text_of(item, "name")?, EndToEnd { unit, bound, lower_is_better });
        }
        for item in list("per_layer")? {
            declared.per_layer.insert(text_of(item, "name")?, text_of(item, "unit")?);
        }
        Ok(declared)
    }

    /// Every way `metrics` (one run's output) departs from the
    /// declaration: names missing, undeclared, or with another unit.
    pub fn mismatches(&self, traced: bool, metrics: &BTreeMap<String, String>) -> Vec<String> {
        let declared: BTreeMap<&str, &str> = if traced {
            self.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str())).collect()
        } else {
            self.end_to_end.iter().map(|(n, e)| (n.as_str(), e.unit.as_str())).collect()
        };
        let mut out = Vec::new();
        for (name, unit) in &declared {
            match metrics.get(*name) {
                None => out.push(format!("declared but not printed: {name}")),
                Some(u) if u != unit => {
                    out.push(format!("{name}: printed unit {u:?}, declared {unit:?}"))
                }
                Some(_) => {}
            }
        }
        for name in metrics.keys().filter(|n| !declared.contains_key(n.as_str())) {
            out.push(format!("printed but not declared: {name}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_restricted() {
        for good in ["setup_s", "bgp-types.attr_decode_ns", "a", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".a", "a b", "a/b", "é", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mismatches_name_every_departure() {
        let declared = Declared::parse(
            r#"{"run_seconds": 10, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "b", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "c", "unit": "ns", "better": "lower"}]}"#,
        )
        .unwrap();
        let printed: BTreeMap<String, String> =
            [("a", "ms"), ("z", "s")].iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        let problems = declared.mismatches(false, &printed);
        assert_eq!(problems.len(), 3, "{problems:?}");
        let ok: BTreeMap<String, String> = [("c".to_owned(), "ns".to_owned())].into();
        assert!(declared.mismatches(true, &ok).is_empty());
    }
}
