//! One process, one workload: set-up, warm-up, the closed measuring
//! loop with its output checks, and the result.
//!
//! Every workload is a closed loop with a single client on the main
//! thread: the real-time rate of the input stream is under one elem per
//! second, so an open loop at the "true" rate would measure nothing, and
//! throughput at full speed is the headroom figure a user needs. The
//! only other threads are the ones the product path itself starts
//! (`fleet_scan`'s readers and shards).

use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{FloodInput, FloodRig, Keep, LiveSamples, StudyInput};
use crate::spec::{Metric, Workload};
use crate::trace::Tracer;
use crate::{ledger, stats, sys};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Unmeasured iterations before the loop (rotations, for `sim_flood`).
const WARMUP_ITERATIONS: usize = 2;
/// Fewest measured iterations, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny study and a 500-AS flood topology: seconds instead of minutes.
    pub smoke: bool,
    /// Fault injection: corrupt the reference, so every check must fail.
    pub perturb: bool,
    /// Where `trace-<workload>-<seed>.json` goes.
    pub out_dir: PathBuf,
}

/// Input size and machine shape, printed beside the metrics so a number
/// can never be compared across a quietly different input or core count.
#[derive(Debug, Clone, Default)]
pub struct Info {
    pub elems: u64,
    pub records: u64,
    pub bytes: u64,
    pub as_count: u64,
    pub nproc: usize,
    pub git_rev: String,
    pub iterations: u64,
    /// Quantiles of the unit time, ms: min, p10, p25, p50, p90.
    pub unit_ms: [f64; 5],
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Info,
}

/// One measured iteration: which rotation slot it was (always 0 except
/// for `sim_flood`) and how long the timed part took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub slot: usize,
    pub ns: u64,
}

/// The quantile of the iteration times a run reports as *the* time of
/// one iteration. Low, not the median: on the recording box the host
/// takes the CPU away in phases of 10–30 s that slow everything by up to
/// 45 %, and `archive_write`'s allocator churn spreads its iterations
/// 104–154 ms (min–p90) inside one calm run. Both only ever add time, so
/// the fast decile tracks the code where the median tracks the
/// neighbour: across same-seed runs of `archive_write` the p10 spread
/// 0.03 where the median spread 0.11.
pub const UNIT_PERCENTILE: f64 = 10.0;

/// Time of one whole unit of work: the [`UNIT_PERCENTILE`] iteration, or
/// for `sim_flood` the sum over rotation slots of each slot's
/// [`UNIT_PERCENTILE`] cycle (origins differ several-fold, so one
/// quantile over all cycles would track whichever origins the run
/// happened to end on).
pub fn unit_ns(samples: &[Sample]) -> f64 {
    let slots = samples.iter().map(|s| s.slot).max().map_or(0, |m| m + 1);
    (0..slots)
        .map(|slot| {
            let ns: Vec<f64> =
                samples.iter().filter(|s| s.slot == slot).map(|s| s.ns as f64).collect();
            if ns.is_empty() {
                0.0
            } else {
                stats::percentile(&ns, UNIT_PERCENTILE)
            }
        })
        .sum()
}

/// Iterations in one unit of work: a whole rotation for `sim_flood`.
pub fn unit_len(workload: Workload) -> usize {
    if workload == Workload::SimFlood {
        crate::adapter::FLOOD_ORIGINS
    } else {
        1
    }
}

/// Wall time of each whole unit of work, ms.
fn unit_ms(samples: &[Sample], unit_len: usize) -> Vec<f64> {
    samples
        .chunks(unit_len)
        .map(|chunk| chunk.iter().map(|s| s.ns as f64).sum::<f64>() / 1e6)
        .collect()
}

/// Per-call samples of every `sim_flood` cycle of a traced run.
#[derive(Debug, Default)]
pub struct FloodSamples {
    pub cycle_ns: Vec<u64>,
    pub announce_ns: Vec<u64>,
    pub withdraw_ns: Vec<u64>,
    pub no_convergence: u64,
}

/// Runs iterations of any workload over the inputs it was given, checks
/// each output, and keeps the tallies.
pub struct Runner<'a> {
    study: Option<&'a StudyInput>,
    rig: Option<FloodRig<'a>>,
    flood: Option<&'a FloodInput>,
    write_bufs: Vec<Vec<u8>>,
    writes: u64,
    next_slot: usize,
    pub tracer: Tracer,
    pub live: LiveSamples,
    pub floods: FloodSamples,
    pub attempted: u64,
    pub failed: u64,
    /// Span id of the latest iteration's `fused.*` span (traced only).
    pub last_fused_span: u32,
}

impl<'a> Runner<'a> {
    pub fn new(
        study: Option<&'a StudyInput>,
        flood: Option<&'a FloodInput>,
        tracer: Tracer,
    ) -> Self {
        Runner {
            study,
            rig: flood.map(FloodInput::rig),
            flood,
            write_bufs: Vec::new(),
            writes: 0,
            next_slot: 0,
            tracer,
            live: LiveSamples::default(),
            floods: FloodSamples::default(),
            attempted: 0,
            failed: 0,
            last_fused_span: 0,
        }
    }

    fn study(&self) -> &'a StudyInput {
        self.study.expect("workload needs the study input")
    }

    /// Elems through one unit of work of `workload`.
    pub fn unit_elems(&self, workload: Workload) -> u64 {
        if workload == Workload::SimFlood {
            self.flood.expect("sim_flood needs the flood input").elems_per_rotation()
        } else {
            self.study().elems()
        }
    }

    fn tally(&mut self, checks: &[bool]) {
        self.attempted += checks.len() as u64;
        self.failed += checks.iter().filter(|ok| !**ok).count() as u64;
    }

    /// One iteration of `workload`: the timed call, then its checks.
    pub fn iterate(&mut self, workload: Workload) -> Sample {
        let span = self.tracer.open(fused_span_name(workload));
        self.last_fused_span = self.tracer.current();
        let mut slot = 0;
        let ns = match workload {
            Workload::ArchiveScan => {
                let (ns, out, clean) = self.study().archive_scan(&mut self.tracer);
                self.tracer.close(span, self.study().elems());
                self.tally(&[self.study().agrees(&out) && clean]);
                ns
            }
            Workload::MemoryInfer => {
                let (ns, out) = self.study().memory_infer(&mut self.tracer);
                self.tracer.close(span, self.study().elems());
                self.tally(&[self.study().agrees(&out)]);
                ns
            }
            Workload::ArchiveWrite => {
                if self.write_bufs.is_empty() {
                    self.write_bufs = self.study().write_buffers();
                }
                let ns = self.study().archive_write(&mut self.write_bufs, &mut self.tracer);
                self.tracer.close(span, self.study().elems());
                self.writes += 1;
                let mut ok = self.study().written_matches(&self.write_bufs);
                if self.writes == 1 {
                    ok &= self.study().written_decodes_back(&self.write_bufs);
                }
                self.tally(&[ok]);
                ns
            }
            Workload::FleetScan => {
                let (ns, out, clean) = self.study().fleet_scan(&mut self.tracer);
                self.tracer.close(span, self.study().elems());
                self.tally(&[self.study().agrees(&out) && clean]);
                ns
            }
            Workload::LiveReplay => {
                let live = self.study().live_replay(&mut self.tracer, &mut self.live);
                self.tracer.close(span, self.study().elems());
                let replay_ok =
                    self.study().agrees(&live.out) && live.seqs_contiguous && live.latency_bounded;
                self.attempted += 1 + live.queries;
                self.failed += u64::from(!replay_ok) + live.bad_replies;
                live.ns
            }
            Workload::SimFlood => {
                slot = self.next_slot;
                self.next_slot = (slot + 1) % crate::adapter::FLOOD_ORIGINS;
                let rig = self.rig.as_mut().expect("sim_flood needs the flood input");
                let cycle = rig.cycle(slot, &mut self.tracer);
                self.tracer.close(span, cycle.elems);
                if self.tracer.is_on() {
                    self.floods.cycle_ns.push(cycle.ns);
                    self.floods.announce_ns.push(cycle.announce_ns);
                    self.floods.withdraw_ns.push(cycle.withdraw_ns);
                    self.floods.no_convergence += u64::from(cycle.no_convergence);
                }
                self.tally(&[cycle.correct && !cycle.no_convergence]);
                cycle.ns
            }
        };
        Sample { slot, ns }
    }

    /// `archive_write` decodes its *last* iteration back too.
    pub fn final_checks(&mut self) {
        if self.writes > 1 {
            let ok = self.study().written_decodes_back(&self.write_bufs);
            self.tally(&[ok]);
        }
    }

    /// Iterate until `seconds` have passed, in whole units of work and
    /// at least [`MIN_ITERATIONS`] of them.
    pub fn measure(&mut self, workload: Workload, seconds: f64) -> Vec<Sample> {
        let unit = unit_len(workload);
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < MIN_ITERATIONS * unit || start.elapsed().as_secs_f64() < seconds {
            self.tracer.set_iteration((samples.len() / unit) as u32);
            for _ in 0..unit {
                samples.push(self.iterate(workload));
            }
        }
        samples
    }

    /// Like [`measure`](Self::measure), but every other unit runs with
    /// the tracer on; returns the (untraced, traced) samples. Leaves the
    /// tracer on.
    pub fn measure_alternating(
        &mut self,
        workload: Workload,
        seconds: f64,
    ) -> (Vec<Sample>, Vec<Sample>) {
        let unit = unit_len(workload);
        let start = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while traced.len() < MIN_ITERATIONS * unit || start.elapsed().as_secs_f64() < seconds {
            for on in [false, true] {
                self.tracer.set_on(on);
                self.tracer.set_iteration((traced.len() / unit) as u32);
                let samples = if on { &mut traced } else { &mut plain };
                for _ in 0..unit {
                    let sample = self.iterate(workload);
                    samples.push(sample);
                }
            }
        }
        (plain, traced)
    }

    pub fn warm_up(&mut self, workload: Workload) {
        for _ in 0..WARMUP_ITERATIONS * unit_len(workload) {
            self.iterate(workload);
        }
    }
}

pub fn fused_span_name(workload: Workload) -> &'static str {
    match workload {
        Workload::ArchiveScan => "fused.archive_scan",
        Workload::MemoryInfer => "fused.memory_infer",
        Workload::ArchiveWrite => "fused.archive_write",
        Workload::FleetScan => "fused.fleet_scan",
        Workload::LiveReplay => "fused.live_replay",
        Workload::SimFlood => "fused.sim_flood",
    }
}

/// The inputs a run holds; a traced run holds both, because its ledger
/// drives every layer whatever the workload.
struct Inputs {
    study: Option<StudyInput>,
    flood: Option<FloodInput>,
}

impl Inputs {
    fn build(config: &Config) -> Inputs {
        let wants_flood = config.trace || config.workload == Workload::SimFlood;
        let wants_study = config.trace || config.workload != Workload::SimFlood;
        let mut inputs = Inputs {
            study: wants_study.then(|| StudyInput::build(config.seed, config.smoke)),
            flood: wants_flood.then(|| FloodInput::build(config.seed, config.smoke)),
        };
        if config.perturb {
            if let Some(study) = inputs.study.as_mut() {
                study.perturb_reference();
            }
            if let Some(flood) = inputs.flood.as_mut() {
                flood.perturb_reference();
            }
        }
        inputs
    }

    fn info(&self, workload: Workload) -> Info {
        let mut info = Info { nproc: sys::nproc(), ..Info::default() };
        match (workload, &self.study, &self.flood) {
            (Workload::SimFlood, _, Some(flood)) => {
                info.elems = flood.elems_per_rotation();
                info.as_count = flood.as_count();
            }
            (_, Some(study), _) => {
                info.elems = study.elems();
                // `write_updates` frames one record per elem.
                info.records = study.elems();
                info.bytes = study.bytes();
                info.as_count = study.as_count();
            }
            _ => {}
        }
        info
    }
}

fn keep_for(workload: Workload) -> Keep {
    match workload {
        Workload::MemoryInfer => Keep::Decoded,
        Workload::ArchiveWrite => Keep::Scenario,
        _ => Keep::Archives,
    }
}

/// Run `config` to its outcome. Panics only on a broken environment
/// (an input that cannot be built); a wrong output is a failed op.
pub fn run(config: &Config) -> Outcome {
    if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    }
}

fn run_untraced(config: &Config) -> Outcome {
    let workload = config.workload;
    let reps = if config.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut inputs = None;
    for _ in 0..reps {
        drop(inputs.take()); // one input resident at a time
        let t = Instant::now();
        let mut built = Inputs::build(config);
        if let Some(study) = built.study.as_mut() {
            study.keep(keep_for(workload));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut info = inputs.info(workload);

    let peak_reset = sys::reset_peak_rss();
    let mut runner = Runner::new(inputs.study.as_ref(), inputs.flood.as_ref(), Tracer::off());
    runner.warm_up(workload);
    let samples = runner.measure(workload, config.seconds);
    runner.final_checks();
    let peak_rss_mb = sys::peak_rss_mb().filter(|_| peak_reset);

    let unit_ms = unit_ms(&samples, unit_len(workload));
    info.iterations = unit_ms.len() as u64;
    info.unit_ms = [0.0, 10.0, 25.0, 50.0, 90.0].map(|p| stats::percentile(&unit_ms, p));
    let elems_per_s = runner.unit_elems(workload) as f64 / (unit_ns(&samples) / 1e9);
    // No /proc to read the peak from: a failed op, not an invented number.
    let attempted = runner.attempted + 1;
    let failed = runner.failed + u64::from(peak_rss_mb.is_none());
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("elems_per_s", elems_per_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MB"),
    ];
    Outcome { attempted, failed, metrics, info }
}

fn run_traced(config: &Config) -> Outcome {
    let workload = config.workload;
    let inputs = Inputs::build(config);
    let study = inputs.study.as_ref().expect("traced runs build the study");
    let flood = inputs.flood.as_ref().expect("traced runs build the flood input");
    let ledger_input = study.ledger_input();
    let mut info = inputs.info(workload);

    // The same workload at half length, units alternating between spans
    // off and on so both see the same machine state; the ratio of their
    // fast deciles is what tracing costs.
    let cpu0 = sys::process_cpu_s();
    let steal0 = sys::host_steal_s();
    let wall = Instant::now();
    let mut runner = Runner::new(Some(study), Some(flood), Tracer::on());
    runner.tracer.set_on(false);
    runner.warm_up(workload);
    let (plain, traced) = runner.measure_alternating(workload, config.seconds / 2.0);
    runner.final_checks();
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s().zip(cpu0).map(|(a, b)| a - b);
    let steal_s = sys::host_steal_s().zip(steal0).map(|(a, b)| a - b);

    let all: Vec<Sample> = plain.iter().chain(&traced).copied().collect();
    let unit_ms = unit_ms(&all, unit_len(workload));
    let units = unit_ms.len() as f64;
    info.iterations = unit_ms.len() as u64;
    let mut metrics = vec![
        Metric::new("bench.iterations", units, "count"),
        Metric::new("bench.iter_ms_p50", stats::median(&unit_ms), "ms"),
        Metric::new("bench.iter_ms_p90", stats::percentile(&unit_ms, 90.0), "ms"),
        Metric::new(
            "bench.cpu_ns_per_elem",
            cpu_s.map_or(0.0, |s| s * 1e9 / (units * runner.unit_elems(workload) as f64)),
            "ns",
        ),
        Metric::new(
            "bench.steal_share",
            steal_s.map_or(0.0, |s| s / (wall_s * sys::nproc() as f64)),
            "ratio",
        ),
        Metric::new("trace.overhead_share", unit_ns(&traced) / unit_ns(&plain) - 1.0, "ratio"),
    ];

    let ledger = ledger::run(&mut runner, study, flood, &ledger_input, config.seconds / 2.0);
    metrics.extend(ledger.metrics(workload, study, flood, &ledger_input, &runner));

    let file = config.out_dir.join(format!("trace-{}-{}.json", workload.name(), config.seed));
    let written = std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| std::fs::write(&file, runner.tracer.to_json(workload.name(), config.seed)));
    let mut failed = runner.failed;
    if let Err(e) = written {
        eprintln!("bh-benchmark: cannot write {}: {e}", file.display());
        failed += 1;
    }
    Outcome { attempted: runner.attempted, failed, metrics, info }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_time_is_the_fast_decile_or_the_sum_over_slots() {
        let s = |slot, ns| Sample { slot, ns };
        let twenty: Vec<Sample> = (1..=20).rev().map(|i| s(0, 10 * i)).collect();
        assert_eq!(unit_ns(&twenty), 20.0);
        assert_eq!(unit_ns(&[s(0, 30), s(0, 10), s(0, 20)]), 10.0);
        // Two slots of twenty cycles each: fast deciles 20 and 200.
        let rotation: Vec<Sample> = (1..=20).flat_map(|i| [s(0, 10 * i), s(1, 100 * i)]).collect();
        assert_eq!(unit_ns(&rotation), 220.0);
    }
}
