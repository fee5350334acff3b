//! The layer ledger of a traced run.
//!
//! A *round* runs one unit of every workload fused (the six `fused.*`
//! spans) and then every isolation pass — each stage driven alone over
//! the same captured input — so a round's numbers share one machine
//! state. A traced run makes at least [`MIN_ROUNDS`] rounds and reports
//! per-stage medians, whatever `--workload` was: the contract prints
//! every per-layer metric on every workload, and "which layer is slow"
//! does not depend on which loop was timed beside it.
//!
//! `ledger.coverage` is the share of the selected workload's fused time
//! that its isolated stages add up to; outside 0.9–1.1 on the three
//! single-threaded scan/write workloads a stage is unaccounted for (or
//! double-counted) and the run says so on stderr.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{CheckpointPass, FloodInput, LedgerInput, Pass, ReadPass, StudyInput};
use crate::run::{unit_len, unit_ns, Runner, Sample};
use crate::spec::{Metric, Workload};
use crate::stats;

/// Fewest rounds, however small the time budget.
const MIN_ROUNDS: usize = 3;

/// Per-stage samples across rounds: wall ns and units of work.
#[derive(Default)]
pub struct Ledger {
    stages: BTreeMap<&'static str, Vec<Pass>>,
    fused: BTreeMap<&'static str, Vec<f64>>,
    /// Counts that are the same every round (taken from the last one).
    read: ReadPass,
    checkpoint: CheckpointPass,
    fleet_threads: u64,
}

/// Where an isolation span hangs: under the `fused.*` span of the
/// workload whose path contains the stage, or under another stage that
/// contains it, or (`None`) directly under the round.
fn parent_of(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "routing.elem_source"
        | "routing.merge"
        | "core.push"
        | "core.drain"
        | "core.finish"
        | "core.analytics_finalize" => "fused.archive_scan",
        "mrt.read" => "routing.elem_source",
        "bgp-types.attr_decode" => "mrt.read",
        "core.analytics_observe" => "core.drain",
        "routing.update_build" | "mrt.write" => "fused.archive_write",
        "routing.fleet_drain" | "core.shard_ingest" => "fused.fleet_scan",
        "mrt.tail" | "workloads.pump" | "core.checkpoint" => "fused.live_replay",
        _ => return None,
    })
}

/// The stages whose isolated times should add up to one fused unit.
fn stages_of(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::ArchiveScan => &[
            "routing.elem_source",
            "routing.merge",
            "core.push",
            "core.drain",
            "core.finish",
            "core.analytics_finalize",
        ],
        Workload::MemoryInfer => {
            &["core.push", "core.drain", "core.finish", "core.analytics_finalize"]
        }
        Workload::ArchiveWrite => &["routing.update_build", "mrt.write"],
        // Threads overlap, so these two are upper bounds, not budgets.
        Workload::FleetScan => &["routing.fleet_drain", "core.shard_ingest"],
        Workload::LiveReplay => {
            &["mrt.tail", "workloads.pump", "core.push", "core.drain", "core.finish"]
        }
        // Taken from the per-call samples instead; see `metrics`.
        Workload::SimFlood => &[],
    }
}

/// Rounds of fused units and isolation passes until `budget_s` is spent.
pub fn run(
    runner: &mut Runner<'_>,
    study: &StudyInput,
    flood: &FloodInput,
    input: &LedgerInput,
    budget_s: f64,
) -> Ledger {
    let mut ledger = Ledger::default();
    let mut write_bufs = study.write_buffers();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget_s {
        runner.tracer.set_iteration(round as u32);
        let round_span = runner.tracer.open("ledger.round");
        let round_id = runner.tracer.current();
        let mut ids: BTreeMap<&'static str, u32> = BTreeMap::new();

        for workload in Workload::ALL {
            let samples: Vec<Sample> =
                (0..unit_len(workload)).map(|_| runner.iterate(workload)).collect();
            let name = crate::run::fused_span_name(workload);
            ids.insert(name, runner.last_fused_span);
            ledger.fused.entry(name).or_default().push(unit_ns(&samples));
        }

        let (tracer, stages) = (&mut runner.tracer, &mut ledger.stages);
        let mut stage = |name: &'static str, pass: Pass| {
            let parent = parent_of(name).and_then(|p| ids.get(p).copied()).unwrap_or(round_id);
            let end = tracer.now_ns();
            let id = tracer.record(name, parent, end.saturating_sub(pass.ns), end, pass.count);
            ids.insert(name, id);
            stages.entry(name).or_default().push(pass);
        };

        stage("routing.elem_source", study.pass_elem_source());
        let read = study.pass_mrt_read();
        stage("mrt.read", read.pass);
        stage("bgp-types.attr_decode", study.pass_attr_decode(input));
        stage("routing.merge", study.pass_merge());
        let core = study.pass_core();
        stage("core.push", core.push);
        stage("core.drain", core.drain);
        stage("core.finish", Pass { ns: core.finish_ns, count: 1 });
        stage("core.analytics_finalize", Pass { ns: core.finalize_ns, count: 1 });
        stage("core.analytics_observe", study.pass_analytics_observe());
        stage("core.push_miss", study.pass_push_miss(input));
        let checkpoint = study.pass_checkpoint();
        stage("core.checkpoint", Pass { ns: checkpoint.ns, count: 1 });
        stage("core.shard_ingest", study.pass_shard());
        stage("routing.update_build", study.pass_update_build());
        stage("mrt.write", study.pass_mrt_write(input, &mut write_bufs));
        stage("bgp-types.attr_encode", study.pass_attr_encode(input));
        stage("mrt.tail", study.pass_mrt_tail());
        let (fleet_drain, fleet_threads) = study.pass_fleet_drain();
        stage("routing.fleet_drain", fleet_drain);
        stage("workloads.pump", study.pass_pump());
        stage("irr.dictionary_build", study.pass_dictionary_build());
        stage("topology.ranks", flood.pass_ranks());

        (ledger.read, ledger.checkpoint, ledger.fleet_threads) = (read, checkpoint, fleet_threads);
        runner.tracer.close(round_span, 1);
        round += 1;
    }
    ledger
}

fn median_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    stats::median(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

fn percentile_u64(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    stats::percentile(&samples.iter().map(|&n| n as f64).collect::<Vec<_>>(), p)
}

impl Ledger {
    /// Median wall ns of a stage.
    fn ns(&self, stage: &str) -> f64 {
        let passes = &self.stages[stage];
        stats::median(&passes.iter().map(|p| p.ns as f64).collect::<Vec<_>>())
    }

    /// Units of work of a stage (the same every round).
    fn count(&self, stage: &str) -> f64 {
        self.stages[stage].last().map_or(0.0, |p| p.count as f64).max(1.0)
    }

    fn ns_per_unit(&self, stage: &str) -> f64 {
        self.ns(stage) / self.count(stage)
    }

    fn fused_ns(&self, workload: Workload) -> f64 {
        stats::median(&self.fused[crate::run::fused_span_name(workload)])
    }

    /// Every per-layer metric. `workload` only selects whose coverage is
    /// reported (and checked).
    pub fn metrics(
        &self,
        workload: Workload,
        study: &StudyInput,
        flood: &FloodInput,
        input: &LedgerInput,
        runner: &Runner<'_>,
    ) -> Vec<Metric> {
        let elems = study.elems() as f64;
        let m = Metric::new;
        let mb_per_s = |stage: &str| self.read.bytes as f64 / 1e6 / (self.ns(stage) / 1e9);
        let (hits, misses) = (self.read.cache_hits as f64, self.read.cache_misses as f64);

        let covered: f64 = stages_of(workload).iter().map(|stage| self.ns(stage)).sum();
        let coverage = if workload == Workload::SimFlood {
            // The two calls against the whole cycle, over every traced
            // cycle; the rest is `drain_elems`.
            let calls: u64 =
                runner.floods.announce_ns.iter().chain(&runner.floods.withdraw_ns).sum();
            calls as f64 / runner.floods.cycle_ns.iter().sum::<u64>().max(1) as f64
        } else {
            covered / self.fused_ns(workload)
        };
        let must_cover = matches!(
            workload,
            Workload::ArchiveScan | Workload::MemoryInfer | Workload::ArchiveWrite
        );
        if must_cover && !(0.9..=1.1).contains(&coverage) {
            eprintln!(
                "bh-benchmark: ledger.coverage {coverage:.3} on {}: stages {:?} sum to {:.2} ms of a {:.2} ms iteration — a stage is unaccounted for",
                workload.name(),
                stages_of(workload),
                covered / 1e6,
                self.fused_ns(workload) / 1e6
            );
        }

        let live = &runner.live;
        let tick_ns: Vec<u64> = live.ticks.iter().map(|t| t.ns).collect();
        let idle_ns: Vec<u64> =
            live.ticks.iter().filter(|t| t.ingested == 0).map(|t| t.ns).collect();
        let checkpoint_ns: Vec<u64> =
            live.ticks.iter().filter(|t| t.checkpointed).map(|t| t.ns).collect();
        let (busy_ns, busy_elems) = live
            .ticks
            .iter()
            .filter(|t| t.ingested > 0 && !t.checkpointed)
            .fold((0u64, 0u64), |(ns, n), t| (ns + t.ns, n + t.ingested));
        let floods = &runner.floods;
        vec![
            m("bgp-types.attr_decode_ns", self.ns_per_unit("bgp-types.attr_decode"), "ns"),
            m("bgp-types.attr_cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
            m("bgp-types.attr_encode_ns", self.ns_per_unit("bgp-types.attr_encode"), "ns"),
            m("mrt.read_ns_per_record", self.ns_per_unit("mrt.read"), "ns"),
            m("mrt.read_mb_per_s", mb_per_s("mrt.read"), "MB/s"),
            m("mrt.tail_ns_per_record", self.ns_per_unit("mrt.tail"), "ns"),
            m("mrt.write_ns_per_record", self.ns_per_unit("mrt.write"), "ns"),
            m("mrt.write_mb_per_s", mb_per_s("mrt.write"), "MB/s"),
            m("mrt.records", self.count("mrt.read"), "count"),
            m("mrt.bytes", self.read.bytes as f64, "count"),
            m("mrt.records_skipped", self.read.skipped as f64, "count"),
            m("routing.elem_source_ns_per_elem", self.ns_per_unit("routing.elem_source"), "ns"),
            m(
                "routing.elem_build_self_ns_per_elem",
                (self.ns("routing.elem_source") - self.ns("mrt.read")) / elems,
                "ns",
            ),
            m("routing.merge_ns_per_elem", self.ns_per_unit("routing.merge"), "ns"),
            m("routing.update_build_ns_per_elem", self.ns_per_unit("routing.update_build"), "ns"),
            m(
                "routing.write_updates_self_ns_per_elem",
                (self.fused_ns(Workload::ArchiveWrite) - self.ns("mrt.write")) / elems,
                "ns",
            ),
            m("routing.fleet_drain_ns_per_elem", self.ns_per_unit("routing.fleet_drain"), "ns"),
            m("routing.fleet_threads", self.fleet_threads as f64, "count"),
            m("routing.flood_p50_ms", median_u64(&floods.cycle_ns) / 1e6, "ms"),
            m("routing.announce_p50_ms", median_u64(&floods.announce_ns) / 1e6, "ms"),
            m("routing.withdraw_p50_ms", median_u64(&floods.withdraw_ns) / 1e6, "ms"),
            m(
                "routing.elems_per_flood",
                flood.elems_per_rotation() as f64 / crate::adapter::FLOOD_ORIGINS as f64,
                "count",
            ),
            m("routing.no_convergence", floods.no_convergence as f64, "count"),
            m("routing.deploy_ms", flood.deploy_ms, "ms"),
            m("core.push_ns_per_elem", self.ns_per_unit("core.push"), "ns"),
            m("core.push_miss_ns_per_elem", self.ns_per_unit("core.push_miss"), "ns"),
            m("core.memo_key_reuse_ratio", input.memo_key_reuse_ratio, "ratio"),
            m("core.drain_ns_per_event", self.ns_per_unit("core.drain"), "ns"),
            m("core.finish_ms", self.ns("core.finish") / 1e6, "ms"),
            m(
                "core.analytics_observe_ns_per_event",
                self.ns_per_unit("core.analytics_observe"),
                "ns",
            ),
            m("core.analytics_finalize_ms", self.ns("core.analytics_finalize") / 1e6, "ms"),
            m("core.checkpoint_ms", self.ns("core.checkpoint") / 1e6, "ms"),
            m("core.open_events_mid", self.checkpoint.open_events as f64, "count"),
            m("core.interned_paths", self.checkpoint.interned_paths as f64, "count"),
            m(
                "core.interned_community_sets",
                self.checkpoint.interned_community_sets as f64,
                "count",
            ),
            m("core.shard_ingest_ns_per_elem", self.ns_per_unit("core.shard_ingest"), "ns"),
            m(
                "core.shard_speedup",
                self.fused_ns(Workload::MemoryInfer) / self.ns("core.shard_ingest"),
                "ratio",
            ),
            m("core.events", study.events() as f64, "count"),
            m("core.tagged_share", study.tagged_share(), "ratio"),
            m("live.tick_p99_us", percentile_u64(&tick_ns, 99.0) / 1e3, "us"),
            m("live.report_p50_us", median_u64(&live.report_ns) / 1e3, "us"),
            m("live.report_p99_us", percentile_u64(&live.report_ns, 99.0) / 1e3, "us"),
            m("live.step_ns_per_elem", busy_ns as f64 / busy_elems.max(1) as f64, "ns"),
            m("live.idle_step_p50_us", median_u64(&idle_ns) / 1e3, "us"),
            m("live.checkpoint_step_p50_ms", median_u64(&checkpoint_ns) / 1e6, "ms"),
            m("live.status_p50_us", median_u64(&live.status_ns) / 1e3, "us"),
            m("live.events_since_p50_us", median_u64(&live.events_since_ns) / 1e3, "us"),
            m("live.ticks", live.ticks.len() as f64 / live.replays.max(1) as f64, "count"),
            m("live.max_emission_latency_s", live.max_emission_latency_s as f64, "s"),
            m(
                "live.overhead_x",
                self.fused_ns(Workload::LiveReplay) / self.fused_ns(Workload::MemoryInfer),
                "ratio",
            ),
            m("workloads.pump_ns_per_record", self.ns_per_unit("workloads.pump"), "ns"),
            m("workloads.scenario_s", study.setup.scenario_s, "s"),
            m("workloads.archives_s", study.setup.archives_s, "s"),
            m("topology.build_ms", flood.build_ms, "ms"),
            m("topology.ranks_ms", self.ns("topology.ranks") / 1e6, "ms"),
            m("topology.as_count", flood.as_count() as f64, "count"),
            m("irr.dictionary_build_ms", self.ns("irr.dictionary_build") / 1e6, "ms"),
            m("bench.elems", elems, "count"),
            m("ledger.coverage", coverage, "ratio"),
        ]
    }
}
