//! The one place this crate touches `crates/*`.
//!
//! Every workload iteration, isolation pass, input builder and output
//! check that names an item of the `bh_*` crates lives here; the rest of
//! the benchmark sees only the types of this module. The signatures this
//! file relies on are listed in `benchmark/README.md` — a refactor that
//! changes one of them lands a `benchmark` change first, so a PR that
//! claims a gain never edits the code that measures it.
//!
//! Timing is from outside: an `Instant` pair around a call into a layer,
//! one pair per *loop* for per-elem calls (see `trace.rs` for why).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_bgp_types::update::BgpUpdate;
use bh_bgp_types::wire::{decode_attributes, encode_attributes};
use bh_core::{
    AnalyticsConfig, AnalyticsReport, BlackholeEvent, EngineStats, EventAccumulator, ReferenceData,
    StreamSummary,
};
use bh_irr::BlackholeDictionary;
use bh_live::{handle_command, LiveFleetConfig, LiveNode};
use bh_mrt::{MrtBytesReader, MrtWriter, TailingReader};
use bh_routing::{
    deploy, merge_streams, read_updates, split_by_collector, write_updates, Announcement, BgpElem,
    BgpSimulator, CollectorConfig, CollectorDeployment, ElemSource, ElemType, MergedSource,
    MrtElemSource, SliceSource,
};
use bh_topology::{Tier, Topology, TopologyBuilder, TopologyConfig};
use bh_workloads::{capable_providers, fleet_of, CollectorArchive, ReplayFeed};
use bytes::Bytes;

use crate::trace::Tracer;

/// The world every run observes: the topology, collector deployment and
/// attack calendar of `Study::build(Small, 42)` — the input every
/// `BENCH_<n>` pipeline row used — and the flood topology and origins.
/// `--seed` picks what a run *sees* of that world (which feeds its
/// archives miss, which sub-prefixes the floods announce), not the world:
/// a 6-day calendar holds ~36 attacks, so reseeding it moves the per-elem
/// cost by 8–17 % (README, "Seeds"), more than any bound could absorb.
const WORLD_SEED: u64 = 42;
/// One in this many (peer, prefix) feeds is missing from a seed's
/// archives, whole: each peer's view of a prefix is complete or absent.
const FEED_LOSS: u64 = 16;

/// AS count of the `sim_flood` topology. Fixed once, so that the median
/// announce+withdraw cycle takes 50–150 ms on the recording box (58 ms;
/// 28 ms at 4000, 44 ms at 6000); never tuned again (a different N is a
/// different workload).
pub const FLOOD_AS_COUNT: usize = 7000;
/// `--smoke` AS count (`massive_scaled` floors it at 500).
const SMOKE_FLOOD_AS_COUNT: usize = 300;
/// Stub origins in the `sim_flood` rotation.
pub const FLOOD_ORIGINS: usize = 8;
/// Scenario shape of the study input: days and attacks per day.
const STUDY_DAYS: u64 = 6;
const SMOKE_DAYS: u64 = 2;
const ATTACKS_PER_DAY: f64 = 6.0;
/// Elements between `drain_closed_into` calls in the scan loops.
const DRAIN_EVERY: u64 = 4096;
/// Shards of the `fleet_scan` session.
const FLEET_SHARDS: usize = 2;
/// `live_replay`: one tick is one minute of archive time; the client
/// polls `events-since` every 32 ticks and `report` every 128.
const LIVE_QUANTUM: SimDuration = SimDuration::mins(1);
const EVENTS_POLL_TICKS: u64 = 32;
const REPORT_POLL_TICKS: u64 = 128;

/// Wall time of one call (or one loop of calls) and the units of work
/// it covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    pub ns: u64,
    pub count: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Is the (peer, prefix) feed of `elem` among those `seed` kept?
fn feed_present(seed: u64, elem: &BgpElem) -> bool {
    let mut h = DefaultHasher::new();
    (seed, elem.dataset, elem.collector, elem.peer_asn, elem.peer_ip, elem.prefix).hash(&mut h);
    !h.finish().is_multiple_of(FEED_LOSS)
}

// ---------------------------------------------------------------------------
// Study input: everything but `sim_flood` reads it
// ---------------------------------------------------------------------------

/// What a scan workload hands back for checking.
pub struct ScanOutput {
    stats: EngineStats,
    report: AnalyticsReport,
}

impl ScanOutput {
    fn of((summary, report): (StreamSummary, AnalyticsReport)) -> Self {
        ScanOutput { stats: summary.stats, report }
    }
}

/// Wall-clock shares of one set-up, for the `setup_s` rows of the ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudySetup {
    pub scenario_s: f64,
    pub archives_s: f64,
}

/// Which parts of the input a workload reads; the rest is dropped before
/// the measured phase so `peak_rss_mb` is the workload's, not the union's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// MRT archives only (`archive_scan`, `fleet_scan`, `live_replay`).
    Archives,
    /// Decoded merged stream only (`memory_infer`).
    Decoded,
    /// Per-collector scenario elems plus archives (`archive_write`).
    Scenario,
    /// Everything (traced runs: the ledger drives every stage).
    All,
}

/// One seed's study: topology, dictionary, collector stream, archives,
/// and the reference every scan workload is checked against.
pub struct StudyInput {
    study: Study,
    refdata: Arc<ReferenceData>,
    analytics: AnalyticsConfig,
    /// One archive per (dataset, collector), `split_by_collector` order.
    archives: Vec<CollectorArchive>,
    /// The scenario's elems per collector, parallel to `archives`.
    scenario: Vec<Vec<BgpElem>>,
    /// The archives decoded and merged: the stream a scan yields.
    decoded: Vec<BgpElem>,
    start: SimTime,
    reference: ScanOutput,
    /// What `archive_write` must produce: the archives' bytes (shared,
    /// not copied).
    reference_bytes: Vec<Bytes>,
    reference_events: Vec<BlackholeEvent>,
    elems: u64,
    bytes: u64,
    pub setup: StudySetup,
}

impl StudyInput {
    /// Build the input for `seed`. The reference is computed here by the
    /// batch path — materialized `merge_streams` order, one `ingest`,
    /// `finish` into an event `Vec`, `observe_result` — which shares no
    /// loop with the streaming/draining paths the workloads time.
    pub fn build(seed: u64, smoke: bool) -> Self {
        let (scale, days) =
            if smoke { (StudyScale::Tiny, SMOKE_DAYS) } else { (StudyScale::Small, STUDY_DAYS) };
        let study = Study::build(scale, WORLD_SEED);
        let t = Instant::now();
        let StudyRun { mut output, refdata, analytics, .. } =
            study.visibility_run(days, ATTACKS_PER_DAY);
        output.elems.retain(|e| feed_present(seed, e));
        let scenario_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let archives = output.fleet_archives().expect("scenario elems serialize");
        let archives_s = t.elapsed().as_secs_f64();
        let scenario: Vec<Vec<BgpElem>> = split_by_collector(&output.elems).into_values().collect();
        assert_eq!(scenario.len(), archives.len(), "one archive per collector bucket");
        drop(output);

        let streams: Vec<Vec<BgpElem>> = archives
            .iter()
            .map(|a| read_updates(&a.bytes[..], a.dataset, a.collector).expect("archive decodes"))
            .collect();
        let decoded = merge_streams(streams);
        let start = decoded.first().map_or(SimTime::ZERO, |e| e.time);

        let result = study.infer(&refdata, &decoded);
        let mut pipeline = study.analytics_pipeline(&refdata, analytics);
        pipeline.observe_result(&result);
        let reference = ScanOutput { stats: result.stats, report: pipeline.finalize() };

        StudyInput {
            elems: decoded.len() as u64,
            bytes: archives.iter().map(|a| a.bytes.len() as u64).sum(),
            reference_bytes: archives.iter().map(|a| a.bytes.clone()).collect(),
            study,
            refdata,
            analytics,
            archives,
            scenario,
            decoded,
            start,
            reference,
            reference_events: result.events,
            setup: StudySetup { scenario_s, archives_s },
        }
    }

    /// Drop what the workload does not read.
    pub fn keep(&mut self, keep: Keep) {
        if !matches!(keep, Keep::Decoded | Keep::All) {
            self.decoded = Vec::new();
        }
        if !matches!(keep, Keep::Scenario | Keep::All) {
            self.scenario = Vec::new();
        }
        if keep == Keep::Decoded {
            self.archives = Vec::new();
        }
        if keep != Keep::All {
            self.reference_events = Vec::new();
        }
    }

    pub fn elems(&self) -> u64 {
        self.elems
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn as_count(&self) -> u64 {
        self.study.topology.as_count() as u64
    }

    pub fn events(&self) -> u64 {
        self.reference.report.durations.len() as u64
    }

    pub fn tagged_share(&self) -> f64 {
        self.reference.stats.tagged_announcements as f64 / self.elems.max(1) as f64
    }

    /// Does `out` equal the reference (session counters and every table
    /// and figure of the report)?
    pub fn agrees(&self, out: &ScanOutput) -> bool {
        out.stats == self.reference.stats && out.report == self.reference.report
    }

    /// Fault injection for the liveness test of the checks: shift one
    /// reference counter and flip one reference byte, so no correct
    /// output can agree any more.
    pub fn perturb_reference(&mut self) {
        self.reference.stats.elems += 1;
        if let Some(bytes) = self.reference_bytes.iter_mut().find(|b| !b.is_empty()) {
            let mut copy = bytes.to_vec();
            copy[0] ^= 1;
            *bytes = Bytes::from(copy);
        }
    }

    fn session(&self) -> bh_core::SessionBuilder {
        self.study.session(&self.refdata)
    }

    fn pipeline(&self) -> bh_core::AnalyticsPipeline {
        self.study.analytics_pipeline(&self.refdata, self.analytics)
    }

    fn archive_sources(&self) -> Vec<MrtElemSource<MrtBytesReader>> {
        self.archives
            .iter()
            .map(|a| MrtElemSource::from_bytes(a.bytes.clone(), a.dataset, a.collector))
            .collect()
    }

    /// The push / drain-every-4096 / finish / finalize loop shared by
    /// `archive_scan` and `memory_infer`.
    fn scan<S: ElemSource>(&self, source: &mut S, tr: &mut Tracer) -> ScanOutput {
        let mut session = self.session().build();
        let mut pipeline = self.pipeline();
        let mut n = 0u64;
        while let Some(elem) = source.next_elem() {
            session.push(elem);
            n += 1;
            if n.is_multiple_of(DRAIN_EVERY) {
                let t = tr.now_ns();
                let events = session.drain_closed_into(&mut pipeline);
                tr.leaf("InferenceSession::drain_closed_into", t, events as u64);
            }
        }
        let t = tr.now_ns();
        let summary = session.finish_with(&mut pipeline);
        tr.leaf("InferenceSession::finish_with", t, 1);
        let t = tr.now_ns();
        let report = pipeline.finalize();
        tr.leaf("AnalyticsPipeline::finalize", t, 1);
        ScanOutput::of((summary, report))
    }

    /// `archive_scan`: archives → `MrtElemSource::from_bytes` →
    /// `MergedSource` → one session with inline analytics. The flag says
    /// every archive decoded to clean EOF.
    pub fn archive_scan(&self, tr: &mut Tracer) -> (u64, ScanOutput, bool) {
        let t = Instant::now();
        let mut merged = MergedSource::new(self.archive_sources());
        let out = self.scan(&mut merged, tr);
        let clean = merged.into_sources().iter().all(|s| s.error().is_none());
        (ns_since(t), out, clean)
    }

    /// `memory_infer`: the same stream already decoded.
    pub fn memory_infer(&self, tr: &mut Tracer) -> (u64, ScanOutput) {
        let t = Instant::now();
        let out = self.scan(&mut SliceSource::new(&self.decoded), tr);
        (ns_since(t), out)
    }

    /// Buffers for [`archive_write`](Self::archive_write), pre-sized to
    /// the archive each will hold.
    pub fn write_buffers(&self) -> Vec<Vec<u8>> {
        self.archives.iter().map(|a| Vec::with_capacity(a.bytes.len())).collect()
    }

    /// `archive_write`: `write_updates` of every collector's elems.
    pub fn archive_write(&self, bufs: &mut [Vec<u8>], tr: &mut Tracer) -> u64 {
        bufs.iter_mut().for_each(Vec::clear);
        let t = Instant::now();
        for (buf, elems) in bufs.iter_mut().zip(&self.scenario) {
            let t = tr.now_ns();
            let records = write_updates(&mut *buf, elems).expect("writing to a Vec cannot fail");
            tr.leaf("write_updates", t, records);
        }
        ns_since(t)
    }

    /// Are the written bytes the set-up archives, byte for byte?
    pub fn written_matches(&self, bufs: &[Vec<u8>]) -> bool {
        bufs.len() == self.reference_bytes.len()
            && bufs.iter().zip(&self.reference_bytes).all(|(buf, bytes)| buf[..] == bytes[..])
    }

    /// Decode the written bytes back and compare them with the elems
    /// they were written from (everything but NEXT_HOP, which MRT
    /// normalizes from absent to the peer address).
    pub fn written_decodes_back(&self, bufs: &[Vec<u8>]) -> bool {
        bufs.iter().zip(&self.archives).zip(&self.scenario).all(|((buf, a), elems)| {
            match read_updates(&buf[..], a.dataset, a.collector) {
                Ok(back) => {
                    back.len() == elems.len()
                        && back.iter().zip(elems).all(|(x, y)| same_observation(x, y))
                }
                Err(_) => false,
            }
        })
    }

    /// `fleet_scan`: one reader thread per archive → k-way merge → a
    /// two-shard session, each shard with its own analytics pipeline.
    /// The flag is `FleetReport::is_clean()`.
    pub fn fleet_scan(&self, tr: &mut Tracer) -> (u64, ScanOutput, bool) {
        let t = Instant::now();
        let mut stream = fleet_of(&self.archives).start();
        let mut session = self.session().build_sharded_with(FLEET_SHARDS, self.pipeline());
        let s = tr.now_ns();
        let n = session.ingest(&mut stream);
        tr.leaf("ShardedSession::ingest", s, n);
        let s = tr.now_ns();
        let (summary, merged) = session.finish_parts();
        tr.leaf("ShardedSession::finish_parts", s, 1);
        let s = tr.now_ns();
        let report = merged.finalize();
        tr.leaf("AnalyticsPipeline::finalize", s, 1);
        let clean = stream.finish().is_clean();
        (ns_since(t), ScanOutput::of((summary, report)), clean)
    }

    /// `live_replay`: boot the node (untimed), tick to completion with
    /// the client's polls interleaved, finish. With the tracer on, every
    /// tick and query is also sampled into `samples`.
    pub fn live_replay(&self, tr: &mut Tracer, samples: &mut LiveSamples) -> LiveOutput {
        let config = LiveFleetConfig::default();
        let mut node = LiveNode::boot(
            self.session(),
            self.pipeline(),
            &self.archives,
            self.start,
            LIVE_QUANTUM,
            config,
        );
        let query = node.query();
        let sampling = tr.is_on();
        let mut client = LiveClient::default();
        let mut ticks = 0u64;
        let mut checkpoints = 0u64;

        let t = Instant::now();
        while !node.done() {
            let s = tr.now_ns();
            let ingested = node.tick();
            let ns = tr.leaf("LiveNode::tick", s, ingested);
            ticks += 1;
            if sampling {
                let now = query.status().checkpoints;
                samples.ticks.push(TickSample { ns, ingested, checkpointed: now != checkpoints });
                checkpoints = now;
            }
            if ticks.is_multiple_of(EVENTS_POLL_TICKS) {
                let s = tr.now_ns();
                let reply = handle_command(&query, &format!("events-since {}", client.next_seq));
                let ns = tr.leaf("handle_command(events-since)", s, 1);
                client.take_events(&reply);
                if sampling {
                    samples.events_since_ns.push(ns);
                }
            }
            if ticks.is_multiple_of(REPORT_POLL_TICKS) {
                let s = tr.now_ns();
                let reply = handle_command(&query, "report");
                let ns = tr.leaf("handle_command(report)", s, 1);
                client.take_report(&reply);
                if sampling {
                    samples.report_ns.push(ns);
                }
            }
        }
        let s = tr.now_ns();
        let out = ScanOutput::of(node.finish());
        tr.leaf("LiveNode::finish", s, 1);
        let ns = ns_since(t);

        // Untimed: collect the tail of the event stream and the final
        // status over the same wire the client used mid-stream.
        client.take_events(&handle_command(&query, &format!("events-since {}", client.next_seq)));
        let status = query.status();
        if sampling {
            samples.replays += 1;
            for _ in 0..STATUS_SAMPLES {
                let t = Instant::now();
                std::hint::black_box(handle_command(&query, "status"));
                samples.status_ns.push(ns_since(t));
            }
            samples.max_emission_latency_s =
                samples.max_emission_latency_s.max(status.max_latency_seen.as_secs());
        }
        LiveOutput {
            ns,
            out,
            ticks,
            queries: client.queries,
            bad_replies: client.bad_replies,
            seqs_contiguous: client.contiguous && client.next_seq == status.events_emitted,
            latency_bounded: status.max_latency_seen <= config.max_latency,
        }
    }
}

/// Everything of an observation the inference reads (all but NEXT_HOP).
fn same_observation(a: &BgpElem, b: &BgpElem) -> bool {
    a.time == b.time
        && a.dataset == b.dataset
        && a.collector == b.collector
        && a.peer_asn == b.peer_asn
        && a.peer_ip == b.peer_ip
        && a.elem_type == b.elem_type
        && a.prefix == b.prefix
        && a.as_path == b.as_path
        && a.communities == b.communities
}

// ---------------------------------------------------------------------------
// live_replay: the client side and its samples
// ---------------------------------------------------------------------------

/// `status` commands sampled after each traced replay.
const STATUS_SAMPLES: usize = 200;

#[derive(Debug, Clone, Copy)]
pub struct TickSample {
    pub ns: u64,
    pub ingested: u64,
    pub checkpointed: bool,
}

/// Per-call samples of every traced `live_replay` of a run.
#[derive(Debug, Default)]
pub struct LiveSamples {
    pub ticks: Vec<TickSample>,
    pub events_since_ns: Vec<u64>,
    pub report_ns: Vec<u64>,
    pub status_ns: Vec<u64>,
    pub max_emission_latency_s: u64,
    /// Replays sampled.
    pub replays: u64,
}

pub struct LiveOutput {
    /// Wall time from the first tick to the end of `finish`.
    pub ns: u64,
    pub out: ScanOutput,
    pub ticks: u64,
    pub queries: u64,
    /// Replies that were neither `ok …` nor the `err no-report-yet` a
    /// `report` gets before the first checkpoint.
    pub bad_replies: u64,
    /// Did `events-since` hand out 0, 1, 2, … up to the last event?
    pub seqs_contiguous: bool,
    /// `max_latency_seen ≤ max_latency`.
    pub latency_bounded: bool,
}

/// What the polling client remembers between commands.
struct LiveClient {
    next_seq: u64,
    contiguous: bool,
    queries: u64,
    bad_replies: u64,
}

impl Default for LiveClient {
    fn default() -> Self {
        LiveClient { next_seq: 0, contiguous: true, queries: 0, bad_replies: 0 }
    }
}

impl LiveClient {
    fn take_events(&mut self, reply: &str) {
        self.queries += 1;
        let mut lines = reply.lines();
        if !lines.next().is_some_and(|first| first.starts_with("ok events ")) {
            self.bad_replies += 1;
            return;
        }
        for line in lines {
            let seq = line
                .strip_prefix("event seq=")
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse::<u64>().ok());
            self.contiguous &= seq == Some(self.next_seq);
            self.next_seq += 1;
        }
    }

    fn take_report(&mut self, reply: &str) {
        self.queries += 1;
        if !(reply.starts_with("ok report ") || reply == "err no-report-yet") {
            self.bad_replies += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Isolation passes over the study input (traced runs only)
// ---------------------------------------------------------------------------

/// One update record as `write_updates` frames it.
struct PreparedUpdate {
    time: SimTime,
    peer_asn: Asn,
    peer_ip: IpAddr,
    update: BgpUpdate,
}

/// Inputs of the isolation passes that are derived from the study input
/// once, outside any timed region.
pub struct LedgerInput {
    /// Per collector, the updates `write_updates` would frame.
    updates: Vec<Vec<PreparedUpdate>>,
    /// The distinct attribute sets of the stream and their wire blocks.
    attr_sets: Vec<PathAttributes>,
    attr_blocks: Vec<Bytes>,
    /// The first elem of each (communities, path, peer) key: every
    /// detection over this sub-stream is a memo miss.
    miss_elems: Vec<BgpElem>,
    pub memo_key_reuse_ratio: f64,
}

/// The collector side of every synthetic session, as `write_updates`
/// writes it.
fn local_side() -> (Asn, IpAddr) {
    (Asn::new(64_512), "192.0.2.254".parse().expect("static address"))
}

/// The elem → update step of `write_updates`, transcribed: the product
/// function fuses it with framing, so the only way to time framing alone
/// is to build the updates first.
fn update_of(elem: &BgpElem) -> BgpUpdate {
    match elem.elem_type {
        ElemType::Announce => {
            let attrs = PathAttributes {
                as_path: elem.as_path.clone(),
                next_hop: Some(elem.next_hop.unwrap_or(elem.peer_ip)),
                communities: elem.communities.clone(),
                ..Default::default()
            };
            let mut update = BgpUpdate::new(attrs);
            update.announce_v4(elem.prefix);
            update
        }
        ElemType::Withdraw => BgpUpdate::withdraw(elem.prefix.into()),
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ReadPass {
    pub pass: Pass,
    pub bytes: u64,
    pub skipped: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CorePass {
    pub push: Pass,
    pub drain: Pass,
    pub finish_ns: u64,
    pub finalize_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPass {
    pub ns: u64,
    pub open_events: u64,
    pub interned_paths: u64,
    pub interned_community_sets: u64,
}

impl StudyInput {
    /// Derive the isolation-pass inputs; also returns the wall time of
    /// the update-building loop (`routing.update_build`).
    pub fn ledger_input(&self) -> LedgerInput {
        let updates: Vec<Vec<PreparedUpdate>> =
            self.scenario.iter().map(|elems| Self::prepare_updates(elems)).collect();
        // The memoized content hash inside paths and community sets is the
        // only interior mutability, and it never changes `Hash`/`Eq`.
        #[allow(clippy::mutable_key_type)]
        let mut seen_attrs = HashSet::new();
        let mut attr_sets = Vec::new();
        for prepared in updates.iter().flatten().filter(|p| p.update.has_announcements()) {
            if seen_attrs.insert(&prepared.update.attrs) {
                attr_sets.push(prepared.update.attrs.clone());
            }
        }
        let attr_blocks = attr_sets.iter().map(|a| encode_attributes(a).freeze()).collect();

        #[allow(clippy::mutable_key_type)]
        let mut seen_keys = HashSet::new();
        let miss_elems: Vec<BgpElem> = self
            .decoded
            .iter()
            .filter(|e| seen_keys.insert((&e.communities, &e.as_path, e.peer_ip, e.peer_asn)))
            .cloned()
            .collect();
        let memo_key_reuse_ratio = 1.0 - miss_elems.len() as f64 / self.elems.max(1) as f64;
        LedgerInput { updates, attr_sets, attr_blocks, miss_elems, memo_key_reuse_ratio }
    }

    fn prepare_updates(elems: &[BgpElem]) -> Vec<PreparedUpdate> {
        elems
            .iter()
            .map(|e| PreparedUpdate {
                time: e.time,
                peer_asn: e.peer_asn,
                peer_ip: e.peer_ip,
                update: update_of(e),
            })
            .collect()
    }

    /// `routing.update_build`: the elem → update step alone.
    pub fn pass_update_build(&self) -> Pass {
        let t = Instant::now();
        let mut count = 0u64;
        for elems in &self.scenario {
            count += std::hint::black_box(Self::prepare_updates(elems)).len() as u64;
        }
        Pass { ns: ns_since(t), count }
    }

    /// `mrt.read`: `MrtBytesReader::next_message` drained alone.
    pub fn pass_mrt_read(&self) -> ReadPass {
        let mut out = ReadPass::default();
        let t = Instant::now();
        for a in &self.archives {
            let mut reader = MrtBytesReader::new(a.bytes.clone());
            while let Some(message) = reader.next_message().expect("archive decodes") {
                std::hint::black_box(message);
            }
            out.pass.count += reader.records_read();
            out.skipped += reader.records_skipped();
            out.cache_hits += reader.attr_cache().hits();
            out.cache_misses += reader.attr_cache().misses();
        }
        out.pass.ns = ns_since(t);
        out.bytes = self.bytes;
        out
    }

    /// `mrt.tail`: `TailingReader::extend` in 64 KiB chunks, draining
    /// `try_next_record` after each.
    pub fn pass_mrt_tail(&self) -> Pass {
        let t = Instant::now();
        let mut count = 0u64;
        for a in &self.archives {
            let mut reader = TailingReader::new();
            for chunk in a.bytes.chunks(64 << 10) {
                reader.extend(chunk);
                while let Some(record) = reader.try_next_record().expect("archive decodes") {
                    std::hint::black_box(record);
                    count += 1;
                }
            }
        }
        Pass { ns: ns_since(t), count }
    }

    /// `mrt.write`: `MrtWriter::write_update` over pre-built updates.
    pub fn pass_mrt_write(&self, ledger: &LedgerInput, bufs: &mut [Vec<u8>]) -> Pass {
        bufs.iter_mut().for_each(Vec::clear);
        let (local_asn, local_ip) = local_side();
        let t = Instant::now();
        let mut count = 0u64;
        for (buf, updates) in bufs.iter_mut().zip(&ledger.updates) {
            let mut writer = MrtWriter::new(&mut *buf);
            for u in updates {
                writer
                    .write_update(u.time, u.peer_asn, u.peer_ip, local_asn, local_ip, &u.update)
                    .expect("writing to a Vec cannot fail");
            }
            count += writer.records_written();
        }
        let ns = ns_since(t);
        assert!(self.written_matches(bufs), "isolated mrt.write diverged from write_updates");
        Pass { ns, count }
    }

    /// `bgp-types.attr_decode`: `decode_attributes` over each distinct
    /// attribute block once (the cache-miss path).
    pub fn pass_attr_decode(&self, ledger: &LedgerInput) -> Pass {
        let t = Instant::now();
        for block in &ledger.attr_blocks {
            std::hint::black_box(decode_attributes(block.clone()).expect("own encoding decodes"));
        }
        Pass { ns: ns_since(t), count: ledger.attr_blocks.len() as u64 }
    }

    /// `bgp-types.attr_encode`: `encode_attributes` over each distinct
    /// attribute set.
    pub fn pass_attr_encode(&self, ledger: &LedgerInput) -> Pass {
        let t = Instant::now();
        for attrs in &ledger.attr_sets {
            std::hint::black_box(encode_attributes(attrs));
        }
        Pass { ns: ns_since(t), count: ledger.attr_sets.len() as u64 }
    }

    /// `routing.elem_source`: `MrtElemSource::next_elem` drained alone.
    pub fn pass_elem_source(&self) -> Pass {
        let t = Instant::now();
        let mut count = 0u64;
        for mut source in self.archive_sources() {
            while let Some(elem) = source.next_elem() {
                std::hint::black_box(elem);
                count += 1;
            }
        }
        Pass { ns: ns_since(t), count }
    }

    /// `routing.merge`: `MergedSource` over pre-decoded `SliceSource`s.
    pub fn pass_merge(&self) -> Pass {
        let t = Instant::now();
        let mut merged =
            MergedSource::new(self.scenario.iter().map(|s| SliceSource::new(s)).collect());
        let mut count = 0u64;
        while let Some(elem) = merged.next_elem() {
            std::hint::black_box(elem);
            count += 1;
        }
        Pass { ns: ns_since(t), count }
    }

    /// `routing.fleet_drain`: reader threads and channel hops with no
    /// consumer work. Also returns the reader-thread count.
    pub fn pass_fleet_drain(&self) -> (Pass, u64) {
        let t = Instant::now();
        let mut stream = fleet_of(&self.archives).start();
        let mut count = 0u64;
        while let Some(elem) = stream.next_elem() {
            std::hint::black_box(elem);
            count += 1;
        }
        let report = stream.finish();
        (Pass { ns: ns_since(t), count }, report.archives.len() as u64)
    }

    /// `core.push` / `core.drain` / `core.finish` /
    /// `core.analytics_finalize`: the fused scan loop with a timer at
    /// every drain boundary (one pair per 4096 elems, not per elem), so
    /// push and drain are summed apart.
    pub fn pass_core(&self) -> CorePass {
        let mut session = self.session().build();
        let mut pipeline = self.pipeline();
        let (mut push, mut drain) = (Pass::default(), Pass::default());
        for chunk in self.decoded.chunks(DRAIN_EVERY as usize) {
            let t = Instant::now();
            for elem in chunk {
                session.push(elem);
            }
            push.ns += ns_since(t);
            if chunk.len() == DRAIN_EVERY as usize {
                let t = Instant::now();
                drain.count += session.drain_closed_into(&mut pipeline) as u64;
                drain.ns += ns_since(t);
            }
        }
        push.count = self.elems;
        let t = Instant::now();
        let summary = session.finish_with(&mut pipeline);
        let finish_ns = ns_since(t);
        let t = Instant::now();
        let report = pipeline.finalize();
        let finalize_ns = ns_since(t);
        assert!(self.agrees(&ScanOutput::of((summary, report))), "isolated core pass diverged");
        CorePass { push, drain, finish_ns, finalize_ns }
    }

    /// `core.push_miss`: push over the memo-miss sub-stream.
    pub fn pass_push_miss(&self, ledger: &LedgerInput) -> Pass {
        let mut session = self.session().build();
        let t = Instant::now();
        for elem in &ledger.miss_elems {
            session.push(elem);
        }
        let ns = ns_since(t);
        std::hint::black_box(session.stats());
        Pass { ns, count: ledger.miss_elems.len() as u64 }
    }

    /// `core.analytics_observe`: the pipeline fed the reference events.
    pub fn pass_analytics_observe(&self) -> Pass {
        let mut pipeline = self.pipeline();
        let t = Instant::now();
        for event in &self.reference_events {
            pipeline.observe(event);
        }
        let ns = ns_since(t);
        std::hint::black_box(pipeline.snapshot());
        Pass { ns, count: self.reference_events.len() as u64 }
    }

    /// `core.checkpoint`: `InferenceSession::checkpoint()` at mid-stream
    /// and the state sizes there.
    pub fn pass_checkpoint(&self) -> CheckpointPass {
        let mut session = self.session().build();
        for elem in &self.decoded[..self.decoded.len() / 2] {
            session.push(elem);
        }
        let t = Instant::now();
        let checkpoint = session.checkpoint();
        let ns = ns_since(t);
        CheckpointPass {
            ns,
            open_events: checkpoint.open_events() as u64,
            interned_paths: session.interned_paths().len() as u64,
            interned_community_sets: session.interned_community_sets().len() as u64,
        }
    }

    /// `core.shard_ingest`: `ShardedSession::ingest` over a
    /// `SliceSource` at two shards, through `finish_parts` and
    /// `finalize` so the workers' share is inside the span.
    pub fn pass_shard(&self) -> Pass {
        let t = Instant::now();
        let mut session = self.session().build_sharded_with(FLEET_SHARDS, self.pipeline());
        let count = session.ingest(&mut SliceSource::new(&self.decoded));
        let (summary, merged) = session.finish_parts();
        let out = ScanOutput::of((summary, merged.finalize()));
        let ns = ns_since(t);
        assert!(self.agrees(&out), "isolated sharded pass diverged");
        Pass { ns, count }
    }

    /// `workloads.pump`: `ReplayFeed::pump` at every quantum — the
    /// generator's share of a `live_replay` tick.
    pub fn pass_pump(&self) -> Pass {
        let (mut feed, _handles) = ReplayFeed::new(&self.archives);
        let mut now = self.start;
        let t = Instant::now();
        let mut count = 0u64;
        while !feed.finished() {
            count += feed.pump(now) as u64;
            now = SimTime::from_unix(now.unix() + LIVE_QUANTUM.as_secs());
        }
        Pass { ns: ns_since(t), count }
    }

    /// `irr.dictionary_build`: mine the dictionary from the corpus again.
    pub fn pass_dictionary_build(&self) -> Pass {
        let corpus = self.study.corpus();
        let t = Instant::now();
        std::hint::black_box(BlackholeDictionary::build(&corpus));
        Pass { ns: ns_since(t), count: 1 }
    }
}

// ---------------------------------------------------------------------------
// sim_flood
// ---------------------------------------------------------------------------

struct FloodOrigin {
    announcement: Announcement,
    /// Digest and length of the elems one announce+withdraw cycle emits,
    /// from a fresh simulator in set-up.
    digest: u64,
    elems: u64,
}

/// The `sim_flood` input: a CAIDA-shaped topology, its collectors, and
/// the rotation of origins with their reference digests.
pub struct FloodInput {
    topology: Topology,
    deployment: CollectorDeployment,
    origins: Vec<FloodOrigin>,
    /// Wall time of the topology build and the collector placement in
    /// this set-up (`topology.build_ms`, `routing.deploy_ms`).
    pub build_ms: f64,
    pub deploy_ms: f64,
}

/// SplitMix64, for seed-chosen origins without a dependency on the
/// workspace's RNG stand-in.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Remove and return a seed-chosen element.
fn pick<T>(pool: &mut Vec<T>, state: &mut u64) -> T {
    let index = (splitmix(state) % pool.len() as u64) as usize;
    pool.swap_remove(index)
}

/// The `draw`-th sub-prefix of `length` bits inside `space` (`space`
/// itself if it is already that specific). A /32 skips the network
/// address.
fn sub_prefix(space: Ipv4Prefix, length: u8, draw: u64) -> Ipv4Prefix {
    if space.length() >= length {
        return space;
    }
    let slots = 1u64 << (length - space.length());
    let index = if length == 32 { 1 + draw % (slots - 1) } else { draw % slots };
    Ipv4Prefix::from_raw(space.network_bits() | ((index as u32) << (32 - length)), length)
}

const ANNOUNCE_AT: SimTime = SimTime::from_unix(1_000);
const WITHDRAW_AT: SimTime = SimTime::from_unix(2_000);

fn digest_of(elems: &[BgpElem]) -> u64 {
    let mut h = DefaultHasher::new();
    for e in elems {
        e.time.hash(&mut h);
        e.dataset.hash(&mut h);
        e.collector.hash(&mut h);
        e.peer_asn.hash(&mut h);
        e.peer_ip.hash(&mut h);
        (e.elem_type == ElemType::Announce).hash(&mut h);
        e.prefix.hash(&mut h);
        e.as_path.hash(&mut h);
        e.communities.hash(&mut h);
        e.next_hop.hash(&mut h);
    }
    h.finish()
}

impl FloodInput {
    /// Build the world's flood topology and its rotation of origins: even
    /// slots announce a stub's address space untagged; odd slots announce
    /// a /32 inside it tagged with a direct provider's blackhole
    /// community, so the RTBH accept/suppress path runs. The origins
    /// belong to the world; `seed` picks *which* /24 or host of each
    /// origin's space is announced. References come from a simulator of
    /// their own, one cycle per origin.
    pub fn build(seed: u64, smoke: bool) -> Self {
        let as_count_config = if smoke { SMOKE_FLOOD_AS_COUNT } else { FLOOD_AS_COUNT };
        let t = Instant::now();
        let topology =
            TopologyBuilder::new(TopologyConfig::massive_scaled(WORLD_SEED, as_count_config))
                .build();
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let deployment = Self::deploy(&topology);
        let deploy_ms = t.elapsed().as_secs_f64() * 1e3;

        // (origin, its first allocation, a provider's trigger if any)
        let mut plain = Vec::new();
        let mut tagged = Vec::new();
        for info in topology.ases().filter(|i| i.tier == Tier::Stub && !i.prefixes.is_empty()) {
            plain.push((info.asn, info.prefixes[0], None));
            let trigger = capable_providers(&topology, info.asn)
                .first()
                .and_then(|provider| provider.communities.first().copied());
            if trigger.is_some() {
                tagged.push((info.asn, info.prefixes[0], trigger));
            }
        }
        let mut world = WORLD_SEED ^ 0xF100D;
        let mut view = seed ^ 0xF100D;
        let mut rotation = Vec::with_capacity(FLOOD_ORIGINS);
        while rotation.len() < FLOOD_ORIGINS {
            let pool = if rotation.len() % 2 == 1 && !tagged.is_empty() {
                &mut tagged
            } else {
                &mut plain
            };
            assert!(!pool.is_empty(), "topology has too few stub origins");
            let (origin, space, trigger) = pick(pool, &mut world);
            // One origin, one slot: its twin in the other pool goes too.
            plain.retain(|(asn, ..)| *asn != origin);
            tagged.retain(|(asn, ..)| *asn != origin);
            let draw = splitmix(&mut view);
            rotation.push(match trigger {
                Some(community) => Announcement::simple(
                    origin,
                    sub_prefix(space, 32, draw),
                    CommunitySet::from_classic(vec![community]),
                ),
                None => {
                    Announcement::simple(origin, sub_prefix(space, 24, draw), CommunitySet::new())
                }
            });
        }

        let mut input =
            FloodInput { topology, deployment, origins: Vec::new(), build_ms, deploy_ms };
        let mut reference = input.simulator();
        let origins = rotation
            .into_iter()
            .map(|announcement| {
                let mut elems = Vec::new();
                reference.try_announce(ANNOUNCE_AT, &announcement).expect("reference converges");
                elems.append(&mut reference.drain_elems());
                reference
                    .try_withdraw(WITHDRAW_AT, announcement.origin, announcement.prefix)
                    .expect("reference converges");
                elems.append(&mut reference.drain_elems());
                FloodOrigin { announcement, digest: digest_of(&elems), elems: elems.len() as u64 }
            })
            .collect();
        drop(reference);
        input.origins = origins;
        input
    }

    fn deploy(topology: &Topology) -> CollectorDeployment {
        deploy(topology, &CollectorConfig { seed: WORLD_SEED, ..Default::default() })
    }

    fn simulator(&self) -> BgpSimulator<'_> {
        // Engine left at the product default: no `set_engine_mode`.
        BgpSimulator::new(&self.topology, self.deployment.clone(), WORLD_SEED)
    }

    /// A simulator to run cycles on, reused across the whole run.
    pub fn rig(&self) -> FloodRig<'_> {
        FloodRig { sim: self.simulator(), input: self }
    }

    pub fn as_count(&self) -> u64 {
        self.topology.as_count() as u64
    }

    /// Elems one whole rotation emits.
    pub fn elems_per_rotation(&self) -> u64 {
        self.origins.iter().map(|o| o.elems).sum()
    }

    /// Fault injection: see [`StudyInput::perturb_reference`].
    pub fn perturb_reference(&mut self) {
        for origin in &mut self.origins {
            origin.digest ^= 1;
        }
    }

    /// `topology.ranks`: `Topology::propagation_ranks`.
    pub fn pass_ranks(&self) -> Pass {
        let t = Instant::now();
        std::hint::black_box(self.topology.propagation_ranks());
        Pass { ns: ns_since(t), count: self.as_count() }
    }
}

pub struct FloodRig<'a> {
    sim: BgpSimulator<'a>,
    input: &'a FloodInput,
}

#[derive(Debug, Clone, Copy)]
pub struct CycleOutput {
    /// `try_announce` + `drain_elems` + `try_withdraw` + `drain_elems`.
    pub ns: u64,
    pub announce_ns: u64,
    pub withdraw_ns: u64,
    pub elems: u64,
    /// A `PropagationError` from either call.
    pub no_convergence: bool,
    /// Elem digest equals the reference and nobody still blackholes the
    /// prefix after the withdraw.
    pub correct: bool,
}

impl FloodRig<'_> {
    /// One announce+withdraw cycle of rotation slot `slot`.
    pub fn cycle(&mut self, slot: usize, tr: &mut Tracer) -> CycleOutput {
        let origin = &self.input.origins[slot % self.input.origins.len()];
        let a = &origin.announcement;
        let t = Instant::now();
        let s = tr.now_ns();
        let announced = self.sim.try_announce(ANNOUNCE_AT, a);
        let announce_ns = ns_since(t);
        tr.leaf("BgpSimulator::try_announce", s, 1);
        let mut elems = self.sim.drain_elems();
        let w = Instant::now();
        let s = tr.now_ns();
        let withdrawn = self.sim.try_withdraw(WITHDRAW_AT, a.origin, a.prefix);
        let withdraw_ns = ns_since(w);
        tr.leaf("BgpSimulator::try_withdraw", s, 1);
        elems.append(&mut self.sim.drain_elems());
        let ns = ns_since(t);

        let baseline = self.sim.blackholing_ases_for(&a.prefix).is_empty();
        CycleOutput {
            ns,
            announce_ns,
            withdraw_ns,
            elems: elems.len() as u64,
            no_convergence: announced.is_err() || withdrawn.is_err(),
            correct: baseline && digest_of(&elems) == origin.digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_reference_fails_the_comparison() {
        let mut input = StudyInput::build(3, true);
        let (_, out) = input.memory_infer(&mut Tracer::off());
        assert!(input.agrees(&out), "clean reference must agree");
        input.perturb_reference();
        assert!(!input.agrees(&out), "perturbed reference still agrees: the check is dead");
    }

    #[test]
    fn a_perturbed_report_fails_the_comparison() {
        let input = StudyInput::build(3, true);
        let (_, mut out) = input.memory_infer(&mut Tracer::off());
        assert!(!out.report.durations.is_empty(), "tiny scenario found no events");
        out.report.durations.pop();
        assert!(!input.agrees(&out));
    }

    #[test]
    fn the_live_client_spots_gaps_and_bad_replies() {
        let mut client = LiveClient::default();
        client.take_events("ok events 2\nevent seq=0 x=1\nevent seq=1 x=2");
        assert!(client.contiguous && client.next_seq == 2);
        client.take_events("ok events 1\nevent seq=3 x=1");
        assert!(!client.contiguous);
        client.take_report("err no-report-yet");
        client.take_report("ok report events=1");
        assert_eq!(client.bad_replies, 0);
        client.take_report("err unknown command: x");
        client.take_events("err usage");
        assert_eq!((client.queries, client.bad_replies), (6, 2));
    }

    #[test]
    fn a_perturbed_flood_reference_fails_every_cycle() {
        let mut input = FloodInput::build(5, true);
        assert!(input.rig().cycle(1, &mut Tracer::off()).correct);
        input.perturb_reference();
        assert!(!input.rig().cycle(1, &mut Tracer::off()).correct);
    }
}
