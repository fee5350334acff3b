//! Live-service end-to-end: boot the whole node — replayed archive
//! fleet, virtual clock, tailing daemon, query surface — and prove the
//! three service guarantees on a Small-scale workload:
//!
//! 1. **Freshness**: every closed event is published within
//!    `max_latency` of its closing update (and nothing closed is held
//!    back to the final drain).
//! 2. **Crash recovery**: killing the daemon mid-stream and resuming
//!    from its last checkpoint yields one gapless event stream — dedup
//!    by sequence number reconstructs exactly the uninterrupted run.
//! 3. **Batch equivalence**: the drained `AnalyticsReport` and
//!    `StreamSummary` are bit-identical to the batch streaming run over
//!    the same archives.
//!
//! Under the node, the replay feed is held to a transcription of the
//! per-lane scan it replaced: the same bytes appended to each lane at
//! every pump, the same closing pump, and every open lane's watermark at
//! `now` — on the Small fleet and on random archives.
//!
//! The batch reference is computed from the archives' *read-back*
//! streams, not the pre-serialization elems: `write_updates` normalizes
//! a `None` next-hop to the peer address, so only the decoded bytes are
//! the stream the daemon actually sees.

mod common;

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{AnalyticsReport, BlackholeEvent, EventAccumulator, SequencedEvent, StreamSummary};
use bh_live::{handle_command, serve_connection, LiveFleetConfig, LiveNode, QueryRunner};
use bh_routing::archive::write_updates;
use bh_routing::{merge_streams, read_updates, BgpElem, DataSource, LiveArchive, SliceSource};
use bh_workloads::{CollectorArchive, ReplayFeed};
use bytes::Bytes;

use common::record_spans;

/// One prebuilt world per scale: the study, a scenario run, its
/// per-collector archives, and the batch reference the live node must
/// reproduce bit for bit.
struct LiveWorld {
    study: Study,
    run: StudyRun,
    archives: Vec<CollectorArchive>,
    /// The archives read back and merged: the stream the daemon sees.
    merged: Vec<BgpElem>,
    batch_summary: StreamSummary,
    batch_report: AnalyticsReport,
    /// Replay clock origin: the first record's timestamp.
    start: SimTime,
    /// Elements across all archives (== the scenario stream length).
    total_elems: u64,
}

fn build_world(scale: StudyScale, seed: u64, days: u64, rate: f64) -> LiveWorld {
    let study = Study::build(scale, seed);
    let run = study.visibility_run(days, rate);
    let archives = run.output.fleet_archives().expect("archives serialize");
    let streams: Vec<_> = archives
        .iter()
        .map(|a| read_updates(&a.bytes[..], a.dataset, a.collector).expect("archive decodes"))
        .collect();
    let merged = merge_streams(streams);
    assert_eq!(merged.len(), run.output.elems.len(), "archives lost elements");
    let mut session = study.session(&run.refdata).build();
    let mut pipeline = study.analytics_pipeline(&run.refdata, run.analytics);
    session.ingest(&mut SliceSource::new(&merged));
    let batch_summary = session.finish_with(&mut pipeline);
    let batch_report = pipeline.finalize();
    let start = merged.first().expect("non-empty scenario").time;
    let total_elems = merged.len() as u64;
    LiveWorld { study, run, archives, merged, batch_summary, batch_report, start, total_elems }
}

/// The Small-scale acceptance world (the ~230-AS build dominates; share
/// it across tests like the other e2e suites do).
fn small_world() -> &'static LiveWorld {
    static WORLD: OnceLock<LiveWorld> = OnceLock::new();
    WORLD.get_or_init(|| build_world(StudyScale::Small, 42, 2, 6.0))
}

/// The Tiny-scale world for the crash-recovery property (full replay
/// per proptest case).
fn tiny_world() -> &'static LiveWorld {
    static WORLD: OnceLock<LiveWorld> = OnceLock::new();
    WORLD.get_or_init(|| build_world(StudyScale::Tiny, 7, 2, 5.0))
}

fn boot(w: &LiveWorld, quantum: SimDuration, config: LiveFleetConfig) -> LiveNode {
    LiveNode::boot(
        w.study.session(&w.run.refdata),
        w.study.analytics_pipeline(&w.run.refdata, w.run.analytics),
        &w.archives,
        w.start,
        quantum,
        config,
    )
}

/// Fold every retained event into `seen`, keeping the FIRST emission of
/// each sequence number (re-emissions after a resume may carry a later
/// `emitted_at`; the payload must still be identical — asserted by the
/// callers that exercise resume).
fn observe_into(query: &QueryRunner, seen: &mut BTreeMap<u64, SequencedEvent>) {
    for se in query.events_since(0) {
        seen.entry(se.seq).or_insert(se);
    }
}

// ---- 1. full replay: freshness + wire protocol + batch equivalence --------

#[test]
fn live_node_full_replay_meets_latency_and_matches_batch() {
    let w = small_world();
    let quantum = SimDuration::mins(1);
    let config = LiveFleetConfig { max_latency: SimDuration::mins(5), checkpoint_every: 2_048 };
    let mut node = boot(w, quantum, config);
    let query = node.query();

    // A live consumer polling every quantum: each new event must be
    // sequenced contiguously, closed, and within the latency budget.
    let mut cursor = 0u64;
    while !node.done() {
        node.tick();
        for se in query.events_since(cursor) {
            assert_eq!(se.seq, cursor, "sequence gap in the live stream");
            cursor += 1;
            let end = se.event.end.expect("live-emitted events are closed");
            assert!(se.event.start <= end, "event {} ends before it starts", se.seq);
            assert!(
                se.latency() <= config.max_latency,
                "event {} exceeded the latency budget: {}s > {}s",
                se.seq,
                se.latency().as_secs(),
                config.max_latency.as_secs(),
            );
        }
    }
    assert!(cursor > 0, "degenerate replay: no events closed live");

    let status = query.status();
    assert_eq!(status.elems, w.total_elems, "every element must stream through");
    assert_eq!(status.events_emitted, cursor);
    assert!(status.checkpoints >= 1, "the cadence never checkpointed");
    assert!(status.drained);
    assert!(
        status.max_latency_seen <= config.max_latency,
        "daemon-observed worst latency {}s above budget",
        status.max_latency_seen.as_secs()
    );

    // Wire front-end over the same query surface: direct dispatch and a
    // full in-memory connection.
    assert!(handle_command(&query, "status").starts_with("ok status elems="));
    assert!(handle_command(&query, "report").starts_with("ok report events="));
    assert!(handle_command(&query, "bogus").starts_with("err unknown command"));
    let input = b"status\nevents-since 0\nreport\nquit\n";
    let mut out = Vec::new();
    serve_connection(&query, &input[..], &mut out).expect("in-memory serve");
    let reply = String::from_utf8(out).expect("utf8 reply");
    assert!(reply.contains("ok status "), "{reply}");
    assert!(reply.contains(&format!("ok events {cursor}")), "{reply}");
    assert!(reply.ends_with("ok bye\n"), "{reply}");

    // Drain: the final report/summary equal the batch run bit for bit.
    let (summary, report) = node.finish();
    assert_eq!(summary.stats, w.batch_summary.stats);
    assert_eq!(summary.census, w.batch_summary.census);
    assert_eq!(summary.per_dataset, w.batch_summary.per_dataset);
    assert_eq!(report, w.batch_report, "drained live report diverged from the batch run");
    assert_eq!(query.report(), Some(report), "query snapshot lags the drained report");

    // Everything sequenced after the live loop is a still-open event
    // (possibly none): nothing *closed* waited for the final drain.
    let tail = query.events_since(cursor);
    for se in &tail {
        assert_eq!(se.event.end, None, "closed event {} was held to the drain", se.seq);
        assert_eq!(se.latency(), SimDuration::ZERO);
    }
}

// ---- 2. kill mid-stream, resume from the last checkpoint ------------------

#[test]
fn killed_node_resumes_from_checkpoint_without_gaps_or_divergence() {
    let w = small_world();
    let quantum = SimDuration::mins(1);
    let config = LiveFleetConfig { checkpoint_every: 512, ..LiveFleetConfig::default() };

    let mut node = boot(w, quantum, config);
    let query = node.query();
    let mut first_seen: BTreeMap<u64, SequencedEvent> = BTreeMap::new();
    while query.status().elems < w.total_elems / 2 {
        assert!(!node.done(), "replay drained before the kill point");
        node.tick();
        observe_into(&query, &mut first_seen);
    }
    let kill_now = node.now();
    let checkpoint = node.kill().expect("cadence checkpoint before the kill");
    assert!(checkpoint.total_elems() > 0, "checkpoint captured no progress");
    assert!(checkpoint.total_elems() < w.total_elems, "kill point was not mid-stream");

    // A supervisor restart: same archives, the predecessor's time of
    // death, the persisted checkpoint.
    let mut node = LiveNode::resume(
        w.study.session(&w.run.refdata),
        &w.archives,
        kill_now,
        quantum,
        config,
        checkpoint,
    );
    let query = node.query();
    let mut replayed: BTreeMap<u64, SequencedEvent> = BTreeMap::new();
    while !node.done() {
        node.tick();
        observe_into(&query, &mut replayed);
    }

    // Re-emissions (closed after the checkpoint, before the crash) keep
    // their original numbers and payloads — consumers dedup by seq.
    for (seq, se) in &replayed {
        if let Some(original) = first_seen.get(seq) {
            assert_eq!(original.event, se.event, "re-emitted event {seq} diverged");
        }
    }

    // The deduped union is one gapless stream 0..n.
    let emitted = query.status().events_emitted;
    let mut union = first_seen;
    for (seq, se) in replayed {
        union.entry(seq).or_insert(se);
    }
    assert!(emitted > 0, "degenerate run: no events");
    assert_eq!(union.len() as u64, emitted, "gaps in the deduped stream");
    assert_eq!(*union.keys().next_back().expect("non-empty") + 1, emitted);

    // And the resumed node drains to the exact batch result.
    let (summary, report) = node.finish();
    assert_eq!(summary.stats, w.batch_summary.stats);
    assert_eq!(summary.census, w.batch_summary.census);
    assert_eq!(summary.per_dataset, w.batch_summary.per_dataset);
    assert_eq!(report, w.batch_report, "resumed live report diverged from the batch run");
}

/// The status counters survive a restart: a successor resumed from a
/// checkpoint reports, before its first tick, the elements, checkpoints
/// and worst emission latency its predecessor reported at that
/// checkpoint — not a fresh zero.
#[test]
fn resumed_node_reports_the_predecessors_status_counters() {
    let w = small_world();
    let quantum = SimDuration::mins(1);
    let config = LiveFleetConfig { checkpoint_every: 512, ..LiveFleetConfig::default() };

    // Tick until a cadence checkpoint lands after an event was emitted
    // late; the status published by that step is the checkpoint's.
    let mut node = boot(w, quantum, config);
    let query = node.query();
    let mut checkpoints = query.status().checkpoints;
    let at_checkpoint = loop {
        assert!(!node.done(), "no checkpoint after a late emission");
        node.tick();
        let status = query.status();
        let checkpointed = status.checkpoints > checkpoints;
        checkpoints = status.checkpoints;
        if checkpointed && status.max_latency_seen > SimDuration::ZERO {
            break status;
        }
    };
    let kill_now = node.now();
    let checkpoint = node.kill().expect("the loop stopped at a checkpoint");
    assert_eq!(checkpoint.total_elems(), at_checkpoint.elems);

    let node = LiveNode::resume(
        w.study.session(&w.run.refdata),
        &w.archives,
        kill_now,
        quantum,
        config,
        checkpoint,
    );
    let resumed = node.query().status();
    assert_eq!(resumed.max_latency_seen, at_checkpoint.max_latency_seen);
    assert_eq!(resumed.elems, at_checkpoint.elems);
    assert_eq!(resumed.checkpoints, at_checkpoint.checkpoints);
    assert_eq!(resumed.events_emitted, at_checkpoint.events_emitted);
}

// ---- 3. crash-recovery property: any kill point, any cadence --------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })] // full replay per case

    /// Satellite: checkpoint at an arbitrary cadence, kill at an
    /// arbitrary record index, resume — the event stream keyed by seq
    /// has no gaps and no conflicting duplicates, and the drained
    /// report still equals the batch run. A kill before the first
    /// checkpoint restarts from scratch, which must converge too.
    #[test]
    fn crash_recovery_preserves_the_event_stream(
        kill_frac in 0.05f64..0.95,
        checkpoint_every in 32u64..512,
    ) {
        let w = tiny_world();
        let quantum = SimDuration::mins(1);
        let config = LiveFleetConfig { checkpoint_every, ..LiveFleetConfig::default() };

        let mut node = boot(w, quantum, config);
        let query = node.query();
        let target = ((w.total_elems as f64) * kill_frac) as u64;
        let mut first_seen: BTreeMap<u64, SequencedEvent> = BTreeMap::new();
        while query.status().elems < target && !node.done() {
            node.tick();
            observe_into(&query, &mut first_seen);
        }
        let kill_now = node.now();
        let mut node = match node.kill() {
            Some(checkpoint) => LiveNode::resume(
                w.study.session(&w.run.refdata),
                &w.archives,
                kill_now,
                quantum,
                config,
                checkpoint,
            ),
            // Crashed before any checkpoint: the supervisor boots fresh.
            None => boot(w, quantum, config),
        };
        let query = node.query();
        let mut replayed: BTreeMap<u64, SequencedEvent> = BTreeMap::new();
        while !node.done() {
            node.tick();
            observe_into(&query, &mut replayed);
        }

        for (seq, se) in &replayed {
            if let Some(original) = first_seen.get(seq) {
                prop_assert_eq!(&original.event, &se.event);
            }
        }
        let emitted = query.status().events_emitted;
        let mut union = first_seen;
        for (seq, se) in replayed {
            union.entry(seq).or_insert(se);
        }
        prop_assert_eq!(union.len() as u64, emitted);
        if emitted > 0 {
            prop_assert_eq!(*union.keys().next_back().expect("non-empty") + 1, emitted);
        }

        let (_, report) = node.finish();
        prop_assert_eq!(&report, &w.batch_report);
    }
}

// ---- 4. golden pin of the orders no sorted comparison sees ----------------

/// Order-sensitive FNV-1a digest over each item's `Debug` rendering.
fn debug_digest<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for byte in format!("{item:?}").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// Golden pin of the session's observation order, recorded before the
/// session's plan, suppression and census side tables became one row per
/// interned community set: the order `finish_with` hands a batch
/// session's events to an accumulator (closed ones in closure order, then
/// the open-event map drained), the live daemon's `(seq, event)` stream,
/// and the interned community-set count, all on the Small run. Every
/// other comparison of events sorts them first, so only this pin sees
/// either order.
#[test]
fn session_golden_pin() {
    let w = small_world();
    let mut session = w.study.session(&w.run.refdata).build();
    session.ingest(&mut SliceSource::new(&w.merged));
    let sets = session.interned_community_sets().len();
    let mut observed: Vec<BlackholeEvent> = Vec::new();
    session.finish_with(&mut observed);

    let config = LiveFleetConfig { checkpoint_every: 2_048, ..LiveFleetConfig::default() };
    let mut node = boot(w, SimDuration::mins(1), config);
    let query = node.query();
    node.run_to_completion();
    node.finish();
    let stream = query.events_since(0);
    assert_eq!(stream.len() as u64, query.status().events_emitted, "the ring dropped events");

    let pin = format!(
        "sets={sets} events={} order={:016x} live={} live_order={:016x}",
        observed.len(),
        debug_digest(&observed),
        stream.len(),
        debug_digest(stream.iter().map(|se| (se.seq, &se.event))),
    );
    assert_eq!(
        pin,
        "sets=98 events=1109 order=f9d7c03d5bce5088 live=1109 live_order=ae9f5fc0cdc5f761"
    );
}

// ---- 5. the replay feed against the per-lane scan it replaced --------------

/// One lane of [`ScanFeed`].
struct ScanLane {
    archive: LiveArchive,
    bytes: Bytes,
    spans: Vec<(SimTime, Range<usize>)>,
    next: usize,
    closed: bool,
}

/// The reference pump, transcribed from the feed before it kept its
/// lanes in a heap on one clock: every pump scans every lane, appends
/// its due run, and closes it or advances its own watermark to `now`.
struct ScanFeed {
    lanes: Vec<ScanLane>,
    open: usize,
}

impl ScanFeed {
    fn new(archives: &[CollectorArchive]) -> Self {
        let lanes: Vec<ScanLane> = archives
            .iter()
            .map(|a| ScanLane {
                archive: LiveArchive::new(),
                bytes: a.bytes.clone(),
                spans: record_spans(&a.bytes),
                next: 0,
                closed: false,
            })
            .collect();
        ScanFeed { open: lanes.len(), lanes }
    }

    fn pump(&mut self, now: SimTime) -> usize {
        let mut appended = 0;
        for lane in &mut self.lanes {
            if lane.closed {
                continue;
            }
            let start = lane.next;
            while lane.next < lane.spans.len() && lane.spans[lane.next].0 <= now {
                lane.next += 1;
            }
            if lane.next > start {
                let from = lane.spans[start].1.start;
                let to = lane.spans[lane.next - 1].1.end;
                if lane.archive.append(&lane.bytes[from..to]).is_ok() {
                    appended += lane.next - start;
                } else {
                    lane.next = lane.spans.len();
                }
            }
            if lane.next == lane.spans.len() {
                lane.archive.close();
                lane.closed = true;
                self.open -= 1;
            } else {
                lane.archive.advance_watermark(now);
            }
        }
        appended
    }

    fn finished(&self) -> bool {
        self.open == 0
    }
}

/// Pump a [`ReplayFeed`] and the [`ScanFeed`] at each time of
/// `schedule`, closing lane `close.0` through both feeds' handles just
/// before pump `close.1` (the writer-bug path), then once more at a
/// time past every record, when both must finish. At every pump: the same record count;
/// per lane the same length (so the same byte range appended) and the
/// same closed flag; every open lane's watermark at the latest `now`.
/// At the end each lane's chunks are the scan's, and slices of the
/// recording rather than copies.
fn assert_replay_matches_the_scan(
    archives: &[CollectorArchive],
    schedule: &[SimTime],
    close: Option<(usize, usize)>,
) {
    let (mut feed, handles) = ReplayFeed::new(archives);
    let mut scan = ScanFeed::new(archives);
    let past_every_record = SimTime::from_unix(u64::from(u32::MAX));
    let mut promised = SimTime::ZERO;
    for (tick, now) in schedule.iter().copied().chain([past_every_record]).enumerate() {
        if let Some((lane, at)) = close {
            if at == tick && lane < handles.len() {
                handles[lane].2.close();
                scan.lanes[lane].archive.close();
            }
        }
        promised = promised.max(now);
        assert_eq!(feed.pump(now), scan.pump(now), "records appended at pump {tick}");
        for (lane, ((_, _, archive), reference)) in handles.iter().zip(&scan.lanes).enumerate() {
            let at = format!("lane {lane}, pump {tick}");
            assert_eq!(archive.len(), reference.archive.len(), "{at}: appended bytes");
            assert_eq!(archive.is_closed(), reference.archive.is_closed(), "{at}: closed");
            if !archive.is_closed() {
                assert_eq!(archive.watermark(), promised, "{at}: watermark");
                assert_eq!(reference.archive.watermark(), promised, "{at}: scan watermark");
            }
        }
        assert_eq!(feed.finished(), scan.finished(), "pump {tick}");
    }
    assert!(feed.finished(), "a lane is still open after its last record");
    for ((_, _, archive), (reference, recorded)) in
        handles.iter().zip(scan.lanes.iter().zip(archives))
    {
        let (chunks, expected) = (archive.chunks(), reference.archive.chunks());
        assert_eq!(chunks, expected, "the same chunk at every pump");
        let recording = recorded.bytes.as_ptr_range();
        for chunk in &chunks {
            assert!(recording.contains(&chunk.as_ptr()), "a chunk was copied");
        }
    }
}

#[test]
fn replay_feed_matches_the_per_lane_scan_on_the_small_fleet() {
    let w = small_world();
    // The fleet plus two collectors that saw nothing: their lanes are
    // empty and close at the first pump.
    let mut archives = w.archives.clone();
    let silent = |collector| archive_at(collector, &[]);
    archives.insert(0, silent(900));
    archives.insert(archives.len() / 2, silent(901));
    assert!(archives.iter().filter(|a| a.elems > 0).count() > 1);
    let end = w.merged.last().expect("non-empty").time;
    let minutes = (end.unix() - w.start.unix()) / 60 + 2;
    let schedule: Vec<SimTime> =
        (0..minutes).map(|m| SimTime::from_unix(w.start.unix() + 60 * m)).collect();
    assert_replay_matches_the_scan(&archives, &schedule, None);
    // Irregular pumps: repeated times, jumps, one lane closed by a
    // handle half-way.
    let mut t = w.start.unix() - 30;
    let irregular: Vec<SimTime> = (0..minutes)
        .map(|m| {
            t += [0, 17, 60, 600, 1][m as usize % 5];
            SimTime::from_unix(t)
        })
        .collect();
    assert_replay_matches_the_scan(&archives, &irregular, Some((3, irregular.len() / 2)));
}

/// An archive of announcements at `times` (sorted), one record each.
fn archive_at(collector: u16, times: &[u64]) -> CollectorArchive {
    let elems: Vec<BgpElem> = times
        .iter()
        .map(|&t| BgpElem {
            time: SimTime::from_unix(t),
            dataset: DataSource::Ris,
            collector,
            peer_asn: bh_bgp_types::asn::Asn::new(64_500),
            peer_ip: "198.51.100.7".parse().expect("peer ip"),
            elem_type: bh_routing::ElemType::Announce,
            prefix: "130.149.0.0/17".parse().expect("prefix"),
            as_path: "3356 64500".parse().expect("path"),
            communities: Default::default(),
            next_hop: Some("198.51.100.7".parse().expect("next hop")),
        })
        .collect();
    let mut bytes = Vec::new();
    write_updates(&mut bytes, &elems).expect("archive serializes");
    CollectorArchive {
        dataset: DataSource::Ris,
        collector,
        name: format!("rc{collector}"),
        bytes: bytes.into(),
        elems: elems.len() as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Random lanes — silent ones, bursts at one time, records before the
    /// first pump — under random pump schedules.
    #[test]
    fn replay_feed_matches_the_per_lane_scan_on_random_archives(
        lanes in prop::collection::vec(prop::collection::vec(0u64..400, 0..12), 1..12),
        steps in prop::collection::vec(0u64..40, 1..40),
        start in 0u64..60,
        close in prop::option::of((0usize..12, 0usize..40)),
    ) {
        let archives: Vec<CollectorArchive> = lanes
            .iter()
            .enumerate()
            .map(|(c, times)| {
                let mut times = times.clone();
                times.sort_unstable();
                archive_at(c as u16, &times)
            })
            .collect();
        let mut now = start;
        let schedule: Vec<SimTime> = steps
            .iter()
            .map(|step| {
                now += step;
                SimTime::from_unix(now)
            })
            .collect();
        assert_replay_matches_the_scan(&archives, &schedule, close);
    }
}
