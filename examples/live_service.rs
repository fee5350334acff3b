//! Live service: the paper's pipeline as a near-real-time daemon.
//!
//! ```text
//! cargo run --release -p bh-examples --example live_service
//! ```
//!
//! Boots the whole node on a virtual clock: a `ReplayFeed` paces a
//! recorded per-collector archive fleet as *growing* files, a
//! `LiveFleet` daemon tails them through a watermark-gated merge and
//! emits sequence-numbered `BlackholeEvent`s as the closing updates
//! arrive, a `QueryRunner` + line protocol answer `status` / `report` /
//! `events-since`, and a mid-stream kill/resume shows checkpointed
//! crash recovery. The drained report is checked bit-for-bit against
//! the batch run over the same archives.

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::time::SimDuration;
use bh_core::EventAccumulator;
use bh_examples::section;
use bh_live::{handle_command, LiveFleetConfig, LiveNode};
use bh_routing::{merge_streams, read_updates, SliceSource};

fn main() {
    section("1. record a workload: per-collector MRT archives");
    let study = Study::build(StudyScale::Small, 11);
    let StudyRun { output, refdata, analytics, .. } = study.visibility_run(3, 8.0);
    let archives = output.fleet_archives().expect("archives serialize");
    let start = output.elems.iter().map(|e| e.time).min().expect("non-empty scenario");
    println!(
        "{} elems across {} archives; replay origin t={}",
        output.elems.len(),
        archives.len(),
        start.unix()
    );

    section("2. boot the node: replay feed + virtual clock + daemon");
    let quantum = SimDuration::mins(1);
    let config = LiveFleetConfig { max_latency: SimDuration::mins(5), checkpoint_every: 1_024 };
    let mut node = LiveNode::boot(
        study.session(&refdata),
        study.analytics_pipeline(&refdata, analytics),
        &archives,
        start,
        quantum,
        config,
    );
    let query = node.query();
    let total = output.elems.len() as u64;

    // Run to roughly mid-stream, polling like a live consumer.
    let mut cursor = 0u64;
    while query.status().elems < total / 2 {
        node.tick();
        for se in query.events_since(cursor) {
            cursor = se.seq + 1;
            if se.seq < 3 {
                println!(
                    "  event seq={} prefix={} latency={}s",
                    se.seq,
                    se.event.prefix,
                    se.latency().as_secs()
                );
            }
        }
    }
    let mid = query.status();
    println!(
        "mid-stream: {} elems ingested, {} events emitted, {} checkpoints, worst latency {}s",
        mid.elems,
        mid.events_emitted,
        mid.checkpoints,
        mid.max_latency_seen.as_secs()
    );

    section("3. kill the daemon, resume from its last checkpoint");
    let died_at = node.now();
    let checkpoint = node.kill().expect("a cadence checkpoint was taken");
    println!(
        "crash at t={}: checkpoint holds {} elems, next seq {}, {} open events",
        died_at.unix(),
        checkpoint.total_elems(),
        checkpoint.next_seq(),
        checkpoint.open_events()
    );
    let mut node =
        LiveNode::resume(study.session(&refdata), &archives, died_at, quantum, config, checkpoint);
    node.run_to_completion();
    let query = node.query();

    section("4. query the drained node over the line protocol");
    for command in ["status", "report", "events-since 0"] {
        let reply = handle_command(&query, command);
        let first = reply.lines().next().unwrap_or_default();
        println!("  -> {command}\n  <- {first}");
    }

    section("5. golden check vs the batch run over the same archives");
    let streams: Vec<_> = archives
        .iter()
        .map(|a| read_updates(&a.bytes[..], a.dataset, a.collector).expect("archive decodes"))
        .collect();
    let merged = merge_streams(streams);
    let mut session = study.session(&refdata).build();
    let mut pipeline = study.analytics_pipeline(&refdata, analytics);
    session.ingest(&mut SliceSource::new(&merged));
    let batch_summary = session.finish_with(&mut pipeline);
    let batch_report = pipeline.finalize();
    let (summary, report) = node.finish();
    assert_eq!(summary.stats, batch_summary.stats, "stats diverged");
    assert_eq!(report, batch_report, "analytics diverged");
    println!("live AnalyticsReport == batch AnalyticsReport ✓");
    println!(
        "{} blackholed prefixes, {} grouped periods, {} table-3 rows",
        report.blackholed_prefixes.len(),
        report.periods.len(),
        report.table3.len()
    );
}
