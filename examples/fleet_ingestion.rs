//! Fleet ingestion: the multi-collector historical path, end to end.
//!
//! ```text
//! cargo run --release -p bh-examples --example fleet_ingestion
//! ```
//!
//! Simulates a scenario, partitions the collector stream into one MRT
//! updates archive per `(platform, collector)` — the shape real
//! pipelines download from RIS/Route Views/PCH — then re-ingests the
//! whole archive set through a `CollectorFleet`: one zero-copy decoder
//! per archive, a k-way timestamp merge and one inference session with
//! inline analytics, all on the calling thread. No `Vec<BgpElem>` of the
//! stream ever exists on the fleet path, and the result is bit-identical
//! to the materialized baseline.

use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::EventAccumulator;
use bh_examples::section;
use bh_routing::{merge_streams, split_by_collector, ElemSource};
use bh_workloads::fleet_of;

fn main() {
    section("1. simulate and partition into per-collector archives");
    let study = Study::build(StudyScale::Small, 7);
    let StudyRun { output, refdata, analytics, .. } = study.visibility_run(7, 10.0);
    let archives = output.fleet_archives().expect("archives serialize");
    let total_bytes: usize = archives.iter().map(|a| a.bytes.len()).sum();
    println!(
        "{} elems partitioned into {} archives ({} KiB total), e.g.:",
        output.elems.len(),
        archives.len(),
        total_bytes / 1024
    );
    for archive in archives.iter().take(4) {
        println!("  {:<40} {:>7} elems", archive.name, archive.elems);
    }

    section("2. fleet → k-way merge → one session + inline analytics");
    let mut pipeline = study.analytics_pipeline(&refdata, analytics);
    let mut session = study.session(&refdata).build();
    let mut stream = fleet_of(&archives).start();
    let mut ingested = 0u64;
    while let Some(elem) = stream.next_elem() {
        session.push(elem);
        // Closed events stream into the pipeline as they close.
        session.drain_closed_into(&mut pipeline);
        ingested += 1;
    }
    let report = stream.finish();
    assert!(report.is_clean(), "fleet error: {:?}", report.first_error());
    let summary = session.finish_with(&mut pipeline);
    let fleet_report = pipeline.finalize();
    println!(
        "{} archives decoded {} records into {} elems",
        report.archives.len(),
        report.archives.iter().map(|a| a.records_read).sum::<u64>(),
        ingested
    );
    println!(
        "inference: {} elems, {} tagged announcements, {} blackholed prefixes",
        summary.stats.elems,
        summary.stats.tagged_announcements,
        fleet_report.blackholed_prefixes.len()
    );

    section("3. golden check vs the materialized baseline");
    let merged = merge_streams(split_by_collector(&output.elems).into_values().collect());
    let batch = study.infer(&refdata, &merged);
    let mut batch_pipeline = study.analytics_pipeline(&refdata, analytics);
    batch_pipeline.observe_result(&batch);
    let batch_report = batch_pipeline.finalize();
    assert_eq!(batch.stats, summary.stats, "stats diverged");
    assert_eq!(batch_report, fleet_report, "analytics diverged");
    println!("fleet AnalyticsReport == materialized AnalyticsReport ✓");
    println!(
        "table 3 rows: {} | daily series days: {} | grouped periods: {}",
        fleet_report.table3.len(),
        fleet_report.daily.len(),
        fleet_report.periods.len()
    );
}
