//! Multi-collector fleet ingestion: golden equivalence of the k-way
//! merge against `merge_streams`, bit-identical inference over merged
//! and fleet-ingested streams, checkpoint/resume taken mid-fleet, and
//! the Small-scale end-to-end archive → fleet → session → analytics run.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::time::SimTime;
use bh_core::{AnalyticsConfig, AnalyticsReport, EventAccumulator, ReferenceData, StreamSummary};
use bh_routing::archive::write_updates;
use bh_routing::{
    collect_source, merge_streams, split_by_collector, BgpElem, CollectorFleet, DataSource,
    ElemSource, ElemType, MergedSource, MrtElemSource, SliceSource,
};
use bh_workloads::{fleet_archives_for, fleet_of};

// ---- arbitrary collector streams ------------------------------------------

/// The collector labels an arbitrary elem set is split across.
const LABELS: [(DataSource, u16); 6] = [
    (DataSource::Ris, 0),
    (DataSource::Ris, 3),
    (DataSource::RouteViews, 1),
    (DataSource::Pch, 0),
    (DataSource::Cdn, 2),
    (DataSource::Cdn, 9),
];

type ElemFields = (u64, u32, bool, u32, u8, Vec<u32>, Vec<u32>);

/// Raw draws for one element; [`mk_elem`] stamps the collector label.
fn arb_fields() -> impl Strategy<Value = ElemFields> {
    (
        0u64..5_000,
        1u32..100_000,
        any::<bool>(),
        any::<u32>(),
        1u8..=32,
        prop::collection::vec(1u32..50_000, 1..4),
        prop::collection::vec(any::<u32>(), 0..3),
    )
}

/// Build one element under a `(dataset, collector)` label, in a shape
/// that survives the MRT round trip verbatim (announces carry an
/// explicit NEXT_HOP; withdrawals carry no attributes).
fn mk_elem(fields: ElemFields, dataset: DataSource, collector: u16) -> BgpElem {
    let (t, peer, announce, net, len, hops, comms) = fields;
    BgpElem {
        time: SimTime::from_unix(t),
        dataset,
        collector,
        peer_asn: Asn::new(peer),
        peer_ip: "198.51.100.7".parse().unwrap(),
        elem_type: if announce { ElemType::Announce } else { ElemType::Withdraw },
        prefix: bh_bgp_types::prefix::Ipv4Prefix::from_raw(net, len),
        as_path: if announce {
            AsPath::from_sequence(hops.into_iter().map(Asn::new).collect::<Vec<_>>())
        } else {
            AsPath::empty()
        },
        communities: if announce {
            CommunitySet::from_classic(comms.into_iter().map(Community).collect())
        } else {
            CommunitySet::new()
        },
        next_hop: announce.then(|| "203.0.113.66".parse().unwrap()),
    }
}

/// An arbitrary elem set split across the [`LABELS`] collector streams,
/// each stream time-sorted (the per-collector arrival order every real
/// archive has). Some streams come out empty — that is part of the
/// property.
fn arb_streams() -> impl Strategy<Value = Vec<Vec<BgpElem>>> {
    prop::collection::vec((0usize..LABELS.len(), arb_fields()), 0..240).prop_map(|pairs| {
        let mut streams: Vec<Vec<BgpElem>> = vec![Vec::new(); LABELS.len()];
        for (pick, fields) in pairs {
            let (dataset, collector) = LABELS[pick];
            streams[pick].push(mk_elem(fields, dataset, collector));
        }
        for stream in &mut streams {
            stream.sort_by_key(|e| e.time);
        }
        streams
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Golden order: for arbitrary elem sets split across arbitrary
    /// collector streams, the k-way `MergedSource` yields exactly the
    /// `merge_streams` order.
    #[test]
    fn merged_source_yields_exact_merge_streams_order(streams in arb_streams()) {
        let expected = merge_streams(streams.clone());
        let sources: Vec<SliceSource<'_>> = streams.iter().map(SliceSource::from).collect();
        let merged = collect_source(MergedSource::new(sources));
        prop_assert_eq!(merged, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Golden order over archives: the `CollectorFleet` (MRT write → one
    /// zero-copy source per archive → k-way merge) yields the same
    /// `merge_streams` order, element for element.
    #[test]
    fn collector_fleet_yields_exact_merge_streams_order(streams in arb_streams()) {
        let expected = merge_streams(streams.clone());

        let mut fleet = CollectorFleet::new();
        for (index, stream) in streams.iter().enumerate() {
            let mut bytes = Vec::new();
            write_updates(&mut bytes, stream).expect("archive serializes");
            let (dataset, collector) = LABELS[index];
            fleet.add(MrtElemSource::from_bytes(bytes, dataset, collector));
        }
        let mut merged_stream = fleet.start();
        let streamed = collect_source(&mut merged_stream);
        let report = merged_stream.finish();
        prop_assert!(report.is_clean());
        // The MRT round trip preserves every elem verbatim (announces
        // carry explicit NEXT_HOPs by construction), so exact equality.
        prop_assert_eq!(streamed, expected);
    }
}

// ---- bit-identical inference ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })] // full pipeline per case

    /// The `InferenceResult` over a fleet-ingested scenario is
    /// bit-identical to single-source ingestion of the materialized
    /// merged stream — for both the `MergedSource` over in-memory
    /// streams and the `CollectorFleet` over MRT archives.
    #[test]
    fn fleet_inference_is_bit_identical_to_single_source(seed in 0u64..200) {
        let study = Study::build(StudyScale::Tiny, seed);
        let StudyRun { output, refdata, .. } = study.visibility_run(2, 5.0);

        let streams: Vec<Vec<BgpElem>> =
            split_by_collector(&output.elems).into_values().collect();
        let merged = merge_streams(streams.clone());
        let expected = study.infer(&refdata, &merged);

        // Sequential k-way merge over in-memory sources.
        let sources: Vec<SliceSource<'_>> = streams.iter().map(SliceSource::from).collect();
        let mut session = study.session(&refdata).build();
        session.ingest(&mut MergedSource::new(sources));
        prop_assert_eq!(&session.finish(), &expected);

        // The fleet over MRT archives.
        let archives = output.fleet_archives().expect("archives serialize");
        let mut stream = fleet_of(&archives).start();
        let mut session = study.session(&refdata).build();
        session.ingest(&mut stream);
        prop_assert!(stream.finish().is_clean());
        prop_assert_eq!(&session.finish(), &expected);
    }
}

// ---- checkpoint/resume mid-fleet ------------------------------------------

#[test]
fn checkpoint_resume_mid_fleet_ingest_equals_uninterrupted_run() {
    let study = Study::build(StudyScale::Tiny, 91);
    let StudyRun { output, refdata, .. } = study.visibility_run(3, 6.0);
    let archives = output.fleet_archives().expect("archives serialize");

    // Uninterrupted fleet run.
    let mut stream = fleet_of(&archives).start();
    let mut uninterrupted = study.session(&refdata).build();
    uninterrupted.ingest(&mut stream);
    assert!(stream.finish().is_clean());
    let expected = uninterrupted.finish();

    // Same fleet stream, suspended mid-ingest: checkpoint the session,
    // drop it, resume in a fresh one, and drain the *same* live stream.
    let mut stream = fleet_of(&archives).start();
    let mut first = study.session(&refdata).build();
    let mut consumed = 0u64;
    let pause_at = (output.elems.len() / 2) as u64;
    while consumed < pause_at {
        let Some(elem) = stream.next_elem() else { break };
        first.push(elem);
        consumed += 1;
    }
    assert_eq!(consumed, pause_at, "stream ended before the pause point");
    let checkpoint = first.checkpoint();
    assert!(
        checkpoint.open_events() + checkpoint.pending_closed() > 0 || first.stats().elems > 0,
        "degenerate: the checkpoint captured no progress"
    );
    drop(first);

    let mut resumed = study.session(&refdata).resume(checkpoint);
    let rest = resumed.ingest(&mut stream);
    let report = stream.finish();
    assert!(report.is_clean());
    assert_eq!(consumed + rest, output.elems.len() as u64);
    assert_eq!(resumed.finish(), expected);
}

// ---- Small-scale end-to-end -----------------------------------------------

/// One Small-scale environment for the end-to-end acceptance test (the
/// ~230-AS build cost dominates; see pipeline_properties.rs).
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// One session over `source`, streaming closed events into the run's
/// analytics pipeline after every element: the elems ingested, the
/// summary and the report.
fn session_report<S: ElemSource>(
    study: &Study,
    refdata: &Arc<ReferenceData>,
    analytics: AnalyticsConfig,
    source: &mut S,
) -> (u64, StreamSummary, AnalyticsReport) {
    let mut session = study.session(refdata).build();
    let mut pipeline = study.analytics_pipeline(refdata, analytics);
    let mut n = 0;
    while let Some(elem) = source.next_elem() {
        session.push(elem);
        session.drain_closed_into(&mut pipeline);
        n += 1;
    }
    let summary = session.finish_with(&mut pipeline);
    (n, summary, pipeline.finalize())
}

/// The acceptance run: scenario → per-collector MRT archives (including
/// the deployment's silent collectors) → `CollectorFleet` → one session
/// with inline analytics produces the same `AnalyticsReport` as the
/// materialized path.
#[test]
fn small_scale_fleet_to_session_analytics_matches_materialized_path() {
    let study = small_study();
    let StudyRun { output, refdata, analytics, .. } = study.visibility_run(3, 5.0);
    let archives =
        fleet_archives_for(&study.deployment(), &output.elems).expect("archives serialize");
    assert!(archives.len() > 8, "expected a real fleet, got {}", archives.len());

    // Materialized path: decode-merge into a Vec, then inference with
    // inline analytics.
    let merged = merge_streams(split_by_collector(&output.elems).into_values().collect());
    let (_, batch_summary, batch_report) =
        session_report(study, &refdata, analytics, &mut SliceSource::new(&merged));

    // Fleet path: archive readers → merge → session. No stream-sized Vec
    // anywhere.
    let mut stream = fleet_of(&archives).start();
    let (ingested, fleet_summary, fleet_report) =
        session_report(study, &refdata, analytics, &mut stream);
    let report = stream.finish();
    assert!(report.is_clean(), "fleet error: {:?}", report.first_error());
    assert_eq!(ingested, output.elems.len() as u64, "every element must stream through");

    assert_eq!(fleet_summary.stats, batch_summary.stats);
    assert_eq!(fleet_summary.census, batch_summary.census);
    assert_eq!(fleet_summary.per_dataset, batch_summary.per_dataset);
    assert_eq!(fleet_report, batch_report, "fleet AnalyticsReport diverged");
    assert!(!fleet_report.table3.is_empty());
}
