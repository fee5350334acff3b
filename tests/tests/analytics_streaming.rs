//! Streaming-analytics equivalence. The batch report (`observe_result`
//! over `Study::infer`) equals a deliberately naive recomputation of the
//! paper's definitions over the materialized event list
//! (`bh_integration::oracle`); and the one-pass [`AnalyticsPipeline`] —
//! fed mid-stream, or fed the same events in any order — equals its
//! `fold` over that list.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::asn::Asn;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::*;
use bh_integration::oracle::{assert_report_equals_naive_recomputation, naive_periods};
use bh_routing::DataSource;

/// One Small-scale environment shared by the golden tests: building the
/// ~230-AS topology and corpus dominates wall-clock.
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// The golden acceptance test: on a Small-scale scenario, the batch
/// report equals the naive recomputation, and the streamed
/// single-session report is field-for-field equal to it.
#[test]
fn streamed_report_equals_batch_and_naive_recomputation() {
    let study = small_study();
    let StudyRun { output, refdata, analytics } = study.visibility_run(4, 6.0);
    let result = study.infer(&refdata, &output.elems);
    let mut batch = study.analytics_pipeline(&refdata, analytics);
    batch.observe_result(&result);
    let report = batch.finalize();
    assert!(!result.events.is_empty(), "degenerate run: nothing inferred");
    assert_report_equals_naive_recomputation(
        &report,
        &result.events,
        &result.per_dataset,
        &refdata,
        analytics,
    );

    // One-pass streaming (drain mid-stream, finish into the pipeline,
    // never materializing the event Vec) produces the identical report.
    let mut session = study.session(&refdata).build();
    let mut pipeline = study.analytics_pipeline(&refdata, analytics);
    for (n, elem) in output.elems.iter().enumerate() {
        session.push(elem);
        if n % 1_000 == 999 {
            session.drain_closed_into(&mut pipeline);
        }
    }
    let summary = session.finish_with(&mut pipeline);
    assert_eq!(summary.stats, result.stats);
    assert_eq!(summary.census, result.census);
    assert_eq!(summary.per_dataset, result.per_dataset);
    assert_eq!(pipeline.finalize(), report);
}

/// Reference data for the synthetic-event property tests.
fn tiny_refdata() -> Arc<ReferenceData> {
    static REFDATA: OnceLock<Arc<ReferenceData>> = OnceLock::new();
    REFDATA.get_or_init(|| Study::build(StudyScale::Tiny, 5).refdata()).clone()
}

/// A synthetic event from small generator components.
#[allow(clippy::type_complexity)]
fn build_event(
    (prefix_sel, start, dur): (u8, u32, Option<u32>),
    (providers, users, distances, bundled): (BTreeSet<u8>, BTreeSet<u8>, BTreeSet<u8>, bool),
) -> BlackholeEvent {
    let prefix = format!("198.51.{}.{}/32", prefix_sel % 4, prefix_sel).parse().unwrap();
    let providers: BTreeSet<ProviderId> = providers
        .into_iter()
        .map(|p| {
            if p == 0 {
                ProviderId::Ixp(bh_topology::IxpId(0))
            } else {
                ProviderId::As(Asn::new(64_000 + p as u32))
            }
        })
        .collect();
    let distances: BTreeSet<DetectionDistance> = distances
        .into_iter()
        .map(|d| if d == 0 { DetectionDistance::NoPath } else { DetectionDistance::Hops(d) })
        .collect();
    BlackholeEvent {
        prefix,
        providers,
        users: users.into_iter().map(|u| Asn::new(65_000 + u as u32)).collect(),
        start: SimTime::from_unix(start as u64),
        end: dur.map(|d| SimTime::from_unix(start as u64 + d as u64)),
        peer_count: 1,
        datasets: BTreeSet::from([DataSource::Ris]),
        distances,
        bundled_detection: bundled,
    }
}

fn arb_events() -> impl Strategy<Value = Vec<BlackholeEvent>> {
    prop::collection::vec(
        (
            (0u8..8, 0u32..5_000, prop::option::of(0u32..2_000)),
            (
                prop::collection::btree_set(0u8..5, 1..4),
                prop::collection::btree_set(0u8..5, 0..4),
                prop::collection::btree_set(0u8..4, 1..3),
                any::<bool>(),
            ),
        )
            .prop_map(|(timing, content)| build_event(timing, content)),
        1..40,
    )
}

/// The window of the synthetic events (they start within its one day).
fn synthetic_config() -> AnalyticsConfig {
    AnalyticsConfig::window(SimTime::ZERO, SimTime::ZERO + SimDuration::days(1))
}

fn pipeline_over(events: &[BlackholeEvent]) -> AnalyticsPipeline {
    let mut pipeline = AnalyticsPipeline::new(tiny_refdata(), synthetic_config());
    for event in events {
        pipeline.observe(event);
    }
    pipeline
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
    })]

    /// The pipeline does not depend on event order: the three parts of
    /// an arbitrary split fed in other orders, the events reversed and a
    /// drawn permutation all finalize to the report of the events in
    /// order — a report the paper's definitions reproduce.
    #[test]
    fn every_accumulator_is_event_order_insensitive(
        events in arb_events(),
        split_a in 0usize..40,
        split_b in 0usize..40,
        keys in prop::collection::vec(any::<u64>(), 40..41),
    ) {
        let cut_a = split_a % (events.len() + 1);
        let cut_b = cut_a + (split_b % (events.len() - cut_a + 1));
        let (ab, c) = events.split_at(cut_b);
        let (a, b) = ab.split_at(cut_a);

        let reference = pipeline_over(&events).finalize();
        // IXP providers, events without users: the paper's definitions
        // hold on these too (no platform visibility is observed).
        assert_report_equals_naive_recomputation(
            &reference,
            &events,
            &BTreeMap::new(),
            &tiny_refdata(),
            synthetic_config(),
        );

        let mut reversed = events.clone();
        reversed.reverse();
        let mut keyed: Vec<_> = keys.iter().zip(&events).collect();
        keyed.sort_by_key(|(key, _)| **key);
        let permuted = keyed.into_iter().map(|(_, e)| e.clone()).collect();
        let orders = [[c, b, a].concat(), [b, c, a].concat(), [a, c, b].concat(), reversed, permuted];
        for order in orders {
            prop_assert_eq!(pipeline_over(&order).finalize(), reference.clone());
        }
    }

    /// The period accumulator (gap-tolerant interval coalescing) agrees
    /// with the sorted sweep when the second part of an arbitrary split
    /// arrives first.
    #[test]
    fn period_accumulator_matches_batch_grouping(
        events in arb_events(),
        timeout_secs in 0u64..1_200,
        split in 0usize..40,
    ) {
        let timeout = SimDuration::secs(timeout_secs);
        let batch = naive_periods(&events, timeout);

        let cut = split % (events.len() + 1);
        let (a, b) = events.split_at(cut);
        let mut acc = PeriodAccumulator::new(timeout);
        for e in b.iter().chain(a) {
            acc.observe(e);
        }
        prop_assert_eq!(acc.finalize(), batch);
    }
}
