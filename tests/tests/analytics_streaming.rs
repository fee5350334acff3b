//! Streaming-analytics equivalence. The report every run carries equals
//! a deliberately naive recomputation of the paper's definitions over
//! the materialized event list; and every metric's mergeable
//! [`EventAccumulator`] — fed mid-stream, out of order, split across
//! accumulators and merged in any grouping, or run per shard with a
//! barrier merge — equals its `fold` over that list.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::*;
use bh_routing::{DataSource, SliceSource};
use bh_topology::NetworkType;

/// One Small-scale environment shared by the golden tests: building the
/// ~230-AS topology and corpus dominates wall-clock.
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// §9 grouping by the textbook sweep: events sorted by `(prefix, start)`,
/// each joining the running period of its prefix when it starts within
/// `timeout` of that period's end (an open period never ends).
fn naive_periods(events: &[BlackholeEvent], timeout: SimDuration) -> Vec<BlackholePeriod> {
    let mut sorted: Vec<&BlackholeEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.prefix, e.start));
    let mut periods: Vec<BlackholePeriod> = Vec::new();
    for event in sorted {
        match periods.last_mut() {
            Some(p)
                if p.prefix == event.prefix
                    && p.end.is_none_or(|end| event.start <= end + timeout) =>
            {
                p.end = p.end.zip(event.end).map(|(a, b)| a.max(b));
                p.event_count += 1;
                p.providers.extend(&event.providers);
                p.users.extend(&event.users);
            }
            _ => periods.push(BlackholePeriod {
                prefix: event.prefix,
                start: event.start,
                end: event.end,
                event_count: 1,
                providers: event.providers.clone(),
                users: event.users.clone(),
            }),
        }
    }
    periods
}

/// The report against the paper's definitions, recomputed the slow
/// obvious way over the event list — no accumulator, no shared helper.
fn assert_report_equals_naive_recomputation(
    report: &AnalyticsReport,
    events: &[BlackholeEvent],
    refdata: &ReferenceData,
    analytics: AnalyticsConfig,
) {
    // Table 4: per provider network type, the distinct providers of that
    // type, and the distinct users and prefixes of the events they are in.
    let type_of = |p: &ProviderId| match p {
        ProviderId::Ixp(_) => NetworkType::Ixp,
        ProviderId::As(asn) => refdata.network_type(*asn),
    };
    for row in &report.table4 {
        let of_type =
            |e: &&BlackholeEvent| e.providers.iter().any(|p| type_of(p) == row.network_type);
        let providers: BTreeSet<ProviderId> = events
            .iter()
            .flat_map(|e| &e.providers)
            .filter(|p| type_of(p) == row.network_type)
            .copied()
            .collect();
        let users: BTreeSet<&Asn> = events.iter().filter(of_type).flat_map(|e| &e.users).collect();
        let prefixes: BTreeSet<Ipv4Prefix> =
            events.iter().filter(of_type).map(|e| e.prefix).collect();
        assert_eq!(
            (row.providers, row.users, row.prefixes),
            (providers.len(), users.len(), prefixes.len()),
            "table 4, {:?}",
            row.network_type
        );
    }
    assert_eq!(report.table4.iter().map(|r| r.network_type).collect::<Vec<_>>(), NetworkType::ALL);

    // Fig. 4: every (event, day) pair — an event counts on each day from
    // the day it starts to the day it ends (to the window's end if open).
    let days = analytics.window_start.day_index()..analytics.window_end.day_index();
    assert_eq!(report.daily.len(), days.clone().count());
    for (day, point) in days.zip(&report.daily) {
        let active: Vec<&BlackholeEvent> = events
            .iter()
            .filter(|e| {
                e.start.day_index() <= day && e.end.is_none_or(|end| day <= end.day_index())
            })
            .collect();
        let providers: BTreeSet<&ProviderId> = active.iter().flat_map(|e| &e.providers).collect();
        let users: BTreeSet<&Asn> = active.iter().flat_map(|e| &e.users).collect();
        let prefixes: BTreeSet<Ipv4Prefix> = active.iter().map(|e| e.prefix).collect();
        assert_eq!(
            (point.day, point.providers, point.users, point.prefixes),
            (SimTime::from_unix(day * 86_400), providers.len(), users.len(), prefixes.len())
        );
    }

    // Fig. 7(b): events per provider count. Fig. 7(c): events per
    // detection distance.
    let mut per_count: BTreeMap<usize, usize> = BTreeMap::new();
    let mut per_distance: BTreeMap<DetectionDistance, usize> = BTreeMap::new();
    for event in events {
        *per_count.entry(event.providers.len()).or_default() += 1;
        for distance in &event.distances {
            *per_distance.entry(*distance).or_default() += 1;
        }
    }
    assert_eq!(report.providers_per_event, per_count);
    assert_eq!(report.distance_histogram, per_distance);

    // Fig. 8(a): durations ascending, open events measured to `now`.
    let mut durations: Vec<SimDuration> = events
        .iter()
        .map(|e| SimDuration::secs(e.end.unwrap_or(analytics.now).unix() - e.start.unix()))
        .collect();
    durations.sort();
    assert_eq!(report.durations, durations);

    assert_eq!(report.blackholed_prefixes, events.iter().map(|e| e.prefix).collect());
    assert_eq!(analytics.grouping_timeout, SimDuration::mins(5));
    assert_eq!(report.periods, naive_periods(events, SimDuration::mins(5)));
}

/// The golden acceptance test: on a Small-scale scenario, the run's
/// report equals the naive recomputation, and the streamed
/// single-session report and the 4- and 8-shard barrier-merged reports
/// are field-for-field equal to it.
#[test]
fn streamed_and_sharded_reports_equal_batch_functions() {
    let study = small_study();
    let StudyRun { output, result, refdata, analytics, report } = study.visibility_run(4, 6.0);
    assert!(!result.events.is_empty(), "degenerate run: nothing inferred");
    assert_report_equals_naive_recomputation(&report, &result.events, &refdata, analytics);

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

    // Sharded with per-worker pipelines merged at the barrier.
    for shards in [4usize, 8] {
        let pipeline = study.analytics_pipeline(&refdata, analytics);
        let mut session = study.session(&refdata).build_sharded_with(shards, pipeline);
        session.ingest(&mut SliceSource::new(&output.elems));
        let (sharded_summary, merged) = session.finish_parts();
        assert_eq!(sharded_summary.stats, result.stats);
        assert_eq!(sharded_summary.per_dataset, result.per_dataset);
        assert_eq!(merged.finalize(), report, "{shards} shards diverged");
    }
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

fn pipeline_over(events: &[BlackholeEvent]) -> AnalyticsPipeline {
    let config = AnalyticsConfig::window(SimTime::ZERO, SimTime::ZERO + SimDuration::days(1));
    let mut pipeline = AnalyticsPipeline::new(tiny_refdata(), config);
    for event in events {
        pipeline.observe(event);
    }
    pipeline
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
    })]

    /// Every registered accumulator is merge-associative and
    /// commutative: splitting an arbitrary event multiset three ways
    /// and folding the parts in any grouping or order finalizes to the
    /// same report as one accumulator fed everything.
    #[test]
    fn every_accumulator_is_merge_associative(
        events in arb_events(),
        split_a in 0usize..40,
        split_b in 0usize..40,
    ) {
        let cut_a = split_a % (events.len() + 1);
        let cut_b = cut_a + (split_b % (events.len() - cut_a + 1));
        let (ab, c) = events.split_at(cut_b);
        let (a, b) = ab.split_at(cut_a);

        let reference = pipeline_over(&events).finalize();

        // (A + B) + C
        let mut left = pipeline_over(a);
        left.merge(pipeline_over(b));
        left.merge(pipeline_over(c));
        prop_assert_eq!(left.finalize(), reference.clone());

        // A + (B + C)
        let mut right_tail = pipeline_over(b);
        right_tail.merge(pipeline_over(c));
        let mut right = pipeline_over(a);
        right.merge(right_tail);
        prop_assert_eq!(right.finalize(), reference.clone());

        // (C + B) + A — commutativity of the same fold.
        let mut rev = pipeline_over(c);
        rev.merge(pipeline_over(b));
        rev.merge(pipeline_over(a));
        prop_assert_eq!(rev.finalize(), reference.clone());

        // Observation order within one accumulator is irrelevant too.
        let mut reversed_events = events.clone();
        reversed_events.reverse();
        prop_assert_eq!(pipeline_over(&reversed_events).finalize(), reference);
    }

    /// The period accumulator (the trickiest merge: gap-tolerant
    /// interval coalescing) agrees with the sorted sweep under
    /// arbitrary splits.
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
        let mut left = PeriodAccumulator::new(timeout);
        for e in a {
            left.observe(e);
        }
        let mut right = PeriodAccumulator::new(timeout);
        for e in b {
            right.observe(e);
        }
        right.merge(left);
        prop_assert_eq!(right.finalize(), batch);
    }
}
