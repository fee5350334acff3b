//! The vocabulary of the paper's analytics: the row types of Tables 3–4
//! and Fig. 4, and the formulas more than one table or figure reads —
//! a provider's network type and the network it is located by, and
//! Table 3's rows. The one pass that computes every table and figure is
//! the [`AnalyticsPipeline`](crate::AnalyticsPipeline).

use std::collections::{BTreeMap, BTreeSet};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::hash::FxHashSet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_routing::DataSource;
use bh_topology::NetworkType;

use crate::events::ProviderId;
use crate::refdata::ReferenceData;
use crate::session::DatasetVisibility;

/// One row of Table 3: per-platform blackholing visibility.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibilityRow {
    /// Platform label ("ALL" for the combined row).
    pub source: String,
    /// Blackholing providers observed.
    pub providers: usize,
    /// Providers observed *only* by this platform.
    pub unique_providers: usize,
    /// Blackholing users observed.
    pub users: usize,
    /// Users observed only by this platform.
    pub unique_users: usize,
    /// Blackholed prefixes observed.
    pub prefixes: usize,
    /// Prefixes observed only by this platform.
    pub unique_prefixes: usize,
    /// Fraction of observed providers feeding this platform directly.
    pub direct_feed_fraction: f64,
}

/// Table 3's rows (one per platform plus the ALL row) from a
/// per-dataset visibility map, which the session maintains incrementally.
pub(crate) fn visibility_rows(
    per_dataset: &BTreeMap<DataSource, DatasetVisibility>,
    refdata: &ReferenceData,
) -> Vec<VisibilityRow> {
    let mut rows = Vec::new();
    for source in DataSource::ALL {
        let Some(vis) = per_dataset.get(&source) else {
            rows.push(VisibilityRow {
                source: source.label().to_string(),
                providers: 0,
                unique_providers: 0,
                users: 0,
                unique_users: 0,
                prefixes: 0,
                unique_prefixes: 0,
                direct_feed_fraction: 0.0,
            });
            continue;
        };
        let others_providers: FxHashSet<ProviderId> = per_dataset
            .iter()
            .filter(|(s, _)| **s != source)
            .flat_map(|(_, v)| v.providers.iter().copied())
            .collect();
        let others_users: FxHashSet<Asn> = per_dataset
            .iter()
            .filter(|(s, _)| **s != source)
            .flat_map(|(_, v)| v.users.iter().copied())
            .collect();
        let others_prefixes: FxHashSet<Ipv4Prefix> = per_dataset
            .iter()
            .filter(|(s, _)| **s != source)
            .flat_map(|(_, v)| v.prefixes.iter().copied())
            .collect();
        let direct = vis.providers.iter().filter(|p| feeds_directly(p, Some(source), refdata));
        rows.push(VisibilityRow {
            source: source.label().to_string(),
            providers: vis.providers.len(),
            unique_providers: vis.providers.difference(&others_providers).count(),
            users: vis.users.len(),
            unique_users: vis.users.difference(&others_users).count(),
            prefixes: vis.prefixes.len(),
            unique_prefixes: vis.prefixes.difference(&others_prefixes).count(),
            direct_feed_fraction: ratio(direct.count(), vis.providers.len()),
        });
    }

    // ALL row.
    let mut all_providers = BTreeSet::new();
    let mut all_users = BTreeSet::new();
    let mut all_prefixes = BTreeSet::new();
    for vis in per_dataset.values() {
        all_providers.extend(vis.providers.iter().copied());
        all_users.extend(vis.users.iter().copied());
        all_prefixes.extend(vis.prefixes.iter().copied());
    }
    let direct = all_providers.iter().filter(|p| feeds_directly(p, None, refdata)).count();
    rows.push(VisibilityRow {
        source: "ALL".to_string(),
        providers: all_providers.len(),
        unique_providers: 0,
        users: all_users.len(),
        unique_users: 0,
        prefixes: all_prefixes.len(),
        unique_prefixes: 0,
        direct_feed_fraction: ratio(direct, all_providers.len()),
    });
    rows
}

pub(crate) fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The network a provider is located and fed by: the AS itself, or an
/// IXP's route server (`None` for an IXP the reference data gives none).
pub(crate) fn provider_asn(provider: &ProviderId, refdata: &ReferenceData) -> Option<Asn> {
    match provider {
        ProviderId::As(asn) => Some(*asn),
        ProviderId::Ixp(id) => refdata.route_server_of(*id),
    }
}

/// Does the provider feed `source` directly (any platform for `None`)?
pub(crate) fn feeds_directly(
    provider: &ProviderId,
    source: Option<DataSource>,
    refdata: &ReferenceData,
) -> bool {
    provider_asn(provider, refdata).is_some_and(|asn| match source {
        Some(s) => refdata.has_direct_feed(s, asn),
        None => refdata.has_any_direct_feed(asn),
    })
}

/// The network type of a provider (IXPs classify as IXP by construction).
pub fn provider_type(provider: &ProviderId, refdata: &ReferenceData) -> NetworkType {
    match provider {
        ProviderId::Ixp(_) => NetworkType::Ixp,
        ProviderId::As(asn) => refdata.network_type(*asn),
    }
}

/// One row of Table 4: visibility by provider network type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeRow {
    /// Network type.
    pub network_type: NetworkType,
    /// Providers of this type.
    pub providers: usize,
    /// Users blackholing via providers of this type.
    pub users: usize,
    /// Prefixes blackholed via providers of this type.
    pub prefixes: usize,
    /// Fraction of this type's providers with a direct feed.
    pub direct_feed_fraction: f64,
}

/// One day of the Fig. 4 longitudinal series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DailyPoint {
    /// Midnight of the day.
    pub day: SimTime,
    /// Distinct active blackholing providers.
    pub providers: usize,
    /// Distinct active blackholing users.
    pub users: usize,
    /// Distinct concurrently blackholed prefixes.
    pub prefixes: usize,
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, OnceLock};

    use bh_bgp_types::time::SimDuration;
    use bh_routing::{deploy, CollectorConfig};
    use bh_topology::{IxpId, TopologyBuilder, TopologyConfig};

    use crate::accumulate::{
        AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, EventAccumulator,
    };
    use crate::events::{BlackholeEvent, DetectionDistance};

    use super::*;

    fn refdata() -> Arc<ReferenceData> {
        static REFDATA: OnceLock<Arc<ReferenceData>> = OnceLock::new();
        REFDATA
            .get_or_init(|| {
                let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
                let d = deploy(&t, &CollectorConfig::tiny(4));
                Arc::new(ReferenceData::build(&t, &d))
            })
            .clone()
    }

    /// A pipeline over the window `[start, end)`, measuring open events
    /// to `end`.
    fn pipeline(start: u64, end: u64) -> AnalyticsPipeline {
        let window = AnalyticsConfig::window(SimTime::from_unix(start), SimTime::from_unix(end));
        AnalyticsPipeline::new(refdata(), window)
    }

    fn report(events: &[BlackholeEvent]) -> AnalyticsReport {
        pipeline(0, 86_400).fold(events)
    }

    fn event(
        prefix: &str,
        providers: Vec<ProviderId>,
        users: Vec<u32>,
        start: u64,
        end: Option<u64>,
    ) -> BlackholeEvent {
        BlackholeEvent {
            prefix: prefix.parse().unwrap(),
            providers: providers.into_iter().collect(),
            users: users.into_iter().map(Asn::new).collect(),
            start: SimTime::from_unix(start),
            end: end.map(SimTime::from_unix),
            peer_count: 1,
            datasets: BTreeSet::from([DataSource::Ris]),
            distances: BTreeSet::from([DetectionDistance::Hops(1)]),
            bundled_detection: false,
        }
    }

    #[test]
    fn daily_series_counts_active_days() {
        let day = 86_400u64;
        let events = vec![
            // Active on days 0 and 1.
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 10, Some(day + 10)),
            // Active on day 1 only.
            event(
                "2.2.2.2/32",
                vec![ProviderId::As(Asn::new(2))],
                vec![11],
                day + 5,
                Some(day + 500),
            ),
            // Open event: active from day 2 to the end of the window.
            event("3.3.3.3/32", vec![ProviderId::As(Asn::new(1))], vec![10], 2 * day + 5, None),
        ];
        let series = pipeline(0, 4 * day).fold(&events).daily;
        assert_eq!(series.len(), 4);
        assert_eq!((series[0].providers, series[0].users, series[0].prefixes), (1, 1, 1));
        assert_eq!((series[1].providers, series[1].users, series[1].prefixes), (2, 2, 2));
        assert_eq!((series[2].providers, series[2].users, series[2].prefixes), (1, 1, 1));
        assert_eq!((series[3].providers, series[3].users, series[3].prefixes), (1, 1, 1));
        assert_eq!(series[3].day, SimTime::from_unix(3 * day));
    }

    #[test]
    fn daily_series_accumulator_merges_like_batch() {
        let day = 86_400u64;
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 10, Some(day + 10)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(2))], vec![11], day, Some(2 * day)),
            event("3.3.3.3/32", vec![ProviderId::As(Asn::new(1))], vec![10], 2 * day, None),
        ];
        let batch = pipeline(0, 4 * day).fold(&events);
        // Split the stream 1 / 2 and feed the second part first.
        let mut acc = pipeline(0, 4 * day);
        acc.observe(&events[1]);
        acc.observe(&events[2]);
        acc.observe(&events[0]);
        assert_eq!(acc.finalize(), batch);
    }

    #[test]
    fn daily_series_inverted_or_empty_window_is_an_empty_series() {
        let day = 86_400u64;
        let e = event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 10, Some(day));
        for (start, end) in [(3 * day, day), (2 * day, 2 * day)] {
            assert!(pipeline(start, end).finalize().daily.is_empty());
            let mut a = pipeline(start, end);
            a.observe(&e);
            assert!(a.finalize().daily.is_empty());
        }
    }

    #[test]
    fn providers_per_event_histogram() {
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(1)),
            event(
                "2.2.2.2/32",
                vec![ProviderId::As(Asn::new(1)), ProviderId::As(Asn::new(2))],
                vec![],
                0,
                Some(1),
            ),
            event("3.3.3.3/32", vec![ProviderId::As(Asn::new(3))], vec![], 0, Some(1)),
        ];
        let hist = report(&events).providers_per_event;
        assert_eq!(hist.get(&1), Some(&2));
        assert_eq!(hist.get(&2), Some(&1));
    }

    #[test]
    fn table4_groups_by_provider_type() {
        // Use a real IXP id from refdata's topology.
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::Ixp(IxpId(0))], vec![10, 11], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::Ixp(IxpId(0))], vec![10], 0, Some(1)),
        ];
        let rows = report(&events).table4;
        let ixp_row = rows.iter().find(|row| row.network_type == NetworkType::Ixp).unwrap();
        assert_eq!(ixp_row.providers, 1);
        assert_eq!(ixp_row.users, 2);
        assert_eq!(ixp_row.prefixes, 2);
        let transit_row =
            rows.iter().find(|row| row.network_type == NetworkType::TransitAccess).unwrap();
        assert_eq!(transit_row.providers, 0);
    }

    #[test]
    fn table4_accumulator_matches_batch() {
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::Ixp(IxpId(0))], vec![10, 11], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(9))], vec![10], 0, Some(1)),
        ];
        // Fed in reverse: the report does not depend on event order.
        let mut acc = pipeline(0, 86_400);
        acc.observe(&events[1]);
        acc.observe(&events[0]);
        let streamed = acc.finalize();
        assert_eq!(streamed, report(&events));
        // User 10 blackholed through both an IXP and an unknown AS: it
        // counts in both rows, once each.
        for ty in [NetworkType::Ixp, NetworkType::Unknown] {
            let row = streamed.table4.iter().find(|row| row.network_type == ty).unwrap();
            assert_eq!(row.users, if ty == NetworkType::Ixp { 2 } else { 1 }, "{ty:?}");
        }
    }

    #[test]
    fn table3_unique_counting() {
        let mut per_dataset = BTreeMap::new();
        let p1 = ProviderId::As(Asn::new(1));
        let p2 = ProviderId::As(Asn::new(2));
        per_dataset.insert(
            DataSource::Ris,
            DatasetVisibility {
                providers: FxHashSet::from_iter([p1, p2]),
                users: FxHashSet::from_iter([Asn::new(10)]),
                prefixes: FxHashSet::from_iter(["1.1.1.1/32".parse().unwrap()]),
            },
        );
        per_dataset.insert(
            DataSource::Cdn,
            DatasetVisibility {
                providers: FxHashSet::from_iter([p1]),
                users: FxHashSet::from_iter([Asn::new(10), Asn::new(11)]),
                prefixes: FxHashSet::from_iter([
                    "1.1.1.1/32".parse().unwrap(),
                    "2.2.2.2/32".parse().unwrap(),
                ]),
            },
        );
        let mut whole = pipeline(0, 86_400);
        whole.observe_visibility(&per_dataset);
        let rows = whole.finalize().table3;
        let ris = rows.iter().find(|row| row.source == "RIS").unwrap();
        assert_eq!(ris.providers, 2);
        assert_eq!(ris.unique_providers, 1); // p2 only at RIS
        assert_eq!(ris.unique_users, 0);
        let cdn = rows.iter().find(|row| row.source == "CDN").unwrap();
        assert_eq!(cdn.unique_users, 1); // user 11 only at CDN
        assert_eq!(cdn.unique_prefixes, 1);
        let all = rows.iter().find(|row| row.source == "ALL").unwrap();
        assert_eq!(all.providers, 2);
        assert_eq!(all.users, 2);
        assert_eq!(all.prefixes, 2);

        // The identical rows come out when the visibility map arrives
        // split across two observations.
        let mut split = pipeline(0, 86_400);
        for (dataset, vis) in &per_dataset {
            let single = BTreeMap::from([(*dataset, vis.clone())]);
            split.observe_visibility(&single);
        }
        assert_eq!(split.finalize().table3, rows);
    }

    #[test]
    fn per_country_uses_refdata() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let r = refdata();
        let some_as = t.ases().next().unwrap().asn;
        let rs = t.ixps()[0].route_server_asn;
        let events = vec![event(
            "1.1.1.1/32",
            vec![ProviderId::As(some_as), ProviderId::Ixp(t.ixps()[0].id)],
            vec![some_as.value()],
            0,
            Some(1),
        )];
        let report = report(&events);
        // The IXP counts as its route server.
        assert_eq!(report.provider_countries.values().sum::<usize>(), 2);
        assert_eq!(report.user_countries.values().sum::<usize>(), 1);
        assert!(report.provider_countries.contains_key(r.country(some_as)));
        assert!(report.provider_countries.contains_key(r.country(rs)));
    }

    #[test]
    fn prefix_count_helpers() {
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![10], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![10], 5, Some(6)),
        ];
        let report = report(&events);
        assert_eq!(report.prefixes_per_provider.len(), 1);
        assert_eq!(report.prefixes_per_provider[0].2, 2); // distinct prefixes
        assert_eq!(report.prefixes_per_user.len(), 1);
        assert_eq!(report.prefixes_per_user[0].2, 2);
        assert_eq!(
            report.blackholed_prefixes,
            BTreeSet::from(["1.1.1.1/32".parse().unwrap(), "2.2.2.2/32".parse().unwrap()])
        );
    }

    #[test]
    fn distance_histogram_counts_event_distances() {
        let mut e1 = event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(1));
        e1.distances = BTreeSet::from([DetectionDistance::NoPath, DetectionDistance::Hops(1)]);
        let e2 = event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(1));
        let hist = report(&[e1, e2]).distance_histogram;
        assert_eq!(hist.get(&DetectionDistance::NoPath), Some(&1));
        assert_eq!(hist.get(&DetectionDistance::Hops(1)), Some(&2));
    }

    #[test]
    fn durations_are_sorted_and_measure_open_events_to_now() {
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(500)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(10)),
            event("3.3.3.3/32", vec![ProviderId::As(Asn::new(1))], vec![], 100, None),
        ];
        let ds = pipeline(0, 1_100).fold(&events).durations;
        assert_eq!(
            ds,
            vec![SimDuration::secs(10), SimDuration::secs(500), SimDuration::secs(1_000)]
        );
    }
}
