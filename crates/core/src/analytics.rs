//! Analytics over inferred events: the computations behind Tables 3–4 and
//! Figures 4–8.
//!
//! Each metric exists exactly once, as a mergeable
//! [`EventAccumulator`]. Over a materialized event slice it is
//! [`EventAccumulator::fold`]; fed incrementally — from
//! [`InferenceSession::drain_closed_into`](crate::InferenceSession::drain_closed_into)
//! or per shard via
//! [`SessionBuilder::build_sharded_with`](crate::SessionBuilder::build_sharded_with)
//! — it produces identical output (see
//! `tests/tests/analytics_streaming.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::hash::FxHashSet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::DataSource;
use bh_topology::NetworkType;

use crate::accumulate::EventAccumulator;
use crate::events::{BlackholeEvent, DetectionDistance, ProviderId};
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
fn visibility_rows(
    per_dataset: &BTreeMap<DataSource, DatasetVisibility>,
    refdata: &ReferenceData,
) -> Vec<VisibilityRow> {
    let mut rows = Vec::new();
    let datasets: Vec<DataSource> = DataSource::ALL.to_vec();
    let provider_feeds = |source: Option<DataSource>, provider: &ProviderId| -> bool {
        let asn = match provider {
            ProviderId::As(asn) => *asn,
            ProviderId::Ixp(id) => match refdata.route_server_of(*id) {
                Some(asn) => asn,
                None => return false,
            },
        };
        match source {
            Some(s) => refdata.has_direct_feed(s, asn),
            None => refdata.has_any_direct_feed(asn),
        }
    };

    for &source in &datasets {
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
        let direct = vis.providers.iter().filter(|p| provider_feeds(Some(source), p)).count();
        rows.push(VisibilityRow {
            source: source.label().to_string(),
            providers: vis.providers.len(),
            unique_providers: vis.providers.difference(&others_providers).count(),
            users: vis.users.len(),
            unique_users: vis.users.difference(&others_users).count(),
            prefixes: vis.prefixes.len(),
            unique_prefixes: vis.prefixes.difference(&others_prefixes).count(),
            direct_feed_fraction: ratio(direct, vis.providers.len()),
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
    let direct = all_providers.iter().filter(|p| provider_feeds(None, p)).count();
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

/// Table 3 as a mergeable accumulator.
///
/// The per-source breakdown comes from the session's per-dataset
/// visibility (which detection was seen on which platform's elements —
/// information the correlated events no longer carry), so the fold
/// happens in [`EventAccumulator::observe_visibility`]; `observe` is a
/// deliberate no-op.
#[derive(Debug, Clone)]
pub struct VisibilityAccumulator {
    refdata: Arc<ReferenceData>,
    per_dataset: BTreeMap<DataSource, DatasetVisibility>,
}

impl VisibilityAccumulator {
    /// An empty accumulator over the given reference data.
    pub fn new(refdata: Arc<ReferenceData>) -> Self {
        VisibilityAccumulator { refdata, per_dataset: BTreeMap::new() }
    }
}

impl EventAccumulator for VisibilityAccumulator {
    type Output = Vec<VisibilityRow>;

    fn observe(&mut self, _event: &BlackholeEvent) {}

    fn observe_visibility(&mut self, per_dataset: &BTreeMap<DataSource, DatasetVisibility>) {
        for (dataset, vis) in per_dataset {
            self.per_dataset.entry(*dataset).or_default().merge(vis);
        }
    }

    fn merge(&mut self, other: Self) {
        self.observe_visibility(&other.per_dataset);
    }

    fn finalize(self) -> Vec<VisibilityRow> {
        visibility_rows(&self.per_dataset, &self.refdata)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
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

/// Table 4 as a mergeable accumulator: per-type provider, user and
/// prefix sets.
#[derive(Debug, Clone)]
pub struct TypeAccumulator {
    refdata: Arc<ReferenceData>,
    providers: BTreeMap<NetworkType, BTreeSet<ProviderId>>,
    users: BTreeMap<NetworkType, BTreeSet<Asn>>,
    prefixes: BTreeMap<NetworkType, BTreeSet<Ipv4Prefix>>,
}

impl TypeAccumulator {
    /// An empty accumulator over the given reference data.
    pub fn new(refdata: Arc<ReferenceData>) -> Self {
        TypeAccumulator {
            refdata,
            providers: BTreeMap::new(),
            users: BTreeMap::new(),
            prefixes: BTreeMap::new(),
        }
    }
}

impl EventAccumulator for TypeAccumulator {
    type Output = Vec<TypeRow>;

    fn observe(&mut self, event: &BlackholeEvent) {
        for provider in &event.providers {
            let ty = provider_type(provider, &self.refdata);
            self.providers.entry(ty).or_default().insert(*provider);
            self.users.entry(ty).or_default().extend(event.users.iter().copied());
            self.prefixes.entry(ty).or_default().insert(event.prefix);
        }
    }

    fn merge(&mut self, other: Self) {
        for (ty, set) in other.providers {
            self.providers.entry(ty).or_default().extend(set);
        }
        for (ty, set) in other.users {
            self.users.entry(ty).or_default().extend(set);
        }
        for (ty, set) in other.prefixes {
            self.prefixes.entry(ty).or_default().extend(set);
        }
    }

    fn finalize(self) -> Vec<TypeRow> {
        let refdata = &self.refdata;
        let mut rows = Vec::new();
        for ty in NetworkType::ALL {
            let provs = self.providers.get(&ty).cloned().unwrap_or_default();
            let direct = provs
                .iter()
                .filter(|p| {
                    let asn = match p {
                        ProviderId::As(asn) => Some(*asn),
                        ProviderId::Ixp(id) => refdata.route_server_of(*id),
                    };
                    asn.is_some_and(|a| refdata.has_any_direct_feed(a))
                })
                .count();
            rows.push(TypeRow {
                network_type: ty,
                providers: provs.len(),
                users: self.users.get(&ty).map_or(0, BTreeSet::len),
                prefixes: self.prefixes.get(&ty).map_or(0, BTreeSet::len),
                direct_feed_fraction: ratio(direct, provs.len()),
            });
        }
        rows
    }
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

/// Fig. 4 as a mergeable accumulator: per-day distinct-entity sets over
/// a fixed window.
#[derive(Debug, Clone)]
pub struct DailySeriesAccumulator {
    first_day: u64,
    last_day: u64,
    providers: Vec<BTreeSet<ProviderId>>,
    users: Vec<BTreeSet<Asn>>,
    prefixes: Vec<BTreeSet<Ipv4Prefix>>,
}

impl DailySeriesAccumulator {
    /// An empty accumulator over `[window_start, window_end)`; an
    /// inverted or zero-length window is an empty series.
    pub fn new(window_start: SimTime, window_end: SimTime) -> Self {
        let first_day = window_start.day_index();
        let last_day = window_end.day_index();
        let days = last_day.saturating_sub(first_day) as usize;
        DailySeriesAccumulator {
            first_day,
            last_day,
            providers: vec![BTreeSet::new(); days],
            users: vec![BTreeSet::new(); days],
            prefixes: vec![BTreeSet::new(); days],
        }
    }
}

impl EventAccumulator for DailySeriesAccumulator {
    type Output = Vec<DailyPoint>;

    fn observe(&mut self, event: &BlackholeEvent) {
        let days = self.providers.len();
        let from = event.start.day_index().max(self.first_day);
        let to = event
            .end
            .map(|e| e.day_index())
            .unwrap_or(self.last_day.saturating_sub(1))
            .min(self.last_day.saturating_sub(1));
        for day in from..=to {
            if day < self.first_day {
                continue;
            }
            let idx = (day - self.first_day) as usize;
            if idx >= days {
                break;
            }
            self.providers[idx].extend(event.providers.iter().copied());
            self.users[idx].extend(event.users.iter().copied());
            self.prefixes[idx].insert(event.prefix);
        }
    }

    fn merge(&mut self, other: Self) {
        assert_eq!(
            (self.first_day, self.last_day),
            (other.first_day, other.last_day),
            "daily-series accumulators must share one window"
        );
        for (mine, theirs) in self.providers.iter_mut().zip(other.providers) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.users.iter_mut().zip(other.users) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.prefixes.iter_mut().zip(other.prefixes) {
            mine.extend(theirs);
        }
    }

    fn finalize(self) -> Vec<DailyPoint> {
        (0..self.providers.len())
            .map(|idx| DailyPoint {
                day: SimTime::from_unix((self.first_day + idx as u64) * 86_400),
                providers: self.providers[idx].len(),
                users: self.users[idx].len(),
                prefixes: self.prefixes[idx].len(),
            })
            .collect()
    }
}

/// Fig. 5(a) as a mergeable accumulator: per-provider distinct
/// blackholed-prefix counts.
#[derive(Debug, Clone)]
pub struct ProviderPrefixAccumulator {
    refdata: Arc<ReferenceData>,
    map: BTreeMap<ProviderId, BTreeSet<Ipv4Prefix>>,
}

impl ProviderPrefixAccumulator {
    /// An empty accumulator over the given reference data.
    pub fn new(refdata: Arc<ReferenceData>) -> Self {
        ProviderPrefixAccumulator { refdata, map: BTreeMap::new() }
    }
}

impl EventAccumulator for ProviderPrefixAccumulator {
    type Output = Vec<(ProviderId, NetworkType, usize)>;

    fn observe(&mut self, event: &BlackholeEvent) {
        for provider in &event.providers {
            self.map.entry(*provider).or_default().insert(event.prefix);
        }
    }

    fn merge(&mut self, other: Self) {
        for (provider, set) in other.map {
            self.map.entry(provider).or_default().extend(set);
        }
    }

    fn finalize(self) -> Vec<(ProviderId, NetworkType, usize)> {
        let refdata = &self.refdata;
        self.map
            .into_iter()
            .map(|(p, set)| {
                let ty = provider_type(&p, refdata);
                (p, ty, set.len())
            })
            .collect()
    }
}

/// Fig. 5(b) as a mergeable accumulator: per-user distinct
/// blackholed-prefix counts, with the user's network type.
#[derive(Debug, Clone)]
pub struct UserPrefixAccumulator {
    refdata: Arc<ReferenceData>,
    map: BTreeMap<Asn, BTreeSet<Ipv4Prefix>>,
}

impl UserPrefixAccumulator {
    /// An empty accumulator over the given reference data.
    pub fn new(refdata: Arc<ReferenceData>) -> Self {
        UserPrefixAccumulator { refdata, map: BTreeMap::new() }
    }
}

impl EventAccumulator for UserPrefixAccumulator {
    type Output = Vec<(Asn, NetworkType, usize)>;

    fn observe(&mut self, event: &BlackholeEvent) {
        for user in &event.users {
            self.map.entry(*user).or_default().insert(event.prefix);
        }
    }

    fn merge(&mut self, other: Self) {
        for (user, set) in other.map {
            self.map.entry(user).or_default().extend(set);
        }
    }

    fn finalize(self) -> Vec<(Asn, NetworkType, usize)> {
        let refdata = &self.refdata;
        self.map.into_iter().map(|(asn, set)| (asn, refdata.network_type(asn), set.len())).collect()
    }
}

/// Fig. 6 as a mergeable accumulator: the provider and user ASN sets,
/// counted per country (providers, users) at `finalize`.
#[derive(Debug, Clone)]
pub struct CountryAccumulator {
    refdata: Arc<ReferenceData>,
    providers: BTreeSet<Asn>,
    users: BTreeSet<Asn>,
}

impl CountryAccumulator {
    /// An empty accumulator over the given reference data.
    pub fn new(refdata: Arc<ReferenceData>) -> Self {
        CountryAccumulator { refdata, providers: BTreeSet::new(), users: BTreeSet::new() }
    }
}

impl EventAccumulator for CountryAccumulator {
    type Output = (BTreeMap<&'static str, usize>, BTreeMap<&'static str, usize>);

    fn observe(&mut self, event: &BlackholeEvent) {
        for provider in &event.providers {
            match provider {
                ProviderId::As(asn) => {
                    self.providers.insert(*asn);
                }
                ProviderId::Ixp(id) => {
                    if let Some(asn) = self.refdata.route_server_of(*id) {
                        self.providers.insert(asn);
                    }
                }
            }
        }
        self.users.extend(event.users.iter().copied());
    }

    fn merge(&mut self, other: Self) {
        self.providers.extend(other.providers);
        self.users.extend(other.users);
    }

    fn finalize(self) -> Self::Output {
        let refdata = &self.refdata;
        let count = |set: &BTreeSet<Asn>| {
            let mut map: BTreeMap<&'static str, usize> = BTreeMap::new();
            for asn in set {
                *map.entry(refdata.country(*asn)).or_default() += 1;
            }
            map
        };
        (count(&self.providers), count(&self.users))
    }
}

/// Fig. 7(b) as a mergeable accumulator: histogram of #providers per
/// event.
#[derive(Debug, Clone, Default)]
pub struct ProvidersPerEventAccumulator {
    hist: BTreeMap<usize, usize>,
}

impl EventAccumulator for ProvidersPerEventAccumulator {
    type Output = BTreeMap<usize, usize>;

    fn observe(&mut self, event: &BlackholeEvent) {
        *self.hist.entry(event.providers.len()).or_default() += 1;
    }

    fn merge(&mut self, other: Self) {
        for (k, n) in other.hist {
            *self.hist.entry(k).or_default() += n;
        }
    }

    fn finalize(self) -> BTreeMap<usize, usize> {
        self.hist
    }
}

/// Fig. 7(c) as a mergeable accumulator: histogram of
/// collector↔provider AS distances; the `NoPath` bucket is the bundling
/// share.
#[derive(Debug, Clone, Default)]
pub struct DistanceAccumulator {
    hist: BTreeMap<DetectionDistance, usize>,
}

impl EventAccumulator for DistanceAccumulator {
    type Output = BTreeMap<DetectionDistance, usize>;

    fn observe(&mut self, event: &BlackholeEvent) {
        for d in &event.distances {
            *self.hist.entry(*d).or_default() += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        for (d, n) in other.hist {
            *self.hist.entry(d).or_default() += n;
        }
    }

    fn finalize(self) -> BTreeMap<DetectionDistance, usize> {
        self.hist
    }
}

/// Fig. 8(a) as a mergeable accumulator: event durations, ascending,
/// open events measured to `now`. The sample list is sorted at
/// `finalize` so the output is independent of observation order.
#[derive(Debug, Clone)]
pub struct DurationAccumulator {
    now: SimTime,
    samples: Vec<SimDuration>,
}

impl DurationAccumulator {
    /// An empty accumulator measuring open events to `now`.
    pub fn new(now: SimTime) -> Self {
        DurationAccumulator { now, samples: Vec::new() }
    }
}

impl EventAccumulator for DurationAccumulator {
    type Output = Vec<SimDuration>;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.samples.push(event.duration(self.now));
    }

    fn merge(&mut self, other: Self) {
        assert_eq!(self.now, other.now, "duration accumulators must share one `now`");
        self.samples.extend(other.samples);
    }

    fn finalize(mut self) -> Vec<SimDuration> {
        self.samples.sort_unstable();
        self.samples
    }
}

/// The distinct blackholed prefixes (the Fig. 7(a) scan census and §8
/// reputation input) as a mergeable accumulator.
#[derive(Debug, Clone, Default)]
pub struct PrefixSetAccumulator {
    prefixes: BTreeSet<Ipv4Prefix>,
}

impl EventAccumulator for PrefixSetAccumulator {
    type Output = BTreeSet<Ipv4Prefix>;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.prefixes.insert(event.prefix);
    }

    fn merge(&mut self, other: Self) {
        self.prefixes.extend(other.prefixes);
    }

    fn finalize(self) -> BTreeSet<Ipv4Prefix> {
        self.prefixes
    }
}

#[cfg(test)]
mod tests {
    use bh_routing::{deploy, CollectorConfig};
    use bh_topology::{IxpId, TopologyBuilder, TopologyConfig};

    use crate::session::DatasetVisibility;

    use super::*;

    fn refdata() -> Arc<ReferenceData> {
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let d = deploy(&t, &CollectorConfig::tiny(4));
        Arc::new(ReferenceData::build(&t, &d))
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
        let series =
            DailySeriesAccumulator::new(SimTime::ZERO, SimTime::from_unix(4 * day)).fold(&events);
        assert_eq!(series.len(), 4);
        assert_eq!((series[0].providers, series[0].users, series[0].prefixes), (1, 1, 1));
        assert_eq!((series[1].providers, series[1].users, series[1].prefixes), (2, 2, 2));
        assert_eq!((series[2].providers, series[2].users, series[2].prefixes), (1, 1, 1));
        assert_eq!((series[3].providers, series[3].users, series[3].prefixes), (1, 1, 1));
    }

    #[test]
    fn daily_series_accumulator_merges_like_batch() {
        let day = 86_400u64;
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 10, Some(day + 10)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(2))], vec![11], day, Some(2 * day)),
            event("3.3.3.3/32", vec![ProviderId::As(Asn::new(1))], vec![10], 2 * day, None),
        ];
        let batch =
            DailySeriesAccumulator::new(SimTime::ZERO, SimTime::from_unix(4 * day)).fold(&events);
        // Split the stream 1 / 2 and merge — in reversed merge order.
        let mut a = DailySeriesAccumulator::new(SimTime::ZERO, SimTime::from_unix(4 * day));
        a.observe(&events[0]);
        let mut b = DailySeriesAccumulator::new(SimTime::ZERO, SimTime::from_unix(4 * day));
        b.observe(&events[1]);
        b.observe(&events[2]);
        b.merge(a);
        assert_eq!(b.finalize(), batch);
    }

    #[test]
    fn daily_series_inverted_or_empty_window_is_an_empty_series() {
        let day = 86_400u64;
        let e = event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 10, Some(day));
        for (start, end) in [(3 * day, day), (2 * day, 2 * day)] {
            let window =
                || DailySeriesAccumulator::new(SimTime::from_unix(start), SimTime::from_unix(end));
            assert!(window().finalize().is_empty());
            let mut a = window();
            a.observe(&e);
            a.merge(window());
            assert!(a.finalize().is_empty());
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
        let hist = ProvidersPerEventAccumulator::default().fold(&events);
        assert_eq!(hist.get(&1), Some(&2));
        assert_eq!(hist.get(&2), Some(&1));
    }

    #[test]
    fn table4_groups_by_provider_type() {
        let r = refdata();
        // Use a real IXP id from refdata's topology.
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::Ixp(IxpId(0))], vec![10, 11], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::Ixp(IxpId(0))], vec![10], 0, Some(1)),
        ];
        let rows = TypeAccumulator::new(r).fold(&events);
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
        let r = refdata();
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::Ixp(IxpId(0))], vec![10, 11], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(9))], vec![10], 0, Some(1)),
        ];
        let mut a = TypeAccumulator::new(r.clone());
        a.observe(&events[1]);
        let mut b = TypeAccumulator::new(r.clone());
        b.observe(&events[0]);
        a.merge(b);
        assert_eq!(a.finalize(), TypeAccumulator::new(r).fold(&events));
    }

    #[test]
    fn table3_unique_counting() {
        let r = refdata();
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
        let mut whole = VisibilityAccumulator::new(r.clone());
        whole.observe_visibility(&per_dataset);
        let rows = whole.finalize();
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
        let mut acc = VisibilityAccumulator::new(r);
        for (dataset, vis) in &per_dataset {
            let single = BTreeMap::from([(*dataset, vis.clone())]);
            acc.observe_visibility(&single);
        }
        assert_eq!(acc.finalize(), rows);
    }

    #[test]
    fn per_country_uses_refdata() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let d = deploy(&t, &CollectorConfig::tiny(4));
        let r = Arc::new(ReferenceData::build(&t, &d));
        let some_as = t.ases().next().unwrap().asn;
        let events = vec![event(
            "1.1.1.1/32",
            vec![ProviderId::As(some_as)],
            vec![some_as.value()],
            0,
            Some(1),
        )];
        let (providers, users) = CountryAccumulator::new(r.clone()).fold(&events);
        assert_eq!(providers.values().sum::<usize>(), 1);
        assert_eq!(users.values().sum::<usize>(), 1);
        assert!(providers.contains_key(r.country(some_as)));
    }

    #[test]
    fn prefix_count_helpers() {
        let r = refdata();
        let events = vec![
            event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![10], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![10], 0, Some(1)),
            event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![10], 5, Some(6)),
        ];
        let per_provider = ProviderPrefixAccumulator::new(r.clone()).fold(&events);
        assert_eq!(per_provider.len(), 1);
        assert_eq!(per_provider[0].2, 2); // distinct prefixes
        let per_user = UserPrefixAccumulator::new(r).fold(&events);
        assert_eq!(per_user.len(), 1);
        assert_eq!(per_user[0].2, 2);
        assert_eq!(
            PrefixSetAccumulator::default().fold(&events),
            BTreeSet::from(["1.1.1.1/32".parse().unwrap(), "2.2.2.2/32".parse().unwrap()])
        );
    }

    #[test]
    fn distance_histogram_counts_event_distances() {
        let mut e1 = event("1.1.1.1/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(1));
        e1.distances = BTreeSet::from([DetectionDistance::NoPath, DetectionDistance::Hops(1)]);
        let e2 = event("2.2.2.2/32", vec![ProviderId::As(Asn::new(1))], vec![], 0, Some(1));
        let hist = DistanceAccumulator::default().fold(&[e1, e2]);
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
        let ds = DurationAccumulator::new(SimTime::from_unix(1_100)).fold(&events);
        assert_eq!(
            ds,
            vec![SimDuration::secs(10), SimDuration::secs(500), SimDuration::secs(1_000)]
        );
    }
}
