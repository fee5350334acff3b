//! One-pass accumulators: the streaming analytics layer.
//!
//! The paper derives every table and figure from a single longitudinal
//! pass over years of BGP updates. This module makes the analytics layer
//! match that shape: an [`EventAccumulator`] folds a stream of
//! [`BlackholeEvent`]s (plus the session's per-dataset visibility) into
//! its output and **finalizes** into exactly what the
//! [`fold`](EventAccumulator::fold) over the materialized event list
//! returns.
//!
//! The contract every implementation upholds:
//!
//! * `observe` is **order-insensitive**: any permutation of the same
//!   event multiset finalizes to the same output (the event list itself,
//!   `Vec<BlackholeEvent>`, is the one exception: it keeps observation
//!   order, and [`InferenceResult`] sorts it). A property test in
//!   `tests/tests/analytics_streaming.rs` feeds permutations.
//! * `finalize` of a streamed accumulator is **equal** to
//!   [`fold`](EventAccumulator::fold) over the materialized event list.
//!
//! [`AnalyticsPipeline`] is the one accumulator behind every paper table
//! and figure;
//! [`InferenceSession::drain_closed_into`](crate::InferenceSession::drain_closed_into)
//! and [`InferenceSession::finish_with`](crate::InferenceSession::finish_with)
//! feed it mid-stream without ever materializing the full event `Vec`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::DataSource;
use bh_topology::NetworkType;

use crate::analytics::{
    feeds_directly, provider_asn, provider_type, ratio, visibility_rows, DailyPoint, TypeRow,
    VisibilityRow,
};
use crate::events::{
    BlackholeEvent, BlackholePeriod, DetectionDistance, PeriodAccumulator, ProviderId,
};
use crate::refdata::ReferenceData;
use crate::session::{DatasetVisibility, InferenceResult};

/// A one-pass fold over a stream of blackholing events.
///
/// See the [module docs](self) for the order-insensitivity /
/// fold-equality contract.
pub trait EventAccumulator {
    /// What `finalize` (and `fold`) produces.
    type Output;

    /// Fold one event into the accumulator.
    fn observe(&mut self, event: &BlackholeEvent);

    /// Fold one owned event in; lets collectors keep the allocation
    /// instead of cloning. Defaults to `observe(&event)`.
    fn observe_owned(&mut self, event: BlackholeEvent) {
        self.observe(&event);
    }

    /// Fold in a per-dataset visibility snapshot (Table 3's input, which
    /// the session maintains alongside the events). Most metrics derive
    /// from events alone; the default is a no-op.
    fn observe_visibility(&mut self, _per_dataset: &BTreeMap<DataSource, DatasetVisibility>) {}

    /// Produce the metric.
    fn finalize(self) -> Self::Output
    where
        Self: Sized;

    /// The batch form: `observe` every event of a materialized slice,
    /// then `finalize`.
    fn fold(mut self, events: &[BlackholeEvent]) -> Self::Output
    where
        Self: Sized,
    {
        for event in events {
            self.observe(event);
        }
        self.finalize()
    }
}

/// The identity accumulator: the events themselves, in the order they
/// were observed (the order a live daemon numbers them in).
/// [`InferenceResult`] applies the canonical `(start, prefix)` order.
impl EventAccumulator for Vec<BlackholeEvent> {
    type Output = Vec<BlackholeEvent>;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.push(event.clone());
    }

    fn observe_owned(&mut self, event: BlackholeEvent) {
        self.push(event);
    }

    fn finalize(self) -> Vec<BlackholeEvent> {
        self
    }
}

/// Two accumulators fed the same stream: each sees every event, and the
/// owned event goes to the first after the second has observed it, so a
/// `(Vec<BlackholeEvent>, _)` pair keeps the events without a clone.
impl<A: EventAccumulator, B: EventAccumulator> EventAccumulator for (A, B) {
    type Output = (A::Output, B::Output);

    fn observe(&mut self, event: &BlackholeEvent) {
        self.0.observe(event);
        self.1.observe(event);
    }

    fn observe_owned(&mut self, event: BlackholeEvent) {
        self.1.observe(&event);
        self.0.observe_owned(event);
    }

    fn observe_visibility(&mut self, per_dataset: &BTreeMap<DataSource, DatasetVisibility>) {
        self.0.observe_visibility(per_dataset);
        self.1.observe_visibility(per_dataset);
    }

    fn finalize(self) -> Self::Output {
        (self.0.finalize(), self.1.finalize())
    }
}

/// §9 ("BGP Blackholing Duration Patterns") groups the events of one
/// prefix into a period when the next starts at most 5 minutes after the
/// previous ends, collapsing operators' ON/OFF probing.
pub(crate) const GROUPING_GAP: SimDuration = SimDuration::mins(5);

/// The analysis window: Fig. 4's daily buckets, and the end to which
/// Fig. 8 measures still-open events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticsConfig {
    /// Start of the analysis window (inclusive).
    pub window_start: SimTime,
    /// End of the analysis window (exclusive); open events last until it.
    pub window_end: SimTime,
}

impl AnalyticsConfig {
    /// The window `[start, end)`.
    pub fn window(window_start: SimTime, window_end: SimTime) -> Self {
        AnalyticsConfig { window_start, window_end }
    }
}

/// Everything the pipeline computes: one field per paper table/figure,
/// each exactly what [`AnalyticsPipeline`]'s `fold` over the whole event
/// list (Table 3: `observe_visibility` of the whole run) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsReport {
    /// Table 3 rows (per-dataset visibility).
    pub table3: Vec<VisibilityRow>,
    /// Table 4 rows (visibility by provider network type).
    pub table4: Vec<TypeRow>,
    /// Fig. 4 daily longitudinal series.
    pub daily: Vec<DailyPoint>,
    /// Fig. 5(a) per-provider blackholed-prefix counts.
    pub prefixes_per_provider: Vec<(ProviderId, NetworkType, usize)>,
    /// Fig. 5(b) per-user blackholed-prefix counts.
    pub prefixes_per_user: Vec<(Asn, NetworkType, usize)>,
    /// Fig. 6 provider counts per country.
    pub provider_countries: BTreeMap<&'static str, usize>,
    /// Fig. 6 user counts per country.
    pub user_countries: BTreeMap<&'static str, usize>,
    /// Fig. 7(b) histogram of #providers per event.
    pub providers_per_event: BTreeMap<usize, usize>,
    /// Fig. 7(c) detection-distance histogram.
    pub distance_histogram: BTreeMap<DetectionDistance, usize>,
    /// Fig. 8(a) event durations, ascending.
    pub durations: Vec<SimDuration>,
    /// Fig. 8 grouped periods (§9 grouping at its 5-minute gap).
    pub periods: Vec<BlackholePeriod>,
    /// Distinct blackholed prefixes (Fig. 7(a) / §8 input census).
    pub blackholed_prefixes: BTreeSet<Ipv4Prefix>,
}

/// One blackholing user: the prefixes it blackholed (Fig. 5(b)) and the
/// types of the providers it blackholed through (Table 4's user column).
#[derive(Debug, Clone, Default)]
struct UserFacts {
    prefixes: BTreeSet<Ipv4Prefix>,
    provider_types: BTreeSet<NetworkType>,
}

/// Who was active on one day of the window (Fig. 4).
#[derive(Debug, Clone, Default)]
struct Day {
    providers: BTreeSet<ProviderId>,
    users: BTreeSet<Asn>,
    prefixes: BTreeSet<Ipv4Prefix>,
}

/// The one accumulator behind every paper table and figure: one pass
/// over the event stream keeps each provider, user and prefix once, and
/// [`finalize`](EventAccumulator::finalize) derives every
/// [`AnalyticsReport`] field from that state — Table 4, Fig. 5 and Fig. 6
/// by grouping the provider and user maps.
///
/// Feed it via [`EventAccumulator::observe`], or via
/// [`InferenceSession::drain_closed_into`](crate::InferenceSession::drain_closed_into)
/// mid-stream and
/// [`InferenceSession::finish_with`](crate::InferenceSession::finish_with)
/// at the end.
#[derive(Debug, Clone)]
pub struct AnalyticsPipeline {
    refdata: Arc<ReferenceData>,
    config: AnalyticsConfig,
    /// Table 3: which platform saw which provider, user and prefix.
    per_dataset: BTreeMap<DataSource, DatasetVisibility>,
    /// Every provider and the prefixes blackholed through it.
    providers: BTreeMap<ProviderId, BTreeSet<Ipv4Prefix>>,
    /// Every user.
    users: BTreeMap<Asn, UserFacts>,
    /// One entry per day of the window.
    days: Vec<Day>,
    /// Fig. 7(b): events per provider count.
    providers_per_event: BTreeMap<usize, usize>,
    /// Fig. 7(c): events per detection distance.
    distances: BTreeMap<DetectionDistance, usize>,
    /// Fig. 8(a): durations, open events measured to `config.window_end`.
    durations: Vec<SimDuration>,
    /// The §9 grouping; its prefixes are the blackholed-prefix census.
    periods: PeriodAccumulator,
}

impl AnalyticsPipeline {
    /// An empty pipeline over the given reference data and time
    /// parameters; an inverted or zero-length window is an empty Fig. 4
    /// series.
    pub fn new(refdata: Arc<ReferenceData>, config: AnalyticsConfig) -> Self {
        let days = config.window_end.day_index().saturating_sub(config.window_start.day_index());
        AnalyticsPipeline {
            refdata,
            config,
            per_dataset: BTreeMap::new(),
            providers: BTreeMap::new(),
            users: BTreeMap::new(),
            days: vec![Day::default(); days as usize],
            providers_per_event: BTreeMap::new(),
            distances: BTreeMap::new(),
            durations: Vec::new(),
            periods: PeriodAccumulator::new(GROUPING_GAP),
        }
    }

    /// Fold a fully materialized batch result in — the bridge for
    /// callers that already ran batch inference. It is a reference the
    /// tests and the benchmark compare the streamed report against; no
    /// `Study` run calls it.
    pub fn observe_result(&mut self, result: &InferenceResult) {
        for event in &result.events {
            self.observe(event);
        }
        self.observe_visibility(&result.per_dataset);
    }

    /// A point-in-time [`AnalyticsReport`] over everything observed so
    /// far, without consuming the pipeline — the incremental snapshot a
    /// live service publishes between checkpoints. Observation is
    /// order-insensitive, so a snapshot over a prefix of the stream is
    /// exactly the report a batch run over that prefix would produce.
    pub fn snapshot(&self) -> AnalyticsReport {
        self.clone().finalize()
    }
}

impl EventAccumulator for AnalyticsPipeline {
    type Output = AnalyticsReport;

    fn observe(&mut self, event: &BlackholeEvent) {
        let refdata = &self.refdata;
        let types: BTreeSet<NetworkType> =
            event.providers.iter().map(|p| provider_type(p, refdata)).collect();
        for provider in &event.providers {
            self.providers.entry(*provider).or_default().insert(event.prefix);
        }
        for user in &event.users {
            let facts = self.users.entry(*user).or_default();
            facts.prefixes.insert(event.prefix);
            facts.provider_types.extend(&types);
        }
        // Active from its start day through its end day (the window's
        // last day while open).
        let first = self.config.window_start.day_index();
        let from = event.start.day_index().saturating_sub(first);
        let to = event.end.map_or(u64::MAX, |end| (end.day_index() + 1).saturating_sub(first));
        for day in self.days.iter_mut().take(to as usize).skip(from as usize) {
            day.providers.extend(&event.providers);
            day.users.extend(&event.users);
            day.prefixes.insert(event.prefix);
        }
        *self.providers_per_event.entry(event.providers.len()).or_default() += 1;
        for distance in &event.distances {
            *self.distances.entry(*distance).or_default() += 1;
        }
        self.durations.push(event.duration(self.config.window_end));
        self.periods.observe(event);
    }

    fn observe_visibility(&mut self, per_dataset: &BTreeMap<DataSource, DatasetVisibility>) {
        for (dataset, vis) in per_dataset {
            self.per_dataset.entry(*dataset).or_default().merge(vis);
        }
    }

    fn finalize(mut self) -> AnalyticsReport {
        let refdata = &*self.refdata;
        let typed: Vec<(ProviderId, NetworkType, &BTreeSet<Ipv4Prefix>)> =
            self.providers.iter().map(|(p, set)| (*p, provider_type(p, refdata), set)).collect();
        let table4 = NetworkType::ALL
            .into_iter()
            .map(|ty| {
                let of_type: Vec<_> = typed.iter().filter(|(_, t, _)| *t == ty).collect();
                let prefixes: BTreeSet<&Ipv4Prefix> =
                    of_type.iter().flat_map(|(_, _, set)| set.iter()).collect();
                let direct = of_type.iter().filter(|(p, ..)| feeds_directly(p, None, refdata));
                TypeRow {
                    network_type: ty,
                    providers: of_type.len(),
                    users: self.users.values().filter(|u| u.provider_types.contains(&ty)).count(),
                    prefixes: prefixes.len(),
                    direct_feed_fraction: ratio(direct.count(), of_type.len()),
                }
            })
            .collect();
        let per_country = |asns: BTreeSet<Asn>| {
            let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
            for asn in asns {
                *counts.entry(refdata.country(asn)).or_default() += 1;
            }
            counts
        };
        let first = self.config.window_start.day_index();
        self.durations.sort_unstable();
        let periods = self.periods.finalize();
        AnalyticsReport {
            table3: visibility_rows(&self.per_dataset, refdata),
            table4,
            daily: self
                .days
                .iter()
                .enumerate()
                .map(|(idx, day)| DailyPoint {
                    day: SimTime::from_unix((first + idx as u64) * 86_400),
                    providers: day.providers.len(),
                    users: day.users.len(),
                    prefixes: day.prefixes.len(),
                })
                .collect(),
            prefixes_per_provider: typed.iter().map(|(p, ty, set)| (*p, *ty, set.len())).collect(),
            prefixes_per_user: self
                .users
                .iter()
                .map(|(u, facts)| (*u, refdata.network_type(*u), facts.prefixes.len()))
                .collect(),
            provider_countries: per_country(
                self.providers.keys().filter_map(|p| provider_asn(p, refdata)).collect(),
            ),
            user_countries: per_country(self.users.keys().copied().collect()),
            providers_per_event: self.providers_per_event,
            distance_histogram: self.distances,
            durations: self.durations,
            blackholed_prefixes: periods.iter().map(|p| p.prefix).collect(),
            periods,
        }
    }
}
