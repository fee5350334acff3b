//! Mergeable one-pass accumulators: the streaming analytics layer.
//!
//! The paper derives every table and figure from a single longitudinal
//! pass over years of BGP updates. This module makes the analytics layer
//! match that shape: an [`EventAccumulator`] folds a stream of
//! [`BlackholeEvent`]s (plus the session's per-dataset visibility) into
//! a paper metric, can be **merged** with a sibling accumulator fed a
//! disjoint part of the stream, and **finalizes** into exactly what the
//! [`fold`](EventAccumulator::fold) over the materialized event list
//! returns.
//!
//! The contract every implementation upholds:
//!
//! * `observe` is **order-insensitive**: any permutation of the same
//!   event multiset finalizes to the same output.
//! * `merge` is **associative and commutative** (a property test in
//!   `tests/tests/analytics_streaming.rs` asserts this), so per-shard
//!   accumulators can be folded in any grouping at the
//!   [`ShardedSession`](crate::ShardedSession) barrier.
//! * `finalize` of a streamed/merged accumulator is **equal** to
//!   [`fold`](EventAccumulator::fold) over the materialized event list —
//!   the one batch form, provided by the trait, so each paper metric has
//!   exactly one implementation.
//!
//! [`AnalyticsPipeline`] multiplexes one event stream into every
//! registered paper-metric accumulator;
//! [`InferenceSession::drain_closed_into`](crate::InferenceSession::drain_closed_into)
//! and [`InferenceSession::finish_with`](crate::InferenceSession::finish_with)
//! feed it mid-stream without ever materializing the full event `Vec`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::DataSource;

use crate::analytics::{
    CountryAccumulator, DailySeriesAccumulator, DistanceAccumulator, DurationAccumulator,
    PrefixSetAccumulator, ProviderPrefixAccumulator, ProvidersPerEventAccumulator, TypeAccumulator,
    UserPrefixAccumulator, VisibilityAccumulator,
};
use crate::events::{BlackholeEvent, PeriodAccumulator};
use crate::refdata::ReferenceData;
use crate::session::{DatasetVisibility, InferenceResult};

/// A mergeable, one-pass fold over a stream of blackholing events.
///
/// See the [module docs](self) for the order-insensitivity /
/// merge-associativity / fold-equality contract.
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

    /// Fold a sibling accumulator (fed a disjoint part of the stream)
    /// into this one. Associative and commutative.
    fn merge(&mut self, other: Self)
    where
        Self: Sized;

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

/// The identity accumulator: collects the events themselves.
///
/// This is what makes the event list itself "just another metric": a
/// plain [`InferenceSession::finish`](crate::InferenceSession::finish)
/// and the sharded runner both stream into an `EventCollector` and
/// restore the canonical `(start, prefix)` order at `finalize`.
#[derive(Debug, Clone, Default)]
pub struct EventCollector {
    events: Vec<BlackholeEvent>,
}

impl EventCollector {
    /// Events collected so far (observation order).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// No events collected yet?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventAccumulator for EventCollector {
    type Output = Vec<BlackholeEvent>;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.events.push(event.clone());
    }

    fn observe_owned(&mut self, event: BlackholeEvent) {
        self.events.push(event);
    }

    fn merge(&mut self, other: Self) {
        self.events.extend(other.events);
    }

    /// The collected events in canonical `(start, prefix)` order — the
    /// exact order a single-threaded batch run produces.
    fn finalize(mut self) -> Vec<BlackholeEvent> {
        self.events.sort_by_key(|e| (e.start, e.prefix));
        self.events
    }
}

/// The time parameters the figure accumulators need: the analysis
/// window (Fig. 4 daily buckets), the "now" used to measure still-open
/// durations (Fig. 8), and the §9 grouping timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticsConfig {
    /// Start of the analysis window (inclusive).
    pub window_start: SimTime,
    /// End of the analysis window (exclusive).
    pub window_end: SimTime,
    /// Reference time for open-event durations.
    pub now: SimTime,
    /// The event-grouping timeout (the paper uses 5 minutes).
    pub grouping_timeout: SimDuration,
}

impl AnalyticsConfig {
    /// A window `[start, end)` with `now = end` and the paper's 5-minute
    /// grouping timeout.
    pub fn window(window_start: SimTime, window_end: SimTime) -> Self {
        AnalyticsConfig {
            window_start,
            window_end,
            now: window_end,
            grouping_timeout: SimDuration::mins(5),
        }
    }
}

/// Everything the pipeline computes: one field per paper table/figure,
/// each exactly what its accumulator's `fold` over the whole event list
/// (Table 3: `observe_visibility` of the whole run) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsReport {
    /// Table 3 rows (per-dataset visibility).
    pub table3: Vec<crate::analytics::VisibilityRow>,
    /// Table 4 rows (visibility by provider network type).
    pub table4: Vec<crate::analytics::TypeRow>,
    /// Fig. 4 daily longitudinal series.
    pub daily: Vec<crate::analytics::DailyPoint>,
    /// Fig. 5(a) per-provider blackholed-prefix counts.
    pub prefixes_per_provider: Vec<(crate::events::ProviderId, bh_topology::NetworkType, usize)>,
    /// Fig. 5(b) per-user blackholed-prefix counts.
    pub prefixes_per_user: Vec<(bh_bgp_types::asn::Asn, bh_topology::NetworkType, usize)>,
    /// Fig. 6 provider counts per country.
    pub provider_countries: BTreeMap<&'static str, usize>,
    /// Fig. 6 user counts per country.
    pub user_countries: BTreeMap<&'static str, usize>,
    /// Fig. 7(b) histogram of #providers per event.
    pub providers_per_event: BTreeMap<usize, usize>,
    /// Fig. 7(c) detection-distance histogram.
    pub distance_histogram: BTreeMap<crate::events::DetectionDistance, usize>,
    /// Fig. 8(a) event durations, ascending.
    pub durations: Vec<SimDuration>,
    /// Fig. 8 grouped periods (§9 grouping at the configured timeout).
    pub periods: Vec<crate::events::BlackholePeriod>,
    /// Distinct blackholed prefixes (Fig. 7(a) / §8 input census).
    pub blackholed_prefixes: std::collections::BTreeSet<bh_bgp_types::prefix::Ipv4Prefix>,
}

/// Multiplexes one event stream into every paper-metric accumulator.
///
/// Feed it via [`EventAccumulator::observe`] (it is itself an
/// accumulator), via
/// [`InferenceSession::drain_closed_into`](crate::InferenceSession::drain_closed_into)
/// mid-stream, or per shard through
/// [`SessionBuilder::build_sharded_with`](crate::SessionBuilder::build_sharded_with);
/// per-shard pipelines merge deterministically at the barrier.
#[derive(Debug, Clone)]
pub struct AnalyticsPipeline {
    visibility: VisibilityAccumulator,
    types: TypeAccumulator,
    daily: DailySeriesAccumulator,
    per_provider: ProviderPrefixAccumulator,
    per_user: UserPrefixAccumulator,
    geography: CountryAccumulator,
    providers_per_event: ProvidersPerEventAccumulator,
    distances: DistanceAccumulator,
    durations: DurationAccumulator,
    periods: PeriodAccumulator,
    prefixes: PrefixSetAccumulator,
}

impl AnalyticsPipeline {
    /// Register every paper-metric accumulator over the given reference
    /// data and time parameters.
    pub fn new(refdata: Arc<ReferenceData>, config: AnalyticsConfig) -> Self {
        AnalyticsPipeline {
            visibility: VisibilityAccumulator::new(refdata.clone()),
            types: TypeAccumulator::new(refdata.clone()),
            daily: DailySeriesAccumulator::new(config.window_start, config.window_end),
            per_provider: ProviderPrefixAccumulator::new(refdata.clone()),
            per_user: UserPrefixAccumulator::new(refdata.clone()),
            geography: CountryAccumulator::new(refdata),
            providers_per_event: ProvidersPerEventAccumulator::default(),
            distances: DistanceAccumulator::default(),
            durations: DurationAccumulator::new(config.now),
            periods: PeriodAccumulator::new(config.grouping_timeout),
            prefixes: PrefixSetAccumulator::default(),
        }
    }

    /// Fold a fully materialized batch result in — the bridge for
    /// callers that already ran batch inference.
    pub fn observe_result(&mut self, result: &InferenceResult) {
        for event in &result.events {
            self.observe(event);
        }
        self.observe_visibility(&result.per_dataset);
    }

    /// A point-in-time [`AnalyticsReport`] over everything observed so
    /// far, without consuming the pipeline — the incremental snapshot a
    /// live service publishes between checkpoints. Accumulators are
    /// order-insensitive, so a snapshot over a prefix of the stream is
    /// exactly the report a batch run over that prefix would produce.
    pub fn snapshot(&self) -> AnalyticsReport {
        self.clone().finalize()
    }
}

impl EventAccumulator for AnalyticsPipeline {
    type Output = AnalyticsReport;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.visibility.observe(event);
        self.types.observe(event);
        self.daily.observe(event);
        self.per_provider.observe(event);
        self.per_user.observe(event);
        self.geography.observe(event);
        self.providers_per_event.observe(event);
        self.distances.observe(event);
        self.durations.observe(event);
        self.periods.observe(event);
        self.prefixes.observe(event);
    }

    fn observe_visibility(&mut self, per_dataset: &BTreeMap<DataSource, DatasetVisibility>) {
        self.visibility.observe_visibility(per_dataset);
    }

    fn merge(&mut self, other: Self) {
        self.visibility.merge(other.visibility);
        self.types.merge(other.types);
        self.daily.merge(other.daily);
        self.per_provider.merge(other.per_provider);
        self.per_user.merge(other.per_user);
        self.geography.merge(other.geography);
        self.providers_per_event.merge(other.providers_per_event);
        self.distances.merge(other.distances);
        self.durations.merge(other.durations);
        self.periods.merge(other.periods);
        self.prefixes.merge(other.prefixes);
    }

    fn finalize(self) -> AnalyticsReport {
        let (provider_countries, user_countries) = self.geography.finalize();
        AnalyticsReport {
            table3: self.visibility.finalize(),
            table4: self.types.finalize(),
            daily: self.daily.finalize(),
            prefixes_per_provider: self.per_provider.finalize(),
            prefixes_per_user: self.per_user.finalize(),
            provider_countries,
            user_countries,
            providers_per_event: self.providers_per_event.finalize(),
            distance_histogram: self.distances.finalize(),
            durations: self.durations.finalize(),
            periods: self.periods.finalize(),
            blackholed_prefixes: self.prefixes.finalize(),
        }
    }
}
