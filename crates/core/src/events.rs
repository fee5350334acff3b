//! Blackholing events: the engine's output, and the 5-minute grouping of
//! §9 ("BGP Blackholing Duration Patterns").

use std::collections::BTreeSet;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::DataSource;
use bh_topology::IxpId;

/// A blackholing provider as inferred: either an AS (transit, content…)
/// or an IXP (detected via route server / peering LAN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProviderId {
    /// A network identified by ASN.
    As(Asn),
    /// An IXP identified by PeeringDB id.
    Ixp(IxpId),
}

impl ProviderId {
    /// The ASN, when the provider is a plain network.
    pub fn as_asn(&self) -> Option<Asn> {
        match self {
            ProviderId::As(asn) => Some(*asn),
            ProviderId::Ixp(_) => None,
        }
    }
}

/// AS-distance between a collector peer and the blackholing provider at
/// detection time (Fig. 7(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetectionDistance {
    /// Provider absent from the AS path — detected thanks to community
    /// bundling ("No-path", about 50% of detections in the paper).
    NoPath,
    /// Hops between collector peer and provider; 0 means the collector
    /// sits at the blackholing IXP itself, 1 means the collector peers
    /// directly with the provider.
    Hops(u8),
}

/// One inferred blackholing event for one prefix (correlated across all
/// observing collector peers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackholeEvent {
    /// The blackholed prefix.
    pub prefix: Ipv4Prefix,
    /// All providers inferred during the event.
    pub providers: BTreeSet<ProviderId>,
    /// All inferred blackholing users.
    pub users: BTreeSet<Asn>,
    /// Event start: the first tagged announcement observed.
    pub start: SimTime,
    /// Event end: all peers saw a withdrawal (explicit or implicit);
    /// `None` while still active at the end of the window.
    pub end: Option<SimTime>,
    /// Distinct collector peers that observed the event.
    pub peer_count: usize,
    /// Platforms that observed the event.
    pub datasets: BTreeSet<DataSource>,
    /// Distances at which the providers were detected.
    pub distances: BTreeSet<DetectionDistance>,
    /// Whether any detection relied on bundling (no provider on path).
    pub bundled_detection: bool,
}

impl BlackholeEvent {
    /// The event duration, measured to `now` when still open.
    pub fn duration(&self, now: SimTime) -> SimDuration {
        self.end.unwrap_or(now).since(self.start)
    }
}

/// A [`BlackholeEvent`] as emitted by a *live* pipeline: tagged with a
/// session-scoped sequence number and the emission timestamp.
///
/// Sequence numbers are assigned in emission order, which for a single
/// `InferenceSession` is the deterministic stream-closure order — so a
/// daemon resumed from a checkpoint re-assigns the *same* numbers to the
/// same events, letting consumers deduplicate a kill/resume overlap and
/// detect gaps (`events-since` in the `bh-live` query protocol).
/// `emitted_at - event.end` is the emission latency a live deployment
/// bounds with its `max_latency` budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencedEvent {
    /// Session-scoped emission sequence number, starting at 0.
    pub seq: u64,
    /// Clock time when the daemon emitted the event.
    pub emitted_at: SimTime,
    /// The event itself.
    pub event: BlackholeEvent,
}

impl SequencedEvent {
    /// Emission latency relative to the event's close (zero for events
    /// emitted open, e.g. at end-of-stream flush).
    pub fn latency(&self) -> SimDuration {
        match self.event.end {
            Some(end) => self.emitted_at.since(end),
            None => SimDuration::ZERO,
        }
    }
}

/// A grouped blackholing *period*: consecutive events for the same prefix
/// whose gaps are at most the grouping timeout (the paper uses 5 minutes
/// to collapse the operators' ON/OFF probing pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackholePeriod {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Start of the first constituent event.
    pub start: SimTime,
    /// End of the last constituent event (`None` if the last is open).
    pub end: Option<SimTime>,
    /// Number of constituent events.
    pub event_count: usize,
    /// Union of providers across constituents.
    pub providers: BTreeSet<ProviderId>,
    /// Union of users across constituents.
    pub users: BTreeSet<Asn>,
}

impl BlackholePeriod {
    /// Period duration, measured to `now` when still open.
    pub fn duration(&self, now: SimTime) -> SimDuration {
        self.end.unwrap_or(now).since(self.start)
    }
}

/// The §9 grouping as a one-pass accumulator (events must belong to one
/// run of the engine; grouping is per prefix): per prefix it maintains a
/// set of disjoint periods (pairwise separated by more than the
/// timeout), coalescing each incoming event interval with every period
/// it overlaps or comes within the timeout of. Gap-tolerant interval
/// coalescing is associative and commutative, so events may arrive in
/// any order and the finalized periods equal the sorted-sweep batch
/// grouping exactly.
#[derive(Debug, Clone)]
pub struct PeriodAccumulator {
    timeout: SimDuration,
    by_prefix: std::collections::BTreeMap<Ipv4Prefix, Vec<BlackholePeriod>>,
}

impl PeriodAccumulator {
    /// An empty accumulator with the given grouping timeout.
    pub fn new(timeout: SimDuration) -> Self {
        PeriodAccumulator { timeout, by_prefix: std::collections::BTreeMap::new() }
    }

    /// Can two periods of one prefix be coalesced? True when the gap
    /// between their closest edges is at most the timeout (an open
    /// period reaches everything after it).
    fn mergeable(a: &BlackholePeriod, b: &BlackholePeriod, timeout: SimDuration) -> bool {
        let a_reaches_b = match a.end {
            None => true,
            Some(end) => b.start.since(end) <= timeout,
        };
        let b_reaches_a = match b.end {
            None => true,
            Some(end) => a.start.since(end) <= timeout,
        };
        a_reaches_b && b_reaches_a
    }

    fn coalesce(mut a: BlackholePeriod, b: BlackholePeriod) -> BlackholePeriod {
        a.start = a.start.min(b.start);
        a.end = match (a.end, b.end) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        };
        a.event_count += b.event_count;
        a.providers.extend(b.providers);
        a.users.extend(b.users);
        a
    }

    fn insert(&mut self, period: BlackholePeriod) {
        let runs = self.by_prefix.entry(period.prefix).or_default();
        let mut merged = period;
        let mut keep = Vec::with_capacity(runs.len() + 1);
        for run in runs.drain(..) {
            if Self::mergeable(&run, &merged, self.timeout) {
                merged = Self::coalesce(merged, run);
            } else {
                keep.push(run);
            }
        }
        keep.push(merged);
        keep.sort_by_key(|p| p.start);
        *runs = keep;
    }
}

impl crate::accumulate::EventAccumulator for PeriodAccumulator {
    type Output = Vec<BlackholePeriod>;

    fn observe(&mut self, event: &BlackholeEvent) {
        self.insert(BlackholePeriod {
            prefix: event.prefix,
            start: event.start,
            end: event.end,
            event_count: 1,
            providers: event.providers.clone(),
            users: event.users.clone(),
        });
    }

    fn observe_owned(&mut self, event: BlackholeEvent) {
        self.insert(BlackholePeriod {
            prefix: event.prefix,
            start: event.start,
            end: event.end,
            event_count: 1,
            providers: event.providers,
            users: event.users,
        });
    }

    /// All periods, ordered by `(prefix, start)` — identical to a
    /// sort-by-`(prefix, start)` sweep over the events.
    fn finalize(self) -> Vec<BlackholePeriod> {
        self.by_prefix.into_values().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::accumulate::EventAccumulator;

    use super::*;

    fn event(prefix: &str, start: u64, end: Option<u64>) -> BlackholeEvent {
        BlackholeEvent {
            prefix: prefix.parse().unwrap(),
            providers: BTreeSet::from([ProviderId::As(Asn::new(1))]),
            users: BTreeSet::from([Asn::new(2)]),
            start: SimTime::from_unix(start),
            end: end.map(SimTime::from_unix),
            peer_count: 1,
            datasets: BTreeSet::new(),
            distances: BTreeSet::new(),
            bundled_detection: false,
        }
    }

    #[test]
    fn duration_handles_open_events() {
        let e = event("1.2.3.4/32", 100, Some(160));
        assert_eq!(e.duration(SimTime::from_unix(1000)).as_secs(), 60);
        let open = event("1.2.3.4/32", 100, None);
        assert_eq!(open.duration(SimTime::from_unix(1000)).as_secs(), 900);
    }

    #[test]
    fn grouping_collapses_on_off_pattern() {
        // Three 1-minute ON pulses with 2-minute gaps: one period with a
        // 5-minute timeout, three with a 30-second timeout.
        let events = vec![
            event("1.2.3.4/32", 0, Some(60)),
            event("1.2.3.4/32", 180, Some(240)),
            event("1.2.3.4/32", 360, Some(420)),
        ];
        let grouped = PeriodAccumulator::new(SimDuration::mins(5)).fold(&events);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[0].event_count, 3);
        assert_eq!(grouped[0].start, SimTime::from_unix(0));
        assert_eq!(grouped[0].end, Some(SimTime::from_unix(420)));
        assert_eq!(grouped[0].duration(SimTime::ZERO).as_secs(), 420);

        let tight = PeriodAccumulator::new(SimDuration::secs(30)).fold(&events);
        assert_eq!(tight.len(), 3);
        assert!(tight.iter().all(|p| p.event_count == 1));
    }

    #[test]
    fn grouping_is_per_prefix() {
        let events = vec![event("1.2.3.4/32", 0, Some(60)), event("5.6.7.8/32", 30, Some(90))];
        let grouped = PeriodAccumulator::new(SimDuration::mins(5)).fold(&events);
        assert_eq!(grouped.len(), 2);
    }

    #[test]
    fn open_events_keep_period_open() {
        let events = vec![event("1.2.3.4/32", 0, Some(60)), event("1.2.3.4/32", 120, None)];
        let grouped = PeriodAccumulator::new(SimDuration::mins(5)).fold(&events);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[0].end, None);
        // A later event for the same prefix joins the open period.
        let events =
            vec![event("1.2.3.4/32", 0, None), event("1.2.3.4/32", 100_000, Some(100_060))];
        let grouped = PeriodAccumulator::new(SimDuration::mins(5)).fold(&events);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[0].event_count, 2);
    }

    #[test]
    fn period_accumulator_is_order_insensitive_and_mergeable() {
        let events = vec![
            event("1.2.3.4/32", 0, Some(60)),
            event("1.2.3.4/32", 180, Some(240)),
            event("1.2.3.4/32", 360, Some(420)),
            event("5.6.7.8/32", 30, None),
            event("5.6.7.8/32", 100_000, Some(100_060)),
        ];
        let batch = PeriodAccumulator::new(SimDuration::mins(5)).fold(&events);

        // Reversed observation order.
        let mut reversed = PeriodAccumulator::new(SimDuration::mins(5));
        for e in events.iter().rev() {
            reversed.observe(e);
        }
        assert_eq!(reversed.finalize(), batch);

        // One parity class of the events, then the other (both ways
        // round), into one accumulator.
        for first in [0, 1] {
            let mut acc = PeriodAccumulator::new(SimDuration::mins(5));
            let (part_a, part_b): (Vec<_>, Vec<_>) =
                events.iter().enumerate().partition(|(k, _)| k % 2 == first);
            for (_, e) in part_a.into_iter().chain(part_b) {
                acc.observe(e);
            }
            assert_eq!(acc.finalize(), batch);
        }
    }

    #[test]
    fn grouping_merges_providers_and_users() {
        let mut a = event("1.2.3.4/32", 0, Some(60));
        let mut b = event("1.2.3.4/32", 120, Some(180));
        a.providers = BTreeSet::from([ProviderId::As(Asn::new(1))]);
        b.providers = BTreeSet::from([ProviderId::Ixp(IxpId(7))]);
        b.users = BTreeSet::from([Asn::new(9)]);
        let grouped = PeriodAccumulator::new(SimDuration::mins(5)).fold(&[a, b]);
        assert_eq!(grouped[0].providers.len(), 2);
        assert_eq!(grouped[0].users.len(), 2);
    }
}
