//! The paper's method, written the slow obvious way, as the reference
//! the implementation is checked against — so an equivalence suite no
//! longer only compares `bh_core` with another door into itself.
//!
//! * [`Oracle::infer`] is §4.2 (elems → events, counters, the Fig. 2
//!   census and the per-dataset visibility) transcribed from the
//!   statement in `crates/core/src/lib.rs`: a linear pass over the elems
//!   with `BTreeMap`/`BTreeSet` state and linear scans — no interning, no
//!   memo, no compiled detection plan, no deferred census.
//! * [`assert_report_equals_naive_recomputation`] is the layer above
//!   (events and per-dataset visibility → report) against the paper's
//!   definitions of every table and figure — no accumulator, no shared
//!   helper.
//!
//! AS paths are taken as plain sequences (what the simulator and the MRT
//! writer produce); like the session, the transcription has no RIB
//! initialization (UPDATE streams only: the `bh_core` crate doc states
//! the deviation from §4.2).

use std::collections::{BTreeMap, BTreeSet};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::bogon::BogonFilter;
use bh_bgp_types::community::Community;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{
    AnalyticsConfig, AnalyticsReport, BlackholeEvent, BlackholePeriod, DatasetVisibility,
    DetectionDistance, EngineConfig, EngineStats, ProviderId, ReferenceData, VisibilityRow,
};
use bh_irr::{BlackholeDictionary, CommunityPrefixCensus, NegativeControls};
use bh_routing::{BgpElem, DataSource, ElemType, PeerKey};
use bh_topology::NetworkType;

/// One provider inferred from one announcement: who, for whom, how far
/// from the collector.
type Detection = (ProviderId, Option<Asn>, DetectionDistance);

/// §4.2 over a dictionary and the public reference data.
pub struct Oracle<'a> {
    /// The documented blackhole communities and their providers.
    pub dict: &'a BlackholeDictionary,
    /// PeeringDB LANs and route servers.
    pub refdata: &'a ReferenceData,
    /// The two ablation toggles.
    pub config: EngineConfig,
    /// Classic communities classified location/informational: never a
    /// trigger, even where the dictionary lists them.
    pub controls: Option<&'a NegativeControls>,
}

/// Everything the method defines over one stream.
#[derive(Debug)]
pub struct OracleOutput {
    /// The events — the still-open ones with `end: None` — in
    /// `(start, prefix)` order.
    pub events: Vec<BlackholeEvent>,
    /// The counters the method defines.
    pub stats: EngineStats,
    /// The Fig. 2 census: the classic communities of every routable
    /// announcement, at its prefix length.
    pub census: CommunityPrefixCensus,
    /// Per platform, the prefix, providers and users of every tagged
    /// announcement (Table 3 inputs).
    pub per_dataset: BTreeMap<DataSource, DatasetVisibility>,
}

impl Oracle<'_> {
    /// Every provider this announcement asks to blackhole its prefix.
    fn detect(&self, elem: &BgpElem, stats: &mut EngineStats) -> Vec<Detection> {
        // "After removing AS path prepending."
        let mut path: Vec<Asn> = elem.as_path.iter_asns().collect();
        path.dedup();
        let collector_ixp = self.refdata.ixp_of_peer_ip(elem.peer_ip);
        let hops = |pos: usize| DetectionDistance::Hops(u8::try_from(pos + 1).unwrap_or(u8::MAX));
        let is_route_server = |asn: Asn| self.refdata.ixp_of_route_server(asn).is_some();

        // A negative control is no trigger. An announcement whose only
        // dictionary matches are controls is suppressed, and is then
        // untagged like one that carries no dictionary community at all.
        let is_control = |c: Community| self.controls.is_some_and(|ctl| ctl.contains(c));
        let classic =
            elem.communities.iter().filter(|&c| !is_control(c)).map(|c| self.dict.providers_for(c));
        let large = elem.communities.iter_large().map(|l| self.dict.providers_for_large(l));
        let triggers: Vec<Vec<Asn>> = classic.chain(large).filter(|c| !c.is_empty()).collect();
        let listed_control = elem
            .communities
            .iter()
            .any(|c| is_control(c) && !self.dict.providers_for(c).is_empty());
        if triggers.is_empty() && listed_control {
            stats.control_suppressed += 1;
        }

        let mut found = Vec::new();
        for candidates in triggers {
            let before = found.len();
            for &candidate in &candidates {
                let on_path = path.iter().position(|&asn| asn == candidate);
                match (self.refdata.ixp_of_route_server(candidate), on_path) {
                    // An IXP whose route server is on the path: the user
                    // is the member behind it.
                    (Some(ixp), Some(pos)) => {
                        let at_the_ixp = collector_ixp == Some(ixp);
                        let distance =
                            if at_the_ixp { DetectionDistance::Hops(0) } else { hops(pos) };
                        found.push((ProviderId::Ixp(ixp), path.get(pos + 1).copied(), distance));
                    }
                    // A transparent route server, seen from a collector on
                    // the IXP's own peering LAN: the peer is the user.
                    (Some(ixp), None) if collector_ixp == Some(ixp) => found.push((
                        ProviderId::Ixp(ixp),
                        Some(elem.peer_asn),
                        DetectionDistance::Hops(0),
                    )),
                    (Some(_), None) => {}
                    // A provider on the path: the user is the hop before
                    // it (route servers are not users; a provider that
                    // originates the route is its own user).
                    (None, Some(pos)) => {
                        let user = path[pos + 1..].iter().copied().find(|&a| !is_route_server(a));
                        found.push((
                            ProviderId::As(candidate),
                            user.or(Some(candidate)),
                            hops(pos),
                        ));
                    }
                    // Not on the path: only an unambiguous community still
                    // names its provider (bundling); the origin is the user.
                    (None, None) if candidates.len() == 1 && self.config.bundling_detection => {
                        stats.bundled_detections += 1;
                        found.push((
                            ProviderId::As(candidate),
                            path.last().copied(),
                            DetectionDistance::NoPath,
                        ));
                    }
                    (None, None) => {}
                }
            }
            if found.len() == before {
                stats.ambiguous_unresolved += 1;
            }
        }
        found
    }

    /// Run the method over `elems` in order.
    pub fn infer(&self, elems: &[BgpElem]) -> OracleOutput {
        let bogons = BogonFilter::new();
        let mut stats = EngineStats::default();
        let mut census = CommunityPrefixCensus::new();
        let mut per_dataset: BTreeMap<DataSource, DatasetVisibility> = BTreeMap::new();
        // The per-(prefix, peer) state: is this peer's route blackholed?
        let mut blackholed: BTreeSet<(Ipv4Prefix, PeerKey)> = BTreeSet::new();
        // The cross-peer correlation: one open event per prefix, with
        // the collector peers that contributed to it.
        let mut open: BTreeMap<Ipv4Prefix, (BlackholeEvent, BTreeSet<PeerKey>)> = BTreeMap::new();
        let mut closed = Vec::new();

        for elem in elems {
            stats.elems += 1;
            let announced = elem.elem_type == ElemType::Announce;
            if announced && !bogons.is_routable(&elem.prefix) {
                stats.cleaned += 1;
                continue;
            }
            if announced {
                let communities: Vec<Community> = elem.communities.iter().collect();
                census.record(&communities, elem.prefix.length());
            }
            // Without per-peer state a dataset's peers act as one.
            let peer = if self.config.per_peer_state {
                elem.peer_key()
            } else {
                PeerKey { dataset: elem.dataset, collector: 0, peer_asn: Asn::new(0) }
            };
            let detections = if announced { self.detect(elem, &mut stats) } else { Vec::new() };

            if detections.is_empty() {
                // A withdrawal, explicit or implicit (re-announced without
                // the tag), ends this peer's observation; the event ends
                // when its last peer's does.
                if !blackholed.remove(&(elem.prefix, peer)) {
                    continue;
                }
                if announced {
                    stats.implicit_withdrawals += 1;
                } else {
                    stats.explicit_withdrawals += 1;
                }
                if !blackholed.iter().any(|(prefix, _)| *prefix == elem.prefix) {
                    let (mut event, peers) =
                        open.remove(&elem.prefix).expect("a blackholed peer implies an open event");
                    event.end = Some(elem.time);
                    event.peer_count = peers.len();
                    closed.push(event);
                }
                continue;
            }

            stats.tagged_announcements += 1;
            blackholed.insert((elem.prefix, peer));
            let (event, peers) = open.entry(elem.prefix).or_insert_with(|| {
                let event = BlackholeEvent {
                    prefix: elem.prefix,
                    providers: BTreeSet::new(),
                    users: BTreeSet::new(),
                    start: elem.time,
                    end: None,
                    peer_count: 0,
                    datasets: BTreeSet::new(),
                    distances: BTreeSet::new(),
                    bundled_detection: false,
                };
                (event, BTreeSet::new())
            });
            peers.insert(elem.peer_key());
            event.datasets.insert(elem.dataset);
            let seen = per_dataset.entry(elem.dataset).or_default();
            seen.prefixes.insert(elem.prefix);
            for (provider, user, distance) in detections {
                event.providers.insert(provider);
                event.users.extend(user);
                event.distances.insert(distance);
                event.bundled_detection |= distance == DetectionDistance::NoPath;
                seen.providers.insert(provider);
                seen.users.extend(user);
            }
        }

        let mut events = closed;
        events.extend(open.into_values().map(|(mut event, peers)| {
            event.peer_count = peers.len();
            event
        }));
        events.sort_by_key(|e| (e.start, e.prefix));
        OracleOutput { events, stats, census, per_dataset }
    }
}

/// §9: events of one prefix at most 5 minutes apart form one period.
const GROUPING_GAP: SimDuration = SimDuration::mins(5);

/// §9 grouping by the textbook sweep: events sorted by `(prefix, start)`,
/// each joining the running period of its prefix when it starts within
/// `timeout` of that period's end (an open period never ends).
pub fn naive_periods(events: &[BlackholeEvent], timeout: SimDuration) -> Vec<BlackholePeriod> {
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
/// obvious way over the event list (and, for Table 3, the session's
/// per-dataset visibility) — no accumulator, no shared helper.
pub fn assert_report_equals_naive_recomputation(
    report: &AnalyticsReport,
    events: &[BlackholeEvent],
    per_dataset: &BTreeMap<DataSource, DatasetVisibility>,
    refdata: &ReferenceData,
    analytics: AnalyticsConfig,
) {
    // An IXP is located, and fed, by its route server.
    let asn_of = |p: &ProviderId| match p {
        ProviderId::As(asn) => Some(*asn),
        ProviderId::Ixp(ixp) => refdata.route_server_of(*ixp),
    };
    let feeds = |p: &ProviderId, sources: &[DataSource]| {
        asn_of(p).is_some_and(|asn| sources.iter().any(|s| refdata.has_direct_feed(*s, asn)))
    };
    let share = |n: usize, of: usize| if of == 0 { 0.0 } else { n as f64 / of as f64 };

    // Table 3: per platform, the providers, users and prefixes it saw,
    // those no other platform saw, and the share of its providers that
    // feed it directly; then the union over every platform.
    let mut table3 = Vec::new();
    for source in DataSource::ALL {
        let seen = per_dataset.get(&source).cloned().unwrap_or_default();
        let others: Vec<&DatasetVisibility> =
            per_dataset.iter().filter(|(s, _)| **s != source).map(|(_, v)| v).collect();
        let direct = seen.providers.iter().filter(|p| feeds(p, &[source])).count();
        table3.push(VisibilityRow {
            source: source.label().to_string(),
            providers: seen.providers.len(),
            unique_providers: seen
                .providers
                .iter()
                .filter(|p| others.iter().all(|o| !o.providers.contains(p)))
                .count(),
            users: seen.users.len(),
            unique_users: seen
                .users
                .iter()
                .filter(|u| others.iter().all(|o| !o.users.contains(u)))
                .count(),
            prefixes: seen.prefixes.len(),
            unique_prefixes: seen
                .prefixes
                .iter()
                .filter(|p| others.iter().all(|o| !o.prefixes.contains(p)))
                .count(),
            direct_feed_fraction: share(direct, seen.providers.len()),
        });
    }
    let providers: BTreeSet<ProviderId> =
        per_dataset.values().flat_map(|v| v.providers.iter().copied()).collect();
    let users: BTreeSet<Asn> = per_dataset.values().flat_map(|v| v.users.iter().copied()).collect();
    let prefixes: BTreeSet<Ipv4Prefix> =
        per_dataset.values().flat_map(|v| v.prefixes.iter().copied()).collect();
    let direct = providers.iter().filter(|p| feeds(p, &DataSource::ALL)).count();
    table3.push(VisibilityRow {
        source: "ALL".to_string(),
        providers: providers.len(),
        unique_providers: 0,
        users: users.len(),
        unique_users: 0,
        prefixes: prefixes.len(),
        unique_prefixes: 0,
        direct_feed_fraction: share(direct, providers.len()),
    });
    assert_eq!(report.table3, table3, "table 3");

    // Table 4: per provider network type, the distinct providers of that
    // type, the distinct users and prefixes of the events they are in,
    // and the share of those providers that feed any platform directly.
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
        let direct = providers.iter().filter(|p| feeds(p, &DataSource::ALL)).count();
        assert_eq!(
            (row.providers, row.users, row.prefixes, row.direct_feed_fraction),
            (providers.len(), users.len(), prefixes.len(), share(direct, providers.len())),
            "table 4, {:?}",
            row.network_type
        );
    }
    assert_eq!(report.table4.iter().map(|r| r.network_type).collect::<Vec<_>>(), NetworkType::ALL);

    // Fig. 5(a)/(b): every provider and every user, ascending, with its
    // network type and the distinct prefixes of the events it is in.
    let providers: BTreeSet<ProviderId> =
        events.iter().flat_map(|e| e.providers.iter().copied()).collect();
    let per_provider: Vec<(ProviderId, NetworkType, usize)> = providers
        .into_iter()
        .map(|p| {
            let prefixes: BTreeSet<Ipv4Prefix> =
                events.iter().filter(|e| e.providers.contains(&p)).map(|e| e.prefix).collect();
            (p, type_of(&p), prefixes.len())
        })
        .collect();
    assert_eq!(report.prefixes_per_provider, per_provider, "fig. 5(a)");
    let users: BTreeSet<Asn> = events.iter().flat_map(|e| e.users.iter().copied()).collect();
    let per_user: Vec<(Asn, NetworkType, usize)> = users
        .into_iter()
        .map(|u| {
            let prefixes: BTreeSet<Ipv4Prefix> =
                events.iter().filter(|e| e.users.contains(&u)).map(|e| e.prefix).collect();
            (u, refdata.network_type(u), prefixes.len())
        })
        .collect();
    assert_eq!(report.prefixes_per_user, per_user, "fig. 5(b)");

    // Fig. 6: distinct provider networks (an IXP counted as its route
    // server; one without a known route server has no country) and
    // distinct users, per country.
    let per_country = |asns: BTreeSet<Asn>| {
        let mut map: BTreeMap<&'static str, usize> = BTreeMap::new();
        for asn in asns {
            *map.entry(refdata.country(asn)).or_default() += 1;
        }
        map
    };
    let provider_asns = events.iter().flat_map(|e| &e.providers).filter_map(asn_of).collect();
    let user_asns = events.iter().flat_map(|e| e.users.iter().copied()).collect();
    assert_eq!(report.provider_countries, per_country(provider_asns), "fig. 6, providers");
    assert_eq!(report.user_countries, per_country(user_asns), "fig. 6, users");

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

    // Fig. 8(a): durations ascending, open events measured to the window's end.
    let mut durations: Vec<SimDuration> = events
        .iter()
        .map(|e| SimDuration::secs(e.end.unwrap_or(analytics.window_end).unix() - e.start.unix()))
        .collect();
    durations.sort();
    assert_eq!(report.durations, durations);

    assert_eq!(report.blackholed_prefixes, events.iter().map(|e| e.prefix).collect());
    assert_eq!(report.periods, naive_periods(events, GROUPING_GAP));
}
