//! BGP's stable state, solved the slow obvious way, as the reference the
//! simulator's rules are checked against — the propagation suite's other
//! reference, `BgpSimulator::fifo_reference`, shares the engine's rules
//! and checks only its schedule.
//!
//! [`GaoRexford::solve`] takes the live announcements of one prefix and
//! returns every AS's Adj-RIB-In (the route it holds from each
//! neighbor), what each neighbor offers it, and what every collector
//! session shows. It starts from nothing each time: one sweep visits
//! every AS in ascending ASN order and rebuilds its Adj-RIB-In from what
//! each neighbor offers it now, and sweeps repeat until nothing changes. State is `BTreeMap`s keyed
//! by ASN and paths are plain `Vec<Asn>`: no interning, no dense index,
//! no ranks, no work queue, and none of `bh_routing::policy` or
//! `PolicyEngine`. Every rule is transcribed from its statement —
//! `Topology`, `CollectorDeployment`, `PolicyTable` / `RoaTable`,
//! `BogonFilter` and the per-AS `SessionBehavior` are read as data:
//!
//! * **Origins.** An announcement is sent to its scope (all of the
//!   origin's neighbors, or the listed ones) with the origin prepended
//!   `prepend` times. A prefix shorter than /8 or in bogon space is
//!   never announced.
//! * **Import** at an ordinary AS: a path that already holds the
//!   receiver is treated as a withdrawal; then ROV and only-to-customers
//!   from the policy table; then the blackhole trigger (length window and
//!   authentication — origin or customer cone, RPKI, IRR); a route
//!   without a trigger that fired and more specific than /24 needs the
//!   session to accept host routes. Local preference is by relationship:
//!   customer 200, peer and route server 100, provider 50.
//! * **Best route**: highest local preference, then the shorter path
//!   (prepending collapsed), then the lowest sender ASN.
//! * **Export**: nothing under NO_EXPORT, nothing from a provider that
//!   accepted the blackhole and honours RFC 7999, nothing back to the
//!   neighbor the route came from; customer routes go everywhere, others
//!   to customers only; a stripping provider removes its triggers from a
//!   blackhole route; an only-to-customers AS marks what it sends to
//!   customers and peers; a leaker sends everything. A neighbor listed
//!   under two relationships is treated under the first listed, for
//!   import and export alike.
//! * **Route servers** take routes from members only, drop a triggered
//!   route that fails their length or authentication check and an
//!   untagged one more specific than /24, flag what they accept as a
//!   blackhole with their blackhole next hop, and send each member the
//!   shortest contribution of another member (the lower contributor on a
//!   tie), with their own ASN prepended when they sit in the path.
//! * **Collectors**: `Full` shows the best route unless NO_EXPORT,
//!   `CustomerOnly` only a best route learned from a customer, `Internal`
//!   the first blackhole candidate or else the best; the peer prepends
//!   itself. A route server's `RouteServerView` shows each member's
//!   contribution at the member's LAN address.
//!
//! [`elems_between`] turns two solutions' views into the elems a step
//! must emit, [`GaoRexford::outcome`] two solutions' offers into the
//! providers an announcement's trigger fired or failed at, and [`fold`]
//! an elem stream back into views.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::bogon::BogonFilter;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_routing::{
    AnnounceOutcome, AnnounceScope, Announcement, BgpElem, BgpSimulator, CollectorDeployment,
    DataSource, ElemType, FeedKind, RejectReason, SessionBehavior,
};
use bh_topology::{
    AsPolicy, BlackholeAuth, BlackholeOffering, Ixp, PolicyTable, Relationship, Roa, Topology,
};

/// A route as one AS holds it from one neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Nearest AS first, the origin last.
    pub path: Vec<Asn>,
    pub communities: CommunitySet,
    pub next_hop: Option<IpAddr>,
    /// Accepted as a blackhole here (or, from a route server, flagged by
    /// it with a blackhole next hop).
    pub blackhole: bool,
    /// The RFC 9234-style only-to-customers mark.
    pub otc: bool,
    /// The origin's IRR registration, for IRR-authenticated triggers.
    pub irr_registered: bool,
    /// How the holder relates to the neighbor it holds the route from.
    pub rel: Relationship,
    pub local_pref: u32,
}

/// Path length with prepending collapsed.
fn hops(path: &[Asn]) -> usize {
    let mut distinct = path.to_vec();
    distinct.dedup();
    distinct.len()
}

impl Route {
    fn origin(&self) -> Asn {
        *self.path.last().expect("a route has an origin")
    }
}

/// An AS's best route and the neighbor it came from: highest local
/// preference, then the shorter path, then the lowest sender ASN.
fn best(rib: &BTreeMap<Asn, Route>) -> Option<(Asn, &Route)> {
    rib.iter()
        .min_by_key(|(from, r)| (Reverse(r.local_pref), hops(&r.path), **from))
        .map(|(from, r)| (*from, r))
}

/// What a collector session shows, keyed as its elems are: (dataset,
/// collector, peer ASN, peer IP).
pub type ViewKey = (DataSource, u16, Asn, IpAddr);

/// One session's route for the prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shown {
    pub as_path: AsPath,
    pub communities: CommunitySet,
    pub next_hop: Option<IpAddr>,
}

impl Shown {
    /// What an elem stream can tell apart: a next hop that changes
    /// alone is not re-announced.
    fn signature(&self) -> (&AsPath, &CommunitySet) {
        (&self.as_path, &self.communities)
    }
}

/// Every session's view of one prefix.
pub type Views = BTreeMap<ViewKey, Shown>;

/// The stable state of one prefix.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// Adj-RIB-In per AS that holds anything: neighbor → route.
    pub ribs: BTreeMap<Asn, BTreeMap<Asn, Route>>,
    /// What each neighbor offers each AS, before import: (receiver,
    /// sender) → route.
    pub offers: BTreeMap<(Asn, Asn), Route>,
    /// Every collector session's view.
    pub views: Views,
}

impl Solution {
    /// ASes holding a blackhole candidate, ascending.
    pub fn blackholing(&self) -> Vec<Asn> {
        self.ribs
            .iter()
            .filter(|(_, rib)| rib.values().any(|r| r.blackhole))
            .map(|(asn, _)| *asn)
            .collect()
    }
}

/// The solver over one world: topology, collectors, per-AS session
/// behavior and (optionally) an installed policy table.
pub struct GaoRexford<'a> {
    topology: &'a Topology,
    deployment: CollectorDeployment,
    behavior: BTreeMap<Asn, SessionBehavior>,
    policies: BTreeMap<Asn, AsPolicy>,
    roas: Vec<Roa>,
    /// Route-server ASN → its IXP (the last listed, should two share one)
    /// and the members that are ASes of the topology.
    route_servers: BTreeMap<Asn, (&'a Ixp, Vec<Asn>)>,
}

impl<'a> GaoRexford<'a> {
    /// The solver for `sim`'s world with `policies` installed; it reads
    /// `sim`'s collector deployment and session behaviors once.
    pub fn new(
        topology: &'a Topology,
        sim: &BgpSimulator<'_>,
        policies: Option<&PolicyTable>,
    ) -> Self {
        GaoRexford {
            topology,
            deployment: sim.deployment().clone(),
            behavior: topology.ases().map(|i| (i.asn, sim.behavior(i.asn))).collect(),
            policies: policies
                .into_iter()
                .flat_map(|t| t.iter().map(|(asn, p)| (asn, p.clone())))
                .collect(),
            roas: policies.map(|t| t.roas().roas().to_vec()).unwrap_or_default(),
            route_servers: topology
                .ixps()
                .iter()
                .map(|ixp| {
                    let members =
                        ixp.members.iter().copied().filter(|m| topology.as_info(*m).is_some());
                    (ixp.route_server_asn, (ixp, members.collect()))
                })
                .collect(),
        }
    }

    /// The stable state of `prefix` under its live announcements (the
    /// last one of each origin; announcements of other prefixes are
    /// ignored), or `None` when 100 sweeps leave it still changing.
    pub fn solve<'x>(
        &self,
        prefix: Ipv4Prefix,
        live: impl IntoIterator<Item = &'x Announcement>,
    ) -> Option<Solution> {
        if prefix.length() < 8 || !BogonFilter::new().is_routable(&prefix) {
            return Some(Solution::default());
        }
        // receiver → origin → the route the origin sends it.
        let mut seeds: BTreeMap<Asn, BTreeMap<Asn, Route>> = BTreeMap::new();
        for a in live.into_iter().filter(|a| a.prefix == prefix) {
            let route = Route {
                path: vec![a.origin; a.prepend.max(1)],
                communities: a.communities.clone(),
                next_hop: None,
                blackhole: false,
                otc: false,
                irr_registered: a.irr_registered,
                rel: Relationship::Peer, // set on import
                local_pref: 0,
            };
            for to in self.scope(a) {
                seeds.entry(to).or_default().insert(a.origin, route.clone());
            }
        }
        let owner = self.allocation_owner(&prefix);
        // An origin's announcement is what it sends a neighbor in its
        // scope; anything else a neighbor sends follows from its own state.
        let offer = |ribs: &BTreeMap<Asn, BTreeMap<Asn, Route>>, from: Asn, to: Asn| match seeds
            .get(&to)
            .and_then(|s| s.get(&from))
        {
            Some(seed) => Some(seed.clone()),
            None => self.export(ribs, from, to),
        };
        let mut ribs: BTreeMap<Asn, BTreeMap<Asn, Route>> = BTreeMap::new();
        for _ in 0..100 {
            let mut changed = false;
            for me in self.topology.ases().map(|i| i.asn) {
                let mut rib = BTreeMap::new();
                for (n, rel) in self.neighbors(me) {
                    if let Some(route) =
                        offer(&ribs, n, me).and_then(|r| self.import(me, n, rel, r, &prefix, owner))
                    {
                        rib.insert(n, route);
                    }
                }
                let held = ribs.remove(&me).unwrap_or_default();
                changed |= held != rib;
                if !rib.is_empty() {
                    ribs.insert(me, rib);
                }
            }
            if !changed {
                let mut offers = BTreeMap::new();
                for me in self.topology.ases().map(|i| i.asn) {
                    for (n, _) in self.neighbors(me) {
                        if let Some(route) = offer(&ribs, n, me) {
                            offers.insert((me, n), route);
                        }
                    }
                }
                let views = self.views(&ribs);
                return Some(Solution { ribs, offers, views });
            }
        }
        None
    }

    /// The neighbors an announcement is sent to.
    fn scope(&self, a: &Announcement) -> BTreeSet<Asn> {
        match &a.scope {
            AnnounceScope::AllNeighbors => {
                self.topology.neighbors(a.origin).iter().map(|(n, _)| *n).collect()
            }
            AnnounceScope::Neighbors(list) => list.iter().copied().collect(),
        }
    }

    /// What announcing `a` reports, given the solutions of its prefix
    /// before and after: the ASes where a trigger fired, and those where
    /// one was carried and failed (with the first failure's reason, by
    /// ascending sender). Only a route an AS is offered anew is judged —
    /// the origin re-sends to its whole scope, every other offer counts
    /// where it differs from the one before — and only once it passes
    /// loop detection, route-server membership and the policy filters.
    pub fn outcome(
        &self,
        a: &Announcement,
        before: &Solution,
        after: &Solution,
    ) -> AnnounceOutcome {
        let owner = self.allocation_owner(&a.prefix);
        let scope = self.scope(a);
        let mut outcome = AnnounceOutcome::default();
        for (&(me, from), route) in &after.offers {
            let resent = from == a.origin && scope.contains(&me);
            if !resent && before.offers.get(&(me, from)) == Some(route) {
                continue;
            }
            if route.path.contains(&me) {
                continue;
            }
            match self.route_servers.get(&me) {
                Some((_, members)) if !members.contains(&from) => continue,
                Some(_) => {}
                None => {
                    let rel = self.neighbors(me).into_iter().find(|(n, _)| *n == from);
                    if let (Some(policy), Some((_, rel))) = (self.policies.get(&me), rel) {
                        if self.policy_rejects(policy, rel, route, &a.prefix) {
                            continue;
                        }
                    }
                }
            }
            match self.trigger(me, route, from, &a.prefix, owner) {
                Ok(Some(_)) if !outcome.accepted_by.contains(&me) => outcome.accepted_by.push(me),
                Err(reason) if !outcome.rejected_by.iter().any(|(asn, _)| *asn == me) => {
                    outcome.rejected_by.push((me, reason))
                }
                _ => {}
            }
        }
        outcome.accepted_by.sort_unstable();
        outcome.rejected_by.sort_unstable_by_key(|(asn, _)| *asn);
        outcome
    }

    /// Each distinct neighbor of `me` with the relationship `me` has to
    /// it (the first listed, should a pair carry two).
    fn neighbors(&self, me: Asn) -> Vec<(Asn, Relationship)> {
        let mut out: Vec<(Asn, Relationship)> = self.topology.neighbors(me).to_vec();
        out.dedup_by_key(|(n, _)| *n); // listed by ascending ASN
        out
    }

    fn offering(&self, asn: Asn) -> Option<&'a BlackholeOffering> {
        self.topology.as_info(asn).and_then(|i| i.blackhole_offering.as_ref())
    }

    /// The AS holding the most specific allocation covering `prefix`.
    fn allocation_owner(&self, prefix: &Ipv4Prefix) -> Option<Asn> {
        self.topology
            .ases()
            .flat_map(|i| i.prefixes.iter().map(move |p| (p, i.asn)))
            .filter(|(p, _)| p.contains(prefix))
            .max_by_key(|(p, _)| p.length())
            .map(|(_, asn)| asn)
    }

    /// Is `target` `provider` itself or below it along customer links?
    fn in_cone(&self, provider: Asn, target: Asn) -> bool {
        let mut seen = BTreeSet::from([provider]);
        let mut frontier = vec![provider];
        while let Some(asn) = frontier.pop() {
            if asn == target {
                return true;
            }
            for &(n, rel) in self.topology.neighbors(asn) {
                if rel == Relationship::Customer && seen.insert(n) {
                    frontier.push(n);
                }
            }
        }
        false
    }

    /// The offering of `me` whose trigger `communities` carry, if it
    /// fires for a route from `sender` (length window, authentication).
    /// `Err` when a trigger is carried and does not fire.
    fn trigger(
        &self,
        me: Asn,
        route: &Route,
        sender: Asn,
        prefix: &Ipv4Prefix,
        owner: Option<Asn>,
    ) -> Result<Option<&'a BlackholeOffering>, RejectReason> {
        let Some(o) = self.offering(me) else { return Ok(None) };
        let classic = route.communities.iter().any(|c| o.communities.contains(&c));
        let large =
            o.large_community.is_some_and(|l| route.communities.iter_large().any(|c| c == l));
        if !classic && !large {
            return Ok(None);
        }
        let length = prefix.length();
        if length < o.min_accepted_length || length > 32 {
            return Err(RejectReason::LengthRejected);
        }
        let origin = route.origin();
        let authenticated = match o.auth {
            BlackholeAuth::OriginOrCone => owner.is_some_and(|owner| {
                owner == origin || owner == sender || self.in_cone(sender, owner)
            }),
            BlackholeAuth::Rpki => owner == Some(origin),
            BlackholeAuth::IrrRegistered => route.irr_registered,
        };
        match authenticated {
            true => Ok(Some(o)),
            false => Err(RejectReason::AuthFailed),
        }
    }

    /// RFC 6811: covered by some ROA, and no covering ROA allows this
    /// origin at this length.
    fn rpki_invalid(&self, prefix: &Ipv4Prefix, origin: Asn) -> bool {
        let covering: Vec<&Roa> = self.roas.iter().filter(|r| r.prefix.contains(prefix)).collect();
        !covering.is_empty()
            && !covering.iter().any(|r| r.origin == origin && prefix.length() <= r.max_length)
    }

    /// Whether `policy`'s ROV or only-to-customers filter drops `route`
    /// arriving from a neighbor `me` relates to as `rel`.
    fn policy_rejects(
        &self,
        policy: &AsPolicy,
        rel: Relationship,
        route: &Route,
        prefix: &Ipv4Prefix,
    ) -> bool {
        (policy.rov && self.rpki_invalid(prefix, route.origin()))
            || (policy.only_to_customers && rel != Relationship::Provider && route.otc)
    }

    /// The route `me` holds from neighbor `from` (its relationship to it:
    /// `rel`) when `from` offers `route`; `None` when rejected.
    fn import(
        &self,
        me: Asn,
        from: Asn,
        rel: Relationship,
        mut route: Route,
        prefix: &Ipv4Prefix,
        owner: Option<Asn>,
    ) -> Option<Route> {
        if route.path.contains(&me) {
            return None; // loop: treated as a withdrawal
        }
        if let Some((_, members)) = self.route_servers.get(&me) {
            if !members.contains(&from) {
                return None;
            }
            match self.trigger(me, &route, from, prefix, owner) {
                Err(_) => return None,
                Ok(Some(o)) => {
                    route.blackhole = true;
                    route.next_hop = o.blackhole_ip.map(IpAddr::V4);
                }
                Ok(None) if prefix.length() > 24 => return None,
                Ok(None) => {}
            }
            route.rel = Relationship::RouteServer;
            route.local_pref = 100;
            return Some(route);
        }
        if let Some(policy) = self.policies.get(&me) {
            if self.policy_rejects(policy, rel, &route, prefix) {
                return None;
            }
            if policy.only_to_customers && rel != Relationship::Customer {
                route.otc = true;
            }
        }
        let fired = matches!(self.trigger(me, &route, from, prefix, owner), Ok(Some(_)));
        if !fired && prefix.length() > 24 {
            let behavior = self.behavior[&me];
            let accepted = match rel {
                Relationship::Customer => behavior.host_routes_from_customers,
                _ => behavior.host_routes_from_peers,
            };
            if !accepted {
                return None;
            }
        }
        // A route server's blackhole keeps its meaning at a member (its
        // next hop discards); anywhere else the flag does not travel.
        route.blackhole = fired
            || (route.blackhole && rel == Relationship::RouteServer && route.next_hop.is_some());
        route.local_pref = match rel {
            Relationship::Customer => 200,
            Relationship::Peer | Relationship::RouteServer => 100,
            Relationship::Provider => 50,
        };
        route.rel = rel;
        Some(route)
    }

    /// What `from` sends neighbor `to` given everyone's current routes.
    fn export(
        &self,
        ribs: &BTreeMap<Asn, BTreeMap<Asn, Route>>,
        from: Asn,
        to: Asn,
    ) -> Option<Route> {
        let rib = ribs.get(&from)?;
        if let Some((ixp, members)) = self.route_servers.get(&from) {
            if !members.contains(&to) {
                return None;
            }
            let (_, chosen) = rib
                .iter()
                .filter(|(contributor, _)| **contributor != to)
                .min_by_key(|(contributor, r)| (hops(&r.path), **contributor))?;
            let mut out = chosen.clone();
            if ixp.route_server_in_path {
                out.path.insert(0, from);
            }
            return Some(out);
        }
        let (sender, best) = best(rib)?;
        let offering = self.offering(from);
        if best.communities.has_no_export()
            || (best.blackhole && offering.is_some_and(|o| o.honors_no_export))
            || to == sender
        {
            return None;
        }
        let to_rel = self.neighbors(from).into_iter().find(|(n, _)| *n == to)?.1;
        let mut allowed = best.rel == Relationship::Customer || to_rel == Relationship::Customer;
        let mut out = best.clone();
        out.path.insert(0, from);
        if let Some(o) = offering.filter(|o| o.strips_community && best.blackhole) {
            out.communities.retain(|c| !o.communities.contains(c));
        }
        if let Some(policy) = self.policies.get(&from) {
            if policy.only_to_customers
                && matches!(to_rel, Relationship::Customer | Relationship::Peer)
            {
                out.otc = true;
            }
            allowed |= policy.leaker;
        }
        allowed.then_some(out)
    }

    /// Every collector session's view over `ribs`.
    ///
    /// An origin holds nothing for its own announcement, so no `Full`,
    /// `CustomerOnly` or `Internal` session at an origin shows it (see
    /// `FeedKind::CustomerOnly`); it shows another origin's route it
    /// holds.
    fn views(&self, ribs: &BTreeMap<Asn, BTreeMap<Asn, Route>>) -> Views {
        let mut views = Views::new();
        for session in self.deployment.sessions() {
            let at = session.peer_asn;
            let Some(rib) = ribs.get(&at) else { continue };
            let mut show = |peer: Asn, peer_ip: IpAddr, route: &Route, prepend: bool| {
                let mut path = route.path.clone();
                if prepend {
                    path.insert(0, at);
                }
                views.insert(
                    (session.dataset, session.collector, peer, peer_ip),
                    Shown {
                        as_path: AsPath::from_sequence(path),
                        communities: route.communities.clone(),
                        next_hop: route.next_hop,
                    },
                );
            };
            if let Some((ixp, members)) = self.route_servers.get(&at) {
                if !matches!(session.feed, FeedKind::RouteServerView(_)) {
                    continue;
                }
                for &member in members {
                    if let Some(route) = rib.get(&member) {
                        let peer_ip =
                            ixp.member_lan_ip(member).map(IpAddr::V4).unwrap_or(session.peer_ip);
                        show(member, peer_ip, route, ixp.route_server_in_path);
                    }
                }
                continue;
            }
            let Some((_, best)) = best(rib) else { continue };
            let public = !best.communities.has_no_export();
            let visible = match session.feed {
                FeedKind::RouteServerView(_) => None,
                FeedKind::Full => public.then_some(best),
                FeedKind::CustomerOnly => {
                    (public && best.rel == Relationship::Customer).then_some(best)
                }
                FeedKind::Internal => Some(rib.values().find(|r| r.blackhole).unwrap_or(best)),
            };
            if let Some(route) = visible {
                show(at, session.peer_ip, route, true);
            }
        }
        views
    }
}

/// The elems a step from `before` to `after` must emit for `prefix` at
/// `time`: an announcement where a session's path or communities
/// changed, a withdrawal where its route went. Sorted by [`sorted`].
pub fn elems_between(
    prefix: Ipv4Prefix,
    before: &Views,
    after: &Views,
    time: SimTime,
) -> Vec<BgpElem> {
    let elem =
        |&(dataset, collector, peer_asn, peer_ip): &ViewKey, shown: Option<&Shown>| BgpElem {
            time,
            dataset,
            collector,
            peer_asn,
            peer_ip,
            elem_type: if shown.is_some() { ElemType::Announce } else { ElemType::Withdraw },
            prefix,
            as_path: shown.map(|s| s.as_path.clone()).unwrap_or_default(),
            communities: shown.map(|s| s.communities.clone()).unwrap_or_default(),
            next_hop: shown.and_then(|s| s.next_hop),
        };
    let announced = after
        .iter()
        .filter(|(key, shown)| before.get(key).map(Shown::signature) != Some(shown.signature()))
        .map(|(key, shown)| elem(key, Some(shown)));
    let withdrawn = before.keys().filter(|key| !after.contains_key(key)).map(|key| elem(key, None));
    sorted(announced.chain(withdrawn).collect())
}

/// Elems in one canonical order (the engine's emission order is not the
/// solver's business).
pub fn sorted(mut elems: Vec<BgpElem>) -> Vec<BgpElem> {
    elems.sort_by_cached_key(|e| format!("{e:?}"));
    elems
}

/// Fold an elem stream into per-prefix session views: an announcement
/// sets its session's route, a withdrawal removes it.
pub fn fold(views: &mut BTreeMap<Ipv4Prefix, Views>, elems: &[BgpElem]) {
    for e in elems {
        let key = (e.dataset, e.collector, e.peer_asn, e.peer_ip);
        let prefix_views = views.entry(e.prefix).or_default();
        match e.elem_type {
            ElemType::Announce => {
                let shown = Shown {
                    as_path: e.as_path.clone(),
                    communities: e.communities.clone(),
                    next_hop: e.next_hop,
                };
                prefix_views.insert(key, shown);
            }
            ElemType::Withdraw => {
                prefix_views.remove(&key);
            }
        }
        if prefix_views.is_empty() {
            views.remove(&e.prefix);
        }
    }
}
