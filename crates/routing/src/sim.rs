//! The BGP propagation simulator.
//!
//! Event-driven and deterministic: callers inject origin announcements and
//! withdrawals; the engine propagates them through the relationship graph
//! under Gao-Rexford export policy and the blackhole acceptance rules, and
//! emits [`BgpElem`]s at every collector session whose view changes — the
//! stream the inference engine consumes, with all of the paper's
//! visibility mechanics reproduced:
//!
//! * direct feeds from blackholing providers (tagged routes visible),
//! * community bundling (tagged routes visible via *non-provider*
//!   neighbors even when no provider propagates),
//! * NO_EXPORT suppression (routes invisible except to the CDN's internal
//!   sessions),
//! * IXP route-server redistribution with PCH route-server views
//!   (peer-ip inside the peering LAN),
//! * providers that strip their trigger community or suppress propagation.
//!
//! One engine: work is scheduled in three valley-free phases by
//! propagation rank, and every AS ingests all of its pending input
//! before it advertises once (see [`BgpSimulator`]'s `run_phases`).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::IpAddr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::bogon::BogonFilter;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_topology::{Ixp, OriginIndex, PolicyTable, PropagationRanks, Relationship, Topology};

use crate::collector::{CollectorDeployment, CollectorSession, FeedKind};
use crate::elem::{BgpElem, DataSource, ElemType};
use crate::extensions::{PolicyEngine, RunStats};
use crate::policy::{
    import_decision, local_pref_for, may_export, AuthContext, ImportDecision, RejectReason,
    SessionBehavior,
};

/// Which neighbors an origin announcement is sent to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnounceScope {
    /// All of the origin's neighbors (the *bundling* pattern: one
    /// advertisement with every provider's community attached, sent
    /// everywhere — §4.2/Fig. 3's ASC2).
    AllNeighbors,
    /// Only the listed neighbors (the *targeted* pattern: a separate
    /// advertisement per provider — Fig. 3's ASC1).
    Neighbors(Vec<Asn>),
}

/// One origin announcement.
#[derive(Debug, Clone)]
pub struct Announcement {
    /// The announcing AS (the blackholing user, for blackhole routes).
    pub origin: Asn,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// Attached communities (may bundle several providers' triggers, may
    /// include NO_EXPORT).
    pub communities: CommunitySet,
    /// Delivery scope.
    pub scope: AnnounceScope,
    /// Whether the (prefix, origin) pair is correctly registered in the
    /// IRR (misconfigured users are not — §10).
    pub irr_registered: bool,
    /// Origin-side path prepending (1 = no prepending).
    pub prepend: usize,
}

impl Announcement {
    /// A plain announcement to everyone, registered, no prepending.
    pub fn simple(origin: Asn, prefix: Ipv4Prefix, communities: CommunitySet) -> Self {
        Announcement {
            origin,
            prefix,
            communities,
            scope: AnnounceScope::AllNeighbors,
            irr_registered: true,
            prepend: 1,
        }
    }
}

/// What happened to a blackhole request at each triggered provider.
/// Both vectors are in canonical (ASN-sorted) order, independent of the
/// order propagation visited the providers in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnnounceOutcome {
    /// Providers that accepted and installed the blackhole.
    pub accepted_by: Vec<Asn>,
    /// Providers where a trigger matched but the request was rejected.
    pub rejected_by: Vec<(Asn, RejectReason)>,
}

/// Typed propagation failure — the graceful replacement for the old
/// "propagation did not converge" panic, so `Massive` runs degrade into
/// an error the caller can skip past instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationError {
    /// The step cap was reached before the work queue drained (a policy
    /// dispute wheel, e.g. dueling leakers, can oscillate forever).
    NoConvergence {
        /// Work items processed before giving up.
        steps: u64,
    },
}

impl std::fmt::Display for PropagationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropagationError::NoConvergence { steps } => {
                write!(f, "propagation did not converge after {steps} steps")
            }
        }
    }
}

impl std::error::Error for PropagationError {}

/// A route as held in an Adj-RIB-In slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RouteEntry {
    /// Path as received (first hop = the neighbor that sent it; for
    /// origin advertisements this is the origin itself).
    as_path: AsPath,
    communities: CommunitySet,
    learned_from: Asn,
    /// How the *receiver* relates to `learned_from`.
    learned_rel: Relationship,
    local_pref: u32,
    is_blackhole: bool,
    irr_registered: bool,
    next_hop: Option<IpAddr>,
    /// RFC 9234-style only-to-customers mark, set and read where
    /// `AsPolicy::only_to_customers` is on. Always `false` when no
    /// policies are installed, so route equality (and therefore
    /// propagation and emission) is unchanged on the extensions-off
    /// path.
    leak_marked: bool,
}

#[derive(Debug, Clone, Default)]
struct PrefixState {
    /// Candidates keyed by sending neighbor.
    candidates: BTreeMap<Asn, RouteEntry>,
    /// What we last advertised per neighbor.
    advertised: BTreeMap<Asn, RouteEntry>,
    /// The best route the last neighbor-advertisement pass ran against.
    /// Outbound adverts are a pure function of `best` (offering and
    /// policies are fixed for a run), so when best is unchanged the
    /// whole neighbor loop is skipped — the scratch-work win that makes
    /// withdraw/re-announce churn cheap at `Massive` scale.
    advert_basis: Option<RouteEntry>,
}

impl PrefixState {
    fn best(&self) -> Option<&RouteEntry> {
        self.candidates.values().max_by(|a, b| {
            a.local_pref
                .cmp(&b.local_pref)
                .then(b.as_path.hop_len().cmp(&a.as_path.hop_len()))
                .then(b.learned_from.cmp(&a.learned_from))
        })
    }
}

/// Key for per-session emitted state: (dataset, collector, session peer,
/// prefix, attributed peer) — the last component distinguishes the
/// per-member views of a route-server session.
type EmitKey = (DataSource, u16, Asn, Ipv4Prefix, Asn);

#[derive(Debug, Clone)]
enum Work {
    Announce { to: Asn, from: Asn, prefix: Ipv4Prefix, route: RouteEntry },
    Withdraw { to: Asn, from: Asn, prefix: Ipv4Prefix },
}

impl Work {
    fn target(&self) -> Asn {
        match self {
            Work::Announce { to, .. } | Work::Withdraw { to, .. } => *to,
        }
    }

    fn source(&self) -> Asn {
        match self {
            Work::Announce { from, .. } | Work::Withdraw { from, .. } => *from,
        }
    }
}

/// The simulator.
pub struct BgpSimulator<'a> {
    topology: &'a Topology,
    origin_index: OriginIndex,
    deployment: CollectorDeployment,
    behaviors: HashMap<Asn, SessionBehavior>,
    state: HashMap<Asn, HashMap<Ipv4Prefix, PrefixState>>,
    /// Which neighbors each (origin, prefix) was directly sent to, with
    /// the sent route (for withdraws and scope changes).
    origin_adverts: HashMap<(Asn, Ipv4Prefix), BTreeMap<Asn, RouteEntry>>,
    emitted: HashMap<EmitKey, (AsPath, CommunitySet)>,
    elems: Vec<BgpElem>,
    bogons: BogonFilter,
    /// The installed per-AS policies; `None` (the default, and the
    /// result of installing an empty [`PolicyTable`]) runs the exact
    /// pre-extension code path.
    policies: Option<PolicyEngine>,
    /// Per-reason / per-extension rejection accounting, kept even when
    /// no policies are installed (counters never perturb routing).
    stats: RunStats,
    /// Customer-cone depth ranks of `topology`, the schedule key of the
    /// three propagation phases.
    ranks: PropagationRanks,
    /// Set only by [`BgpSimulator::fifo_reference`].
    fifo: bool,
    /// route-server ASN → index into `topology.ixps()` (replaces the
    /// linear `ixp_by_route_server` scan on the hot path).
    rs_index: HashMap<Asn, usize>,
    /// (AS, prefix) pairs whose visible state may have changed since the
    /// last flush. Emissions are reconstructed from final state at
    /// flush time, so transient adverts never reach the elem stream.
    dirty: BTreeSet<(Asn, Ipv4Prefix)>,
    /// Reused seed-neighbor scratch buffer (no per-announce alloc).
    scratch_neighbors: Vec<Asn>,
}

impl<'a> BgpSimulator<'a> {
    /// Build a simulator. `seed` controls per-AS session behavior
    /// (host-route acceptance) only.
    pub fn new(topology: &'a Topology, deployment: CollectorDeployment, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut behaviors = HashMap::new();
        for info in topology.ases() {
            behaviors.insert(
                info.asn,
                SessionBehavior {
                    host_routes_from_customers: rng.gen_bool(0.9),
                    host_routes_from_peers: rng.gen_bool(0.25),
                },
            );
        }
        let rs_index =
            topology.ixps().iter().enumerate().map(|(i, ixp)| (ixp.route_server_asn, i)).collect();
        BgpSimulator {
            topology,
            origin_index: topology.origin_index(),
            deployment,
            behaviors,
            state: HashMap::new(),
            origin_adverts: HashMap::new(),
            emitted: HashMap::new(),
            elems: Vec::new(),
            bogons: BogonFilter::new(),
            policies: None,
            stats: RunStats::default(),
            ranks: topology.propagation_ranks(),
            fifo: false,
            rs_index,
            dirty: BTreeSet::new(),
            scratch_neighbors: Vec::new(),
        }
    }

    /// The reference the engine is property-tested against
    /// (`tests/tests/phased_propagation.rs`): the same per-item import
    /// and advertisement rules driven by one FIFO queue, every work item
    /// ingested and re-advertised on its own. Slower, and never the
    /// product path.
    #[doc(hidden)]
    pub fn fifo_reference(
        topology: &'a Topology,
        deployment: CollectorDeployment,
        seed: u64,
    ) -> Self {
        BgpSimulator { fifo: true, ..Self::new(topology, deployment, seed) }
    }

    /// Install (compile) a policy table. An empty table uninstalls:
    /// the simulator then runs the extensions-off fast path, which is
    /// property-tested bit-identical to the pre-extension baseline.
    /// Returns `true` when the table was non-empty and is now installed.
    pub fn install_policies(&mut self, table: &PolicyTable) -> bool {
        self.policies = PolicyEngine::compile(table);
        self.policies.is_some()
    }

    /// Per-`RejectReason` and per-extension rejection counts so far.
    pub fn run_stats(&self) -> &RunStats {
        &self.stats
    }

    /// Reset the rejection counters (e.g. between workload phases).
    pub fn reset_run_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The collector deployment in use.
    pub fn deployment(&self) -> &CollectorDeployment {
        &self.deployment
    }

    /// Override one AS's session behavior (scenarios use this to model
    /// specific router configurations, e.g. members that do or do not
    /// accept /32s).
    pub fn set_behavior(&mut self, asn: Asn, behavior: SessionBehavior) {
        self.behaviors.insert(asn, behavior);
    }

    /// The session behavior of an AS.
    pub fn behavior(&self, asn: Asn) -> SessionBehavior {
        self.behaviors.get(&asn).copied().unwrap_or_default()
    }

    /// Drain the accumulated collector elements (time-ordered as emitted).
    pub fn drain_elems(&mut self) -> Vec<BgpElem> {
        std::mem::take(&mut self.elems)
    }

    /// Peek at accumulated elements.
    pub fn elems(&self) -> &[BgpElem] {
        &self.elems
    }

    /// Does `asn` currently hold a blackhole-flagged route for `prefix`?
    /// (Ground-truth query for data-plane simulation.)
    pub fn is_blackholed_at(&self, asn: Asn, prefix: &Ipv4Prefix) -> bool {
        self.state
            .get(&asn)
            .and_then(|m| m.get(prefix))
            .is_some_and(|ps| ps.candidates.values().any(|r| r.is_blackhole))
    }

    /// All ASes currently holding a blackhole route for `prefix`.
    pub fn blackholing_ases_for(&self, prefix: &Ipv4Prefix) -> Vec<Asn> {
        let mut out: Vec<Asn> = self
            .state
            .iter()
            .filter(|(_, m)| {
                m.get(prefix).is_some_and(|ps| ps.candidates.values().any(|r| r.is_blackhole))
            })
            .map(|(asn, _)| *asn)
            .collect();
        out.sort_unstable();
        out
    }

    /// Inject an announcement; returns blackhole acceptance outcomes.
    /// On non-convergence the run stops gracefully (counted in
    /// [`RunStats::convergence_failures`]); use
    /// [`BgpSimulator::try_announce`] to observe the error.
    pub fn announce(&mut self, time: SimTime, announcement: &Announcement) -> AnnounceOutcome {
        self.announce_impl(time, announcement).0
    }

    /// Like [`BgpSimulator::announce`], surfacing the propagation error.
    pub fn try_announce(
        &mut self,
        time: SimTime,
        announcement: &Announcement,
    ) -> Result<AnnounceOutcome, PropagationError> {
        let (outcome, result) = self.announce_impl(time, announcement);
        result.map(|()| outcome)
    }

    fn announce_impl(
        &mut self,
        time: SimTime,
        announcement: &Announcement,
    ) -> (AnnounceOutcome, Result<(), PropagationError>) {
        let mut outcome = AnnounceOutcome::default();
        if announcement.prefix.length() < 8 {
            return (outcome, Ok(())); // never less specific than /8
        }
        // Martian space never propagates (routers filter it on ingress);
        // host routes are checked against the same bogon table.
        if !self.bogons.is_routable(&announcement.prefix) {
            return (outcome, Ok(()));
        }
        let origin = announcement.origin;
        let mut path = AsPath::empty();
        path.prepend(origin, announcement.prepend.max(1));
        let route = RouteEntry {
            as_path: path,
            communities: announcement.communities.clone(),
            learned_from: origin,
            learned_rel: Relationship::Peer, // placeholder; set per receiver
            local_pref: 0,
            is_blackhole: false,
            irr_registered: announcement.irr_registered,
            next_hop: None,
            leak_marked: false,
        };

        self.scratch_neighbors.clear();
        match &announcement.scope {
            AnnounceScope::AllNeighbors => {
                let topology = self.topology;
                self.scratch_neighbors.extend(topology.neighbors(origin).iter().map(|(n, _)| *n));
            }
            AnnounceScope::Neighbors(list) => self.scratch_neighbors.extend_from_slice(list),
        }

        let mut seeds: Vec<Work> = Vec::with_capacity(self.scratch_neighbors.len());
        let adverts = self.origin_adverts.entry((origin, announcement.prefix)).or_default();
        let previously: Vec<Asn> = adverts.keys().copied().collect();
        for &n in &self.scratch_neighbors {
            adverts.insert(n, route.clone());
            seeds.push(Work::Announce {
                to: n,
                from: origin,
                prefix: announcement.prefix,
                route: route.clone(),
            });
        }
        for n in previously {
            if !self.scratch_neighbors.contains(&n) {
                adverts.remove(&n);
                seeds.push(Work::Withdraw { to: n, from: origin, prefix: announcement.prefix });
            }
        }

        let result = self.run(seeds, &mut outcome);
        // Canonical outcome order, independent of engine and work order.
        outcome.accepted_by.sort_unstable();
        outcome.rejected_by.sort_unstable_by_key(|(a, _)| *a);
        self.flush_emissions(time);
        (outcome, result)
    }

    /// Withdraw an origin's prefix everywhere it was advertised. Like
    /// [`BgpSimulator::announce`], non-convergence degrades gracefully.
    pub fn withdraw(&mut self, time: SimTime, origin: Asn, prefix: Ipv4Prefix) {
        let _ = self.withdraw_impl(time, origin, prefix);
    }

    /// Like [`BgpSimulator::withdraw`], surfacing the propagation error.
    pub fn try_withdraw(
        &mut self,
        time: SimTime,
        origin: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<(), PropagationError> {
        self.withdraw_impl(time, origin, prefix)
    }

    fn withdraw_impl(
        &mut self,
        time: SimTime,
        origin: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<(), PropagationError> {
        let Some(adverts) = self.origin_adverts.remove(&(origin, prefix)) else {
            return Ok(());
        };
        let seeds: Vec<Work> =
            adverts.into_keys().map(|n| Work::Withdraw { to: n, from: origin, prefix }).collect();
        let mut outcome = AnnounceOutcome::default();
        let result = self.run(seeds, &mut outcome);
        self.flush_emissions(time);
        result
    }

    // ---- engine ---------------------------------------------------------

    fn run(
        &mut self,
        seeds: Vec<Work>,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let result =
            if self.fifo { self.run_fifo(seeds, outcome) } else { self.run_phases(seeds, outcome) };
        if result.is_err() {
            self.stats.convergence_failures += 1;
        }
        result
    }

    /// The engine: three valley-free phases per round — work arriving
    /// from customers in ascending rank order, peer/route-server work in
    /// waves, work arriving from providers in descending rank order —
    /// repeated until quiescent. Rank order delivers the
    /// highest-preference customer routes first, and each AS ingests
    /// everything a sweep has queued for it before advertising, so a
    /// best route settles once per sweep instead of flipping (and
    /// re-flooding the customer cone) on every input.
    fn run_phases(
        &mut self,
        seeds: Vec<Work>,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        // One slot per (phase, rank) in sweep order; work generated for
        // a later slot joins this round, for an earlier one the next.
        let mut slots: Vec<Vec<Work>> = vec![Vec::new(); 2 * self.ranks.max_rank() as usize + 3];
        for work in seeds {
            slots[self.slot_of(&work)].push(work);
        }
        let mut steps = 0;
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            for slot in 0..slots.len() {
                while !slots[slot].is_empty() {
                    progressed = true;
                    let mut works = std::mem::take(&mut slots[slot]);
                    self.spend(&mut steps, works.len())?;
                    // Stable: two items from one sender keep their order.
                    works.sort_by_key(|w| w.target());
                    self.process_group(works, outcome, &mut out);
                    for work in out.drain(..) {
                        slots[self.slot_of(&work)].push(work);
                    }
                }
            }
            if !progressed {
                return Ok(());
            }
        }
    }

    /// The sweep slot of a work item, by the role of the *sender* as
    /// seen from the receiver: a route arriving from a customer is
    /// climbing (slots `0..=top`, the receiver's rank ascending), one
    /// from a provider is descending (the last `top + 1` slots, rank
    /// descending), and anything else — peers, route servers, unknown
    /// senders — is lateral (the slot between).
    fn slot_of(&self, work: &Work) -> usize {
        let top = self.ranks.max_rank() as usize;
        let rank = self.ranks.rank_of(work.target()).unwrap_or(0) as usize;
        match self.topology.rel_between(work.target(), work.source()) {
            Some(Relationship::Customer) => rank,
            Some(Relationship::Provider) => 2 * top + 2 - rank,
            _ => top + 1,
        }
    }

    /// The FIFO reference: every work item is a group of its own.
    fn run_fifo(
        &mut self,
        seeds: Vec<Work>,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let mut queue: VecDeque<Work> = seeds.into();
        let mut steps = 0;
        let mut out = Vec::new();
        while let Some(work) = queue.pop_front() {
            self.spend(&mut steps, 1)?;
            self.process_group([work], outcome, &mut out);
            queue.extend(out.drain(..));
        }
        Ok(())
    }

    /// Count `n` more work items against a run's step cap (a policy
    /// dispute wheel, e.g. dueling leakers, can oscillate forever).
    fn spend(&mut self, steps: &mut u64, n: usize) -> Result<(), PropagationError> {
        self.stats.work_items += n as u64;
        *steps += n as u64;
        if *steps >= (self.topology.as_count() as u64 + 10) * 10_000 {
            return Err(PropagationError::NoConvergence { steps: *steps });
        }
        Ok(())
    }

    /// Process work items grouped by target: each target AS first
    /// ingests all of its items into its candidate sets, then advertises
    /// once per prefix whose candidates changed. Generated work is
    /// appended to `out`.
    fn process_group(
        &mut self,
        works: impl IntoIterator<Item = Work>,
        outcome: &mut AnnounceOutcome,
        out: &mut Vec<Work>,
    ) {
        let ctx = SimCtx {
            topology: self.topology,
            origin_index: &self.origin_index,
            behaviors: &self.behaviors,
            policies: self.policies.as_ref(),
            rs_index: &self.rs_index,
        };
        let mut touched: Vec<Ipv4Prefix> = Vec::new();
        let mut works = works.into_iter().peekable();
        while let Some(me) = works.peek().map(Work::target) {
            let mut node = NodeState {
                me,
                prefixes: self.state.entry(me).or_default(),
                out: &mut *out,
                stats: &mut self.stats,
                outcome: &mut *outcome,
                dirty: &mut self.dirty,
            };
            while let Some(work) = works.next_if(|w| w.target() == me) {
                touched.extend(ingest(&ctx, &mut node, work));
            }
            touched.sort_unstable();
            touched.dedup();
            for prefix in touched.drain(..) {
                match ctx.ixp_of(me) {
                    Some(ixp) => rs_redistribute(&mut node, ixp, prefix),
                    None => after_change(&ctx, &mut node, prefix),
                }
            }
        }
    }

    /// Reconstruct collector emissions from final state for every
    /// (AS, prefix) pair dirtied since the last flush. Emitting from
    /// the converged state (rather than along the propagation
    /// trajectory) is what makes the elem stream independent of the
    /// schedule: propagation order affects only transient state, and
    /// the best-path fixpoint is unique.
    fn flush_emissions(&mut self, time: SimTime) {
        if self.dirty.is_empty() {
            return;
        }
        let topology = self.topology;
        let dirty = std::mem::take(&mut self.dirty);
        for &(me, prefix) in &dirty {
            let ps = self.state.get(&me).and_then(|m| m.get(&prefix));
            if let Some(&idx) = self.rs_index.get(&me) {
                // Route-server node: refresh the PCH per-member views,
                // attributing each route to the member that sent it,
                // with its peering-LAN address.
                let ixp = &topology.ixps()[idx];
                for session in self.deployment.sessions_at(me) {
                    if !matches!(session.feed, FeedKind::RouteServerView(_)) {
                        continue;
                    }
                    for &member in &ixp.members {
                        let visible = ps.and_then(|ps| ps.candidates.get(&member)).map(|r| {
                            let mut out = r.clone();
                            if ixp.route_server_in_path {
                                out.as_path.prepend(me, 1);
                            }
                            out
                        });
                        let peer_ip =
                            ixp.member_lan_ip(member).map(IpAddr::V4).unwrap_or(session.peer_ip);
                        let key: EmitKey =
                            (session.dataset, session.collector, session.peer_asn, prefix, member);
                        emit_diff(
                            &mut self.emitted,
                            &mut self.elems,
                            time,
                            key,
                            session,
                            peer_ip,
                            prefix,
                            member,
                            visible.as_ref(),
                        );
                    }
                }
            } else {
                let held = ps.and_then(|ps| ps.best().map(|best| (ps, best)));
                for session in self.deployment.sessions_at(me) {
                    let visible: Option<&RouteEntry> = match (session.feed, held) {
                        // only meaningful at route-server nodes
                        (FeedKind::RouteServerView(_), _) => continue,
                        (_, None) => None,
                        (FeedKind::Full, Some((_, b))) => {
                            (!b.communities.has_no_export()).then_some(b)
                        }
                        (FeedKind::CustomerOnly, Some((_, b))) => (!b.communities.has_no_export()
                            && b.learned_rel == Relationship::Customer)
                            .then_some(b),
                        // Internal sessions prefer the blackhole candidate
                        // when one exists (it is the operationally
                        // interesting route).
                        (FeedKind::Internal, Some((ps, b))) => {
                            Some(ps.candidates.values().find(|r| r.is_blackhole).unwrap_or(b))
                        }
                    };
                    // The peer prepends itself when exporting to
                    // the collector, exactly like any other eBGP
                    // export.
                    let exported = visible.map(|r| {
                        let mut out = r.clone();
                        out.as_path.prepend(me, 1);
                        out
                    });
                    let key: EmitKey =
                        (session.dataset, session.collector, session.peer_asn, prefix, me);
                    emit_diff(
                        &mut self.emitted,
                        &mut self.elems,
                        time,
                        key,
                        session,
                        session.peer_ip,
                        prefix,
                        me,
                        exported.as_ref(),
                    );
                }
            }
        }
    }
}

// ---- propagation core ---------------------------------------------------
//
// The functions below take an explicit read-only context plus a view of
// the one AS being processed instead of `&mut self`, so `process_group`
// can borrow the simulator's fields disjointly.

/// Read-only propagation context.
struct SimCtx<'a> {
    topology: &'a Topology,
    origin_index: &'a OriginIndex,
    behaviors: &'a HashMap<Asn, SessionBehavior>,
    policies: Option<&'a PolicyEngine>,
    /// route-server ASN → index into `topology.ixps()`.
    rs_index: &'a HashMap<Asn, usize>,
}

impl SimCtx<'_> {
    fn ixp_of(&self, asn: Asn) -> Option<&Ixp> {
        self.rs_index.get(&asn).map(|&i| &self.topology.ixps()[i])
    }
}

/// Mutable state of the one AS a work item targets. Processing a work
/// item touches nothing outside this view.
struct NodeState<'a> {
    me: Asn,
    prefixes: &'a mut HashMap<Ipv4Prefix, PrefixState>,
    out: &'a mut Vec<Work>,
    stats: &'a mut RunStats,
    outcome: &'a mut AnnounceOutcome,
    dirty: &'a mut BTreeSet<(Asn, Ipv4Prefix)>,
}

/// Apply one work item to the target's candidate set — import filters,
/// outcome and stat recording included — without advertising anything.
/// Returns the prefix when the candidate set changed.
fn ingest(ctx: &SimCtx<'_>, node: &mut NodeState<'_>, work: Work) -> Option<Ipv4Prefix> {
    let me = node.me;
    let (from, prefix, candidate) = match work {
        Work::Withdraw { from, prefix, .. } => (from, prefix, None),
        Work::Announce { from, prefix, route, .. } => {
            let candidate = if route.as_path.contains(me) {
                // Loop prevention is treat-as-withdraw: any previously
                // held candidate from this neighbor is gone, which keeps
                // the converged state independent of delivery order.
                node.stats.record_import_reject(RejectReason::LoopDetected);
                None
            } else {
                // A targeted announce to a non-neighbor is silently dropped.
                let rel = ctx.topology.rel_between(me, from)?;
                // Route-server node? Special redistribution semantics.
                // Per-AS policies deliberately do not apply at route
                // servers: they are transparent redistribution points,
                // not policy actors, and PCH visibility depends on that
                // transparency.
                match ctx.ixp_of(me) {
                    // only members speak to the route server
                    Some(ixp) if !ixp.has_member(from) => return None,
                    Some(_) => import_at_route_server(ctx, node, from, prefix, route),
                    None => import_at_router(ctx, node, from, rel, prefix, route),
                }
            };
            (from, prefix, candidate)
        }
    };
    let changed = match candidate {
        Some(route) => {
            let ps = node.prefixes.entry(prefix).or_default();
            let unchanged = ps.candidates.get(&from) == Some(&route);
            ps.candidates.insert(from, route);
            !unchanged
        }
        // No (longer a) candidate from this neighbor.
        None => {
            node.prefixes.get_mut(&prefix).is_some_and(|ps| ps.candidates.remove(&from).is_some())
        }
    };
    changed.then_some(prefix)
}

/// Import at an ordinary AS: the candidate `me` holds from `from` after
/// this announcement, `None` when an ingress filter rejects it.
fn import_at_router(
    ctx: &SimCtx<'_>,
    node: &mut NodeState<'_>,
    from: Asn,
    rel: Relationship,
    prefix: Ipv4Prefix,
    mut route: RouteEntry,
) -> Option<RouteEntry> {
    let me = node.me;
    // The per-AS policy filters run before the Gao-Rexford import —
    // they model the ingress filters (ROV, peerlock, path-end, OTC) a
    // router applies ahead of route acceptance.
    if let Some(engine) = ctx.policies {
        engine
            .import(
                ctx.topology,
                node.stats,
                me,
                from,
                rel,
                &prefix,
                &route.as_path,
                &mut route.leak_marked,
            )
            .ok()?;
    }

    let behavior = ctx.behaviors.get(&me).copied().unwrap_or_default();
    let origin = route.as_path.origin().unwrap_or(from);
    let auth_ctx = AuthContext {
        topology: ctx.topology,
        origin,
        sender: from,
        allocation_owner: ctx.origin_index.origin_of(&prefix),
        irr_registered: route.irr_registered,
    };
    let import =
        import_decision(me, rel, &prefix, &route.communities, behavior, ctx.topology, &auth_ctx);
    // Record trigger-specific rejections for ground truth even when
    // the route is otherwise accepted as a plain route.
    if let Some(reason) = import.trigger_rejection {
        node.stats.record_trigger_reject(reason);
        if !node.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
            node.outcome.rejected_by.push((me, reason));
        }
    }

    match import.decision {
        ImportDecision::Reject(reason) => {
            node.stats.record_import_reject(reason);
            return None;
        }
        ImportDecision::Blackhole => {
            route.is_blackhole = true;
            if !node.outcome.accepted_by.contains(&me) {
                node.outcome.accepted_by.push(me);
            }
        }
        ImportDecision::Regular => {
            // A blackhole route redistributed by a route server keeps
            // its drop semantics at members (next-hop is the null
            // interface). Anywhere else the flag must not travel: a
            // transit AS holding a propagated /32 merely routes toward
            // the provider that discards.
            route.is_blackhole =
                route.is_blackhole && rel == Relationship::RouteServer && route.next_hop.is_some();
        }
    }
    route.learned_rel = rel;
    route.local_pref = local_pref_for(rel);
    Some(route)
}

/// After a candidate change at `me`: recompute best, update neighbor
/// advertisements, and mark the pair dirty for the emission flush.
fn after_change(ctx: &SimCtx<'_>, node: &mut NodeState<'_>, prefix: Ipv4Prefix) {
    let me = node.me;
    node.dirty.insert((me, prefix));
    let topology = ctx.topology;
    let offering = topology.as_info(me).and_then(|i| i.blackhole_offering.as_ref());
    let Some(ps) = node.prefixes.get_mut(&prefix) else {
        return;
    };
    let best = ps.best().cloned();
    if ps.advert_basis == best {
        return; // adverts are a pure function of best: nothing to redo
    }

    // Determine the outbound advertisement per neighbor.
    for &(n, to_rel) in topology.neighbors(me) {
        // Each `None` arm mirrors one distinct suppression rule of the
        // paper; keeping them separate (with their comments) documents
        // the policy even though the bodies coincide.
        #[allow(clippy::if_same_then_else)]
        let advert: Option<RouteEntry> = match &best {
            None => None,
            Some(best) => {
                if n == best.learned_from {
                    None // never advertise back to the sender
                } else if best.communities.has_no_export() {
                    None // explicit NO_EXPORT: honored by everyone
                } else if best.is_blackhole && offering.is_some_and(|o| o.honors_no_export) {
                    None // RFC 7999-compliant provider suppresses
                } else {
                    // Valley-free verdict, then the per-AS export
                    // policy (OTC marking / scrub / leaker override).
                    // The hard suppressions above are never
                    // overridable — NO_EXPORT and RFC 7999 compliance
                    // hold even at a leaker.
                    let default_allowed = may_export(Some(best.learned_rel), to_rel);
                    let decided = match ctx.policies {
                        None => default_allowed.then(|| best.clone()),
                        Some(engine) => {
                            let mut out = best.clone();
                            let allowed = engine.export(
                                node.stats,
                                me,
                                to_rel,
                                &mut out.communities,
                                &mut out.leak_marked,
                                default_allowed,
                            );
                            allowed.then_some(out)
                        }
                    };
                    match decided {
                        None => None, // valley-free (or policy) suppression
                        Some(mut out) => {
                            out.as_path.prepend(me, 1);
                            if best.is_blackhole {
                                if let Some(o) = offering {
                                    if o.strips_community {
                                        out.communities.retain(|c| !o.is_trigger(*c));
                                    }
                                }
                            }
                            Some(out)
                        }
                    }
                }
            }
        };

        let unchanged = match (&advert, ps.advertised.get(&n)) {
            (None, None) => true,
            (Some(a), Some(o)) => a == o,
            _ => false,
        };
        if unchanged {
            continue;
        }
        match advert {
            Some(a) => {
                node.out.push(Work::Announce { to: n, from: me, prefix, route: a.clone() });
                ps.advertised.insert(n, a);
            }
            None => {
                ps.advertised.remove(&n);
                node.out.push(Work::Withdraw { to: n, from: me, prefix });
            }
        }
    }
    ps.advert_basis = best;
}

/// Compare with the session's previously emitted state; emit announce
/// or withdraw elems as needed.
#[allow(clippy::too_many_arguments)] // flat emission context, called from one place per feed kind
fn emit_diff(
    emitted: &mut HashMap<EmitKey, (AsPath, CommunitySet)>,
    elems: &mut Vec<BgpElem>,
    time: SimTime,
    key: EmitKey,
    session: &CollectorSession,
    peer_ip: IpAddr,
    prefix: Ipv4Prefix,
    attributed_peer: Asn,
    visible: Option<&RouteEntry>,
) {
    let old = emitted.get(&key);
    match visible {
        Some(route) => {
            let sig = (route.as_path.clone(), route.communities.clone());
            if old == Some(&sig) {
                return;
            }
            emitted.insert(key, sig);
            elems.push(BgpElem {
                time,
                dataset: session.dataset,
                collector: session.collector,
                peer_asn: attributed_peer,
                peer_ip,
                elem_type: ElemType::Announce,
                prefix,
                as_path: route.as_path.clone(),
                communities: route.communities.clone(),
                next_hop: route.next_hop,
            });
        }
        None => {
            if old.is_none() {
                return;
            }
            emitted.remove(&key);
            elems.push(BgpElem {
                time,
                dataset: session.dataset,
                collector: session.collector,
                peer_asn: attributed_peer,
                peer_ip,
                elem_type: ElemType::Withdraw,
                prefix,
                as_path: AsPath::empty(),
                communities: CommunitySet::new(),
                next_hop: None,
            });
        }
    }
}

// ---- route servers --------------------------------------------------

/// Import at a route server: the candidate it holds from member `from`
/// after this announcement, `None` when its import filter rejects it.
fn import_at_route_server(
    ctx: &SimCtx<'_>,
    node: &mut NodeState<'_>,
    from: Asn,
    prefix: Ipv4Prefix,
    mut route: RouteEntry,
) -> Option<RouteEntry> {
    let me = node.me;
    let triggered =
        ctx.topology.as_info(me).and_then(|i| i.blackhole_offering.as_ref()).filter(|o| {
            route.communities.iter().any(|c| o.is_trigger(c))
                || o.large_community.is_some_and(|l| route.communities.contains_large(l))
        });
    if let Some(o) = triggered {
        // Route servers filter on IRR registration: misconfigured
        // users' blackhole requests are not redistributed (§10).
        let auth_ctx = AuthContext {
            topology: ctx.topology,
            origin: route.as_path.origin().unwrap_or(from),
            sender: from,
            allocation_owner: ctx.origin_index.origin_of(&prefix),
            irr_registered: route.irr_registered,
        };
        let rejection = if !o.accepts_length(prefix.length()) {
            Some(RejectReason::LengthRejected)
        } else if !crate::policy::auth_ok(o.auth, &auth_ctx) {
            Some(RejectReason::AuthFailed)
        } else {
            None
        };
        if let Some(reason) = rejection {
            if !node.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
                node.outcome.rejected_by.push((me, reason));
            }
            return None;
        }
        route.is_blackhole = true;
        route.next_hop = o.blackhole_ip.map(IpAddr::V4);
        if !node.outcome.accepted_by.contains(&me) {
            node.outcome.accepted_by.push(me);
        }
    } else if prefix.is_more_specific_than(24) {
        // Untagged host routes are not redistributed by route servers.
        return None;
    }
    route.learned_rel = Relationship::RouteServer;
    route.local_pref = local_pref_for(Relationship::RouteServer);
    Some(route)
}

/// Re-advertise the route server's choice to every member after any
/// change to its candidate set: each member receives the best remaining
/// candidate contributed by *another* member (shortest AS path, then
/// lowest contributor ASN), or a withdraw when none is left.
///
/// Advertising the post-change best — not the triggering change — is
/// what keeps the members' view a pure function of the route server's
/// final candidate set: a member holds exactly one candidate per route
/// server session, so forwarding every contribution would leave
/// whichever arrived last, an artifact of delivery order the elem
/// stream must not depend on. The PCH route-server views are
/// reconstructed from the final candidate set at flush time;
/// propagation only marks the pair dirty.
fn rs_redistribute(node: &mut NodeState<'_>, ixp: &Ixp, prefix: Ipv4Prefix) {
    let me = node.me;
    node.dirty.insert((me, prefix));
    static EMPTY: BTreeMap<Asn, RouteEntry> = BTreeMap::new();
    let candidates = node.prefixes.get(&prefix).map(|ps| &ps.candidates).unwrap_or(&EMPTY);
    for &member in &ixp.members {
        let best = candidates
            .iter()
            .filter(|&(&contributor, _)| contributor != member)
            .min_by_key(|&(&contributor, route)| (route.as_path.hop_len(), contributor));
        match best {
            Some((_, route)) => {
                let mut out = route.clone();
                if ixp.route_server_in_path {
                    out.as_path.prepend(me, 1);
                }
                node.out.push(Work::Announce { to: member, from: me, prefix, route: out });
            }
            None => {
                node.out.push(Work::Withdraw { to: member, from: me, prefix });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::community::Community;
    use bh_topology::{BlackholeAuth, NetworkType, Tier};

    use crate::collector::{CollectorConfig, CollectorSession};

    use super::*;

    /// Hand-built topology:
    ///
    /// ```text
    ///        T1a ===== T1b          (tier-1 peers)
    ///        /  \        \
    ///      P1    P2      T1b's customer: peerAS
    ///        \  /
    ///        USER (originates 30.0.0.0/16)
    ///  USER also peers with peerAS.
    /// ```
    /// P1 and P2 offer blackholing (P1: 0xP1:666, honors no-export;
    /// P2: strips its community, propagates).
    struct Fixture {
        topology: Topology,
        t1a: Asn,
        p1: Asn,
        p2: Asn,
        user: Asn,
        peer_as: Asn,
    }

    fn fixture() -> Fixture {
        use bh_topology::{AsInfo, BlackholeOffering, DocumentationChannel};
        use std::collections::BTreeMap;

        let t1a = Asn::new(10);
        let t1b = Asn::new(11);
        let p1 = Asn::new(20);
        let p2 = Asn::new(21);
        let user = Asn::new(30);
        let peer_as = Asn::new(40);

        let mk = |asn: Asn,
                  tier: Tier,
                  prefixes: Vec<&str>,
                  offering: Option<BlackholeOffering>| AsInfo {
            asn,
            tier,
            network_type: NetworkType::TransitAccess,
            country: "DE",
            prefixes: prefixes.iter().map(|p| p.parse().unwrap()).collect(),
            blackhole_offering: offering,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb: true,
        };
        let offer = |asn: Asn, honors: bool, strips: bool| BlackholeOffering {
            communities: vec![Community::from_parts(asn.value() as u16, 666)],
            large_community: None,
            min_accepted_length: 25,
            documentation: DocumentationChannel::Irr,
            auth: BlackholeAuth::OriginOrCone,
            blackhole_ip: None,
            strips_community: strips,
            honors_no_export: honors,
        };

        let mut ases = BTreeMap::new();
        ases.insert(t1a, mk(t1a, Tier::Tier1, vec!["50.0.0.0/12"], None));
        ases.insert(t1b, mk(t1b, Tier::Tier1, vec!["51.0.0.0/12"], None));
        ases.insert(p1, mk(p1, Tier::Transit, vec!["52.0.0.0/14"], Some(offer(p1, true, false))));
        ases.insert(p2, mk(p2, Tier::Transit, vec!["53.0.0.0/14"], Some(offer(p2, false, true))));
        ases.insert(user, mk(user, Tier::Stub, vec!["30.0.0.0/16"], None));
        ases.insert(peer_as, mk(peer_as, Tier::Stub, vec!["54.0.0.0/16"], None));

        let edges = vec![
            (t1a, t1b, Relationship::Peer),
            (t1a, p1, Relationship::Customer),
            (t1a, p2, Relationship::Customer),
            (t1b, peer_as, Relationship::Customer),
            (p1, user, Relationship::Customer),
            (p2, user, Relationship::Customer),
            (user, peer_as, Relationship::Peer),
        ];
        Fixture { topology: Topology::assemble(ases, edges, vec![]), t1a, p1, p2, user, peer_as }
    }

    fn session(dataset: DataSource, asn: Asn, feed: FeedKind) -> CollectorSession {
        CollectorSession {
            dataset,
            collector: 0,
            peer_asn: asn,
            peer_ip: "192.0.2.9".parse().unwrap(),
            feed,
        }
    }

    fn deployment_with(sessions: Vec<CollectorSession>) -> CollectorDeployment {
        let mut d = CollectorDeployment::default();
        for s in sessions {
            d.add_session(s);
        }
        d
    }

    fn bh_communities(provider: Asn) -> CommunitySet {
        CommunitySet::from_classic(vec![Community::from_parts(provider.value() as u16, 666)])
    }

    /// Deterministic behaviors: everyone accepts host routes from
    /// customers, nobody from peers (tests override as needed).
    fn pin_behaviors(sim: &mut BgpSimulator<'_>, f: &Fixture) {
        for asn in [f.t1a, f.p1, f.p2, f.user, f.peer_as] {
            sim.set_behavior(asn, SessionBehavior::default());
        }
        sim.set_behavior(Asn::new(11), SessionBehavior::default());
    }

    #[test]
    fn regular_announcement_floods_valley_free() {
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement::simple(f.user, "30.0.0.0/16".parse().unwrap(), CommunitySet::new()),
        );
        assert!(outcome.accepted_by.is_empty());
        let elems = sim.drain_elems();
        // T1a sees the route via its customers P1/P2.
        assert!(!elems.is_empty());
        let announce = elems.iter().find(|e| e.is_announce()).unwrap();
        assert_eq!(announce.prefix, "30.0.0.0/16".parse().unwrap());
        assert_eq!(announce.as_path.origin(), Some(f.user));
        // Valley-free: path is T1a ← {P1|P2} ← user.
        assert_eq!(announce.as_path.hop_len(), 3);
        assert_eq!(announce.as_path.first(), Some(f.t1a));
    }

    #[test]
    fn blackhole_accepted_at_provider() {
        let f = fixture();
        let d = deployment_with(vec![]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert_eq!(outcome.accepted_by, vec![f.p1]);
        assert!(outcome.rejected_by.is_empty());
        assert!(sim.is_blackholed_at(f.p1, &"30.0.1.1/32".parse().unwrap()));
        assert!(!sim.is_blackholed_at(f.p2, &"30.0.1.1/32".parse().unwrap()));
    }

    #[test]
    fn rfc_compliant_provider_suppresses_propagation() {
        // P1 honors no-export: T1a must never learn the /32.
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(sim.drain_elems().is_empty());
    }

    #[test]
    fn non_compliant_provider_propagates_with_stripped_community() {
        // P2 strips its community but does propagate.
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).expect("T1a sees the /32");
        assert_eq!(announce.prefix, "30.0.1.1/32".parse().unwrap());
        // The trigger was stripped.
        assert!(!announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        // Provider is on the path.
        assert!(announce.as_path.contains(f.p2));
    }

    #[test]
    fn bundling_is_visible_via_non_provider_neighbors() {
        // USER bundles P1+P2 triggers and announces to ALL neighbors,
        // including peerAS which has a collector session. Even though P1
        // suppresses and P2 strips, the bundle is visible via peerAS with
        // both communities intact (Fig. 3's key mechanism).
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::RouteViews, f.peer_as, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.set_behavior(
            f.peer_as,
            SessionBehavior { host_routes_from_customers: true, host_routes_from_peers: true },
        );
        let mut communities = bh_communities(f.p1);
        communities.merge(&bh_communities(f.p2));
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: communities.clone(),
                scope: AnnounceScope::AllNeighbors,
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let seen = elems.iter().find(|e| e.is_announce() && e.peer_asn == f.peer_as);
        // peerAS accepts the /32 from its peer only if its session
        // behavior allows host routes from peers; the chosen seed does.
        let announce = seen.expect("bundled announcement visible at peerAS");
        assert!(announce.communities.contains(Community::from_parts(f.p1.value() as u16, 666)));
        assert!(announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        // Neither provider is on the path (no-path / bundling case).
        assert!(!announce.as_path.contains(f.p1));
        assert!(!announce.as_path.contains(f.p2));
    }

    #[test]
    fn no_export_hides_from_public_but_not_internal() {
        let f = fixture();
        let d = deployment_with(vec![
            session(DataSource::Ris, f.p1, FeedKind::Full),
            session(DataSource::Cdn, f.p1, FeedKind::Internal),
        ]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let mut communities = bh_communities(f.p1);
        communities.insert(Community::NO_EXPORT);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities,
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        assert!(
            elems.iter().all(|e| e.dataset != DataSource::Ris),
            "RIS must not see a NO_EXPORT route"
        );
        let cdn = elems.iter().find(|e| e.dataset == DataSource::Cdn);
        assert!(cdn.is_some(), "CDN internal session sees NO_EXPORT routes");
        assert!(cdn.unwrap().communities.has_no_export());
    }

    #[test]
    fn direct_feed_sees_tagged_route() {
        // P2 has a RIS session: the tagged /32 is visible there even
        // before propagation (direct feed).
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.p2, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).expect("direct feed elem");
        assert_eq!(announce.peer_asn, f.p2);
        // Direct feeds retain the tag (stripping applies on neighbor
        // export, not on the provider's own collector session).
        assert!(announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        assert_eq!(announce.as_path.distance_from_peer(f.p2), Some(0));
    }

    #[test]
    fn withdraw_generates_withdraw_elems() {
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.p2, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix,
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        sim.withdraw(SimTime::from_unix(200), f.user, prefix);
        let elems = sim.drain_elems();
        let withdraw =
            elems.iter().find(|e| e.elem_type == ElemType::Withdraw).expect("withdraw elem");
        assert_eq!(withdraw.prefix, prefix);
        assert_eq!(withdraw.time, SimTime::from_unix(200));
        assert!(!sim.is_blackholed_at(f.p2, &prefix));
    }

    #[test]
    fn unauthorized_blackhole_is_rejected() {
        // USER requests blackholing of peerAS's space: auth failure at P1.
        let f = fixture();
        let d = deployment_with(vec![]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "54.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(outcome.accepted_by.is_empty());
        assert_eq!(outcome.rejected_by, vec![(f.p1, RejectReason::AuthFailed)]);
    }

    #[test]
    fn prepending_does_not_break_user_inference() {
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 3,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).unwrap();
        assert!(announce.as_path.has_prepending());
        assert_eq!(announce.as_path.hop_before(f.p2), Some(f.user));
    }

    #[test]
    fn reannouncement_without_community_updates_state() {
        // The implicit-withdrawal signal: re-announce without the tag.
        let f = fixture();
        let d = deployment_with(vec![session(DataSource::Ris, f.p2, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix,
                communities: bh_communities(f.p2),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(sim.is_blackholed_at(f.p2, &prefix));
        sim.announce(
            SimTime::from_unix(160),
            &Announcement {
                origin: f.user,
                prefix,
                communities: CommunitySet::new(),
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(!sim.is_blackholed_at(f.p2, &prefix));
        let elems = sim.drain_elems();
        // Two announcements at the direct feed: tagged then untagged.
        let announces: Vec<_> =
            elems.iter().filter(|e| e.is_announce() && e.peer_asn == f.p2).collect();
        assert_eq!(announces.len(), 2);
        assert!(!announces[0].communities.is_empty());
        assert!(announces[1].communities.is_empty());
    }

    #[test]
    fn route_server_redistributes_and_pch_attributes_members() {
        use bh_topology::{TopologyBuilder, TopologyConfig};
        // Generated topology: find an IXP with blackholing and ≥2 members.
        let t = TopologyBuilder::new(TopologyConfig::tiny(21)).build();
        let ixp = t
            .ixps()
            .iter()
            .find(|ixp| {
                ixp.members.len() >= 2
                    && t.as_info(ixp.route_server_asn)
                        .is_some_and(|i| i.blackhole_offering.is_some())
            })
            .expect("blackholing IXP exists")
            .clone();
        let member = *ixp
            .members
            .iter()
            .find(|m| !t.as_info(**m).unwrap().prefixes.is_empty())
            .expect("member with address space");
        let victim = t.as_info(member).unwrap().prefixes[0];
        let host = victim.nth_addr(7).map(Ipv4Prefix::host).unwrap();

        let d = crate::collector::deploy(
            &t,
            &CollectorConfig { pch_ixp_coverage: 1.0, ..CollectorConfig::tiny(5) },
        );
        let mut sim = BgpSimulator::new(&t, d, 9);
        let trigger = t
            .as_info(ixp.route_server_asn)
            .unwrap()
            .blackhole_offering
            .as_ref()
            .unwrap()
            .primary_community();
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: member,
                prefix: host,
                communities: CommunitySet::from_classic(vec![trigger]),
                scope: AnnounceScope::Neighbors(vec![ixp.route_server_asn]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert!(outcome.accepted_by.contains(&ixp.route_server_asn));
        let elems = sim.drain_elems();
        let pch: Vec<_> =
            elems.iter().filter(|e| e.dataset == DataSource::Pch && e.prefix == host).collect();
        assert!(!pch.is_empty(), "PCH route-server view sees the blackhole");
        for e in &pch {
            assert_eq!(e.peer_asn, member, "attributed to the announcing member");
            match e.peer_ip {
                IpAddr::V4(ip) => assert!(ixp.peering_lan.contains_addr(ip)),
                IpAddr::V6(_) => panic!("LAN addresses are IPv4"),
            }
            assert!(e.communities.contains(trigger));
            // Blackhole next-hop set by the route server.
            assert!(e.next_hop.is_some());
        }
    }

    #[test]
    fn route_server_rejects_unregistered_member_routes() {
        use bh_topology::{TopologyBuilder, TopologyConfig};
        let t = TopologyBuilder::new(TopologyConfig::tiny(21)).build();
        let ixp = t
            .ixps()
            .iter()
            .find(|ixp| {
                ixp.members.len() >= 2
                    && t.as_info(ixp.route_server_asn)
                        .is_some_and(|i| i.blackhole_offering.is_some())
            })
            .expect("blackholing IXP exists")
            .clone();
        let member =
            *ixp.members.iter().find(|m| !t.as_info(**m).unwrap().prefixes.is_empty()).unwrap();
        let victim = t.as_info(member).unwrap().prefixes[0];
        let host = victim.nth_addr(7).map(Ipv4Prefix::host).unwrap();
        let d = crate::collector::deploy(
            &t,
            &CollectorConfig { pch_ixp_coverage: 1.0, ..CollectorConfig::tiny(5) },
        );
        let mut sim = BgpSimulator::new(&t, d, 9);
        let trigger = t
            .as_info(ixp.route_server_asn)
            .unwrap()
            .blackhole_offering
            .as_ref()
            .unwrap()
            .primary_community();
        let outcome = sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: member,
                prefix: host,
                communities: CommunitySet::from_classic(vec![trigger]),
                scope: AnnounceScope::Neighbors(vec![ixp.route_server_asn]),
                irr_registered: false, // misconfigured user
                prepend: 1,
            },
        );
        assert!(outcome.accepted_by.is_empty());
        assert!(outcome
            .rejected_by
            .iter()
            .any(|(asn, r)| *asn == ixp.route_server_asn && *r == RejectReason::AuthFailed));
        assert!(sim.drain_elems().iter().all(|e| e.prefix != host));
    }

    // ---- policy extensions ----------------------------------------------

    #[test]
    fn run_stats_count_per_reason_rejections() {
        let f = fixture();
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);

        // USER requests blackholing of peerAS's space: AuthFailed at
        // P1, but the route is still imported as a plain route, so it
        // lands in trigger_rejects, not import_rejects.
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "54.0.1.0/25".parse().unwrap(),
                communities: bh_communities(f.p1),
                scope: AnnounceScope::Neighbors(vec![f.p1]),
                irr_registered: true,
                prepend: 1,
            },
        );
        assert_eq!(
            sim.run_stats().trigger_rejects.get(&RejectReason::AuthFailed),
            Some(&1),
            "inert trigger counted as trigger rejection"
        );

        // An untagged host route bundled everywhere: peers reject it
        // TooSpecific (pin_behaviors: nobody accepts /32s from peers).
        sim.announce(
            SimTime::from_unix(200),
            &Announcement::simple(f.user, "30.0.2.1/32".parse().unwrap(), CommunitySet::new()),
        );
        assert!(
            sim.run_stats().import_rejects_for(RejectReason::TooSpecific) > 0,
            "peer sessions reject untagged host routes"
        );

        // Flooding a regular prefix exercises loop prevention.
        sim.announce(
            SimTime::from_unix(300),
            &Announcement::simple(f.user, "30.0.0.0/16".parse().unwrap(), CommunitySet::new()),
        );
        assert!(sim.run_stats().import_rejects_for(RejectReason::LoopDetected) > 0);

        let total = sim.run_stats().total_import_rejects();
        assert!(total > 0);
        sim.reset_run_stats();
        assert_eq!(sim.run_stats().total_import_rejects(), 0);
    }

    #[test]
    fn rov_with_strict_roas_filters_blackhole_host_routes() {
        use bh_topology::{PolicyTable, RoaTable};

        let f = fixture();
        let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let request = Announcement {
            origin: f.user,
            prefix: host,
            communities: bh_communities(f.p1),
            scope: AnnounceScope::Neighbors(vec![f.p1]),
            irr_registered: true,
            prepend: 1,
        };

        // Without policies the provider accepts the blackhole.
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        assert_eq!(sim.announce(SimTime::from_unix(100), &request).accepted_by, vec![f.p1]);

        // Strict ROAs (max_length = allocation length) + ROV at the
        // provider: the /32 is RPKI-Invalid and never reaches trigger
        // evaluation.
        let mut table = PolicyTable::new();
        table.set_roas(RoaTable::strict_from_topology(&f.topology));
        table.entry(f.p1).rov = true;
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        assert!(sim.install_policies(&table));
        let outcome = sim.announce(SimTime::from_unix(100), &request);
        assert!(outcome.accepted_by.is_empty(), "ROV rejects the RPKI-Invalid host route");
        assert!(!sim.is_blackholed_at(f.p1, &host));
        assert_eq!(sim.run_stats().import_rejects_for(RejectReason::RovInvalid), 1);
        assert_eq!(sim.run_stats().extension_rejects.get("rov"), Some(&1));
    }

    #[test]
    fn empty_table_installs_nothing() {
        let f = fixture();
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        assert!(!sim.install_policies(&bh_topology::PolicyTable::new()));
    }

    #[test]
    fn leaker_forces_export_and_otc_contains_it() {
        use bh_topology::PolicyTable;

        let t1b = Asn::new(11);
        let f = fixture();
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();

        // peer_as learns user's prefix over their peering; valley-free
        // forbids re-exporting a peer route to its provider T1b.
        let mut table = PolicyTable::new();
        table.entry(f.peer_as).leaker = true;
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        sim.install_policies(&table);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement::simple(f.user, prefix, CommunitySet::new()),
        );
        assert!(sim.run_stats().exports_forced > 0, "leaker forces the peer route upward");

        // With OTC at both ends, peer_as marks the peer-learned route
        // and T1b drops the marked route from its customer: the leak is
        // contained and accounted.
        let mut table = PolicyTable::new();
        table.entry(f.peer_as).leaker = true;
        table.entry(f.peer_as).only_to_customers = true;
        table.entry(t1b).only_to_customers = true;
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        sim.install_policies(&table);
        sim.announce(
            SimTime::from_unix(100),
            &Announcement::simple(f.user, prefix, CommunitySet::new()),
        );
        assert!(sim.run_stats().import_rejects_for(RejectReason::RouteLeak) > 0);
        assert_eq!(
            sim.run_stats().extension_rejects.get("only-to-customers"),
            Some(&sim.run_stats().import_rejects_for(RejectReason::RouteLeak))
        );
    }

    #[test]
    fn scrub_strips_bundled_trigger_on_export() {
        use bh_topology::{CommunityScrub, PolicyTable};

        let f = fixture();
        let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let mut communities = bh_communities(f.p1);
        communities.merge(&bh_communities(f.p2));
        let request = Announcement {
            origin: f.user,
            prefix: host,
            communities,
            scope: AnnounceScope::Neighbors(vec![f.p2]),
            irr_registered: true,
            prepend: 1,
        };
        let p1_trigger = Community::from_parts(f.p1.value() as u16, 666);

        // Baseline: P2 strips only its own trigger, so T1a still sees
        // P1's bundled community on the propagated route.
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.announce(SimTime::from_unix(100), &request);
        let elems = sim.drain_elems();
        assert!(elems.iter().any(|e| e.communities.contains(p1_trigger)));

        // A community-scrub extension at P2 also removes P1's trigger:
        // the bundled signal is laundered before it reaches T1a.
        let mut table = PolicyTable::new();
        table.entry(f.p2).scrub =
            Some(CommunityScrub { strip_all: false, strip: vec![p1_trigger], rewrite: vec![] });
        let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        sim.install_policies(&table);
        sim.announce(SimTime::from_unix(100), &request);
        let elems = sim.drain_elems();
        assert!(!elems.is_empty());
        assert!(elems.iter().all(|e| !e.communities.contains(p1_trigger)));
    }
}
