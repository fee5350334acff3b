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
//! before it advertises once (see [`BgpSimulator`]'s `run_phases`). A
//! withdrawal that removes a prefix's last origin is not propagated: the
//! simulator drops the prefix everywhere and flushes (see
//! [`BgpSimulator::withdraw`]). A doc-hidden FIFO reference mode
//! ([`BgpSimulator::fifo_reference`]) exists for the property tests only.
//!
//! # State layout
//!
//! Per-AS configuration is one `Vec` of nodes addressed by the
//! topology's dense [`AsnIndex`] (the index [`PropagationRanks`] is keyed
//! by: ascending ASN), neighbors resolved to `(index, relationship)` once;
//! a run only reads it. Routes live in one table per prefix, node index
//! → that AS's state, looked up once per rank group. A state that
//! empties leaves its table and a table that empties leaves the
//! simulator, so the last origin's withdrawal drops the prefix with one
//! `remove`, and the blackhole queries read one table. Work items,
//! candidate sets and the dirty list are keyed by index, so every sort
//! and scan — the emission flush included — runs in the ASN order it
//! always did. Only ASes with a collector session are marked dirty: the
//! flush visits the ASes a collector can see, not every AS a run
//! touched. A changed best route is exported once (prepended, its
//! trigger stripped where the provider strips) and shared by reference
//! count between the work items that carry it and the sender's record
//! of what it advertised; a receiver copies only the route it imports,
//! and a policy's leak mark copies on write.
//!
//! Two inputs name an AS without a node: [`BgpSimulator::set_behavior`]
//! ignores it, and a delivery addressed to it (a targeted announcement,
//! or its withdrawal when another origin keeps the prefix) counts as one
//! work item and is dropped, as it always was — it is nobody's neighbor.
//! A last-origin withdrawal delivers nothing, so it counts nothing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::IpAddr;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::bogon::BogonFilter;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::hash::FxHashMap;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_topology::{
    AsnIndex, BlackholeOffering, OriginIndex, PolicyTable, PropagationRanks, Relationship, Topology,
};

use crate::collector::{CollectorDeployment, CollectorSession, FeedKind};
use crate::elem::{BgpElem, DataSource, ElemType};
use crate::extensions::{PolicyEngine, RunStats};
use crate::policy::{
    auth_ok, import_decision, local_pref_for, may_export, triggered_offering, AuthContext,
    ImportDecision, RejectReason, SessionBehavior,
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
    /// The announcing origin, copied unchanged on every export — not the
    /// neighbor a candidate came from (the candidate's key is). Ties in
    /// [`PrefixState::best`] fall to it; `advertise` never sends to it.
    learned_from: Asn,
    /// How the *receiver* relates to the neighbor that sent the route.
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

/// Dense index of an AS: its position in the simulator's node table,
/// which follows the topology's [`AsnIndex`] (ascending ASN).
type NodeId = u32;

#[derive(Debug, Clone, Default)]
struct PrefixState {
    /// Candidates keyed by sending neighbor, ascending [`NodeId`] (so
    /// ascending ASN).
    candidates: Vec<(NodeId, RouteEntry)>,
    /// What we last advertised, one slot per position in the node's
    /// neighbor list — a neighbor listed under two relationships uses the
    /// slot of its first position. Empty until the first advertisement.
    /// A slot shares its route with the work item that carried it.
    advertised: Vec<Option<Rc<RouteEntry>>>,
    /// The best route the last neighbor-advertisement pass ran against.
    /// Outbound adverts are a pure function of `best` (offering and
    /// policies are fixed for a run), so when best is unchanged the
    /// whole neighbor loop is skipped — the scratch-work win that makes
    /// withdraw/re-announce churn cheap at `Massive` scale.
    advert_basis: Option<RouteEntry>,
}

impl PrefixState {
    /// Highest local preference, then the shorter path (prepending
    /// collapsed), then the lower origin; of candidates equal on all
    /// three, the last — the one from the higher neighbor ASN.
    fn best(&self) -> Option<&RouteEntry> {
        self.candidates.iter().map(|(_, route)| route).max_by(|a, b| {
            a.local_pref
                .cmp(&b.local_pref)
                .then(b.as_path.hop_len().cmp(&a.as_path.hop_len()))
                .then(b.learned_from.cmp(&a.learned_from))
        })
    }

    fn position(&self, from: NodeId) -> Result<usize, usize> {
        self.candidates.binary_search_by_key(&from, |(sender, _)| *sender)
    }

    fn candidate(&self, from: NodeId) -> Option<&RouteEntry> {
        self.position(from).ok().map(|i| &self.candidates[i].1)
    }

    /// Hold `route` from `from`; whether the candidate set changed.
    fn insert(&mut self, from: NodeId, route: RouteEntry) -> bool {
        match self.position(from) {
            Ok(i) if self.candidates[i].1 == route => false,
            Ok(i) => {
                self.candidates[i].1 = route;
                true
            }
            Err(i) => {
                self.candidates.insert(i, (from, route));
                true
            }
        }
    }

    /// Drop `from`'s candidate; whether there was one.
    fn remove(&mut self, from: NodeId) -> bool {
        self.position(from).map(|i| self.candidates.remove(i)).is_ok()
    }

    fn holds_blackhole(&self) -> bool {
        self.candidates.iter().any(|(_, route)| route.is_blackhole)
    }

    /// No candidate and the last advertisement pass withdrew everything
    /// (or none ran): indistinguishable from a fresh state, so the entry
    /// is dropped from its prefix's table.
    fn is_empty(&self) -> bool {
        self.candidates.is_empty() && self.advert_basis.is_none()
    }
}

/// One AS of the topology, addressed by its [`NodeId`]. Fixed during a
/// run: the routes live in [`BgpSimulator`]'s per-prefix tables.
struct Node<'a> {
    /// Propagation rank: the schedule key of the three phases.
    rank: u32,
    behavior: SessionBehavior,
    offering: Option<&'a BlackholeOffering>,
    /// Set when this AS is an IXP route server.
    route_server: Option<RouteServer>,
    /// Neighbors with the relationship this AS has to each, in the
    /// topology's adjacency order (ascending ASN).
    neighbors: Vec<(NodeId, Relationship)>,
    /// This AS has a collector session, so a change here may change
    /// what a collector sees: only such nodes are marked dirty.
    observed: bool,
}

impl Node<'_> {
    /// The relationship this AS has to neighbor `n`; the first listed
    /// wins, as in [`Topology::rel_between`].
    fn rel_to(&self, n: NodeId) -> Option<Relationship> {
        let i = self.neighbors.partition_point(|(m, _)| *m < n);
        self.neighbors.get(i).filter(|(m, _)| *m == n).map(|(_, rel)| *rel)
    }
}

/// What a route-server node redistributes to.
struct RouteServer {
    /// Index into `topology.ixps()`.
    ixp: usize,
    /// The members that are ASes of the topology, in `Ixp::members`
    /// order.
    members: Vec<NodeId>,
    /// Members outside the topology: every redistribution counts one
    /// dropped work item for each.
    foreign_members: u64,
}

/// Key for per-session emitted state: (dataset, collector, session peer,
/// prefix, attributed peer) — the last component distinguishes the
/// per-member views of a route-server session.
type EmitKey = (DataSource, u16, Asn, Ipv4Prefix, Asn);

/// One delivery of the run's prefix from a sender to a receiver: an
/// announcement of `route`, or a withdrawal when it is `None`. The route
/// is the sender's export, shared with its other deliveries and its
/// `advertised` slot; the receiver copies out only what it imports.
#[derive(Debug, Clone)]
struct Work {
    to: NodeId,
    from: NodeId,
    route: Option<Rc<RouteEntry>>,
}

/// What is fixed for one announce or withdraw run: it propagates one
/// prefix.
struct Run {
    prefix: Ipv4Prefix,
    /// Owner of the covering allocation (the blackhole authentication
    /// input), looked up once instead of per work item.
    allocation_owner: Option<Asn>,
}

/// The first work items of a run, resolved to nodes.
#[derive(Default)]
struct Seeds {
    works: Vec<Work>,
    /// Deliveries with no node at one end, counted but never queued.
    dropped: u64,
}

impl Seeds {
    /// Queue a delivery from `from` to `to`. One with no node at either
    /// end is counted and dropped as if delivered: an announcement to
    /// its own origin then fails the loop check, anything else is not a
    /// neighbor of its sender.
    fn push(
        &mut self,
        index: &AsnIndex,
        stats: &mut RunStats,
        to: Asn,
        from: Asn,
        route: Option<Rc<RouteEntry>>,
    ) {
        match (index.index_of(to), index.index_of(from)) {
            (Some(to), Some(from)) => {
                self.works.push(Work { to: to as NodeId, from: from as NodeId, route })
            }
            _ => {
                if route.is_some() && to == from {
                    stats.record_import_reject(RejectReason::LoopDetected);
                }
                self.dropped += 1;
            }
        }
    }
}

/// The simulator.
pub struct BgpSimulator<'a> {
    topology: &'a Topology,
    origin_index: OriginIndex,
    deployment: CollectorDeployment,
    /// Per-AS configuration, by [`NodeId`].
    nodes: Vec<Node<'a>>,
    /// Each prefix's route table: the state of every AS that holds one
    /// for it, by [`NodeId`]. A run looks its prefix's table up once per
    /// group; a state that empties leaves its table, and a table that
    /// empties leaves the map, so a prefix no AS holds costs nothing.
    routes: FxHashMap<Ipv4Prefix, FxHashMap<NodeId, PrefixState>>,
    /// The origins of each prefix, and which neighbors each one sent it
    /// to directly (for withdraws and scope changes), ascending ASN. A
    /// prefix is present while it has an origin, so whether a withdrawal
    /// removes the last one is a single lookup.
    origin_adverts: FxHashMap<Ipv4Prefix, BTreeMap<Asn, BTreeSet<Asn>>>,
    emitted: FxHashMap<EmitKey, (AsPath, CommunitySet)>,
    elems: Vec<BgpElem>,
    bogons: BogonFilter,
    /// The installed per-AS policies; `None` (the default, and the
    /// result of installing an empty [`PolicyTable`]) runs the exact
    /// pre-extension code path.
    policies: Option<PolicyEngine>,
    /// Per-reason / per-extension rejection accounting, kept even when
    /// no policies are installed (counters never perturb routing).
    stats: RunStats,
    /// Customer-cone depth ranks of `topology` (the schedule key of the
    /// three propagation phases) and the dense index `nodes` follows.
    ranks: PropagationRanks,
    /// Set only by [`BgpSimulator::fifo_reference`].
    fifo: bool,
    /// Observed nodes whose state may have changed since the last flush
    /// (sorted and deduplicated there). Emissions are reconstructed from
    /// final state at flush time, so transient adverts never reach the
    /// elem stream; a node without a collector session emits nothing, so
    /// it is never listed.
    dirty: Vec<NodeId>,
    /// Reused seed-neighbor scratch buffer (no per-announce alloc).
    scratch_neighbors: Vec<Asn>,
}

impl<'a> BgpSimulator<'a> {
    /// Build a simulator. `seed` controls per-AS session behavior
    /// (host-route acceptance) only.
    pub fn new(topology: &'a Topology, deployment: CollectorDeployment, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ranks = topology.propagation_ranks();
        let index = ranks.index();
        // Route-server ASN → IXP; should two IXPs share one, the last wins.
        let rs_ixp: FxHashMap<Asn, usize> =
            topology.ixps().iter().enumerate().map(|(i, ixp)| (ixp.route_server_asn, i)).collect();
        let node_id = |asn: Asn| index.index_of(asn).map(|i| i as NodeId);
        // `index` follows `topology.ases()`, so node `i` is index `i`.
        let nodes = topology
            .ases()
            .map(|info| {
                // Two draws per AS, in ASN order.
                let behavior = SessionBehavior {
                    host_routes_from_customers: rng.gen_bool(0.9),
                    host_routes_from_peers: rng.gen_bool(0.25),
                };
                let route_server = rs_ixp.get(&info.asn).map(|&ixp| {
                    let listed = &topology.ixps()[ixp].members;
                    let members: Vec<NodeId> = listed.iter().filter_map(|&m| node_id(m)).collect();
                    let foreign_members = (listed.len() - members.len()) as u64;
                    RouteServer { ixp, members, foreign_members }
                });
                // `propagation_ranks` indexes every adjacency ASN, so
                // nothing is filtered out here.
                let neighbors = topology
                    .neighbors(info.asn)
                    .iter()
                    .filter_map(|&(n, rel)| Some((node_id(n)?, rel)))
                    .collect();
                Node {
                    rank: ranks.rank_of(info.asn).unwrap_or(0),
                    behavior,
                    offering: info.blackhole_offering.as_ref(),
                    route_server,
                    neighbors,
                    observed: !deployment.sessions_at(info.asn).is_empty(),
                }
            })
            .collect();
        BgpSimulator {
            topology,
            origin_index: topology.origin_index(),
            deployment,
            nodes,
            routes: FxHashMap::default(),
            origin_adverts: FxHashMap::default(),
            emitted: FxHashMap::default(),
            elems: Vec::new(),
            bogons: BogonFilter::new(),
            policies: None,
            stats: RunStats::default(),
            ranks,
            fifo: false,
            dirty: Vec::new(),
            scratch_neighbors: Vec::new(),
        }
    }

    /// The reference the engine's schedule is property-tested against
    /// (`tests/tests/phased_propagation.rs`): the same per-item import
    /// and advertisement rules driven by one FIFO queue, every work item
    /// ingested and re-advertised on its own. Slower, and never the
    /// product path. It propagates *every* withdrawal, the last origin's
    /// of a prefix included, on purpose: that makes it the oracle of the
    /// engine's jump to the empty fixpoint (see
    /// [`BgpSimulator::withdraw`]). It shares the rules with the engine,
    /// so it checks only the schedule; the rules are checked against the
    /// Gao-Rexford solver of `tests/gao_rexford.rs`.
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

    /// The step cap of one announce or withdraw run: `(ASes + 10) ×
    /// 10 000` work items. A converging flood costs about one item per
    /// directed adjacency entry, so only a policy dispute wheel (e.g.
    /// dueling leakers) that oscillates forever reaches it; the run then
    /// stops with [`PropagationError::NoConvergence`].
    pub fn step_cap(&self) -> u64 {
        (self.topology.as_count() as u64 + 10) * 10_000
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The collector deployment in use.
    pub fn deployment(&self) -> &CollectorDeployment {
        &self.deployment
    }

    fn node(&self, asn: Asn) -> Option<&Node<'a>> {
        self.ranks.index().index_of(asn).map(|i| &self.nodes[i])
    }

    /// Override one AS's session behavior (scenarios use this to model
    /// specific router configurations, e.g. members that do or do not
    /// accept /32s). An ASN outside the topology has no sessions: the
    /// call is ignored and [`BgpSimulator::behavior`] keeps returning the
    /// default for it.
    pub fn set_behavior(&mut self, asn: Asn, behavior: SessionBehavior) {
        if let Some(i) = self.ranks.index().index_of(asn) {
            self.nodes[i].behavior = behavior;
        }
    }

    /// The session behavior of an AS (the default outside the topology).
    pub fn behavior(&self, asn: Asn) -> SessionBehavior {
        self.node(asn).map(|node| node.behavior).unwrap_or_default()
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
        let table = self.routes.get(prefix);
        let held = self.ranks.index().index_of(asn).and_then(|me| table?.get(&(me as NodeId)));
        held.is_some_and(PrefixState::holds_blackhole)
    }

    /// All ASes currently holding a blackhole route for `prefix`, in
    /// ascending order.
    pub fn blackholing_ases_for(&self, prefix: &Ipv4Prefix) -> Vec<Asn> {
        let Some(table) = self.routes.get(prefix) else {
            return Vec::new();
        };
        let mut holders: Vec<NodeId> =
            table.iter().filter(|(_, ps)| ps.holds_blackhole()).map(|(&me, _)| me).collect();
        holders.sort_unstable();
        let asns = self.ranks.index().asns();
        holders.into_iter().map(|me| asns[me as usize]).collect()
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
        let prefix = announcement.prefix;
        if prefix.length() < 8 {
            return (outcome, Ok(())); // never less specific than /8
        }
        // Martian space never propagates (routers filter it on ingress);
        // host routes are checked against the same bogon table.
        if !self.bogons.is_routable(&prefix) {
            return (outcome, Ok(()));
        }
        let origin = announcement.origin;
        let mut path = AsPath::empty();
        path.prepend(origin, announcement.prepend.max(1));
        let route = Rc::new(RouteEntry {
            as_path: path,
            communities: announcement.communities.clone(),
            learned_from: origin,
            learned_rel: Relationship::Peer, // placeholder; set per receiver
            local_pref: 0,
            is_blackhole: false,
            irr_registered: announcement.irr_registered,
            next_hop: None,
            leak_marked: false,
        });

        self.scratch_neighbors.clear();
        match &announcement.scope {
            AnnounceScope::AllNeighbors => {
                let topology = self.topology;
                self.scratch_neighbors.extend(topology.neighbors(origin).iter().map(|(n, _)| *n));
            }
            AnnounceScope::Neighbors(list) => self.scratch_neighbors.extend_from_slice(list),
        }

        let index = self.ranks.index();
        let mut seeds = Seeds::default();
        let adverts = self.origin_adverts.entry(prefix).or_default().entry(origin).or_default();
        let previously: Vec<Asn> = adverts.iter().copied().collect();
        for &n in &self.scratch_neighbors {
            adverts.insert(n);
            seeds.push(index, &mut self.stats, n, origin, Some(route.clone()));
        }
        for n in previously {
            if !self.scratch_neighbors.contains(&n) {
                adverts.remove(&n);
                seeds.push(index, &mut self.stats, n, origin, None);
            }
        }

        let result = self.run(prefix, seeds, &mut outcome);
        // Canonical outcome order, independent of engine and work order.
        outcome.accepted_by.sort_unstable();
        outcome.rejected_by.sort_unstable_by_key(|(a, _)| *a);
        self.flush_emissions(time, prefix);
        (outcome, result)
    }

    /// Withdraw an origin's prefix everywhere it was advertised. Like
    /// [`BgpSimulator::announce`], non-convergence degrades gracefully.
    ///
    /// When `origin` was the prefix's last origin, nothing propagates:
    /// with no origin left the only fixpoint is that no AS holds the
    /// prefix — whatever an earlier run left, one stopped at the step cap
    /// included — so every node's state for it is dropped at once and
    /// the flush withdraws what the collectors were shown. That costs no
    /// work items and is not a run. A withdrawal that leaves another
    /// origin (a MOAS prefix) propagates, and so does every withdrawal
    /// in the [FIFO reference](BgpSimulator::fifo_reference).
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
        let Some(origins) = self.origin_adverts.get_mut(&prefix) else {
            return Ok(());
        };
        let Some(adverts) = origins.remove(&origin) else {
            return Ok(());
        };
        if origins.is_empty() {
            self.origin_adverts.remove(&prefix);
            if !self.fifo {
                self.clear_prefix(prefix);
                self.flush_emissions(time, prefix);
                return Ok(());
            }
        }
        let mut seeds = Seeds::default();
        for n in adverts {
            seeds.push(self.ranks.index(), &mut self.stats, n, origin, None);
        }
        let mut outcome = AnnounceOutcome::default();
        let result = self.run(prefix, seeds, &mut outcome);
        self.flush_emissions(time, prefix);
        result
    }

    /// Jump to the fixpoint of a prefix without an origin: drop its
    /// table, marking the observed nodes that held a state dirty.
    fn clear_prefix(&mut self, prefix: Ipv4Prefix) {
        let Some(table) = self.routes.remove(&prefix) else {
            return;
        };
        let nodes = &self.nodes;
        self.dirty.extend(table.into_keys().filter(|&me| nodes[me as usize].observed));
    }

    // ---- engine ---------------------------------------------------------

    /// Propagate `prefix` from `seeds` to a fixpoint, recording the run's
    /// work in [`RunStats::work_items`] and [`RunStats::peak_run_steps`].
    fn run(
        &mut self,
        prefix: Ipv4Prefix,
        seeds: Seeds,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let run = Run { prefix, allocation_owner: self.origin_index.origin_of(&prefix) };
        let mut steps = 0;
        let result = self.spend(&mut steps, seeds.dropped).and_then(|()| {
            if self.fifo {
                self.run_fifo(&run, seeds.works, &mut steps, outcome)
            } else {
                self.run_phases(&run, seeds.works, &mut steps, outcome)
            }
        });
        self.stats.peak_run_steps = self.stats.peak_run_steps.max(steps);
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
        run: &Run,
        seeds: Vec<Work>,
        steps: &mut u64,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        // One slot per (phase, rank) in sweep order; work generated for
        // a later slot joins this round, for an earlier one the next.
        // The buffers are per run: kept on the simulator they would pin
        // the largest group any run ever queued (megabytes over a
        // Small-world scenario) and measured no faster.
        let mut slots: Vec<Vec<Work>> = vec![Vec::new(); 2 * self.ranks.max_rank() as usize + 3];
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        for work in seeds {
            slots[self.slot_of(&work)].push(work);
        }
        loop {
            let mut progressed = false;
            for slot in 0..slots.len() {
                while !slots[slot].is_empty() {
                    progressed = true;
                    let mut works = std::mem::take(&mut slots[slot]);
                    self.spend(steps, works.len() as u64)?;
                    // Grouped by receiver; the position keeps two items
                    // from one sender in their order.
                    keys.clear();
                    keys.extend(
                        works.iter().enumerate().map(|(i, w)| (u64::from(w.to) << 32) | i as u64),
                    );
                    keys.sort_unstable();
                    let grouped = keys.iter().map(|&key| {
                        let work = &mut works[key as u32 as usize];
                        Work { to: work.to, from: work.from, route: work.route.take() }
                    });
                    let dropped = self.process_group(run, grouped, outcome, &mut out);
                    self.spend(steps, dropped)?;
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
    /// descending), and anything else — peers, route servers, senders
    /// that are not neighbors — is lateral (the slot between).
    fn slot_of(&self, work: &Work) -> usize {
        let top = self.ranks.max_rank() as usize;
        let receiver = &self.nodes[work.to as usize];
        let rank = receiver.rank as usize;
        match receiver.rel_to(work.from) {
            Some(Relationship::Customer) => rank,
            Some(Relationship::Provider) => 2 * top + 2 - rank,
            _ => top + 1,
        }
    }

    /// The FIFO reference: every work item is a group of its own.
    fn run_fifo(
        &mut self,
        run: &Run,
        seeds: Vec<Work>,
        steps: &mut u64,
        outcome: &mut AnnounceOutcome,
    ) -> Result<(), PropagationError> {
        let mut queue: VecDeque<Work> = seeds.into();
        let mut out = Vec::new();
        while let Some(work) = queue.pop_front() {
            self.spend(steps, 1)?;
            let dropped = self.process_group(run, [work], outcome, &mut out);
            self.spend(steps, dropped)?;
            queue.extend(out.drain(..));
        }
        Ok(())
    }

    /// Count `n` more work items against the run's [`step_cap`](Self::step_cap).
    fn spend(&mut self, steps: &mut u64, n: u64) -> Result<(), PropagationError> {
        self.stats.work_items += n;
        *steps += n;
        if *steps >= self.step_cap() {
            return Err(PropagationError::NoConvergence { steps: *steps });
        }
        Ok(())
    }

    /// Process work items grouped by target: each target AS first
    /// ingests all of its items into its candidate set, then advertises
    /// once if the set changed. Generated work is appended to `out`;
    /// returns the work items it addressed to ASNs without a node.
    fn process_group(
        &mut self,
        run: &Run,
        works: impl IntoIterator<Item = Work>,
        outcome: &mut AnnounceOutcome,
        out: &mut Vec<Work>,
    ) -> u64 {
        let ctx = SimCtx {
            topology: self.topology,
            asns: self.ranks.index().asns(),
            policies: self.policies.as_ref(),
            run,
        };
        let mut fx = Effects { out, stats: &mut self.stats, outcome, dropped: 0 };
        let table = self.routes.entry(run.prefix).or_default();
        let mut works = works.into_iter().peekable();
        while let Some(me) = works.peek().map(|w| w.to) {
            let node = &self.nodes[me as usize];
            let ps = table.entry(me).or_default();
            let mut changed = false;
            while let Some(work) = works.next_if(|w| w.to == me) {
                changed |= ingest(&ctx, node, me, ps, &mut fx, work);
            }
            if changed {
                if node.observed {
                    self.dirty.push(me);
                }
                match &node.route_server {
                    Some(rs) => rs_redistribute(&ctx, rs, ps, me, &mut fx),
                    None => after_change(&ctx, node, ps, me, &mut fx),
                }
            }
            if ps.is_empty() {
                table.remove(&me);
            }
        }
        if table.is_empty() {
            self.routes.remove(&run.prefix);
        }
        fx.dropped
    }

    /// Reconstruct collector emissions of `prefix` from final state at
    /// every node dirtied since the last flush, in ascending ASN order.
    /// Emitting from the converged state (rather than along the
    /// propagation trajectory) is what makes the elem stream independent
    /// of the schedule: propagation order affects only transient state,
    /// and the best-path fixpoint is unique. The last-origin withdrawal
    /// relies on this: it reaches the empty fixpoint without
    /// propagating, and the flush withdraws every route the collectors
    /// were shown.
    fn flush_emissions(&mut self, time: SimTime, prefix: Ipv4Prefix) {
        if self.dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let asns = self.ranks.index().asns();
        let table = self.routes.get(&prefix);
        for &me in &dirty {
            let node = &self.nodes[me as usize];
            let me_asn = asns[me as usize];
            let ps = table.and_then(|table| table.get(&me));
            if let Some(rs) = &node.route_server {
                // Route-server node: refresh the PCH per-member views,
                // attributing each route to the member that sent it,
                // with its peering-LAN address.
                let ixp = &self.topology.ixps()[rs.ixp];
                for session in self.deployment.sessions_at(me_asn) {
                    if !matches!(session.feed, FeedKind::RouteServerView(_)) {
                        continue;
                    }
                    for &member in &rs.members {
                        let member_asn = asns[member as usize];
                        let visible = ps.and_then(|ps| ps.candidate(member)).map(|r| {
                            let mut out = r.clone();
                            if ixp.route_server_in_path {
                                out.as_path.prepend(me_asn, 1);
                            }
                            out
                        });
                        let peer_ip = ixp
                            .member_lan_ip(member_asn)
                            .map(IpAddr::V4)
                            .unwrap_or(session.peer_ip);
                        let key: EmitKey = (
                            session.dataset,
                            session.collector,
                            session.peer_asn,
                            prefix,
                            member_asn,
                        );
                        emit_diff(
                            &mut self.emitted,
                            &mut self.elems,
                            time,
                            key,
                            session,
                            peer_ip,
                            prefix,
                            member_asn,
                            visible.as_ref(),
                        );
                    }
                }
            } else {
                let held = ps.and_then(|ps| ps.best().map(|best| (ps, best)));
                for session in self.deployment.sessions_at(me_asn) {
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
                        (FeedKind::Internal, Some((ps, b))) => Some(
                            ps.candidates
                                .iter()
                                .map(|(_, route)| route)
                                .find(|r| r.is_blackhole)
                                .unwrap_or(b),
                        ),
                    };
                    // The peer prepends itself when exporting to
                    // the collector, exactly like any other eBGP
                    // export.
                    let exported = visible.map(|r| {
                        let mut out = r.clone();
                        out.as_path.prepend(me_asn, 1);
                        out
                    });
                    let key: EmitKey =
                        (session.dataset, session.collector, session.peer_asn, prefix, me_asn);
                    emit_diff(
                        &mut self.emitted,
                        &mut self.elems,
                        time,
                        key,
                        session,
                        session.peer_ip,
                        prefix,
                        me_asn,
                        exported.as_ref(),
                    );
                }
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }
}

// ---- propagation core ---------------------------------------------------
//
// The functions below take an explicit read-only context plus the one
// node being processed instead of `&mut self`, so `process_group` can
// borrow the simulator's fields disjointly.

/// Read-only propagation context.
struct SimCtx<'a> {
    topology: &'a Topology,
    /// ASN by [`NodeId`].
    asns: &'a [Asn],
    policies: Option<&'a PolicyEngine>,
    run: &'a Run,
}

/// Where processing one node's work items writes: the work it
/// generates, the counters, the run's outcome.
struct Effects<'a> {
    out: &'a mut Vec<Work>,
    stats: &'a mut RunStats,
    outcome: &'a mut AnnounceOutcome,
    /// Work items addressed to ASNs without a node: counted, not queued.
    dropped: u64,
}

/// Apply one work item to node `me`'s candidate set `ps` — import
/// filters, outcome and stat recording included — without advertising
/// anything. Returns whether the candidate set changed.
fn ingest(
    ctx: &SimCtx<'_>,
    node: &Node<'_>,
    me: NodeId,
    ps: &mut PrefixState,
    fx: &mut Effects<'_>,
    work: Work,
) -> bool {
    let Work { from, route, .. } = work;
    let candidate = match route {
        None => None,
        Some(route) if route.as_path.contains(ctx.asns[me as usize]) => {
            // Loop prevention is treat-as-withdraw: any previously
            // held candidate from this neighbor is gone, which keeps
            // the converged state independent of delivery order.
            fx.stats.record_import_reject(RejectReason::LoopDetected);
            None
        }
        Some(route) => {
            // A targeted announce to a non-neighbor is silently dropped.
            let Some(rel) = node.rel_to(from) else {
                return false;
            };
            // Route-server node? Special redistribution semantics.
            // Per-AS policies deliberately do not apply at route
            // servers: they are transparent redistribution points,
            // not policy actors, and PCH visibility depends on that
            // transparency.
            match &node.route_server {
                // only members speak to the route server
                Some(rs) if !rs.members.contains(&from) => return false,
                Some(_) => import_at_route_server(ctx, node, me, from, &route, fx),
                None => import_at_router(ctx, node, me, from, rel, &route, fx),
            }
        }
    };
    match candidate {
        Some(route) => ps.insert(from, route),
        // No (longer a) candidate from this neighbor.
        None => ps.remove(from),
    }
}

/// Import at an ordinary AS: the candidate `me` holds from `from` after
/// this announcement, `None` when an ingress filter rejects it. Only an
/// accepted route is copied.
fn import_at_router(
    ctx: &SimCtx<'_>,
    node: &Node<'_>,
    me: NodeId,
    from: NodeId,
    rel: Relationship,
    route: &RouteEntry,
    fx: &mut Effects<'_>,
) -> Option<RouteEntry> {
    let (me, from) = (ctx.asns[me as usize], ctx.asns[from as usize]);
    let prefix = &ctx.run.prefix;
    // The per-AS policy filters run before the Gao-Rexford import —
    // they model the ingress filters (ROV, OTC) a router applies ahead
    // of route acceptance.
    let mut leak_marked = route.leak_marked;
    if let Some(engine) = ctx.policies {
        engine.import(fx.stats, me, rel, prefix, &route.as_path, &mut leak_marked).ok()?;
    }

    let auth_ctx = AuthContext {
        topology: ctx.topology,
        origin: route.as_path.origin().unwrap_or(from),
        sender: from,
        allocation_owner: ctx.run.allocation_owner,
        irr_registered: route.irr_registered,
    };
    let import =
        import_decision(node.offering, rel, prefix, &route.communities, node.behavior, &auth_ctx);
    // Record trigger-specific rejections for ground truth even when
    // the route is otherwise accepted as a plain route.
    if let Some(reason) = import.trigger_rejection {
        fx.stats.record_trigger_reject(reason);
        if !fx.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
            fx.outcome.rejected_by.push((me, reason));
        }
    }

    let is_blackhole = match import.decision {
        ImportDecision::Reject(reason) => {
            fx.stats.record_import_reject(reason);
            return None;
        }
        ImportDecision::Blackhole => {
            if !fx.outcome.accepted_by.contains(&me) {
                fx.outcome.accepted_by.push(me);
            }
            true
        }
        // A blackhole route redistributed by a route server keeps its
        // drop semantics at members (next-hop is the null interface).
        // Anywhere else the flag must not travel: a transit AS holding
        // a propagated /32 merely routes toward the provider that
        // discards.
        ImportDecision::Regular => {
            route.is_blackhole && rel == Relationship::RouteServer && route.next_hop.is_some()
        }
    };
    Some(RouteEntry {
        learned_rel: rel,
        local_pref: local_pref_for(rel),
        is_blackhole,
        leak_marked,
        ..route.clone()
    })
}

/// After a candidate change at `me`: recompute best, and update neighbor
/// advertisements when it moved.
fn after_change(
    ctx: &SimCtx<'_>,
    node: &Node<'_>,
    ps: &mut PrefixState,
    me: NodeId,
    fx: &mut Effects<'_>,
) {
    let best = ps.best();
    // Adverts are a pure function of best: nothing to redo when it held.
    if ps.advert_basis.as_ref() == best {
        return;
    }
    let best = best.cloned();
    advertise(ctx, node.offering, &node.neighbors, ps, me, best.as_ref(), fx);
    ps.advert_basis = best;
}

/// Bring every neighbor's advertisement from `me` in line with `best`,
/// queueing an announce or withdraw for each one that changed. The
/// exported route is built once — prepended, and without the trigger
/// where `me` strips it — and shared by every neighbor it may go to; a
/// policy that marks it for one neighbor marks a copy.
///
/// A neighbor listed under two relationships is advertised to once, under
/// the one listed first — the relationship [`Node::rel_to`] imports under.
fn advertise(
    ctx: &SimCtx<'_>,
    offering: Option<&BlackholeOffering>,
    neighbors: &[(NodeId, Relationship)],
    ps: &mut PrefixState,
    me: NodeId,
    best: Option<&RouteEntry>,
    fx: &mut Effects<'_>,
) {
    let me_asn = ctx.asns[me as usize];
    // The hard suppressions hold towards every neighbor and are never
    // overridable — NO_EXPORT and RFC 7999 compliance hold even at a
    // leaker.
    let exportable = best.filter(|b| {
        let no_export = b.communities.has_no_export(); // explicit: honored by everyone
        let rfc7999 = b.is_blackhole && offering.is_some_and(|o| o.honors_no_export);
        !(no_export || rfc7999) // an RFC 7999-compliant provider suppresses
    });
    // A provider that strips its trigger does so on every blackhole
    // route it exports.
    let strip = offering.filter(|o| o.strips_community && best.is_some_and(|b| b.is_blackhole));
    let mut exported: Option<Rc<RouteEntry>> = None;
    for (pos, &(n, to_rel)) in neighbors.iter().enumerate() {
        if pos > 0 && neighbors[pos - 1].0 == n {
            continue; // listed again under a second relationship
        }
        let advert = match exportable {
            // never to the route's origin (loop detection covers the sender)
            Some(best) if ctx.asns[n as usize] != best.learned_from => {
                let mut shared = || {
                    Rc::clone(exported.get_or_insert_with(|| {
                        let mut out = best.clone();
                        out.as_path.prepend(me_asn, 1);
                        strip_triggers(&mut out, strip);
                        Rc::new(out)
                    }))
                };
                // Valley-free verdict, then the per-AS export policy
                // (OTC marking / leaker override).
                let default_allowed = may_export(Some(best.learned_rel), to_rel);
                match ctx.policies {
                    None => default_allowed.then(shared),
                    Some(engine) => {
                        let mut out = shared();
                        let mut marked = out.leak_marked;
                        let allowed =
                            engine.export(fx.stats, me_asn, to_rel, &mut marked, default_allowed);
                        if marked != out.leak_marked {
                            Rc::make_mut(&mut out).leak_marked = marked;
                        }
                        allowed.then_some(out)
                    }
                }
            }
            _ => None,
        };

        if advert.as_ref() == ps.advertised.get(pos).and_then(Option::as_ref) {
            continue;
        }
        if ps.advertised.is_empty() {
            ps.advertised.resize(neighbors.len(), None);
        }
        fx.out.push(Work { to: n, from: me, route: advert.clone() });
        ps.advertised[pos] = advert;
    }
}

/// Remove the stripping provider's triggers from an exported route.
fn strip_triggers(route: &mut RouteEntry, strip: Option<&BlackholeOffering>) {
    if let Some(o) = strip {
        route.communities.retain(|c| !o.is_trigger(*c));
    }
}

/// Compare with the session's previously emitted state; emit announce
/// or withdraw elems as needed.
#[allow(clippy::too_many_arguments)] // flat emission context, called from one place per feed kind
fn emit_diff(
    emitted: &mut FxHashMap<EmitKey, (AsPath, CommunitySet)>,
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
/// Only an accepted route is copied.
fn import_at_route_server(
    ctx: &SimCtx<'_>,
    node: &Node<'_>,
    me: NodeId,
    from: NodeId,
    route: &RouteEntry,
    fx: &mut Effects<'_>,
) -> Option<RouteEntry> {
    let (me, from) = (ctx.asns[me as usize], ctx.asns[from as usize]);
    let prefix = ctx.run.prefix;
    let (is_blackhole, next_hop) =
        if let Some(o) = triggered_offering(node.offering, &route.communities) {
            // Route servers filter on IRR registration: misconfigured
            // users' blackhole requests are not redistributed (§10).
            let auth_ctx = AuthContext {
                topology: ctx.topology,
                origin: route.as_path.origin().unwrap_or(from),
                sender: from,
                allocation_owner: ctx.run.allocation_owner,
                irr_registered: route.irr_registered,
            };
            let rejection = if !o.accepts_length(prefix.length()) {
                Some(RejectReason::LengthRejected)
            } else if !auth_ok(o.auth, &auth_ctx) {
                Some(RejectReason::AuthFailed)
            } else {
                None
            };
            if let Some(reason) = rejection {
                if !fx.outcome.rejected_by.iter().any(|(a, _)| *a == me) {
                    fx.outcome.rejected_by.push((me, reason));
                }
                return None;
            }
            if !fx.outcome.accepted_by.contains(&me) {
                fx.outcome.accepted_by.push(me);
            }
            (true, o.blackhole_ip.map(IpAddr::V4))
        } else if prefix.is_more_specific_than(24) {
            // Untagged host routes are not redistributed by route servers.
            return None;
        } else {
            (route.is_blackhole, route.next_hop)
        };
    Some(RouteEntry {
        learned_rel: Relationship::RouteServer,
        local_pref: local_pref_for(Relationship::RouteServer),
        is_blackhole,
        next_hop,
        ..route.clone()
    })
}

/// Re-advertise the route server's choice to every member after any
/// change to its candidate set: each member receives the best remaining
/// candidate contributed by *another* member (shortest AS path, then
/// lowest contributor ASN), or a withdraw when none is left. That is the
/// best candidate overall unless the member contributed it, and then the
/// runner-up, so both are chosen once per change instead of once per
/// member.
///
/// Advertising the post-change best — not the triggering change — is
/// what keeps the members' view a pure function of the route server's
/// final candidate set: a member holds exactly one candidate per route
/// server session, so forwarding every contribution would leave
/// whichever arrived last, an artifact of delivery order the elem
/// stream must not depend on. The PCH route-server views are
/// reconstructed from the final candidate set at flush time;
/// propagation only marks the node dirty.
fn rs_redistribute(
    ctx: &SimCtx<'_>,
    rs: &RouteServer,
    ps: &PrefixState,
    me: NodeId,
    fx: &mut Effects<'_>,
) {
    let in_path = ctx.topology.ixps()[rs.ixp].route_server_in_path;
    // Prepared once each, shared by the members it goes to.
    let exported = best_two(&ps.candidates).map(|choice| {
        choice.map(|(contributor, route)| {
            let mut out = route.clone();
            if in_path {
                out.as_path.prepend(ctx.asns[me as usize], 1);
            }
            (contributor, Rc::new(out))
        })
    });
    for &member in &rs.members {
        let route = choice_for(&exported, member).cloned();
        fx.out.push(Work { to: member, from: me, route });
    }
    fx.dropped += rs.foreign_members;
}

/// The two best contributions to a route server, best first, by (AS-path
/// length, contributor).
fn best_two(candidates: &[(NodeId, RouteEntry)]) -> [Option<(NodeId, &RouteEntry)>; 2] {
    let mut top: [Option<(usize, NodeId, &RouteEntry)>; 2] = [None, None];
    for (contributor, route) in candidates {
        let entry = (route.as_path.hop_len(), *contributor, route);
        let beats = |held: Option<(usize, NodeId, &RouteEntry)>| {
            held.is_none_or(|(len, c, _)| (entry.0, entry.1) < (len, c))
        };
        if beats(top[0]) {
            top = [Some(entry), top[0]];
        } else if beats(top[1]) {
            top[1] = Some(entry);
        }
    }
    top.map(|choice| choice.map(|(_, contributor, route)| (contributor, route)))
}

/// What `member` receives from a route server whose two best
/// contributions are `best_two`: the better one it did not make itself.
fn choice_for<T>(best_two: &[Option<(NodeId, T)>; 2], member: NodeId) -> Option<&T> {
    match &best_two[0] {
        Some((contributor, route)) if *contributor != member => Some(route),
        _ => best_two[1].as_ref().map(|(_, route)| route),
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
        // P1's trigger rides along, bundled.
        let mut communities = bh_communities(f.p2);
        communities.merge(&bh_communities(f.p1));
        sim.announce(
            SimTime::from_unix(100),
            &Announcement {
                origin: f.user,
                prefix: "30.0.1.1/32".parse().unwrap(),
                communities,
                scope: AnnounceScope::Neighbors(vec![f.p2]),
                irr_registered: true,
                prepend: 1,
            },
        );
        let elems = sim.drain_elems();
        let announce = elems.iter().find(|e| e.is_announce()).expect("T1a sees the /32");
        assert_eq!(announce.prefix, "30.0.1.1/32".parse().unwrap());
        // The trigger was stripped; only P2's own.
        assert!(!announce.communities.contains(Community::from_parts(f.p2.value() as u16, 666)));
        assert!(announce.communities.contains(Community::from_parts(f.p1.value() as u16, 666)));
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
        assert!(announce.as_path.raw_len() > announce.as_path.hop_len());
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

        let total: u64 = sim.run_stats().import_rejects.values().sum();
        assert!(total > 0);
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
        assert_eq!(sim.run_stats().import_rejects.values().sum::<u64>(), 1);
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
    }

    // ---- state store ----------------------------------------------------

    /// A route-server candidate whose path has `hops` distinct ASes.
    fn rs_candidate(hops: u32) -> RouteEntry {
        RouteEntry {
            as_path: AsPath::from_sequence(
                (1..=hops).map(|h| Asn::new(64_000 + h)).collect::<Vec<_>>(),
            ),
            communities: CommunitySet::new(),
            learned_from: Asn::new(64_001),
            learned_rel: Relationship::RouteServer,
            local_pref: local_pref_for(Relationship::RouteServer),
            is_blackhole: false,
            irr_registered: true,
            next_hop: None,
            leak_marked: false,
        }
    }

    #[test]
    fn route_server_best_two_equals_per_member_min_scan() {
        // (case, candidates as (contributor, path length), ascending
        // contributor as in `PrefixState`).
        #[rustfmt::skip]
        let cases: &[(&str, &[(NodeId, u32)])] = &[
            ("no candidate",                       &[]),
            ("one candidate",                      &[(3, 2)]),
            ("distinct lengths",                   &[(1, 3), (4, 1), (7, 2)]),
            ("tie broken by lower contributor",    &[(2, 2), (5, 2), (9, 3)]),
            ("three-way tie",                      &[(1, 2), (6, 2), (8, 2)]),
            ("shortest from highest contributor",  &[(1, 4), (2, 4), (9, 1)]),
            ("runner-up tie behind the best",      &[(0, 3), (4, 1), (5, 3)]),
        ];
        for &(case, spec) in cases {
            let candidates: Vec<(NodeId, RouteEntry)> =
                spec.iter().map(|&(contributor, hops)| (contributor, rs_candidate(hops))).collect();
            let two = best_two(&candidates);
            for member in 0..10 {
                let scan = candidates
                    .iter()
                    .filter(|(contributor, _)| *contributor != member)
                    .min_by_key(|(contributor, route)| (route.as_path.hop_len(), *contributor))
                    .map(|(_, route)| route);
                let chosen = choice_for(&two, member).copied();
                assert!(
                    chosen.map(std::ptr::from_ref) == scan.map(std::ptr::from_ref),
                    "{case}: member {member}"
                );
            }
        }
    }

    #[test]
    fn set_behavior_outside_the_topology_is_ignored() {
        let f = fixture();
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        let lenient =
            SessionBehavior { host_routes_from_customers: false, host_routes_from_peers: true };
        let foreign = Asn::new(65_000);
        assert!(f.topology.as_info(foreign).is_none());
        sim.set_behavior(foreign, lenient);
        let held = sim.behavior(foreign);
        let default = SessionBehavior::default();
        assert_eq!(
            (held.host_routes_from_customers, held.host_routes_from_peers),
            (default.host_routes_from_customers, default.host_routes_from_peers),
            "an AS without a node keeps the default"
        );
        sim.set_behavior(f.p1, lenient);
        assert!(
            sim.behavior(f.p1).host_routes_from_peers
                && !sim.behavior(f.p1).host_routes_from_customers
        );
    }

    #[test]
    fn delivery_to_a_foreign_asn_is_counted_and_dropped() {
        let f = fixture();
        let foreign = Asn::new(65_000);
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();
        let targeted = |origin: Asn, to: Vec<Asn>| Announcement {
            scope: AnnounceScope::Neighbors(to),
            ..Announcement::simple(origin, prefix, CommunitySet::new())
        };
        let run = |to: Vec<Asn>| {
            let d = deployment_with(vec![session(DataSource::Ris, f.t1a, FeedKind::Full)]);
            let mut sim = BgpSimulator::new(&f.topology, d, 1);
            pin_behaviors(&mut sim, &f);
            // A second origin keeps the prefix, so the withdrawal below
            // propagates.
            sim.try_announce(
                SimTime::from_unix(50),
                &Announcement::simple(f.peer_as, prefix, CommunitySet::new()),
            )
            .unwrap();
            let before = sim.run_stats().work_items;
            let outcome = sim.try_announce(SimTime::from_unix(100), &targeted(f.user, to)).unwrap();
            let announce_work = sim.run_stats().work_items - before;
            sim.try_withdraw(SimTime::from_unix(200), f.user, prefix).unwrap();
            let withdraw_work = sim.run_stats().work_items - before - announce_work;
            (outcome, sim.drain_elems(), announce_work, withdraw_work, sim.run_stats().clone())
        };
        let plain = run(vec![f.p1]);
        let with_foreign = run(vec![f.p1, foreign]);
        assert!(!plain.1.is_empty());
        assert_eq!((&with_foreign.0, &with_foreign.1), (&plain.0, &plain.1), "same routing");
        // One more work item each way: the announce and its withdrawal.
        assert_eq!(with_foreign.2, plain.2 + 1);
        assert_eq!(with_foreign.3, plain.3 + 1);
        assert_eq!(with_foreign.4.import_rejects, plain.4.import_rejects);

        // A foreign origin announcing to itself fails the loop check,
        // as a delivery to its own origin does.
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        sim.try_announce(SimTime::from_unix(100), &targeted(foreign, vec![foreign, f.p1])).unwrap();
        assert_eq!(sim.run_stats().work_items, 2);
        assert_eq!(sim.run_stats().import_rejects_for(RejectReason::LoopDetected), 1);
        assert!(sim.drain_elems().is_empty(), "a foreign origin is nobody's neighbor");
    }

    #[test]
    fn peak_run_steps_is_the_costliest_run() {
        let f = fixture();
        let mut sim = BgpSimulator::new(&f.topology, deployment_with(vec![]), 1);
        pin_behaviors(&mut sim, &f);
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();
        let mut work = Vec::new();
        for origin in [f.peer_as, f.user] {
            let before = sim.run_stats().work_items;
            sim.try_announce(
                SimTime::from_unix(100),
                &Announcement::simple(origin, prefix, CommunitySet::new()),
            )
            .unwrap();
            work.push(sim.run_stats().work_items - before);
        }
        // peer_as still originates the prefix: this withdrawal propagates.
        let before = sim.run_stats().work_items;
        sim.try_withdraw(SimTime::from_unix(200), f.user, prefix).unwrap();
        work.push(sim.run_stats().work_items - before);
        let stats = sim.run_stats();
        assert!(work.iter().all(|&w| w > 0), "{work:?}");
        assert!(stats.peak_run_steps <= stats.work_items);
        assert_eq!(Some(stats.peak_run_steps), work.iter().copied().max());
        assert!(stats.peak_run_steps < sim.step_cap());
    }

    /// The per-prefix tables hold live state only: no table is empty,
    /// none belongs to a prefix without an origin, and the two blackhole
    /// queries over `prefix` agree.
    fn assert_tables_hold_live_state(sim: &BgpSimulator<'_>, prefix: Ipv4Prefix, step: &str) {
        for (p, table) in &sim.routes {
            assert!(!table.is_empty(), "{step}: {p} keeps an empty table");
            assert!(sim.origin_adverts.contains_key(p), "{step}: {p} has a table but no origin");
        }
        let scanned: Vec<Asn> = (sim.ranks.index().asns().iter().copied())
            .filter(|&asn| sim.is_blackholed_at(asn, &prefix))
            .collect();
        assert_eq!(sim.blackholing_ases_for(&prefix), scanned, "{step}: blackholing ASes");
    }

    #[test]
    fn route_tables_hold_only_live_state() {
        let f = fixture();
        let d = deployment_with(vec![
            session(DataSource::Ris, f.t1a, FeedKind::Full),
            session(DataSource::Ris, f.p2, FeedKind::Full),
        ]);
        let mut sim = BgpSimulator::new(&f.topology, d, 1);
        pin_behaviors(&mut sim, &f);
        let at = SimTime::from_unix(100);

        // One origin: a tagged host route P2 blackholes, then withdrawn.
        let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let tagged = Announcement::simple(f.user, host, bh_communities(f.p2));
        assert_eq!(sim.announce(at, &tagged).accepted_by, vec![f.p2]);
        assert_tables_hold_live_state(&sim, host, "single origin announced");
        assert!(sim.routes.contains_key(&host));
        sim.withdraw(at, f.user, host);
        assert_tables_hold_live_state(&sim, host, "single origin withdrawn");
        assert!(sim.routes.is_empty());

        // Two origins, withdrawn one at a time: the first withdrawal
        // propagates, the second drops the table.
        let space: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();
        for origin in [f.user, f.peer_as] {
            sim.announce(at, &Announcement::simple(origin, space, CommunitySet::new()));
            assert_tables_hold_live_state(&sim, space, "MOAS announced");
        }
        sim.withdraw(at, f.user, space);
        assert_tables_hold_live_state(&sim, space, "one of two origins withdrawn");
        assert!(sim.routes.contains_key(&space), "peer_as still originates {space}");
        sim.withdraw(at, f.peer_as, space);
        assert_tables_hold_live_state(&sim, space, "both origins withdrawn");
        assert!(sim.routes.is_empty());

        // A tagged host route every provider rejects: the run leaves no
        // table behind although the prefix keeps its origin.
        for provider in [f.p1, f.p2] {
            sim.set_behavior(
                provider,
                SessionBehavior { host_routes_from_customers: false, ..SessionBehavior::default() },
            );
        }
        let mut communities = bh_communities(f.p1);
        communities.merge(&bh_communities(f.p2));
        let rejected = Announcement {
            scope: AnnounceScope::Neighbors(vec![f.p1, f.p2]),
            ..Announcement::simple(f.user, "54.0.1.1/32".parse().unwrap(), communities)
        };
        let outcome = sim.announce(at, &rejected);
        assert!(outcome.accepted_by.is_empty());
        assert_eq!(outcome.rejected_by.len(), 2, "{outcome:?}");
        assert_tables_hold_live_state(&sim, rejected.prefix, "rejected everywhere");
        assert!(sim.routes.is_empty(), "a route nobody holds leaves no table");
        sim.withdraw(at, f.user, rejected.prefix);
        assert_tables_hold_live_state(&sim, rejected.prefix, "rejected and withdrawn");
        assert!(sim.routes.is_empty() && sim.origin_adverts.is_empty());
    }

    #[test]
    fn last_origin_withdrawal_jumps_to_the_empty_fixpoint() {
        let f = fixture();
        let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let request = Announcement {
            origin: f.user,
            prefix: host,
            communities: bh_communities(f.p2),
            scope: AnnounceScope::AllNeighbors,
            irr_registered: true,
            prepend: 1,
        };
        // Announce, then withdraw the only origin: the elems of each
        // call and the work items of the withdrawal.
        let run = |fifo: bool| {
            let d = deployment_with(vec![
                session(DataSource::Ris, f.t1a, FeedKind::Full),
                session(DataSource::Ris, f.p2, FeedKind::Full),
                session(DataSource::Cdn, f.p1, FeedKind::Internal),
            ]);
            let mut sim = match fifo {
                false => BgpSimulator::new(&f.topology, d, 1),
                true => BgpSimulator::fifo_reference(&f.topology, d, 1),
            };
            pin_behaviors(&mut sim, &f);
            let outcome = sim.try_announce(SimTime::from_unix(100), &request).unwrap();
            assert_eq!(outcome.accepted_by, vec![f.p2]);
            assert_eq!(sim.blackholing_ases_for(&host), vec![f.p2]);
            let announced = sim.drain_elems();
            let (before, peak) = (sim.run_stats().work_items, sim.run_stats().peak_run_steps);
            sim.try_withdraw(SimTime::from_unix(200), f.user, host).unwrap();
            assert!(sim.blackholing_ases_for(&host).is_empty());
            assert!(!sim.routes.contains_key(&host));
            let work = sim.run_stats().work_items - before;
            (announced, sim.drain_elems(), work, sim.run_stats().peak_run_steps == peak)
        };
        let engine = run(false);
        let reference = run(true);
        assert!(!engine.1.is_empty() && engine.1.iter().all(|e| e.elem_type == ElemType::Withdraw));
        assert_eq!((&engine.0, &engine.1), (&reference.0, &reference.1));
        assert_eq!(engine.2, 0, "the jump delivers nothing");
        assert!(engine.3, "the jump is not a run");
        assert!(reference.2 > 0, "the reference propagates the withdrawal");
    }
}
