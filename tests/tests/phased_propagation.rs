//! The simulator against two references.
//!
//! * **The rules**: on hand-built graphs with the expected paths written
//!   out, after every announce or withdraw the engine's drained elems
//!   must equal what the naive Gao-Rexford solver
//!   (`bh_integration::gao_rexford`, which shares no code with the
//!   engine) says the collectors' views moved by, `blackholing_ases_for`
//!   must name exactly the ASes where the solver holds a blackhole route,
//!   and an announcement's outcome must name the ASes where the solver
//!   sees its trigger fire or fail. Two hand graphs pin known engine
//!   divergences from the solver and are ignored until the engine is
//!   fixed (ROADMAP item 9).
//! * **The schedule**: on random operation sequences on the Tiny world
//!   (single- and multi-origin, bare / ROV / OTC + leaker tables, and an
//!   order-preserving ASN relabel of it), on Tiny worlds of five other
//!   seeds (multi-origin, drawn table), a Small sequence under each
//!   table and a release-only 15k-AS flood, the rank-phased engine must
//!   match the FIFO reference (`BgpSimulator::fifo_reference`) exactly:
//!   results, elems in order, blackholing ASes. The solver cannot take
//!   this role yet: the engine breaks equal-preference, equal-length ties
//!   its own way, and these worlds are full of them.
//!
//! Stream order is also pinned by `simulator_golden_pin` below and
//! `live_e2e.rs`' `session_golden_pin`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::StudyScale;
use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_integration::gao_rexford::{elems_between, fold, sorted, GaoRexford, Solution, Views};
use bh_routing::{
    deploy, AnnounceOutcome, AnnounceScope, Announcement, BgpElem, BgpSimulator, CollectorConfig,
    CollectorDeployment, CollectorSession, DataSource, FeedKind, PropagationError, RejectReason,
    SessionBehavior,
};
use bh_topology::{
    AsInfo, BlackholeAuth, BlackholeOffering, DocumentationChannel, Ixp, IxpId, NetworkType,
    PolicyTable, Relationship, Roa, RoaTable, Tier, Topology, TopologyBuilder, TopologyConfig,
};
use bh_workloads::capable_providers;

/// Full ROA coverage of every originated prefix at its exact length:
/// the announcements themselves validate `Valid`, while the /32
/// blackhole routes come out `Invalid` (too specific) — so an ROV
/// deployment actually drops routes in these runs.
fn roas_for(topology: &Topology) -> RoaTable {
    let mut roas = RoaTable::new();
    for info in topology.ases() {
        for &prefix in &info.prefixes {
            roas.insert(Roa { prefix, origin: info.asn, max_length: prefix.length() });
        }
    }
    roas
}

/// ROV at half the transit candidates, with real ROAs loaded.
fn rov_table(topology: &Topology) -> PolicyTable {
    let mut table = PolicyTable::new();
    table.set_roas(roas_for(topology));
    table.deploy_rov_fraction(topology, 0.5);
    table
}

/// RFC 9234 Only-to-Customers on the Tier-1 clique plus one deliberate
/// route leaker — the adversarial pairing the policy workloads use.
fn otc_leaker_table(topology: &Topology) -> PolicyTable {
    let mut table = PolicyTable::new();
    let mut leaker_picked = false;
    for info in topology.ases() {
        match info.tier {
            Tier::Tier1 => table.entry(info.asn).only_to_customers = true,
            Tier::Transit if !leaker_picked => {
                table.entry(info.asn).leaker = true;
                leaker_picked = true;
            }
            _ => {}
        }
    }
    table
}

/// A bare (0), an ROV (1) or an OTC+leaker (2) table.
fn table(topology: &Topology, which: usize) -> Option<PolicyTable> {
    match which {
        0 => None,
        1 => Some(rov_table(topology)),
        _ => Some(otc_leaker_table(topology)),
    }
}

fn tiny_env() -> &'static (Topology, CollectorConfig) {
    static ENV: OnceLock<(Topology, CollectorConfig)> = OnceLock::new();
    ENV.get_or_init(|| {
        (TopologyBuilder::new(TopologyConfig::tiny(55)).build(), CollectorConfig::tiny(6))
    })
}

/// The seeds of the Tiny worlds `engines_agree_on_other_tiny_worlds`
/// draws from.
const TINY_SEEDS: [u64; 5] = [1, 7, 11, 42, 91];

/// The Tiny world of `TINY_SEEDS[i]`, built once.
fn tiny_world(i: usize) -> &'static Topology {
    static WORLDS: [OnceLock<Topology>; TINY_SEEDS.len()] =
        [const { OnceLock::new() }; TINY_SEEDS.len()];
    WORLDS[i].get_or_init(|| TopologyBuilder::new(TopologyConfig::tiny(TINY_SEEDS[i])).build())
}

/// One Small-scale topology shared across the expensive cases below.
fn small_env() -> &'static (Topology, CollectorConfig) {
    static ENV: OnceLock<(Topology, CollectorConfig)> = OnceLock::new();
    ENV.get_or_init(|| {
        let topology = TopologyBuilder::new(StudyScale::Small.topology_config(42)).build();
        (topology, StudyScale::Small.collector_config(42 ^ 0x3434))
    })
}

#[derive(Debug, Clone)]
enum Op {
    Announce(Announcement),
    Withdraw(Asn, Ipv4Prefix),
}

impl Op {
    fn prefix(&self) -> Ipv4Prefix {
        match self {
            Op::Announce(a) => a.prefix,
            Op::Withdraw(_, prefix) => *prefix,
        }
    }
}

/// What a simulator shows after one operation: its result (the
/// announcement's outcome, `None` for a withdrawal), the elems it drained
/// and who blackholes the prefix.
type Seen = (Result<Option<AnnounceOutcome>, PropagationError>, Vec<BgpElem>, Vec<Asn>);

fn apply(sim: &mut BgpSimulator<'_>, time: SimTime, op: &Op) -> Seen {
    let result = match op {
        Op::Announce(a) => sim.try_announce(time, a).map(Some),
        Op::Withdraw(origin, prefix) => sim.try_withdraw(time, *origin, *prefix).map(|()| None),
    };
    (result, sim.drain_elems(), sim.blackholing_ases_for(&op.prefix()))
}

// ---- the engine against the FIFO reference ------------------------------

/// The engine and the FIFO reference (`BgpSimulator::fifo_reference`:
/// the same rules, one queue, every work item ingested and re-advertised
/// on its own) over the same world, stepped together. After every
/// operation both must drain the same elems in the same order and name
/// the same blackholing ASes — the engine's schedule must not show.
/// Their `AnnounceOutcome`s are not compared: an outcome also records
/// the trigger verdicts on routes a schedule passes through on its way
/// to the fixpoint, and the two schedules pass through different ones.
/// Without a leaker the rules are Gao-Rexford's, which always converge,
/// so a run stopped at the step cap fails the check; with one, a dispute
/// wheel can stop either side wherever its schedule got to, so that
/// prefix is compared no more, and once its last origin withdraws the
/// engine must show nothing of it.
struct Pair<'a> {
    engine: BgpSimulator<'a>,
    reference: BgpSimulator<'a>,
    /// Prefix → its live origins.
    origins: BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
    /// The engine's elem stream, folded per session.
    seen: BTreeMap<Ipv4Prefix, Views>,
    stalled: BTreeSet<Ipv4Prefix>,
    /// Whether the policy table installs a leaker.
    leaks: bool,
}

impl<'a> Pair<'a> {
    fn on(
        topology: &'a Topology,
        collector_config: &CollectorConfig,
        seed: u64,
        policies: Option<&PolicyTable>,
    ) -> Self {
        let build = |sim: fn(&'a Topology, CollectorDeployment, u64) -> BgpSimulator<'a>| {
            let mut sim = sim(topology, deploy(topology, collector_config), seed);
            if let Some(table) = policies {
                sim.install_policies(table);
            }
            sim
        };
        Pair {
            engine: build(BgpSimulator::new),
            reference: build(BgpSimulator::fifo_reference),
            origins: BTreeMap::new(),
            seen: BTreeMap::new(),
            stalled: BTreeSet::new(),
            leaks: policies.is_some_and(|table| table.iter().any(|(_, policy)| policy.leaker)),
        }
    }

    /// Apply `op` to both sides, compare them, and return what the
    /// engine showed.
    fn step(&mut self, time: SimTime, op: &Op) -> Seen {
        let prefix = op.prefix();
        match op {
            Op::Announce(a) => {
                self.origins.entry(prefix).or_default().insert(a.origin);
            }
            Op::Withdraw(origin, _) => {
                if let Some(origins) = self.origins.get_mut(&prefix) {
                    origins.remove(origin);
                    if origins.is_empty() {
                        self.origins.remove(&prefix);
                    }
                }
            }
        }
        let engine = apply(&mut self.engine, time, op);
        let reference = apply(&mut self.reference, time, op);
        fold(&mut self.seen, &engine.1);
        if engine.0.is_err() || reference.0.is_err() {
            assert!(self.leaks, "{prefix}: {:?} / {:?} without a leaker", engine.0, reference.0);
            self.stalled.insert(prefix);
        }
        if self.stalled.contains(&prefix) {
            if !self.origins.contains_key(&prefix) {
                assert!(
                    engine.2.is_empty() && !self.seen.contains_key(&prefix),
                    "{prefix} outlives its last origin"
                );
            }
            return engine;
        }
        if engine.1 != reference.1 {
            let only = |a: &[BgpElem], b: &[BgpElem]| a.iter().filter(|e| !b.contains(e)).count();
            panic!(
                "{prefix}: elems differ after {op:?}: {} engine only, {} reference only",
                only(&engine.1, &reference.1),
                only(&reference.1, &engine.1)
            );
        }
        assert_eq!(engine.2, reference.2, "{prefix}: blackholing ASes differ after {op:?}");
        engine
    }
}

// ---- the engine against the Gao-Rexford solver --------------------------

/// A simulator and the solver over the same world, stepped together.
/// After every operation on a prefix the step's elems, sorted, must
/// equal the solver's view diff for it, the engine's blackholing ASes
/// the solver's, and an announcement's `AnnounceOutcome` the triggers
/// the solver sees fire or fail on the routes the step offers anew.
struct Checked<'a> {
    sim: BgpSimulator<'a>,
    solver: GaoRexford<'a>,
    /// Prefix → origin → its last announcement.
    live: BTreeMap<Ipv4Prefix, BTreeMap<Asn, Announcement>>,
    /// The solution as of each prefix's last step.
    solutions: BTreeMap<Ipv4Prefix, Solution>,
    /// The last announcement's outcome.
    outcome: AnnounceOutcome,
}

impl<'a> Checked<'a> {
    /// Check `sim` (behaviors already set) with `policies` installed.
    fn new(
        mut sim: BgpSimulator<'a>,
        topology: &'a Topology,
        policies: Option<&PolicyTable>,
    ) -> Self {
        if let Some(table) = policies {
            sim.install_policies(table);
        }
        let solver = GaoRexford::new(topology, &sim, policies);
        Checked {
            sim,
            solver,
            live: BTreeMap::new(),
            solutions: BTreeMap::new(),
            outcome: AnnounceOutcome::default(),
        }
    }

    /// Apply `op` to the engine, check it, and return its elems.
    fn step(&mut self, time: SimTime, op: &Op) -> Vec<BgpElem> {
        let prefix = op.prefix();
        match op {
            Op::Announce(a) => {
                self.live.entry(prefix).or_default().insert(a.origin, a.clone());
            }
            Op::Withdraw(origin, _) => {
                if let Some(origins) = self.live.get_mut(&prefix) {
                    origins.remove(origin);
                    if origins.is_empty() {
                        self.live.remove(&prefix);
                    }
                }
            }
        }
        let (result, elems, blackholing) = apply(&mut self.sim, time, op);
        let outcome = result.unwrap_or_else(|error| panic!("{prefix}: {error}"));
        let live = self.live.get(&prefix).into_iter().flat_map(BTreeMap::values);
        let solution = self
            .solver
            .solve(prefix, live)
            .unwrap_or_else(|| panic!("the solver does not settle {prefix}"));
        let before = self.solutions.remove(&prefix).unwrap_or_default();
        let (engine, solver) =
            (sorted(elems.clone()), elems_between(prefix, &before.views, &solution.views, time));
        if engine != solver {
            let only = |a: &[BgpElem], b: &[BgpElem]| {
                a.iter().filter(|e| !b.contains(e)).cloned().collect::<Vec<_>>()
            };
            panic!(
                "{prefix}: elems differ\nengine only: {:?}\nsolver only: {:?}",
                only(&engine, &solver),
                only(&solver, &engine)
            );
        }
        assert_eq!(blackholing, solution.blackholing(), "{prefix}: blackholing ASes");
        if let (Op::Announce(a), Some(outcome)) = (op, outcome) {
            assert_eq!(outcome, self.solver.outcome(a, &before, &solution), "{prefix}: outcome");
            self.outcome = outcome;
        }
        self.solutions.insert(prefix, solution);
        elems
    }
}

// ---- hand-built graphs -------------------------------------------------

/// A hand-built world: AS `n` holds `n.0.0.0/16` (`n` ≥ 10), `edges` say
/// how the first AS relates to the second.
fn hand_world(
    asns: &[u32],
    offerings: Vec<(u32, BlackholeOffering)>,
    edges: &[(u32, u32, Relationship)],
    ixps: Vec<Ixp>,
) -> Topology {
    let mut offerings: BTreeMap<u32, BlackholeOffering> = offerings.into_iter().collect();
    let ases = asns
        .iter()
        .map(|&n| {
            let prefix = format!("{n}.0.0.0/16").parse().expect("a /16");
            let mut info = AsInfo::new(
                Asn::new(n),
                Tier::Transit,
                NetworkType::TransitAccess,
                "DE",
                vec![prefix],
                true,
            );
            info.blackhole_offering = offerings.remove(&n);
            (info.asn, info)
        })
        .collect();
    let edges = edges.iter().map(|&(a, b, rel)| (Asn::new(a), Asn::new(b), rel)).collect();
    Topology::assemble(ases, edges, ixps)
}

fn offering(trigger: Community, honors_no_export: bool, strips: bool) -> BlackholeOffering {
    BlackholeOffering {
        communities: vec![trigger],
        large_community: None,
        min_accepted_length: 25,
        documentation: DocumentationChannel::Irr,
        auth: BlackholeAuth::OriginOrCone,
        blackhole_ip: None,
        strips_community: strips,
        honors_no_export,
    }
}

/// One `feed` session at each of `asns`, on collector 0 of RIS (`Full`),
/// RouteViews (`CustomerOnly`) or the CDN (`Internal`).
fn sessions(asns: &[u32], feed: FeedKind) -> Vec<CollectorSession> {
    let dataset = match feed {
        FeedKind::CustomerOnly => DataSource::RouteViews,
        FeedKind::Internal => DataSource::Cdn,
        _ => DataSource::Ris,
    };
    asns.iter()
        .map(|&n| CollectorSession {
            dataset,
            collector: 0,
            peer_asn: Asn::new(n),
            peer_ip: format!("198.51.100.{}", n % 250).parse().expect("an address"),
            feed,
        })
        .collect()
}

/// A checked simulator on a hand world with `policies` installed: every
/// AS takes host routes from customers and not from peers, except those
/// in `lenient` (from both).
fn hand_checked<'a>(
    topology: &'a Topology,
    sessions: Vec<CollectorSession>,
    lenient: &[u32],
    policies: Option<&PolicyTable>,
) -> Checked<'a> {
    let mut deployment = CollectorDeployment::default();
    for session in sessions {
        deployment.add_session(session);
    }
    let mut sim = BgpSimulator::new(topology, deployment, 1);
    for info in topology.ases() {
        let peers = lenient.contains(&info.asn.value());
        sim.set_behavior(
            info.asn,
            SessionBehavior { host_routes_from_customers: true, host_routes_from_peers: peers },
        );
    }
    Checked::new(sim, topology, policies)
}

/// The path each session peer in `elems` was last shown, as ASNs.
fn paths(elems: &[BgpElem]) -> BTreeMap<(DataSource, u32), Vec<u32>> {
    let mut out = BTreeMap::new();
    for e in elems.iter().filter(|e| e.is_announce()) {
        let path = e.as_path.iter_asns().map(Asn::value).collect();
        out.insert((e.dataset, e.peer_asn.value()), path);
    }
    out
}

fn announce(origin: u32, prefix: &str, communities: Vec<Community>) -> Announcement {
    Announcement::simple(
        Asn::new(origin),
        prefix.parse().expect("a prefix"),
        CommunitySet::from_classic(communities),
    )
}

/// Snippet-1 style: customer routes climb, cross one peering and descend,
/// and a provider-learned route never reaches a peer.
///
/// ```text
///   10 ===== 50
///  /  \        \
/// 20   30 ~~~~ 60      (30 and 60 peer)
///  |
/// 40
/// ```
#[test]
fn hand_graph_paths_are_valley_free() {
    use Relationship::{Customer, Peer};
    let topology = hand_world(
        &[10, 20, 30, 40, 50, 60],
        vec![],
        &[
            (10, 20, Customer),
            (10, 30, Customer),
            (20, 40, Customer),
            (10, 50, Peer),
            (50, 60, Customer),
            (30, 60, Peer),
        ],
        vec![],
    );
    let mut checked =
        hand_checked(&topology, sessions(&[10, 20, 30, 50, 60], FeedKind::Full), &[], None);
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(40, "40.0.0.0/16", vec![])));
    let expected: BTreeMap<(DataSource, u32), Vec<u32>> = [
        (20, vec![20, 40]),
        (10, vec![10, 20, 40]),
        (30, vec![30, 10, 20, 40]),
        (50, vec![50, 10, 20, 40]),
        // Not [60, 30, 10, 20, 40]: 30 learned it from a provider.
        (60, vec![60, 50, 10, 20, 40]),
    ]
    .into_iter()
    .map(|(peer, path)| ((DataSource::Ris, peer), path))
    .collect();
    assert_eq!(paths(&elems), expected);

    // 30's own prefix: 60 prefers its peer 30 to its provider 50.
    let elems =
        checked.step(SimTime::from_unix(200), &Op::Announce(announce(30, "30.0.0.0/16", vec![])));
    let shown = paths(&elems);
    assert_eq!(shown[&(DataSource::Ris, 60)], vec![60, 30]);
    assert_eq!(shown[&(DataSource::Ris, 50)], vec![50, 10, 30]);
    assert_eq!(shown[&(DataSource::Ris, 20)], vec![20, 10, 30]);

    // Withdrawn: every session withdraws, nobody holds anything.
    let elems = checked
        .step(SimTime::from_unix(300), &Op::Withdraw(Asn::new(40), "40.0.0.0/16".parse().unwrap()));
    assert_eq!(elems.len(), 5);
    assert!(elems.iter().all(|e| !e.is_announce()));
}

/// A customer route beats a shorter one from a peer; NO_EXPORT stops at
/// the first hop, where only an internal session sees it.
///
/// ```text
/// 10 ~~~~ 30     (10 and 30 peer; 30 is 20's customer, 20 is 10's)
///   \    /
///    20
/// ```
#[test]
fn hand_graph_prefers_customers_and_honours_no_export() {
    use Relationship::{Customer, Peer};
    let topology = hand_world(
        &[10, 20, 30],
        vec![],
        &[(10, 20, Customer), (20, 30, Customer), (10, 30, Peer)],
        vec![],
    );
    let mut all = sessions(&[10, 20], FeedKind::Full);
    all.extend(sessions(&[10, 20], FeedKind::Internal));
    let mut checked = hand_checked(&topology, all, &[], None);
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(30, "30.0.0.0/16", vec![])));
    let shown = paths(&elems);
    assert_eq!(shown[&(DataSource::Ris, 10)], vec![10, 20, 30], "customer over peer");
    assert_eq!(shown[&(DataSource::Cdn, 10)], vec![10, 20, 30]);

    let quiet = announce(30, "30.1.0.0/24", vec![Community::NO_EXPORT]);
    let elems = checked.step(SimTime::from_unix(200), &Op::Announce(quiet));
    // 20 and 10 hold it from 30 directly; neither passes it on, and only
    // the internal sessions show it.
    assert_eq!(
        paths(&elems),
        BTreeMap::from([
            ((DataSource::Cdn, 10), vec![10, 30]),
            ((DataSource::Cdn, 20), vec![20, 30])
        ])
    );
}

/// One RTBH user, three blackholing providers, each under its own
/// upstream: 201 accepts and passes the route on, 202 accepts and
/// suppresses it (RFC 7999), 203 accepts and strips its trigger.
///
/// ```text
///   101  102  103
///    |    |    |
///   201  202  203
///      \  |  /
///        30
/// ```
#[test]
fn rtbh_providers_accept_suppress_and_strip() {
    use Relationship::Customer;
    let trigger = |n: u16| Community::from_parts(n, 666);
    let topology = hand_world(
        &[30, 101, 102, 103, 201, 202, 203],
        vec![
            (201, offering(trigger(201), false, false)),
            (202, offering(trigger(202), true, false)),
            (203, offering(trigger(203), false, true)),
        ],
        &[
            (101, 201, Customer),
            (102, 202, Customer),
            (103, 203, Customer),
            (201, 30, Customer),
            (202, 30, Customer),
            (203, 30, Customer),
        ],
        vec![],
    );
    let mut all = sessions(&[101, 102, 103, 201, 202, 203], FeedKind::Full);
    all.extend(sessions(&[202], FeedKind::Internal));
    let mut checked = hand_checked(&topology, all, &[], None);
    let bundle = vec![trigger(201), trigger(202), trigger(203)];
    let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
    let elems = checked
        .step(SimTime::from_unix(100), &Op::Announce(announce(30, "30.0.1.1/32", bundle.clone())));
    assert_eq!(checked.sim.blackholing_ases_for(&host), [201, 202, 203].map(Asn::new));
    assert_eq!(
        paths(&elems),
        [
            (101, vec![101, 201, 30]),
            (103, vec![103, 203, 30]),
            (201, vec![201, 30]),
            (202, vec![202, 30]), // a suppressing provider's own feed
            (203, vec![203, 30]),
        ]
        .into_iter()
        .map(|(peer, path)| ((DataSource::Ris, peer), path))
        .chain([((DataSource::Cdn, 202), vec![202, 30])])
        .collect::<BTreeMap<_, _>>()
    );
    let shown_at = |peer: u32| {
        let at = elems.iter().find(|e| e.peer_asn == Asn::new(peer) && e.is_announce());
        at.expect("an announcement").communities.clone()
    };
    assert!(bundle.iter().all(|c| shown_at(101).contains(*c)), "201 passes the bundle on");
    assert!(!shown_at(103).contains(trigger(203)), "203 strips its own trigger");
    assert!(shown_at(103).contains(trigger(201)) && shown_at(103).contains(trigger(202)));

    // Only 202 is asked: it blackholes and nobody upstream hears of it.
    let only = Announcement {
        scope: AnnounceScope::Neighbors(vec![Asn::new(202)]),
        ..announce(30, "30.0.1.1/32", vec![trigger(202)])
    };
    let elems = checked.step(SimTime::from_unix(200), &Op::Announce(only));
    assert_eq!(checked.sim.blackholing_ases_for(&host), vec![Asn::new(202)]);
    let withdrawn: BTreeSet<u32> =
        elems.iter().filter(|e| !e.is_announce()).map(|e| e.peer_asn.value()).collect();
    assert_eq!(withdrawn, BTreeSet::from([101, 103, 201, 203]));
}

/// A prefix with two origins: withdrawing one leaves the other's routes
/// (that withdrawal propagates), withdrawing the last leaves nothing.
///
/// ```text
///      10
///     /  \
///   20    30     (both originate 20.0.0.0/24)
/// ```
#[test]
fn hand_graph_withdraws_one_of_two_origins() {
    use Relationship::Customer;
    let topology =
        hand_world(&[10, 20, 30], vec![], &[(10, 20, Customer), (10, 30, Customer)], vec![]);
    let mut checked = hand_checked(&topology, sessions(&[10, 20, 30], FeedKind::Full), &[], None);
    let prefix: Ipv4Prefix = "20.0.0.0/24".parse().unwrap();
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(20, "20.0.0.0/24", vec![])));
    let expected = BTreeMap::from([
        ((DataSource::Ris, 10), vec![10, 20]),
        ((DataSource::Ris, 30), vec![30, 10, 20]),
    ]);
    assert_eq!(paths(&elems), expected);
    // 10 keeps 20's route (the lower sender), so nothing moves.
    let elems =
        checked.step(SimTime::from_unix(200), &Op::Announce(announce(30, "20.0.0.0/24", vec![])));
    assert!(elems.is_empty());
    // 20 withdraws: 10 turns to 30's route and 20 now hears it.
    let elems = checked.step(SimTime::from_unix(300), &Op::Withdraw(Asn::new(20), prefix));
    let expected = BTreeMap::from([
        ((DataSource::Ris, 10), vec![10, 30]),
        ((DataSource::Ris, 20), vec![20, 10, 30]),
    ]);
    assert_eq!(paths(&elems), expected);
    assert!(elems.iter().any(|e| !e.is_announce() && e.peer_asn == Asn::new(30)));
    let elems = checked.step(SimTime::from_unix(400), &Op::Withdraw(Asn::new(30), prefix));
    assert_eq!(elems.len(), 2);
    assert!(elems.iter().all(|e| !e.is_announce()));
}

/// A customer that also peers with its provider is its customer for
/// export too: the provider sends it what it learned from above.
///
/// ```text
///   30
///   |
///   10
///   |  (10 → 20: customer, and a peering)
///   20
/// ```
#[test]
fn a_customer_that_also_peers_hears_its_provider() {
    use Relationship::{Customer, Peer};
    let topology = hand_world(
        &[10, 20, 30],
        vec![],
        &[(30, 10, Customer), (10, 20, Customer), (10, 20, Peer)],
        vec![],
    );
    let at_10: Vec<_> = topology.neighbors(Asn::new(10)).to_vec();
    assert_eq!(at_10[..2], [(Asn::new(20), Customer), (Asn::new(20), Peer)], "listed in order");
    let mut checked = hand_checked(&topology, sessions(&[10, 20], FeedKind::Full), &[], None);
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(30, "30.0.0.0/16", vec![])));
    assert_eq!(
        paths(&elems),
        BTreeMap::from([
            ((DataSource::Ris, 10), vec![10, 30]),
            ((DataSource::Ris, 20), vec![20, 10, 30])
        ])
    );
}

/// Prepending counts once toward path length but shows in full; a
/// trigger outside the length window or from outside the owner's cone
/// is rejected (and the route kept as a plain one where its length is
/// accepted); a host route crosses customer links only; a
/// `CustomerOnly` feed shows customer routes only (10's, not 11's), an
/// `Internal` feed the blackhole candidate.
///
/// ```text
///   10 ~~~~ 11     (10 and 11 peer; 20 offers blackholing)
///   |
///   20
///  /  \
/// 30   40
/// ```
#[test]
fn hand_graph_prepends_rejects_triggers_and_filters_feeds() {
    use Relationship::{Customer, Peer};
    let trigger = Community::from_parts(20, 666);
    let topology = hand_world(
        &[10, 11, 20, 30, 40],
        vec![(20, offering(trigger, false, false))],
        &[(10, 11, Peer), (10, 20, Customer), (20, 30, Customer), (20, 40, Customer)],
        vec![],
    );
    let mut all = sessions(&[11, 20], FeedKind::Full);
    all.extend(sessions(&[10, 11], FeedKind::CustomerOnly));
    all.extend(sessions(&[20], FeedKind::Internal));
    let mut checked = hand_checked(&topology, all, &[], None);
    let feeds = |rows: &[(DataSource, u32, &[u32])]| -> BTreeMap<(DataSource, u32), Vec<u32>> {
        rows.iter().map(|&(dataset, peer, path)| ((dataset, peer), path.to_vec())).collect()
    };

    let prepended = Announcement { prepend: 3, ..announce(30, "30.0.0.0/16", vec![]) };
    let elems = checked.step(SimTime::from_unix(100), &Op::Announce(prepended));
    assert_eq!(
        paths(&elems),
        feeds(&[
            (DataSource::RouteViews, 10, &[10, 20, 30, 30, 30]),
            (DataSource::Ris, 11, &[11, 10, 20, 30, 30, 30]),
            (DataSource::Ris, 20, &[20, 30, 30, 30]),
            (DataSource::Cdn, 20, &[20, 30, 30, 30]),
        ])
    );

    // A /24 is too short for 20's window: rejected as a trigger, kept as
    // a route, tag and all.
    let short = announce(30, "30.0.0.0/24", vec![trigger]);
    let elems = checked.step(SimTime::from_unix(200), &Op::Announce(short));
    assert_eq!(checked.outcome.rejected_by, [(Asn::new(20), RejectReason::LengthRejected)]);
    assert!(elems.iter().all(|e| e.communities.contains(trigger)) && elems.len() == 4);

    // 40 asks for a host route of 30's space: not its own, not in its
    // cone. 20 keeps it as a plain host route from a customer; 10 takes
    // it from its customer 20, 11 not from its peer 10.
    let foreign = announce(40, "30.0.1.1/32", vec![trigger]);
    let elems = checked.step(SimTime::from_unix(300), &Op::Announce(foreign));
    assert_eq!(checked.outcome.rejected_by, [(Asn::new(20), RejectReason::AuthFailed)]);
    assert!(checked.sim.blackholing_ases_for(&"30.0.1.1/32".parse().unwrap()).is_empty());
    assert_eq!(
        paths(&elems),
        feeds(&[
            (DataSource::RouteViews, 10, &[10, 20, 40]),
            (DataSource::Ris, 20, &[20, 40]),
            (DataSource::Cdn, 20, &[20, 40]),
        ])
    );
    let host: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
    checked.step(SimTime::from_unix(400), &Op::Withdraw(Asn::new(40), host));

    // The owner asks: 20 blackholes, and its internal feed shows it.
    let elems = checked
        .step(SimTime::from_unix(500), &Op::Announce(announce(30, "30.0.1.1/32", vec![trigger])));
    assert_eq!(checked.sim.blackholing_ases_for(&host), vec![Asn::new(20)]);
    assert_eq!(checked.outcome.accepted_by, vec![Asn::new(20)]);
    assert_eq!(
        paths(&elems),
        feeds(&[
            (DataSource::RouteViews, 10, &[10, 20, 30]),
            (DataSource::Ris, 20, &[20, 30]),
            (DataSource::Cdn, 20, &[20, 30]),
        ])
    );
}

/// ROV, only-to-customers and a leaker.
///
/// ```text
///  50(OTC)  10(OTC, ROV)  70
///     \    /  |  \       /
///      \  /   20  60    /
///       40     |       /
///        \____30 ____/   (40 is also 70's customer)
/// ```
///
/// Edges: 10 is the provider of 20, 40 and 60; 20 of 30; 50 and 70 of
/// 40. 40 leaks: it sends its provider 10's route to its other
/// providers. 10 marks what it sends its customers, so 50 (OTC) rejects
/// the leak and 70 takes it. 60's hijack of 30's prefix is RPKI-invalid
/// and 10 drops it.
#[test]
fn hand_graph_policies_drop_mark_and_leak() {
    use Relationship::Customer;
    let topology = hand_world(
        &[10, 20, 30, 40, 50, 60, 70],
        vec![],
        &[
            (10, 20, Customer),
            (20, 30, Customer),
            (10, 40, Customer),
            (50, 40, Customer),
            (70, 40, Customer),
            (10, 60, Customer),
        ],
        vec![],
    );
    let mut table = PolicyTable::new();
    let mut roas = RoaTable::new();
    roas.insert(Roa {
        prefix: "30.0.0.0/16".parse().unwrap(),
        origin: Asn::new(30),
        max_length: 24,
    });
    table.set_roas(roas);
    let policy = table.entry(Asn::new(10));
    policy.rov = true;
    policy.only_to_customers = true;
    table.entry(Asn::new(50)).only_to_customers = true;
    table.entry(Asn::new(40)).leaker = true;
    let all = sessions(&[10, 20, 40, 50, 60, 70], FeedKind::Full);
    let mut checked = hand_checked(&topology, all, &[], Some(&table));
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(30, "30.0.0.0/16", vec![])));
    let expected: BTreeMap<(DataSource, u32), Vec<u32>> = [
        (10, vec![10, 20, 30]),
        (20, vec![20, 30]),
        (40, vec![40, 10, 20, 30]),
        (60, vec![60, 10, 20, 30]),
        (70, vec![70, 40, 10, 20, 30]),
    ]
    .into_iter()
    .map(|(peer, path)| ((DataSource::Ris, peer), path))
    .collect();
    assert_eq!(paths(&elems), expected);
    assert!(checked.sim.run_stats().import_rejects_for(RejectReason::RouteLeak) > 0);

    // The hijack: shorter from 10's view, but RPKI-invalid.
    let elems =
        checked.step(SimTime::from_unix(200), &Op::Announce(announce(60, "30.0.0.0/16", vec![])));
    assert!(elems.is_empty());
    assert!(checked.sim.run_stats().import_rejects_for(RejectReason::RovInvalid) > 0);
}

/// Routes equal in preference and length go to the lowest sender ASN:
/// 100 hears 30's prefix from its customers 201 and 203 alike.
///
/// ```text
///      100
///     /   \
///   201   203
///     \   /
///      30
/// ```
#[test]
#[ignore = "the engine breaks this tie by the lower origin, then the higher neighbor \
            (`PrefixState::best`); the fix moves EXPERIMENTS.md (ROADMAP item 9)"]
fn ties_go_to_the_lowest_sender() {
    use Relationship::Customer;
    let topology = hand_world(
        &[30, 100, 201, 203],
        vec![],
        &[(100, 201, Customer), (100, 203, Customer), (201, 30, Customer), (203, 30, Customer)],
        vec![],
    );
    let mut checked = hand_checked(&topology, sessions(&[100], FeedKind::Full), &[], None);
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(30, "30.0.0.0/16", vec![])));
    assert_eq!(paths(&elems), BTreeMap::from([((DataSource::Ris, 100), vec![100, 201, 30])]));
}

/// A leaking member of a route server that is not in the path sends
/// everything everywhere, but not back to the route server it learned
/// the route from: the route server's view shows only the origin's
/// contribution.
#[test]
#[ignore = "the engine withholds a route from its origin, not its sender (`advertise`), \
            so the leaker echoes it to the route server (ROADMAP item 9)"]
fn a_leaker_does_not_echo_to_its_route_server() {
    use Relationship::RouteServer;
    let ixp = Ixp {
        id: IxpId(0),
        name: "HAND-IX".into(),
        route_server_asn: Asn::new(60),
        route_server_in_path: false,
        peering_lan: "185.1.0.0/24".parse().unwrap(),
        members: [41, 42].map(Asn::new).to_vec(),
        country: "DE",
    };
    let topology = hand_world(
        &[41, 42, 60],
        vec![],
        &[(41, 60, RouteServer), (42, 60, RouteServer)],
        vec![ixp],
    );
    let pch = CollectorSession {
        dataset: DataSource::Pch,
        collector: 0,
        peer_asn: Asn::new(60),
        peer_ip: "185.1.0.1".parse().unwrap(),
        feed: FeedKind::RouteServerView(IxpId(0)),
    };
    let mut leaker = PolicyTable::new();
    leaker.entry(Asn::new(42)).leaker = true;
    let mut checked = hand_checked(&topology, vec![pch], &[], Some(&leaker));
    let elems =
        checked.step(SimTime::from_unix(100), &Op::Announce(announce(41, "41.0.0.0/24", vec![])));
    assert_eq!(paths(&elems), BTreeMap::from([((DataSource::Pch, 41), vec![41])]));
}

/// A blackholing route server, with and without its ASN in the path:
/// members only, IRR-authenticated triggers, host routes to members that
/// accept them from peers, and the PCH view at each member's LAN address.
#[test]
fn route_server_with_and_without_path_insertion() {
    for in_path in [true, false] {
        use Relationship::RouteServer;
        let mut rs_offering = offering(Community::BLACKHOLE, false, false);
        rs_offering.auth = BlackholeAuth::IrrRegistered;
        rs_offering.blackhole_ip = Some("185.1.0.66".parse().unwrap());
        let ixp = Ixp {
            id: IxpId(0),
            name: "HAND-IX".into(),
            route_server_asn: Asn::new(60),
            route_server_in_path: in_path,
            peering_lan: "185.1.0.0/24".parse().unwrap(),
            members: [41, 42, 43].map(Asn::new).to_vec(),
            country: "DE",
        };
        let topology = hand_world(
            &[41, 42, 43, 44, 60],
            vec![(60, rs_offering)],
            &[
                (41, 60, RouteServer),
                (42, 60, RouteServer),
                (43, 60, RouteServer),
                (44, 60, RouteServer),
            ],
            vec![ixp],
        );
        let mut all = sessions(&[42, 43, 44], FeedKind::Full);
        all.push(CollectorSession {
            dataset: DataSource::Pch,
            collector: 0,
            peer_asn: Asn::new(60),
            peer_ip: "185.1.0.1".parse().unwrap(),
            feed: FeedKind::RouteServerView(IxpId(0)),
        });
        // 42 takes host routes from the route server, 43 does not.
        let mut checked = hand_checked(&topology, all, &[42], None);
        let request = Announcement {
            scope: AnnounceScope::Neighbors(vec![Asn::new(60)]),
            ..announce(41, "41.0.0.7/32", vec![Community::BLACKHOLE])
        };
        let via = |member: u32| match in_path {
            true => vec![60, member],
            false => vec![member],
        };
        let elems = checked.step(SimTime::from_unix(100), &Op::Announce(request.clone()));
        let host: Ipv4Prefix = "41.0.0.7/32".parse().unwrap();
        assert_eq!(
            checked.sim.blackholing_ases_for(&host),
            [42, 60].map(Asn::new),
            "in path: {in_path}"
        );
        let mut expected_42 = vec![42];
        expected_42.extend(via(41));
        assert_eq!(
            paths(&elems),
            BTreeMap::from([
                ((DataSource::Ris, 42), expected_42),
                ((DataSource::Pch, 41), via(41))
            ])
        );
        let pch = elems.iter().find(|e| e.dataset == DataSource::Pch).expect("a PCH view");
        assert_eq!(
            pch.peer_ip,
            "185.1.0.2".parse::<std::net::IpAddr>().unwrap(),
            "41's LAN address"
        );
        assert_eq!(pch.next_hop, Some("185.1.0.66".parse().unwrap()));

        // Unregistered, the request fails the IRR filter and the route
        // server drops it; an untagged /32 it never redistributes.
        let unregistered = Announcement { irr_registered: false, ..request.clone() };
        let elems = checked.step(SimTime::from_unix(200), &Op::Announce(unregistered));
        assert!(elems.iter().all(|e| !e.is_announce()) && elems.len() == 2);
        let untagged = Announcement { communities: CommunitySet::new(), ..request.clone() };
        assert!(checked.step(SimTime::from_unix(300), &Op::Announce(untagged)).is_empty());
        // 44 is no member: the route server ignores what it sends.
        let outsider = Announcement {
            scope: AnnounceScope::Neighbors(vec![Asn::new(60)]),
            ..announce(44, "44.0.0.0/24", vec![])
        };
        assert!(checked.step(SimTime::from_unix(400), &Op::Announce(outsider)).is_empty());
    }
}

// ---- random operation sequences -----------------------------------------

/// One step of a random operation sequence, drawn as raw numbers and
/// decoded against the topology: `(user, host route?, kind, scope mask,
/// prepend, IRR-registered?)`.
type RawOp = (usize, bool, u8, u8, usize, bool);

fn raw_op() -> impl Strategy<Value = RawOp> {
    (0usize..3, any::<bool>(), 0u8..6, any::<u8>(), 1usize..4, (0u8..5).prop_map(|d| d != 0))
}

/// The users of a world: its first three stubs with address space and a
/// capable provider, or — when one of them has a route server among its
/// capable providers — two of those and the first that has one.
fn users(topology: &Topology) -> Vec<&bh_topology::AsInfo> {
    let capable = |i: &&bh_topology::AsInfo| {
        i.tier == Tier::Stub
            && !i.prefixes.is_empty()
            && !capable_providers(topology, i.asn).is_empty()
    };
    let at_ixp = |i: &&bh_topology::AsInfo| {
        capable_providers(topology, i.asn)
            .iter()
            .any(|p| topology.ixp_by_route_server(p.announce_to).is_some())
    };
    let mut users: Vec<_> = topology.ases().filter(capable).take(3).collect();
    if !users.iter().any(at_ixp) {
        if let Some(member) = topology.ases().filter(capable).find(at_ixp) {
            users[2] = member;
        }
    }
    users
}

/// Decode a raw draw with user `by` as the origin of the drawn user's
/// prefix (`by == user` is the owner's own operation). Three users and
/// two overlapping prefixes each (a /24 of the user's space and the
/// first host route inside it) keep the sequence colliding with itself:
/// re-announcements with other communities, scope or prepending, and
/// withdrawals of what is — or is not — currently announced.
/// Communities and scope are `by`'s, so a foreign origin tags with its
/// own providers' triggers, as a hijacker would.
fn decode_op_by(
    topology: &Topology,
    by: usize,
    (user, host, kind, mask, prepend, irr_registered): RawOp,
) -> Op {
    let users = users(topology);
    let space = users[user % users.len()].prefixes[0];
    let info = users[by % users.len()];
    let prefix = match host {
        true => Ipv4Prefix::host(space.nth_addr(1).expect("space has a host")),
        false => Ipv4Prefix::new(space.nth_addr(0).expect("space has a network"), 24)
            .expect("a /24 inside the allocation"),
    };
    let providers = capable_providers(topology, info.asn);
    let triggers: Vec<Community> =
        providers.iter().flat_map(|p| p.communities.first().copied()).collect();
    let neighbors = topology.neighbors(info.asn);
    let mut scope = match mask {
        0..=127 => AnnounceScope::AllNeighbors,
        _ => AnnounceScope::Neighbors(
            neighbors
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 7) & 1 == 1)
                .map(|(_, n)| n.0)
                .collect(),
        ),
    };
    let communities = match kind {
        0 => return Op::Withdraw(info.asn, prefix),
        1 => Vec::new(),
        2 => triggers, // bundled
        3 => triggers[..1].to_vec(),
        4 => triggers.into_iter().chain([Community::NO_EXPORT]).collect(),
        _ => {
            // Targeted at one capable provider — a route server included.
            let provider = &providers[mask as usize % providers.len()];
            scope = AnnounceScope::Neighbors(vec![provider.announce_to]);
            provider.communities[..1].to_vec()
        }
    };
    Op::Announce(Announcement {
        scope,
        irr_registered,
        prepend,
        ..Announcement::simple(info.asn, prefix, CommunitySet::from_classic(communities))
    })
}

/// The draw aims triggers at a route server too: a Tiny user has one
/// among its capable providers.
#[test]
fn the_draw_reaches_a_route_server() {
    let topology = &tiny_env().0;
    let aimed_at = |user: usize, mask: u8| match decode_op_by(
        topology,
        user,
        (user, true, 5, mask, 1, true),
    ) {
        Op::Announce(Announcement { scope: AnnounceScope::Neighbors(to), .. }) => to[0],
        op => panic!("kind 5 is a targeted announcement, not {op:?}"),
    };
    let route_servers = (0..3)
        .flat_map(|user| (0..=u8::MAX).map(move |mask| aimed_at(user, mask)))
        .filter(|asn| topology.ixp_by_route_server(*asn).is_some())
        .count();
    assert!(route_servers > 0, "no trigger is aimed at a route server");
}

fn tiny_pair(which: usize) -> Pair<'static> {
    let (topology, collector_config) = tiny_env();
    Pair::on(topology, collector_config, 7, table(topology, which).as_ref())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Engine and FIFO reference agree after *every* operation of a
    /// random sequence — announce, re-announce with changed communities,
    /// scope, prepending or IRR registration, a trigger aimed at one
    /// provider or route server, withdraw — over two overlapping
    /// prefixes per user, under a bare, an ROV and an OTC+leaker table.
    #[test]
    fn engines_agree_on_operation_sequences(
        which in 0usize..3,
        ops in proptest::collection::vec(raw_op(), 4..16),
    ) {
        let mut pair = tiny_pair(which);
        let mut elems = 0;
        for (step, raw) in ops.into_iter().enumerate() {
            let op = decode_op_by(&tiny_env().0, raw.0, raw);
            elems += pair.step(SimTime::from_unix(1_000 + step as u64), &op).1.len();
        }
        prop_assert!(elems > 0, "sequence produced no elems");
    }

    /// The withdrawal the engine still propagates: any of the three users
    /// may originate any user's /24 or host route, so a prefix can have
    /// several origins, and withdrawing one that leaves another must
    /// propagate (at least one work item when it was sent anywhere)
    /// while the last origin's withdrawal jumps (none). Engine and FIFO
    /// reference — which propagates every withdrawal — agree after every
    /// step under a bare, an ROV and an OTC+leaker table.
    #[test]
    fn engines_agree_on_multi_origin_sequences(
        which in 0usize..3,
        ops in proptest::collection::vec((0usize..3, raw_op()), 16..48),
    ) {
        let topology = &tiny_env().0;
        let mut pair = tiny_pair(which);
        // The test's own model: prefix -> origin -> sent to any neighbor.
        let mut origins: BTreeMap<Ipv4Prefix, BTreeMap<Asn, bool>> = BTreeMap::new();
        for (step, (by, raw)) in ops.into_iter().enumerate() {
            let op = decode_op_by(topology, by, raw);
            let work_before = pair.engine.run_stats().work_items;
            let _ = pair.step(SimTime::from_unix(1_000 + step as u64), &op);
            let work = pair.engine.run_stats().work_items - work_before;
            match op {
                Op::Announce(a) => {
                    let sent = match &a.scope {
                        AnnounceScope::AllNeighbors => !topology.neighbors(a.origin).is_empty(),
                        AnnounceScope::Neighbors(list) => !list.is_empty(),
                    };
                    origins.entry(a.prefix).or_default().insert(a.origin, sent);
                }
                Op::Withdraw(origin, prefix) => {
                    let held = origins.get_mut(&prefix);
                    let sent = held.and_then(|held| held.remove(&origin));
                    let others = origins.get(&prefix).is_some_and(|held| !held.is_empty());
                    match (sent, others) {
                        (Some(true), true) => prop_assert_eq!((step, work > 0), (step, true)),
                        (_, false) => prop_assert_eq!((step, work), (step, 0)),
                        _ => {}
                    }
                    if !others {
                        origins.remove(&prefix);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Generator breadth: the multi-origin sequences above on a Tiny
    /// world of a drawn seed instead of Tiny(55) alone — another graph,
    /// other users, other route servers — engine against FIFO reference
    /// after every step under a bare, an ROV and an OTC+leaker table.
    #[test]
    fn engines_agree_on_other_tiny_worlds(
        world in 0..TINY_SEEDS.len(),
        which in 0usize..3,
        ops in proptest::collection::vec((0usize..3, raw_op()), 8..32),
    ) {
        let topology = tiny_world(world);
        let collector_config = &tiny_env().1;
        let mut pair = Pair::on(topology, collector_config, 7, table(topology, which).as_ref());
        let mut elems = 0;
        for (step, (by, raw)) in ops.into_iter().enumerate() {
            let op = decode_op_by(topology, by, raw);
            elems += pair.step(SimTime::from_unix(1_000 + step as u64), &op).1.len();
        }
        prop_assert!(elems > 0, "Tiny({}): the sequence produced no elems", TINY_SEEDS[world]);
    }
}

/// `raw`'s operation on a world whose ASNs went through the
/// order-preserving `relabel`.
fn relabelled_op(op: &Op, relabel: impl Fn(Asn) -> Asn) -> Op {
    match op {
        Op::Withdraw(origin, prefix) => Op::Withdraw(relabel(*origin), *prefix),
        Op::Announce(a) => Op::Announce(Announcement {
            origin: relabel(a.origin),
            scope: match &a.scope {
                AnnounceScope::AllNeighbors => AnnounceScope::AllNeighbors,
                AnnounceScope::Neighbors(list) => {
                    AnnounceScope::Neighbors(list.iter().map(|n| relabel(*n)).collect())
                }
            },
            ..a.clone()
        }),
    }
}

/// `topology` with every ASN `a` renamed `relabel(a)`; offerings,
/// prefixes and communities unchanged.
fn relabelled(topology: &Topology, relabel: impl Fn(Asn) -> Asn) -> Topology {
    let ases = topology
        .ases()
        .map(|info| (relabel(info.asn), AsInfo { asn: relabel(info.asn), ..info.clone() }))
        .collect();
    let edges = topology
        .ases()
        .flat_map(|info| {
            let me = info.asn;
            topology
                .neighbors(me)
                .iter()
                .filter(move |(n, _)| me < *n)
                .map(move |&(n, rel)| (me, n, rel))
        })
        .map(|(a, b, rel)| (relabel(a), relabel(b), rel))
        .collect();
    let ixps = topology
        .ixps()
        .iter()
        .map(|ixp| Ixp {
            route_server_asn: relabel(ixp.route_server_asn),
            members: ixp.members.iter().map(|m| relabel(*m)).collect(),
            ..ixp.clone()
        })
        .collect();
    Topology::assemble(ases, edges, ixps)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// R6, ASN relabel: move every ASN of the Tiny world into the 32-bit
    /// range, order preserved, and run the same sequence on both worlds.
    /// Each world's engine is checked against its FIFO reference, and the
    /// relabelled run's outcomes, elems and blackholing ASes are the
    /// original's, relabelled.
    #[test]
    fn relabelled_world_gives_relabelled_results(
        which in 0usize..3,
        ops in proptest::collection::vec((0usize..3, raw_op()), 4..24),
    ) {
        let relabel = |a: Asn| Asn::new(a.value() * 3 + 70_000);
        let (topology, collector_config) = tiny_env();
        let moved = relabelled(topology, relabel);
        let mut original = tiny_pair(which);
        let mut renamed = Pair::on(&moved, collector_config, 7, table(&moved, which).as_ref());
        for (step, (by, raw)) in ops.into_iter().enumerate() {
            let time = SimTime::from_unix(1_000 + step as u64);
            let op = decode_op_by(topology, by, raw);
            let (result, elems, blackholing) = original.step(time, &op);
            let result = result.map(|outcome| {
                outcome.map(|o| AnnounceOutcome {
                    accepted_by: o.accepted_by.into_iter().map(relabel).collect(),
                    rejected_by: o.rejected_by.into_iter().map(|(a, r)| (relabel(a), r)).collect(),
                })
            });
            let elems = elems
                .into_iter()
                .map(|e| BgpElem {
                    peer_asn: relabel(e.peer_asn),
                    as_path: AsPath::from_sequence(
                        e.as_path.iter_asns().map(relabel).collect::<Vec<_>>(),
                    ),
                    ..e
                })
                .collect();
            let blackholing = blackholing.into_iter().map(relabel).collect();
            let expected = (result, elems, blackholing);
            prop_assert_eq!((step, renamed.step(time, &relabelled_op(&op, relabel))), (step, expected));
        }
    }
}

/// A fixed 60-step sequence on the Small world under `which` table,
/// engine against FIFO reference.
fn small_sequence(which: usize) -> Pair<'static> {
    let (topology, collector_config) = small_env();
    let mut pair = Pair::on(topology, collector_config, 42, table(topology, which).as_ref());
    let mut elems = 0;
    for step in 0..60usize {
        let raw = (
            step % 3,
            step % 4 < 2,
            (step * 5 % 6) as u8,
            (step * 73 % 256) as u8,
            1 + step % 3,
            step % 5 != 4,
        );
        let op = decode_op_by(topology, step / 3 % 3, raw);
        elems += pair.step(SimTime::from_unix(1_000 + step as u64), &op).1.len();
    }
    assert!(elems > 0, "the sequence produced no elems");
    pair
}

#[test]
fn engines_agree_at_small_scale() {
    small_sequence(0);
}

#[test]
fn engines_agree_at_small_scale_with_rov() {
    assert!(rov_table(&small_env().0).deployed_count() > 0, "ROV table deployed nowhere");
    let pair = small_sequence(1);
    // The policy actually bit: ROV rejected imports.
    let rov_rejects = pair.engine.run_stats().import_rejects_for(RejectReason::RovInvalid);
    assert!(rov_rejects > 0, "ROV never rejected anything");
}

#[test]
fn engines_agree_at_small_scale_with_otc_and_leaker() {
    assert!(
        otc_leaker_table(&small_env().0).deployed_count() >= 2,
        "need OTC deployers and a leaker"
    );
    let pair = small_sequence(2);
    assert!(pair.engine.run_stats().exports_forced > 0, "the leaker never leaked");
}

/// The first stub origin with address space: where the scale tests flood from.
fn stub_origin(topology: &Topology) -> (Asn, Ipv4Prefix) {
    topology
        .ases()
        .find(|i| i.tier == Tier::Stub && !i.prefixes.is_empty())
        .map(|i| (i.asn, i.prefixes[0]))
        .expect("topology has a stub origin with a prefix")
}

/// One announce + withdraw flood of `origin`'s `prefix`; the elems of both.
fn flood(sim: &mut BgpSimulator<'_>, origin: Asn, prefix: Ipv4Prefix) -> Vec<BgpElem> {
    let announcement = Announcement::simple(origin, prefix, CommunitySet::new());
    sim.try_announce(SimTime::from_unix(1_000), &announcement).expect("announce converges");
    sim.try_withdraw(SimTime::from_unix(2_000), origin, prefix).expect("withdraw converges");
    sim.drain_elems()
}

/// The reference at scale: one full flood of a CAIDA-shaped 15k-AS
/// topology, announce then withdrawal (the engine jumps, the reference
/// propagates). Release only (a debug flood is ~50x slower); the CI
/// `massive-smoke` job runs this file with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with `cargo test --release`")]
fn engines_agree_at_15k_ases() {
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(7, 15_000)).build();
    let collector_config = CollectorConfig { seed: 7, ..Default::default() };
    let (origin, prefix) = stub_origin(&topology);
    let mut pair = Pair::on(&topology, &collector_config, 7, None);
    let announcement = Announcement::simple(origin, prefix, CommunitySet::new());
    let shown = pair.step(SimTime::from_unix(1_000), &Op::Announce(announcement)).1;
    assert!(!shown.is_empty(), "flood produced no collector elements");
    let withdrawn = pair.step(SimTime::from_unix(2_000), &Op::Withdraw(origin, prefix)).1;
    assert_eq!(withdrawn.len(), shown.len());
}

/// The property that pins ingest-then-advertise-once: a single-prefix
/// flood costs at most two work items per directed adjacency entry —
/// each AS advertises to each neighbor about once per sweep, not once
/// per input. An engine that re-advertises after every input breaks
/// this with one rank group alone (a provider re-floods its customer
/// cone each time its best route improves during the down sweep). The
/// withdrawal removes the prefix's only origin, so it jumps at no cost
/// and the bounds hold the announce.
#[test]
fn flood_work_is_bounded_by_adjacency() {
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(42, 7_000)).build();
    let adjacency: u64 = topology.ases().map(|i| topology.neighbors(i.asn).len() as u64).sum();
    let collector_config = CollectorConfig { seed: 42, ..Default::default() };
    let mut sim = BgpSimulator::new(&topology, deploy(&topology, &collector_config), 42);
    let (origin, prefix) = stub_origin(&topology);
    assert!(!flood(&mut sim, origin, prefix).is_empty(), "flood produced no collector elements");
    let work = sim.run_stats().work_items;
    assert!(work >= adjacency / 4, "flood of {work} items never covered the graph ({adjacency})");
    assert!(
        work <= 2 * adjacency,
        "flood processed {work} work items for {adjacency} adjacency entries"
    );
}

/// Order-sensitive FNV-1a digest over each item's `Debug` rendering
/// (the same digest as `adversarial.rs`' golden pins).
fn debug_digest<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for byte in format!("{item:?}").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// Golden pin of the simulator's state store and emission order,
/// recorded before the per-AS state moved from ASN-keyed maps to one
/// index-addressed node table. The FIFO reference emits in the same
/// order by construction and the solver comparisons sort the elems, so
/// this pin is what holds the order itself. An 8-origin announce +
/// withdraw rotation shaped like the `sim_flood` benchmark's on its
/// world (`massive_scaled(42, 7000)`): even slots announce an untagged
/// /24 of a stub's space, odd slots a /32 inside it tagged with a direct
/// provider's trigger. One line per origin: elems of the cycle, their
/// digest, the announce outcome, who blackholes after the announce, and
/// the cycle's work items. The work items alone were re-recorded when a
/// withdrawal of a prefix's last origin stopped propagating (it now
/// costs none). The four /24 slots' digests and work items and two /32
/// slots' work items were re-recorded when a neighbor listed under two
/// relationships got the export verdict of the first listed instead of
/// the last (elem counts, outcomes and blackholing ASes unchanged).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with `cargo test --release`")]
fn simulator_golden_pin() {
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(42, 7_000)).build();
    let collector_config = CollectorConfig { seed: 42, ..Default::default() };
    let mut sim = BgpSimulator::new(&topology, deploy(&topology, &collector_config), 42);
    let origins: Vec<_> = topology
        .ases()
        .filter(|i| i.tier == Tier::Stub && !i.prefixes.is_empty())
        .filter_map(|i| {
            let provider = capable_providers(&topology, i.asn).into_iter().next()?;
            Some((i.asn, i.prefixes[0], *provider.communities.first()?))
        })
        .collect();
    let mut lines = Vec::new();
    for slot in 0..8 {
        let (origin, space, trigger) = origins[slot * origins.len() / 8];
        let announcement = match slot % 2 {
            0 => Announcement::simple(
                origin,
                Ipv4Prefix::new(
                    space.nth_addr(0).expect("a network address"),
                    24.max(space.length()),
                )
                .expect("a /24 inside the allocation"),
                CommunitySet::new(),
            ),
            _ => Announcement::simple(
                origin,
                Ipv4Prefix::host(space.nth_addr(1).expect("a host address")),
                CommunitySet::from_classic(vec![trigger]),
            ),
        };
        let prefix = announcement.prefix;
        let work_before = sim.run_stats().work_items;
        let outcome =
            sim.try_announce(SimTime::from_unix(1_000), &announcement).expect("converges");
        let blackholing = sim.blackholing_ases_for(&prefix);
        sim.try_withdraw(SimTime::from_unix(2_000), origin, prefix).expect("converges");
        let elems = sim.drain_elems();
        lines.push(format!(
            "{prefix} elems={} digest={:016x} outcome={outcome:?} blackholing={blackholing:?} work={}",
            elems.len(),
            debug_digest(&elems),
            sim.run_stats().work_items - work_before
        ));
    }
    let expected = [
        "18.157.0.0/24 elems=1044 digest=0a43d35802973b53 outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14194",
        "19.167.96.1/32 elems=114 digest=3b65d4548126c49d outcome=AnnounceOutcome { accepted_by: [Asn(340)], rejected_by: [] } blackholing=[Asn(340)] work=3332",
        "20.176.128.0/24 elems=1050 digest=f73f4f020935c8b2 outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14443",
        "21.107.0.1/32 elems=122 digest=bfd8638b97ade7dd outcome=AnnounceOutcome { accepted_by: [Asn(353)], rejected_by: [] } blackholing=[Asn(353)] work=3784",
        "21.192.0.0/24 elems=1048 digest=29ef0ae98afac0bd outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14212",
        "22.17.56.1/32 elems=50 digest=e0d44ae86cb6b77e outcome=AnnounceOutcome { accepted_by: [Asn(340)], rejected_by: [] } blackholing=[Asn(340)] work=1186",
        "22.92.64.0/24 elems=1054 digest=7d5d313b689887da outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14342",
        "24.112.0.1/32 elems=120 digest=d6b67205cd4dde85 outcome=AnnounceOutcome { accepted_by: [Asn(340)], rejected_by: [] } blackholing=[Asn(340)] work=3736",
    ];
    for (slot, (line, expected)) in lines.iter().zip(expected).enumerate() {
        assert_eq!(line, expected, "slot {slot}");
    }
}

/// The rank order the engine's schedule relies on: a provider always
/// ranks strictly above each of its customers (customer-cone depth),
/// and every AS is ranked.
#[test]
fn provider_ranks_exceed_customer_ranks() {
    for config in [TopologyConfig::tiny(55), StudyScale::Small.topology_config(42)] {
        let topology = TopologyBuilder::new(config).build();
        let ranks = topology.propagation_ranks();
        let mut checked = 0usize;
        let mut seen = BTreeSet::new();
        for info in topology.ases() {
            let mine = ranks.rank_of(info.asn).expect("every AS is ranked");
            seen.insert(info.asn);
            for &(neighbor, rel) in topology.neighbors(info.asn) {
                if rel == Relationship::Customer {
                    let theirs = ranks.rank_of(neighbor).expect("every AS is ranked");
                    assert!(
                        mine > theirs,
                        "provider {} rank {mine} <= customer {neighbor} rank {theirs}",
                        info.asn
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "topology has no provider/customer pairs");
        assert_eq!(seen.len(), ranks.len(), "rank table and topology disagree on AS count");
    }
}
