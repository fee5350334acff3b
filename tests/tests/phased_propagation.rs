//! Engine-equivalence properties: the simulator's rank-phased,
//! ingest-then-advertise-once propagation engine must be
//! *bit-identical* to the FIFO reference
//! (`BgpSimulator::fifo_reference`: one queue, every work item ingested
//! and re-advertised on its own) — same collector elements, same
//! outcomes, same ground truth — on whole scenarios and on random
//! operation sequences, with or without a policy table installed. The
//! reference exists for this file only; nothing else constructs it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use proptest::prelude::*;

use bh_bench::StudyScale;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_routing::{
    deploy, AnnounceOutcome, AnnounceScope, Announcement, BgpElem, BgpSimulator, CollectorConfig,
    CollectorDeployment, PropagationError, RejectReason,
};
use bh_topology::{
    PolicyTable, Relationship, Roa, RoaTable, Tier, Topology, TopologyBuilder, TopologyConfig,
};
use bh_workloads::{capable_providers, run_on, ScenarioConfig, ScenarioOutput};

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

/// Which simulator a run is driven on.
#[derive(Clone, Copy)]
enum Side {
    Engine,
    Reference,
}

fn simulator<'a>(
    side: Side,
    topology: &'a Topology,
    deployment: CollectorDeployment,
    seed: u64,
    policies: Option<&PolicyTable>,
) -> BgpSimulator<'a> {
    let mut sim = match side {
        Side::Engine => BgpSimulator::new(topology, deployment, seed),
        Side::Reference => BgpSimulator::fifo_reference(topology, deployment, seed),
    };
    if let Some(table) = policies {
        sim.install_policies(table);
    }
    sim
}

fn run_scenario(
    side: Side,
    topology: &Topology,
    deployment: CollectorDeployment,
    policies: Option<&PolicyTable>,
    seed: u64,
) -> ScenarioOutput {
    let config = ScenarioConfig::short(seed, 2, 5.0);
    run_on(simulator(side, topology, deployment, config.simulator_seed(), policies), &config)
}

fn tiny_env() -> &'static (Topology, CollectorConfig) {
    static ENV: OnceLock<(Topology, CollectorConfig)> = OnceLock::new();
    ENV.get_or_init(|| {
        (TopologyBuilder::new(TopologyConfig::tiny(55)).build(), CollectorConfig::tiny(6))
    })
}

fn run_tiny(seed: u64, policies: Option<&PolicyTable>, side: Side) -> ScenarioOutput {
    let (topology, collector_config) = tiny_env();
    run_scenario(side, topology, deploy(topology, collector_config), policies, seed)
}

fn assert_identical(a: &ScenarioOutput, b: &ScenarioOutput) {
    assert_eq!(a.elems, b.elems, "collector element streams diverge");
    assert_eq!(a.announcements, b.announcements);
    assert_eq!(a.ground_truth.len(), b.ground_truth.len());
    for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
        assert_eq!(x.prefix, y.prefix);
        assert_eq!(x.phases, y.phases);
    }
}

/// One step of a random operation sequence, drawn as raw numbers and
/// decoded against the topology: `(user, host route?, kind, scope mask)`.
type RawOp = (usize, bool, u8, u8);

enum Op {
    Announce(Announcement),
    Withdraw(Asn, Ipv4Prefix),
}

/// Decode a raw draw. Three users and two overlapping prefixes each (a
/// /24 of the user's space and the first host route inside it) keep the
/// sequence colliding with itself: re-announcements with other
/// communities or another scope, and withdrawals of what is — or is
/// not — currently announced.
fn decode_op(topology: &Topology, raw: RawOp) -> Op {
    decode_op_by(topology, raw.0, raw)
}

/// [`decode_op`] with user `by` as the origin of the drawn user's prefix
/// (`by == user` is the owner's own operation): communities and scope
/// are `by`'s, so a foreign origin tags with its own providers'
/// triggers, as a hijacker would.
fn decode_op_by(topology: &Topology, by: usize, (user, host, kind, mask): RawOp) -> Op {
    let users: Vec<_> = topology
        .ases()
        .filter(|i| i.tier == Tier::Stub && !i.prefixes.is_empty())
        .filter(|i| !capable_providers(topology, i.asn).is_empty())
        .take(3)
        .collect();
    let space = users[user % users.len()].prefixes[0];
    let info = users[by % users.len()];
    let prefix = match host {
        true => Ipv4Prefix::host(space.nth_addr(1).expect("space has a host")),
        false => Ipv4Prefix::new(space.nth_addr(0).expect("space has a network"), 24)
            .expect("a /24 inside the allocation"),
    };
    let triggers: Vec<Community> = capable_providers(topology, info.asn)
        .iter()
        .flat_map(|p| p.communities.first().copied())
        .collect();
    let communities = match kind {
        0 => return Op::Withdraw(info.asn, prefix),
        1 => Vec::new(),
        2 => triggers, // bundled
        3 => triggers[..1].to_vec(),
        _ => triggers.into_iter().chain([Community::NO_EXPORT]).collect(),
    };
    let neighbors = topology.neighbors(info.asn);
    let scope = match mask {
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
    Op::Announce(Announcement {
        scope,
        ..Announcement::simple(info.asn, prefix, CommunitySet::from_classic(communities))
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs four full Tiny scenarios
    })]

    /// Engine and FIFO reference are bit-identical on random Tiny
    /// scenarios, bare and under an ROV deployment.
    #[test]
    fn engines_agree_on_tiny_scenarios(seed in 0u64..500) {
        let engine = run_tiny(seed, None, Side::Engine);
        let reference = run_tiny(seed, None, Side::Reference);
        assert_identical(&reference, &engine);
        prop_assert!(!engine.elems.is_empty(), "scenario produced no elems");

        let rov = rov_table(&tiny_env().0);
        let engine = run_tiny(seed, Some(&rov), Side::Engine);
        let reference = run_tiny(seed, Some(&rov), Side::Reference);
        assert_identical(&reference, &engine);
    }
}

/// An engine and a FIFO reference on the Tiny world under a bare (0), an
/// ROV (1) or an OTC+leaker (2) table.
fn tiny_pair(table: usize) -> [BgpSimulator<'static>; 2] {
    let (topology, collector_config) = tiny_env();
    let policies = match table {
        0 => None,
        1 => Some(rov_table(topology)),
        _ => Some(otc_leaker_table(topology)),
    };
    [Side::Engine, Side::Reference].map(|side| {
        simulator(side, topology, deploy(topology, collector_config), 7, policies.as_ref())
    })
}

/// What a simulator shows after one operation: its result, the elems it
/// drained and who blackholes the prefix.
type Seen = (Result<Option<AnnounceOutcome>, PropagationError>, Vec<BgpElem>, Vec<Asn>);

fn apply(sim: &mut BgpSimulator<'_>, time: SimTime, op: &Op) -> Seen {
    let (outcome, prefix) = match op {
        Op::Announce(a) => (sim.try_announce(time, a).map(Some), a.prefix),
        Op::Withdraw(origin, prefix) => {
            (sim.try_withdraw(time, *origin, *prefix).map(|()| None), *prefix)
        }
    };
    (outcome, sim.drain_elems(), sim.blackholing_ases_for(&prefix))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Engine and FIFO reference agree after *every* operation of a
    /// random sequence on one simulator pair — announce, re-announce
    /// with changed communities or scope, withdraw, over two overlapping
    /// prefixes per user — under a bare, an ROV and an OTC+leaker table:
    /// same drained elems, same `AnnounceOutcome`, same blackholing set.
    #[test]
    fn engines_agree_on_operation_sequences(
        table in 0usize..3,
        ops in proptest::collection::vec((0usize..3, any::<bool>(), 0u8..5, any::<u8>()), 4..16),
    ) {
        let mut pair = tiny_pair(table);
        let mut elems = 0;
        for (step, raw) in ops.into_iter().enumerate() {
            let time = SimTime::from_unix(1_000 + step as u64);
            let op = decode_op(&tiny_env().0, raw);
            let [engine, reference] = pair.each_mut().map(|sim| apply(sim, time, &op));
            elems += engine.1.len();
            prop_assert_eq!((step, engine), (step, reference));
        }
        prop_assert!(elems > 0, "sequence produced no elems");
    }

    /// The withdrawal the engine still propagates: any of the three users
    /// may originate any user's /24 or host route, so a prefix can have
    /// several origins, and withdrawing one that leaves another must
    /// propagate (at least one work item per neighbor it was sent to)
    /// while the last origin's withdrawal jumps (none). Engine and FIFO
    /// reference — which propagates every withdrawal — agree after every
    /// step under a bare, an ROV and an OTC+leaker table.
    #[test]
    fn engines_agree_on_multi_origin_sequences(
        table in 0usize..3,
        ops in proptest::collection::vec(
            (0usize..3, (0usize..3, any::<bool>(), 0u8..5, any::<u8>())),
            16..48,
        ),
    ) {
        let topology = &tiny_env().0;
        let mut pair = tiny_pair(table);
        // The test's own model: prefix -> origin -> sent to any neighbor.
        let mut origins: BTreeMap<Ipv4Prefix, BTreeMap<Asn, bool>> = BTreeMap::new();
        for (step, (by, raw)) in ops.into_iter().enumerate() {
            let time = SimTime::from_unix(1_000 + step as u64);
            let op = decode_op_by(topology, by, raw);
            let work_before = pair[0].run_stats().work_items;
            let [engine, reference] = pair.each_mut().map(|sim| apply(sim, time, &op));
            let work = pair[0].run_stats().work_items - work_before;
            prop_assert_eq!((step, &engine), (step, &reference));
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

/// One Small-scale topology shared across the expensive cases below.
fn small_env() -> &'static (Topology, CollectorConfig) {
    static ENV: OnceLock<(Topology, CollectorConfig)> = OnceLock::new();
    ENV.get_or_init(|| {
        let topology = TopologyBuilder::new(StudyScale::Small.topology_config(42)).build();
        (topology, StudyScale::Small.collector_config(42 ^ 0x3434))
    })
}

fn run_small(policies: Option<&PolicyTable>, side: Side) -> ScenarioOutput {
    let (topology, collector_config) = small_env();
    run_scenario(side, topology, deploy(topology, collector_config), policies, 42)
}

#[test]
fn engines_agree_at_small_scale() {
    let engine = run_small(None, Side::Engine);
    let reference = run_small(None, Side::Reference);
    assert_identical(&reference, &engine);
    assert!(!engine.elems.is_empty());
}

#[test]
fn engines_agree_at_small_scale_with_rov() {
    let (topology, _) = small_env();
    let rov = rov_table(topology);
    assert!(rov.deployed_count() > 0, "ROV table deployed nowhere");
    let engine = run_small(Some(&rov), Side::Engine);
    let reference = run_small(Some(&rov), Side::Reference);
    assert_identical(&reference, &engine);
    // The policy actually bit: ROV rejected imports.
    let rov_rejects = engine.run_stats.import_rejects_for(RejectReason::RovInvalid);
    assert!(rov_rejects > 0, "ROV never rejected anything");
}

#[test]
fn engines_agree_at_small_scale_with_otc_and_leaker() {
    let (topology, _) = small_env();
    let table = otc_leaker_table(topology);
    assert!(table.deployed_count() >= 2, "need OTC deployers and a leaker");
    let engine = run_small(Some(&table), Side::Engine);
    let reference = run_small(Some(&table), Side::Reference);
    assert_identical(&reference, &engine);
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

/// The oracle exercised at scale: one full flood of a CAIDA-shaped
/// 15k-AS topology through the engine and the FIFO reference. Release
/// only (a debug flood is ~50x slower); the CI `massive-smoke` job runs
/// this file with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with `cargo test --release`")]
fn engines_agree_at_15k_ases() {
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(7, 15_000)).build();
    let collector_config = CollectorConfig { seed: 7, ..Default::default() };
    let (origin, prefix) = stub_origin(&topology);
    let [engine, reference] = [Side::Engine, Side::Reference].map(|side| {
        let deployment = deploy(&topology, &collector_config);
        flood(&mut simulator(side, &topology, deployment, 7, None), origin, prefix)
    });
    assert_eq!(engine, reference, "engine and FIFO reference must emit identically");
    assert!(!engine.is_empty(), "flood produced no collector elements");
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

/// Golden pin of the simulator's state store, recorded before the
/// per-AS state moved from ASN-keyed maps to one index-addressed node
/// table: the engine and the FIFO reference share that store, so only
/// values recorded from the old implementation catch a slip in it. An
/// 8-origin announce + withdraw rotation shaped like the `sim_flood`
/// benchmark's on its world (`massive_scaled(42, 7000)`): even slots
/// announce an untagged /24 of a stub's space, odd slots a /32 inside
/// it tagged with a direct provider's trigger. One line per origin:
/// elems of the cycle, their digest, the announce outcome, who
/// blackholes after the announce, and the cycle's work items. The work
/// items alone were re-recorded when a withdrawal of a prefix's last
/// origin stopped propagating (it now costs none); every other field is
/// still the one recorded from the old store.
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
        "18.157.0.0/24 elems=1044 digest=10e6505bd1cb703f outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14072",
        "19.167.96.1/32 elems=114 digest=3b65d4548126c49d outcome=AnnounceOutcome { accepted_by: [Asn(340)], rejected_by: [] } blackholing=[Asn(340)] work=3332",
        "20.176.128.0/24 elems=1050 digest=788b6ed85b85f35c outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14287",
        "21.107.0.1/32 elems=122 digest=bfd8638b97ade7dd outcome=AnnounceOutcome { accepted_by: [Asn(353)], rejected_by: [] } blackholing=[Asn(353)] work=3785",
        "21.192.0.0/24 elems=1048 digest=8cb9ff167130e6dc outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14057",
        "22.17.56.1/32 elems=50 digest=e0d44ae86cb6b77e outcome=AnnounceOutcome { accepted_by: [Asn(340)], rejected_by: [] } blackholing=[Asn(340)] work=1186",
        "22.92.64.0/24 elems=1054 digest=5e1de97cd56022e9 outcome=AnnounceOutcome { accepted_by: [], rejected_by: [] } blackholing=[] work=14338",
        "24.112.0.1/32 elems=120 digest=d6b67205cd4dde85 outcome=AnnounceOutcome { accepted_by: [Asn(340)], rejected_by: [] } blackholing=[Asn(340)] work=3737",
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
