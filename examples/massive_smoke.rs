//! Bounded-time smoke test of the `Massive` scale path: build the
//! CAIDA-shaped ~75k-AS topology and flood it from one stub origin —
//! its allocation, which reaches the whole graph, then a blackhole
//! request for a host inside it (tagged with a provider's trigger
//! community), each announced and withdrawn. The announce and the
//! withdrawal are reported apart, with the work items and wall time of
//! each: the withdrawal removes the prefix's only origin, so it costs
//! no work items, and it must withdraw everything: as many elems as the
//! announce drained, every one a withdrawal. CI runs this under a hard
//! timeout so the scale path cannot silently rot; `MASSIVE_AS_COUNT`
//! shrinks it for quick local runs.

use std::time::Instant;

use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_routing::{deploy, Announcement, BgpSimulator, CollectorConfig, ElemType};
use bh_topology::{Tier, TopologyBuilder, TopologyConfig};
use bh_workloads::capable_providers;

fn main() {
    let as_count: usize =
        std::env::var("MASSIVE_AS_COUNT").ok().and_then(|v| v.parse().ok()).unwrap_or(75_000);
    let t0 = Instant::now();
    let topology = TopologyBuilder::new(TopologyConfig::massive_scaled(7, as_count)).build();
    println!(
        "topology: {} ASes, {} IXPs in {:?}",
        topology.as_count(),
        topology.ixps().len(),
        t0.elapsed()
    );
    let edges: usize = topology.ases().map(|i| topology.neighbors(i.asn).len()).sum();
    println!("adjacency entries: {edges}");

    let (origin, space, host, trigger) = topology
        .ases()
        .filter(|i| i.tier == Tier::Stub && !i.prefixes.is_empty())
        .find_map(|i| {
            let provider = capable_providers(&topology, i.asn).into_iter().next()?;
            let host = Ipv4Prefix::host(i.prefixes[0].nth_addr(1)?);
            Some((i.asn, i.prefixes[0], host, *provider.communities.first()?))
        })
        .expect("massive topology has a stub origin with a blackholing provider");
    let collector_config = CollectorConfig { seed: 7, ..Default::default() };
    let t1 = Instant::now();
    let mut sim = BgpSimulator::new(&topology, deploy(&topology, &collector_config), 7);
    println!("simulator (sessions, propagation ranks) in {:?}", t1.elapsed());

    let floods = [(space, CommunitySet::new()), (host, CommunitySet::from_classic(vec![trigger]))];
    for (prefix, communities) in floods {
        let tagged = !communities.is_empty();
        let (work, t) = (sim.run_stats().work_items, Instant::now());
        let outcome = sim
            .try_announce(
                SimTime::from_unix(1_000),
                &Announcement::simple(origin, prefix, communities),
            )
            .expect("announce converges");
        let announced = sim.drain_elems().len();
        let blackholing = sim.blackholing_ases_for(&prefix).len();
        println!(
            "announce of {prefix} from {origin}: {announced} elems, {blackholing} ASes blackholing, \
             {} work items, {:.1} ms",
            sim.run_stats().work_items - work,
            t.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(tagged, !outcome.accepted_by.is_empty(), "blackhole acceptance of {prefix}");
        assert_eq!(tagged, blackholing > 0, "blackholing of {prefix}");
        assert!(announced > 0, "announce produced no collector elements");

        let (work, t) = (sim.run_stats().work_items, Instant::now());
        sim.try_withdraw(SimTime::from_unix(2_000), origin, prefix).expect("withdraw converges");
        let withdrawn = sim.drain_elems();
        println!(
            "withdrawal of {prefix}: {} elems, {} work items, {:.1} ms",
            withdrawn.len(),
            sim.run_stats().work_items - work,
            t.elapsed().as_secs_f64() * 1e3
        );
        // Each session view the announce set is withdrawn once: fewer
        // elems means a holder kept the route.
        assert_eq!(withdrawn.len(), announced, "the withdrawal of {prefix} missed a session view");
        assert!(
            withdrawn.iter().all(|e| e.elem_type == ElemType::Withdraw),
            "the withdrawal of {prefix} announced something"
        );
        assert!(
            sim.blackholing_ases_for(&prefix).is_empty(),
            "somebody still blackholes {prefix} after the withdraw"
        );
    }
    let stats = sim.run_stats();
    println!(
        "work items: {} (peak steps {} of cap {} in one run)",
        stats.work_items,
        stats.peak_run_steps,
        sim.step_cap()
    );
}
