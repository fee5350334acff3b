//! IXP blackholing end to end (Fig. 1b, Fig. 9c, §10): a member triggers
//! RFC 7999 blackholing at the route server, PCH observes it, honoring
//! members drop, non-honoring members leak.
//!
//! ```text
//! cargo run --release -p bh-examples --example ixp_blackholing
//! ```

use bh_bench::{Study, StudyScale};
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_core::ProviderId;
use bh_dataplane::FlowSim;
use bh_examples::section;
use bh_routing::{AnnounceScope, Announcement, BgpSimulator, DataSource};

fn main() {
    let study = Study::build(StudyScale::Small, 19);
    let ixp = study
        .topology
        .ixps()
        .iter()
        .filter(|ixp| {
            study
                .topology
                .as_info(ixp.route_server_asn)
                .is_some_and(|i| i.blackhole_offering.is_some())
        })
        .max_by_key(|ixp| ixp.members.len())
        .expect("blackholing IXP exists")
        .clone();
    let offering = study
        .topology
        .as_info(ixp.route_server_asn)
        .and_then(|i| i.blackhole_offering.clone())
        .expect("offering exists");

    section(&format!("the IXP: {} ({} members)", ixp.name, ixp.members.len()));
    println!("route server: {}", ixp.route_server_asn);
    println!("peering LAN:  {} (published via PeeringDB)", ixp.peering_lan);
    println!(
        "trigger:      {} (RFC 7999: {})",
        offering.primary_community(),
        offering.primary_community() == Community::BLACKHOLE
    );
    println!("blackhole IP: {:?}", offering.blackhole_ip);

    section("a member blackholes a host route");
    let member = *ixp
        .members
        .iter()
        .find(|m| !study.topology.as_info(**m).expect("member exists").prefixes.is_empty())
        .expect("member with prefixes");
    let victim: Ipv4Prefix = Ipv4Prefix::host(
        study.topology.as_info(member).unwrap().prefixes[0].nth_addr(66).expect("host exists"),
    );
    let deployment = study.deployment();
    let mut sim = BgpSimulator::new(&study.topology, deployment.clone(), 19);
    let outcome = sim.announce(
        SimTime::from_ymd(2017, 3, 20),
        &Announcement {
            origin: member,
            prefix: victim,
            communities: CommunitySet::from_classic(vec![offering.primary_community()]),
            scope: AnnounceScope::Neighbors(vec![ixp.route_server_asn]),
            irr_registered: true,
            prepend: 1,
        },
    );
    println!("member {member} announces {victim} to the route server");
    println!("accepted by: {:?}", outcome.accepted_by);
    let honoring = ixp.members.iter().filter(|m| sim.is_blackholed_at(**m, &victim)).count();
    println!("{honoring}/{} members installed the null route", ixp.members.len());

    section("what PCH sees, and what the inference concludes");
    let elems = sim.drain_elems();
    let pch = elems.iter().filter(|e| e.dataset == DataSource::Pch).count();
    println!("{} elems total, {pch} at PCH route-server views", elems.len());
    let refdata = study.refdata();
    let mut session = study.session(&refdata).build();
    session.ingest(&mut bh_routing::SliceSource::new(&elems));
    let result = session.finish();
    for event in &result.events {
        println!(
            "inferred: prefix {} provider {:?} user {:?} datasets {:?}",
            event.prefix,
            event.providers.iter().collect::<Vec<_>>(),
            event.users.iter().collect::<Vec<_>>(),
            event.datasets.iter().collect::<Vec<_>>()
        );
        assert!(event.providers.contains(&ProviderId::Ixp(ixp.id)));
    }

    section("one week of IXP traffic to the blackholed prefix (Fig. 9c)");
    let mut flows = FlowSim::new(&ixp, 0.34, 19);
    let series = flows.week_series(SimTime::from_ymd(2017, 3, 20), 12);
    let dropped: u64 = series.iter().map(|p| p.dropped).sum();
    let forwarded: u64 = series.iter().map(|p| p.forwarded).sum();
    println!(
        "sampled packets over the week: {dropped} dropped at member ingress, \
         {forwarded} still forwarded"
    );
    println!(
        "dropped share {:.1}% (paper: >50%); {:.0}% of members drop (paper: ~1/3)",
        dropped as f64 / (dropped + forwarded).max(1) as f64 * 100.0,
        flows.dropping_member_fraction() * 100.0
    );
    let leak = flows.leak_concentration();
    let top: f64 = leak.iter().take(10).map(|(_, s)| s).sum();
    println!(
        "top-10 leaking members carry {:.0}% of the leak (paper: ~80% from <10 members)",
        top * 100.0
    );
}
