//! # bh-integration — shared builders and oracles for the cross-crate tests
//!
//! The actual tests live in `tests/`; this small library holds the
//! hand-built Fig. 3 scenario used by several of them and the naive
//! transcriptions the implementation is checked against: the paper's
//! method ([`oracle`]) and BGP's stable state under the Gao-Rexford and
//! blackholing rules ([`gao_rexford`]).

pub mod gao_rexford;
pub mod oracle;

use std::collections::BTreeMap;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::Community;
use bh_topology::{
    AsInfo, BlackholeAuth, BlackholeOffering, DocumentationChannel, Ixp, IxpId, NetworkType,
    Relationship, Tier, Topology,
};

/// The cast of Figure 3, by name.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Cast {
    /// Blackholing user announcing per-provider (targeted).
    pub asc1: Asn,
    /// Blackholing user announcing bundled to everyone.
    pub asc2: Asn,
    /// Blackholing provider P1 (suppresses propagation).
    pub p1: Asn,
    /// Blackholing provider P2 (suppresses propagation).
    pub p2: Asn,
    /// A peer of ASC2 that offers no blackholing but has a collector feed.
    pub as_peer: Asn,
    /// The IXP's route server.
    pub route_server: Asn,
}

/// Build the Figure 3 topology: two users, two providers, one IXP, one
/// innocent peer. Both providers honor NO_EXPORT semantics (they never
/// propagate accepted blackhole routes), so only bundling and the IXP
/// route server make the activity visible — exactly the figure's point.
pub fn fig3_topology() -> (Topology, Fig3Cast) {
    let cast = Fig3Cast {
        asc1: Asn::new(61_101),
        asc2: Asn::new(61_102),
        p1: Asn::new(61_201),
        p2: Asn::new(61_202),
        as_peer: Asn::new(61_301),
        route_server: Asn::new(61_400),
    };
    let mk = |asn: Asn, ty: NetworkType, tier: Tier, prefixes: Vec<&str>, offering| AsInfo {
        asn,
        tier,
        network_type: ty,
        country: "DE",
        prefixes: prefixes.iter().map(|p| p.parse().unwrap()).collect(),
        blackhole_offering: offering,
        tag_communities: vec![],
        tag_classes: vec![],
        tag_large_communities: vec![],
        in_peeringdb: true,
    };
    let provider_offering = |asn: Asn| BlackholeOffering {
        communities: vec![Community::from_parts((asn.value() & 0x7FFF) as u16, 666)],
        large_community: None,
        min_accepted_length: 25,
        documentation: DocumentationChannel::Irr,
        auth: BlackholeAuth::OriginOrCone,
        blackhole_ip: None,
        strips_community: false,
        honors_no_export: true, // never propagates: the invisible case
    };
    let ixp_offering = BlackholeOffering {
        communities: vec![Community::BLACKHOLE],
        large_community: None,
        min_accepted_length: 25,
        documentation: DocumentationChannel::Irr,
        auth: BlackholeAuth::IrrRegistered,
        blackhole_ip: Some("185.99.0.66".parse().unwrap()),
        strips_community: false,
        honors_no_export: false,
    };

    let mut ases = BTreeMap::new();
    ases.insert(
        cast.asc1,
        mk(cast.asc1, NetworkType::Content, Tier::Stub, vec!["80.10.0.0/16"], None),
    );
    ases.insert(
        cast.asc2,
        mk(cast.asc2, NetworkType::Content, Tier::Stub, vec!["80.20.0.0/16"], None),
    );
    ases.insert(
        cast.p1,
        mk(
            cast.p1,
            NetworkType::TransitAccess,
            Tier::Transit,
            vec!["80.30.0.0/16"],
            Some(provider_offering(cast.p1)),
        ),
    );
    ases.insert(
        cast.p2,
        mk(
            cast.p2,
            NetworkType::TransitAccess,
            Tier::Transit,
            vec!["80.40.0.0/16"],
            Some(provider_offering(cast.p2)),
        ),
    );
    ases.insert(
        cast.as_peer,
        mk(cast.as_peer, NetworkType::TransitAccess, Tier::Transit, vec!["80.50.0.0/16"], None),
    );
    ases.insert(
        cast.route_server,
        mk(cast.route_server, NetworkType::Ixp, Tier::Stub, vec![], Some(ixp_offering)),
    );

    let edges = vec![
        (cast.p1, cast.asc1, Relationship::Customer),
        (cast.p1, cast.asc2, Relationship::Customer),
        (cast.p2, cast.asc2, Relationship::Customer),
        (cast.asc2, cast.as_peer, Relationship::Peer),
        (cast.asc1, cast.route_server, Relationship::RouteServer),
        (cast.as_peer, cast.route_server, Relationship::RouteServer),
    ];
    let ixp = Ixp {
        id: IxpId(0),
        name: "FIG3-IX".into(),
        route_server_asn: cast.route_server,
        route_server_in_path: true,
        peering_lan: "185.99.0.0/24".parse().unwrap(),
        members: vec![cast.asc1, cast.as_peer],
        country: "DE",
    };
    (Topology::assemble(ases, edges, vec![ixp]), cast)
}

/// The trigger community of a Fig. 3 provider.
pub fn trigger_of(topology: &Topology, asn: Asn) -> Community {
    topology
        .as_info(asn)
        .and_then(|i| i.blackhole_offering.as_ref())
        .map(|o| o.primary_community())
        .expect("provider has an offering")
}
