//! The §4.2 implementation against the paper's method: `InferenceSession`
//! (interned, memoized, plan-compiled, census deferred) must infer
//! exactly the events, counters, census and per-dataset visibility of the
//! naive transcription in `bh_integration::oracle` — on random elem
//! streams (with a random negative-control set), on every workload of the
//! adversarial catalog (also under the naive dictionary with the
//! classifier's controls) and on the Small visibility study, under both
//! ablation toggles.
//!
//! Mutation-checked once: flipping `unambiguous && bundling` to
//! `bundling` in `detect_planned` fails the random streams (the generated
//! worlds never bundle an ambiguous community off-path); looking the
//! implicit withdrawal up under the real peer key again — the per-peer
//! ablation bug — fails all three.

use std::collections::BTreeSet;
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use bh_bench::{Study, StudyScale};
use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::time::SimTime;
use bh_core::{EngineConfig, ReferenceData, SessionBuilder};
use bh_integration::oracle::Oracle;
use bh_irr::{BlackholeDictionary, CommunityClassifier, CommunityPrefixCensus, NegativeControls};
use bh_routing::{deploy, BgpElem, CollectorConfig, DataSource, ElemType, SliceSource};
use bh_topology::{TopologyBuilder, TopologyConfig};
use bh_workloads::AdversarialConfig;

fn assert_session_matches_oracle(
    dict: &Arc<BlackholeDictionary>,
    refdata: &Arc<ReferenceData>,
    config: EngineConfig,
    controls: Option<&Arc<NegativeControls>>,
    elems: &[BgpElem],
) {
    let mut builder = SessionBuilder::new(dict.clone(), refdata.clone())
        .bundling_detection(config.bundling_detection)
        .per_peer_state(config.per_peer_state);
    if let Some(controls) = controls {
        builder = builder.negative_controls(controls.clone());
    }
    let mut session = builder.build();
    session.ingest(&mut SliceSource::new(elems));
    let result = session.finish();
    let want = Oracle { dict, refdata, config, controls: controls.map(Arc::as_ref) }.infer(elems);
    assert_eq!(result.stats, want.stats, "{config:?}");
    assert_eq!(result.events.len(), want.events.len(), "{config:?}");
    for (got, expected) in result.events.iter().zip(&want.events) {
        assert_eq!(got, expected, "{config:?}");
    }
    assert_eq!(result.census, want.census, "census, {config:?}");
    assert_eq!(result.per_dataset, want.per_dataset, "visibility, {config:?}");
}

const CONFIGS: [EngineConfig; 3] = [
    EngineConfig { bundling_detection: true, per_peer_state: true },
    EngineConfig { bundling_detection: false, per_peer_state: true },
    EngineConfig { bundling_detection: true, per_peer_state: false },
];

/// The world of the random streams: a generated topology's reference
/// data (for its IXPs) under a hand-built dictionary with one
/// unambiguous provider, one community shared by two providers, and one
/// IXP blackholing with RFC 7999.
struct World {
    dict: Arc<BlackholeDictionary>,
    refdata: Arc<ReferenceData>,
    /// ASNs paths are drawn from: the three providers, the route server,
    /// an IXP member and bystanders.
    asns: Vec<Asn>,
    /// Peer addresses: an ordinary one and one on the IXP's peering LAN.
    peer_ips: [IpAddr; 2],
    communities: [Community; 4],
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let topology = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let deployment = deploy(&topology, &CollectorConfig::tiny(4));
        let ixp = &topology.ixps()[0];
        let member = ixp.members[0];
        let (own, shared) = (Community::from_parts(777, 666), Community::from_parts(0, 666));
        let mut dict = BlackholeDictionary::default();
        dict.insert_validated(Asn::new(64_777), own);
        dict.insert_validated(Asn::new(501), shared);
        dict.insert_validated(Asn::new(502), shared);
        dict.insert_validated(ixp.route_server_asn, Community::BLACKHOLE);
        let asns =
            [64_777, 501, 502, ixp.route_server_asn.value(), member.value(), 100, 200, 64_999];
        World {
            dict: Arc::new(dict),
            refdata: Arc::new(ReferenceData::build(&topology, &deployment)),
            asns: asns.into_iter().map(Asn::new).collect(),
            peer_ips: [
                "198.51.100.7".parse().unwrap(),
                IpAddr::V4(ixp.member_lan_ip(member).expect("member has a LAN address")),
            ],
            communities: [own, shared, Community::BLACKHOLE, Community::from_parts(555, 80)],
        }
    })
}

/// One elem from small draws: `(prefix, peer, kind, path, tags)`; one
/// elem in four is a withdrawal.
fn elem(time: usize, (prefix, peer, kind, path, tags): (u8, u8, u8, Vec<u8>, u8)) -> BgpElem {
    let w = world();
    let announce = kind != 0;
    // Three routable prefixes and a bogon.
    let prefix = ["9.9.9.9/32", "8.8.8.0/24", "7.7.7.7/32", "10.0.0.1/32"][prefix as usize % 4];
    let tags = w.communities.iter().enumerate().filter(|(k, _)| tags >> k & 1 == 1);
    BgpElem {
        time: SimTime::from_unix(1_000 + 10 * time as u64),
        dataset: if peer & 1 == 0 { DataSource::Ris } else { DataSource::Pch },
        collector: u16::from(peer >> 1 & 1),
        peer_asn: w.asns[4 + usize::from(peer >> 2 & 1)],
        peer_ip: w.peer_ips[usize::from(peer >> 3 & 1)],
        elem_type: if announce { ElemType::Announce } else { ElemType::Withdraw },
        prefix: prefix.parse().unwrap(),
        as_path: if announce {
            AsPath::from_sequence(
                path.iter().map(|&k| w.asns[k as usize % w.asns.len()]).collect::<Vec<_>>(),
            )
        } else {
            AsPath::empty()
        },
        communities: if announce {
            CommunitySet::from_classic(tags.map(|(_, c)| *c).collect())
        } else {
            CommunitySet::new()
        },
        next_hop: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn session_matches_oracle_on_random_streams(
        draws in prop::collection::vec(
            (0u8..4, 0u8..16, 0u8..4, prop::collection::vec(0u8..8, 0..6), 0u8..16),
            1..120,
        ),
        control_mask in 0u8..16,
    ) {
        let w = world();
        let elems: Vec<BgpElem> =
            draws.into_iter().enumerate().map(|(time, draw)| elem(time, draw)).collect();
        // Any subset of the communities may be classified a control; the
        // empty draw installs no control set at all.
        let controls = (control_mask != 0).then(|| {
            let set: BTreeSet<Community> = w
                .communities
                .iter()
                .enumerate()
                .filter(|(k, _)| control_mask >> k & 1 == 1)
                .map(|(_, c)| *c)
                .collect();
            Arc::new(NegativeControls::from_set(set))
        });
        for config in CONFIGS {
            assert_session_matches_oracle(&w.dict, &w.refdata, config, controls.as_ref(), &elems);
        }
    }
}

#[test]
fn session_matches_oracle_on_the_adversarial_catalog() {
    let study = Study::build(StudyScale::Tiny, 1234);
    let refdata = study.refdata();
    let topology = &study.topology;
    let naive = study.naive_dict();
    let controls =
        Arc::new(CommunityClassifier.negative_controls(&study.dict, &CommunityPrefixCensus::new()));
    for workload in [
        AdversarialConfig::baseline(41, 3, 4.0),
        AdversarialConfig::stolen_tag_hijack(46, 3, 4.0),
        AdversarialConfig::subprefix_hijack(42, 3, 4.0),
        AdversarialConfig::rov_sweep(topology, 45, 3, 4.0, 0.5),
        AdversarialConfig::prepend_reroute(44, 3, 4.0),
        AdversarialConfig::route_leak(topology, 43, 3, 4.0),
    ] {
        let output = bh_workloads::run_adversarial(topology, study.deployment(), &workload);
        assert!(!output.elems.is_empty(), "{}", workload.name);
        for config in CONFIGS {
            assert_session_matches_oracle(&study.dict, &refdata, config, None, &output.elems);
        }
        // The naive dictionary lists documented location and
        // informational tags as triggers; the classifier's controls take
        // them back out.
        let default = EngineConfig::default();
        assert_session_matches_oracle(&naive, &refdata, default, Some(&controls), &output.elems);
    }
}

#[test]
fn session_matches_oracle_on_the_small_visibility_run() {
    let study = Study::build(StudyScale::Small, 42);
    let run = study.visibility_run(4, 6.0);
    let result = study.infer(&run.refdata, &run.output.elems);
    assert!(!result.events.is_empty(), "degenerate run: nothing inferred");
    for config in CONFIGS {
        assert_session_matches_oracle(&study.dict, &run.refdata, config, None, &run.output.elems);
    }
}
