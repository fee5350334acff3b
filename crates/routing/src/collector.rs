//! Collector platforms: RIS, Route Views, PCH, and the CDN.
//!
//! §3/§5 describe each platform's bias, which this module reproduces:
//!
//! * **RIS / Route Views** peer with the transit core ("biased to what is
//!   announced by large transit providers"), a mix of full-table and
//!   customer-only feeds.
//! * **PCH** places collectors *at IXPs*, peering with the route servers —
//!   direct visibility into IXP blackholing (and the platform with the
//!   highest direct-feed fraction in Table 3).
//! * **CDN** receives feeds from ~1,300 networks of every type, including
//!   customer-specific/internal announcements, because its equipment sits
//!   *inside* many ISPs — so its sessions see routes that are never
//!   exported externally (e.g. NO_EXPORT blackhole routes).

use std::collections::BTreeMap;
use std::net::IpAddr;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_topology::{IxpId, NetworkType, Tier, Topology};

use crate::elem::DataSource;

/// What a collector session is allowed to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// The peer's full table (everything its best path selection holds,
    /// subject to ordinary export: NO_EXPORT routes stay hidden).
    Full,
    /// Only the peer's best route, when learned from a customer (and
    /// not NO_EXPORT). Its own announcements are not among them: an
    /// origin holds no route for its own announcement, so no `Full`,
    /// `CustomerOnly` or `Internal` session at an origin shows it.
    CustomerOnly,
    /// An internal session: sees everything in the peer's RIB, including
    /// NO_EXPORT and blackhole-accepted routes (the CDN's unique view).
    Internal,
    /// A session with an IXP route server: sees every route the route
    /// server redistributes, attributed to the announcing member.
    RouteServerView(IxpId),
}

/// One collector peering session.
#[derive(Debug, Clone)]
pub struct CollectorSession {
    /// Platform.
    pub dataset: DataSource,
    /// Collector id within the platform.
    pub collector: u16,
    /// The AS whose routes this session observes.
    pub peer_asn: Asn,
    /// Session peer IP (on IXP LANs: the peer's LAN address).
    pub peer_ip: IpAddr,
    /// Visibility.
    pub feed: FeedKind,
}

/// The full collector deployment: sessions indexed by the observed AS.
#[derive(Debug, Clone, Default)]
pub struct CollectorDeployment {
    by_asn: BTreeMap<Asn, Vec<CollectorSession>>,
    session_count: usize,
}

impl CollectorDeployment {
    /// Sessions observing a given AS.
    pub fn sessions_at(&self, asn: Asn) -> &[CollectorSession] {
        self.by_asn.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All sessions.
    pub fn sessions(&self) -> impl Iterator<Item = &CollectorSession> {
        self.by_asn.values().flatten()
    }

    /// Total session count.
    pub fn session_count(&self) -> usize {
        self.session_count
    }

    /// ASes with at least one session of the given platform.
    pub fn peers_of(&self, dataset: DataSource) -> Vec<Asn> {
        self.by_asn
            .iter()
            .filter(|(_, sessions)| sessions.iter().any(|s| s.dataset == dataset))
            .map(|(asn, _)| *asn)
            .collect()
    }

    /// Add one session. `deploy` is the usual constructor; this is public
    /// so scenarios and tests can assemble bespoke deployments.
    pub fn add_session(&mut self, session: CollectorSession) {
        self.by_asn.entry(session.peer_asn).or_default().push(session);
        self.session_count += 1;
    }

    /// Every `(dataset, collector)` pair with at least one session — the
    /// archive set a fleet ingestion run covers, including collectors
    /// that happened to observe nothing (their archives are just empty).
    pub fn collector_ids(&self) -> std::collections::BTreeSet<(DataSource, u16)> {
        self.sessions().map(|s| (s.dataset, s.collector)).collect()
    }
}

/// Deployment configuration (counts are clamped to the topology size).
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// RNG seed for peer sampling.
    pub seed: u64,
    /// RIS peer count.
    pub ris_peers: usize,
    /// Route Views peer count.
    pub rv_peers: usize,
    /// Fraction of IXPs where PCH operates a route collector.
    pub pch_ixp_coverage: f64,
    /// CDN feed count (networks, sampled across all types).
    pub cdn_peers: usize,
}

/// Fraction of RIS/RV peers sending full tables (the rest send customer
/// routes only), at every scale.
const FULL_TABLE_FRACTION: f64 = 0.5;

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            seed: 0x0b5e_77e1,
            ris_peers: 80,
            rv_peers: 60,
            pch_ixp_coverage: 0.6,
            cdn_peers: 450,
        }
    }
}

impl CollectorConfig {
    /// Scaled-down deployment for tests.
    pub fn tiny(seed: u64) -> Self {
        CollectorConfig { seed, ris_peers: 6, rv_peers: 5, pch_ixp_coverage: 0.75, cdn_peers: 20 }
    }
}

/// Build a deployment over a topology.
pub fn deploy(topology: &Topology, config: &CollectorConfig) -> CollectorDeployment {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut deployment = CollectorDeployment::default();

    // Core-biased pool for RIS/RV: tier-1 + transit ASes.
    let core: Vec<Asn> = topology
        .ases()
        .filter(|i| matches!(i.tier, Tier::Tier1 | Tier::Transit))
        .map(|i| i.asn)
        .collect();

    let place_core_platform = |dataset: DataSource,
                               count: usize,
                               rng: &mut StdRng,
                               deployment: &mut CollectorDeployment| {
        let picks: Vec<Asn> = core.choose_multiple(rng, count.min(core.len())).copied().collect();
        for (i, asn) in picks.iter().enumerate() {
            let feed = if rng.gen_bool(FULL_TABLE_FRACTION) {
                FeedKind::Full
            } else {
                FeedKind::CustomerOnly
            };
            deployment.add_session(CollectorSession {
                dataset,
                collector: (i % 8) as u16, // platforms run several collectors
                peer_asn: *asn,
                peer_ip: synth_peer_ip(dataset, i),
                feed,
            });
        }
    };
    place_core_platform(DataSource::Ris, config.ris_peers, &mut rng, &mut deployment);
    place_core_platform(DataSource::RouteViews, config.rv_peers, &mut rng, &mut deployment);

    // PCH: route-server sessions at a fraction of IXPs.
    for (i, ixp) in topology.ixps().iter().enumerate() {
        // A LAN without a second address (a /32) has no room for the
        // collector's session: no PCH view there. The draw comes first
        // either way, so the rest of the placement is unchanged.
        let covered = rng.gen_bool(config.pch_ixp_coverage);
        let Some(peer_ip) = ixp.peering_lan.nth_addr(1).map(IpAddr::V4) else {
            continue;
        };
        if !covered {
            continue;
        }
        deployment.add_session(CollectorSession {
            dataset: DataSource::Pch,
            collector: i as u16,
            peer_asn: ixp.route_server_asn,
            peer_ip,
            feed: FeedKind::RouteServerView(ixp.id),
        });
    }

    // CDN: feeds across every network type, internal view.
    let all: Vec<Asn> =
        topology.ases().filter(|i| i.network_type != NetworkType::Ixp).map(|i| i.asn).collect();
    let picks: Vec<Asn> =
        all.choose_multiple(&mut rng, config.cdn_peers.min(all.len())).copied().collect();
    for (i, asn) in picks.iter().enumerate() {
        deployment.add_session(CollectorSession {
            dataset: DataSource::Cdn,
            collector: (i % 32) as u16,
            peer_asn: *asn,
            peer_ip: synth_peer_ip(DataSource::Cdn, i),
            feed: FeedKind::Internal,
        });
    }

    deployment
}

/// Synthetic collector-session peer addresses (documentation + benchmark
/// ranges so they never collide with allocated topology space).
fn synth_peer_ip(dataset: DataSource, index: usize) -> IpAddr {
    let base: u32 = match dataset {
        DataSource::Ris => u32::from_be_bytes([198, 51, 100, 0]),
        DataSource::RouteViews => u32::from_be_bytes([203, 0, 113, 0]),
        DataSource::Pch => u32::from_be_bytes([192, 0, 2, 0]),
        DataSource::Cdn => u32::from_be_bytes([198, 18, 0, 0]),
    };
    IpAddr::V4(std::net::Ipv4Addr::from(base + (index as u32 % 65_000)))
}

#[cfg(test)]
mod tests {
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    fn deployment() -> (Topology, CollectorDeployment) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(9)).build();
        let d = deploy(&t, &CollectorConfig::tiny(3));
        (t, d)
    }

    #[test]
    fn deployment_is_deterministic() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(9)).build();
        let a = deploy(&t, &CollectorConfig::tiny(3));
        let b = deploy(&t, &CollectorConfig::tiny(3));
        assert_eq!(a.session_count(), b.session_count());
        assert_eq!(a.peers_of(DataSource::Cdn), b.peers_of(DataSource::Cdn));
    }

    #[test]
    fn ris_rv_peer_with_core() {
        let (t, d) = deployment();
        for dataset in [DataSource::Ris, DataSource::RouteViews] {
            let peers = d.peers_of(dataset);
            assert!(!peers.is_empty());
            for asn in peers {
                let tier = t.as_info(asn).unwrap().tier;
                assert!(matches!(tier, Tier::Tier1 | Tier::Transit), "{asn} is not core");
            }
        }
    }

    #[test]
    fn pch_sits_on_route_servers() {
        let (t, d) = deployment();
        let peers = d.peers_of(DataSource::Pch);
        assert!(!peers.is_empty());
        for asn in peers {
            assert!(t.ixp_by_route_server(asn).is_some(), "{asn} is not a route server");
        }
        // Peer IPs are inside the respective LANs.
        for s in d.sessions().filter(|s| s.dataset == DataSource::Pch) {
            let FeedKind::RouteServerView(id) = s.feed else {
                panic!("PCH session must be a route-server view")
            };
            let ixp = t.ixp(id).unwrap();
            match s.peer_ip {
                IpAddr::V4(v4) => assert!(ixp.peering_lan.contains_addr(v4)),
                IpAddr::V6(_) => panic!("IXP LAN sessions are IPv4"),
            }
        }
    }

    #[test]
    fn cdn_has_internal_feeds_across_types() {
        let (t, d) = deployment();
        let peers = d.peers_of(DataSource::Cdn);
        assert!(peers.len() >= 10);
        for s in d.sessions().filter(|s| s.dataset == DataSource::Cdn) {
            assert_eq!(s.feed, FeedKind::Internal);
        }
        // At least one non-transit network feeds the CDN.
        let has_edge = peers.iter().any(|asn| t.as_info(*asn).unwrap().tier == Tier::Stub);
        assert!(has_edge);
    }

    #[test]
    fn collector_ids_cover_every_session() {
        let (_, d) = deployment();
        let ids = d.collector_ids();
        assert!(!ids.is_empty());
        for s in d.sessions() {
            assert!(ids.contains(&(s.dataset, s.collector)));
        }
        // Several platforms run collectors in the tiny deployment.
        let datasets: std::collections::BTreeSet<DataSource> =
            ids.iter().map(|(d, _)| *d).collect();
        assert!(datasets.len() >= 2);
    }

    #[test]
    fn sessions_at_lookup_matches_sessions() {
        let (_, d) = deployment();
        let total: usize = d
            .sessions()
            .map(|s| s.peer_asn)
            .collect::<std::collections::BTreeSet<_>>()
            .iter()
            .map(|asn| d.sessions_at(*asn).len())
            .sum();
        assert_eq!(total, d.session_count());
    }
}
