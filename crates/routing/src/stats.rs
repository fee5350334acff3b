//! Dataset statistics: the combinatorial reproduction of Table 1.
//!
//! Table 1 reports, per platform, the number of IP peers, AS peers,
//! *unique* AS peers, prefixes, and *unique* prefixes. Rather than
//! simulating the announcement of every base prefix through the full
//! graph (memory-prohibitive and analytically unnecessary), the visible
//! prefix set of each session is derived from the feed semantics:
//!
//! * `Full` / `Internal` — every originated prefix (plus, for `Internal`,
//!   customer-specific state, which is why the CDN's prefix counts dwarf
//!   the public collectors' in the paper);
//! * `CustomerOnly` — prefixes originated inside the peer's customer cone;
//! * `RouteServerView` — prefixes originated by the IXP's members.

use std::collections::{BTreeMap, BTreeSet};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_topology::Topology;

use crate::collector::{CollectorDeployment, FeedKind};
use crate::elem::DataSource;

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Platform.
    pub source: DataSource,
    /// Number of peering sessions ("#IP peers").
    pub ip_peers: usize,
    /// Distinct peer ASNs ("#AS peers").
    pub as_peers: usize,
    /// Peer ASNs seen by no other platform ("#Unique AS peers").
    pub unique_as_peers: usize,
    /// Prefixes visible across the platform's sessions ("#Prefixes" —
    /// the paper sums per-collector tables; we count the union per
    /// platform, the comparable shape).
    pub prefixes: usize,
    /// Prefixes visible in no other platform ("#Unique prefixes").
    pub unique_prefixes: usize,
}

/// Compute per-platform statistics plus the combined total row.
pub fn table1(topology: &Topology, deployment: &CollectorDeployment) -> Vec<DatasetStats> {
    // Pre-compute per-AS originated prefix sets and customer cones lazily.
    let mut visible: BTreeMap<DataSource, BTreeSet<Ipv4Prefix>> = BTreeMap::new();
    let mut peers: BTreeMap<DataSource, BTreeSet<Asn>> = BTreeMap::new();
    let mut sessions: BTreeMap<DataSource, usize> = BTreeMap::new();

    for session in deployment.sessions() {
        *sessions.entry(session.dataset).or_default() += 1;
        peers.entry(session.dataset).or_default().insert(session.peer_asn);
        let set = visible.entry(session.dataset).or_default();
        match session.feed {
            FeedKind::Full | FeedKind::Internal => {
                for info in topology.ases() {
                    set.extend(info.prefixes.iter().copied());
                }
            }
            FeedKind::CustomerOnly => {
                for asn in topology.customer_cone(session.peer_asn) {
                    if let Some(info) = topology.as_info(asn) {
                        set.extend(info.prefixes.iter().copied());
                    }
                }
            }
            FeedKind::RouteServerView(ixp_id) => {
                if let Some(ixp) = topology.ixp(ixp_id) {
                    for &member in &ixp.members {
                        if let Some(info) = topology.as_info(member) {
                            set.extend(info.prefixes.iter().copied());
                        }
                    }
                }
            }
        }
    }

    let mut rows = Vec::new();
    for source in DataSource::ALL {
        let my_peers = peers.get(&source).cloned().unwrap_or_default();
        let my_prefixes = visible.get(&source).cloned().unwrap_or_default();
        let other_peers: BTreeSet<Asn> = peers
            .iter()
            .filter(|(s, _)| **s != source)
            .flat_map(|(_, set)| set.iter().copied())
            .collect();
        let other_prefixes: BTreeSet<Ipv4Prefix> = visible
            .iter()
            .filter(|(s, _)| **s != source)
            .flat_map(|(_, set)| set.iter().copied())
            .collect();
        rows.push(DatasetStats {
            source,
            ip_peers: sessions.get(&source).copied().unwrap_or(0),
            as_peers: my_peers.len(),
            unique_as_peers: my_peers.difference(&other_peers).count(),
            prefixes: my_prefixes.len(),
            unique_prefixes: my_prefixes.difference(&other_prefixes).count(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use crate::collector::{deploy, CollectorConfig};

    use super::*;

    fn stats() -> Vec<DatasetStats> {
        let t = TopologyBuilder::new(TopologyConfig::tiny(9)).build();
        let d = deploy(&t, &CollectorConfig::tiny(3));
        table1(&t, &d)
    }

    #[test]
    fn all_four_platforms_reported() {
        let rows = stats();
        assert_eq!(rows.len(), 4);
        let sources: Vec<_> = rows.iter().map(|r| r.source).collect();
        assert_eq!(sources, DataSource::ALL.to_vec());
    }

    #[test]
    fn cdn_sees_the_most_prefixes() {
        // Table 1's headline shape: the CDN's visible prefix count is the
        // largest (internal feeds).
        let rows = stats();
        let cdn = rows.iter().find(|r| r.source == DataSource::Cdn).unwrap();
        for row in &rows {
            assert!(cdn.prefixes >= row.prefixes, "CDN must see ≥ {}", row.source);
        }
        assert!(cdn.ip_peers > 0);
    }

    #[test]
    fn unique_counts_are_bounded() {
        for row in &stats() {
            assert!(row.unique_as_peers <= row.as_peers);
            assert!(row.unique_prefixes <= row.prefixes);
            assert!(row.as_peers <= row.ip_peers);
        }
    }

    #[test]
    fn pch_counts_member_prefixes_only() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(9)).build();
        let d = deploy(&t, &CollectorConfig::tiny(3));
        let rows = table1(&t, &d);
        let pch = rows.iter().find(|r| r.source == DataSource::Pch).unwrap();
        let total: usize = t.ases().map(|i| i.prefixes.len()).sum();
        assert!(pch.prefixes < total, "PCH view is member-scoped");
        assert!(pch.prefixes > 0);
    }
}
