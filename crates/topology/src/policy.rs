//! Per-AS routing-policy configuration: the declarative half of the
//! policy-extension subsystem.
//!
//! The ground-truth topology describes *who* the networks are; this
//! module describes *how they filter*. A [`PolicyTable`] maps ASNs to
//! [`AsPolicy`] knob sets (ROV, only-to-customers, and the deliberately
//! misbehaving route leaker), and carries the [`RoaTable`] that ROV
//! validates against. `bh-routing` evaluates each AS's knobs directly on
//! import and export once the table is installed on a simulator; an
//! empty table installs nothing and the simulator is bit-identical to
//! the pre-extension baseline (property-tested at Small scale).
//!
//! The table is *data*, not behavior: it lives here next to the rest of
//! the ground truth so workloads can describe a deployment ("strict
//! ROAs, ROV at 50% of transit") without depending on the simulator.

use std::collections::BTreeMap;

use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::Asn;

use crate::graph::Topology;
use crate::types::Tier;

/// RPKI origin-validation state of a (prefix, origin) pair against a
/// [`RoaTable`] (RFC 6811 semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RpkiValidity {
    /// A covering ROA authorizes this origin at this prefix length.
    Valid,
    /// Covering ROAs exist but none matches origin + length.
    Invalid,
    /// No ROA covers the prefix.
    NotFound,
}

/// A Route Origin Authorization: `origin` may announce prefixes inside
/// `prefix` up to `max_length`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roa {
    pub prefix: Ipv4Prefix,
    pub origin: Asn,
    pub max_length: u8,
}

/// A flat ROA registry with RFC 6811 validity lookup.
///
/// Lookup is linear over the covering set; tables here are topology-
/// sized (one ROA per allocation), not Internet-sized, and validation
/// runs once per import, so no trie is warranted yet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoaTable {
    roas: Vec<Roa>,
}

impl RoaTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, roa: Roa) {
        self.roas.push(roa);
    }

    pub fn len(&self) -> usize {
        self.roas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.roas.is_empty()
    }

    pub fn roas(&self) -> &[Roa] {
        &self.roas
    }

    /// One ROA per registered allocation with `max_length` equal to the
    /// allocation length — the *strict* issuance style. Under strict
    /// ROAs every more-specific (including the `/32` host routes RTBH
    /// runs on) is RPKI-Invalid at ROV-deploying networks, which is
    /// exactly the blackholing-vs-ROV tension the adversarial workloads
    /// measure.
    pub fn strict_from_topology(topology: &Topology) -> Self {
        let mut table = Self::new();
        for info in topology.ases() {
            for prefix in &info.prefixes {
                table.insert(Roa {
                    prefix: *prefix,
                    origin: info.asn,
                    max_length: prefix.length(),
                });
            }
        }
        table
    }

    /// RFC 6811 validation: `NotFound` when no ROA covers the prefix,
    /// `Valid` when some covering ROA matches both origin and length,
    /// `Invalid` otherwise.
    pub fn validity(&self, prefix: &Ipv4Prefix, origin: Asn) -> RpkiValidity {
        let mut covered = false;
        for roa in &self.roas {
            if !roa.prefix.contains(prefix) {
                continue;
            }
            covered = true;
            if roa.origin == origin && prefix.length() <= roa.max_length {
                return RpkiValidity::Valid;
            }
        }
        if covered {
            RpkiValidity::Invalid
        } else {
            RpkiValidity::NotFound
        }
    }
}

/// The per-AS policy knob set. Every knob defaults to off; an all-off
/// policy compiles to no extensions at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsPolicy {
    /// RFC 6811 route-origin validation: drop RPKI-Invalid imports
    /// (validated against the table-wide [`RoaTable`]).
    pub rov: bool,
    /// RFC 9234-style Only-to-Customers: mark routes learned from
    /// providers/peers and drop marked routes arriving from customers
    /// or peers (a leak already happened upstream).
    pub only_to_customers: bool,
    /// Deliberate misbehavior: export every best route to every
    /// neighbor, ignoring the valley-free `may_export` rule. Used by
    /// the route-leak workloads; never a defense.
    pub leaker: bool,
}

impl AsPolicy {
    /// True when every knob is off — such a policy is not compiled.
    pub fn is_empty(&self) -> bool {
        !self.rov && !self.only_to_customers && !self.leaker
    }
}

/// The deployment-wide policy configuration: per-AS knobs plus the
/// shared ROA registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyTable {
    per_as: BTreeMap<Asn, AsPolicy>,
    roas: RoaTable,
}

impl PolicyTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no AS has any knob on and no ROAs are loaded — the
    /// simulator treats installing such a table as installing nothing.
    pub fn is_empty(&self) -> bool {
        self.roas.is_empty() && self.per_as.values().all(AsPolicy::is_empty)
    }

    pub fn set_roas(&mut self, roas: RoaTable) {
        self.roas = roas;
    }

    pub fn roas(&self) -> &RoaTable {
        &self.roas
    }

    /// Mutable per-AS entry, created all-off on first touch.
    pub fn entry(&mut self, asn: Asn) -> &mut AsPolicy {
        self.per_as.entry(asn).or_default()
    }

    pub fn iter(&self) -> impl Iterator<Item = (Asn, &AsPolicy)> + '_ {
        self.per_as.iter().map(|(a, p)| (*a, p))
    }

    /// Number of ASes with at least one knob on.
    pub fn deployed_count(&self) -> usize {
        self.per_as.values().filter(|p| !p.is_empty()).count()
    }

    /// ASNs eligible for an ROV deployment sweep: every Tier-1 and
    /// mid-tier transit network, sorted by ASN. Stubs don't transit
    /// traffic, so deploying there never filters anyone else's routes.
    pub fn rov_candidates(topology: &Topology) -> Vec<Asn> {
        let mut candidates: Vec<Asn> = topology
            .ases()
            .filter(|info| matches!(info.tier, Tier::Tier1 | Tier::Transit))
            .map(|info| info.asn)
            .collect();
        candidates.sort_unstable();
        candidates
    }

    /// Turn ROV on at the first `ceil(fraction * N)` of
    /// [`rov_candidates`](Self::rov_candidates). Deployments at
    /// growing fractions are *nested by construction* (a prefix of the
    /// same sorted list), which is what makes "detected blackholes are
    /// non-increasing in the deployment fraction" a theorem rather
    /// than a tendency. Returns those first `ceil(fraction * N)`
    /// candidates, whether or not ROV was already on at them.
    pub fn deploy_rov_fraction(&mut self, topology: &Topology, fraction: f64) -> Vec<Asn> {
        let candidates = Self::rov_candidates(topology);
        let n = (fraction.clamp(0.0, 1.0) * candidates.len() as f64).ceil() as usize;
        let deployed: Vec<Asn> = candidates.into_iter().take(n).collect();
        for asn in &deployed {
            self.entry(*asn).rov = true;
        }
        deployed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn roa_validity_follows_rfc6811() {
        let mut table = RoaTable::new();
        table.insert(Roa { prefix: p("10.0.0.0/16"), origin: Asn(65001), max_length: 24 });

        // Uncovered space is NotFound.
        assert_eq!(table.validity(&p("192.0.2.0/24"), Asn(65001)), RpkiValidity::NotFound);
        // Right origin within max_length is Valid.
        assert_eq!(table.validity(&p("10.0.0.0/16"), Asn(65001)), RpkiValidity::Valid);
        assert_eq!(table.validity(&p("10.0.1.0/24"), Asn(65001)), RpkiValidity::Valid);
        // Too specific (the RTBH host route) is Invalid even for the
        // authorized origin.
        assert_eq!(table.validity(&p("10.0.1.1/32"), Asn(65001)), RpkiValidity::Invalid);
        // Wrong origin is Invalid at any length.
        assert_eq!(table.validity(&p("10.0.0.0/16"), Asn(65002)), RpkiValidity::Invalid);
    }

    #[test]
    fn empty_policy_detection() {
        let mut table = PolicyTable::new();
        assert!(table.is_empty());
        // Touching an entry without flipping a knob keeps it empty.
        table.entry(Asn(65001));
        assert!(table.is_empty());
        table.entry(Asn(65001)).rov = true;
        assert!(!table.is_empty());
        assert_eq!(table.deployed_count(), 1);
    }
}
