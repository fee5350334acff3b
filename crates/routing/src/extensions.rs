//! Per-AS policy on top of the Gao-Rexford core.
//!
//! [`crate::policy`] is the *invariant* layer: relationship preferences,
//! valley-free exports, and blackhole trigger evaluation, identical at
//! every AS. This module is the *configurable* layer: what one AS's
//! [`AsPolicy`] (from `bh-topology`) adds at the two places a real
//! router's policy config attaches —
//!
//! * **import** ([`PolicyEngine::import`]): the ingress filters, run
//!   *before* the Gao-Rexford import, in a fixed order — ROV (against
//!   the table's [`RoaTable`]), peerlock-lite, path-end validation,
//!   RFC 9234-style only-to-customers. The first one to object rejects
//!   the route and is charged with it in
//!   [`RunStats::extension_rejects`]; an accepted route may leave with
//!   its only-to-customers mark set.
//! * **export** ([`PolicyEngine::export`]): over the valley-free
//!   `may_export` verdict the core already computed — the
//!   only-to-customers mark, community strip/rewrite on the outgoing
//!   copy, and the deliberately misbehaving route leaker, which
//!   overrides a "no".
//!
//! A [`PolicyEngine`] holds the non-empty entries of a declarative
//! [`PolicyTable`]; ASes absent from it pay one hash probe per site, and
//! an empty table compiles to an engine the simulator refuses to
//! install — keeping the policies-off path bit-identical to the
//! pre-policy baseline.
//!
//! Policies apply at regular ASes only. IXP route servers keep their own
//! fixed redistribution semantics (`sim.rs`): they are transparent
//! multipliers, not policy actors, and the paper's PCH visibility
//! depends on that transparency.

use std::collections::BTreeMap;

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::hash::FxHashMap;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::Asn;
use bh_topology::{AsPolicy, PolicyTable, Relationship, RoaTable, RpkiValidity, Tier, Topology};

use crate::policy::RejectReason;

/// Per-`RejectReason` and per-filter accounting for one simulator
/// run. Counters only — recording a rejection never perturbs routing,
/// which the empty-table bit-identity property depends on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Routes actually rejected on import (candidate removed), by
    /// reason. Includes the Gao-Rexford core reasons (`LoopDetected`,
    /// `TooSpecific`) and every policy-filter reason.
    pub import_rejects: BTreeMap<RejectReason, u64>,
    /// Blackhole triggers that matched but did not fire (`AuthFailed`,
    /// `LengthRejected`); the route itself still imported normally.
    pub trigger_rejects: BTreeMap<RejectReason, u64>,
    /// Import rejections by the [`AsPolicy`] filter that raised them
    /// (`"rov"`, `"peerlock-lite"`, `"path-end"`, `"only-to-customers"`).
    pub extension_rejects: BTreeMap<&'static str, u64>,
    /// Advertisements forced past the valley-free rule (leaks).
    pub exports_forced: u64,
    /// Propagation runs that hit the step cap and were abandoned
    /// (`PropagationError::NoConvergence` surfaced to the caller).
    pub convergence_failures: u64,
    /// Announce/withdraw work items processed — the simulator's unit of
    /// work, one per (sender, receiver) delivery.
    pub work_items: u64,
    /// The most work items any single announce or withdraw run spent —
    /// how close the worst run came to the simulator's step cap
    /// (`BgpSimulator::step_cap`).
    pub peak_run_steps: u64,
}

impl RunStats {
    pub fn record_import_reject(&mut self, reason: RejectReason) {
        *self.import_rejects.entry(reason).or_insert(0) += 1;
    }

    pub fn record_trigger_reject(&mut self, reason: RejectReason) {
        *self.trigger_rejects.entry(reason).or_insert(0) += 1;
    }

    fn record_extension_reject(&mut self, reason: RejectReason, name: &'static str) {
        self.record_import_reject(reason);
        *self.extension_rejects.entry(name).or_insert(0) += 1;
    }

    pub fn import_rejects_for(&self, reason: RejectReason) -> u64 {
        self.import_rejects.get(&reason).copied().unwrap_or(0)
    }

    pub fn total_import_rejects(&self) -> u64 {
        self.import_rejects.values().sum()
    }
}

/// RFC 6811 route-origin validation: is the route RPKI-Invalid? Under a
/// strict ROA table (max_length = allocation length) this is every RTBH
/// host route — the blackholing-vs-ROV tension the adversarial
/// workloads quantify.
fn rov_invalid(roas: &RoaTable, prefix: &Ipv4Prefix, as_path: &AsPath) -> bool {
    as_path.origin().is_some_and(|origin| roas.validity(prefix, origin) == RpkiValidity::Invalid)
}

/// Peerlock-lite: does the path carry a Tier-1 ASN other than the
/// sender itself? On a route learned from a customer or peer that must
/// be a leak — under valley-free export no Tier-1 ever appears
/// downstream of a non-Tier-1 on a legitimate customer/peer path.
fn carries_foreign_tier1(topology: &Topology, as_path: &AsPath, from: Asn) -> bool {
    as_path
        .iter_asns()
        .any(|asn| asn != from && topology.as_info(asn).is_some_and(|i| i.tier == Tier::Tier1))
}

/// Path-end validation (the lightweight BGPsec alternative): the hop
/// adjacent to the origin must be a real topology neighbor of the
/// origin. Catches forged-origin hijacks that graft a victim origin
/// onto an attacker path.
fn path_end_valid(topology: &Topology, as_path: &AsPath) -> bool {
    let Some(origin) = as_path.origin() else {
        return true;
    };
    if topology.as_info(origin).is_none() {
        return true; // unknown origin: nothing to validate against
    }
    let Some(last_hop) = as_path.iter_asns().filter(|asn| *asn != origin).last() else {
        return true; // origin-only path: a direct session
    };
    topology.neighbors(origin).iter().any(|(n, _)| *n == last_hop)
}

/// The non-empty entries of a [`PolicyTable`] plus its ROA registry,
/// ready for the simulator. ASes without a policy are absent from the
/// map and pay a single hash probe per site.
pub struct PolicyEngine {
    per_as: FxHashMap<Asn, AsPolicy>,
    roas: RoaTable,
}

impl PolicyEngine {
    /// Compile a declarative table. Returns `None` when the table is
    /// empty — the simulator then skips installation entirely, keeping
    /// the policies-off fast path byte-for-byte identical.
    pub fn compile(table: &PolicyTable) -> Option<Self> {
        if table.is_empty() {
            return None;
        }
        let per_as = table
            .iter()
            .filter(|(_, policy)| !policy.is_empty())
            .map(|(asn, policy)| (asn, policy.clone()))
            .collect();
        Some(Self { per_as, roas: table.roas().clone() })
    }

    /// `me`'s ingress filters over a route arriving from neighbor
    /// `from`, before the Gao-Rexford import. `rel` is `me`'s
    /// relationship to `from` (`Customer` means the sender is `me`'s
    /// customer — the `local_pref_for` convention); `leak_marked` is
    /// the route's only-to-customers mark (RFC 9234's OTC attribute).
    /// The first filter to object rejects the route and is recorded in
    /// `stats` under its name.
    #[allow(clippy::too_many_arguments)] // one parameter per BGP attribute of the event
    pub fn import(
        &self,
        topology: &Topology,
        stats: &mut RunStats,
        me: Asn,
        from: Asn,
        rel: Relationship,
        prefix: &Ipv4Prefix,
        as_path: &AsPath,
        leak_marked: &mut bool,
    ) -> Result<(), RejectReason> {
        let Some(policy) = self.per_as.get(&me) else {
            return Ok(());
        };
        // Learned from a customer, peer or route server — where a leak
        // shows up; what a provider sends is never one.
        let from_provider = rel == Relationship::Provider;
        let rejected = if policy.rov && rov_invalid(&self.roas, prefix, as_path) {
            Some((RejectReason::RovInvalid, "rov"))
        } else if policy.peerlock_lite
            && !from_provider
            && carries_foreign_tier1(topology, as_path, from)
        {
            Some((RejectReason::PeerlockViolation, "peerlock-lite"))
        } else if policy.path_end && !path_end_valid(topology, as_path) {
            Some((RejectReason::PathEndInvalid, "path-end"))
        } else if policy.only_to_customers && !from_provider && *leak_marked {
            // A marked route arriving from a customer or peer: a leak
            // already happened upstream.
            Some((RejectReason::RouteLeak, "only-to-customers"))
        } else {
            None
        };
        if let Some((reason, name)) = rejected {
            stats.record_extension_reject(reason, name);
            return Err(reason);
        }
        if policy.only_to_customers && rel != Relationship::Customer {
            // Learned from a provider or a lateral peer: may only go to
            // my customers from here on.
            *leak_marked = true;
        }
        Ok(())
    }

    /// `me`'s export policy for its best route towards a neighbor it
    /// has relationship `to_rel` to (`Customer` means the receiver is
    /// `me`'s customer), over the valley-free verdict `default_allowed`.
    /// `communities` and `leak_marked` are the *outgoing copy*: marking
    /// and scrubbing never touch the stored route. Returns whether to
    /// advertise.
    pub fn export(
        &self,
        stats: &mut RunStats,
        me: Asn,
        to_rel: Relationship,
        communities: &mut CommunitySet,
        leak_marked: &mut bool,
        default_allowed: bool,
    ) -> bool {
        let Some(policy) = self.per_as.get(&me) else {
            return default_allowed;
        };
        // Only-to-customers also marks on the way out to customers and
        // peers, containing leaks one hop out even when the leaker
        // itself deploys nothing.
        if policy.only_to_customers && matches!(to_rel, Relationship::Customer | Relationship::Peer)
        {
            *leak_marked = true;
        }
        // Community strip/rewrite: transit networks laundering
        // customer-attached informational communities — the behavior
        // that erodes community-based inference visibility.
        if let Some(scrub) = &policy.scrub {
            if scrub.strip_all {
                communities.retain(|_| false);
            } else {
                for c in &scrub.strip {
                    communities.remove(*c);
                }
            }
            for (from, to) in &scrub.rewrite {
                if communities.remove(*from) {
                    communities.insert(*to);
                }
            }
        }
        // Deliberate misbehavior: export every best route to every
        // neighbor, ignoring the valley-free rule. NO_EXPORT and
        // RFC 7999 suppression are hard rules in the simulator and are
        // never leaked through.
        if policy.leaker && !default_allowed {
            stats.exports_forced += 1;
            return true;
        }
        default_allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_bgp_types::community::Community;
    use bh_topology::{AsInfo, CommunityScrub, NetworkType, Roa};

    const T1: Asn = Asn(10);
    const ME: Asn = Asn(20);
    const ORIGIN: Asn = Asn(30);
    const PEER: Asn = Asn(40);

    /// `T1` (Tier-1) is `ME`'s provider, `ME` is `ORIGIN`'s, and
    /// `ORIGIN` peers with `PEER`.
    fn topology() -> Topology {
        let mk = |asn: Asn, tier: Tier| AsInfo {
            asn,
            tier,
            network_type: NetworkType::TransitAccess,
            country: "DE",
            prefixes: vec![],
            blackhole_offering: None,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb: true,
        };
        let ases = [
            (T1, mk(T1, Tier::Tier1)),
            (ME, mk(ME, Tier::Transit)),
            (ORIGIN, mk(ORIGIN, Tier::Stub)),
            (PEER, mk(PEER, Tier::Stub)),
        ];
        let edges = vec![
            (T1, ME, Relationship::Customer),
            (ME, ORIGIN, Relationship::Customer),
            (ORIGIN, PEER, Relationship::Peer),
        ];
        Topology::assemble(ases.into_iter().collect(), edges, vec![])
    }

    /// An engine with `policy` at `ME` and one ROA: `ORIGIN` may
    /// announce 30.0.0.0/16 and nothing more specific.
    fn engine_at_me(policy: AsPolicy) -> PolicyEngine {
        let mut table = PolicyTable::new();
        let mut roas = RoaTable::new();
        roas.insert(Roa { prefix: "30.0.0.0/16".parse().unwrap(), origin: ORIGIN, max_length: 16 });
        table.set_roas(roas);
        table.set(ME, policy);
        PolicyEngine::compile(&table).expect("ROAs make the table non-empty")
    }

    #[test]
    fn empty_table_compiles_to_nothing() {
        let mut table = PolicyTable::new();
        assert!(PolicyEngine::compile(&table).is_none());
        // All-off entries still compile to nothing.
        table.entry(Asn(65001));
        assert!(PolicyEngine::compile(&table).is_none());
        table.entry(Asn(65001)).rov = true;
        let engine = PolicyEngine::compile(&table).expect("non-empty table compiles");
        assert_eq!(engine.per_as.len(), 1);
    }

    #[test]
    fn import_filters_and_leaker_accept_and_reject() {
        use Relationship::{Customer, Peer, Provider};
        let rov = AsPolicy { rov: true, ..AsPolicy::default() };
        let peerlock = AsPolicy { peerlock_lite: true, ..AsPolicy::default() };
        let path_end = AsPolicy { path_end: true, ..AsPolicy::default() };
        let otc = AsPolicy { only_to_customers: true, ..AsPolicy::default() };
        let leaker = AsPolicy { leaker: true, ..AsPolicy::default() };
        const NET: &str = "30.0.0.0/16";
        const HOST: &str = "30.0.1.1/32";
        /// One import at `ME`: (case, policy, from, rel, prefix, path,
        /// marked on arrival, `Ok(marked afterwards)` or
        /// `Err((reason, filter charged))`).
        type Row<'a> = (
            &'a str,
            &'a AsPolicy,
            Asn,
            Relationship,
            &'a str,
            &'a [Asn],
            bool,
            Result<bool, (RejectReason, &'a str)>,
        );
        #[rustfmt::skip]
        let rows: &[Row<'_>] = &[
            ("rov: covered length",          &rov, ORIGIN, Customer, NET,           &[ORIGIN], false, Ok(false)),
            ("rov: no covering ROA",         &rov, ORIGIN, Customer, "31.0.0.1/32", &[ORIGIN], false, Ok(false)),
            ("rov: host route, strict ROA",  &rov, ORIGIN, Customer, HOST,          &[ORIGIN], false, Err((RejectReason::RovInvalid, "rov"))),
            ("peerlock: clean customer path",    &peerlock, ORIGIN, Customer, NET, &[ORIGIN],           false, Ok(false)),
            ("peerlock: Tier-1 is the sender",   &peerlock, T1,     Peer,     NET, &[T1, ORIGIN],       false, Ok(false)),
            ("peerlock: providers send anything", &peerlock, T1,    Provider, NET, &[PEER, T1, ORIGIN], false, Ok(false)),
            ("peerlock: Tier-1 behind a customer", &peerlock, ORIGIN, Customer, NET, &[ORIGIN, T1, PEER], false, Err((RejectReason::PeerlockViolation, "peerlock-lite"))),
            ("path-end: direct session",     &path_end, ORIGIN, Customer, NET, &[ORIGIN],               false, Ok(false)),
            ("path-end: real neighbor",      &path_end, PEER,   Peer,     NET, &[PEER, ORIGIN],         false, Ok(false)),
            ("path-end: prepended origin",   &path_end, PEER,   Peer,     NET, &[PEER, ORIGIN, ORIGIN], false, Ok(false)),
            ("path-end: unknown origin",     &path_end, T1,     Provider, NET, &[T1, Asn(999)],         false, Ok(false)),
            ("path-end: forged adjacency",   &path_end, T1,     Provider, NET, &[T1, ORIGIN],           false, Err((RejectReason::PathEndInvalid, "path-end"))),
            ("otc: from a provider, marks",  &otc, T1,     Provider, NET, &[T1, ORIGIN],   false, Ok(true)),
            ("otc: from a peer, marks",      &otc, PEER,   Peer,     NET, &[PEER, ORIGIN], false, Ok(true)),
            ("otc: from a customer, no mark", &otc, ORIGIN, Customer, NET, &[ORIGIN],      false, Ok(false)),
            ("otc: marked, from a customer", &otc, ORIGIN, Customer, NET, &[ORIGIN, T1],   true,  Err((RejectReason::RouteLeak, "only-to-customers"))),
            ("otc: marked, from a peer",     &otc, PEER,   Peer,     NET, &[PEER, ORIGIN], true,  Err((RejectReason::RouteLeak, "only-to-customers"))),
            ("leaker alone filters nothing", &leaker, ORIGIN, Customer, HOST, &[ORIGIN, T1], true, Ok(true)),
        ];
        let topology = topology();
        for &(case, policy, from, rel, prefix, path, marked_before, expect) in rows {
            let engine = engine_at_me(policy.clone());
            let mut stats = RunStats::default();
            let mut marked = marked_before;
            let verdict = engine.import(
                &topology,
                &mut stats,
                ME,
                from,
                rel,
                &prefix.parse().unwrap(),
                &AsPath::from_sequence(path.to_vec()),
                &mut marked,
            );
            match expect {
                Ok(marked_after) => {
                    assert_eq!(verdict, Ok(()), "{case}");
                    assert_eq!(marked, marked_after, "{case}: only-to-customers mark");
                    assert_eq!(stats, RunStats::default(), "{case}: accepted yet counted");
                }
                Err((reason, filter)) => {
                    assert_eq!(verdict, Err(reason), "{case}");
                    assert_eq!(stats.import_rejects_for(reason), 1, "{case}");
                    assert_eq!(stats.total_import_rejects(), 1, "{case}");
                    assert_eq!(stats.extension_rejects, BTreeMap::from([(filter, 1)]), "{case}");
                }
            }
        }

        // The leaker on export: (leaker on?, valley-free verdict) →
        // (advertise?, counted as forced).
        for (leaker, default_allowed, advertise, forced) in [
            (true, false, true, 1),
            (true, true, true, 0),
            (false, false, false, 0),
            (false, true, true, 0),
        ] {
            // ROV keeps the non-leaker's policy non-empty.
            let engine = engine_at_me(AsPolicy { leaker, rov: true, ..AsPolicy::default() });
            let mut stats = RunStats::default();
            let (mut communities, mut marked) = (CommunitySet::new(), false);
            let verdict = engine.export(
                &mut stats,
                ME,
                Relationship::Provider,
                &mut communities,
                &mut marked,
                default_allowed,
            );
            assert_eq!(verdict, advertise, "leaker {leaker}, valley-free {default_allowed}");
            assert_eq!(
                stats.exports_forced, forced,
                "leaker {leaker}, valley-free {default_allowed}"
            );
            assert!(!marked && communities.is_empty());
        }
    }

    #[test]
    fn scrub_strips_and_rewrites() {
        let engine = engine_at_me(AsPolicy {
            scrub: Some(CommunityScrub {
                strip_all: false,
                strip: vec![Community::from_parts(65001, 666)],
                rewrite: vec![(
                    Community::from_parts(65001, 100),
                    Community::from_parts(65002, 200),
                )],
            }),
            ..AsPolicy::default()
        });
        let mut communities = CommunitySet::new();
        communities.insert(Community::from_parts(65001, 666));
        communities.insert(Community::from_parts(65001, 100));
        communities.insert(Community::from_parts(65001, 300));
        let mut stats = RunStats::default();
        let mut leak_marked = false;
        // Scrubbing never changes the verdict, either way.
        for default_allowed in [true, false] {
            let verdict = engine.export(
                &mut stats,
                ME,
                Relationship::Customer,
                &mut communities,
                &mut leak_marked,
                default_allowed,
            );
            assert_eq!(verdict, default_allowed);
        }
        assert!(!communities.contains(Community::from_parts(65001, 666)));
        assert!(!communities.contains(Community::from_parts(65001, 100)));
        assert!(communities.contains(Community::from_parts(65002, 200)));
        assert!(communities.contains(Community::from_parts(65001, 300)));
        assert!(!leak_marked);
        assert_eq!(stats, RunStats::default());

        // Another AS's routes leave untouched.
        communities.insert(Community::from_parts(65001, 666));
        engine.export(
            &mut stats,
            ORIGIN,
            Relationship::Peer,
            &mut communities,
            &mut leak_marked,
            true,
        );
        assert!(communities.contains(Community::from_parts(65001, 666)));
    }

    #[test]
    fn otc_marks_and_rejects() {
        let engine = engine_at_me(AsPolicy { only_to_customers: true, ..AsPolicy::default() });
        let topology = topology();
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();
        let path = AsPath::from_sequence(vec![T1, ORIGIN]);
        let mut stats = RunStats::default();

        // Learned from a provider: mark set, accepted.
        let mut leak_marked = false;
        let verdict = engine.import(
            &topology,
            &mut stats,
            ME,
            T1,
            Relationship::Provider,
            &prefix,
            &path,
            &mut leak_marked,
        );
        assert!(verdict.is_ok());
        assert!(leak_marked);

        // A marked route arriving from a customer is a leak.
        let verdict = engine.import(
            &topology,
            &mut stats,
            ME,
            ORIGIN,
            Relationship::Customer,
            &prefix,
            &path,
            &mut leak_marked,
        );
        assert_eq!(verdict, Err(RejectReason::RouteLeak));

        // Exports to customers and peers carry the mark; a
        // customer-learned route sent up to a provider does not.
        for (to_rel, marked_after) in [
            (Relationship::Customer, true),
            (Relationship::Peer, true),
            (Relationship::Provider, false),
            (Relationship::RouteServer, false),
        ] {
            let (mut communities, mut leak_marked) = (CommunitySet::new(), false);
            assert!(engine.export(
                &mut stats,
                ME,
                to_rel,
                &mut communities,
                &mut leak_marked,
                true
            ));
            assert_eq!(leak_marked, marked_after, "export to a {to_rel:?}");
        }
    }

    #[test]
    fn run_stats_accumulate_by_reason() {
        let mut stats = RunStats::default();
        stats.record_import_reject(RejectReason::LoopDetected);
        stats.record_import_reject(RejectReason::LoopDetected);
        stats.record_trigger_reject(RejectReason::AuthFailed);
        stats.record_extension_reject(RejectReason::RovInvalid, "rov");
        assert_eq!(stats.import_rejects_for(RejectReason::LoopDetected), 2);
        assert_eq!(stats.import_rejects_for(RejectReason::RovInvalid), 1);
        assert_eq!(stats.trigger_rejects.get(&RejectReason::AuthFailed), Some(&1));
        assert_eq!(stats.extension_rejects.get("rov"), Some(&1));
        assert_eq!(stats.total_import_rejects(), 3);
    }
}
