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
//!   the table's [`RoaTable`]), then RFC 9234-style only-to-customers.
//!   The first one to object rejects the route and is counted under its
//!   [`RejectReason`] in [`RunStats::import_rejects`]; an accepted route
//!   may leave with its only-to-customers mark set.
//! * **export** ([`PolicyEngine::export`]): over the valley-free
//!   `may_export` verdict the core already computed — the
//!   only-to-customers mark on the outgoing copy, and the deliberately
//!   misbehaving route leaker, which overrides a "no".
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
use bh_bgp_types::hash::FxHashMap;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::Asn;
use bh_topology::{AsPolicy, PolicyTable, Relationship, RoaTable, RpkiValidity};

use crate::policy::RejectReason;

/// Per-`RejectReason` accounting for one simulator run. Counters only —
/// recording a rejection never perturbs routing, which the empty-table
/// bit-identity property depends on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Routes actually rejected on import (candidate removed), by
    /// reason. Includes the Gao-Rexford core reasons (`LoopDetected`,
    /// `TooSpecific`) and every policy-filter reason.
    pub import_rejects: BTreeMap<RejectReason, u64>,
    /// Blackhole triggers that matched but did not fire (`AuthFailed`,
    /// `LengthRejected`); the route itself still imported normally.
    pub trigger_rejects: BTreeMap<RejectReason, u64>,
    /// Advertisements forced past the valley-free rule (leaks).
    pub exports_forced: u64,
    /// Propagation runs that hit the step cap and were abandoned
    /// (`PropagationError::NoConvergence` surfaced to the caller).
    pub convergence_failures: u64,
    /// Announce/withdraw work items processed — the simulator's unit of
    /// work, one per (sender, receiver) delivery. A withdrawal of a
    /// prefix's last origin delivers nothing (the simulator jumps to the
    /// empty fixpoint) and counts none.
    pub work_items: u64,
    /// The most work items any single announce or withdraw run spent —
    /// how close the worst run came to the simulator's step cap
    /// (`BgpSimulator::step_cap`). A withdrawal of a prefix's last origin
    /// is not a run.
    pub peak_run_steps: u64,
}

impl RunStats {
    pub fn record_import_reject(&mut self, reason: RejectReason) {
        *self.import_rejects.entry(reason).or_insert(0) += 1;
    }

    pub fn record_trigger_reject(&mut self, reason: RejectReason) {
        *self.trigger_rejects.entry(reason).or_insert(0) += 1;
    }

    pub fn import_rejects_for(&self, reason: RejectReason) -> u64 {
        self.import_rejects.get(&reason).copied().unwrap_or(0)
    }
}

/// RFC 6811 route-origin validation: is the route RPKI-Invalid? Under a
/// strict ROA table (max_length = allocation length) this is every RTBH
/// host route — the blackholing-vs-ROV tension the adversarial
/// workloads quantify.
fn rov_invalid(roas: &RoaTable, prefix: &Ipv4Prefix, as_path: &AsPath) -> bool {
    as_path.origin().is_some_and(|origin| roas.validity(prefix, origin) == RpkiValidity::Invalid)
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

    /// `me`'s ingress filters over a route arriving from a neighbor
    /// `me` has relationship `rel` to (`Customer` means the sender is
    /// `me`'s customer — the `local_pref_for` convention), before the
    /// Gao-Rexford import. `leak_marked` is the route's
    /// only-to-customers mark (RFC 9234's OTC attribute). The first
    /// filter to object rejects the route and is counted in `stats`.
    pub fn import(
        &self,
        stats: &mut RunStats,
        me: Asn,
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
            Some(RejectReason::RovInvalid)
        } else if policy.only_to_customers && !from_provider && *leak_marked {
            // A marked route arriving from a customer or peer: a leak
            // already happened upstream.
            Some(RejectReason::RouteLeak)
        } else {
            None
        };
        if let Some(reason) = rejected {
            stats.record_import_reject(reason);
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
    /// `leak_marked` belongs to the *outgoing copy*: marking never
    /// touches the stored route. Returns whether to advertise.
    pub fn export(
        &self,
        stats: &mut RunStats,
        me: Asn,
        to_rel: Relationship,
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
    use bh_topology::Roa;

    const T1: Asn = Asn(10);
    const ME: Asn = Asn(20);
    const ORIGIN: Asn = Asn(30);
    const PEER: Asn = Asn(40);

    /// An engine with `policy` at `ME` and one ROA: `ORIGIN` may
    /// announce 30.0.0.0/16 and nothing more specific.
    fn engine_at_me(policy: AsPolicy) -> PolicyEngine {
        let mut table = PolicyTable::new();
        let mut roas = RoaTable::new();
        roas.insert(Roa { prefix: "30.0.0.0/16".parse().unwrap(), origin: ORIGIN, max_length: 16 });
        table.set_roas(roas);
        *table.entry(ME) = policy;
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
        let otc = AsPolicy { only_to_customers: true, ..AsPolicy::default() };
        let leaker = AsPolicy { leaker: true, ..AsPolicy::default() };
        const NET: &str = "30.0.0.0/16";
        const HOST: &str = "30.0.1.1/32";
        /// One import at `ME`: (case, policy, rel to the sender, prefix,
        /// path, marked on arrival, `Ok(marked afterwards)` or
        /// `Err(reason)`).
        type Row<'a> = (
            &'a str,
            &'a AsPolicy,
            Relationship,
            &'a str,
            &'a [Asn],
            bool,
            Result<bool, RejectReason>,
        );
        #[rustfmt::skip]
        let rows: &[Row<'_>] = &[
            ("rov: covered length",           &rov,    Customer, NET,           &[ORIGIN],       false, Ok(false)),
            ("rov: no covering ROA",          &rov,    Customer, "31.0.0.1/32", &[ORIGIN],       false, Ok(false)),
            ("rov: host route, strict ROA",   &rov,    Customer, HOST,          &[ORIGIN],       false, Err(RejectReason::RovInvalid)),
            ("otc: from a provider, marks",   &otc,    Provider, NET,           &[T1, ORIGIN],   false, Ok(true)),
            ("otc: from a peer, marks",       &otc,    Peer,     NET,           &[PEER, ORIGIN], false, Ok(true)),
            ("otc: from a customer, no mark", &otc,    Customer, NET,           &[ORIGIN],       false, Ok(false)),
            ("otc: marked, from a customer",  &otc,    Customer, NET,           &[ORIGIN, T1],   true,  Err(RejectReason::RouteLeak)),
            ("otc: marked, from a peer",      &otc,    Peer,     NET,           &[PEER, ORIGIN], true,  Err(RejectReason::RouteLeak)),
            ("leaker alone filters nothing",  &leaker, Customer, HOST,          &[ORIGIN, T1],   true,  Ok(true)),
        ];
        for &(case, policy, rel, prefix, path, marked_before, expect) in rows {
            let engine = engine_at_me(policy.clone());
            let mut stats = RunStats::default();
            let mut marked = marked_before;
            let verdict = engine.import(
                &mut stats,
                ME,
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
                Err(reason) => {
                    assert_eq!(verdict, Err(reason), "{case}");
                    assert_eq!(stats.import_rejects_for(reason), 1, "{case}");
                    assert_eq!(stats.import_rejects.values().sum::<u64>(), 1, "{case}");
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
            let mut marked = false;
            let verdict =
                engine.export(&mut stats, ME, Relationship::Provider, &mut marked, default_allowed);
            assert_eq!(verdict, advertise, "leaker {leaker}, valley-free {default_allowed}");
            assert_eq!(
                stats.exports_forced, forced,
                "leaker {leaker}, valley-free {default_allowed}"
            );
            assert!(!marked);
        }
    }

    #[test]
    fn otc_marks_and_rejects() {
        let engine = engine_at_me(AsPolicy { only_to_customers: true, ..AsPolicy::default() });
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();
        let path = AsPath::from_sequence(vec![T1, ORIGIN]);
        let mut stats = RunStats::default();

        // Learned from a provider: mark set, accepted.
        let mut leak_marked = false;
        let verdict =
            engine.import(&mut stats, ME, Relationship::Provider, &prefix, &path, &mut leak_marked);
        assert!(verdict.is_ok());
        assert!(leak_marked);

        // A marked route arriving from a customer is a leak.
        let verdict =
            engine.import(&mut stats, ME, Relationship::Customer, &prefix, &path, &mut leak_marked);
        assert_eq!(verdict, Err(RejectReason::RouteLeak));

        // Exports to customers and peers carry the mark; a
        // customer-learned route sent up to a provider does not.
        for (to_rel, marked_after) in [
            (Relationship::Customer, true),
            (Relationship::Peer, true),
            (Relationship::Provider, false),
            (Relationship::RouteServer, false),
        ] {
            let mut leak_marked = false;
            assert!(engine.export(&mut stats, ME, to_rel, &mut leak_marked, true));
            assert_eq!(leak_marked, marked_after, "export to a {to_rel:?}");
        }
    }

    #[test]
    fn run_stats_accumulate_by_reason() {
        let mut stats = RunStats::default();
        stats.record_import_reject(RejectReason::LoopDetected);
        stats.record_import_reject(RejectReason::LoopDetected);
        stats.record_trigger_reject(RejectReason::AuthFailed);
        stats.record_import_reject(RejectReason::RovInvalid);
        assert_eq!(stats.import_rejects_for(RejectReason::LoopDetected), 2);
        assert_eq!(stats.import_rejects_for(RejectReason::RovInvalid), 1);
        assert_eq!(stats.trigger_rejects.get(&RejectReason::AuthFailed), Some(&1));
        assert_eq!(stats.import_rejects.values().sum::<u64>(), 3);
    }
}
