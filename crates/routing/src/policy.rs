//! Routing policy: Gao-Rexford import/export plus the blackhole-specific
//! acceptance rules of §2.

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_topology::{BlackholeAuth, BlackholeOffering, Relationship, Topology};

/// LOCAL_PREF assigned by relationship (standard Gao-Rexford economics).
pub fn local_pref_for(rel: Relationship) -> u32 {
    match rel {
        Relationship::Customer => 200,
        Relationship::Peer | Relationship::RouteServer => 100,
        Relationship::Provider => 50,
    }
}

/// Export rule: may a route learned via `learned_rel` be exported to a
/// neighbor we relate to as `to_rel`?
///
/// Customer routes (and own origins) go everywhere; peer/provider routes
/// only to customers. Exporting *to* a route server behaves like exporting
/// to a peer.
pub fn may_export(learned_rel: Option<Relationship>, to_rel: Relationship) -> bool {
    match learned_rel {
        None => true, // own origin
        Some(Relationship::Customer) => true,
        Some(_) => to_rel == Relationship::Customer,
    }
}

/// Why an import was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RejectReason {
    /// Receiving AS is already on the path.
    LoopDetected,
    /// More specific than /24 without an applicable blackhole trigger and
    /// the AS does not accept host routes on this session type.
    TooSpecific,
    /// Carried the provider's blackhole community but failed
    /// authentication.
    AuthFailed,
    /// Carried the provider's blackhole community but the prefix length is
    /// outside the accepted window.
    LengthRejected,
    /// RPKI-Invalid at an ROV-deploying AS (policy extension).
    RovInvalid,
    /// Arrived from a customer or peer while carrying the
    /// only-to-customers mark (policy extension).
    RouteLeak,
}

impl RejectReason {
    /// Stable human-readable label, used by run-stats reporting.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::LoopDetected => "loop-detected",
            RejectReason::TooSpecific => "too-specific",
            RejectReason::AuthFailed => "auth-failed",
            RejectReason::LengthRejected => "length-rejected",
            RejectReason::RovInvalid => "rov-invalid",
            RejectReason::RouteLeak => "route-leak",
        }
    }
}

/// The import decision for one received route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportDecision {
    /// Accept as a regular route.
    Regular,
    /// Accept as a blackhole: install a discard (null next-hop), tag RIB
    /// entry as blackhole.
    Blackhole,
    /// Reject.
    Reject(RejectReason),
}

/// Full import result: the decision plus, when a blackhole trigger was
/// present but did not fire, the reason it did not (a route carrying an
/// inert trigger is still a legitimate route and falls back to the
/// normal filters — only route servers reject strictly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportOutcome {
    /// What to do with the route.
    pub decision: ImportDecision,
    /// Why a matching trigger did not result in a blackhole.
    pub trigger_rejection: Option<RejectReason>,
}

/// Per-AS session behavior toggles (routing-plane, not ground-truth
/// topology — they model router configuration, not business policy).
#[derive(Debug, Clone, Copy)]
pub struct SessionBehavior {
    /// Accept >/24 prefixes from customers (most networks do — otherwise
    /// community bundling would never be visible).
    pub host_routes_from_customers: bool,
    /// Accept >/24 prefixes from peers / route servers (§10 found "some
    /// ASes do not accept /32 announcements because they have not changed
    /// their router configurations").
    pub host_routes_from_peers: bool,
}

impl Default for SessionBehavior {
    fn default() -> Self {
        SessionBehavior { host_routes_from_customers: true, host_routes_from_peers: false }
    }
}

/// Authentication input for a blackhole request.
#[derive(Debug, Clone, Copy)]
pub struct AuthContext<'a> {
    /// The topology (cones, allocations).
    pub topology: &'a Topology,
    /// Origin of the announcement (last AS on the path / the announcer).
    pub origin: Asn,
    /// The immediate neighbor that sent us the route.
    pub sender: Asn,
    /// Owner of the covering allocation of the prefix, if known.
    pub allocation_owner: Option<Asn>,
    /// Whether the prefix is registered in the IRR with the correct
    /// origin (workload-controlled; misconfigured users lack this).
    pub irr_registered: bool,
}

/// Does a blackhole request pass the provider's authentication?
pub fn auth_ok(auth: BlackholeAuth, ctx: &AuthContext<'_>) -> bool {
    match auth {
        BlackholeAuth::OriginOrCone => match ctx.allocation_owner {
            // Requester originates the prefix, or has it in its cone.
            Some(owner) => {
                owner == ctx.origin
                    || owner == ctx.sender
                    || ctx.topology.in_customer_cone(ctx.sender, owner)
            }
            None => false,
        },
        BlackholeAuth::Rpki => ctx.allocation_owner == Some(ctx.origin),
        BlackholeAuth::IrrRegistered => ctx.irr_registered,
    }
}

/// The receiver's blackhole offering when `communities` carry one of its
/// triggers (classic or large), `None` otherwise.
pub(crate) fn triggered_offering<'o>(
    offering: Option<&'o BlackholeOffering>,
    communities: &CommunitySet,
) -> Option<&'o BlackholeOffering> {
    offering.filter(|o| {
        communities.iter().any(|c| o.is_trigger(c))
            || o.large_community.is_some_and(|l| communities.contains_large(l))
    })
}

/// Full import decision at a receiver with blackhole `offering` for a
/// route to `prefix` with `communities`, received over a session of type
/// `rel` (receiver's view); `auth_ctx` names the sender.
pub fn import_decision(
    offering: Option<&BlackholeOffering>,
    rel: Relationship,
    prefix: &Ipv4Prefix,
    communities: &CommunitySet,
    behavior: SessionBehavior,
    auth_ctx: &AuthContext<'_>,
) -> ImportOutcome {
    let mut trigger_rejection = None;
    // Does the announcement carry one of *our* triggers?
    if let Some(offering) = triggered_offering(offering, communities) {
        if !offering.accepts_length(prefix.length()) {
            trigger_rejection = Some(RejectReason::LengthRejected);
        } else if !auth_ok(offering.auth, auth_ctx) {
            trigger_rejection = Some(RejectReason::AuthFailed);
        } else {
            return ImportOutcome { decision: ImportDecision::Blackhole, trigger_rejection: None };
        }
        // The trigger did not fire; the route still goes through the
        // ordinary filters below (e.g. the accidental /16 "blackhole the
        // whole table" event propagates as a plain tagged route).
    }

    // Ordinary specificity filtering.
    if prefix.is_more_specific_than(24) {
        let accepted = match rel {
            Relationship::Customer => behavior.host_routes_from_customers,
            Relationship::Peer | Relationship::RouteServer => behavior.host_routes_from_peers,
            Relationship::Provider => behavior.host_routes_from_peers,
        };
        if !accepted {
            return ImportOutcome {
                decision: ImportDecision::Reject(RejectReason::TooSpecific),
                trigger_rejection,
            };
        }
    }
    ImportOutcome { decision: ImportDecision::Regular, trigger_rejection }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use bh_bgp_types::community::Community;
    use bh_topology::{AsInfo, BlackholeOffering, DocumentationChannel, NetworkType, Tier};

    use super::*;

    fn topo_with_provider(auth: BlackholeAuth) -> (Topology, Asn, Asn, Asn) {
        // provider(1) ← user(2) ← victim allocation owner is user itself;
        // unrelated(3).
        let provider = Asn::new(1);
        let user = Asn::new(2);
        let other = Asn::new(3);
        let mut ases = BTreeMap::new();
        let mk = |asn: Asn, prefixes: Vec<&str>, offering: Option<BlackholeOffering>| AsInfo {
            asn,
            tier: Tier::Stub,
            network_type: NetworkType::TransitAccess,
            country: "DE",
            prefixes: prefixes.iter().map(|p| p.parse().unwrap()).collect(),
            blackhole_offering: offering,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb: true,
        };
        let offering = BlackholeOffering {
            communities: vec![Community::from_parts(1, 666)],
            large_community: None,
            min_accepted_length: 25,
            documentation: DocumentationChannel::Irr,
            auth,
            blackhole_ip: None,
            strips_community: false,
            honors_no_export: true,
        };
        ases.insert(provider, mk(provider, vec!["20.0.0.0/8"], Some(offering)));
        ases.insert(user, mk(user, vec!["30.0.0.0/16"], None));
        ases.insert(other, mk(other, vec!["40.0.0.0/16"], None));
        let edges = vec![
            (provider, user, Relationship::Customer),
            (provider, other, Relationship::Customer),
        ];
        (Topology::assemble(ases, edges, vec![]), provider, user, other)
    }

    fn offering_of(topology: &Topology, asn: Asn) -> Option<&BlackholeOffering> {
        topology.as_info(asn).and_then(|i| i.blackhole_offering.as_ref())
    }

    fn ctx<'a>(
        topology: &'a Topology,
        origin: Asn,
        sender: Asn,
        owner: Option<Asn>,
        irr: bool,
    ) -> AuthContext<'a> {
        AuthContext { topology, origin, sender, allocation_owner: owner, irr_registered: irr }
    }

    #[test]
    fn local_pref_ordering() {
        assert!(local_pref_for(Relationship::Customer) > local_pref_for(Relationship::Peer));
        assert!(local_pref_for(Relationship::Peer) > local_pref_for(Relationship::Provider));
        assert_eq!(local_pref_for(Relationship::Peer), local_pref_for(Relationship::RouteServer));
    }

    #[test]
    fn export_rules_are_valley_free() {
        use Relationship::*;
        // Own origin exports everywhere.
        assert!(may_export(None, Customer));
        assert!(may_export(None, Peer));
        assert!(may_export(None, Provider));
        // Customer routes export everywhere.
        assert!(may_export(Some(Customer), Customer));
        assert!(may_export(Some(Customer), Peer));
        assert!(may_export(Some(Customer), Provider));
        assert!(may_export(Some(Customer), RouteServer));
        // Peer/provider/RS routes only to customers.
        for learned in [Peer, Provider, RouteServer] {
            assert!(may_export(Some(learned), Customer));
            assert!(!may_export(Some(learned), Peer));
            assert!(!may_export(Some(learned), Provider));
            assert!(!may_export(Some(learned), RouteServer));
        }
    }

    #[test]
    fn blackhole_trigger_accepts_host_route() {
        let (t, provider, user, _) = topo_with_provider(BlackholeAuth::OriginOrCone);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let communities = CommunitySet::from_classic(vec![Community::from_parts(1, 666)]);
        let auth = ctx(&t, user, user, Some(user), true);
        let d = import_decision(
            offering_of(&t, provider),
            Relationship::Customer,
            &prefix,
            &communities,
            SessionBehavior::default(),
            &auth,
        );
        assert_eq!(d.decision, ImportDecision::Blackhole);
        assert_eq!(d.trigger_rejection, None);
    }

    #[test]
    fn blackhole_rejected_when_too_coarse() {
        let (t, provider, user, _) = topo_with_provider(BlackholeAuth::OriginOrCone);
        let prefix: Ipv4Prefix = "30.0.0.0/20".parse().unwrap(); // < min /25
        let communities = CommunitySet::from_classic(vec![Community::from_parts(1, 666)]);
        let auth = ctx(&t, user, user, Some(user), true);
        let d = import_decision(
            offering_of(&t, provider),
            Relationship::Customer,
            &prefix,
            &communities,
            SessionBehavior::default(),
            &auth,
        );
        // The trigger does not fire (too coarse), but the /20 is still a
        // legitimate route and imports normally.
        assert_eq!(d.decision, ImportDecision::Regular);
        assert_eq!(d.trigger_rejection, Some(RejectReason::LengthRejected));
    }

    #[test]
    fn blackhole_rejected_for_foreign_prefix() {
        // User 2 requests blackholing of user 3's space: auth failure.
        let (t, provider, user, other) = topo_with_provider(BlackholeAuth::OriginOrCone);
        let prefix: Ipv4Prefix = "40.0.1.1/32".parse().unwrap();
        let communities = CommunitySet::from_classic(vec![Community::from_parts(1, 666)]);
        let auth = ctx(&t, user, user, Some(other), true);
        let d = import_decision(
            offering_of(&t, provider),
            Relationship::Customer,
            &prefix,
            &communities,
            SessionBehavior::default(),
            &auth,
        );
        // Auth failed: no blackhole, but the host route still imports per
        // the session's host-route policy (default: from customers, yes).
        assert_eq!(d.decision, ImportDecision::Regular);
        assert_eq!(d.trigger_rejection, Some(RejectReason::AuthFailed));
    }

    #[test]
    fn rpki_auth_requires_origin_match() {
        let (t, provider, user, other) = topo_with_provider(BlackholeAuth::Rpki);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let communities = CommunitySet::from_classic(vec![Community::from_parts(1, 666)]);
        let good = ctx(&t, user, user, Some(user), false);
        let bad = ctx(&t, other, other, Some(user), false);
        assert_eq!(
            import_decision(
                offering_of(&t, provider),
                Relationship::Customer,
                &prefix,
                &communities,
                SessionBehavior::default(),
                &good
            )
            .decision,
            ImportDecision::Blackhole
        );
        let bad_outcome = import_decision(
            offering_of(&t, provider),
            Relationship::Customer,
            &prefix,
            &communities,
            SessionBehavior::default(),
            &bad,
        );
        assert_ne!(bad_outcome.decision, ImportDecision::Blackhole);
        assert_eq!(bad_outcome.trigger_rejection, Some(RejectReason::AuthFailed));
    }

    #[test]
    fn irr_auth_requires_registration() {
        let (t, provider, user, _) = topo_with_provider(BlackholeAuth::IrrRegistered);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let communities = CommunitySet::from_classic(vec![Community::from_parts(1, 666)]);
        let registered = ctx(&t, user, user, Some(user), true);
        let unregistered = ctx(&t, user, user, Some(user), false);
        assert_eq!(
            import_decision(
                offering_of(&t, provider),
                Relationship::Customer,
                &prefix,
                &communities,
                SessionBehavior::default(),
                &registered
            )
            .decision,
            ImportDecision::Blackhole
        );
        let rejected = import_decision(
            offering_of(&t, provider),
            Relationship::Customer,
            &prefix,
            &communities,
            SessionBehavior::default(),
            &unregistered,
        );
        assert_ne!(rejected.decision, ImportDecision::Blackhole);
        assert_eq!(rejected.trigger_rejection, Some(RejectReason::AuthFailed));
    }

    #[test]
    fn cone_auth_accepts_provider_of_victim() {
        // Sender is a provider whose cone contains the allocation owner.
        let (t, provider, user, _) = topo_with_provider(BlackholeAuth::OriginOrCone);
        // user(2) has no customers, so fabricate: provider 1 sends on
        // behalf of its customer 2 — sender=1, owner=2, in cone.
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let communities = CommunitySet::from_classic(vec![Community::from_parts(1, 666)]);
        let auth = ctx(&t, provider, provider, Some(user), false);
        let d = import_decision(
            offering_of(&t, provider),
            Relationship::Customer,
            &prefix,
            &communities,
            SessionBehavior::default(),
            &auth,
        );
        assert_eq!(d.decision, ImportDecision::Blackhole);
    }

    #[test]
    fn untagged_host_routes_follow_session_behavior() {
        let (t, provider, user, _) = topo_with_provider(BlackholeAuth::OriginOrCone);
        let prefix: Ipv4Prefix = "30.0.1.1/32".parse().unwrap();
        let communities = CommunitySet::new();
        let auth = ctx(&t, user, user, Some(user), true);
        // From customer with default behavior: accepted as regular
        // (this is what makes bundling visible).
        assert_eq!(
            import_decision(
                offering_of(&t, provider),
                Relationship::Customer,
                &prefix,
                &communities,
                SessionBehavior::default(),
                &auth
            )
            .decision,
            ImportDecision::Regular
        );
        // From peer with default behavior: too specific.
        assert_eq!(
            import_decision(
                offering_of(&t, provider),
                Relationship::Peer,
                &prefix,
                &communities,
                SessionBehavior::default(),
                &auth
            )
            .decision,
            ImportDecision::Reject(RejectReason::TooSpecific)
        );
        // Peer that accepts host routes.
        let lenient = SessionBehavior { host_routes_from_peers: true, ..Default::default() };
        assert_eq!(
            import_decision(
                offering_of(&t, provider),
                Relationship::Peer,
                &prefix,
                &communities,
                lenient,
                &auth
            )
            .decision,
            ImportDecision::Regular
        );
    }

    #[test]
    fn normal_prefixes_import_regularly() {
        let (t, provider, user, _) = topo_with_provider(BlackholeAuth::OriginOrCone);
        let prefix: Ipv4Prefix = "30.0.0.0/16".parse().unwrap();
        let auth = ctx(&t, user, user, Some(user), true);
        for rel in [Relationship::Customer, Relationship::Peer, Relationship::Provider] {
            let outcome = import_decision(
                offering_of(&t, provider),
                rel,
                &prefix,
                &CommunitySet::new(),
                SessionBehavior::default(),
                &auth,
            );
            assert_eq!(outcome.decision, ImportDecision::Regular);
            assert_eq!(outcome.trigger_rejection, None);
        }
    }
}
