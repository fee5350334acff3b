//! Core topology types: ASes, network types, relationships, blackhole
//! offerings (ground truth).

use std::net::Ipv4Addr;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, LargeCommunity};
use bh_bgp_types::prefix::Ipv4Prefix;

/// Network type taxonomy used throughout the paper (Tables 2 and 4).
///
/// Matches the paper's convention: PeeringDB's NSP and Cable/DSL/ISP are
/// folded into `TransitAccess` (as CAIDA's classification does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkType {
    /// Transit and access providers (NSP + Cable/DSL/ISP).
    TransitAccess,
    /// Internet exchange points (the route-server ASN).
    Ixp,
    /// Content providers, CDNs, hosters.
    Content,
    /// Educational / research / not-for-profit.
    EducationResearchNfp,
    /// Enterprises.
    Enterprise,
    /// No record or undisclosed.
    Unknown,
}

impl NetworkType {
    /// All types in the paper's table order.
    pub const ALL: [NetworkType; 6] = [
        NetworkType::TransitAccess,
        NetworkType::Ixp,
        NetworkType::Content,
        NetworkType::EducationResearchNfp,
        NetworkType::Enterprise,
        NetworkType::Unknown,
    ];

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            NetworkType::TransitAccess => "Transit/Access",
            NetworkType::Ixp => "IXP",
            NetworkType::Content => "Content",
            NetworkType::EducationResearchNfp => "Educ./Res./NfP",
            NetworkType::Enterprise => "Enterprise",
            NetworkType::Unknown => "Unknown",
        }
    }
}

/// Position in the transit hierarchy (generator-internal, but useful for
/// tests and probe selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Member of the top clique (settlement-free core).
    Tier1,
    /// Mid-tier transit provider.
    Transit,
    /// Edge network with no customers of its own.
    Stub,
}

/// Business relationship on an AS-AS edge, from the perspective of the
/// first AS (Gao-Rexford model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// The neighbor pays us: we are their provider.
    Customer,
    /// We pay the neighbor: they are our provider.
    Provider,
    /// Settlement-free peer (includes bilateral IXP peering).
    Peer,
    /// Session with an IXP route server (multilateral peering).
    RouteServer,
}

impl Relationship {
    /// The same edge from the other side.
    pub fn reverse(self) -> Relationship {
        match self {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::RouteServer => Relationship::RouteServer,
        }
    }
}

/// How a blackhole offering is documented — determines whether the
/// dictionary builder can discover it and through which channel (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocumentationChannel {
    /// Documented in an IRR `aut-num` record (largest source: 172
    /// communities for 209 networks in the paper).
    Irr,
    /// Documented on the operator's web page (130 communities, 93 ASes).
    WebPage,
    /// Learned via private communication (5 networks).
    Private,
    /// Not documented anywhere — discoverable only via the prefix-length
    /// profile inference (111 inferred communities on 102 ASes).
    Undocumented,
}

/// Ground-truth usage class of a non-blackhole tag community (the
/// Krenc et al. taxonomy the multi-class dictionary is validated
/// against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TagClass {
    /// Geographic ingress tagging ("route learned at FRA").
    Location,
    /// Actionable traffic engineering (prepend, local-pref, export
    /// control).
    Action,
    /// Purely informational marking (relationship tags, route provenance).
    Informational,
}

/// A tag community in RFC 8092 large form, with its usage class — the
/// only representable form when the tagging AS has a 32-bit ASN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LargeTag {
    /// The large community.
    pub community: LargeCommunity,
    /// Ground-truth usage class.
    pub class: TagClass,
}

/// The RFC 1997 classic community `asn:value`, when the ASN fits in 16
/// bits. 32-bit ASNs have no classic encoding — truncating with
/// `& 0xFFFF` would alias every pair of providers that agree mod 2^16
/// onto one tag, so callers must fall back to RFC 8092 large
/// communities instead.
pub fn classic_community(asn: Asn, value: u16) -> Option<Community> {
    u16::try_from(asn.value()).ok().map(|high| Community::from_parts(high, value))
}

/// Authentication the provider applies before honoring a blackhole
/// request (§2: origin/customer-cone, RPKI, or IRR registration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlackholeAuth {
    /// Accept if the requester originates the prefix or has it in its
    /// customer cone (the common practice).
    OriginOrCone,
    /// Accept only RPKI-valid announcements.
    Rpki,
    /// Accept only prefixes registered in an IRR.
    IrrRegistered,
}

/// Ground truth: one network's blackholing service offering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackholeOffering {
    /// Trigger communities. First entry is the global community; any
    /// additional entries are regional variants (e.g. blackhole only in
    /// Europe/US/Asia).
    pub communities: Vec<Community>,
    /// RFC 8092 large-community trigger — rare: the paper found exactly
    /// one network blackholing via the new community formats.
    pub large_community: Option<LargeCommunity>,
    /// Maximum accepted prefix length is always 32; this is the *minimum*
    /// accepted length (best practice: 24 or 25 — "prefixes less-specific
    /// than /24 should not be allowed to be blackholed").
    pub min_accepted_length: u8,
    /// How the offering is documented.
    pub documentation: DocumentationChannel,
    /// Authentication mode.
    pub auth: BlackholeAuth,
    /// The blackholing next-hop IP (IXPs advertise one; the common IPv4
    /// convention is a last octet of .66).
    pub blackhole_ip: Option<Ipv4Addr>,
    /// Whether the provider strips the blackhole community before
    /// propagating (suppresses visibility at collectors).
    pub strips_community: bool,
    /// Whether the provider honors NO_EXPORT on blackhole routes
    /// (RFC 7999 compliance). Many networks do not — that non-compliance
    /// is precisely what makes the study's propagation findings possible.
    pub honors_no_export: bool,
}

impl BlackholeOffering {
    /// The primary (global) trigger community.
    pub fn primary_community(&self) -> Community {
        self.communities[0]
    }

    /// Does the offering accept a blackhole request for a prefix of the
    /// given length?
    pub fn accepts_length(&self, length: u8) -> bool {
        length >= self.min_accepted_length && length <= 32
    }

    /// Is this community one of the offering's triggers?
    pub fn is_trigger(&self, community: Community) -> bool {
        self.communities.contains(&community)
    }
}

/// One autonomous system in the synthetic Internet.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy tier.
    pub tier: Tier,
    /// Ground-truth network type.
    pub network_type: NetworkType,
    /// ISO-3166-alpha-2 country code of RIR registration.
    pub country: &'static str,
    /// Originated IPv4 address space.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Blackholing service offered (ground truth), if any.
    pub blackhole_offering: Option<BlackholeOffering>,
    /// Non-blackhole communities this AS attaches to routes it exports
    /// (relationship tagging, traffic engineering, location tagging).
    /// These feed Fig. 2's blackhole-vs-other prefix-length comparison
    /// and provide decoys for the dictionary miner (e.g. the Level3-style
    /// `ASN:666` peering tag that does *not* mean blackholing).
    pub tag_communities: Vec<Community>,
    /// Ground-truth usage class of each entry in `tag_communities`
    /// (parallel vector; missing entries default to
    /// [`TagClass::Informational`] via [`AsInfo::classed_tags`]).
    pub tag_classes: Vec<TagClass>,
    /// Tag communities of 32-bit-ASN networks, which have no classic
    /// (RFC 1997) encoding and are carried as RFC 8092 large
    /// communities instead.
    pub tag_large_communities: Vec<LargeTag>,
    /// Whether this AS has a PeeringDB record that discloses its type
    /// (when false, classification falls back to the CAIDA-style
    /// inference).
    pub in_peeringdb: bool,
}

impl AsInfo {
    /// An AS with no blackholing offering and no tag communities yet
    /// (the generator assigns both after the graph is built).
    pub fn new(
        asn: Asn,
        tier: Tier,
        network_type: NetworkType,
        country: &'static str,
        prefixes: Vec<Ipv4Prefix>,
        in_peeringdb: bool,
    ) -> Self {
        AsInfo {
            asn,
            tier,
            network_type,
            country,
            prefixes,
            blackhole_offering: None,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb,
        }
    }

    /// Attach the tag `ASN:value` of usage class `class`: a classic
    /// community, or — for a 32-bit ASN, which has no classic encoding —
    /// the RFC 8092 large community `ASN:value:slot`.
    pub fn push_tag(&mut self, value: u16, slot: u32, class: TagClass) {
        match classic_community(self.asn, value) {
            Some(c) => {
                self.tag_communities.push(c);
                self.tag_classes.push(class);
            }
            None => self.tag_large_communities.push(LargeTag {
                community: LargeCommunity::new(self.asn.value(), u32::from(value), slot),
                class,
            }),
        }
    }

    /// Does this AS offer blackholing?
    pub fn offers_blackholing(&self) -> bool {
        self.blackhole_offering.is_some()
    }

    /// Classic tag communities paired with their ground-truth class.
    /// Tags without a recorded class (hand-built fixtures) default to
    /// [`TagClass::Informational`].
    pub fn classed_tags(&self) -> impl Iterator<Item = (Community, TagClass)> + '_ {
        self.tag_communities
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, self.tag_classes.get(i).copied().unwrap_or(TagClass::Informational)))
    }

    /// Does this AS originate the given prefix (exactly or as a covering
    /// aggregate)?
    pub fn originates(&self, prefix: &Ipv4Prefix) -> bool {
        self.prefixes.iter().any(|p| p.contains(prefix))
    }
}

/// Identifier for an IXP (index into [`crate::Topology::ixps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IxpId(pub u32);

/// An Internet exchange point with a route server.
#[derive(Debug, Clone)]
pub struct Ixp {
    /// Identifier.
    pub id: IxpId,
    /// Human-readable name.
    pub name: String,
    /// ASN of the route server (what appears on AS paths when the route
    /// server does not strip itself — many insert their ASN).
    pub route_server_asn: Asn,
    /// Whether the route server inserts its ASN into the AS path
    /// (transparent route servers do not, which forces the peer-IP
    /// detection path in the inference).
    pub route_server_in_path: bool,
    /// The peering LAN (PeeringDB publishes these; the inference checks
    /// whether a BGP message's peer-ip falls inside one).
    pub peering_lan: Ipv4Prefix,
    /// Member ASNs.
    pub members: Vec<Asn>,
    /// Country of the IXP's (primary) location.
    pub country: &'static str,
}

impl Ixp {
    /// Is the AS a member?
    pub fn has_member(&self, asn: Asn) -> bool {
        self.members.contains(&asn)
    }

    /// The peering-LAN address assigned to a member (deterministic:
    /// member index + 2, skipping network/gateway).
    pub fn member_lan_ip(&self, asn: Asn) -> Option<Ipv4Addr> {
        let idx = self.members.iter().position(|&m| m == asn)?;
        self.peering_lan.nth_addr(idx as u64 + 2).and_then(|ip| {
            // Stay inside the LAN.
            if self.peering_lan.contains_addr(ip) {
                Some(ip)
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offering() -> BlackholeOffering {
        BlackholeOffering {
            communities: vec![Community::from_parts(3356, 9999)],
            large_community: None,
            min_accepted_length: 25,
            documentation: DocumentationChannel::Irr,
            auth: BlackholeAuth::OriginOrCone,
            blackhole_ip: None,
            strips_community: false,
            honors_no_export: true,
        }
    }

    #[test]
    fn relationship_reverse_is_involutive() {
        for r in [
            Relationship::Customer,
            Relationship::Provider,
            Relationship::Peer,
            Relationship::RouteServer,
        ] {
            assert_eq!(r.reverse().reverse(), r);
        }
        assert_eq!(Relationship::Customer.reverse(), Relationship::Provider);
        assert_eq!(Relationship::Peer.reverse(), Relationship::Peer);
    }

    #[test]
    fn offering_length_window() {
        let o = offering();
        assert!(o.accepts_length(32));
        assert!(o.accepts_length(25));
        assert!(!o.accepts_length(24));
        assert!(!o.accepts_length(8));
    }

    #[test]
    fn offering_triggers() {
        let o = offering();
        assert!(o.is_trigger(Community::from_parts(3356, 9999)));
        assert!(!o.is_trigger(Community::from_parts(3356, 666)));
        assert_eq!(o.primary_community(), Community::from_parts(3356, 9999));
    }

    #[test]
    fn as_info_originates() {
        let info = AsInfo {
            asn: Asn::new(64500),
            tier: Tier::Stub,
            network_type: NetworkType::Content,
            country: "DE",
            prefixes: vec!["130.149.0.0/16".parse().unwrap()],
            blackhole_offering: None,
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![],
            in_peeringdb: true,
        };
        assert!(info.originates(&"130.149.1.1/32".parse().unwrap()));
        assert!(info.originates(&"130.149.0.0/16".parse().unwrap()));
        assert!(!info.originates(&"130.150.0.0/16".parse().unwrap()));
        assert!(!info.offers_blackholing());
    }

    #[test]
    fn ixp_member_lan_ips_are_distinct_and_inside_lan() {
        let ixp = Ixp {
            id: IxpId(0),
            name: "TEST-IX".into(),
            route_server_asn: Asn::new(64700),
            route_server_in_path: true,
            peering_lan: "185.1.0.0/24".parse().unwrap(),
            members: vec![Asn::new(1), Asn::new(2), Asn::new(3)],
            country: "DE",
        };
        let ips: Vec<_> = ixp.members.iter().map(|&m| ixp.member_lan_ip(m).unwrap()).collect();
        assert_eq!(ips.len(), 3);
        for ip in &ips {
            assert!(ixp.peering_lan.contains_addr(*ip));
        }
        let mut dedup = ips.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        assert!(ixp.member_lan_ip(Asn::new(99)).is_none());
    }

    #[test]
    fn network_type_labels_match_paper_rows() {
        assert_eq!(NetworkType::TransitAccess.label(), "Transit/Access");
        assert_eq!(NetworkType::ALL.len(), 6);
    }
}
