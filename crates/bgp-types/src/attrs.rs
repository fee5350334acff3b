//! BGP path attributes.
//!
//! A structured (already-parsed) view of the attributes that matter to the
//! study: `AS_PATH` (user inference, ambiguity resolution), `COMMUNITIES`
//! (the blackholing trigger), `NEXT_HOP` (IXP blackholing rewrites it to the
//! blackholing IP / null interface), plus the standard decision-process
//! attributes the routing simulator needs (`LOCAL_PREF`, `MED`).

use std::net::{IpAddr, Ipv4Addr};

use crate::as_path::AsPath;
use crate::asn::Asn;
use crate::community::CommunitySet;

/// RFC 4271 ORIGIN attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Learned from an IGP (most deliberate announcements).
    Igp,
    /// Learned from EGP (historical).
    Egp,
    /// INCOMPLETE — typically redistributed statics; common for RTBH
    /// host routes injected at the victim's border.
    Incomplete,
}

impl Origin {
    /// Wire value (0/1/2).
    pub fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Decode from the wire value.
    pub fn from_code(code: u8) -> Option<Origin> {
        match code {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

/// Attribute type codes used by the codec (RFC 4271 / 1997 / 8092).
pub mod type_code {
    /// ORIGIN.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub const MED: u8 = 4;
    /// LOCAL_PREF.
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997).
    pub const COMMUNITIES: u8 = 8;
    /// EXTENDED COMMUNITIES (RFC 4360).
    pub const EXTENDED_COMMUNITIES: u8 = 16;
    /// LARGE COMMUNITIES (RFC 8092).
    pub const LARGE_COMMUNITIES: u8 = 32;
}

/// The parsed path attributes of one announcement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// ORIGIN.
    pub origin: Origin,
    /// AS_PATH, nearest AS first.
    pub as_path: AsPath,
    /// NEXT_HOP. For IXP blackholing this is the *blackholing IP*
    /// (commonly ending in `.66` for IPv4 per the paper).
    pub next_hop: Option<IpAddr>,
    /// MULTI_EXIT_DISC.
    pub med: Option<u32>,
    /// LOCAL_PREF (iBGP / route-server contexts).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE presence.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (ASN + router id).
    pub aggregator: Option<(Asn, Ipv4Addr)>,
    /// All communities (classic + extended + large).
    pub communities: CommunitySet,
}

impl Default for PathAttributes {
    fn default() -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop: None,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: CommunitySet::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes_round_trip() {
        for origin in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(origin.code()), Some(origin));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn default_attributes_are_empty() {
        let attrs = PathAttributes::default();
        assert!(attrs.as_path.is_empty());
        assert!(attrs.communities.is_empty());
        assert_eq!(attrs.next_hop, None);
        assert!(!attrs.atomic_aggregate);
    }
}
