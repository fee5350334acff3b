//! Bogon filtering (§3 "BGP Data Cleaning").
//!
//! The paper eliminates "non-routable, private, and bogon prefixes
//! (archived weekly snapshots) reported in the Cymru bogon list, and
//! eliminates prefixes less-specific than /8". [`BogonFilter`] reproduces
//! that cleaning stage: a static martian list (the stable core of the
//! Cymru feed) plus the /8 rule.

use crate::prefix::Ipv4Prefix;

/// The reason an announcement was rejected by cleaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BogonReason {
    /// Covered by a martian/bogon block (private, reserved, documentation…).
    Bogon(Ipv4Prefix),
    /// Less specific than /8 (e.g. /7, /0).
    TooCoarse,
}

/// The static martian blocks: RFC 1918, loopback, link-local, TEST-NETs,
/// benchmarking, CGN space, class D/E, and the zero network.
pub const MARTIAN_BLOCKS: &[(&str, &str)] = &[
    ("0.0.0.0/8", "this network (RFC 791)"),
    ("10.0.0.0/8", "private (RFC 1918)"),
    ("100.64.0.0/10", "carrier-grade NAT (RFC 6598)"),
    ("127.0.0.0/8", "loopback (RFC 1122)"),
    ("169.254.0.0/16", "link local (RFC 3927)"),
    ("172.16.0.0/12", "private (RFC 1918)"),
    ("192.0.0.0/24", "IETF protocol assignments (RFC 6890)"),
    ("192.0.2.0/24", "TEST-NET-1 (RFC 5737)"),
    ("192.88.99.0/24", "6to4 relay anycast (deprecated, RFC 7526)"),
    ("192.168.0.0/16", "private (RFC 1918)"),
    ("198.18.0.0/15", "benchmarking (RFC 2544)"),
    ("198.51.100.0/24", "TEST-NET-2 (RFC 5737)"),
    ("203.0.113.0/24", "TEST-NET-3 (RFC 5737)"),
    ("224.0.0.0/4", "multicast (class D)"),
    ("240.0.0.0/4", "reserved (class E)"),
];

/// A Team-Cymru-style bogon filter.
#[derive(Debug, Clone)]
pub struct BogonFilter {
    /// The blocks as `(network, mask, prefix)`: every check is one linear
    /// pass of word compares.
    flat: Vec<(u32, u32, Ipv4Prefix)>,
    /// Reject prefixes with length below this (the paper's "/8 rule").
    min_length: u8,
}

/// The network mask of a prefix length (`/0` → empty mask).
fn mask_of(length: u8) -> u32 {
    if length == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(length.min(32)))
    }
}

impl Default for BogonFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl BogonFilter {
    /// A filter loaded with the static martian list and the /8 rule.
    pub fn new() -> Self {
        let mut filter = BogonFilter { flat: Vec::new(), min_length: 8 };
        for (prefix, _) in MARTIAN_BLOCKS {
            filter.insert_block(prefix.parse().expect("static martian table is valid"));
        }
        filter
    }

    /// A permissive filter with no blocks and no /8 rule (for tests that
    /// need to route documentation space).
    pub fn permissive() -> Self {
        BogonFilter { flat: Vec::new(), min_length: 0 }
    }

    fn insert_block(&mut self, prefix: Ipv4Prefix) {
        self.flat.push((prefix.network_bits(), mask_of(prefix.length()), prefix));
    }

    /// Check a prefix; `Err` carries the reason for rejection.
    pub fn check(&self, prefix: &Ipv4Prefix) -> Result<(), BogonReason> {
        if prefix.length() < self.min_length {
            return Err(BogonReason::TooCoarse);
        }
        // One linear pass over the flattened blocks: in prefix space any
        // overlap is containment one way or the other, so two word
        // compares per block decide everything. A block covering the
        // prefix (or equal to it) is the classic bogon case; a prefix
        // *strictly containing* a block would route reserved space, so it
        // is rejected too (a /9 inside 10.0.0.0/8 is the first case; a /7
        // covering it falls to the /8 rule or to this one).
        let net = prefix.network_bits();
        let mask = mask_of(prefix.length());
        for &(block_net, block_mask, block) in &self.flat {
            if net & block_mask == block_net {
                return Err(BogonReason::Bogon(block));
            }
            if block_net & mask == net {
                return Err(BogonReason::Bogon(*prefix));
            }
        }
        Ok(())
    }

    /// Is the prefix clean (routable)?
    pub fn is_routable(&self, prefix: &Ipv4Prefix) -> bool {
        self.check(prefix).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn martians_are_rejected() {
        let f = BogonFilter::new();
        for (block, _) in MARTIAN_BLOCKS {
            assert!(!f.is_routable(&p4(block)), "{block} should be bogon");
        }
    }

    #[test]
    fn more_specifics_of_martians_are_rejected() {
        let f = BogonFilter::new();
        assert!(!f.is_routable(&p4("10.1.2.0/24")));
        assert!(!f.is_routable(&p4("192.168.1.1/32")));
        assert!(!f.is_routable(&p4("203.0.113.5/32")));
    }

    #[test]
    fn coarse_prefixes_rejected_by_slash8_rule() {
        let f = BogonFilter::new();
        assert_eq!(f.check(&p4("8.0.0.0/7")), Err(BogonReason::TooCoarse));
        assert_eq!(f.check(&p4("0.0.0.0/0")), Err(BogonReason::TooCoarse));
        assert!(f.is_routable(&p4("8.0.0.0/8")));
    }

    #[test]
    fn ordinary_space_is_routable() {
        let f = BogonFilter::new();
        for s in ["8.8.8.0/24", "130.149.0.0/16", "130.149.1.1/32", "185.0.0.0/12"] {
            assert!(f.is_routable(&p4(s)), "{s} should be routable");
        }
    }

    #[test]
    fn rejection_reasons_identify_block() {
        let f = BogonFilter::new();
        match f.check(&p4("10.1.0.0/16")) {
            Err(BogonReason::Bogon(block)) => assert_eq!(block, p4("10.0.0.0/8")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn coarse_cover_of_martian_is_bogon() {
        // 192.0.0.0/8 is /8-compliant but contains TEST-NETs entirely.
        let f = BogonFilter::new();
        assert!(!f.is_routable(&p4("192.0.0.0/8")));
    }

    #[test]
    fn permissive_filter_accepts_everything() {
        let f = BogonFilter::permissive();
        assert!(f.is_routable(&p4("10.0.0.0/8")));
        assert!(f.is_routable(&p4("0.0.0.0/0")));
    }

    #[test]
    fn bogon_addr_lookup() {
        let f = BogonFilter::new();
        assert!(f.check(&p4("10.0.0.1/32")).is_err());
        assert!(f.check(&p4("8.8.8.8/32")).is_ok());
    }

    #[test]
    fn addr_lookup_agrees_with_the_prefix_check_at_block_edges() {
        let f = BogonFilter::new();
        let host_route = |a: u32| Ipv4Prefix::from_raw(a, 32);
        let blocks: Vec<Ipv4Prefix> = MARTIAN_BLOCKS.iter().map(|(b, _)| p4(b)).collect();
        let in_a_block =
            |a: u32| blocks.iter().any(|b| a & mask_of(b.length()) == b.network_bits());
        for block in &blocks {
            let first = block.network_bits();
            let last = first | !mask_of(block.length());
            for a in [first.wrapping_sub(1), first, last, last.wrapping_add(1)] {
                assert_eq!(
                    in_a_block(a),
                    f.check(&host_route(a)).is_err(),
                    "{} at the edge of {block}",
                    Ipv4Addr::from(a)
                );
            }
        }
    }
}
