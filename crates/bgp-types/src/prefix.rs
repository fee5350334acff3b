//! CIDR prefixes.
//!
//! The inference methodology leans heavily on prefix specificity:
//! blackholing providers accept routes *more specific than /24* only when
//! tagged with a blackhole community, 98% of observed blackholed prefixes
//! are /32 host routes, and data cleaning drops prefixes *less specific
//! than /8*. These predicates are first-class here.

use std::cmp::Ordering;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::error::ParseError;

/// An IPv4 CIDR prefix, stored canonically (host bits zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    network: u32,
    length: u8,
}

impl Ipv4Prefix {
    /// Construct a prefix from a network address and length, masking any
    /// host bits. Lengths > 32 are clamped errors.
    pub fn new(addr: Ipv4Addr, length: u8) -> Result<Self, ParseError> {
        if length > 32 {
            return Err(ParseError::new(format!("IPv4 prefix length {length} > 32")));
        }
        let raw = u32::from(addr);
        Ok(Ipv4Prefix { network: raw & Self::mask(length), length })
    }

    /// Construct from raw network bits; masks host bits. Panics if
    /// `length > 32` — intended for trusted, programmatic construction.
    pub fn from_raw(network: u32, length: u8) -> Self {
        assert!(length <= 32, "IPv4 prefix length {length} > 32");
        Ipv4Prefix { network: network & Self::mask(length), length }
    }

    /// A host route (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix { network: u32::from(addr), length: 32 }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// Raw network bits.
    pub fn network_bits(&self) -> u32 {
        self.network
    }

    /// The prefix length.
    pub fn length(&self) -> u8 {
        self.length
    }

    /// The netmask for a given length.
    fn mask(length: u8) -> u32 {
        if length == 0 {
            0
        } else {
            u32::MAX << (32 - length as u32)
        }
    }

    /// Number of addresses covered (saturates at `u64` precision).
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - self.length as u32)
    }

    /// Does this prefix contain the given address?
    pub fn contains_addr(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & Self::mask(self.length)) == self.network
    }

    /// Does this prefix fully contain `other` (i.e. `other` is equal or
    /// more specific and falls inside this network)?
    pub fn contains(&self, other: &Ipv4Prefix) -> bool {
        self.length <= other.length && (other.network & Self::mask(self.length)) == self.network
    }

    /// Is this prefix *more specific than* (strictly longer than) `/len`?
    ///
    /// `p.is_more_specific_than(24)` is the paper's "more-specific than /24"
    /// predicate that gates blackhole acceptance.
    pub fn is_more_specific_than(&self, len: u8) -> bool {
        self.length > len
    }

    /// Is this a host route (`/32`)?
    pub fn is_host_route(&self) -> bool {
        self.length == 32
    }

    /// The immediately less-specific covering prefix, or `None` for `/0`.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.length == 0 {
            None
        } else {
            Some(Ipv4Prefix::from_raw(self.network, self.length - 1))
        }
    }

    /// The "neighbor" host inside the same /31, used by the efficacy
    /// experiment to pick a non-blackholed control target next to a
    /// blackholed /32 (§10: "we select another target in the same /31").
    pub fn sibling_host(&self) -> Option<Ipv4Prefix> {
        if self.length != 32 {
            return None;
        }
        Some(Ipv4Prefix { network: self.network ^ 1, length: 32 })
    }

    /// Iterate the `n`-th address inside the prefix (0-based), if in range.
    pub fn nth_addr(&self, n: u64) -> Option<Ipv4Addr> {
        if n >= self.address_count() {
            return None;
        }
        Some(Ipv4Addr::from(self.network.wrapping_add(n as u32)))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.length)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParseError::new(format!("missing '/' in prefix: {s:?}")))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| ParseError::new(format!("bad IPv4 address in prefix: {s:?}")))?;
        let len: u8 =
            len.parse().map_err(|_| ParseError::new(format!("bad prefix length in: {s:?}")))?;
        Ipv4Prefix::new(addr, len)
    }
}

impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.network.cmp(&other.network).then(self.length.cmp(&other.length))
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonical_form_masks_host_bits() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p, p4("10.1.0.0/16"));
    }

    #[test]
    fn display_parse_round_trip() {
        for s in ["0.0.0.0/0", "130.149.1.1/32", "192.0.2.0/24", "10.0.0.0/8"] {
            assert_eq!(p4(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("300.0.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let big = p4("10.0.0.0/8");
        let small = p4("10.42.0.0/16");
        let host = p4("10.42.1.1/32");
        assert!(big.contains(&small));
        assert!(big.contains(&host));
        assert!(small.contains(&host));
        assert!(!small.contains(&big));
        assert!(!p4("11.0.0.0/8").contains(&small));
        // A prefix contains itself.
        assert!(big.contains(&big));
    }

    #[test]
    fn contains_addr() {
        let p = p4("192.0.2.0/24");
        assert!(p.contains_addr(Ipv4Addr::new(192, 0, 2, 200)));
        assert!(!p.contains_addr(Ipv4Addr::new(192, 0, 3, 1)));
    }

    #[test]
    fn specificity_predicates() {
        assert!(p4("1.2.3.4/32").is_more_specific_than(24));
        assert!(p4("1.2.3.0/25").is_more_specific_than(24));
        assert!(!p4("1.2.3.0/24").is_more_specific_than(24));
    }

    #[test]
    fn host_route_and_sibling() {
        let h = p4("130.149.1.1/32");
        assert!(h.is_host_route());
        assert_eq!(h.sibling_host().unwrap().to_string(), "130.149.1.0/32");
        assert_eq!(p4("130.149.1.0/32").sibling_host().unwrap(), h);
        assert!(p4("130.149.1.0/24").sibling_host().is_none());
    }

    #[test]
    fn parent_walks_up() {
        let h = p4("130.149.1.1/32");
        let parent = h.parent().unwrap();
        assert_eq!(parent.length(), 31);
        assert!(parent.contains(&h));
        assert!(p4("0.0.0.0/0").parent().is_none());
    }

    #[test]
    fn address_count() {
        assert_eq!(p4("1.2.3.4/32").address_count(), 1);
        assert_eq!(p4("1.2.3.0/24").address_count(), 256);
        assert_eq!(p4("0.0.0.0/0").address_count(), 1u64 << 32);
    }

    #[test]
    fn nth_addr() {
        let p = p4("192.0.2.0/30");
        assert_eq!(p.nth_addr(0).unwrap(), Ipv4Addr::new(192, 0, 2, 0));
        assert_eq!(p.nth_addr(3).unwrap(), Ipv4Addr::new(192, 0, 2, 3));
        assert!(p.nth_addr(4).is_none());
    }

    #[test]
    fn ordering_is_by_network_then_length() {
        let mut v = vec![p4("10.0.0.0/16"), p4("10.0.0.0/8"), p4("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p4("9.0.0.0/8"), p4("10.0.0.0/8"), p4("10.0.0.0/16")]);
    }
}
