//! Autonomous System Numbers.
//!
//! ASNs are 32-bit since RFC 6793; the original 16-bit space still matters
//! for the classic RFC 1997 community format, whose first 16 bits encode an
//! ASN. The blackhole-community dictionary of the paper therefore needs to
//! know whether a 16-bit value names a *public* ASN ("we ignore communities
//! for which the first 16 bits do not encode a public ASN", §4.1).

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;

/// An Autonomous System Number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// AS_TRANS (RFC 6793): stands in for 32-bit ASNs on 16-bit-only sessions.
    pub const TRANS: Asn = Asn(23456);
    /// Reserved ASN 0 (RFC 7607) — must never originate routes.
    pub const ZERO: Asn = Asn(0);
    /// Last 16-bit ASN.
    pub const MAX_16BIT: u32 = 65_535;

    /// Create a new ASN from a raw number.
    pub const fn new(value: u32) -> Self {
        Asn(value)
    }

    /// Raw numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Does this ASN fit in the classic 16-bit space?
    pub const fn is_16bit(self) -> bool {
        self.0 <= Self::MAX_16BIT
    }

    /// Is this a private-use ASN (RFC 6996)?
    ///
    /// 64512–65534 (16-bit) and 4200000000–4294967294 (32-bit).
    pub const fn is_private(self) -> bool {
        (self.0 >= 64_512 && self.0 <= 65_534)
            || (self.0 >= 4_200_000_000 && self.0 <= 4_294_967_294)
    }

    /// Is this ASN reserved (not assignable to an operator)?
    ///
    /// Covers ASN 0, AS_TRANS, 65535 (reserved, used by well-known
    /// communities such as RFC 7999's `65535:666`), the RFC 5398
    /// documentation ranges (64496–64511, 65536–65551), and 4294967295.
    pub const fn is_reserved(self) -> bool {
        matches!(self.0, 0 | 23_456 | 65_535 | 4_294_967_295)
            || (self.0 >= 64_496 && self.0 <= 64_511)
            || (self.0 >= 65_536 && self.0 <= 65_551)
    }

    /// A *public* ASN: one that could identify a real network operator.
    ///
    /// This is the predicate used when deciding whether the high 16 bits of
    /// a community can be mapped to a blackholing provider.
    pub const fn is_public(self) -> bool {
        !self.is_private() && !self.is_reserved()
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(value: u32) -> Self {
        Asn(value)
    }
}

impl From<u16> for Asn {
    fn from(value: u16) -> Self {
        Asn(value as u32)
    }
}

impl From<Asn> for u32 {
    fn from(value: Asn) -> Self {
        value.0
    }
}

impl FromStr for Asn {
    type Err = ParseError;

    /// Accepts `"6939"`, `"AS6939"`, or `"as6939"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .unwrap_or(s);
        digits.parse::<u32>().map(Asn).map_err(|_| ParseError::new(format!("invalid ASN: {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let asn = Asn::new(3356);
        assert_eq!(asn.to_string(), "AS3356");
        assert_eq!("AS3356".parse::<Asn>().unwrap(), asn);
        assert_eq!("3356".parse::<Asn>().unwrap(), asn);
        assert_eq!("as3356".parse::<Asn>().unwrap(), asn);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("ASfoo".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
        assert!("-5".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn sixteen_bit_boundary() {
        assert!(Asn::new(65_535).is_16bit());
        assert!(!Asn::new(65_536).is_16bit());
    }

    #[test]
    fn private_ranges() {
        assert!(Asn::new(64_512).is_private());
        assert!(Asn::new(65_534).is_private());
        assert!(!Asn::new(64_511).is_private());
        assert!(!Asn::new(65_535).is_private());
        assert!(Asn::new(4_200_000_000).is_private());
        assert!(Asn::new(4_294_967_294).is_private());
        assert!(!Asn::new(4_294_967_295).is_private());
    }

    #[test]
    fn reserved_values() {
        assert!(Asn::ZERO.is_reserved());
        assert!(Asn::TRANS.is_reserved());
        assert!(Asn::new(65_535).is_reserved());
        assert!(Asn::new(64_496).is_reserved());
        assert!(Asn::new(65_551).is_reserved());
        assert!(Asn::new(4_294_967_295).is_reserved());
        assert!(!Asn::new(3356).is_reserved());
    }

    #[test]
    fn public_asn_predicate_matches_paper_usage() {
        // The paper ignores communities like 65535:666 / 0:666 when mapping
        // the high 16 bits to a provider — those are not public ASNs.
        assert!(!Asn::new(65_535).is_public());
        assert!(!Asn::new(0).is_public());
        assert!(!Asn::new(64_512).is_public());
        // Real operators are public.
        assert!(Asn::new(3356).is_public());
        assert!(Asn::new(174).is_public());
        assert!(Asn::new(196_608).is_public()); // first public 32-bit ASN after doc range
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Asn::new(2) < Asn::new(10));
    }
}
