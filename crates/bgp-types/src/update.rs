//! BGP UPDATE messages (structured view).
//!
//! A [`BgpUpdate`] bundles announcements (NLRI) and withdrawals with one set
//! of path attributes — the unit on which the whole measurement pipeline
//! operates. Collector metadata (which peer saw it, when) is layered on top
//! by `bh-routing`/`bh-mrt`, mirroring how MRT archives wrap raw messages.

use crate::attrs::PathAttributes;
use crate::prefix::Ipv4Prefix;

/// One BGP UPDATE: zero or more announced prefixes sharing `attrs`, plus
/// zero or more withdrawn prefixes. IPv4 unicast only — the family the
/// wire codec carries and every stage downstream consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpUpdate {
    /// Path attributes for the announced NLRI.
    pub attrs: PathAttributes,
    announced_v4: Vec<Ipv4Prefix>,
    withdrawn_v4: Vec<Ipv4Prefix>,
}

impl BgpUpdate {
    /// A new, empty update carrying the given attributes.
    pub fn new(attrs: PathAttributes) -> Self {
        BgpUpdate { attrs, announced_v4: Vec::new(), withdrawn_v4: Vec::new() }
    }

    /// Convenience: a withdrawal of a single prefix (no attributes).
    pub fn withdraw(prefix: Ipv4Prefix) -> Self {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.withdraw_v4(prefix);
        update
    }

    /// Announce an IPv4 prefix (deduplicated).
    pub fn announce_v4(&mut self, prefix: Ipv4Prefix) {
        if !self.announced_v4.contains(&prefix) {
            self.announced_v4.push(prefix);
        }
    }

    /// Withdraw an IPv4 prefix (deduplicated).
    pub fn withdraw_v4(&mut self, prefix: Ipv4Prefix) {
        if !self.withdrawn_v4.contains(&prefix) {
            self.withdrawn_v4.push(prefix);
        }
    }

    /// Announced IPv4 prefixes.
    pub fn announced_v4(&self) -> impl Iterator<Item = &Ipv4Prefix> {
        self.announced_v4.iter()
    }

    /// Withdrawn IPv4 prefixes.
    pub fn withdrawn_v4(&self) -> impl Iterator<Item = &Ipv4Prefix> {
        self.withdrawn_v4.iter()
    }

    /// Does this update announce anything?
    pub fn has_announcements(&self) -> bool {
        !self.announced_v4.is_empty()
    }

    /// Does this update withdraw anything?
    pub fn has_withdrawals(&self) -> bool {
        !self.withdrawn_v4.is_empty()
    }

    /// Is this update completely empty (a no-op)?
    pub fn is_empty(&self) -> bool {
        !self.has_announcements() && !self.has_withdrawals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_path::AsPath;
    use crate::asn::Asn;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_and_withdraw_dedup() {
        let mut u = BgpUpdate::new(PathAttributes::default());
        u.announce_v4(p4("10.0.0.0/8"));
        u.announce_v4(p4("10.0.0.0/8"));
        u.withdraw_v4(p4("192.0.2.0/24"));
        u.withdraw_v4(p4("192.0.2.0/24"));
        assert_eq!(u.announced_v4().count(), 1);
        assert_eq!(u.withdrawn_v4().count(), 1);
        assert!(u.has_announcements());
        assert!(u.has_withdrawals());
        assert!(!u.is_empty());
    }

    #[test]
    fn constructors() {
        let attrs = PathAttributes {
            as_path: AsPath::from_sequence(vec![Asn::new(1)]),
            ..Default::default()
        };
        let mut a = BgpUpdate::new(attrs);
        a.announce_v4(p4("10.0.0.0/8"));
        assert!(a.has_announcements());
        assert!(!a.has_withdrawals());

        let w = BgpUpdate::withdraw(p4("10.0.0.0/8"));
        assert!(!w.has_announcements());
        assert!(w.has_withdrawals());
    }

    #[test]
    fn empty_update() {
        let u = BgpUpdate::new(PathAttributes::default());
        assert!(u.is_empty());
    }
}
