//! BGP UPDATE messages (structured view).
//!
//! A [`BgpUpdate`] bundles announcements (NLRI) and withdrawals with one set
//! of path attributes — the unit on which the whole measurement pipeline
//! operates. Collector metadata (which peer saw it, when) is layered on top
//! by `bh-routing`/`bh-mrt`, mirroring how MRT archives wrap raw messages.

use std::collections::BTreeSet;

use crate::attrs::PathAttributes;
use crate::prefix::Ipv4Prefix;

/// Up to this many prefixes, membership is a scan of the list; past it, a
/// sorted index takes over. Almost every UPDATE carries one prefix, and a
/// scan that short is cheaper than any index.
const SCAN_LIMIT: usize = 16;

/// Prefixes in first-seen order without duplicates — the NLRI list of one
/// UPDATE. Inserting `n` prefixes costs O(n log n), however many repeat: a
/// maximum-size UPDATE (≈ 1 350 /16s) must not cost a million comparisons.
#[derive(Debug, Clone, Default)]
pub struct PrefixList {
    order: Vec<Ipv4Prefix>,
    /// Every prefix of `order`, once it has grown past [`SCAN_LIMIT`];
    /// empty before.
    index: BTreeSet<Ipv4Prefix>,
}

impl PrefixList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `prefix` unless it is already listed; returns whether it was
    /// new.
    pub fn insert(&mut self, prefix: Ipv4Prefix) -> bool {
        if self.order.len() < SCAN_LIMIT {
            if self.order.contains(&prefix) {
                return false;
            }
        } else {
            if self.index.is_empty() {
                self.index.extend(self.order.iter().copied());
            }
            if !self.index.insert(prefix) {
                return false;
            }
        }
        self.order.push(prefix);
        true
    }

    /// Empty the list, keeping its allocation.
    pub fn clear(&mut self) {
        self.order.clear();
        if !self.index.is_empty() {
            self.index.clear();
        }
    }

    /// The prefixes, in first-seen order.
    pub fn as_slice(&self) -> &[Ipv4Prefix] {
        &self.order
    }

    /// Number of distinct prefixes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing is listed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl Extend<Ipv4Prefix> for PrefixList {
    fn extend<I: IntoIterator<Item = Ipv4Prefix>>(&mut self, prefixes: I) {
        for prefix in prefixes {
            self.insert(prefix);
        }
    }
}

impl PartialEq for PrefixList {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}

impl Eq for PrefixList {}

/// One BGP UPDATE: zero or more announced prefixes sharing `attrs`, plus
/// zero or more withdrawn prefixes. IPv4 unicast only — the family the
/// wire codec carries and every stage downstream consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpUpdate {
    /// Path attributes for the announced NLRI.
    pub attrs: PathAttributes,
    announced_v4: PrefixList,
    withdrawn_v4: PrefixList,
}

impl BgpUpdate {
    /// A new, empty update carrying the given attributes.
    pub fn new(attrs: PathAttributes) -> Self {
        BgpUpdate { attrs, announced_v4: PrefixList::new(), withdrawn_v4: PrefixList::new() }
    }

    /// Convenience: a withdrawal of a single prefix (no attributes).
    pub fn withdraw(prefix: Ipv4Prefix) -> Self {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.withdraw_v4(prefix);
        update
    }

    /// Announce an IPv4 prefix (deduplicated).
    pub fn announce_v4(&mut self, prefix: Ipv4Prefix) {
        self.announced_v4.insert(prefix);
    }

    /// Withdraw an IPv4 prefix (deduplicated).
    pub fn withdraw_v4(&mut self, prefix: Ipv4Prefix) {
        self.withdrawn_v4.insert(prefix);
    }

    /// Drop every announced and withdrawn prefix, keeping the attributes
    /// and the lists' allocations (one update reused across many
    /// messages).
    pub fn clear_prefixes(&mut self) {
        self.announced_v4.clear();
        self.withdrawn_v4.clear();
    }

    /// Announced IPv4 prefixes.
    pub fn announced_v4(&self) -> impl Iterator<Item = &Ipv4Prefix> {
        self.announced_v4.as_slice().iter()
    }

    /// Withdrawn IPv4 prefixes.
    pub fn withdrawn_v4(&self) -> impl Iterator<Item = &Ipv4Prefix> {
        self.withdrawn_v4.as_slice().iter()
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
    fn prefix_list_keeps_first_seen_order_past_the_scan_limit() {
        // Distinct prefixes in a scrambled order, each one repeated at
        // once and again later, across the switch to the sorted index.
        let distinct: Vec<Ipv4Prefix> =
            (0..200u32).map(|i| Ipv4Prefix::from_raw((i * 7919 % 200) << 16, 16)).collect();
        let mut list = PrefixList::new();
        for (i, &p) in distinct.iter().enumerate() {
            assert!(list.insert(p), "{p} is new");
            assert!(!list.insert(p), "{p} repeats at once");
            assert!(!list.insert(distinct[i / 2]), "an earlier prefix repeats");
        }
        assert_eq!(list.as_slice(), &distinct[..]);
        list.clear();
        assert!(list.is_empty());
        assert!(list.insert(distinct[0]));
        assert_eq!(list.len(), 1);
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
    fn clear_prefixes_keeps_the_attributes() {
        let attrs = PathAttributes { med: Some(7), ..Default::default() };
        let mut u = BgpUpdate::new(attrs.clone());
        u.announce_v4(p4("10.0.0.0/8"));
        u.withdraw_v4(p4("192.0.2.0/24"));
        u.clear_prefixes();
        assert!(u.is_empty());
        assert_eq!(u.attrs, attrs);
        u.withdraw_v4(p4("10.0.0.0/8"));
        assert_eq!(u.withdrawn_v4().count(), 1);
    }

    #[test]
    fn empty_update() {
        let u = BgpUpdate::new(PathAttributes::default());
        assert!(u.is_empty());
    }
}
