//! Property-based tests for the BGP data model invariants.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use bh_bgp_types::as_path::{AsPath, AsPathSegment};
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::{Origin, PathAttributes};
use bh_bgp_types::community::{Community, CommunitySet, LargeCommunity};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_bgp_types::trie::PrefixTrie;
use bh_bgp_types::update::BgpUpdate;
use bh_bgp_types::wire;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(net, len)| Ipv4Prefix::from_raw(net, len))
}

fn arb_community() -> impl Strategy<Value = Community> {
    any::<u32>().prop_map(Community)
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec((1u32..100_000, 1usize..4), 0..6).prop_map(|hops| {
        let mut asns = Vec::new();
        for (asn, repeat) in hops {
            for _ in 0..repeat {
                asns.push(Asn::new(asn));
            }
        }
        AsPath::from_sequence(asns)
    })
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_as_path(),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u32>()),
        prop::collection::vec(arb_community(), 0..8),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..3),
        any::<bool>(),
        0u8..3,
    )
        .prop_map(|(as_path, med, local_pref, classic, large, atomic, origin)| {
            let mut communities = CommunitySet::from_classic(classic);
            for (a, b, c) in large {
                communities.insert_large(LargeCommunity::new(a, b, c));
            }
            PathAttributes {
                origin: Origin::from_code(origin).unwrap(),
                as_path,
                next_hop: Some("203.0.113.66".parse().unwrap()),
                med,
                local_pref,
                atomic_aggregate: atomic,
                aggregator: None,
                communities,
            }
        })
}

proptest! {
    #[test]
    fn prefix_display_parse_round_trip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Ipv4Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_parent_contains_child(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.contains(&p));
            prop_assert_eq!(parent.length() + 1, p.length());
        }
    }

    #[test]
    fn prefix_containment_is_transitive(net in any::<u32>(), a in 0u8..=32, b in 0u8..=32, c in 0u8..=32) {
        let mut lens = [a, b, c];
        lens.sort_unstable();
        let big = Ipv4Prefix::from_raw(net, lens[0]);
        let mid = Ipv4Prefix::from_raw(net, lens[1]);
        let small = Ipv4Prefix::from_raw(net, lens[2]);
        prop_assert!(big.contains(&mid));
        prop_assert!(mid.contains(&small));
        prop_assert!(big.contains(&small));
    }

    #[test]
    fn community_display_parse_round_trip(c in arb_community()) {
        let s = c.to_string();
        let back: Community = s.parse().unwrap();
        prop_assert_eq!(c, back);
    }

    #[test]
    fn as_path_display_parse_round_trip(p in arb_as_path()) {
        let s = p.to_string();
        let back: AsPath = s.parse().unwrap();
        prop_assert_eq!(p.asns(), back.asns());
    }

    #[test]
    fn prepending_removal_idempotent_and_shorter(p in arb_as_path()) {
        let once = p.without_prepending();
        let twice = once.without_prepending();
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.raw_len() <= p.raw_len());
        // No consecutive duplicates remain.
        let asns = once.asns();
        for w in asns.windows(2) {
            prop_assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn hop_before_is_next_distinct_asn(p in arb_as_path(), probe_idx in 0usize..12) {
        let flat = p.without_prepending().asns();
        if let Some(&target) = flat.get(probe_idx % flat.len().max(1)) {
            let expected = flat
                .iter()
                .position(|&a| a == target)
                .and_then(|i| flat.get(i + 1))
                .copied();
            prop_assert_eq!(p.hop_before(target), expected);
        }
    }

    #[test]
    fn attributes_wire_round_trip(attrs in arb_attrs()) {
        let encoded = wire::encode_attributes(&attrs).freeze();
        let decoded = wire::decode_attributes(encoded).unwrap();
        prop_assert_eq!(attrs, decoded);
    }

    #[test]
    fn update_message_wire_round_trip(
        attrs in arb_attrs(),
        announced in prop::collection::btree_set(arb_prefix(), 1..8),
        withdrawn in prop::collection::btree_set(arb_prefix(), 0..8),
    ) {
        let mut update = BgpUpdate::new(attrs);
        for p in &announced {
            update.announce_v4(*p);
        }
        for p in &withdrawn {
            update.withdraw_v4(*p);
        }
        let encoded = wire::encode_update_message(&update).freeze();
        let view = wire::UpdateView::parse(&encoded).unwrap().expect("an UPDATE");
        let attrs = view.attributes(None, |_| unreachable!("no cache, no key")).unwrap();
        prop_assert_eq!(attrs.as_ref(), Some(&update.attrs));
        prop_assert!(view.announced().eq(update.announced_v4().copied()));
        prop_assert!(view.withdrawn().eq(update.withdrawn_v4().copied()));
    }

    #[test]
    fn trie_longest_match_agrees_with_linear_scan(
        entries in prop::collection::btree_set(arb_prefix(), 1..40),
        addr in any::<u32>(),
    ) {
        let mut trie = PrefixTrie::new();
        for (i, p) in entries.iter().enumerate() {
            trie.insert(*p, i);
        }
        let addr = Ipv4Addr::from(addr);
        let expected = entries
            .iter()
            .filter(|p| p.contains_addr(addr))
            .max_by_key(|p| p.length());
        let got = trie.longest_match(addr).map(|(p, _)| p);
        prop_assert_eq!(got, expected.copied());
    }

    #[test]
    fn trie_insert_remove_restores(entries in prop::collection::btree_set(arb_prefix(), 1..20)) {
        let mut trie = PrefixTrie::new();
        for p in &entries {
            trie.insert(*p, ());
        }
        prop_assert_eq!(trie.len(), entries.len());
        for p in &entries {
            prop_assert!(trie.remove(p).is_some());
        }
        prop_assert!(trie.is_empty());
        prop_assert!(trie.iter().next().is_none());
    }

    #[test]
    fn simtime_ymd_round_trip(days in 0u64..40_000) {
        let t = SimTime::from_unix(days * 86_400);
        let (y, m, d) = t.ymd();
        prop_assert_eq!(SimTime::from_ymd(y, m, d), t);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    #[test]
    fn simtime_since_is_consistent(a in 0u64..1u64 << 40, delta in 0u64..1u64 << 20) {
        let t0 = SimTime::from_unix(a);
        let t1 = t0 + SimDuration::secs(delta);
        prop_assert_eq!(t1.since(t0).as_secs(), delta);
        prop_assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn community_set_is_sorted_and_unique(cs in prop::collection::vec(arb_community(), 0..30)) {
        let set = CommunitySet::from_classic(cs.clone());
        let collected: Vec<_> = set.iter().collect();
        let mut expected = cs;
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn as_set_segments_survive_wire(seq in prop::collection::vec(1u32..1000, 1..4), set in prop::collection::btree_set(1u32..1000, 1..4)) {
        let path = AsPath::from_segments(vec![
            AsPathSegment::Sequence(seq.iter().map(|&a| Asn::new(a)).collect()),
            AsPathSegment::Set(set.iter().map(|&a| Asn::new(a)).collect()),
        ]);
        let attrs = PathAttributes { as_path: path.clone(), ..Default::default() };
        let decoded = wire::decode_attributes(wire::encode_attributes(&attrs).freeze()).unwrap();
        prop_assert_eq!(decoded.as_path.segments(), path.segments());
    }
}
