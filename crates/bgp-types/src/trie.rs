//! Binary prefix trie for IPv4 with longest-prefix match.
//!
//! Used by the bogon filter ("is this announcement inside a bogon block?"),
//! the routing simulator's RIB lookups, and the inference engine's
//! covering-prefix queries (e.g. finding the non-blackholed less-specific
//! that contains a blackholed /32, §10's control-target selection).
//!
//! Nodes live in one arena `Vec` with `u32` child indices instead of
//! per-node boxed pointers: a node is 2×4 bytes of links plus the value,
//! allocation is a `Vec` push (amortized, no per-node malloc), removal
//! recycles slots through a free list, and a descent walks one
//! contiguous allocation instead of chasing heap pointers.

use std::net::Ipv4Addr;

use crate::prefix::Ipv4Prefix;

/// Sentinel child index meaning "no child".
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    value: Option<T>,
    /// Arena indices of the 0-bit and 1-bit children ([`NONE`] = absent).
    children: [u32; 2],
}

impl<T> Node<T> {
    fn empty() -> Self {
        Node { value: None, children: [NONE, NONE] }
    }
}

/// A map from IPv4 prefixes to values with longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    /// Node arena; index 0 is the root and is never freed.
    nodes: Vec<Node<T>>,
    /// Recycled arena slots, reused before the arena grows.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie { nodes: vec![Node::empty()], free: Vec::new(), len: 0 }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the trie empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bit(network: u32, depth: u8) -> usize {
        ((network >> (31 - depth as u32)) & 1) as usize
    }

    /// Allocate an empty node, recycling freed slots first.
    fn alloc(&mut self) -> u32 {
        if let Some(index) = self.free.pop() {
            debug_assert!(self.nodes[index as usize].value.is_none());
            debug_assert_eq!(self.nodes[index as usize].children, [NONE, NONE]);
            index
        } else {
            let index = u32::try_from(self.nodes.len()).expect("more than u32::MAX trie nodes");
            self.nodes.push(Node::empty());
            index
        }
    }

    /// Insert a prefix→value mapping; returns the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let bits = prefix.network_bits();
        let mut index = 0u32;
        for depth in 0..prefix.length() {
            let b = Self::bit(bits, depth);
            let child = self.nodes[index as usize].children[b];
            index = if child == NONE {
                let fresh = self.alloc();
                self.nodes[index as usize].children[b] = fresh;
                fresh
            } else {
                child
            };
        }
        let old = self.nodes[index as usize].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove a prefix; returns its value if present. Emptied branches
    /// are pruned and their arena slots recycled.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let bits = prefix.network_bits();
        // Descent path as (parent index, child slot), for pruning.
        let mut path: Vec<(u32, usize)> = Vec::with_capacity(prefix.length() as usize);
        let mut index = 0u32;
        for depth in 0..prefix.length() {
            let b = Self::bit(bits, depth);
            let child = self.nodes[index as usize].children[b];
            if child == NONE {
                return None;
            }
            path.push((index, b));
            index = child;
        }
        let out = self.nodes[index as usize].value.take()?;
        self.len -= 1;
        let mut current = index;
        while let Some((parent, b)) = path.pop() {
            let node = &self.nodes[current as usize];
            if node.value.is_some() || node.children != [NONE, NONE] {
                break;
            }
            self.nodes[parent as usize].children[b] = NONE;
            self.free.push(current);
            current = parent;
        }
        Some(out)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let bits = prefix.network_bits();
        let mut index = 0u32;
        for depth in 0..prefix.length() {
            index = self.nodes[index as usize].children[Self::bit(bits, depth)];
            if index == NONE {
                return None;
            }
        }
        self.nodes[index as usize].value.as_ref()
    }

    /// Longest-prefix match for a single address: the most specific stored
    /// prefix containing `addr`, with its value.
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &T)> {
        self.best_along(u32::from(addr), 32)
    }

    /// The most specific stored prefix that *properly or equally* covers
    /// `prefix` (i.e. contains all of it).
    pub fn covering(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &T)> {
        self.best_along(prefix.network_bits(), prefix.length())
    }

    /// Deepest valued node on the descent of `bits`, at most `max_depth`
    /// levels down.
    fn best_along(&self, bits: u32, max_depth: u8) -> Option<(Ipv4Prefix, &T)> {
        let mut index = 0u32;
        let mut best: Option<(u8, &T)> = None;
        if let Some(v) = self.nodes[0].value.as_ref() {
            best = Some((0, v));
        }
        for depth in 0..max_depth {
            index = self.nodes[index as usize].children[Self::bit(bits, depth)];
            if index == NONE {
                break;
            }
            if let Some(v) = self.nodes[index as usize].value.as_ref() {
                best = Some((depth + 1, v));
            }
        }
        best.map(|(len, v)| (Ipv4Prefix::from_raw(bits, len), v))
    }

    /// Does any stored prefix cover `prefix` entirely?
    pub fn covers(&self, prefix: &Ipv4Prefix) -> bool {
        self.covering(prefix).is_some()
    }

    /// Iterate all stored `(prefix, value)` pairs in lexicographic
    /// (network, length) order — lazily, with no allocation beyond the
    /// traversal stack (at most one frame per trie level).
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { trie: self, stack: vec![(0, 0, 0)], remaining: self.len }
    }
}

impl<'a, T> IntoIterator for &'a PrefixTrie<T> {
    type Item = (Ipv4Prefix, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Lazy pre-order traversal of a [`PrefixTrie`].
///
/// Pre-order (node value, then the 0-child subtree, then the 1-child
/// subtree) *is* lexicographic `(network, length)` order: a node's
/// prefix sorts before every descendant (same network bits, shorter
/// length), and the 0-subtree's networks all sort below the 1-subtree's.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    trie: &'a PrefixTrie<T>,
    /// Arena indices still to visit, each with the network bits and depth
    /// of its position; the top of the stack is the next node in order.
    stack: Vec<(u32, u32, u8)>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((index, bits, depth)) = self.stack.pop() {
            let node = &self.trie.nodes[index as usize];
            // Push the 1-child first so the 0-child pops (and yields)
            // before it.
            if node.children[1] != NONE {
                self.stack.push((node.children[1], bits | (1 << (31 - depth as u32)), depth + 1));
            }
            if node.children[0] != NONE {
                self.stack.push((node.children[0], bits, depth + 1));
            }
            if let Some(v) = node.value.as_ref() {
                self.remaining -= 1;
                return Some((Ipv4Prefix::from_raw(bits, depth), v));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p4("10.0.0.0/8"), "a"), None);
        assert_eq!(t.insert(p4("10.0.0.0/8"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p4("10.0.0.0/8")), Some(&"b"));
        assert_eq!(t.get(&p4("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p4("10.0.0.0/8")), Some("b"));
        assert_eq!(t.remove(&p4("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p4("10.0.0.0/8"), 8);
        t.insert(p4("10.1.0.0/16"), 16);
        t.insert(p4("10.1.2.0/24"), 24);
        let (p, v) = t.longest_match(addr("10.1.2.3")).unwrap();
        assert_eq!((p, *v), (p4("10.1.2.0/24"), 24));
        let (p, v) = t.longest_match(addr("10.1.9.9")).unwrap();
        assert_eq!((p, *v), (p4("10.1.0.0/16"), 16));
        let (p, v) = t.longest_match(addr("10.200.0.1")).unwrap();
        assert_eq!((p, *v), (p4("10.0.0.0/8"), 8));
        assert!(t.longest_match(addr("11.0.0.1")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(p4("0.0.0.0/0"), ());
        assert!(t.longest_match(addr("8.8.8.8")).is_some());
        assert!(t.covers(&p4("192.0.2.0/24")));
    }

    #[test]
    fn covering_respects_prefix_extent() {
        let mut t = PrefixTrie::new();
        t.insert(p4("10.1.2.0/24"), ());
        // A /16 is wider than the stored /24: not covered.
        assert!(!t.covers(&p4("10.1.0.0/16")));
        // The /24 itself and anything inside it is covered.
        assert!(t.covers(&p4("10.1.2.0/24")));
        assert!(t.covers(&p4("10.1.2.128/25")));
        assert!(t.covers(&p4("10.1.2.55/32")));
        assert!(!t.covers(&p4("10.1.3.0/24")));
    }

    #[test]
    fn covering_returns_most_specific_cover() {
        let mut t = PrefixTrie::new();
        t.insert(p4("10.0.0.0/8"), 8);
        t.insert(p4("10.1.0.0/16"), 16);
        let (p, v) = t.covering(&p4("10.1.2.0/24")).unwrap();
        assert_eq!((p, *v), (p4("10.1.0.0/16"), 16));
        let (p, v) = t.covering(&p4("10.2.0.0/16")).unwrap();
        assert_eq!((p, *v), (p4("10.0.0.0/8"), 8));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = PrefixTrie::new();
        let prefixes = ["192.0.2.0/24", "10.0.0.0/8", "10.1.0.0/16", "0.0.0.0/0"];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p4(s), i);
        }
        let mut iter = t.iter();
        assert_eq!(iter.len(), 4);
        assert_eq!(iter.size_hint(), (4, Some(4)));
        assert_eq!(iter.next().map(|(p, _)| p), Some(p4("0.0.0.0/0")));
        assert_eq!(iter.len(), 3, "lazy iterator tracks remaining items");
        let keys: Vec<_> = t.iter().map(|(p, _)| p).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 4);
        // Values ride along, and `&trie` iterates too.
        let total: usize = (&t).into_iter().map(|(_, v)| *v).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn remove_prunes_empty_branches() {
        let mut t = PrefixTrie::new();
        t.insert(p4("10.1.2.3/32"), ());
        t.remove(&p4("10.1.2.3/32"));
        // Tree fully pruned: nothing matches and iteration is empty.
        assert!(t.longest_match(addr("10.1.2.3")).is_none());
        assert!(t.iter().next().is_none());
        assert_eq!(t.nodes.len() - t.free.len(), 1, "only the root survives");
    }

    #[test]
    fn removing_inner_keeps_outer() {
        let mut t = PrefixTrie::new();
        t.insert(p4("10.0.0.0/8"), 8);
        t.insert(p4("10.1.0.0/16"), 16);
        t.remove(&p4("10.1.0.0/16"));
        let (p, _) = t.longest_match(addr("10.1.0.1")).unwrap();
        assert_eq!(p, p4("10.0.0.0/8"));
    }

    #[test]
    fn arena_recycles_slots_across_churn() {
        let mut t = PrefixTrie::new();
        t.insert(p4("10.1.2.3/32"), 1);
        // Insert/remove churn on a sibling branch must reuse freed slots
        // rather than grow the arena without bound: after the first round
        // has carved out the sibling's slots, the arena length must not
        // move again.
        t.insert(p4("10.1.2.4/32"), 0);
        assert_eq!(t.remove(&p4("10.1.2.4/32")), Some(0));
        let settled = t.nodes.len();
        for round in 1..10 {
            t.insert(p4("10.1.2.4/32"), round);
            assert_eq!(t.remove(&p4("10.1.2.4/32")), Some(round));
        }
        assert_eq!(t.nodes.len(), settled, "arena grew past first-round size");
        assert_eq!(t.get(&p4("10.1.2.3/32")), Some(&1));
    }
}
