//! A fast, non-cryptographic hasher for the pipeline's hot maps.
//!
//! The session and decode hot paths probe several hash maps per
//! announcement (intern tables, the open-event map, the attribute-block
//! cache). Those keys are either already-mixed content hashes or tiny
//! fixed-size values, so SipHash's DoS resistance buys nothing there —
//! all inputs come from our own decoder, not from an attacker who can
//! choose map keys. [`FxHasher`] is the rustc-style multiply-rotate
//! hasher: a few cycles per word instead of a SipHash round.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the golden-ratio family (same constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` word-at-a-time hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (deterministic: no per-map seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_and_distinguishes_values() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
        assert_ne!(hash_of(&(7u32, 8u8)), hash_of(&(8u32, 7u8)));
    }

    #[test]
    fn maps_work_with_arbitrary_keys() {
        let mut m: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        m.insert(vec![1, 2, 3], 1);
        m.insert(vec![], 2);
        assert_eq!(m.get(&vec![1, 2, 3]), Some(&1));
        assert_eq!(m.get(&vec![]), Some(&2));
    }

    #[test]
    fn bytes_keys_are_found_from_borrowed_slices() {
        let mut m: FxHashMap<bytes::Bytes, u32> = FxHashMap::default();
        m.insert(bytes::Bytes::from(vec![0, 1, 2, 3]).slice(1..), 7);
        assert_eq!(m.get(&[1u8, 2, 3][..]), Some(&7));
        assert_eq!(m.get(&[1u8, 2][..]), None);
    }
}
