//! Interning tables for [`AsPath`]s and [`CommunitySet`]s.
//!
//! The paper's workload is massively repetitive: 5.7 billion updates
//! ride on a few million distinct AS paths and far fewer distinct
//! community sets. An intern table maps each distinct value to a dense
//! small id ([`PathId`] / [`CommunitySetId`]) with O(1) hash/eq, so the
//! inference can carry and compare handles instead of structures. The
//! stored values are the Arc-backed [`AsPath`]/[`CommunitySet`] handles
//! themselves, so interning also *deduplicates storage*: every element
//! whose path was seen before shares the first occurrence's allocation.
//!
//! Ids are dense in first-seen order and never move, so a table can key
//! side vectors (the session's per-set detection plans) by id.

use std::hash::Hash;

use crate::hash::FxHashMap;

use crate::as_path::AsPath;
use crate::community::CommunitySet;

/// Dense handle for an interned [`AsPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u32);

/// Dense handle for an interned [`CommunitySet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommunitySetId(pub u32);

/// Values an intern table can hand out ids for.
pub trait Internable: Clone + Eq + Hash {
    /// The id newtype for this value kind.
    type Id: Copy;
    /// Wrap a dense index.
    fn id_of(index: u32) -> Self::Id;
    /// Unwrap to the dense index.
    fn index_of(id: Self::Id) -> u32;
}

impl Internable for AsPath {
    type Id = PathId;
    fn id_of(index: u32) -> PathId {
        PathId(index)
    }
    fn index_of(id: PathId) -> u32 {
        id.0
    }
}

impl Internable for CommunitySet {
    type Id = CommunitySetId;
    fn id_of(index: u32) -> CommunitySetId {
        CommunitySetId(index)
    }
    fn index_of(id: CommunitySetId) -> u32 {
        id.0
    }
}

/// An append-only id table: first come, first id.
///
/// Lookups ride on the values' memoized content hashes, so interning an
/// already-seen `AsPath` costs one `u64` hash write plus (usually) one
/// pointer-equality probe.
#[derive(Debug, Clone, Default)]
pub struct InternTable<T: Internable> {
    ids: FxHashMap<T, u32>,
    values: Vec<T>,
}

/// Interner for AS paths.
pub type PathTable = InternTable<AsPath>;
/// Interner for community sets.
pub type CommunitySetTable = InternTable<CommunitySet>;

impl<T: Internable> InternTable<T> {
    /// Empty table.
    pub fn new() -> Self {
        InternTable { ids: FxHashMap::default(), values: Vec::new() }
    }

    /// The id for `value`, allocating the next dense id on first sight.
    pub fn intern(&mut self, value: &T) -> T::Id {
        if let Some(&index) = self.ids.get(value) {
            return T::id_of(index);
        }
        let index = u32::try_from(self.values.len()).expect("more than u32::MAX interned values");
        self.ids.insert(value.clone(), index);
        self.values.push(value.clone());
        T::id_of(index)
    }

    /// The canonical (first-interned) handle equal to `value`, if any —
    /// lets a caller swap its copy for the shared allocation.
    pub fn canonical(&self, value: &T) -> Option<&T> {
        self.ids.get_key_value(value).map(|(k, _)| k)
    }

    /// Resolve an id back to its value.
    ///
    /// # Panics
    /// If `id` was not produced by this table.
    pub fn resolve(&self, id: T::Id) -> &T {
        &self.values[T::index_of(id) as usize]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate values in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use std::str::FromStr;

    use super::*;

    fn path(s: &str) -> AsPath {
        AsPath::from_str(s).unwrap()
    }

    #[test]
    fn interning_dedups_and_is_id_stable() {
        let mut table = PathTable::new();
        let a = table.intern(&path("3356 2914 64500"));
        let b = table.intern(&path("6939 64500"));
        let a_again = table.intern(&path("3356 2914 64500"));
        assert_eq!(a, a_again, "same value must keep its id");
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert_eq!(table.resolve(a), &path("3356 2914 64500"));
        assert_eq!(table.resolve(b), &path("6939 64500"));
    }

    #[test]
    fn canonical_returns_the_shared_allocation() {
        let mut table = PathTable::new();
        let first = path("3356 64500");
        table.intern(&first);
        let copy = path("3356 64500");
        assert!(!copy.shares_allocation(&first));
        let canonical = table.canonical(&copy).expect("interned");
        assert!(canonical.shares_allocation(&first));
        assert!(table.canonical(&path("174 1")).is_none());
    }
}
