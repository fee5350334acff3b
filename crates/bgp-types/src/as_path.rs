//! AS paths.
//!
//! The inference uses AS paths for three things (§4.2):
//!
//! 1. Resolving *ambiguous* blackhole communities (shared values such as
//!    `0:666`): a candidate provider must appear on the path.
//! 2. Inferring the *blackholing user* as "the AS before the blackholing
//!    provider along the AS path (after removing AS path prepending)".
//! 3. Measuring the *propagation distance* between collector peer and
//!    provider (Fig. 7(c)), where "no path" indicates community bundling.
//!
//! `AsPath` is a cheap handle: the segment storage lives behind an
//! [`Arc`], so cloning a path (which the merge heap, the fleet reader
//! threads, and the per-prefix elem fan-out all do per element) is a
//! reference-count bump instead of a deep copy. Two derived quantities
//! are memoized per allocation — the content hash (making repeated
//! `HashMap` lookups and interning O(1) after the first) and the
//! deprepended path (which `hop_before`/`distance_from_peer`/`hop_len`
//! recompute once instead of per call).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use crate::asn::Asn;
use crate::error::ParseError;

/// One path segment: an ordered `AS_SEQUENCE` or an unordered `AS_SET`
/// (the latter arises from route aggregation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// Ordered sequence of ASNs, nearest first.
    Sequence(Vec<Asn>),
    /// Unordered set of ASNs from aggregation.
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// The ASNs in the segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// Wire type code (RFC 4271): 1 = AS_SET, 2 = AS_SEQUENCE.
    pub fn type_code(&self) -> u8 {
        match self {
            AsPathSegment::Set(_) => 1,
            AsPathSegment::Sequence(_) => 2,
        }
    }
}

/// Shared path storage plus per-allocation caches. The caches are
/// derived data only — equality and hashing are defined purely over
/// `segments`, so two inners with the same segments are interchangeable
/// regardless of which caches have been populated.
#[derive(Debug, Default)]
struct PathInner {
    segments: Vec<AsPathSegment>,
    /// Memoized content hash (see [`AsPath::content_hash`]).
    hash: OnceLock<u64>,
    /// Memoized deprepended form: `None` means the path is already free
    /// of prepending (so `without_prepending` can return `self` and no
    /// Arc cycle is ever created).
    deprepended: OnceLock<Option<Arc<PathInner>>>,
}

impl PathInner {
    fn from_segments(segments: Vec<AsPathSegment>) -> Self {
        PathInner { segments, hash: OnceLock::new(), deprepended: OnceLock::new() }
    }
}

/// An AS path: the reverse-chronological list of ASes an announcement has
/// traversed. `path.asns()[0]` is the collector-side peer AS; the last
/// element is the origin.
#[derive(Clone)]
pub struct AsPath {
    inner: Arc<PathInner>,
}

fn empty_inner() -> Arc<PathInner> {
    static EMPTY: OnceLock<Arc<PathInner>> = OnceLock::new();
    EMPTY
        .get_or_init(|| {
            let inner = PathInner::from_segments(Vec::new());
            let _ = inner.deprepended.set(None); // trivially prepending-free
            Arc::new(inner)
        })
        .clone()
}

impl Default for AsPath {
    fn default() -> Self {
        AsPath::empty()
    }
}

impl AsPath {
    /// Empty path (as seen on iBGP or at an origin's own table). Shares
    /// one static allocation, so per-withdrawal empty paths are free.
    pub fn empty() -> Self {
        AsPath { inner: empty_inner() }
    }

    /// Build a pure-sequence path from a slice, nearest AS first.
    pub fn from_sequence(asns: impl Into<Vec<Asn>>) -> Self {
        let asns = asns.into();
        if asns.is_empty() {
            AsPath::empty()
        } else {
            AsPath::from_segments(vec![AsPathSegment::Sequence(asns)])
        }
    }

    /// Build from raw segments.
    pub fn from_segments(segments: Vec<AsPathSegment>) -> Self {
        if segments.is_empty() {
            return AsPath::empty();
        }
        AsPath { inner: Arc::new(PathInner::from_segments(segments)) }
    }

    /// The raw segments.
    pub fn segments(&self) -> &[AsPathSegment] {
        &self.inner.segments
    }

    /// Do two handles share one allocation? (True after a `clone`, or
    /// when both came from the same intern-table entry.)
    pub fn shares_allocation(&self, other: &AsPath) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Flattened ASN list in path order (sets contribute their members in
    /// stored order).
    pub fn asns(&self) -> Vec<Asn> {
        self.iter_asns().collect()
    }

    /// Iterate the flattened ASN list without allocating.
    pub fn iter_asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.inner.segments.iter().flat_map(|s| s.asns().iter().copied())
    }

    /// Is the path empty?
    pub fn is_empty(&self) -> bool {
        self.inner.segments.iter().all(|s| s.asns().is_empty())
    }

    /// Total number of ASNs including duplicates from prepending.
    pub fn raw_len(&self) -> usize {
        self.inner.segments.iter().map(|s| s.asns().len()).sum()
    }

    /// Number of *distinct consecutive* hops, i.e. length after removing
    /// prepending. This is the "AS-level path length" used in Fig. 9(b).
    pub fn hop_len(&self) -> usize {
        self.deprepended().segments.iter().map(|s| s.asns().len()).sum()
    }

    /// The first (collector-peer-side) AS.
    pub fn first(&self) -> Option<Asn> {
        self.iter_asns().next()
    }

    /// The origin AS (last on the path), if unambiguous. Returns `None`
    /// for empty paths or when the path ends in a multi-member AS_SET.
    pub fn origin(&self) -> Option<Asn> {
        match self.inner.segments.last() {
            Some(AsPathSegment::Sequence(v)) => v.last().copied(),
            Some(AsPathSegment::Set(v)) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    }

    /// Does `asn` appear anywhere on the path?
    pub fn contains(&self, asn: Asn) -> bool {
        self.inner.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// Prepend an AS `count` times at the front (what a router does when
    /// exporting: adds its own ASN, possibly repeated for traffic
    /// engineering). Copy-on-write: other handles to the same path are
    /// unaffected, and this handle's memoized caches are rebuilt lazily.
    pub fn prepend(&mut self, asn: Asn, count: usize) {
        if count == 0 {
            return;
        }
        let mut segments = self.inner.segments.clone();
        match segments.first_mut() {
            Some(AsPathSegment::Sequence(v)) => {
                v.splice(0..0, std::iter::repeat_n(asn, count));
            }
            _ => {
                segments.insert(0, AsPathSegment::Sequence(vec![asn; count]));
            }
        }
        self.inner = Arc::new(PathInner::from_segments(segments));
    }

    /// A copy with consecutive duplicate ASNs collapsed ("after removing
    /// AS path prepending", §4.2). Set segments are preserved as-is.
    ///
    /// Memoized: the collapse runs once per allocation, and paths that
    /// carry no prepending (the common case) return a handle to the
    /// *same* allocation rather than a copy.
    pub fn without_prepending(&self) -> AsPath {
        match self.deprepended_memo() {
            None => self.clone(),
            Some(inner) => AsPath { inner: Arc::clone(inner) },
        }
    }

    /// The memoized deprepended form, borrowed: this path's own storage
    /// when it carries no prepending.
    fn deprepended(&self) -> &PathInner {
        self.deprepended_memo().map_or(&self.inner, |inner| inner)
    }

    /// Fill the deprepended memo on first use. A path without adjacent
    /// repeats or empty segments — what `deprepend` would return
    /// unchanged — is recognised without building the copy.
    fn deprepended_memo(&self) -> Option<&Arc<PathInner>> {
        self.inner
            .deprepended
            .get_or_init(|| {
                if is_deprepended(&self.inner.segments) {
                    return None;
                }
                let inner = PathInner::from_segments(deprepend(&self.inner.segments));
                let _ = inner.deprepended.set(None); // collapse is idempotent
                Some(Arc::new(inner))
            })
            .as_ref()
    }

    /// The AS immediately *before* `target` on the path (i.e. one hop
    /// farther from the collector, one hop closer to the origin), after
    /// prepending removal.
    ///
    /// This is exactly the paper's blackholing-user inference: "we infer
    /// the blackholing user as the AS before the blackholing provider along
    /// the AS path (after removing AS path prepending)". Returns `None` if
    /// `target` is absent or is the origin.
    pub fn hop_before(&self, target: Asn) -> Option<Asn> {
        let clean = self.without_prepending();
        let mut iter = clean.iter_asns();
        iter.find(|&a| a == target)?;
        iter.next()
    }

    /// Zero-based position of `asn` on the deprepended path, counted from
    /// the collector-peer end. Fig. 7(c)'s "AS distance" between collector
    /// and provider.
    pub fn distance_from_peer(&self, asn: Asn) -> Option<usize> {
        self.without_prepending().iter_asns().position(|a| a == asn)
    }

    /// The memoized content hash: a deterministic hash of the segments,
    /// computed once per allocation. `Hash` forwards to this, so hashing
    /// a long path after the first time costs one `u64` write.
    pub fn content_hash(&self) -> u64 {
        *self.inner.hash.get_or_init(|| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            self.inner.segments.hash(&mut hasher);
            hasher.finish()
        })
    }
}

/// Whether [`deprepend`] returns `input` unchanged: no segment is empty
/// and no ASN of a sequence repeats the one before it (the previous
/// sequence's last ASN included; a set breaks the chain).
fn is_deprepended(input: &[AsPathSegment]) -> bool {
    let mut last: Option<Asn> = None;
    for seg in input {
        match seg {
            AsPathSegment::Sequence(v) => {
                for &asn in v {
                    if last == Some(asn) {
                        return false;
                    }
                    last = Some(asn);
                }
            }
            AsPathSegment::Set(_) => last = None,
        }
        if seg.asns().is_empty() {
            return false;
        }
    }
    true
}

/// Collapse consecutive duplicate ASNs across sequence segments.
fn deprepend(input: &[AsPathSegment]) -> Vec<AsPathSegment> {
    let mut segments = Vec::with_capacity(input.len());
    let mut last: Option<Asn> = None;
    for seg in input {
        match seg {
            AsPathSegment::Sequence(v) => {
                let mut out = Vec::with_capacity(v.len());
                for &asn in v {
                    if last != Some(asn) {
                        out.push(asn);
                        last = Some(asn);
                    }
                }
                if !out.is_empty() {
                    segments.push(AsPathSegment::Sequence(out));
                }
            }
            AsPathSegment::Set(v) => {
                if !v.is_empty() {
                    segments.push(AsPathSegment::Set(v.clone()));
                    last = None;
                }
            }
        }
    }
    segments
}

impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality short-circuits the common interned case.
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.segments == other.inner.segments
    }
}

impl Eq for AsPath {}

impl Hash for AsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsPath").field("segments", &self.inner.segments).finish()
    }
}

impl fmt::Display for AsPath {
    /// Renders like a looking glass: `"3356 2914 64500"`, sets in braces
    /// `"{64501,64502}"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.inner.segments {
            match seg {
                AsPathSegment::Sequence(v) => {
                    for asn in v {
                        if !first {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", asn.value())?;
                        first = false;
                    }
                }
                AsPathSegment::Set(v) => {
                    if !first {
                        write!(f, " ")?;
                    }
                    write!(f, "{{")?;
                    for (i, asn) in v.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", asn.value())?;
                    }
                    write!(f, "}}")?;
                    first = false;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for AsPath {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut segments: Vec<AsPathSegment> = Vec::new();
        let mut seq: Vec<Asn> = Vec::new();
        for token in s.split_whitespace() {
            if let Some(inner) = token.strip_prefix('{') {
                let inner = inner
                    .strip_suffix('}')
                    .ok_or_else(|| ParseError::new(format!("unterminated AS_SET in {s:?}")))?;
                if !seq.is_empty() {
                    segments.push(AsPathSegment::Sequence(std::mem::take(&mut seq)));
                }
                let mut set = Vec::new();
                for part in inner.split(',') {
                    if part.is_empty() {
                        continue;
                    }
                    set.push(part.parse::<Asn>()?);
                }
                segments.push(AsPathSegment::Set(set));
            } else {
                seq.push(token.parse::<Asn>()?);
            }
        }
        if !seq.is_empty() {
            segments.push(AsPathSegment::Sequence(seq));
        }
        Ok(AsPath::from_segments(segments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    fn asn(v: u32) -> Asn {
        Asn::new(v)
    }

    #[test]
    fn build_and_display() {
        let p = AsPath::from_sequence(vec![asn(3356), asn(2914), asn(64500)]);
        assert_eq!(p.to_string(), "3356 2914 64500");
        assert_eq!(p.raw_len(), 3);
        assert_eq!(p.first(), Some(asn(3356)));
        assert_eq!(p.origin(), Some(asn(64500)));
    }

    #[test]
    fn parse_round_trip_with_sets() {
        let p = path("3356 2914 {64501,64502}");
        assert_eq!(p.to_string(), "3356 2914 {64501,64502}");
        assert!(p.contains(asn(64501)));
        // Origin ambiguous with a multi-member trailing set.
        assert_eq!(p.origin(), None);
    }

    #[test]
    fn parse_rejects_unterminated_set() {
        assert!("3356 {64501".parse::<AsPath>().is_err());
    }

    #[test]
    fn prepending_removal() {
        let p = path("3356 3356 3356 2914 64500 64500");
        let clean = p.without_prepending();
        assert_eq!(clean.to_string(), "3356 2914 64500");
        assert_eq!(clean.hop_len(), clean.raw_len());
        assert_eq!(p.hop_len(), 3);
        assert_eq!(p.raw_len(), 6);
    }

    #[test]
    fn prepending_removal_is_idempotent() {
        let p = path("1 1 2 3 3 3 4");
        assert_eq!(p.without_prepending(), p.without_prepending().without_prepending());
    }

    #[test]
    fn prepending_across_segments_not_collapsed_through_sets() {
        // Sets break the "consecutive" chain.
        let p = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![asn(1), asn(1)]),
            AsPathSegment::Set(vec![asn(2)]),
            AsPathSegment::Sequence(vec![asn(1)]),
        ]);
        let clean = p.without_prepending();
        assert_eq!(clean.asns(), vec![asn(1), asn(2), asn(1)]);
    }

    #[test]
    fn the_no_copy_check_agrees_with_the_collapse() {
        let seq = |v: &[u32]| AsPathSegment::Sequence(v.iter().copied().map(asn).collect());
        let set = |v: &[u32]| AsPathSegment::Set(v.iter().copied().map(asn).collect());
        let cases = [
            vec![],
            vec![seq(&[1, 2, 3])],
            vec![seq(&[1, 1, 2])],
            vec![seq(&[1, 2]), seq(&[2, 3])],
            vec![seq(&[1, 2]), seq(&[3])],
            vec![seq(&[1]), set(&[1]), seq(&[1])],
            vec![seq(&[1]), set(&[2, 2])],
            vec![seq(&[]), seq(&[1])],
            vec![seq(&[1]), set(&[])],
        ];
        for segments in cases {
            let unchanged = deprepend(&segments) == segments;
            assert_eq!(is_deprepended(&segments), unchanged, "{segments:?}");
            let p = AsPath::from_segments(segments);
            assert_eq!(p.hop_len(), p.without_prepending().raw_len(), "{p:?}");
        }
    }

    #[test]
    fn hop_before_infers_blackholing_user() {
        // Collector peer -> provider (3356) -> user (64500): the user is the
        // AS *after* the provider when reading from the collector side.
        let p = path("6939 3356 64500");
        assert_eq!(p.hop_before(asn(3356)), Some(asn(64500)));
        // Prepending by the user must not confuse the inference.
        let p = path("6939 3356 64500 64500 64500");
        assert_eq!(p.hop_before(asn(3356)), Some(asn(64500)));
        // Provider at origin: nobody behind it.
        let p = path("6939 3356");
        assert_eq!(p.hop_before(asn(3356)), None);
        // Provider absent.
        assert_eq!(p.hop_before(asn(174)), None);
    }

    #[test]
    fn distance_from_peer_matches_fig7c_semantics() {
        let p = path("6939 1299 3356 64500");
        assert_eq!(p.distance_from_peer(asn(6939)), Some(0)); // direct peering
        assert_eq!(p.distance_from_peer(asn(3356)), Some(2));
        assert_eq!(p.distance_from_peer(asn(174)), None); // "no path" → bundling
                                                          // Prepending shouldn't inflate the distance.
        let p = path("6939 6939 1299 3356");
        assert_eq!(p.distance_from_peer(asn(3356)), Some(2));
    }

    #[test]
    fn prepend_grows_front() {
        let mut p = path("2914 64500");
        p.prepend(asn(3356), 3);
        assert_eq!(p.to_string(), "3356 3356 3356 2914 64500");
        p.prepend(asn(174), 0);
        assert_eq!(p.raw_len(), 5);
    }

    #[test]
    fn prepend_onto_empty_path() {
        let mut p = AsPath::empty();
        assert!(p.is_empty());
        p.prepend(asn(64500), 1);
        assert_eq!(p.to_string(), "64500");
        assert_eq!(p.origin(), Some(asn(64500)));
    }

    #[test]
    fn empty_path_edge_cases() {
        let p = AsPath::empty();
        assert_eq!(p.first(), None);
        assert_eq!(p.origin(), None);
        assert_eq!(p.hop_len(), 0);
        assert_eq!(p.to_string(), "");
        assert_eq!(path("").raw_len(), 0);
    }

    #[test]
    fn clone_is_shared_and_cow_isolates_mutation() {
        let a = path("3356 2914 64500");
        let b = a.clone();
        assert!(a.shares_allocation(&b));
        let mut c = b.clone();
        c.prepend(asn(174), 1);
        assert!(!c.shares_allocation(&a));
        assert_eq!(a.to_string(), "3356 2914 64500", "COW must not leak into siblings");
        assert_eq!(c.to_string(), "174 3356 2914 64500");
    }

    #[test]
    fn equal_paths_hash_equal_regardless_of_provenance() {
        let a = path("3356 2914 {64501,64502}");
        let b = AsPath::from_segments(vec![
            AsPathSegment::Sequence(vec![asn(3356), asn(2914)]),
            AsPathSegment::Set(vec![asn(64501), asn(64502)]),
        ]);
        assert!(!a.shares_allocation(&b));
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        // The lazy hash memo is interior mutability that never affects
        // Eq/Hash, so AsPath is a sound HashSet key despite the lint.
        #[allow(clippy::mutable_key_type)]
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn clean_paths_share_their_deprepended_form() {
        let clean = path("6939 3356 64500");
        assert!(clean.without_prepending().shares_allocation(&clean));
        let prepended = path("6939 6939 3356");
        let collapsed = prepended.without_prepending();
        assert!(!collapsed.shares_allocation(&prepended));
        // Memoized: a second call returns the same allocation.
        assert!(prepended.without_prepending().shares_allocation(&collapsed));
        // Empty/default paths share the static empty allocation.
        assert!(AsPath::empty().shares_allocation(&AsPath::default()));
        assert!(AsPath::from_segments(Vec::new()).shares_allocation(&AsPath::empty()));
    }
}
