//! K-way merge of collector element streams — the BGPStream merge as a
//! constant-memory [`ElemSource`].
//!
//! The paper's pipeline consumes a time-ordered merge of ~180 RIS and
//! Route Views collector feeds. [`MergedSource`] reproduces that merge
//! *without materializing*: it holds exactly one buffered element per
//! input source and yields the globally ordered stream one element at a
//! time, so merging hundreds of archive streams costs O(k) memory and
//! O(log k) per element.
//!
//! ## One core, two merges
//!
//! The crate-private `MergeHeap` is the only heap/refill implementation: a
//! min-heap of `(time, dataset, collector, source index)` keys over one
//! owned head per source. Heads are *moved* in
//! ([`ElemSource::next_owned`]) and moved out again when yielded — never
//! cloned — and yielding refills **only the source whose head was just
//! yielded**, replacing the heap's top in place (one sift-down) instead
//! of a pop plus a push. [`MergedSource`] is that core over sources
//! that never pend; [`LiveMerge`](crate::live::LiveMerge) is the same
//! core plus per-source pending/ended state and the watermark gate.
//!
//! ## Ordering contract
//!
//! Elements are yielded in ascending `(time, dataset, collector)` order
//! with ties between sources broken by **source index** — exactly the
//! order [`merge_streams`](crate::archive::merge_streams) produces (a
//! stable sort over the flattened streams), so the two are golden-equal
//! whenever each input source is itself ordered. That precondition
//! holds for every archive produced by this workspace (collectors
//! observe in arrival order) and is checked with a `debug_assert!` per
//! source; release builds trust the input.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use bh_bgp_types::time::SimTime;

use crate::elem::{BgpElem, DataSource};
use crate::source::ElemSource;

/// The BGPStream total order plus the stable source-index tie-break.
type MergeKey = (SimTime, DataSource, u16, usize);

fn key_of(elem: &BgpElem, index: usize) -> MergeKey {
    (elem.time, elem.dataset, elem.collector, index)
}

/// The shared k-way merge core: one owned head per source under a
/// min-heap of their [`MergeKey`]s. See the [module docs](self).
pub(crate) struct MergeHeap {
    heads: Vec<Option<BgpElem>>,
    heap: BinaryHeap<Reverse<MergeKey>>,
    current: Option<BgpElem>,
}

impl MergeHeap {
    /// A core over `k` sources, all headless.
    pub(crate) fn new(k: usize) -> Self {
        MergeHeap { heads: vec![None; k], heap: BinaryHeap::with_capacity(k), current: None }
    }

    /// Buffer `elem` as the head of the headless source `index`.
    pub(crate) fn offer(&mut self, index: usize, elem: BgpElem) {
        debug_assert!(self.heads[index].is_none(), "source {index} already has a head");
        self.heap.push(Reverse(key_of(&elem, index)));
        self.heads[index] = Some(elem);
    }

    /// Does source `index` have a buffered head?
    pub(crate) fn has_head(&self, index: usize) -> bool {
        self.heads[index].is_some()
    }

    /// Number of buffered heads.
    pub(crate) fn buffered(&self) -> usize {
        self.heap.len()
    }

    /// Timestamp of the smallest buffered head.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(key)| key.0)
    }

    /// Yield the smallest head. `refill(index)` is asked for the next
    /// element of the source that owned it — and of no other source; a
    /// `None` leaves that source headless until the next
    /// [`offer`](Self::offer).
    pub(crate) fn pop_with(
        &mut self,
        refill: impl FnOnce(usize) -> Option<BgpElem>,
    ) -> Option<&BgpElem> {
        let mut top = self.heap.peek_mut()?;
        let index = top.0 .3;
        self.current = self.heads[index].take();
        match refill(index) {
            Some(elem) => {
                let key = key_of(&elem, index);
                debug_assert!(
                    top.0 <= key,
                    "source {index} is not (time, dataset, collector)-ordered"
                );
                // Replace-top: one sift-down when `top` drops.
                *top = Reverse(key);
                self.heads[index] = Some(elem);
            }
            None => {
                PeekMut::pop(top);
            }
        }
        self.current.as_ref()
    }
}

/// A stable k-way timestamp merge over any set of [`ElemSource`]s.
///
/// Buffers one element per source; see the module docs for the ordering
/// contract. Sources of different concrete types merge via
/// `MergedSource<Box<dyn ElemSource>>`.
pub struct MergedSource<S: ElemSource> {
    sources: Vec<S>,
    core: MergeHeap,
    primed: bool,
}

impl<S: ElemSource> MergedSource<S> {
    /// Merge `sources`; index order is the tie-break order, matching the
    /// stream order `merge_streams` would have flattened.
    pub fn new(sources: Vec<S>) -> Self {
        let core = MergeHeap::new(sources.len());
        MergedSource { sources, core, primed: false }
    }

    /// Number of input sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Recover the sources (e.g. to inspect
    /// [`MrtElemSource::take_error`](crate::archive::MrtElemSource::take_error)
    /// after the merged stream ends).
    pub fn into_sources(self) -> Vec<S> {
        self.sources
    }
}

impl<S: ElemSource> ElemSource for MergedSource<S> {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        if !self.primed {
            self.primed = true;
            for (index, source) in self.sources.iter_mut().enumerate() {
                if let Some(elem) = source.next_owned() {
                    self.core.offer(index, elem);
                }
            }
        }
        let sources = &mut self.sources;
        self.core.pop_with(|index| sources[index].next_owned())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered = self.core.buffered();
        let mut lower = buffered;
        let mut upper = Some(buffered);
        for source in &self.sources {
            let (lo, hi) = source.size_hint();
            lower += lo;
            upper = match (upper, hi) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        (lower, upper)
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::as_path::AsPath;
    use bh_bgp_types::asn::Asn;
    use bh_bgp_types::community::CommunitySet;

    use super::*;
    use crate::archive::{write_updates, MrtElemSource};
    use crate::elem::ElemType;
    use crate::source::{collect_source, SliceSource};

    fn elem(t: u64, dataset: DataSource, collector: u16) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(t),
            dataset,
            collector,
            peer_asn: Asn::new(1),
            peer_ip: "10.0.0.1".parse().unwrap(),
            elem_type: ElemType::Announce,
            prefix: "192.0.2.0/24".parse().unwrap(),
            as_path: AsPath::empty(),
            communities: CommunitySet::new(),
            next_hop: None,
        }
    }

    #[test]
    fn merges_by_time_across_sources() {
        let a = vec![elem(100, DataSource::Ris, 0), elem(300, DataSource::Ris, 0)];
        let b = vec![elem(200, DataSource::RouteViews, 1), elem(400, DataSource::RouteViews, 1)];
        let merged = MergedSource::new(vec![SliceSource::new(&a), SliceSource::new(&b)]);
        let times: Vec<u64> = collect_source(merged).iter().map(|e| e.time.unix()).collect();
        assert_eq!(times, vec![100, 200, 300, 400]);
    }

    #[test]
    fn ties_break_by_dataset_then_collector() {
        // Same timestamp everywhere: the (dataset, collector) order wins,
        // exactly like merge_streams' sort key.
        let a = vec![elem(100, DataSource::RouteViews, 0)];
        let b = vec![elem(100, DataSource::Ris, 2)];
        let c = vec![elem(100, DataSource::Ris, 1)];
        let merged = MergedSource::new(vec![
            SliceSource::new(&a),
            SliceSource::new(&b),
            SliceSource::new(&c),
        ]);
        let order: Vec<(DataSource, u16)> =
            collect_source(merged).iter().map(|e| (e.dataset, e.collector)).collect();
        assert_eq!(
            order,
            vec![(DataSource::Ris, 1), (DataSource::Ris, 2), (DataSource::RouteViews, 0)]
        );
    }

    #[test]
    fn full_ties_keep_source_index_order() {
        // Identical keys: source index (= stream order) is the stable
        // tie-break, matching the stable flatten-then-sort.
        let a = vec![elem(100, DataSource::Ris, 0)];
        let b = vec![elem(100, DataSource::Ris, 0)];
        let mut tagged_a = a.clone();
        tagged_a[0].peer_asn = Asn::new(11);
        let mut tagged_b = b;
        tagged_b[0].peer_asn = Asn::new(22);
        let merged =
            MergedSource::new(vec![SliceSource::new(&tagged_a), SliceSource::new(&tagged_b)]);
        let peers: Vec<u32> = collect_source(merged).iter().map(|e| e.peer_asn.value()).collect();
        assert_eq!(peers, vec![11, 22]);
    }

    #[test]
    fn empty_and_unbalanced_sources_are_fine() {
        let a: Vec<BgpElem> = Vec::new();
        let b = vec![elem(1, DataSource::Ris, 0), elem(2, DataSource::Ris, 0)];
        let merged = MergedSource::new(vec![SliceSource::new(&a), SliceSource::new(&b)]);
        assert_eq!(collect_source(merged).len(), 2);

        let mut none: MergedSource<SliceSource<'_>> = MergedSource::new(Vec::new());
        assert!(none.next_elem().is_none());
        assert_eq!(none.size_hint(), (0, Some(0)));
    }

    #[test]
    fn size_hint_tracks_remaining() {
        let a = vec![elem(1, DataSource::Ris, 0), elem(3, DataSource::Ris, 0)];
        let b = vec![elem(2, DataSource::Pch, 0)];
        let mut merged = MergedSource::new(vec![SliceSource::new(&a), SliceSource::new(&b)]);
        assert_eq!(merged.size_hint(), (3, Some(3)));
        merged.next_elem();
        assert_eq!(merged.size_hint(), (2, Some(2)));
        while merged.next_elem().is_some() {}
        assert_eq!(merged.size_hint(), (0, Some(0)));
    }

    #[test]
    fn boxed_sources_of_mixed_types_merge() {
        let a = vec![elem(2, DataSource::Ris, 0)];
        let mut archive = Vec::new();
        write_updates(&mut archive, &[elem(1, DataSource::Cdn, 0)]).unwrap();
        let owned = MrtElemSource::from_bytes(archive, DataSource::Cdn, 0);
        let sources: Vec<Box<dyn ElemSource>> =
            vec![Box::new(SliceSource::new(&a)), Box::new(owned)];
        let times: Vec<u64> =
            collect_source(MergedSource::new(sources)).iter().map(|e| e.time.unix()).collect();
        assert_eq!(times, vec![1, 2]);
    }

    #[test]
    fn into_sources_returns_exhausted_sources() {
        let a = vec![elem(1, DataSource::Ris, 0)];
        let mut merged = MergedSource::new(vec![SliceSource::new(&a)]);
        while merged.next_elem().is_some() {}
        let sources = merged.into_sources();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].position(), 1);
    }
}
