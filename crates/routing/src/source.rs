//! Source-agnostic element streams: the iterator-style abstraction the
//! inference consumes.
//!
//! The paper's pipeline is an *online* algorithm over years of BGP
//! updates; materializing a `Vec<BgpElem>` per archive does not scale.
//! [`ElemSource`] decouples producers (in-memory slices, the simulator,
//! MRT archives) from consumers (the inference session), so elements can
//! be processed in arrival order with constant memory.
//!
//! `next_elem` returns a *borrow* of the next element: slice-backed
//! sources yield without cloning, and generative sources (MRT readers,
//! the merge) park the current element internally. The
//! borrow ends before the next call, which is exactly the shape an
//! online, one-pass consumer needs.

use crate::elem::BgpElem;

/// A stream of BGP elements in arrival order.
pub trait ElemSource {
    /// The next element, or `None` at end of stream.
    ///
    /// The returned borrow is only valid until the next call; one-pass
    /// consumers process it (or clone it) before advancing.
    fn next_elem(&mut self) -> Option<&BgpElem>;

    /// The next element by value — what a consumer that must *keep* the
    /// element (the k-way merge buffering one head per source) calls.
    /// Sources that own their elements override this to move the
    /// element out; the default clones the borrow, which is all a
    /// slice-backed source can do.
    fn next_owned(&mut self) -> Option<BgpElem> {
        self.next_elem().cloned()
    }

    /// Bounds on the number of elements remaining, `Iterator`-style:
    /// `(lower, upper)` with `None` meaning unbounded/unknown.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

/// Forward through mutable references so drivers can take
/// `&mut impl ElemSource` or `&mut dyn ElemSource` interchangeably.
impl<S: ElemSource + ?Sized> ElemSource for &mut S {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        (**self).next_elem()
    }

    fn next_owned(&mut self) -> Option<BgpElem> {
        (**self).next_owned()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

/// Forward through boxes so heterogeneous source sets (e.g. the inputs
/// of a [`MergedSource`](crate::merge::MergedSource)) can be
/// `Vec<Box<dyn ElemSource>>`.
impl<S: ElemSource + ?Sized> ElemSource for Box<S> {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        (**self).next_elem()
    }

    fn next_owned(&mut self) -> Option<BgpElem> {
        (**self).next_owned()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

/// An in-memory slice as a stream — zero-copy, zero-allocation.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    elems: &'a [BgpElem],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Stream over `elems` from the beginning.
    pub fn new(elems: &'a [BgpElem]) -> Self {
        SliceSource { elems, pos: 0 }
    }

    /// Elements already yielded.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl<'a> From<&'a [BgpElem]> for SliceSource<'a> {
    fn from(elems: &'a [BgpElem]) -> Self {
        SliceSource::new(elems)
    }
}

impl<'a> From<&'a Vec<BgpElem>> for SliceSource<'a> {
    fn from(elems: &'a Vec<BgpElem>) -> Self {
        SliceSource::new(elems)
    }
}

impl ElemSource for SliceSource<'_> {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        let elem = self.elems.get(self.pos)?;
        self.pos += 1;
        Some(elem)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.elems.len() - self.pos;
        (left, Some(left))
    }
}

/// Drain a source into a vector (tests, small streams; defeats the
/// constant-memory point for large ones).
pub fn collect_source(mut source: impl ElemSource) -> Vec<BgpElem> {
    let mut out = Vec::with_capacity(source.size_hint().0);
    while let Some(elem) = source.next_owned() {
        out.push(elem);
    }
    out
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::as_path::AsPath;
    use bh_bgp_types::asn::Asn;
    use bh_bgp_types::community::CommunitySet;
    use bh_bgp_types::time::SimTime;

    use super::*;
    use crate::elem::{DataSource, ElemType};

    fn elem(t: u64) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(t),
            dataset: DataSource::Ris,
            collector: 0,
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
    fn slice_source_yields_in_order_without_cloning() {
        let elems = vec![elem(1), elem(2), elem(3)];
        let mut src = SliceSource::new(&elems);
        assert_eq!(src.size_hint(), (3, Some(3)));
        let mut times = Vec::new();
        while let Some(e) = src.next_elem() {
            times.push(e.time.unix());
        }
        assert_eq!(times, vec![1, 2, 3]);
        assert_eq!(src.size_hint(), (0, Some(0)));
        assert_eq!(src.position(), 3);
        assert!(src.next_elem().is_none());
    }

    #[test]
    fn collect_round_trips_a_slice() {
        let elems = vec![elem(1), elem(2)];
        let back = collect_source(SliceSource::new(&elems));
        assert_eq!(back, elems);
    }

    #[test]
    fn mut_ref_forwarding_works() {
        fn drive(mut s: impl ElemSource) -> usize {
            let mut n = 0;
            while s.next_elem().is_some() {
                n += 1;
            }
            n
        }
        let elems = vec![elem(1), elem(2)];
        let mut src = SliceSource::new(&elems);
        assert_eq!(drive(&mut src), 2);
    }
}
