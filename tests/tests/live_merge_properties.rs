//! Properties of the sweep-once `LiveMerge`: for any fleet size and any
//! writer schedule (whole and torn appends, caught-up, lagging and
//! stalled watermarks, early closes) it must
//!
//! 1. drain to exactly the `merge_streams` order,
//! 2. yield every element in the *same step* as a merge that re-polls
//!    every headless source on every call (the pre-sweep-rule behaviour,
//!    kept below as [`ResweepMerge`]) — i.e. sweeping once per step adds
//!    no emission latency,
//! 3. spend at most `k + 2·yielded` source polls per step,
//! 4. resume from `delivered()` at any cut via `with_skip` into the
//!    remainder of the uninterrupted drain.

mod common;

use std::ops::Range;

use proptest::prelude::*;

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_routing::archive::write_updates;
use bh_routing::{
    merge_streams, BgpElem, DataSource, ElemType, LiveArchive, LiveMerge, LivePoll, TailingSource,
};

use common::record_spans;

/// Source `index`'s label. Neighbouring pairs share a label, so full
/// `(time, dataset, collector)` ties fall through to the source index.
fn label(index: usize) -> (DataSource, u16) {
    (DataSource::ALL[index % 4], (index / 8) as u16)
}

/// An element that survives the MRT round trip verbatim.
fn mk_elem(index: usize, time: u64, announce: bool, net: u32) -> BgpElem {
    let (dataset, collector) = label(index);
    BgpElem {
        time: SimTime::from_unix(time),
        dataset,
        collector,
        peer_asn: Asn::new(64_500 + index as u32),
        peer_ip: "198.51.100.7".parse().unwrap(),
        elem_type: if announce { ElemType::Announce } else { ElemType::Withdraw },
        prefix: Ipv4Prefix::from_raw(net, 24),
        as_path: if announce {
            AsPath::from_sequence(vec![Asn::new(3356)])
        } else {
            AsPath::empty()
        },
        communities: if announce {
            CommunitySet::from_classic(vec![Community::from_parts(3356, 666)])
        } else {
            CommunitySet::new()
        },
        next_hop: announce.then(|| "203.0.113.66".parse().unwrap()),
    }
}

/// The writer side of one archive: the full recording and how much of
/// it has been appended.
struct Writer {
    archive: LiveArchive,
    bytes: Vec<u8>,
    spans: Vec<(SimTime, Range<usize>)>,
    appended: usize,
    closed: bool,
}

impl Writer {
    fn new(stream: &[BgpElem]) -> Self {
        let mut bytes = Vec::new();
        write_updates(&mut bytes, stream).expect("archive serializes");
        let spans = record_spans(&bytes);
        Writer { archive: LiveArchive::new(), bytes, spans, appended: 0, closed: false }
    }

    fn append_to(&mut self, end: usize) {
        if !self.closed && end > self.appended {
            self.archive
                .append(&self.bytes[self.appended..end])
                .expect("appends precede the close");
            self.appended = end;
        }
    }

    /// Complete the torn record, if any, then `n - 1` more.
    fn append_records(&mut self, n: usize) {
        let first = self.spans.iter().position(|(_, span)| span.end > self.appended);
        if let Some(first) = first {
            let last = (first + n - 1).min(self.spans.len() - 1);
            self.append_to(self.spans[last].1.end);
        }
    }

    fn append_bytes(&mut self, n: usize) {
        self.append_to((self.appended + n).min(self.bytes.len()));
    }

    /// The highest watermark the contract allows: strictly before the
    /// first record not yet appended whole. (Record times start at 1:
    /// a fresh archive's watermark is already 0.)
    fn legal_watermark(&self) -> SimTime {
        match self.spans.iter().find(|(_, span)| span.end > self.appended) {
            Some((time, _)) => SimTime::from_unix(time.unix().saturating_sub(1)),
            None => SimTime::from_unix(1_000_000),
        }
    }

    fn advance(&self, lag: u64) {
        let to = self.legal_watermark().unix().saturating_sub(lag);
        self.archive.advance_watermark(SimTime::from_unix(to));
    }

    /// What a paced feed does: append every record due by `now`, then
    /// promise as much of `now` as the contract allows.
    fn pump(&mut self, now: SimTime) {
        let due = self.spans.iter().take_while(|(time, _)| *time <= now).last();
        if let Some((_, span)) = due {
            self.append_to(span.end);
        }
        self.archive.advance_watermark(now.min(self.legal_watermark()));
    }

    fn finish(&mut self) {
        self.append_to(self.bytes.len());
        if !self.closed {
            self.archive.close();
            self.closed = true;
        }
    }
}

/// One writer action: `(source pick, kind, amount)`. A step is a list
/// of these, then optionally a fleet-wide [`Writer::pump`], then the
/// drain.
type Op = (usize, u8, usize);

fn apply(writers: &mut [Writer], (pick, kind, amount): Op) {
    let k = writers.len();
    let writer = &mut writers[pick % k];
    match kind % 7 {
        // A caught-up writer: whole records, watermark right behind.
        0 | 1 => {
            writer.append_records(amount % 4 + 1);
            writer.advance(0);
        }
        // Whole records under a stalled watermark.
        2 => writer.append_records(amount % 4 + 1),
        // A torn append: bytes, wherever they end.
        3 => writer.append_bytes(amount),
        4 => writer.advance(0),
        // A lagging watermark.
        5 => writer.advance(amount as u64),
        _ => writer.finish(),
    }
}

fn tailing(writers: &[Writer], skips: &[u64]) -> Vec<TailingSource> {
    writers
        .iter()
        .zip(skips)
        .enumerate()
        .map(|(index, (w, skip))| {
            let (dataset, collector) = label(index);
            TailingSource::with_skip(w.archive.clone(), dataset, collector, *skip)
        })
        .collect()
}

/// The reference: the watermark-gated merge that polls every headless
/// source on every call and scans for the minimum head.
struct ResweepMerge {
    sources: Vec<TailingSource>,
    heads: Vec<Option<BgpElem>>,
    ended: Vec<bool>,
    watermarks: Vec<SimTime>,
}

impl ResweepMerge {
    fn new(sources: Vec<TailingSource>) -> Self {
        let k = sources.len();
        ResweepMerge {
            sources,
            heads: vec![None; k],
            ended: vec![false; k],
            watermarks: vec![SimTime::ZERO; k],
        }
    }

    fn all_ended(&self) -> bool {
        self.ended.iter().all(|e| *e) && self.heads.iter().all(|h| h.is_none())
    }

    fn next_ready(&mut self) -> Option<BgpElem> {
        for i in 0..self.sources.len() {
            if self.heads[i].is_none() && !self.ended[i] {
                match self.sources[i].poll() {
                    LivePoll::Elem(e) => self.heads[i] = Some(e),
                    LivePoll::Pending(w) => self.watermarks[i] = self.watermarks[i].max(w),
                    LivePoll::End => self.ended[i] = true,
                }
            }
        }
        let (time, index) = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|e| ((e.time, e.dataset, e.collector, i), i)))
            .min()
            .map(|(key, i)| (key.0, i))?;
        let held = (0..self.sources.len())
            .any(|i| self.heads[i].is_none() && !self.ended[i] && self.watermarks[i] < time);
        if held {
            return None;
        }
        self.heads[index].take()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn sweep_once_merge_matches_the_resweep_reference(
        k in 1usize..=64,
        elems in prop::collection::vec((0usize..64, 1u64..300, any::<bool>(), any::<u32>()), 0..400),
        script in prop::collection::vec(
            (
                prop::collection::vec((0usize..64, any::<u8>(), 1usize..200), 0..24),
                prop::option::of(0u64..320),
            ),
            1..30,
        ),
        cut_percent in 0usize..=100,
    ) {
        let mut streams: Vec<Vec<BgpElem>> = vec![Vec::new(); k];
        for (pick, time, announce, net) in elems {
            streams[pick % k].push(mk_elem(pick % k, time, announce, net));
        }
        for stream in &mut streams {
            stream.sort_by_key(|e| e.time);
        }
        let expected = merge_streams(streams.clone());
        let cut_at = expected.len() * cut_percent / 100;

        let mut writers: Vec<Writer> = streams.iter().map(|s| Writer::new(s)).collect();
        let fresh = vec![0u64; k];
        let mut merge = LiveMerge::new(tailing(&writers, &fresh));
        let mut reference = ResweepMerge::new(tailing(&writers, &fresh));

        let mut drained: Vec<BgpElem> = Vec::new();
        let mut cut = None;
        let mut steps = script.into_iter();
        let mut finishing = 0;
        while !(merge.all_ended() && reference.all_ended()) {
            match steps.next() {
                Some((ops, pump)) => {
                    ops.into_iter().for_each(|op| apply(&mut writers, op));
                    if let Some(now) = pump {
                        writers.iter_mut().for_each(|w| w.pump(SimTime::from_unix(now)));
                    }
                }
                // Script over: every writer appends its rest and closes.
                None => {
                    writers.iter_mut().for_each(Writer::finish);
                    finishing += 1;
                    prop_assert!(finishing <= 2, "closed, complete archives drain in one step");
                }
            }

            let polls_before = merge.polls();
            let step_start = drained.len();
            loop {
                if drained.len() == cut_at && cut.is_none() {
                    cut = Some(merge.delivered());
                }
                match merge.next_ready() {
                    Some(elem) => drained.push(elem.clone()),
                    None => break,
                }
            }
            let yielded = drained.len() - step_start;
            let mut reference_step = Vec::new();
            while let Some(elem) = reference.next_ready() {
                reference_step.push(elem);
            }

            // (ii) same elements, same step.
            prop_assert_eq!(&drained[step_start..], &reference_step[..]);
            // (iii) one sweep plus one refill poll per yielded element.
            let polls = merge.polls() - polls_before;
            prop_assert!(
                polls <= (k + 2 * yielded) as u64,
                "{polls} polls for {yielded} elems over {k} sources"
            );
        }

        // (i) the drained order is the batch merge order.
        prop_assert!(merge.first_error().is_none());
        prop_assert_eq!(&drained, &expected);

        // (iv) resume from the cut: the remainder, exactly.
        let skips: Vec<u64> =
            cut.expect("the cut is reached").into_iter().map(|(_, n)| n).collect();
        prop_assert_eq!(skips.iter().sum::<u64>(), cut_at as u64);
        let mut resumed = LiveMerge::new(tailing(&writers, &skips));
        let mut rest = Vec::new();
        while let Some(elem) = resumed.next_ready() {
            rest.push(elem.clone());
        }
        prop_assert!(resumed.all_ended());
        prop_assert_eq!(&rest[..], &expected[cut_at..]);
    }
}
