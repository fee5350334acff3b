//! Deterministic live-feed drivers: replay recorded workloads against
//! a time the caller advances.
//!
//! Live tests must never sleep on wall time, so nothing here reads a
//! clock: the driver passes `now` in. [`ReplayFeed`] turns a recorded
//! [`CollectorArchive`] set into growing [`LiveArchive`]s, appending
//! `Bytes` slices of the recording — the archives share its bytes, and
//! nothing is copied on the way to the decoder. It paces whole records
//! by their MRT timestamps — each [`pump`](ReplayFeed::pump) appends
//! every record due by `now` and advances the watermark, so a
//! `LiveMerge` downstream sees exactly the arrival pattern a real
//! collector fleet would produce. A pump costs O(lanes due + records
//! appended): the lanes wait in a min-heap keyed by their next record's
//! time, and all of them share one [`WatermarkClock`], advanced once per
//! pump.
//!
//! The unit tests add a `ScriptedFeed` that appends raw byte counts
//! regardless of record boundaries, tearing records mid-body to exercise
//! the partial-tail retry path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use bh_bgp_types::time::SimTime;
use bh_routing::elem::DataSource;
use bh_routing::live::{LiveArchive, WatermarkClock};
use bytes::Bytes;

use crate::fleet::CollectorArchive;

/// Frame an MRT byte buffer into `(timestamp, byte range)` spans, one
/// per record, without decoding payloads (12-byte header scan). Panics
/// on a torn buffer — replay inputs are workspace-written archives.
fn record_spans(bytes: &[u8]) -> Vec<(SimTime, Range<usize>)> {
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        // Unreachable because replay inputs are whole archives written by
        // `fleet_archives`, never a tail cut mid-header.
        assert!(pos + 12 <= bytes.len(), "torn MRT header in replay archive");
        // Unreachable because the slice is four bytes by construction.
        let ts = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        // Unreachable because the slice is four bytes by construction.
        let len =
            u32::from_be_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        let end = pos + 12 + len;
        // Unreachable because the writer emits each body in full after
        // its header (same whole-archive inputs).
        assert!(end <= bytes.len(), "torn MRT body in replay archive");
        spans.push((SimTime::from_unix(ts as u64), pos..end));
        pos = end;
    }
    spans
}

/// One collector's replay lane.
struct Lane {
    archive: LiveArchive,
    bytes: Bytes,
    spans: Vec<(SimTime, Range<usize>)>,
    next: usize,
}

impl Lane {
    /// When the lane next needs a pump: its next record's time, or
    /// [`SimTime::ZERO`] once it has none left (it closes at the next
    /// pump, whatever `now` is).
    fn due(&self) -> SimTime {
        self.spans.get(self.next).map_or(SimTime::ZERO, |(time, _)| *time)
    }
}

/// Replays a recorded [`CollectorArchive`] fleet as growing
/// [`LiveArchive`]s, pacing records by their MRT timestamps.
///
/// Records are appended in archive order; a record is due once its
/// timestamp is `≤ now`. After each pump an open lane's watermark is
/// `now` — the promise that everything due has been appended and future
/// appends are strictly later — and a fully replayed lane is closed.
/// Every lane's archive is on the feed's one [`WatermarkClock`].
pub struct ReplayFeed {
    lanes: Vec<Lane>,
    /// Open lanes by `(due, index)`, earliest first.
    waiting: BinaryHeap<Reverse<(SimTime, usize)>>,
    clock: WatermarkClock,
}

impl ReplayFeed {
    /// Build one lane per archive. Returns the feed plus the labelled
    /// [`LiveArchive`] handles to hand to the daemon's tailing sources
    /// (same order as `archives`).
    pub fn new(archives: &[CollectorArchive]) -> (Self, Vec<(DataSource, u16, LiveArchive)>) {
        let clock = WatermarkClock::new();
        let mut lanes = Vec::with_capacity(archives.len());
        let mut handles = Vec::with_capacity(archives.len());
        for a in archives {
            let archive = LiveArchive::on(&clock);
            handles.push((a.dataset, a.collector, archive.clone()));
            lanes.push(Lane {
                archive,
                bytes: a.bytes.clone(),
                spans: record_spans(&a.bytes),
                next: 0,
            });
        }
        let waiting = lanes.iter().enumerate().map(|(index, lane)| Reverse((lane.due(), index)));
        (ReplayFeed { waiting: waiting.collect(), lanes, clock }, handles)
    }

    /// Append every record due by `now`, close lanes that are fully
    /// replayed, then advance the shared watermark to `now`. Returns the
    /// number of records appended.
    pub fn pump(&mut self, now: SimTime) -> usize {
        let mut appended = 0;
        while let Some(&Reverse((due, index))) = self.waiting.peek() {
            if due > now {
                break;
            }
            self.waiting.pop();
            let lane = &mut self.lanes[index];
            let start = lane.next;
            while lane.next < lane.spans.len() && lane.spans[lane.next].0 <= now {
                lane.next += 1;
            }
            if lane.next > start {
                // Spans are contiguous, so one append covers the run.
                let run = lane.spans[start].1.start..lane.spans[lane.next - 1].1.end;
                if lane.archive.append(lane.bytes.slice(run)).is_ok() {
                    appended += lane.next - start;
                } else {
                    // Another handle closed the archive: the lane ends.
                    lane.next = lane.spans.len();
                }
            }
            if lane.next == lane.spans.len() {
                lane.archive.close();
            } else {
                self.waiting.push(Reverse((lane.due(), index)));
            }
        }
        self.clock.advance(now);
        appended
    }

    /// Have all lanes been fully replayed and closed?
    pub fn finished(&self) -> bool {
        self.waiting.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use bh_routing::live::{LiveMerge, LivePoll, TailingSource};
    use bh_routing::source::ElemSource;
    use bh_routing::{deploy, merge_streams, CollectorConfig};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use bh_bgp_types::time::SimDuration;

    use super::*;
    use crate::scenario::{run, ScenarioConfig};

    /// Appends one archive's bytes in caller-chosen chunk sizes, ignoring
    /// record boundaries — the torn-write generator.
    ///
    /// No watermarks are advanced: pair it with a single-source consumer
    /// (the merge safety gate does not apply) or drive watermarks by hand.
    struct ScriptedFeed {
        archive: LiveArchive,
        bytes: Bytes,
        pos: usize,
    }

    impl ScriptedFeed {
        /// Wrap `bytes`; returns the feed and the archive handle to tail.
        fn new(bytes: impl Into<Bytes>) -> (Self, LiveArchive) {
            let archive = LiveArchive::new();
            (ScriptedFeed { archive: archive.clone(), bytes: bytes.into(), pos: 0 }, archive)
        }

        /// Append the next `n` bytes (clamped to what remains). Returns how
        /// many were actually appended.
        fn append_bytes(&mut self, n: usize) -> usize {
            let end = (self.pos + n).min(self.bytes.len());
            let appended = end - self.pos;
            if appended == 0 || self.archive.append(self.bytes.slice(self.pos..end)).is_err() {
                return 0; // nothing left, or the archive was closed
            }
            self.pos = end;
            appended
        }

        /// Bytes not yet appended.
        fn remaining(&self) -> usize {
            self.bytes.len() - self.pos
        }

        /// Close the archive (with or without having appended everything —
        /// closing short fabricates a torn-tail archive).
        fn close(&self) {
            self.archive.close();
        }
    }

    fn small_world() -> (Vec<CollectorArchive>, Vec<bh_routing::BgpElem>) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        let output = run(&t, d, &ScenarioConfig::short(3, 3, 6.0), None);
        let archives = output.fleet_archives().expect("serialization succeeds");
        (archives, output.elems)
    }

    #[test]
    fn record_spans_tile_the_archive() {
        let (archives, _) = small_world();
        let a = archives.iter().find(|a| a.elems > 0).expect("an active collector");
        let spans = record_spans(&a.bytes);
        assert!(!spans.is_empty());
        assert_eq!(spans.first().expect("nonempty").1.start, 0);
        assert_eq!(spans.last().expect("nonempty").1.end, a.bytes.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].1.end, w[1].1.start, "spans are contiguous");
            assert!(w[0].0 <= w[1].0, "archive records are time-ordered");
        }
    }

    #[test]
    fn replayed_fleet_drains_to_the_batch_merge_order() {
        let (archives, elems) = small_world();
        let (mut feed, handles) = ReplayFeed::new(&archives);
        let sources =
            handles.into_iter().map(|(d, c, a)| TailingSource::new(a, d, c)).collect::<Vec<_>>();
        let mut merge = LiveMerge::new(sources);

        let start = elems.first().expect("nonempty workload").time;
        let mut now = start;
        let quantum = SimDuration::mins(10);
        let mut got = Vec::new();
        let mut pumps = 0;
        while !(feed.finished() && merge.all_ended()) {
            feed.pump(now);
            while let Some(e) = merge.next_ready() {
                // Watermark guarantee: nothing already due is held back
                // past the pump that made it safe.
                assert!(e.time <= now);
                got.push(e.clone());
            }
            now += quantum;
            pumps += 1;
            assert!(pumps < 100_000, "replay must terminate");
        }
        assert!(pumps > 10, "a multi-day workload takes many quanta");
        // The batch reference reads the same archives back (the MRT
        // round trip normalizes absent next-hops, so comparing against
        // the pre-serialization elems would be the wrong spec).
        let streams: Vec<Vec<bh_routing::BgpElem>> = archives
            .iter()
            .map(|a| {
                bh_routing::read_updates(&a.bytes[..], a.dataset, a.collector)
                    .expect("archives are intact")
            })
            .collect();
        let expected = merge_streams(streams);
        assert_eq!(got.len(), elems.len(), "no element lost or duplicated");
        assert_eq!(got, expected, "live replay reproduces the batch merge exactly");
        assert!(merge.first_error().is_none());
    }

    #[test]
    fn scripted_feed_tears_records_and_the_tail_survives() {
        let (archives, _) = small_world();
        let a = archives.iter().find(|a| a.elems > 2).expect("an active collector");
        let (mut feed, archive) = ScriptedFeed::new(a.bytes.clone());
        let mut src = TailingSource::new(archive, a.dataset, a.collector);

        // Append in a prime-sized drip so nearly every record is torn
        // across appends; count what streams out.
        let mut n = 0u64;
        while feed.remaining() > 0 {
            feed.append_bytes(13);
            loop {
                match src.poll() {
                    LivePoll::Elem(_) => n += 1,
                    LivePoll::Pending(_) => break,
                    LivePoll::End => panic!("open archive cannot end"),
                }
            }
        }
        feed.close();
        loop {
            match src.poll() {
                LivePoll::Elem(_) => n += 1,
                LivePoll::Pending(_) => panic!("closed archive cannot pend"),
                LivePoll::End => break,
            }
        }
        assert!(src.error().is_none(), "torn appends are not corruption");
        assert_eq!(n, a.elems, "every element survives the drip-feed");

        // Cross-check against the batch reader.
        let mut batch =
            bh_routing::MrtElemSource::from_bytes(a.bytes.clone(), a.dataset, a.collector);
        let mut m = 0u64;
        while batch.next_elem().is_some() {
            m += 1;
        }
        assert_eq!(n, m);
    }
}
