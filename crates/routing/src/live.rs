//! Live ingestion substrate: tailing *growing* archives with bounded
//! merge latency.
//!
//! The batch pipeline ([`MrtElemSource`] → [`MergedSource`](crate::merge::MergedSource)) assumes
//! complete archives: a source that returns `None` is finished forever.
//! A near-real-time service instead tails archives that collectors are
//! still writing, so this module provides the live primitives the
//! `bh-live` daemon builds on:
//!
//! * [`LiveArchive`] — a shared, append-only run of byte chunks standing
//!   in for one collector's updates file on disk, with a **watermark**:
//!   the writer's promise that every record with `time ≤ watermark` has
//!   been appended (future appends are strictly later). Watermarks are
//!   what let a merge emit without waiting for a quiet collector to
//!   produce its next record. The watermark lives on a
//!   [`WatermarkClock`], private to the archive or shared by every
//!   archive one writer feeds, so that writer promises a time once for
//!   all of them.
//! * [`TailingSource`] — re-polls one [`LiveArchive`] for appended
//!   chunks, hands them to [`bh_mrt::TailingReader`] as they are (shared,
//!   not copied; a partial trailing record is retried on the next poll,
//!   never skipped as corrupt), and yields [`LivePoll::Elem`] /
//!   [`LivePoll::Pending`] / [`LivePoll::End`]. A source that last
//!   reported `Pending` and finds nothing appended answers from the
//!   archive's atomics alone, without touching its decoder.
//! * [`LiveMerge`] — the k-way `(time, dataset, collector)` merge over
//!   tailing sources. It yields an element only once it is *safe*: every
//!   source that might still produce an earlier element (no buffered
//!   head, not ended) must have a watermark at or past the candidate's
//!   timestamp. On a fully delivered prefix, its order is exactly the
//!   [`merge_streams`](crate::archive::merge_streams) order, so a
//!   drained live run reproduces the batch stream bit for bit.
//!
//! None of them reads the wall clock: watermarks are set by the writer,
//! and the `bh-live` daemon is handed the current time by whoever steps
//! it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;

use bh_bgp_types::time::SimTime;
use bh_mrt::{MrtError, TailingReader};

use crate::archive::MrtElemSource;
use crate::elem::{BgpElem, DataSource};
use crate::merge::MergeHeap;
use crate::source::ElemSource;

/// [`LiveArchive::append`] after [`LiveArchive::close`]: a writer bug,
/// refused without touching the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveClosed;

impl std::fmt::Display for ArchiveClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("append to a closed LiveArchive")
    }
}

impl std::error::Error for ArchiveClosed {}

/// A watermark shared by the archives one writer feeds: advancing it
/// advances every [`LiveArchive`] made [`on`](LiveArchive::on) it.
/// Clones share the same time. Monotonic: stale advances are ignored.
#[derive(Debug, Clone, Default)]
pub struct WatermarkClock {
    /// Unix seconds; only ever raised (`fetch_max`, Release).
    unix: Arc<AtomicU64>,
}

impl WatermarkClock {
    /// A clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Promise `to` for every archive on the clock (monotonic; stale
    /// values are ignored). Append first: see the memory-ordering
    /// contract on [`LiveArchive`].
    pub fn advance(&self, to: SimTime) {
        self.unix.fetch_max(to.unix(), Ordering::Release);
    }

    /// The current watermark.
    pub fn watermark(&self) -> SimTime {
        SimTime::from_unix(self.unix.load(Ordering::Acquire))
    }
}

/// The state behind a [`LiveArchive`] handle: the chunks under a lock,
/// and what an idle reader needs to know published beside them.
struct ArchiveShared {
    chunks: Mutex<Vec<Bytes>>,
    /// Total bytes over `chunks`, stored (Release) before the appending
    /// writer releases the lock.
    len: AtomicUsize,
    closed: AtomicBool,
}

/// A shared handle to one collector's *growing* updates archive.
///
/// Writers ([`bh_workloads`-style feeds, or a real downloader) append
/// MRT bytes — whole records or arbitrary fragments — advance the
/// watermark, and eventually [`close`](LiveArchive::close); readers
/// ([`TailingSource`]) poll for growth. Clones share the same archive.
/// An appended chunk is kept as the [`Bytes`] it came in and handed to
/// readers as it is: a writer replaying a recorded archive appends
/// slices of it, and no byte is copied on the way to the decoder.
///
/// The watermark contract: advancing to `w` promises every record with
/// `time ≤ w` is already appended, and all future appends are strictly
/// later than `w`. Watermarks are monotonic (stale advances are ignored).
/// The watermark is a [`WatermarkClock`]: [`new`](LiveArchive::new)
/// makes a private one, [`on`](LiveArchive::on) joins an existing one,
/// and then advancing it through any archive advances them all.
///
/// ## Memory ordering
///
/// An idle poll takes no lock: length, watermark and closed flag are
/// atomics beside the locked chunks. The writer publishes in the order
/// *append (under the lock) → `len` (Release) → watermark (`fetch_max`,
/// Release) → closed (Release)* — with a shared clock, every archive's
/// append before the one watermark store that covers them; a reader
/// loads in the opposite order, *closed → watermark → `len`* (all
/// Acquire), and locks only when `len` is past what it has fed. Each
/// Acquire load that observes a value also observes everything the
/// writer did before storing it, so a reader that saw watermark `w`
/// then sees a `len` covering every record with `time ≤ w`, and one that
/// saw `closed` sees the final `len` — a [`LivePoll::Pending`] bound
/// never runs ahead of the bytes, and [`LivePoll::End`] is never
/// reported with bytes unread.
#[derive(Clone)]
pub struct LiveArchive {
    shared: Arc<ArchiveShared>,
    clock: WatermarkClock,
}

impl Default for LiveArchive {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveArchive {
    /// An empty, open archive on a private clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::on(&WatermarkClock::new())
    }

    /// An empty, open archive whose watermark is `clock`.
    pub fn on(clock: &WatermarkClock) -> Self {
        LiveArchive {
            shared: Arc::new(ArchiveShared {
                chunks: Mutex::new(Vec::new()),
                len: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
            }),
            clock: clock.clone(),
        }
    }

    /// Nothing panics while holding the lock, and the chunk list is valid
    /// between any two appends, so a poisoned lock is recovered rather
    /// than propagated.
    fn lock(&self) -> MutexGuard<'_, Vec<Bytes>> {
        self.shared.chunks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append bytes (any fragmentation — record boundaries not required).
    /// A `Bytes` chunk is kept as it is; a `&[u8]` is copied once.
    /// After [`close`](Self::close) the archive is complete: the bytes
    /// are refused with [`ArchiveClosed`] and the archive is unchanged.
    pub fn append(&self, chunk: impl Into<Bytes>) -> Result<(), ArchiveClosed> {
        let mut chunks = self.lock();
        if self.is_closed() {
            return Err(ArchiveClosed);
        }
        let chunk = chunk.into();
        if !chunk.is_empty() {
            // `len` is only stored under the lock, which orders this load.
            let len = self.shared.len.load(Ordering::Relaxed) + chunk.len();
            chunks.push(chunk);
            self.shared.len.store(len, Ordering::Release);
        }
        Ok(())
    }

    /// Advance the watermark (monotonic; stale values are ignored) —
    /// that of every archive on the same [`WatermarkClock`].
    pub fn advance_watermark(&self, to: SimTime) {
        self.clock.advance(to);
    }

    /// Declare the archive complete: no further appends will happen.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Total bytes appended so far.
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    /// Has anything been appended?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current watermark.
    pub fn watermark(&self) -> SimTime {
        self.clock.watermark()
    }

    /// Has the writer closed the archive?
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// The chunks appended so far, in order (shared, not copied).
    #[doc(hidden)]
    pub fn chunks(&self) -> Vec<Bytes> {
        self.lock().clone()
    }

    /// Hand every chunk from index `from` on to `reader` (shared, not
    /// copied). Returns the chunk count and byte length now fed.
    fn feed(&self, from: usize, reader: &mut TailingReader) -> (usize, usize) {
        let chunks = self.lock();
        for chunk in chunks.iter().skip(from) {
            reader.extend(chunk.clone());
        }
        // Stored under the lock we hold: it covers exactly `chunks`.
        (chunks.len(), self.shared.len.load(Ordering::Relaxed))
    }
}

/// One poll of a [`TailingSource`].
#[derive(Debug)]
pub enum LivePoll {
    /// The next element, in archive order.
    Elem(BgpElem),
    /// Nothing decodable yet; the archive's watermark at poll time (the
    /// merge's safety bound — nothing earlier can still arrive).
    Pending(SimTime),
    /// The archive is closed and fully drained (or the stream died —
    /// check [`TailingSource::error`]).
    End,
}

/// Tails one [`LiveArchive`]: an [`MrtElemSource`] over a
/// [`TailingReader`], fed the archive's new chunks between polls.
///
/// Unlike a source over a complete archive, exhaustion is not
/// final: a poll that finds no new complete record reports
/// [`LivePoll::Pending`] and a later poll resumes where it left off —
/// including a *partial trailing record*, which stays buffered
/// in the [`TailingReader`] until its remaining bytes arrive (it is
/// never skipped as corrupt). Only after the writer closes the archive
/// does a leftover partial record become a decode error.
///
/// After a `Pending`, the decoder holds no complete record, so until the
/// archive grows or closes the next poll is the three atomic loads of
/// the memory-ordering contract on [`LiveArchive`] and nothing else.
pub struct TailingSource {
    archive: LiveArchive,
    source: MrtElemSource<TailingReader>,
    skip: u64,
    consumed: u64,
    /// Chunks of the archive handed to the reader so far.
    fed: usize,
    /// Their total length: the archive length last seen.
    seen: usize,
    /// The last poll said `Pending`: the decoder holds no complete record.
    idle: bool,
}

impl TailingSource {
    /// Tail `archive` under the `(dataset, collector)` label.
    pub fn new(archive: LiveArchive, dataset: DataSource, collector: u16) -> Self {
        Self::with_skip(archive, dataset, collector, 0)
    }

    /// Tail `archive`, silently discarding the first `skip` elements —
    /// the resume path: a daemon restarting from a checkpoint replays
    /// each archive from byte zero and skips what it already delivered.
    pub fn with_skip(archive: LiveArchive, dataset: DataSource, collector: u16, skip: u64) -> Self {
        TailingSource {
            archive,
            source: MrtElemSource::from_reader(TailingReader::new(), dataset, collector),
            skip,
            consumed: 0,
            fed: 0,
            seen: 0,
            idle: false,
        }
    }

    /// Platform label.
    pub fn dataset(&self) -> DataSource {
        self.source.dataset
    }

    /// Collector label.
    pub fn collector(&self) -> u16 {
        self.source.collector
    }

    /// Elements dequeued so far (including skipped ones), i.e. the
    /// replay position a resume would need.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The decode error that ended the stream, if any.
    pub fn error(&self) -> Option<&MrtError> {
        self.source.error()
    }

    /// Poll for the next element. See [`LivePoll`] for the three
    /// outcomes; `Pending` is retriable, `End` is final.
    pub fn poll(&mut self) -> LivePoll {
        loop {
            // After a `Pending` with nothing fed since, the decoder has
            // nothing to give: skip straight to the archive's atomics.
            if !std::mem::take(&mut self.idle) {
                while let Some(elem) = self.source.next_owned() {
                    self.consumed += 1;
                    if self.consumed > self.skip {
                        return LivePoll::Elem(elem);
                    }
                }
                if self.source.error().is_some() {
                    return LivePoll::End;
                }
            }
            // Closed, watermark, then length — see `LiveArchive`.
            let closed = self.archive.is_closed();
            let watermark = self.archive.watermark();
            if self.archive.len() > self.seen {
                (self.fed, self.seen) = self.archive.feed(self.fed, self.source.reader_mut());
                continue; // re-frame: the partial tail may now complete
            }
            if !closed {
                self.idle = true;
                return LivePoll::Pending(watermark);
            }
            let reader = self.source.reader_mut();
            if reader.is_closed() {
                return LivePoll::End;
            }
            // Declare EOF to the framer so a leftover partial record
            // surfaces as the truncation error it now is.
            reader.close();
        }
    }
}

/// The tailing sources with their per-source state — the half of
/// [`LiveMerge`] the core's refill callback borrows. A source is in one
/// of three states: its head is buffered in the core, it is *pending*
/// (headless and open), or it has ended.
struct Lanes {
    sources: Vec<TailingSource>,
    /// For a pending source, the watermark its last poll observed.
    pending: Vec<Option<SimTime>>,
    /// The safety gate: a lower bound on the minimum watermark over
    /// pending sources (`None`: none is pending). Lowered when a source
    /// starts pending, recomputed exactly by every sweep.
    gate: Option<SimTime>,
    ended: usize,
    polls: u64,
}

impl Lanes {
    /// Poll source `index` once and record what it said.
    fn poll(&mut self, index: usize) -> Option<BgpElem> {
        self.polls += 1;
        self.pending[index] = None;
        match self.sources[index].poll() {
            LivePoll::Elem(elem) => Some(elem),
            LivePoll::Pending(watermark) => {
                self.pending[index] = Some(watermark);
                self.gate = Some(self.gate.map_or(watermark, |g| g.min(watermark)));
                None
            }
            LivePoll::End => {
                self.ended += 1;
                None
            }
        }
    }
}

/// The live k-way merge: yields elements in the batch
/// `(time, dataset, collector, source index)` order, but only when the
/// watermarks prove no earlier element can still arrive.
///
/// [`next_ready`](LiveMerge::next_ready) returning `None` means "nothing
/// *safe* yet", not end of stream — poll again after the feeds make
/// progress; [`all_ended`](LiveMerge::all_ended) is the end-of-stream
/// signal. One element per source is buffered as its head in the same
/// heap core as [`MergedSource`](crate::merge::MergedSource).
pub struct LiveMerge {
    lanes: Lanes,
    core: MergeHeap,
    sweep_due: bool,
}

impl LiveMerge {
    /// Merge `sources`; index order is the tie-break, so a resumed
    /// daemon must rebuild its sources in the original order.
    pub fn new(sources: Vec<TailingSource>) -> Self {
        let k = sources.len();
        LiveMerge {
            lanes: Lanes {
                sources,
                pending: vec![Some(SimTime::ZERO); k],
                gate: None,
                ended: 0,
                polls: 0,
            },
            core: MergeHeap::new(k),
            sweep_due: true,
        }
    }

    /// Number of input sources.
    pub fn source_count(&self) -> usize {
        self.lanes.sources.len()
    }

    /// Number of sources that reached [`LivePoll::End`].
    pub fn sources_ended(&self) -> usize {
        self.lanes.ended
    }

    /// Have all sources ended? (The merged stream is complete.)
    pub fn all_ended(&self) -> bool {
        self.lanes.ended == self.lanes.sources.len() && self.core.buffered() == 0
    }

    /// The first decode error across sources, if any.
    pub fn first_error(&self) -> Option<&MrtError> {
        self.lanes.sources.iter().find_map(|s| s.error())
    }

    /// Per-source delivery positions, labelled `(dataset, collector)` —
    /// what a checkpoint records so a resume can
    /// [`TailingSource::with_skip`] past already-delivered elements. A
    /// buffered head was consumed from its source but **not** delivered,
    /// so it is not counted: the resume re-reads it.
    pub fn delivered(&self) -> Vec<((DataSource, u16), u64)> {
        self.lanes
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ((s.dataset(), s.collector()), s.consumed() - u64::from(self.core.has_head(i)))
            })
            .collect()
    }

    /// Source polls made so far — the cost the sweep rule bounds.
    #[doc(hidden)]
    pub fn polls(&self) -> u64 {
        self.lanes.polls
    }

    /// Poll every pending source once, then recompute the gate over the
    /// ones still pending.
    fn sweep(&mut self) {
        for index in 0..self.lanes.sources.len() {
            if self.lanes.pending[index].is_some() {
                if let Some(elem) = self.lanes.poll(index) {
                    self.core.offer(index, elem);
                }
            }
        }
        self.lanes.gate = self.lanes.pending.iter().flatten().min().copied();
    }

    /// Yield the next element if one is provably safe to emit.
    ///
    /// **Sweep rule.** Pending sources are polled only by the first call
    /// after a `None` (and the first call ever); every later call of the
    /// same step polls just the source whose head it yields. So one
    /// step — calling until `None` — costs one O(k) sweep plus O(log k)
    /// and one poll per yielded element, and `None` means "nothing safe
    /// *as of the last sweep* — call again". Holding on a stale
    /// `Pending(w)` is sound because `w` and the absence of bytes were
    /// observed together ([`LiveArchive`], memory ordering): whatever
    /// the source appends later is strictly after `w`, so the bound
    /// never expires — it can only be improved by the next sweep.
    pub fn next_ready(&mut self) -> Option<&BgpElem> {
        if self.sweep_due {
            self.sweep_due = false;
            self.sweep();
        }
        // Safety gate: a headless, still-open source whose watermark is
        // behind the candidate could yet produce an earlier element
        // (or an equal-time one that ties ahead) — hold until its
        // watermark passes. Watermarks promise future records are
        // *strictly* later, so `>= candidate time` suffices even on ties.
        let safe = self
            .core
            .peek_time()
            .is_some_and(|time| self.lanes.gate.is_none_or(|gate| gate >= time));
        if !safe {
            self.sweep_due = true;
            return None;
        }
        let lanes = &mut self.lanes;
        self.core.pop_with(|index| lanes.poll(index))
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::community::{Community, CommunitySet};

    use super::*;
    use crate::archive::write_updates;
    use crate::elem::ElemType;
    use crate::source::ElemSource;

    fn elem(t: u64, dataset: DataSource, collector: u16, peer: u32) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(t),
            dataset,
            collector,
            peer_asn: bh_bgp_types::asn::Asn::new(peer),
            peer_ip: "198.51.100.9".parse().unwrap(),
            elem_type: ElemType::Announce,
            prefix: "130.149.0.0/17".parse().unwrap(),
            as_path: "100 200 300".parse().unwrap(),
            communities: CommunitySet::from_classic(vec![Community::from_parts(100, 666)]),
            next_hop: Some("198.51.100.9".parse().unwrap()),
        }
    }

    fn archive_of(elems: &[BgpElem]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_updates(&mut buf, elems).expect("write succeeds");
        buf
    }

    #[test]
    fn tailing_source_pends_then_streams_as_archive_grows() {
        let elems: Vec<BgpElem> = (0..4).map(|k| elem(100 + k, DataSource::Ris, 0, 9)).collect();
        let bytes = archive_of(&elems);
        let archive = LiveArchive::new();
        let mut src = TailingSource::new(archive.clone(), DataSource::Ris, 0);

        assert!(matches!(src.poll(), LivePoll::Pending(w) if w == SimTime::ZERO));

        // Append a record and a half: one element streams, the torn tail
        // pends instead of erroring.
        let half = archive_of(&elems[..2]);
        archive.append(&half[..half.len() - 5]).unwrap();
        archive.advance_watermark(SimTime::from_unix(101));
        assert!(matches!(src.poll(), LivePoll::Elem(e) if e.time.unix() == 100));
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w.unix() == 101));
        assert!(src.error().is_none(), "a partial tail is pending, not corrupt");

        // The tail completes, plus the rest of the stream; closing ends it.
        archive.append(&half[half.len() - 5..]).unwrap();
        archive.append(&bytes[half.len()..]).unwrap();
        archive.close();
        let mut times = Vec::new();
        loop {
            match src.poll() {
                LivePoll::Elem(e) => times.push(e.time.unix()),
                LivePoll::Pending(_) => panic!("closed archive cannot pend"),
                LivePoll::End => break,
            }
        }
        assert_eq!(times, vec![101, 102, 103]);
        assert!(src.error().is_none());
        assert_eq!(src.consumed(), 4);
        assert!(matches!(src.poll(), LivePoll::End), "End is final");
    }

    #[test]
    fn an_idle_source_answers_watermarks_closes_and_torn_tails() {
        let elems: Vec<BgpElem> = (0..2).map(|k| elem(100 + k, DataSource::Ris, 0, 9)).collect();
        let bytes = Bytes::from(archive_of(&elems));
        let archive = LiveArchive::new();
        let mut src = TailingSource::new(archive.clone(), DataSource::Ris, 0);
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w == SimTime::ZERO));

        // Only the watermark moves: the idle answer carries the new one.
        archive.advance_watermark(SimTime::from_unix(50));
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w.unix() == 50));
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w.unix() == 50));

        // A torn record pends; the append that completes it yields it.
        let first_end = bytes.len() / 2; // two records of one size
        archive.append(bytes.slice(..first_end - 3)).unwrap();
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w.unix() == 50));
        archive.append(bytes.slice(first_end - 3..)).unwrap();
        assert!(matches!(src.poll(), LivePoll::Elem(e) if e.time.unix() == 100));
        assert!(matches!(src.poll(), LivePoll::Elem(e) if e.time.unix() == 101));
        assert!(matches!(src.poll(), LivePoll::Pending(_)));

        // A close with no new bytes ends the idle source.
        archive.close();
        assert!(matches!(src.poll(), LivePoll::End));
        assert!(src.error().is_none());
        assert_eq!(src.consumed(), 2);

        // The same close behind a torn tail ends it on the tear.
        let archive = LiveArchive::new();
        let mut src = TailingSource::new(archive.clone(), DataSource::Ris, 0);
        archive.append(bytes.slice(..5)).unwrap();
        assert!(matches!(src.poll(), LivePoll::Pending(_)));
        archive.close();
        assert!(matches!(src.poll(), LivePoll::End));
        assert!(src.error().is_some(), "the tear is an error once the writer closed");
    }

    #[test]
    fn appended_chunks_reach_the_reader_uncopied() {
        let elems: Vec<BgpElem> = (0..3).map(|k| elem(100 + k, DataSource::Ris, 0, 9)).collect();
        let bytes = Bytes::from(archive_of(&elems));
        let archive = LiveArchive::new();
        archive.append(bytes.slice(..10)).unwrap();
        archive.append(&bytes[10..]).unwrap();
        assert_eq!(archive.len(), bytes.len(), "len counts bytes, not chunks");
        let chunks = archive.chunks();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].as_ptr(), bytes.as_ptr(), "a Bytes chunk is kept as it is");
        assert_eq!([&chunks[0][..], &chunks[1][..]].concat(), &bytes[..]);
        archive.append(Bytes::new()).unwrap();
        assert_eq!(archive.chunks().len(), 2, "an empty append adds no chunk");
    }

    #[test]
    fn advancing_a_shared_clock_moves_every_archive_on_it() {
        let clock = WatermarkClock::new();
        let (a, b) = (LiveArchive::on(&clock), LiveArchive::on(&clock));
        let private = LiveArchive::new();
        clock.advance(SimTime::from_unix(40));
        assert_eq!((a.watermark().unix(), b.watermark().unix()), (40, 40));
        a.advance_watermark(SimTime::from_unix(70));
        assert_eq!(b.watermark().unix(), 70, "advancing through one archive advances all");
        clock.advance(SimTime::from_unix(60));
        assert_eq!(clock.watermark().unix(), 70, "stale advances are ignored");
        assert_eq!(private.watermark(), SimTime::ZERO, "new() is on a clock of its own");

        // A pending source on the clock sees the advance.
        let mut src = TailingSource::new(b.clone(), DataSource::Ris, 0);
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w.unix() == 70));
        clock.advance(SimTime::from_unix(90));
        assert!(matches!(src.poll(), LivePoll::Pending(w) if w.unix() == 90));
    }

    #[test]
    fn closing_with_torn_tail_surfaces_the_error() {
        let elems: Vec<BgpElem> = (0..2).map(|k| elem(100 + k, DataSource::Ris, 0, 9)).collect();
        let bytes = archive_of(&elems);
        let archive = LiveArchive::new();
        let mut src = TailingSource::new(archive.clone(), DataSource::Ris, 0);
        archive.append(&bytes[..bytes.len() - 3]).unwrap();
        archive.close();
        assert!(matches!(src.poll(), LivePoll::Elem(_)));
        assert!(matches!(src.poll(), LivePoll::End));
        assert!(src.error().is_some(), "the tear is an error once the writer closed");
    }

    #[test]
    fn append_after_close_is_refused_and_changes_nothing() {
        let archive = LiveArchive::new();
        archive.append(&b"abc"[..]).unwrap();
        archive.close();
        assert_eq!(archive.append(&b"def"[..]), Err(ArchiveClosed));
        assert_eq!(archive.len(), 3);
    }

    #[test]
    fn mrt_elem_source_retries_partial_tail_via_reader_mut() {
        // Satellite coverage: the batch-facing MrtElemSource, driven over
        // a growable TailingReader, must treat a truncated tail as "not
        // yet" — next_elem() returns None with no error, and after the
        // missing bytes arrive the record decodes on the next poll.
        let elems: Vec<BgpElem> = (0..3).map(|k| elem(100 + k, DataSource::Ris, 0, 9)).collect();
        let bytes = archive_of(&elems);
        let cut = bytes.len() - 7;
        let mut src =
            crate::archive::MrtElemSource::from_reader(TailingReader::new(), DataSource::Ris, 0);
        src.reader_mut().extend(&bytes[..cut]);
        let mut n = 0;
        while src.next_elem().is_some() {
            n += 1;
        }
        assert_eq!(n, 2, "intact records stream");
        assert!(src.error().is_none(), "partial tail is not corrupt");

        src.reader_mut().extend(&bytes[cut..]);
        assert!(src.next_elem().is_some(), "the retried tail decodes after growth");
        assert!(src.next_elem().is_none());
        src.reader_mut().close();
        assert!(src.next_elem().is_none());
        assert!(src.error().is_none(), "clean EOF after close");
        assert_eq!(src.records_read(), 3);
    }

    #[test]
    fn live_merge_holds_elements_until_watermarks_prove_safety() {
        let a = LiveArchive::new();
        let b = LiveArchive::new();
        let mut merge = LiveMerge::new(vec![
            TailingSource::new(a.clone(), DataSource::Ris, 0),
            TailingSource::new(b.clone(), DataSource::RouteViews, 1),
        ]);

        // Source a has an element at t=100; b is silent with watermark 0:
        // b could still produce t<100, so nothing is safe.
        a.append(archive_of(&[elem(100, DataSource::Ris, 0, 9)])).unwrap();
        a.advance_watermark(SimTime::from_unix(100));
        assert!(merge.next_ready().is_none(), "quiet collector blocks until its watermark");

        // b's watermark reaches 99: b may still append a record at
        // t=100, and the gate compares times only (it does not reason
        // about which way a tie would break), so the element stays held.
        b.advance_watermark(SimTime::from_unix(99));
        assert!(merge.next_ready().is_none());

        // Watermark 100: any future b element is strictly later than 100.
        b.advance_watermark(SimTime::from_unix(100));
        let e = merge.next_ready().expect("safe now").clone();
        assert_eq!(e.time.unix(), 100);
        assert!(merge.next_ready().is_none(), "drained again");

        // End both; merge completes.
        a.close();
        b.close();
        assert!(merge.next_ready().is_none());
        assert!(merge.all_ended());
        assert!(merge.first_error().is_none());
    }

    #[test]
    fn live_merge_drained_order_equals_merge_streams() {
        let a: Vec<BgpElem> = (0..30).map(|k| elem(10 + k * 3, DataSource::Ris, 0, 11)).collect();
        let b: Vec<BgpElem> =
            (0..30).map(|k| elem(11 + k * 2, DataSource::RouteViews, 1, 22)).collect();
        let arch_a = LiveArchive::new();
        let arch_b = LiveArchive::new();
        arch_a.append(archive_of(&a)).unwrap();
        arch_b.append(archive_of(&b)).unwrap();
        arch_a.close();
        arch_b.close();

        let mut merge = LiveMerge::new(vec![
            TailingSource::new(arch_a, DataSource::Ris, 0),
            TailingSource::new(arch_b, DataSource::RouteViews, 1),
        ]);
        let mut got = Vec::new();
        while let Some(e) = merge.next_ready() {
            got.push(e.clone());
        }
        assert!(merge.all_ended());
        let expected = crate::archive::merge_streams(vec![a, b]);
        assert_eq!(got, expected, "closed-archive live merge is the batch merge");
    }

    #[test]
    fn delivered_excludes_buffered_heads_and_skip_resumes_exactly() {
        let a: Vec<BgpElem> = (0..10).map(|k| elem(10 + k * 2, DataSource::Ris, 0, 11)).collect();
        let b: Vec<BgpElem> = (0..10).map(|k| elem(11 + k * 2, DataSource::Pch, 1, 22)).collect();
        let arch_a = LiveArchive::new();
        let arch_b = LiveArchive::new();
        arch_a.append(archive_of(&a)).unwrap();
        arch_b.append(archive_of(&b)).unwrap();
        arch_a.close();
        arch_b.close();

        let sources = |skips: &[u64]| {
            vec![
                TailingSource::with_skip(arch_a.clone(), DataSource::Ris, 0, skips[0]),
                TailingSource::with_skip(arch_b.clone(), DataSource::Pch, 1, skips[1]),
            ]
        };

        let mut merge = LiveMerge::new(sources(&[0, 0]));
        let mut prefix = Vec::new();
        for _ in 0..7 {
            prefix.push(merge.next_ready().expect("closed archives are fully safe").clone());
        }
        let delivered = merge.delivered();
        let total: u64 = delivered.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 7, "heads consumed from sources but undelivered are not counted");

        // Resume from the recorded positions: the remainder must be the
        // remainder of a fresh full drain.
        let skips: Vec<u64> = delivered.iter().map(|(_, n)| *n).collect();
        let mut resumed = LiveMerge::new(sources(&skips));
        let mut rest = Vec::new();
        while let Some(e) = resumed.next_ready() {
            rest.push(e.clone());
        }
        let mut full = LiveMerge::new(sources(&[0, 0]));
        let mut all = Vec::new();
        while let Some(e) = full.next_ready() {
            all.push(e.clone());
        }
        prefix.extend(rest);
        assert_eq!(prefix, all, "prefix + resumed remainder == uninterrupted drain");
    }

    #[test]
    fn concurrent_writer_never_outruns_its_watermark_or_its_close() {
        // The lock-free poll's contract, against a live writer thread:
        // the writer appends record t, *then* advances the watermark to
        // t, and closes last; the reader must never see a watermark
        // whose records it has not been handed, nor End with bytes
        // unread. The writer stays at most two records ahead of the
        // reader, so nearly every poll is an idle (lock-free) one racing
        // an append.
        const RECORDS: u64 = 4_000;
        let records: Vec<Vec<u8>> =
            (1..=RECORDS).map(|t| archive_of(&[elem(t, DataSource::Ris, 0, 9)])).collect();
        let archive = LiveArchive::new();
        let mut src = TailingSource::new(archive.clone(), DataSource::Ris, 0);
        let start = std::sync::Barrier::new(2);
        let seen = AtomicU64::new(0);
        // Set when the reader leaves — also by a failed assertion, so
        // the writer stops waiting for it and the test fails, not hangs.
        struct Gone<'a>(&'a AtomicBool);
        impl Drop for Gone<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let reader_gone = AtomicBool::new(false);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for (record, t) in records.iter().zip(1u64..) {
                    while seen.load(Ordering::Acquire) + 2 < t
                        && !reader_gone.load(Ordering::Acquire)
                    {
                        std::thread::yield_now();
                    }
                    archive.append(&record[..]).unwrap();
                    archive.advance_watermark(SimTime::from_unix(t));
                }
                archive.close();
            });

            let _gone = Gone(&reader_gone);
            start.wait();
            let mut idle_polls = 0u64;
            loop {
                let given = seen.load(Ordering::Relaxed);
                match src.poll() {
                    LivePoll::Elem(e) => {
                        assert_eq!(e.time.unix(), given + 1, "archive order, nothing skipped");
                        seen.store(given + 1, Ordering::Release);
                    }
                    LivePoll::Pending(w) => {
                        idle_polls += 1;
                        assert!(
                            w.unix() <= given,
                            "watermark {} promised records the reader was not given (at {given})",
                            w.unix()
                        );
                    }
                    LivePoll::End => break,
                }
            }
            assert_eq!(seen.load(Ordering::Relaxed), RECORDS, "End reported with bytes unread");
            assert!(idle_polls > 0, "the reader never caught up: the idle path went untested");
        });
        assert!(src.error().is_none());
    }
}
