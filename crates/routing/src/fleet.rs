//! The collector fleet: parallel, bounded-memory ingestion of many MRT
//! archives — the historical-path equivalent of subscribing to the whole
//! RIS + Route Views collector fleet at once.
//!
//! One reader thread per archive decodes MRT records into [`BgpElem`]s
//! and ships them over a **bounded** channel in small batches; the
//! consumer side wraps every channel in a [`ChannelSource`] and merges
//! them with a [`MergedSource`], so the inference sees one globally
//! time-ordered stream. Memory is bounded end to end: each reader holds
//! one record plus one outgoing batch, each channel holds at most
//! `CHANNEL_BATCHES` batches of `BATCH_ELEMS` (backpressure — a fast
//! collector blocks until the merge catches up), and the merge buffers
//! one element per archive. No `Vec<BgpElem>` of the whole stream ever
//! exists.
//!
//! ```no_run
//! use bh_routing::{CollectorFleet, DataSource, ElemSource, MrtElemSource};
//! # fn archive_bytes() -> Vec<u8> { Vec::new() }
//! # fn archive_file() -> std::io::Cursor<Vec<u8>> { Default::default() }
//!
//! let mut fleet = CollectorFleet::new();
//! fleet.add_archive_bytes(archive_bytes(), DataSource::Ris, 0);
//! fleet.add(MrtElemSource::new(archive_file(), DataSource::RouteViews, 1));
//! let mut stream = fleet.start();
//! while let Some(elem) = stream.next_elem() {
//!     /* feed an InferenceSession / ShardedSession */
//! }
//! let report = stream.finish();
//! assert!(report.is_clean());
//! ```

use std::sync::mpsc::Receiver;
use std::thread::JoinHandle;
use std::{sync::mpsc, thread};

use bh_mrt::{MessageStream, MrtError};
use bytes::Bytes;

use crate::archive::MrtElemSource;
use crate::elem::{BgpElem, DataSource};
use crate::merge::MergedSource;
use crate::source::ElemSource;

/// Elements per cross-thread batch: big enough to amortize the channel.
const BATCH_ELEMS: usize = 512;

/// Bounded channel capacity, in batches (the backpressure window): small
/// enough that a stalled consumer stops every reader within a few
/// batches.
const CHANNEL_BATCHES: usize = 4;

/// What one reader thread reports when it finishes (or gives up).
#[derive(Debug)]
pub struct ArchiveReport {
    /// Platform label the archive was ingested under.
    pub dataset: DataSource,
    /// Collector label the archive was ingested under.
    pub collector: u16,
    /// Elements shipped to the merge (decoded elements the consumer
    /// hung up on before receiving are not counted).
    pub elems: u64,
    /// MRT records decoded.
    pub records_read: u64,
    /// MRT records skipped (tolerant readers only).
    pub records_skipped: u64,
    /// The decode error that ended the archive, if any.
    pub error: Option<MrtError>,
}

/// The per-archive reports of a finished fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// One entry per archive, in the order they were added.
    pub archives: Vec<ArchiveReport>,
}

impl FleetReport {
    /// Total elements shipped across all archives.
    pub fn total_elems(&self) -> u64 {
        self.archives.iter().map(|a| a.elems).sum()
    }

    /// Total records skipped by tolerant readers.
    pub fn records_skipped(&self) -> u64 {
        self.archives.iter().map(|a| a.records_skipped).sum()
    }

    /// The first archive error, if any archive ended on one.
    pub fn first_error(&self) -> Option<&MrtError> {
        self.archives.iter().find_map(|a| a.error.as_ref())
    }

    /// Did every archive stream to clean EOF?
    pub fn is_clean(&self) -> bool {
        self.first_error().is_none()
    }
}

/// An [`ElemSource`] over a channel of element batches — the receiving
/// half of one fleet reader, usable standalone for any producer thread.
pub struct ChannelSource {
    receiver: Receiver<Vec<BgpElem>>,
    batch: std::vec::IntoIter<BgpElem>,
    current: Option<BgpElem>,
}

impl ChannelSource {
    /// Wrap the receiving end of a batch channel.
    pub fn new(receiver: Receiver<Vec<BgpElem>>) -> Self {
        ChannelSource { receiver, batch: Vec::new().into_iter(), current: None }
    }
}

impl ElemSource for ChannelSource {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        self.current = self.next_owned();
        self.current.as_ref()
    }

    fn next_owned(&mut self) -> Option<BgpElem> {
        loop {
            if let Some(elem) = self.batch.next() {
                return Some(elem);
            }
            // `Err`: the sender is done (or the reader stopped).
            self.batch = self.receiver.recv().ok()?.into_iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.batch.len(), None)
    }
}

/// A fleet of MRT archive readers, one thread per archive.
///
/// Add archives with [`CollectorFleet::add`] (any [`MrtElemSource`]:
/// the reader it wraps decides `Read` vs in-memory and strict vs
/// tolerant) or the [`CollectorFleet::add_archive_bytes`] shorthand;
/// each call spawns its reader immediately, so decoding overlaps with
/// fleet assembly. [`CollectorFleet::start`] hands back the merged
/// stream.
pub struct CollectorFleet {
    receivers: Vec<ChannelSource>,
    readers: Readers,
}

/// The reader threads of a fleet; dropping joins them, so neither an
/// abandoned fleet nor an abandoned stream leaks threads. Every owner
/// declares its receiving channel ends in a field *before* this one:
/// fields drop in declaration order, and with the receivers gone first a
/// reader blocked on a bounded send fails fast instead of deadlocking
/// the join. Each thread is kept with the labels of its archive, which
/// its report carries even if the thread panicked.
struct Readers(Vec<(DataSource, u16, JoinHandle<ArchiveReport>)>);

impl Drop for Readers {
    fn drop(&mut self) {
        for (_, _, handle) in self.0.drain(..) {
            let _ = handle.join();
        }
    }
}

impl ArchiveReport {
    /// The report of a reader thread that panicked: its counts are lost
    /// (reported as 0) and the panic is the archive's error, so the
    /// fleet report is not clean.
    fn panicked(dataset: DataSource, collector: u16) -> Self {
        ArchiveReport {
            dataset,
            collector,
            elems: 0,
            records_read: 0,
            records_skipped: 0,
            error: Some(MrtError::Io(std::io::Error::other("fleet reader thread panicked"))),
        }
    }
}

impl Default for CollectorFleet {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectorFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        CollectorFleet { receivers: Vec::new(), readers: Readers(Vec::new()) }
    }

    /// Archives added so far.
    pub fn archive_count(&self) -> usize {
        self.readers.0.len()
    }

    /// Add one strict-decoded *in-memory* archive; the reader thread
    /// slices records out of the shared buffer instead of copying them
    /// (see [`MrtElemSource::from_bytes`]). `Bytes::from(Vec<u8>)` is
    /// zero-copy, so handing a freshly built archive here costs nothing.
    pub fn add_archive_bytes(
        &mut self,
        archive: impl Into<Bytes>,
        dataset: DataSource,
        collector: u16,
    ) {
        self.add(MrtElemSource::from_bytes(archive, dataset, collector));
    }

    /// Add one archive — whatever reader `source` wraps, under the
    /// labels it carries — and spawn its reader thread.
    pub fn add<M: MessageStream + Send + 'static>(&mut self, mut source: MrtElemSource<M>) {
        let (sender, receiver) = mpsc::sync_channel(CHANNEL_BATCHES);
        let labels = (source.dataset, source.collector);
        let handle = thread::spawn(move || {
            let mut elems = 0u64;
            loop {
                let mut batch = Vec::with_capacity(BATCH_ELEMS);
                batch.extend(std::iter::from_fn(|| source.next_owned()).take(BATCH_ELEMS));
                let shipped = batch.len() as u64;
                // Bounded send: blocks when the window is full — the
                // backpressure that keeps a fast reader from racing
                // ahead of the merge. Only shipped batches count.
                if batch.is_empty() || sender.send(batch).is_err() {
                    break; // archive drained, or the consumer hung up
                }
                elems += shipped;
            }
            ArchiveReport {
                dataset: source.dataset,
                collector: source.collector,
                elems,
                records_read: source.records_read(),
                records_skipped: source.records_skipped(),
                error: source.take_error(),
            }
        });
        self.readers.0.push((labels.0, labels.1, handle));
        self.receivers.push(ChannelSource::new(receiver));
    }

    /// Merge the readers into one time-ordered [`FleetSource`].
    pub fn start(self) -> FleetSource {
        FleetSource { merged: MergedSource::new(self.receivers), readers: self.readers }
    }
}

/// The merged, globally time-ordered stream of a running fleet.
///
/// An ordinary [`ElemSource`]: feed it to
/// `InferenceSession::ingest` / `ShardedSession::ingest` directly.
/// After the stream ends (or mid-stream, to abort), call
/// [`FleetSource::finish`] to join the readers and collect the
/// per-archive [`FleetReport`] — dropping the source instead also shuts
/// the readers down (the channels close, then every reader is joined),
/// but discards the reports.
pub struct FleetSource {
    merged: MergedSource<ChannelSource>,
    readers: Readers,
}

impl FleetSource {
    /// Number of archives feeding the merge.
    pub fn archive_count(&self) -> usize {
        self.readers.0.len()
    }

    /// Join every reader and report per-archive accounting. Safe to call
    /// mid-stream: the channels close first, so blocked readers unblock
    /// and wind down. A reader that panicked reports the panic as its
    /// archive's error instead of propagating it.
    pub fn finish(self) -> FleetReport {
        let FleetSource { merged, mut readers } = self;
        drop(merged); // close the receivers: blocked senders fail fast
        let archives = std::mem::take(&mut readers.0)
            .into_iter()
            .map(|(dataset, collector, handle)| {
                handle.join().unwrap_or_else(|_| ArchiveReport::panicked(dataset, collector))
            })
            .collect();
        FleetReport { archives }
    }
}

impl ElemSource for FleetSource {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        self.merged.next_elem()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.merged.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::SimTime;

    use bh_mrt::{MrtBytesReader, MrtReader};

    use super::*;
    use crate::archive::{merge_streams, write_updates};
    use crate::elem::ElemType;
    use crate::source::collect_source;

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

    /// Elems of an archive many backpressure windows long, so a reader
    /// nobody drains blocks mid-send long before its end.
    const LONG: u64 = 20_000;

    fn long_archive() -> Vec<u8> {
        assert!(LONG as usize > 2 * CHANNEL_BATCHES * BATCH_ELEMS);
        archive_of(&(0..LONG).map(|k| elem(k, DataSource::Ris, 0, 9)).collect::<Vec<_>>())
    }

    #[test]
    fn fleet_yields_the_merge_streams_order() {
        // Longer than one batch: several batches per archive.
        let a: Vec<BgpElem> =
            (0..1_200).map(|k| elem(10 + k * 3, DataSource::Ris, 0, 11)).collect();
        let b: Vec<BgpElem> =
            (0..1_100).map(|k| elem(11 + k * 2, DataSource::RouteViews, 1, 22)).collect();
        let c: Vec<BgpElem> = (0..300).map(|k| elem(10 + k * 9, DataSource::Pch, 2, 33)).collect();
        assert!(a.len() > 2 * BATCH_ELEMS);

        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::new(Cursor::new(archive_of(&a)), DataSource::Ris, 0));
        fleet.add(MrtElemSource::new(Cursor::new(archive_of(&b)), DataSource::RouteViews, 1));
        fleet.add(MrtElemSource::new(Cursor::new(archive_of(&c)), DataSource::Pch, 2));
        assert_eq!(fleet.archive_count(), 3);

        let mut stream = fleet.start();
        assert_eq!(stream.archive_count(), 3);
        let streamed = collect_source(&mut stream);
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.total_elems(), 2_600);
        assert_eq!(report.archives.len(), 3);
        assert_eq!(report.archives[0].dataset, DataSource::Ris);
        assert!(report.archives.iter().all(|a| a.records_read > 0));

        let expected = merge_streams(vec![a, b, c]);
        assert_eq!(streamed, expected, "fleet order must equal the materialized merge");
    }

    #[test]
    fn bytes_archives_match_the_read_path() {
        let a: Vec<BgpElem> =
            (0..1_200).map(|k| elem(10 + k * 3, DataSource::Ris, 0, 11)).collect();
        let b: Vec<BgpElem> =
            (0..1_100).map(|k| elem(11 + k * 2, DataSource::RouteViews, 1, 22)).collect();

        let mut fleet = CollectorFleet::new();
        fleet.add_archive_bytes(archive_of(&a), DataSource::Ris, 0);
        fleet.add(MrtElemSource::from_reader(
            MrtBytesReader::tolerant(archive_of(&b)),
            DataSource::RouteViews,
            1,
        ));
        let mut stream = fleet.start();
        let streamed = collect_source(&mut stream);
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.total_elems(), 2_300);
        assert_eq!(streamed, merge_streams(vec![a, b]));
    }

    #[test]
    fn empty_archives_stream_nothing_but_report() {
        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::new(Cursor::new(Vec::new()), DataSource::Cdn, 7));
        let mut stream = fleet.start();
        assert!(stream.next_elem().is_none());
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.total_elems(), 0);
        assert_eq!(report.archives[0].collector, 7);
    }

    #[test]
    fn torn_archive_is_reported_not_hidden() {
        let elems: Vec<BgpElem> = (0..5).map(|k| elem(k, DataSource::Ris, 0, 9)).collect();
        let mut torn = archive_of(&elems);
        torn.truncate(torn.len() - 4);

        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::new(Cursor::new(torn), DataSource::Ris, 0));
        let mut stream = fleet.start();
        let streamed = collect_source(&mut stream);
        assert_eq!(streamed.len(), 4, "intact records still stream");
        let report = stream.finish();
        assert!(!report.is_clean());
        assert!(report.first_error().is_some());
    }

    #[test]
    fn finish_mid_stream_unblocks_backpressured_readers() {
        // An archive longer than the channel window: the reader will be
        // blocked on send when we abandon the stream.
        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::new(Cursor::new(long_archive()), DataSource::Ris, 0));
        let mut stream = fleet.start();
        for _ in 0..10 {
            assert!(stream.next_elem().is_some());
        }
        let report = stream.finish(); // must not deadlock
        assert!(report.archives[0].elems < LONG, "reader stopped early");
    }

    #[test]
    fn dropping_source_with_never_draining_consumer_joins_readers() {
        // The consumer never drains a single element, so every reader
        // fills its channel window and blocks on send. Dropping the
        // source must close the channels and *join* the readers — the
        // test hangs (and the suite's timeout fails it) if the shutdown
        // path regresses to leaking blocked threads.
        let archive = long_archive();
        let mut fleet = CollectorFleet::new();
        for collector in 0..4u16 {
            fleet.add(MrtElemSource::new(Cursor::new(archive.clone()), DataSource::Ris, collector));
        }
        let stream = fleet.start();
        drop(stream); // never called next_elem(): all readers are mid-send
    }

    #[test]
    fn dropping_unstarted_fleet_joins_readers() {
        // Readers spawn at add() time, so a fleet abandoned before
        // start() already owns blocked threads.
        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::new(Cursor::new(long_archive()), DataSource::Ris, 0));
        drop(fleet);
    }

    #[test]
    fn a_panicking_reader_is_reported_not_propagated() {
        struct PanickingRead;
        impl std::io::Read for PanickingRead {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                panic!("reader bug");
            }
        }
        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::new(Cursor::new(long_archive()), DataSource::Ris, 0));
        fleet.add(MrtElemSource::new(PanickingRead, DataSource::RouteViews, 3));
        let mut stream = fleet.start();
        while stream.next_elem().is_some() {}
        let report = stream.finish();
        assert!(report.archives[0].error.is_none());
        let panicked = &report.archives[1];
        assert_eq!((panicked.dataset, panicked.collector), (DataSource::RouteViews, 3));
        assert!(panicked.error.is_some() && !report.is_clean());
    }

    #[test]
    fn tolerant_fleet_counts_skipped_records() {
        // A corrupt-payload record, then valid ones: tolerant readers
        // skip and count, strict readers stop with an error.
        let elems: Vec<BgpElem> = (0..3).map(|k| elem(k, DataSource::Ris, 0, 9)).collect();
        let mut noisy = Vec::new();
        noisy.extend_from_slice(&1u32.to_be_bytes());
        noisy.extend_from_slice(&16u16.to_be_bytes()); // BGP4MP
        noisy.extend_from_slice(&4u16.to_be_bytes()); // MESSAGE_AS4
        noisy.extend_from_slice(&4u32.to_be_bytes());
        noisy.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        noisy.extend_from_slice(&archive_of(&elems));

        let mut fleet = CollectorFleet::new();
        fleet.add(MrtElemSource::from_reader(
            MrtReader::tolerant(Cursor::new(noisy.clone())),
            DataSource::Ris,
            0,
        ));
        let mut stream = fleet.start();
        assert_eq!(collect_source(&mut stream).len(), 3);
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.records_skipped(), 1);

        let mut strict = CollectorFleet::new();
        strict.add(MrtElemSource::new(Cursor::new(noisy), DataSource::Ris, 0));
        let mut stream = strict.start();
        assert!(collect_source(&mut stream).is_empty());
        assert!(!stream.finish().is_clean());
    }
}
