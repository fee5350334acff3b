//! The collector fleet: bounded-memory ingestion of many MRT archives —
//! the historical-path equivalent of subscribing to the whole RIS + Route
//! Views collector fleet at once.
//!
//! Each archive is a zero-copy [`MrtElemSource`] over its in-memory
//! bytes, and a [`MergedSource`] merges them on the consumer's thread, so
//! the inference sees one globally time-ordered stream. Past the archive
//! bytes themselves, memory is one decoded head per archive in the merge
//! plus one reused record per reader; no `Vec<BgpElem>` of the stream
//! ever exists.
//!
//! ```no_run
//! use bh_mrt::MrtBytesReader;
//! use bh_routing::{CollectorFleet, DataSource, ElemSource, MrtElemSource};
//! # fn archive_bytes() -> Vec<u8> { Vec::new() }
//!
//! let mut fleet = CollectorFleet::new();
//! fleet.add_archive_bytes(archive_bytes(), DataSource::Ris, 0);
//! let tolerant = MrtBytesReader::tolerant(archive_bytes());
//! fleet.add(MrtElemSource::from_reader(tolerant, DataSource::RouteViews, 1));
//! let mut stream = fleet.start();
//! while let Some(elem) = stream.next_elem() {
//!     /* push into an InferenceSession, draining closed events */
//! }
//! let report = stream.finish();
//! assert!(report.is_clean());
//! ```

use bh_mrt::{MrtBytesReader, MrtError};
use bytes::Bytes;

use crate::archive::MrtElemSource;
use crate::elem::{BgpElem, DataSource};
use crate::merge::MergedSource;
use crate::source::ElemSource;

/// One archive's decode accounting, as the fleet leaves it.
#[derive(Debug)]
pub struct ArchiveReport {
    /// Platform label the archive was ingested under.
    pub dataset: DataSource,
    /// Collector label the archive was ingested under.
    pub collector: u16,
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
    /// Total records skipped by tolerant readers.
    pub fn records_skipped(&self) -> u64 {
        self.archives.iter().map(|a| a.records_skipped).sum()
    }

    /// The first archive error, if any archive ended on one.
    pub fn first_error(&self) -> Option<&MrtError> {
        self.archives.iter().find_map(|a| a.error.as_ref())
    }

    /// Did every archive decode without an error (so far, if the stream
    /// was abandoned mid-way)?
    pub fn is_clean(&self) -> bool {
        self.first_error().is_none()
    }
}

/// A set of in-memory MRT archives to ingest as one stream.
///
/// Add archives with [`CollectorFleet::add`] (strict or tolerant: the
/// [`MrtBytesReader`] the source wraps decides) or the
/// [`CollectorFleet::add_archive_bytes`] shorthand;
/// [`CollectorFleet::start`] hands back the merged stream.
#[derive(Default)]
pub struct CollectorFleet {
    archives: Vec<MrtElemSource<MrtBytesReader>>,
}

impl CollectorFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one strict-decoded archive; records are sliced out of the
    /// shared buffer instead of copied (see
    /// [`MrtElemSource::from_bytes`]). `Bytes::from(Vec<u8>)` is
    /// zero-copy, so handing a freshly built archive here costs nothing.
    pub fn add_archive_bytes(
        &mut self,
        archive: impl Into<Bytes>,
        dataset: DataSource,
        collector: u16,
    ) {
        self.add(MrtElemSource::from_bytes(archive, dataset, collector));
    }

    /// Add one archive, under the labels `source` carries.
    pub fn add(&mut self, source: MrtElemSource<MrtBytesReader>) {
        self.archives.push(source);
    }

    /// Merge the archives into one time-ordered [`FleetSource`].
    pub fn start(self) -> FleetSource {
        FleetSource { merged: MergedSource::new(self.archives) }
    }
}

/// The merged, globally time-ordered stream of a fleet.
///
/// An ordinary [`ElemSource`]: feed it to `InferenceSession::ingest`,
/// or push its elems into a session one at a time.
/// After the stream ends (or mid-stream, to abort), call
/// [`FleetSource::finish`] for the per-archive [`FleetReport`].
pub struct FleetSource {
    merged: MergedSource<MrtElemSource<MrtBytesReader>>,
}

impl FleetSource {
    /// Report each archive's decode accounting, in the order the
    /// archives were added.
    pub fn finish(self) -> FleetReport {
        let archives = self
            .merged
            .into_sources()
            .into_iter()
            .map(|mut source| ArchiveReport {
                dataset: source.dataset,
                collector: source.collector,
                records_read: source.records_read(),
                records_skipped: source.records_skipped(),
                error: source.take_error(),
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
    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::SimTime;

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

    fn source(
        archive: Vec<u8>,
        dataset: DataSource,
        collector: u16,
    ) -> MrtElemSource<MrtBytesReader> {
        MrtElemSource::from_bytes(archive, dataset, collector)
    }

    /// Three interleaved archives of different lengths.
    fn streams() -> Vec<Vec<BgpElem>> {
        vec![
            (0..1_200).map(|k| elem(10 + k * 3, DataSource::Ris, 0, 11)).collect(),
            (0..1_100).map(|k| elem(11 + k * 2, DataSource::RouteViews, 1, 22)).collect(),
            (0..300).map(|k| elem(10 + k * 9, DataSource::Pch, 2, 33)).collect(),
        ]
    }

    #[test]
    fn fleet_yields_the_merge_streams_order() {
        let streams = streams();
        let mut fleet = CollectorFleet::new();
        for stream in &streams {
            fleet.add(source(archive_of(stream), stream[0].dataset, stream[0].collector));
        }
        let mut stream = fleet.start();
        let streamed = collect_source(&mut stream);
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.archives.len(), 3);
        assert_eq!(report.archives[0].dataset, DataSource::Ris);
        let records: Vec<u64> = report.archives.iter().map(|a| a.records_read).collect();
        assert_eq!(records, [1_200, 1_100, 300]);

        let expected = merge_streams(streams);
        assert_eq!(streamed, expected, "fleet order must equal the materialized merge");
    }

    #[test]
    fn bytes_archives_match_the_read_path() {
        // The shorthand and a tolerant reader merge like any other source.
        let mut streams = streams();
        streams.truncate(2);
        let mut fleet = CollectorFleet::new();
        fleet.add_archive_bytes(archive_of(&streams[0]), DataSource::Ris, 0);
        fleet.add(MrtElemSource::from_reader(
            MrtBytesReader::tolerant(archive_of(&streams[1])),
            DataSource::RouteViews,
            1,
        ));
        let mut stream = fleet.start();
        let streamed = collect_source(&mut stream);
        assert!(stream.finish().is_clean());
        assert_eq!(streamed, merge_streams(streams));
    }

    #[test]
    fn finishing_mid_stream_reports_clean_partial_progress() {
        let streams = streams();
        let mut fleet = CollectorFleet::new();
        let mut record_counts = Vec::new();
        for stream in &streams {
            let mut archive = Vec::new();
            record_counts.push(write_updates(&mut archive, stream).expect("write succeeds"));
            fleet.add(source(archive, stream[0].dataset, stream[0].collector));
        }
        let mut stream = fleet.start();
        for _ in 0..500 {
            assert!(stream.next_elem().is_some());
        }
        let report = stream.finish();
        assert!(report.is_clean());
        for (archive, records) in report.archives.iter().zip(record_counts) {
            assert!(archive.records_read <= records, "{archive:?} read past its {records} records");
        }
        assert!(report.archives.iter().any(|a| a.records_read > 0));
    }

    #[test]
    fn empty_archives_stream_nothing_but_report() {
        let mut fleet = CollectorFleet::new();
        fleet.add(source(Vec::new(), DataSource::Cdn, 7));
        let mut stream = fleet.start();
        assert!(stream.next_elem().is_none());
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.archives[0].records_read, 0);
        assert_eq!(report.archives[0].collector, 7);
    }

    #[test]
    fn torn_archive_is_reported_not_hidden() {
        let elems: Vec<BgpElem> = (0..5).map(|k| elem(k, DataSource::Ris, 0, 9)).collect();
        let mut torn = archive_of(&elems);
        torn.truncate(torn.len() - 4);

        let mut fleet = CollectorFleet::new();
        fleet.add(source(torn, DataSource::Ris, 0));
        let mut stream = fleet.start();
        let streamed = collect_source(&mut stream);
        assert_eq!(streamed.len(), 4, "intact records still stream");
        let report = stream.finish();
        assert!(!report.is_clean());
        assert!(report.first_error().is_some());
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
            MrtBytesReader::tolerant(noisy.clone()),
            DataSource::Ris,
            0,
        ));
        let mut stream = fleet.start();
        assert_eq!(collect_source(&mut stream).len(), 3);
        let report = stream.finish();
        assert!(report.is_clean());
        assert_eq!(report.records_skipped(), 1);

        let mut strict = CollectorFleet::new();
        strict.add(source(noisy, DataSource::Ris, 0));
        let mut stream = strict.start();
        assert!(collect_source(&mut stream).is_empty());
        assert!(!stream.finish().is_clean());
    }
}
