//! MRT export: serialize the collector element stream into archive bytes.
//!
//! The inference pipeline can consume [`BgpElem`]s directly (the live
//! BGPStream path) or parse MRT archives produced here (the historical
//! path) — both exercised by the integration tests, proving the wire
//! format carries everything the inference needs.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_mrt::{MessageStream, MrtBytesReader, MrtError, MrtWriter, UpdateRecord};
use bytes::Bytes;

use crate::elem::{BgpElem, DataSource, ElemType};
use crate::source::{collect_source, ElemSource};

/// Local side of every written session: a synthetic collector address
/// (documentation range) and a private-use ASN.
const COLLECTOR_IP: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 254));
const COLLECTOR_ASN: Asn = Asn::new(64_512);

/// Write a stream of elems as `BGP4MP/MESSAGE_AS4` records, one archive
/// per call (callers typically split by platform; borrowed elems need no
/// copy). One [`BgpUpdate`] is refilled per elem: a withdrawal's stale
/// attributes are never encoded.
pub fn write_updates<'a, W: Write>(
    sink: W,
    elems: impl IntoIterator<Item = &'a BgpElem>,
) -> Result<u64, MrtError> {
    let mut writer = MrtWriter::new(sink);
    let mut update = BgpUpdate::new(PathAttributes::default());
    for elem in elems {
        update.clear_prefixes();
        match elem.elem_type {
            ElemType::Announce => {
                update.attrs.as_path = elem.as_path.clone();
                update.attrs.next_hop = Some(elem.next_hop.unwrap_or(elem.peer_ip));
                update.attrs.communities = elem.communities.clone();
                update.announce_v4(elem.prefix);
            }
            ElemType::Withdraw => update.withdraw_v4(elem.prefix),
        }
        writer.write_update(
            elem.time,
            elem.peer_asn,
            elem.peer_ip,
            COLLECTOR_ASN,
            COLLECTOR_IP,
            &update,
        )?;
    }
    Ok(writer.records_written())
}

/// A streaming [`ElemSource`] over an MRT updates archive: records are
/// decoded one at a time from a [`MessageStream`] — an
/// [`MrtBytesReader`] slicing a complete in-memory archive with zero
/// per-record copies, or a [`bh_mrt::TailingReader`] over an archive
/// still being written — the historical-path equivalent of a live
/// BGPStream feed.
///
/// The MRT wire format does not carry the platform/collector labels, so
/// the caller supplies them (matching how real pipelines know which
/// archive belongs to which collector). Strict or tolerant decoding is
/// the reader's property: build the reader in the mode wanted and wrap
/// it with [`MrtElemSource::from_reader`].
///
/// Decode errors end the stream; inspect [`MrtElemSource::error`] (or
/// recover it with [`MrtElemSource::take_error`]) after exhaustion to
/// distinguish clean EOF from a torn archive.
///
/// Elems are built straight from the reader's checked UPDATE
/// ([`MessageStream::next_update`]): one elem per announced prefix, in
/// first-seen order without repeats, then one per withdrawn prefix — all
/// of a record's elems, or none if it does not decode.
pub struct MrtElemSource<M> {
    reader: M,
    pub(crate) dataset: DataSource,
    pub(crate) collector: u16,
    /// The UPDATE being expanded, reused from record to record.
    record: UpdateRecord,
    /// How many of `record`'s elems were handed out.
    emitted: usize,
    current: Option<BgpElem>,
    error: Option<MrtError>,
}

impl MrtElemSource<MrtBytesReader> {
    /// Strict zero-copy source over an in-memory archive: record bodies
    /// and attribute blocks are refcounted slices of `archive`, never
    /// copies (`Bytes::from(Vec<u8>)` is itself zero-copy).
    pub fn from_bytes(archive: impl Into<Bytes>, dataset: DataSource, collector: u16) -> Self {
        Self::from_reader(MrtBytesReader::new(archive), dataset, collector)
    }
}

impl<M: MessageStream> MrtElemSource<M> {
    /// Wrap an already-configured message stream.
    pub fn from_reader(reader: M, dataset: DataSource, collector: u16) -> Self {
        MrtElemSource {
            reader,
            dataset,
            collector,
            record: UpdateRecord::default(),
            emitted: 0,
            current: None,
            error: None,
        }
    }

    /// The next elem of the current record, if it has one left. The last
    /// announcement takes the record's attributes instead of cloning them.
    fn expand(&mut self) -> Option<BgpElem> {
        let record = &mut self.record;
        let announced = record.announced.as_slice();
        let (elem_type, prefix, attrs) = match announced.get(self.emitted) {
            Some(&prefix) => {
                let attrs = if self.emitted + 1 == announced.len() {
                    record.attrs.take()
                } else {
                    record.attrs.clone()
                };
                (ElemType::Announce, prefix, attrs)
            }
            // A withdrawal carries no attributes: empty path, no communities.
            None => {
                let withdrawn = record.withdrawn.as_slice();
                (ElemType::Withdraw, *withdrawn.get(self.emitted - announced.len())?, None)
            }
        };
        self.emitted += 1;
        let (as_path, communities, next_hop) =
            attrs.map(|a| (a.as_path, a.communities, a.next_hop)).unwrap_or_default();
        Some(BgpElem {
            time: record.timestamp,
            dataset: self.dataset,
            collector: self.collector,
            peer_asn: record.peer_asn,
            peer_ip: record.peer_ip,
            elem_type,
            prefix,
            as_path,
            communities,
            next_hop,
        })
    }

    /// The decode error that ended the stream, if any.
    pub fn error(&self) -> Option<&MrtError> {
        self.error.as_ref()
    }

    /// Recover the decode error that ended the stream, if any.
    pub fn take_error(&mut self) -> Option<MrtError> {
        self.error.take()
    }

    /// MRT records decoded so far (fleet accounting).
    pub fn records_read(&self) -> u64 {
        self.reader.records_read()
    }

    /// MRT records skipped so far (tolerant readers only).
    pub fn records_skipped(&self) -> u64 {
        self.reader.records_skipped()
    }

    /// Mutable access to the underlying message stream — the hook that
    /// lets a live consumer feed a growable reader (e.g.
    /// [`bh_mrt::TailingReader::extend`]) between polls: `next_elem`
    /// returning `None` without an [`error`](Self::error) means "nothing
    /// decodable *yet*", and the source re-polls the reader on the next
    /// call rather than latching EOF.
    pub fn reader_mut(&mut self) -> &mut M {
        &mut self.reader
    }
}

impl<M: MessageStream> ElemSource for MrtElemSource<M> {
    fn next_elem(&mut self) -> Option<&BgpElem> {
        self.current = self.next_owned();
        self.current.as_ref()
    }

    fn next_owned(&mut self) -> Option<BgpElem> {
        loop {
            if let Some(elem) = self.expand() {
                return Some(elem);
            }
            match self.reader.next_update(&mut self.record) {
                Ok(true) => self.emitted = 0,
                Ok(false) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }
}

/// Read an archive produced by [`write_updates`] back into elems — the
/// materializing convenience over [`MrtElemSource`].
///
/// Since the result holds the whole stream anyway, the source is slurped
/// into one buffer and decoded through the zero-copy
/// [`MrtBytesReader`] path: one allocation for the archive instead of
/// one per record body, with attribute blocks sliced, not copied.
pub fn read_updates<R: Read>(
    mut source: R,
    dataset: DataSource,
    collector: u16,
) -> Result<Vec<BgpElem>, MrtError> {
    let mut archive = Vec::new();
    source.read_to_end(&mut archive)?;
    let mut src = MrtElemSource::from_bytes(archive, dataset, collector);
    let out = collect_source(&mut src);
    src.take_error().map_or(Ok(out), Err)
}

/// Split elems by `(dataset, collector)` — one bucket per archive a
/// real pipeline would download, preserving per-collector arrival
/// order. The MRT wire format does not carry these labels, so an
/// archive per pair keeps every [`PeerKey`](crate::elem::PeerKey)
/// reconstructible on read-back.
pub fn split_by_collector(elems: &[BgpElem]) -> BTreeMap<(DataSource, u16), Vec<BgpElem>> {
    let mut out: BTreeMap<(DataSource, u16), Vec<BgpElem>> = BTreeMap::new();
    for elem in elems {
        out.entry((elem.dataset, elem.collector)).or_default().push(elem.clone());
    }
    out
}

/// Merge several collector streams into one time-ordered stream (stable:
/// ties keep `(dataset, collector)` then stream order) — the BGPStream
/// merge the paper's pipeline performs across RIS + RV collectors.
///
/// This flatten-and-stable-sort is the *specification* of the merge
/// order: [`MergedSource`](crate::merge::MergedSource) reproduces it
/// one element at a time (as does a
/// [`CollectorFleet`](crate::fleet::CollectorFleet) over archives), which
/// the golden-equivalence property tests in `tests/` prove against this
/// independent implementation. Materializing callers keep this
/// zero-clone shape; streaming consumers should use the sources and
/// skip the `Vec`. It is a reference: no `Study` run calls it.
pub fn merge_streams(mut streams: Vec<Vec<BgpElem>>) -> Vec<BgpElem> {
    let mut merged: Vec<BgpElem> = streams.drain(..).flatten().collect();
    merged.sort_by_key(|e| (e.time, e.dataset, e.collector));
    merged
}

/// A timestamp suitable for archive names.
pub fn archive_stamp(time: SimTime) -> String {
    let (y, m, d) = time.ymd();
    format!(
        "{y:04}{m:02}{d:02}.{:02}{:02}",
        (time.unix() % 86_400) / 3600,
        (time.unix() % 3600) / 60
    )
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::SimDuration;
    use bh_mrt::TailingReader;

    use super::*;

    fn sample_elems() -> Vec<BgpElem> {
        let mk = |t: u64, ty: ElemType| BgpElem {
            time: SimTime::from_unix(t),
            dataset: DataSource::Ris,
            collector: 3,
            peer_asn: Asn::new(6939),
            peer_ip: "80.81.192.1".parse().unwrap(),
            elem_type: ty,
            prefix: "130.149.1.1/32".parse().unwrap(),
            as_path: if ty == ElemType::Announce {
                "6939 3356 64500".parse().unwrap()
            } else {
                Default::default()
            },
            communities: if ty == ElemType::Announce {
                CommunitySet::from_classic(vec![Community::from_parts(3356, 9999)])
            } else {
                Default::default()
            },
            next_hop: None,
        };
        vec![mk(100, ElemType::Announce), mk(200, ElemType::Withdraw)]
    }

    #[test]
    fn read_updates_returns_what_write_updates_wrote() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();
        let back = read_updates(&buf[..], DataSource::Ris, 3).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].prefix, elems[0].prefix);
        assert_eq!(back[0].as_path, elems[0].as_path);
        assert_eq!(back[0].communities, elems[0].communities);
        assert_eq!(back[0].peer_asn, elems[0].peer_asn);
        assert_eq!(back[0].peer_ip, elems[0].peer_ip);
        assert_eq!(back[0].time, elems[0].time);
        assert_eq!(back[1].elem_type, ElemType::Withdraw);
    }

    #[test]
    fn streaming_source_matches_materializing_read() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();

        let mut tail = TailingReader::new();
        tail.extend(buf.clone());
        tail.close();
        let mut src = MrtElemSource::from_reader(tail, DataSource::Ris, 3);
        let mut streamed = Vec::new();
        while let Some(elem) = src.next_elem() {
            streamed.push(elem.clone());
        }
        assert!(src.error().is_none());
        assert_eq!(streamed, read_updates(&buf[..], DataSource::Ris, 3).unwrap());
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn bytes_source_matches_read_source() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();

        let via_read = read_updates(&buf[..], DataSource::Ris, 3).unwrap();
        let mut via_bytes = MrtElemSource::from_bytes(buf.clone(), DataSource::Ris, 3);
        for want in &via_read {
            assert_eq!(via_bytes.next_elem(), Some(want));
        }
        assert!(via_bytes.next_elem().is_none());
        assert!(via_bytes.error().is_none());
        assert_eq!(via_bytes.records_read(), 2);

        // Torn archives surface the same way through both paths.
        buf.truncate(buf.len() - 4);
        let mut torn =
            MrtElemSource::from_reader(MrtBytesReader::tolerant(buf), DataSource::Ris, 3);
        let mut n = 0;
        while torn.next_elem().is_some() {
            n += 1;
        }
        assert_eq!(n, 1);
        assert!(torn.take_error().is_some(), "framing tears propagate even in tolerant mode");
    }

    #[test]
    fn streaming_source_surfaces_torn_archives() {
        let elems = sample_elems();
        let mut buf = Vec::new();
        write_updates(&mut buf, &elems).unwrap();
        buf.truncate(buf.len() - 4); // tear the final record

        let mut src = MrtElemSource::from_bytes(buf.clone(), DataSource::Ris, 3);
        let mut n = 0;
        while src.next_elem().is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "the intact first record still streams");
        assert!(src.take_error().is_some(), "the tear is reported");
        assert!(read_updates(&buf[..], DataSource::Ris, 3).is_err());
    }

    #[test]
    fn merge_orders_by_time() {
        let mut a = sample_elems();
        a[0].time = SimTime::from_unix(500);
        a[1].time = SimTime::from_unix(100);
        let mut b = sample_elems();
        b[0].time = SimTime::from_unix(300);
        b[0].dataset = DataSource::Pch;
        b[1].time = SimTime::from_unix(200);
        b[1].dataset = DataSource::Pch;
        let merged = merge_streams(vec![a, b]);
        let times: Vec<u64> = merged.iter().map(|e| e.time.unix()).collect();
        assert_eq!(times, vec![100, 200, 300, 500]);
    }

    #[test]
    fn merge_streams_equals_stable_flatten_sort_on_unsorted_input() {
        // The pre-MergedSource contract: streams need not be sorted, and
        // equal keys keep flatten order (stream index, then position).
        let mut elems = Vec::new();
        for (t, collector, peer) in
            [(300u64, 1u16, 1u32), (100, 1, 2), (100, 1, 3), (200, 0, 4), (100, 1, 5)]
        {
            let mut e = sample_elems()[0].clone();
            e.time = SimTime::from_unix(t);
            e.collector = collector;
            e.peer_asn = Asn::new(peer);
            elems.push(e);
        }
        let streams = vec![elems[..2].to_vec(), elems[2..].to_vec()];
        let mut expected: Vec<BgpElem> = streams.concat();
        expected.sort_by_key(|e| (e.time, e.dataset, e.collector));
        assert_eq!(merge_streams(streams), expected);
        // Equal-key order: stream 0's (100,1) before stream 1's two.
        let peers: Vec<u32> = expected.iter().map(|e| e.peer_asn.value()).collect();
        assert_eq!(peers, vec![2, 3, 5, 4, 1]);
    }

    #[test]
    fn split_by_collector_partitions_per_archive() {
        let mut elems = sample_elems();
        elems[1].collector = 4;
        elems.push({
            let mut e = elems[0].clone();
            e.dataset = DataSource::Cdn;
            e
        });
        let split = split_by_collector(&elems);
        assert_eq!(split.len(), 3);
        assert_eq!(split[&(DataSource::Ris, 3)].len(), 1);
        assert_eq!(split[&(DataSource::Ris, 4)].len(), 1);
        assert_eq!(split[&(DataSource::Cdn, 3)].len(), 1);
    }

    #[test]
    fn archive_stamp_format() {
        let t = SimTime::from_ymd(2016, 9, 20) + SimDuration::mins(13 * 60 + 45);
        assert_eq!(archive_stamp(t), "20160920.1345");
    }
}
