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
use bh_bgp_types::wire::{self, AttrCache, UpdateView};

use crate::frame::Framer;
use crate::record::{bgp4mp_subtype, mrt_type, td2_subtype, MrtError, UpdateRecord};

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

/// A stream of MRT records read as BGP4MP UPDATEs — what
/// [`MrtBytesReader`] and [`TailingReader`](crate::tail::TailingReader)
/// have in common. Consumers like `bh_routing::MrtElemSource` are
/// generic over this trait, so the same element stream runs over either.
///
/// Every implementation ends the stream at its first error: the `Err` is
/// returned once, and every later call yields `Ok(false)`.
pub trait MessageStream {
    /// Frame and check records until the next BGP4MP UPDATE and fill
    /// `into` with it; no `BgpUpdate` is built. Every record passed over
    /// (state changes, `TABLE_DUMP_V2`, other BGP messages, unknown
    /// types) is checked and counted, then dropped, and an UPDATE is
    /// checked whole before `into` changes. `Ok(false)` is end of stream
    /// — or, for a reader over a still growing archive, "nothing
    /// complete yet".
    fn next_update(&mut self, into: &mut UpdateRecord) -> Result<bool, MrtError>;

    /// Records successfully decoded so far.
    fn records_read(&self) -> u64;

    /// Records skipped (tolerant mode only).
    fn records_skipped(&self) -> u64;
}

/// Zero-copy MRT reader over a complete in-memory archive.
///
/// The reader frames the archive itself, held as one [`Bytes`]: record
/// bodies are parsed in place, and the attribute blocks its
/// [`AttrCache`] keeps are O(1) refcounted slices of the same
/// allocation. The only per-record copies left are the decoded
/// prefixes themselves. A record that extends past the end of the
/// archive is a tear and ends the stream with an error.
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

    /// [`next_update`](MessageStream::next_update) into a fresh record.
    #[doc(hidden)]
    pub fn next_message(&mut self) -> Result<Option<UpdateRecord>, MrtError> {
        let mut update = UpdateRecord::default();
        Ok(self.next_update(&mut update)?.then_some(update))
    }
}

impl MessageStream for MrtBytesReader {
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

/// The sending peer of a BGP4MP record.
pub(crate) struct Envelope {
    pub(crate) peer_asn: Asn,
    pub(crate) peer_ip: IpAddr,
}

/// A record body as [`parse_body`] leaves it.
pub(crate) enum BodyView<'a> {
    /// BGP4MP MESSAGE(_AS4): the envelope and, for an UPDATE, its checked
    /// view (`None` for any other BGP message). Only the attribute block
    /// is left to decode.
    Message(Envelope, Option<UpdateView<'a>>),
    /// Every other record type, checked.
    Other,
}

/// Check that a state-change code names a BGP FSM state: RFC 6396
/// §4.4.1 numbers them 1 (Idle) to 6 (Established).
fn check_state(what: &'static str, code: [u8; 2]) -> Result<(), CodecError> {
    let code = u16::from_be_bytes(code);
    match code {
        1..=6 => Ok(()),
        _ => Err(CodecError::BadValue { what, value: code as u64 }),
    }
}

/// The one record-body parser: every check a record must pass, over the
/// body borrowed from the framer's window. A BGP4MP message is left as a
/// view (see [`BodyView`]); every other record type is checked here and
/// builds nothing.
pub(crate) fn parse_body(ty: u16, subtype: u16, mut body: &[u8]) -> Result<BodyView<'_>, MrtError> {
    match (ty, subtype) {
        (mrt_type::BGP4MP | mrt_type::BGP4MP_ET, sub) => {
            if ty == mrt_type::BGP4MP_ET {
                let _micros = take::<4>(&mut body, "et microseconds")?;
            }
            let as4 = matches!(sub, bgp4mp_subtype::MESSAGE_AS4 | bgp4mp_subtype::STATE_CHANGE_AS4);
            // Peer and local ASN, then the interface index.
            let peer_asn = if as4 {
                let [p0, p1, p2, p3, ..] = take::<10>(&mut body, "as4 header")?;
                u32::from_be_bytes([p0, p1, p2, p3])
            } else {
                let [p0, p1, ..] = take::<6>(&mut body, "as2 header")?;
                u16::from_be_bytes([p0, p1]).into()
            };
            let afi = u16::from_be_bytes(take(&mut body, "afi")?);
            let peer_ip = get_addr(&mut body, afi)?;
            let _local_ip = get_addr(&mut body, afi)?;
            match sub {
                bgp4mp_subtype::MESSAGE | bgp4mp_subtype::MESSAGE_AS4 => {
                    let envelope = Envelope { peer_asn: Asn::new(peer_asn), peer_ip };
                    Ok(BodyView::Message(envelope, UpdateView::parse(body)?))
                }
                bgp4mp_subtype::STATE_CHANGE | bgp4mp_subtype::STATE_CHANGE_AS4 => {
                    let [o0, o1, n0, n1] = take(&mut body, "state change")?;
                    check_state("old state", [o0, o1])?;
                    check_state("new state", [n0, n1])?;
                    Ok(BodyView::Other)
                }
                _ => Ok(BodyView::Other),
            }
        }
        (mrt_type::TABLE_DUMP_V2, td2_subtype::PEER_INDEX_TABLE) => {
            CodecError::ensure("peer index header", body.remaining(), 8)?;
            body.advance(4); // collector BGP ID
            let name_len = body.get_u16() as usize;
            CodecError::ensure("view name", body.remaining(), name_len)?;
            body.advance(name_len);
            CodecError::ensure("peer count", body.remaining(), 2)?;
            let count = body.get_u16();
            for _ in 0..count {
                CodecError::ensure("peer entry", body.remaining(), 5)?;
                let peer_type = body.get_u8();
                body.advance(4); // peer BGP ID
                get_addr(&mut body, if peer_type & 0b01 != 0 { 2 } else { 1 })?;
                let asn_len = if peer_type & 0b10 != 0 { 4 } else { 2 };
                CodecError::ensure("peer asn", body.remaining(), asn_len)?;
                body.advance(asn_len);
            }
            Ok(BodyView::Other)
        }
        (mrt_type::TABLE_DUMP_V2, td2_subtype::RIB_IPV4_UNICAST) => {
            CodecError::ensure("rib header", body.remaining(), 4)?;
            body.advance(4); // sequence number
            wire::decode_nlri(&mut body)?;
            CodecError::ensure("rib entry count", body.remaining(), 2)?;
            let count = body.get_u16();
            for _ in 0..count {
                CodecError::ensure("rib entry", body.remaining(), 8)?;
                body.advance(6); // peer index, originated time
                let attr_len = body.get_u16() as usize;
                CodecError::ensure("rib attributes", body.remaining(), attr_len)?;
                let (block, rest) = body.split_at(attr_len);
                body = rest;
                wire::decode_attribute_block(block)?;
            }
            Ok(BodyView::Other)
        }
        _ => Ok(BodyView::Other),
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::prefix::Ipv4Prefix;
    use bh_bgp_types::time::SimTime;
    use bh_bgp_types::update::BgpUpdate;

    use super::*;
    use crate::write::MrtWriter;

    fn one_update_archive() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let mut update = BgpUpdate::new(PathAttributes {
            as_path: "6939 64500".parse().unwrap(),
            next_hop: Some("10.0.0.9".parse().unwrap()),
            ..Default::default()
        });
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

    /// A record of type `ty` / `subtype` around `body`.
    fn record(time: u32, ty: u16, subtype: u16, body: &[u8]) -> Vec<u8> {
        let mut buf = time.to_be_bytes().to_vec();
        buf.extend_from_slice(&ty.to_be_bytes());
        buf.extend_from_slice(&subtype.to_be_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_be_bytes());
        buf.extend_from_slice(body);
        buf
    }

    /// A BGP4MP MESSAGE_AS4 record whose payload is `0xdeadbeef`.
    fn corrupt_record() -> Vec<u8> {
        record(1, mrt_type::BGP4MP, bgp4mp_subtype::MESSAGE_AS4, &[0xde, 0xad, 0xbe, 0xef])
    }

    /// A BGP4MP STATE_CHANGE_AS4 record from `old` to `new`, under the
    /// envelope [`one_update_archive`] writes.
    fn state_change(old: u16, new: u16) -> Vec<u8> {
        let written = one_update_archive();
        let mut body = written[12..12 + 20].to_vec(); // ASNs, ifindex, AFI, IPs
        body.extend_from_slice(&old.to_be_bytes());
        body.extend_from_slice(&new.to_be_bytes());
        record(1, mrt_type::BGP4MP, bgp4mp_subtype::STATE_CHANGE_AS4, &body)
    }

    /// Every UPDATE `reader` yields.
    fn drain(reader: &mut impl MessageStream) -> Result<Vec<UpdateRecord>, MrtError> {
        let mut updates = Vec::new();
        let mut into = UpdateRecord::default();
        while reader.next_update(&mut into)? {
            updates.push(into.clone());
        }
        Ok(updates)
    }

    #[test]
    fn empty_input_is_clean_eof() {
        let mut r = MrtBytesReader::new(Vec::new());
        assert!(!r.next_update(&mut UpdateRecord::default()).unwrap());
        assert_eq!(r.records_read(), 0);
    }

    #[test]
    fn truncated_header_is_error() {
        let buf = one_update_archive();
        let mut r = MrtBytesReader::new(buf[..6].to_vec());
        assert!(matches!(r.next_update(&mut UpdateRecord::default()), Err(MrtError::Codec(_))));
    }

    #[test]
    fn truncated_body_is_error() {
        let buf = one_update_archive();
        let mut r = MrtBytesReader::new(buf[..buf.len() - 3].to_vec());
        assert!(matches!(r.next_update(&mut UpdateRecord::default()), Err(MrtError::Codec(_))));
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&mrt_type::BGP4MP.to_be_bytes());
        buf.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        buf.extend_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        let mut r = MrtBytesReader::new(buf);
        assert!(matches!(
            r.next_update(&mut UpdateRecord::default()),
            Err(MrtError::OversizedRecord(_))
        ));
    }

    #[test]
    fn every_feeder_ends_the_stream_at_its_first_error() {
        // After an error the stream offset is unreliable (the header is
        // consumed, the body is not): a second call must not frame the
        // leftover body bytes as a header. One rule, in the core, so
        // both feeders are driven through `next_update` directly.
        let record = one_update_archive();
        let header = |ty: u16, len: u32| {
            let mut h = 9u32.to_be_bytes().to_vec();
            h.extend_from_slice(&ty.to_be_bytes());
            h.extend_from_slice(&bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
            h.extend_from_slice(&len.to_be_bytes());
            h
        };
        let after_one_record = |tail: &[u8]| [&record[..], tail].concat();
        let cases = [
            ("torn header", after_one_record(&record[..6])),
            ("torn body", after_one_record(&record[..record.len() - 3])),
            (
                "oversized",
                after_one_record(&[header(99, MAX_RECORD_LEN + 1), record.clone()].concat()),
            ),
            (
                "corrupt payload, strict",
                after_one_record(&[corrupt_record(), record.clone()].concat()),
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
                let mut into = UpdateRecord::default();
                assert!(reader.next_update(&mut into).unwrap(), "{feeder}, {case}: intact record");
                assert!(reader.next_update(&mut into).is_err(), "{feeder}, {case}: one error");
                for _ in 0..3 {
                    assert!(
                        matches!(reader.next_update(&mut into), Ok(false)),
                        "{feeder}, {case}: the stream stays ended"
                    );
                }
                assert_eq!((reader.records_read(), reader.records_skipped()), (1, 0));
            }
        }
    }

    #[test]
    fn unknown_record_types_pass_through() {
        let mut buf = record(7, 99, 0, &[1, 2, 3]);
        buf.extend_from_slice(&one_update_archive());
        let mut r = MrtBytesReader::new(buf);
        let updates = drain(&mut r).unwrap();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].timestamp, SimTime::from_unix(5));
        assert_eq!((r.records_read(), r.records_skipped()), (2, 0));
    }

    #[test]
    fn tolerant_mode_skips_corrupt_payload_and_keeps_framing() {
        let mut buf = corrupt_record();
        buf.extend_from_slice(&one_update_archive());

        // Strict reader errors.
        let mut strict = MrtBytesReader::new(buf.clone());
        assert!(drain(&mut strict).is_err());

        // Tolerant reader recovers the second record.
        let mut tolerant = MrtBytesReader::tolerant(buf);
        assert_eq!(drain(&mut tolerant).unwrap().len(), 1);
        assert_eq!(tolerant.records_skipped(), 1);
        assert_eq!(tolerant.records_read(), 1);
    }

    #[test]
    fn tolerant_mode_counts_every_skip_across_the_stream() {
        // Corrupt records interleaved with valid ones: each skip is
        // counted and every valid record still decodes.
        let (corrupt, valid) = (corrupt_record(), one_update_archive());
        let buf = [&corrupt[..], &valid, &corrupt, &corrupt, &valid].concat();
        let mut r = MrtBytesReader::tolerant(buf);
        assert_eq!(r.mode(), ReadMode::Tolerant);
        assert_eq!(drain(&mut r).unwrap().len(), 2);
        assert_eq!(r.records_read(), 2);
        assert_eq!(r.records_skipped(), 3);
    }

    #[test]
    fn et_records_fold_microseconds() {
        // The written AS4 UPDATE's body behind a microseconds field.
        let written = one_update_archive();
        let body = [&123_456u32.to_be_bytes()[..], &written[12..]].concat();
        let buf = record(99, mrt_type::BGP4MP_ET, bgp4mp_subtype::MESSAGE_AS4, &body);
        let updates = drain(&mut MrtBytesReader::new(buf)).unwrap();
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].timestamp, SimTime::from_unix(99));
        assert_eq!(updates[0].peer_asn, Asn::new(6939));
        assert_eq!(
            updates[0].announced.as_slice(),
            ["130.149.1.1/32".parse::<Ipv4Prefix>().unwrap()]
        );

        // A BGP4MP_ET STATE_CHANGE_AS4 is checked, counted and passed
        // over; a state code outside 1..=6 fails a strict read.
        let state_change = |new: u16| {
            let mut body = 123_456u32.to_be_bytes().to_vec();
            body.extend_from_slice(&written[12..12 + 20]); // ASNs, ifindex, AFI, IPs
            body.extend_from_slice(&6u16.to_be_bytes());
            body.extend_from_slice(&new.to_be_bytes());
            record(99, mrt_type::BGP4MP_ET, bgp4mp_subtype::STATE_CHANGE_AS4, &body)
        };
        let mut r = MrtBytesReader::new(state_change(1));
        assert!(drain(&mut r).unwrap().is_empty());
        assert_eq!(r.records_read(), 1);
        let mut r = MrtBytesReader::new(state_change(7));
        assert!(matches!(
            drain(&mut r),
            Err(MrtError::Codec(CodecError::BadValue { what: "new state", value: 7 }))
        ));
    }

    #[test]
    fn as2_message_records_are_read() {
        // The written UPDATE under a legacy MESSAGE (2-byte AS) envelope,
        // then a KEEPALIVE in one.
        let written = one_update_archive();
        let as2 = |msg: &[u8]| {
            let mut body = Vec::new();
            body.extend_from_slice(&6939u16.to_be_bytes());
            body.extend_from_slice(&65000u16.to_be_bytes());
            body.extend_from_slice(&0u16.to_be_bytes());
            body.extend_from_slice(&written[12 + 10..12 + 20]); // AFI, IPs
            body.extend_from_slice(msg);
            record(1, mrt_type::BGP4MP, bgp4mp_subtype::MESSAGE, &body)
        };
        let keepalive = [&[0xFF; 16][..], &19u16.to_be_bytes(), &[4]].concat();
        let buf = [as2(&written[12 + 20..]), as2(&keepalive)].concat();
        let mut r = MrtBytesReader::new(buf);
        let updates = drain(&mut r).unwrap();
        assert_eq!(updates.len(), 1); // KEEPALIVE → no update
        assert_eq!(updates[0].peer_asn, Asn::new(6939));
        assert_eq!(updates[0].peer_ip, "10.0.0.1".parse::<IpAddr>().unwrap());
        assert_eq!(r.records_read(), 2);
    }

    #[test]
    fn next_update_passes_over_other_records() {
        // State change, then an update: next_update lands on the update.
        let buf = [state_change(1, 6), one_update_archive()].concat();
        let mut r = MrtBytesReader::new(buf);
        let mut into = UpdateRecord::default();
        assert!(r.next_update(&mut into).unwrap());
        assert_eq!(into.timestamp, SimTime::from_unix(5));
        assert_eq!(into.peer_asn, Asn::new(6939));
        assert!(into.attrs.is_some());
        assert!(!r.next_update(&mut into).unwrap());
        assert_eq!(r.records_read(), 2);
    }

    /// RFC 6396 numbers the FSM states 1 to 6: a state change whose old
    /// or new state is 0 or 7 fails a strict read, and a tolerant one
    /// skips and counts it and reads on. Every code in range reads.
    #[test]
    fn state_codes_outside_one_to_six_are_refused() {
        for (old, new) in (1..=6).flat_map(|old| (1..=6).map(move |new| (old, new))) {
            let mut r = MrtBytesReader::new(state_change(old, new));
            assert!(drain(&mut r).unwrap().is_empty());
            assert_eq!((r.records_read(), r.records_skipped()), (1, 0), "{old} -> {new}");
        }
        for (old, new, what, value) in [
            (0, 6, "old state", 0),
            (7, 6, "old state", 7),
            (1, 0, "new state", 0),
            (1, 7, "new state", 7),
        ] {
            let archive = [state_change(old, new), one_update_archive()].concat();
            let mut strict = MrtBytesReader::new(archive.clone());
            let err = drain(&mut strict).unwrap_err();
            let MrtError::Codec(CodecError::BadValue { what: w, value: v }) = err else {
                panic!("{old} -> {new}: {err}");
            };
            assert_eq!((w, v), (what, value));
            assert_eq!((strict.records_read(), strict.records_skipped()), (0, 0));
            let mut tolerant = MrtBytesReader::tolerant(archive);
            assert_eq!(drain(&mut tolerant).unwrap().len(), 1, "{old} -> {new}");
            assert_eq!((tolerant.records_read(), tolerant.records_skipped()), (1, 1));
        }
    }

    #[test]
    fn multi_record_stream_reads_in_order() {
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.extend_from_slice(&one_update_archive());
        }
        assert_eq!(drain(&mut MrtBytesReader::new(buf)).unwrap().len(), 5);
    }

    #[test]
    fn bytes_reader_repeated_attr_blocks_hit_the_cache() {
        let mut buf = Vec::new();
        for _ in 0..4 {
            buf.extend_from_slice(&one_update_archive());
        }
        let mut r = MrtBytesReader::new(buf);
        let updates = drain(&mut r).unwrap();
        assert_eq!(r.records_read(), 4);
        assert_eq!(r.attr_cache().misses(), 1, "identical attr blocks decode once");
        assert_eq!(r.attr_cache().hits(), 3);
        let (first, last) = (updates[0].attrs.as_ref(), updates[3].attrs.as_ref());
        assert!(first.unwrap().as_path.shares_allocation(&last.unwrap().as_path));
    }

    #[test]
    fn bytes_reader_empty_input_is_clean_eof() {
        let mut r = MrtBytesReader::new(Vec::new());
        assert!(drain(&mut r).unwrap().is_empty());
        assert!(drain(&mut r).unwrap().is_empty());
    }

    #[test]
    fn bytes_reader_truncation_and_tolerance_match_read_reader() {
        let buf = one_update_archive();
        // Truncated header.
        let mut r = MrtBytesReader::new(buf[..6].to_vec());
        assert!(matches!(drain(&mut r), Err(MrtError::Codec(_))));
        // Truncated body, and the stream stops after the framing error.
        let mut r = MrtBytesReader::new(buf[..buf.len() - 3].to_vec());
        assert!(drain(&mut r).is_err());
        assert!(drain(&mut r).unwrap().is_empty());
        // Tolerant mode skips a corrupt payload but keeps framing.
        let noisy = [corrupt_record(), buf].concat();
        let mut tolerant = MrtBytesReader::tolerant(noisy);
        assert_eq!(tolerant.mode(), ReadMode::Tolerant);
        assert_eq!(drain(&mut tolerant).unwrap().len(), 1);
        assert_eq!(tolerant.records_skipped(), 1);
        assert_eq!(tolerant.records_read(), 1);
    }

    #[test]
    fn bytes_reader_bodies_alias_the_archive_buffer() {
        // The reader must slice, not copy: drain a two-record archive held
        // as one shared buffer (`Bytes::from(Vec)` is zero-copy) and check
        // both records decode through the slicing path.
        let mut buf = Vec::new();
        buf.extend_from_slice(&one_update_archive());
        buf.extend_from_slice(&one_update_archive());
        let shared = Bytes::from(buf);
        let mut r = MrtBytesReader::new(shared.clone());
        let updates = drain(&mut r).unwrap();
        assert_eq!(updates.len(), 2);
        assert!(updates.iter().all(|u| u.timestamp == SimTime::from_unix(5)));
        assert_eq!((r.attr_cache().misses(), r.attr_cache().hits()), (1, 1));
    }
}
