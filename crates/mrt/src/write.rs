//! MRT writer: serializes simulated collector output into archive bytes.

#![deny(clippy::cast_possible_truncation)]

use std::io::Write;
use std::net::IpAddr;

use bytes::BufMut;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_bgp_types::wire::{self, BGP_MAX_MESSAGE_LEN};

use crate::record::{bgp4mp_subtype, mrt_type, MrtError};

/// Length of the MRT common header (timestamp, type, subtype, length).
const MRT_HEADER_LEN: usize = 12;

/// Streaming MRT writer over any [`Write`] sink.
///
/// Emits `BGP4MP/MESSAGE_AS4` UPDATE records — the "updates" files the
/// inference reads — with correct length framing, so the output is a
/// structurally valid MRT archive.
///
/// Every record is framed in place in one buffer the writer reuses —
/// header, envelope and message, each length filled once what it counts
/// is written — and reaches the sink in one `write_all`: a record the
/// writer refuses (an UPDATE over [`BGP_MAX_MESSAGE_LEN`], a timestamp
/// its field cannot hold) leaves the sink and the counters as they
/// were.
pub struct MrtWriter<W: Write> {
    sink: W,
    /// The record being framed, reused from record to record.
    record: Vec<u8>,
    records_written: u64,
    bytes_written: u64,
}

/// `time` in a 4-byte seconds field.
fn seconds(time: SimTime) -> Result<u32, MrtError> {
    u32::try_from(time.unix())
        .map_err(|_| CodecError::BadValue { what: "mrt timestamp", value: time.unix() }.into())
}

/// The BGP4MP envelope: ASNs, interface index, AFI and both addresses.
fn put_envelope(
    buf: &mut Vec<u8>,
    peer_asn: Asn,
    peer_ip: IpAddr,
    local_asn: Asn,
    local_ip: IpAddr,
) {
    buf.put_u32(peer_asn.value());
    buf.put_u32(local_asn.value());
    buf.put_u16(0); // interface index
                    // AFI + addresses. Mixed-family pairs are not representable in
                    // BGP4MP; treat the peer address family as authoritative.
    match (peer_ip, local_ip) {
        (IpAddr::V4(p), IpAddr::V4(l)) => {
            buf.put_u16(1); // AFI IPv4
            buf.put_slice(&p.octets());
            buf.put_slice(&l.octets());
        }
        (IpAddr::V6(p), IpAddr::V6(l)) => {
            buf.put_u16(2); // AFI IPv6
            buf.put_slice(&p.octets());
            buf.put_slice(&l.octets());
        }
        (IpAddr::V4(p), IpAddr::V6(_)) => {
            buf.put_u16(1);
            buf.put_slice(&p.octets());
            buf.put_slice(&[0u8; 4]);
        }
        (IpAddr::V6(p), IpAddr::V4(_)) => {
            buf.put_u16(2);
            buf.put_slice(&p.octets());
            buf.put_slice(&[0u8; 16]);
        }
    }
}

impl<W: Write> MrtWriter<W> {
    /// Wrap a sink.
    pub fn new(sink: W) -> Self {
        MrtWriter { sink, record: Vec::new(), records_written: 0, bytes_written: 0 }
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Number of bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Consume the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }

    /// Write one UPDATE as a `BGP4MP/MESSAGE_AS4` record. An UPDATE whose
    /// message would exceed [`BGP_MAX_MESSAGE_LEN`] — which readers refuse
    /// — is an error and writes nothing.
    pub fn write_update(
        &mut self,
        timestamp: SimTime,
        peer_asn: Asn,
        peer_ip: IpAddr,
        local_asn: Asn,
        local_ip: IpAddr,
        update: &BgpUpdate,
    ) -> Result<(), MrtError> {
        let time = seconds(timestamp)?;
        self.record.clear();
        self.record.put_u32(time);
        self.record.put_u16(mrt_type::BGP4MP);
        self.record.put_u16(bgp4mp_subtype::MESSAGE_AS4);
        self.record.put_u32(0); // record length, filled below
        put_envelope(&mut self.record, peer_asn, peer_ip, local_asn, local_ip);
        let start = self.record.len();
        wire::encode_update_into(&mut self.record, update);
        let len = self.record.len() - start;
        if len > BGP_MAX_MESSAGE_LEN {
            return Err(CodecError::BadLength { what: "update message", value: len }.into());
        }
        let body = self.record.len() - MRT_HEADER_LEN;
        let body = u32::try_from(body)
            .map_err(|_| CodecError::BadLength { what: "mrt record", value: body })?;
        self.record[8..MRT_HEADER_LEN].copy_from_slice(&body.to_be_bytes());
        self.sink.write_all(&self.record)?;
        self.records_written += 1;
        self.bytes_written += self.record.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::prefix::Ipv4Prefix;

    use super::*;
    use crate::read::{MessageStream, MrtBytesReader};
    use crate::record::UpdateRecord;

    /// An announcement of a /8 plus `n` distinct /24s under the default
    /// attributes (a 7-byte block): `23 + 7 + 2 + 4 n` message bytes.
    fn announcement(n: u32) -> BgpUpdate {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.announce_v4("10.0.0.0/8".parse().unwrap());
        (0..n).for_each(|i| update.announce_v4(Ipv4Prefix::from_raw(0x0B00_0000 | (i << 8), 24)));
        update
    }

    fn write(w: &mut MrtWriter<Vec<u8>>, update: &BgpUpdate) -> Result<(), MrtError> {
        let (peer, local) = ("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
        w.write_update(SimTime::from_unix(1), Asn::new(1), peer, Asn::new(2), local, update)
    }

    /// An UPDATE of 1 400 /24s would be a 5 632-byte message: refused,
    /// with nothing written and nothing counted, and the writer goes on.
    #[test]
    fn oversize_update_is_refused_and_writes_nothing() {
        let mut w = MrtWriter::new(Vec::new());
        let err = write(&mut w, &announcement(1_400)).unwrap_err();
        assert!(
            matches!(
                err,
                MrtError::Codec(CodecError::BadLength { what: "update message", value: 5_632 })
            ),
            "{err}"
        );
        assert_eq!((w.records_written(), w.bytes_written()), (0, 0));
        assert!(w.into_inner().is_empty());

        let mut w = MrtWriter::new(Vec::new());
        write(&mut w, &BgpUpdate::withdraw("10.0.0.0/8".parse().unwrap())).unwrap();
        let one = w.bytes_written();
        assert!(write(&mut w, &announcement(1_400)).is_err());
        write(&mut w, &BgpUpdate::withdraw("10.0.0.0/8".parse().unwrap())).unwrap();
        assert_eq!((w.records_written(), w.bytes_written()), (2, 2 * one));
        let bytes = w.into_inner();
        let (first, second) = bytes.split_at(bytes.len() / 2);
        assert_eq!(first, second);
    }

    /// An UPDATE of exactly [`BGP_MAX_MESSAGE_LEN`] bytes is written and
    /// reads back.
    #[test]
    fn maximum_size_update_writes_and_reads_back() {
        let update = announcement(1_016);
        let mut w = MrtWriter::new(Vec::new());
        write(&mut w, &update).unwrap();
        let bytes = w.into_inner();
        let header = MRT_HEADER_LEN + 20; // common header + IPv4 envelope
        assert_eq!(bytes.len(), header + BGP_MAX_MESSAGE_LEN);
        let mut reader = MrtBytesReader::new(bytes);
        let mut read = UpdateRecord::default();
        assert!(reader.next_update(&mut read).unwrap(), "one record");
        assert_eq!(read.attrs, Some(update.attrs.clone()));
        assert!(read.announced.as_slice().iter().eq(update.announced_v4()));
        assert!(read.withdrawn.is_empty());
        assert!(!reader.next_update(&mut read).unwrap());
    }

    /// A timestamp its field cannot hold is refused before anything
    /// reaches the sink.
    #[test]
    fn unrepresentable_fields_are_refused() {
        let mut w = MrtWriter::new(Vec::new());
        let late = SimTime::from_unix(u64::from(u32::MAX) + 1);
        let update = BgpUpdate::withdraw("10.0.0.0/8".parse().unwrap());
        let peer = "10.0.0.1".parse().unwrap();
        let err = w.write_update(late, Asn::new(1), peer, Asn::new(2), peer, &update).unwrap_err();
        assert!(matches!(err, MrtError::Codec(CodecError::BadValue { what: "mrt timestamp", .. })));
        assert_eq!(w.records_written(), 0);
        assert!(w.into_inner().is_empty());
    }

    #[test]
    fn writer_counts_records_and_bytes() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let update = BgpUpdate::withdraw("10.0.0.0/8".parse().unwrap());
        w.write_update(
            SimTime::from_unix(1),
            Asn::new(1),
            "10.0.0.1".parse().unwrap(),
            Asn::new(2),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        assert_eq!(w.records_written(), 1);
        let bytes = w.bytes_written();
        assert!(bytes > 12);
        assert_eq!(buf.len() as u64, bytes);
    }

    #[test]
    fn header_framing_is_correct() {
        let mut w = MrtWriter::new(Vec::new());
        write(&mut w, &BgpUpdate::withdraw("10.0.0.0/8".parse().unwrap())).unwrap();
        let buf = w.into_inner();
        // timestamp
        assert_eq!(u32::from_be_bytes(buf[0..4].try_into().unwrap()), 1);
        // type / subtype
        assert_eq!(u16::from_be_bytes(buf[4..6].try_into().unwrap()), mrt_type::BGP4MP);
        assert_eq!(u16::from_be_bytes(buf[6..8].try_into().unwrap()), bgp4mp_subtype::MESSAGE_AS4);
        // length matches remaining bytes
        let len = u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 12);
    }

    #[test]
    fn ipv6_peer_addressing_is_encoded() {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let update = BgpUpdate::new(PathAttributes::default());
        w.write_update(
            SimTime::from_unix(1),
            Asn::new(1),
            "2001:db8::1".parse().unwrap(),
            Asn::new(2),
            "2001:db8::2".parse().unwrap(),
            &update,
        )
        .unwrap();
        // AFI field (after 4+4+2 bytes of ASNs + ifindex, 12-byte header).
        let afi = u16::from_be_bytes(buf[12 + 10..12 + 12].try_into().unwrap());
        assert_eq!(afi, 2);
    }
}
