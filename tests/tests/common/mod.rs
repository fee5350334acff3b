//! The reader as a test input: the two public MRT feeders over one
//! framing core, each driven the way its transport delivers bytes —
//! `MrtBytesReader` over the whole archive, `TailingReader` under appends
//! cut at arbitrary offsets. Properties that take a [`Feeder`] hold for
//! both or the unification is broken — at update level
//! ([`Feeder::decode`], one [`Update`] per `next_update`) and at elem
//! level ([`Feeder::elems`]). The [`raw`] builders write the records
//! `MrtWriter` cannot.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use std::net::IpAddr;
use std::ops::Range;

use proptest::prelude::*;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_mrt::{MessageStream, MrtBytesReader, MrtError, ReadMode, TailingReader, UpdateRecord};
use bh_routing::{BgpElem, DataSource, ElemSource, ElemType, MrtElemSource};

/// The labels [`Feeder::elems`] puts on every elem.
pub const DATASET: DataSource = DataSource::Ris;
pub const COLLECTOR: u16 = 7;

/// Which reader frames the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Bytes,
    Tail,
}

/// A reader plus the chunking its bytes arrive in (cycled; ignored by
/// [`Transport::Bytes`], which sees the archive whole).
#[derive(Debug, Clone)]
pub struct Feeder {
    pub transport: Transport,
    pub chunks: Vec<usize>,
}

pub fn arb_feeder() -> impl Strategy<Value = Feeder> {
    (any::<bool>(), prop::collection::vec(1usize..48, 1..8)).prop_map(|(tail, chunks)| Feeder {
        transport: if tail { Transport::Tail } else { Transport::Bytes },
        chunks,
    })
}

/// One UPDATE as a reader filled it, comparable across feeders: (time,
/// (peer ASN, peer IP), attributes, announced, withdrawn), the prefixes
/// first-seen without repeats.
pub type Update =
    (SimTime, (Asn, IpAddr), Option<PathAttributes>, Vec<Ipv4Prefix>, Vec<Ipv4Prefix>);

/// The comparable form of `record`.
pub fn update_of(record: &UpdateRecord) -> Update {
    (
        record.timestamp,
        (record.peer_asn, record.peer_ip),
        record.attrs.clone(),
        record.announced.as_slice().to_vec(),
        record.withdrawn.as_slice().to_vec(),
    )
}

/// What a reader made of an archive.
#[derive(Debug)]
pub struct Outcome {
    pub updates: Vec<Update>,
    pub error: Option<MrtError>,
    pub records_read: u64,
    pub records_skipped: u64,
}

impl Outcome {
    /// Everything comparable across feeders (the error by its rendering:
    /// `MrtError` holds an `io::Error` and is not `PartialEq`).
    pub fn summary(&self) -> (&[Update], Option<String>, u64, u64) {
        let error = self.error.as_ref().map(|e| format!("{e:?}"));
        (&self.updates, error, self.records_read, self.records_skipped)
    }
}

/// Drain `reader` until it has nothing more *for now*; an error is
/// recorded, and must be final.
fn pump(reader: &mut impl MessageStream, out: &mut Outcome) {
    let mut record = UpdateRecord::default();
    loop {
        match reader.next_update(&mut record) {
            Ok(true) => {
                assert!(out.error.is_none(), "an update after {:?}", out.error);
                out.updates.push(update_of(&record));
            }
            Ok(false) => return,
            Err(e) => {
                assert!(out.error.is_none(), "a second error after {:?}: {e:?}", out.error);
                out.error = Some(e);
            }
        }
    }
}

impl Feeder {
    /// Decode `archive` through this feeder in `mode`.
    pub fn decode(&self, mode: ReadMode, archive: &[u8]) -> Outcome {
        let tolerant = mode == ReadMode::Tolerant;
        let mut out =
            Outcome { updates: Vec::new(), error: None, records_read: 0, records_skipped: 0 };
        let chunks = self.chunks.iter().cycle();
        let (read, skipped) = match self.transport {
            Transport::Bytes => {
                let archive = archive.to_vec();
                let mut reader = if tolerant {
                    MrtBytesReader::tolerant(archive)
                } else {
                    MrtBytesReader::new(archive)
                };
                pump(&mut reader, &mut out);
                (reader.records_read(), reader.records_skipped())
            }
            Transport::Tail => {
                let mut reader =
                    if tolerant { TailingReader::tolerant() } else { TailingReader::new() };
                let mut rest = archive;
                for &chunk in chunks {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(chunk.min(rest.len()));
                    reader.extend(head);
                    pump(&mut reader, &mut out);
                    rest = tail;
                }
                reader.close();
                pump(&mut reader, &mut out);
                (reader.records_read(), reader.records_skipped())
            }
        };
        out.records_read = read;
        out.records_skipped = skipped;
        out
    }

    /// Stream `archive` through an `MrtElemSource` over this feeder's
    /// reader in `mode`, labelled [`DATASET`] / [`COLLECTOR`].
    pub fn elems(&self, mode: ReadMode, archive: &[u8]) -> ElemOutcome {
        let tolerant = mode == ReadMode::Tolerant;
        match self.transport {
            Transport::Bytes => {
                let archive = archive.to_vec();
                let reader = if tolerant {
                    MrtBytesReader::tolerant(archive)
                } else {
                    MrtBytesReader::new(archive)
                };
                ElemOutcome::drain(MrtElemSource::from_reader(reader, DATASET, COLLECTOR))
            }
            Transport::Tail => {
                let reader =
                    if tolerant { TailingReader::tolerant() } else { TailingReader::new() };
                let mut source = MrtElemSource::from_reader(reader, DATASET, COLLECTOR);
                let mut elems = Vec::new();
                let mut rest = archive;
                for &chunk in self.chunks.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(chunk.min(rest.len()));
                    source.reader_mut().extend(head);
                    pump_elems(&mut source, &mut elems);
                    rest = tail;
                }
                source.reader_mut().close();
                pump_elems(&mut source, &mut elems);
                ElemOutcome::finish(source, elems)
            }
        }
    }
}

/// What an elem source made of an archive.
#[derive(Debug)]
pub struct ElemOutcome {
    pub elems: Vec<BgpElem>,
    pub error: Option<MrtError>,
    pub records_read: u64,
    pub records_skipped: u64,
}

impl ElemOutcome {
    fn drain<M: MessageStream>(mut source: MrtElemSource<M>) -> Self {
        let mut elems = Vec::new();
        pump_elems(&mut source, &mut elems);
        Self::finish(source, elems)
    }

    fn finish<M: MessageStream>(mut source: MrtElemSource<M>, elems: Vec<BgpElem>) -> Self {
        ElemOutcome {
            elems,
            records_read: source.records_read(),
            records_skipped: source.records_skipped(),
            error: source.take_error(),
        }
    }

    /// Everything comparable with an update-level [`Outcome`].
    pub fn summary(&self) -> (&[BgpElem], Option<String>, u64, u64) {
        let error = self.error.as_ref().map(|e| format!("{e:?}"));
        (&self.elems, error, self.records_read, self.records_skipped)
    }
}

/// Drain `source` until it has nothing more *for now*; once it reported
/// an error, it must stay silent.
fn pump_elems<M: MessageStream>(source: &mut MrtElemSource<M>, out: &mut Vec<BgpElem>) {
    let failed = source.error().is_some();
    while let Some(elem) = source.next_owned() {
        assert!(!failed, "an elem after {:?}", source.error());
        out.push(elem);
    }
}

/// The elems of one UPDATE, built here rather than by the decoder: one
/// per announced prefix in first-seen order without repeats, then one per
/// withdrawn prefix likewise; a withdrawal carries no attributes.
pub fn expand_update(
    time: SimTime,
    peer_asn: Asn,
    peer_ip: IpAddr,
    attrs: &PathAttributes,
    announced: &[Ipv4Prefix],
    withdrawn: &[Ipv4Prefix],
) -> Vec<BgpElem> {
    let first_seen = |prefixes: &[_]| {
        let mut out = Vec::new();
        for p in prefixes {
            if !out.contains(p) {
                out.push(*p);
            }
        }
        out
    };
    let elem = |elem_type, prefix, announce: bool| BgpElem {
        time,
        dataset: DATASET,
        collector: COLLECTOR,
        peer_asn,
        peer_ip,
        elem_type,
        prefix,
        as_path: if announce { attrs.as_path.clone() } else { Default::default() },
        communities: if announce { attrs.communities.clone() } else { Default::default() },
        next_hop: if announce { attrs.next_hop } else { None },
    };
    let mut out: Vec<BgpElem> =
        first_seen(announced).into_iter().map(|p| elem(ElemType::Announce, p, true)).collect();
    out.extend(first_seen(withdrawn).into_iter().map(|p| elem(ElemType::Withdraw, p, false)));
    out
}

/// The elems decoded updates stand for, expanded by [`expand_update`]
/// (an empty attribute block announces under default attributes).
pub fn expand_records(updates: &[Update]) -> Vec<BgpElem> {
    let mut out = Vec::new();
    for (time, (peer_asn, peer_ip), attrs, announced, withdrawn) in updates {
        let attrs = attrs.clone().unwrap_or_default();
        out.extend(expand_update(*time, *peer_asn, *peer_ip, &attrs, announced, withdrawn));
    }
    out
}

/// An independent walk of the length fields: how many complete records
/// a reader can frame out of `bytes` before the end, a tear, or an
/// oversized length.
pub fn framed_records(bytes: &[u8]) -> u64 {
    let (mut offset, mut framed) = (0usize, 0u64);
    while bytes.len() - offset >= 12 {
        let len = u32::from_be_bytes(bytes[offset + 8..offset + 12].try_into().unwrap());
        if len > bh_mrt::read::MAX_RECORD_LEN || bytes.len() - offset - 12 < len as usize {
            break;
        }
        offset += 12 + len as usize;
        framed += 1;
    }
    framed
}

/// The same walk over a whole archive: the `(timestamp, byte range)`
/// of every record, in order.
pub fn record_spans(bytes: &[u8]) -> Vec<(SimTime, Range<usize>)> {
    let (mut offset, mut spans) = (0usize, Vec::new());
    while offset < bytes.len() {
        let time = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let len = u32::from_be_bytes(bytes[offset + 8..offset + 12].try_into().unwrap());
        let end = offset + 12 + len as usize;
        spans.push((SimTime::from_unix(u64::from(time)), offset..end));
        offset = end;
    }
    spans
}

/// Record bytes written field by field, for the shapes `MrtWriter` does
/// not produce: 2-byte-AS `MESSAGE`, `BGP4MP_ET`, KEEPALIVEs, UPDATEs
/// whose NLRI repeat, and `TABLE_DUMP_V2` peers with 2-byte ASNs. Builders
/// return the offsets of the length fields they wrote, relative to the
/// bytes they return.
pub mod raw {
    use std::net::{IpAddr, Ipv4Addr};

    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::prefix::Ipv4Prefix;
    use bh_bgp_types::wire::encode_attributes;

    pub const BGP4MP: u16 = 16;
    pub const BGP4MP_ET: u16 = 17;
    pub const MESSAGE: u16 = 1;
    pub const MESSAGE_AS4: u16 = 4;
    pub const STATE_CHANGE_AS4: u16 = 5;
    pub const TABLE_DUMP_V2: u16 = 13;
    pub const PEER_INDEX_TABLE: u16 = 1;
    pub const RIB_IPV4_UNICAST: u16 = 2;

    /// A length or count field: where it sits and how wide it is.
    #[derive(Debug, Clone, Copy)]
    pub struct Field {
        pub name: &'static str,
        pub offset: usize,
        pub width: usize,
    }

    impl Field {
        fn shifted(self, by: usize) -> Field {
            Field { offset: self.offset + by, ..self }
        }
    }

    /// A BGP message of type `kind` around `body`.
    pub fn message(kind: u8, body: &[u8]) -> (Vec<u8>, Vec<Field>) {
        let mut msg = vec![0xFF; 16];
        msg.extend_from_slice(&((19 + body.len()) as u16).to_be_bytes());
        msg.push(kind);
        msg.extend_from_slice(body);
        (msg, vec![Field { name: "bgp message length", offset: 16, width: 2 }])
    }

    /// An UPDATE carrying the NLRI exactly as given (repeats kept); the
    /// attribute block is written only when something is announced.
    pub fn update(
        attrs: &PathAttributes,
        announced: &[Ipv4Prefix],
        withdrawn: &[Ipv4Prefix],
    ) -> (Vec<u8>, Vec<Field>) {
        let nlri = |prefixes: &[Ipv4Prefix], base: usize, fields: &mut Vec<Field>| {
            let mut buf = Vec::new();
            for p in prefixes {
                fields.push(Field { name: "nlri length", offset: base + buf.len(), width: 1 });
                put_nlri(&mut buf, p);
            }
            buf
        };
        let mut fields = vec![Field { name: "withdrawn length", offset: 0, width: 2 }];
        let withdrawn = nlri(withdrawn, 2, &mut fields);
        let mut body = (withdrawn.len() as u16).to_be_bytes().to_vec();
        body.extend_from_slice(&withdrawn);
        let block =
            if announced.is_empty() { Vec::new() } else { encode_attributes(attrs).to_vec() };
        fields.push(Field { name: "attribute length", offset: body.len(), width: 2 });
        if let Some(at) = as_path_segment_count(&block) {
            fields.push(Field {
                name: "as_path segment count",
                offset: body.len() + 2 + at,
                width: 1,
            });
        }
        body.extend_from_slice(&(block.len() as u16).to_be_bytes());
        body.extend_from_slice(&block);
        let announced = nlri(announced, body.len(), &mut fields);
        body.extend_from_slice(&announced);
        let (msg, mut header) = message(2, &body);
        header.extend(fields.into_iter().map(|f| f.shifted(19)));
        (msg, header)
    }

    /// RFC 4271 §4.3 NLRI: a length octet, then the prefix's leading
    /// octets.
    fn put_nlri(buf: &mut Vec<u8>, prefix: &Ipv4Prefix) {
        buf.push(prefix.length());
        let octets = prefix.network_bits().to_be_bytes();
        buf.extend_from_slice(&octets[..prefix.length().div_ceil(8) as usize]);
    }

    /// A `PEER_INDEX_TABLE` body: a view name, then each peer with its
    /// address as its BGP ID, and a 2-byte ASN where one fits.
    pub fn peer_index_table(view: &str, peers: &[(u32, IpAddr)]) -> (Vec<u8>, Vec<Field>) {
        let mut body = vec![10, 0, 0, 255]; // collector BGP ID
        let mut fields = vec![Field { name: "view name length", offset: body.len(), width: 2 }];
        body.extend_from_slice(&(view.len() as u16).to_be_bytes());
        body.extend_from_slice(view.as_bytes());
        fields.push(Field { name: "peer count", offset: body.len(), width: 2 });
        body.extend_from_slice(&(peers.len() as u16).to_be_bytes());
        for &(asn, ip) in peers {
            let as4 = asn > u32::from(u16::MAX);
            // Peer type: bit 0 = IPv6 address, bit 1 = 4-byte ASN.
            body.push(u8::from(ip.is_ipv6()) | u8::from(as4) << 1);
            match ip {
                IpAddr::V4(v4) => {
                    body.extend_from_slice(&v4.octets());
                    body.extend_from_slice(&v4.octets());
                }
                IpAddr::V6(v6) => {
                    body.extend_from_slice(&v6.octets()[12..]);
                    body.extend_from_slice(&v6.octets());
                }
            }
            if as4 {
                body.extend_from_slice(&asn.to_be_bytes());
            } else {
                body.extend_from_slice(&(asn as u16).to_be_bytes());
            }
        }
        (body, fields)
    }

    /// A `RIB_IPV4_UNICAST` body: `prefix`, then one entry under `attrs`
    /// per peer index.
    pub fn rib_ipv4_unicast(
        prefix: &Ipv4Prefix,
        peers: &[u16],
        attrs: &PathAttributes,
    ) -> (Vec<u8>, Vec<Field>) {
        let mut body = 7u32.to_be_bytes().to_vec(); // sequence number
        let mut fields = vec![Field { name: "rib prefix length", offset: body.len(), width: 1 }];
        put_nlri(&mut body, prefix);
        fields.push(Field { name: "rib entry count", offset: body.len(), width: 2 });
        body.extend_from_slice(&(peers.len() as u16).to_be_bytes());
        let block = encode_attributes(attrs).to_vec();
        for peer in peers {
            body.extend_from_slice(&peer.to_be_bytes());
            body.extend_from_slice(&900u32.to_be_bytes()); // originated
            fields.push(Field { name: "rib attribute length", offset: body.len(), width: 2 });
            body.extend_from_slice(&(block.len() as u16).to_be_bytes());
            if let Some(at) = as_path_segment_count(&block) {
                let offset = body.len() + at;
                fields.push(Field { name: "as_path segment count", offset, width: 1 });
            }
            body.extend_from_slice(&block);
        }
        (body, fields)
    }

    /// A `TABLE_DUMP_V2` record of `subtype` around a body and its
    /// fields, every offset relative to the record.
    pub fn table_dump_record(
        time: u32,
        subtype: u16,
        (body, body_fields): (Vec<u8>, Vec<Field>),
    ) -> (Vec<u8>, Vec<Field>) {
        let (rec, mut fields) = record(time, TABLE_DUMP_V2, subtype, &body);
        fields.extend(body_fields.into_iter().map(|f| f.shifted(12)));
        (rec, fields)
    }

    /// Where the first AS_PATH segment's count byte sits in an attribute
    /// block, walking the attribute headers.
    fn as_path_segment_count(block: &[u8]) -> Option<usize> {
        let mut at = 0;
        while at + 3 <= block.len() {
            let (flags, code) = (block[at], block[at + 1]);
            let (len, header) = if flags & 0x10 != 0 {
                (u16::from_be_bytes([block[at + 2], *block.get(at + 3)?]) as usize, 4)
            } else {
                (block[at + 2] as usize, 3)
            };
            if code == 2 && len >= 2 {
                return Some(at + header + 1);
            }
            at += header + len;
        }
        None
    }

    /// A BGP4MP(_ET) record body for an IPv4 session: the envelope, then
    /// `payload` (a BGP message, or a state change's two state codes).
    pub fn bgp4mp_body(
        et: bool,
        as4: bool,
        peer_asn: u32,
        peer_ip: Ipv4Addr,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut body = Vec::new();
        if et {
            body.extend_from_slice(&123_456u32.to_be_bytes());
        }
        if as4 {
            body.extend_from_slice(&peer_asn.to_be_bytes());
            body.extend_from_slice(&64_512u32.to_be_bytes());
        } else {
            body.extend_from_slice(&(peer_asn as u16).to_be_bytes());
            body.extend_from_slice(&64_512u16.to_be_bytes());
        }
        body.extend_from_slice(&0u16.to_be_bytes()); // ifindex
        body.extend_from_slice(&1u16.to_be_bytes()); // AFI IPv4
        body.extend_from_slice(&peer_ip.octets());
        body.extend_from_slice(&[192, 0, 2, 254]);
        body.extend_from_slice(payload);
        body
    }

    /// An MRT record: the common header, then `body`.
    pub fn record(time: u32, ty: u16, subtype: u16, body: &[u8]) -> (Vec<u8>, Vec<Field>) {
        let mut rec = time.to_be_bytes().to_vec();
        rec.extend_from_slice(&ty.to_be_bytes());
        rec.extend_from_slice(&subtype.to_be_bytes());
        rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
        rec.extend_from_slice(body);
        (rec, vec![Field { name: "mrt length", offset: 8, width: 4 }])
    }

    /// A BGP4MP message record around `msg` and its fields, every offset
    /// relative to the record.
    pub fn message_record(
        time: u32,
        et: bool,
        as4: bool,
        peer_asn: u32,
        peer_ip: Ipv4Addr,
        (msg, msg_fields): (Vec<u8>, Vec<Field>),
    ) -> (Vec<u8>, Vec<Field>) {
        let body = bgp4mp_body(et, as4, peer_asn, peer_ip, &msg);
        let envelope = body.len() - msg.len();
        let subtype = if as4 { MESSAGE_AS4 } else { MESSAGE };
        let (rec, mut fields) = record(time, if et { BGP4MP_ET } else { BGP4MP }, subtype, &body);
        fields.extend(msg_fields.into_iter().map(|f| f.shifted(12 + envelope)));
        (rec, fields)
    }
}
