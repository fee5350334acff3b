//! Binary wire codec for BGP UPDATE messages (RFC 4271, AS4 paths per
//! RFC 6793).
//!
//! This is the payload layer of the `bh-mrt` MRT writer/reader: the
//! simulator serializes every routing event into genuine BGP wire bytes
//! wrapped in MRT `BGP4MP_MESSAGE_AS4` records, so the inference pipeline
//! parses the same byte format it would parse from RouteViews/RIS archives.
//!
//! Scope (explicit, smoltcp-style):
//! * Encoded: ORIGIN, AS_PATH (4-byte ASNs), NEXT_HOP, MED, LOCAL_PREF,
//!   ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES, EXTENDED/LARGE COMMUNITIES,
//!   IPv4 NLRI + withdrawals.
//! * Not encoded: MP_REACH/MP_UNREACH (IPv6 NLRI travels through the
//!   structured model, not the wire), ADD-PATH, attribute fragmentation.
//! * Unknown attributes are skipped on decode (tolerant reader), matching
//!   how measurement pipelines must treat arbitrary archive data.

use std::net::{IpAddr, Ipv4Addr};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::as_path::{AsPath, AsPathSegment};
use crate::asn::Asn;
use crate::attrs::{type_code, Origin, PathAttributes};
use crate::community::{Community, ExtendedCommunity, LargeCommunity};
use crate::error::CodecError;
use crate::prefix::Ipv4Prefix;
use crate::update::BgpUpdate;

/// BGP message types (header `type` octet).
pub mod msg_type {
    /// OPEN.
    pub const OPEN: u8 = 1;
    /// UPDATE.
    pub const UPDATE: u8 = 2;
    /// NOTIFICATION.
    pub const NOTIFICATION: u8 = 3;
    /// KEEPALIVE.
    pub const KEEPALIVE: u8 = 4;
}

/// Length of the fixed BGP message header (marker + length + type).
pub const BGP_HEADER_LEN: usize = 19;

/// Maximum BGP message size (RFC 4271).
pub const BGP_MAX_MESSAGE_LEN: usize = 4096;

const ATTR_FLAG_OPTIONAL: u8 = 0x80;
const ATTR_FLAG_TRANSITIVE: u8 = 0x40;
const ATTR_FLAG_EXTENDED_LEN: u8 = 0x10;

/// Encode one IPv4 NLRI element: length octet + minimal network bytes.
fn encode_nlri<B: BufMut>(buf: &mut B, prefix: &Ipv4Prefix) {
    buf.put_u8(prefix.length());
    let octets = prefix.network().octets();
    let nbytes = prefix.length().div_ceil(8) as usize;
    buf.put_slice(&octets[..nbytes]);
}

/// Decode one IPv4 NLRI element from the front of `buf`, advancing it.
pub fn decode_nlri(buf: &mut &[u8]) -> Result<Ipv4Prefix, CodecError> {
    let Some((&len, rest)) = buf.split_first() else {
        return Err(CodecError::Truncated { what: "nlri length", needed: 1, available: 0 });
    };
    if len > 32 {
        return Err(CodecError::BadLength { what: "nlri prefix length", value: len as usize });
    }
    let nbytes = len.div_ceil(8) as usize;
    CodecError::ensure("nlri network", rest.len(), nbytes)?;
    let (network, rest) = rest.split_at(nbytes);
    let mut octets = [0u8; 4];
    octets[..nbytes].copy_from_slice(network);
    *buf = rest;
    Ok(Ipv4Prefix::from_raw(u32::from_be_bytes(octets), len))
}

fn put_attr_header(buf: &mut Vec<u8>, flags: u8, code: u8, len: usize) {
    if len > 255 {
        buf.put_u8(flags | ATTR_FLAG_EXTENDED_LEN);
        buf.put_u8(code);
        buf.put_u16(len as u16);
    } else {
        buf.put_u8(flags);
        buf.put_u8(code);
        buf.put_u8(len as u8);
    }
}

/// Reserve a 2-byte length field at the end of `buf`; returns where it
/// sits for [`patch_length`].
fn reserve_length(buf: &mut Vec<u8>) -> usize {
    buf.put_u16(0);
    buf.len() - 2
}

/// Fill the length field reserved at `at` with the bytes written after it.
fn patch_length(buf: &mut [u8], at: usize) {
    let len = buf.len() - at - 2;
    buf[at..at + 2].copy_from_slice(&(len as u16).to_be_bytes());
}

/// Wire length of an AS_PATH body: segments split every 255 ASNs, each
/// piece a type octet, a count octet and 4 bytes per ASN.
fn as_path_len(path: &AsPath) -> usize {
    path.segments()
        .iter()
        .map(|seg| seg.asns().len().div_ceil(255) * 2 + seg.asns().len() * 4)
        .sum()
}

fn decode_as_path(mut body: &[u8]) -> Result<AsPath, CodecError> {
    let mut segments = Vec::new();
    while body.has_remaining() {
        CodecError::ensure("as-path segment header", body.remaining(), 2)?;
        let seg_type = body.get_u8();
        let count = body.get_u8() as usize;
        CodecError::ensure("as-path segment body", body.remaining(), count * 4)?;
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            asns.push(Asn::new(body.get_u32()));
        }
        match seg_type {
            1 => segments.push(AsPathSegment::Set(asns)),
            2 => segments.push(AsPathSegment::Sequence(asns)),
            other => {
                return Err(CodecError::BadValue {
                    what: "as-path segment type",
                    value: other as u64,
                })
            }
        }
    }
    // Merge adjacent sequences produced by chunking on encode.
    let mut merged: Vec<AsPathSegment> = Vec::with_capacity(segments.len());
    for seg in segments {
        match (merged.last_mut(), seg) {
            (Some(AsPathSegment::Sequence(tail)), AsPathSegment::Sequence(next)) => {
                tail.extend(next);
            }
            (_, seg) => merged.push(seg),
        }
    }
    Ok(AsPath::from_segments(merged))
}

/// Encode the path attributes section (without the leading 2-byte total
/// length, which belongs to the UPDATE body).
pub fn encode_attributes(attrs: &PathAttributes) -> BytesMut {
    let mut out = Vec::new();
    encode_attributes_into(&mut out, attrs);
    BytesMut::from(out)
}

/// [`encode_attributes`], appended to `buf` in place.
fn encode_attributes_into(buf: &mut Vec<u8>, attrs: &PathAttributes) {
    let wk = ATTR_FLAG_TRANSITIVE; // well-known mandatory
    let opt = ATTR_FLAG_OPTIONAL | ATTR_FLAG_TRANSITIVE;

    put_attr_header(buf, wk, type_code::ORIGIN, 1);
    buf.put_u8(attrs.origin.code());

    put_attr_header(buf, wk, type_code::AS_PATH, as_path_len(&attrs.as_path));
    for seg in attrs.as_path.segments() {
        // RFC limits a segment to 255 ASNs; split long prepends.
        for chunk in seg.asns().chunks(255) {
            buf.put_u8(seg.type_code());
            buf.put_u8(chunk.len() as u8);
            for asn in chunk {
                buf.put_u32(asn.value());
            }
        }
    }

    if let Some(IpAddr::V4(nh)) = attrs.next_hop {
        put_attr_header(buf, wk, type_code::NEXT_HOP, 4);
        buf.put_slice(&nh.octets());
    }

    if let Some(med) = attrs.med {
        put_attr_header(buf, ATTR_FLAG_OPTIONAL, type_code::MED, 4);
        buf.put_u32(med);
    }

    if let Some(lp) = attrs.local_pref {
        put_attr_header(buf, wk, type_code::LOCAL_PREF, 4);
        buf.put_u32(lp);
    }

    if attrs.atomic_aggregate {
        put_attr_header(buf, wk, type_code::ATOMIC_AGGREGATE, 0);
    }

    if let Some((asn, id)) = attrs.aggregator {
        put_attr_header(buf, opt, type_code::AGGREGATOR, 8);
        buf.put_u32(asn.value());
        buf.put_slice(&id.octets());
    }

    // `len` counts classic communities only: a set of large or extended
    // communities alone writes no COMMUNITIES attribute.
    let communities = &attrs.communities;
    let classic = communities.len();
    if classic > 0 {
        put_attr_header(buf, opt, type_code::COMMUNITIES, classic * 4);
        for c in communities.iter() {
            buf.put_u32(c.raw());
        }
    }

    let ext = communities.iter_extended().count();
    if ext > 0 {
        put_attr_header(buf, opt, type_code::EXTENDED_COMMUNITIES, ext * 8);
        for c in communities.iter_extended() {
            buf.put_slice(&c.to_bytes());
        }
    }

    let large = communities.iter_large().count();
    if large > 0 {
        put_attr_header(buf, opt, type_code::LARGE_COMMUNITIES, large * 12);
        for c in communities.iter_large() {
            buf.put_u32(c.global_admin);
            buf.put_u32(c.local_1);
            buf.put_u32(c.local_2);
        }
    }
}

/// Decode a path attributes section ([`decode_attribute_block`] over an
/// owned buffer).
pub fn decode_attributes(buf: Bytes) -> Result<PathAttributes, CodecError> {
    decode_attribute_block(&buf)
}

/// Decode a path attributes section from borrowed bytes.
pub fn decode_attribute_block(mut buf: &[u8]) -> Result<PathAttributes, CodecError> {
    let mut attrs = PathAttributes::default();
    let mut seen = [false; 256];
    while buf.has_remaining() {
        CodecError::ensure("attribute header", buf.remaining(), 3)?;
        let flags = buf.get_u8();
        let code = buf.get_u8();
        let len = if flags & ATTR_FLAG_EXTENDED_LEN != 0 {
            CodecError::ensure("attribute extended length", buf.remaining(), 2)?;
            buf.get_u16() as usize
        } else {
            buf.get_u8() as usize
        };
        CodecError::ensure("attribute body", buf.remaining(), len)?;
        if seen[code as usize] {
            return Err(CodecError::DuplicateAttribute(code));
        }
        seen[code as usize] = true;
        let (mut body, rest) = buf.split_at(len);
        buf = rest;
        match code {
            type_code::ORIGIN => {
                CodecError::ensure("origin", body.remaining(), 1)?;
                let v = body.get_u8();
                attrs.origin = Origin::from_code(v)
                    .ok_or(CodecError::BadValue { what: "origin", value: v as u64 })?;
            }
            type_code::AS_PATH => {
                attrs.as_path = decode_as_path(body)?;
            }
            type_code::NEXT_HOP => {
                CodecError::ensure("next hop", body.remaining(), 4)?;
                let mut octets = [0u8; 4];
                body.copy_to_slice(&mut octets);
                attrs.next_hop = Some(IpAddr::V4(Ipv4Addr::from(octets)));
            }
            type_code::MED => {
                CodecError::ensure("med", body.remaining(), 4)?;
                attrs.med = Some(body.get_u32());
            }
            type_code::LOCAL_PREF => {
                CodecError::ensure("local pref", body.remaining(), 4)?;
                attrs.local_pref = Some(body.get_u32());
            }
            type_code::ATOMIC_AGGREGATE => {
                attrs.atomic_aggregate = true;
            }
            type_code::AGGREGATOR => {
                CodecError::ensure("aggregator", body.remaining(), 8)?;
                let asn = Asn::new(body.get_u32());
                let mut octets = [0u8; 4];
                body.copy_to_slice(&mut octets);
                attrs.aggregator = Some((asn, Ipv4Addr::from(octets)));
            }
            type_code::COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(CodecError::BadLength { what: "communities", value: len });
                }
                while body.has_remaining() {
                    attrs.communities.insert(Community(body.get_u32()));
                }
            }
            type_code::EXTENDED_COMMUNITIES => {
                if len % 8 != 0 {
                    return Err(CodecError::BadLength { what: "extended communities", value: len });
                }
                while body.has_remaining() {
                    let mut raw = [0u8; 8];
                    body.copy_to_slice(&mut raw);
                    attrs.communities.insert_extended(ExtendedCommunity::from_bytes(raw));
                }
            }
            type_code::LARGE_COMMUNITIES => {
                if len % 12 != 0 {
                    return Err(CodecError::BadLength { what: "large communities", value: len });
                }
                while body.has_remaining() {
                    let c = LargeCommunity::new(body.get_u32(), body.get_u32(), body.get_u32());
                    attrs.communities.insert_large(c);
                }
            }
            _ => {
                // Tolerant reader: unknown attribute, skip.
            }
        }
    }
    Ok(attrs)
}

/// How many distinct attribute blocks [`AttrCache`] holds before it resets.
///
/// Real archive streams repeat a small working set of attribute blocks
/// (one per active path), so a few thousand entries cover a collector dump;
/// the flush-on-full policy keeps the worst case (adversarially unique
/// blocks) at a bounded memory cost with no LRU bookkeeping on the hot path.
pub const ATTR_CACHE_CAP: usize = 4096;

/// A memo table for decoded attribute blocks.
///
/// BGP UPDATE streams are heavily repetitive: the same serialized attribute
/// block (path + communities + next hop) arrives once per announced prefix.
/// The cache keys on the *raw attribute bytes*, hashed by content, and
/// stores the decoded [`PathAttributes`]. A probe borrows the bytes (one
/// hash, no allocation); only a miss takes an owned key — an O(1) slice of
/// the archive buffer when the caller has one. Because `AsPath` and
/// `CommunitySet` are Arc-backed handles, a cache hit clones in O(1) and
/// every element decoded from the same block *shares* one allocation,
/// which is what makes downstream interning and hashing cheap.
#[derive(Debug, Default)]
pub struct AttrCache {
    map: crate::hash::FxHashMap<Bytes, PathAttributes>,
    hits: u64,
    misses: u64,
}

impl AttrCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache hits so far (attribute blocks served without re-decoding).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far (attribute blocks actually decoded).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct attribute blocks currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Decode the attribute block `raw`, serving repeats from the memo
    /// table. On a miss the decoded block is stored under `own()`, which
    /// must hold the same bytes as `raw`.
    pub fn decode(
        &mut self,
        raw: &[u8],
        own: impl FnOnce() -> Bytes,
    ) -> Result<PathAttributes, CodecError> {
        if let Some(hit) = self.map.get(raw) {
            self.hits += 1;
            return Ok(hit.clone());
        }
        let attrs = decode_attribute_block(raw)?;
        self.misses += 1;
        if self.map.len() >= ATTR_CACHE_CAP {
            self.map.clear();
        }
        let key = own();
        debug_assert_eq!(&key[..], raw, "an AttrCache key must hold the probed bytes");
        self.map.insert(key, attrs.clone());
        Ok(attrs)
    }
}

/// One BGP message, checked whole, over borrowed bytes — the one parser of
/// the UPDATE body (RFC 4271 §4.3).
///
/// [`UpdateView::parse`] reads the header, the withdrawn-routes and
/// attribute lengths and every NLRI before it returns, so the prefix
/// iterators cannot fail. The attribute block is decoded on demand by
/// [`UpdateView::attributes`], through an [`AttrCache`] or not. The MRT
/// readers fill their reused update record from here; no [`BgpUpdate`]
/// is built on the way.
#[derive(Debug, Clone, Copy)]
pub struct UpdateView<'a> {
    withdrawn: &'a [u8],
    attributes: &'a [u8],
    announced: &'a [u8],
}

impl<'a> UpdateView<'a> {
    /// Parse the BGP message at the front of `msg` (bytes past its length
    /// field are ignored). `Ok(None)` for a well-formed non-UPDATE message
    /// (KEEPALIVEs inside archives are legal and skipped).
    pub fn parse(msg: &'a [u8]) -> Result<Option<Self>, CodecError> {
        let Some((header, rest)) = msg.split_first_chunk::<BGP_HEADER_LEN>() else {
            return Err(CodecError::Truncated {
                what: "bgp header",
                needed: BGP_HEADER_LEN,
                available: msg.len(),
            });
        };
        let [marker @ .., l0, l1, kind] = header;
        if *marker != [0xFF; 16] {
            return Err(CodecError::BadValue { what: "bgp marker", value: marker[0] as u64 });
        }
        let msg_len = u16::from_be_bytes([*l0, *l1]) as usize;
        if !(BGP_HEADER_LEN..=BGP_MAX_MESSAGE_LEN).contains(&msg_len) {
            return Err(CodecError::BadLength { what: "bgp message length", value: msg_len });
        }
        let body_len = msg_len - BGP_HEADER_LEN;
        CodecError::ensure("bgp body", rest.len(), body_len)?;
        if *kind != msg_type::UPDATE {
            return Ok(None);
        }
        let mut body = &rest[..body_len];
        let withdrawn = length_prefixed(&mut body, "withdrawn length", "withdrawn routes")?;
        validate_nlri(withdrawn)?;
        let attributes = length_prefixed(&mut body, "attributes length", "attributes")?;
        validate_nlri(body)?;
        Ok(Some(UpdateView { withdrawn, attributes, announced: body }))
    }

    /// The decoded path attributes, `None` for an empty block. With a
    /// `cache`, repeats are served from it and a miss stores the key
    /// `own(block)` makes.
    pub fn attributes(
        &self,
        cache: Option<&mut AttrCache>,
        own: impl FnOnce(&'a [u8]) -> Bytes,
    ) -> Result<Option<PathAttributes>, CodecError> {
        let raw = self.attributes;
        if raw.is_empty() {
            return Ok(None);
        }
        match cache {
            Some(cache) => cache.decode(raw, || own(raw)),
            None => decode_attribute_block(raw),
        }
        .map(Some)
    }

    /// The announced prefixes, in wire order (repeats included).
    pub fn announced(&self) -> Nlri<'a> {
        Nlri(self.announced)
    }

    /// The withdrawn prefixes, in wire order (repeats included).
    pub fn withdrawn(&self) -> Nlri<'a> {
        Nlri(self.withdrawn)
    }
}

/// The prefixes of an NLRI block [`UpdateView::parse`] validated.
#[derive(Debug, Clone)]
pub struct Nlri<'a>(&'a [u8]);

impl Iterator for Nlri<'_> {
    type Item = Ipv4Prefix;

    fn next(&mut self) -> Option<Ipv4Prefix> {
        if self.0.is_empty() {
            return None;
        }
        // Validated by `UpdateView::parse`: `ok()` never drops an error.
        decode_nlri(&mut self.0).ok()
    }
}

/// Split a block with a 2-byte length prefix off the front of `body`.
fn length_prefixed<'a>(
    body: &mut &'a [u8],
    length: &'static str,
    block: &'static str,
) -> Result<&'a [u8], CodecError> {
    let Some((len, rest)) = body.split_first_chunk::<2>() else {
        return Err(CodecError::Truncated { what: length, needed: 2, available: body.len() });
    };
    let len = u16::from_be_bytes(*len) as usize;
    CodecError::ensure(block, rest.len(), len)?;
    let (head, rest) = rest.split_at(len);
    *body = rest;
    Ok(head)
}

/// Check that `block` is a whole number of well-formed NLRI.
fn validate_nlri(mut block: &[u8]) -> Result<(), CodecError> {
    while !block.is_empty() {
        decode_nlri(&mut block)?;
    }
    Ok(())
}

/// Encode a full BGP UPDATE *message* (header + body) for the IPv4 routes
/// of `update`. IPv6 routes are ignored by this wire path (see module docs).
pub fn encode_update_message(update: &BgpUpdate) -> BytesMut {
    let mut msg = Vec::new();
    encode_update_into(&mut msg, update);
    BytesMut::from(msg)
}

/// [`encode_update_message`], appended to `buf` in place: each length
/// field is reserved, then filled once what it counts is written.
///
/// Nothing here bounds the size: a message over [`BGP_MAX_MESSAGE_LEN`],
/// which [`UpdateView::parse`] refuses, is the caller's to reject (the
/// MRT writer does), and past 65 535 bytes its length fields wrap.
pub fn encode_update_into(buf: &mut Vec<u8>, update: &BgpUpdate) {
    let start = buf.len();
    buf.put_slice(&[0xFF; 16]); // marker
    buf.put_u16(0); // message length, filled last
    buf.put_u8(msg_type::UPDATE);

    let withdrawn = reserve_length(buf);
    for p in update.withdrawn_v4() {
        encode_nlri(buf, p);
    }
    patch_length(buf, withdrawn);

    // Path attributes (only when there are announcements).
    let attributes = reserve_length(buf);
    if update.has_announcements() {
        encode_attributes_into(buf, &update.attrs);
        patch_length(buf, attributes);
        for p in update.announced_v4() {
            encode_nlri(buf, p);
        }
    }
    let len = buf.len() - start;
    buf[start + 16..start + 18].copy_from_slice(&(len as u16).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::{Community, CommunitySet};

    /// Read a message back the way the MRT readers do — the view, its
    /// attribute block (`cache`d or not) and its prefixes — as a
    /// [`BgpUpdate`] to compare with what was encoded.
    fn read_back(
        msg: &Bytes,
        cache: Option<&mut AttrCache>,
    ) -> Result<Option<BgpUpdate>, CodecError> {
        let Some(view) = UpdateView::parse(msg)? else { return Ok(None) };
        let attrs = view.attributes(cache, |raw| msg.slice_ref(raw))?;
        let mut update = BgpUpdate::new(attrs.unwrap_or_default());
        view.announced().for_each(|p| update.announce_v4(p));
        view.withdrawn().for_each(|p| update.withdraw_v4(p));
        Ok(Some(update))
    }

    fn sample_attrs() -> PathAttributes {
        let mut communities = CommunitySet::from_classic(vec![
            Community::from_parts(3356, 9999),
            Community::BLACKHOLE,
            Community::NO_EXPORT,
        ]);
        communities.insert_large(LargeCommunity::new(196_608, 666, 0));
        communities.insert_extended(ExtendedCommunity::two_octet_as(3356, 7, 2));
        PathAttributes {
            origin: Origin::Incomplete,
            as_path: "6939 3356 64500 64500".parse().unwrap(),
            next_hop: Some("192.0.2.66".parse().unwrap()),
            med: Some(50),
            local_pref: Some(120),
            atomic_aggregate: true,
            aggregator: Some((Asn::new(64500), Ipv4Addr::new(10, 0, 0, 1))),
            communities,
        }
    }

    #[test]
    fn nlri_round_trip_various_lengths() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.20.0.0/15",
            "192.0.2.0/24",
            "192.0.2.55/32",
            "128.0.0.0/1",
        ] {
            let p: Ipv4Prefix = s.parse().unwrap();
            let mut buf = BytesMut::new();
            encode_nlri(&mut buf, &p);
            let mut bytes = &buf[..];
            assert_eq!(decode_nlri(&mut bytes).unwrap(), p, "{s}");
            assert!(bytes.is_empty());
        }
    }

    #[test]
    fn nlri_rejects_bad_length() {
        let mut bytes = &[40u8, 1, 2, 3, 4, 5][..];
        assert!(matches!(decode_nlri(&mut bytes), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn nlri_rejects_truncation() {
        for mut bytes in [&[24u8, 1][..], &[]] {
            assert!(matches!(decode_nlri(&mut bytes), Err(CodecError::Truncated { .. })));
        }
    }

    #[test]
    fn attributes_round_trip() {
        let attrs = sample_attrs();
        let encoded = encode_attributes(&attrs).freeze();
        let decoded = decode_attributes(encoded).unwrap();
        assert_eq!(decoded, attrs);
    }

    /// The type codes of an attribute block, in wire order.
    fn attribute_codes(mut block: &[u8]) -> Vec<u8> {
        let mut codes = Vec::new();
        while !block.is_empty() {
            let (flags, code) = (block.get_u8(), block.get_u8());
            let len = if flags & ATTR_FLAG_EXTENDED_LEN != 0 {
                block.get_u16()
            } else {
                block.get_u8().into()
            };
            block.advance(len as usize);
            codes.push(code);
        }
        codes
    }

    /// A set of large or extended communities alone writes no
    /// COMMUNITIES attribute, not an empty one — which a round trip
    /// cannot tell apart.
    #[test]
    fn large_or_extended_only_sets_write_no_communities_attribute() {
        let mut large = CommunitySet::new();
        large.insert_large(LargeCommunity::new(196_608, 666, 0));
        let mut extended = CommunitySet::new();
        extended.insert_extended(ExtendedCommunity::two_octet_as(3356, 7, 2));
        for (communities, code) in
            [(large, type_code::LARGE_COMMUNITIES), (extended, type_code::EXTENDED_COMMUNITIES)]
        {
            let attrs = PathAttributes { communities, ..Default::default() };
            let block = encode_attributes(&attrs);
            assert_eq!(attribute_codes(&block), [type_code::ORIGIN, type_code::AS_PATH, code]);
            assert_eq!(decode_attributes(block.freeze()).unwrap(), attrs);
        }
    }

    /// The `_into` encoders append: bytes already in the buffer stay, and
    /// every length they fill counts from where their own bytes start.
    #[test]
    fn into_encoders_append_after_existing_bytes() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        update.withdraw_v4("198.51.100.0/24".parse().unwrap());
        let mut buf = vec![0xAB; 5];
        encode_update_into(&mut buf, &update);
        assert_eq!(buf[..5], [0xAB; 5]);
        let msg = Bytes::from(buf[5..].to_vec());
        assert_eq!(read_back(&msg, None).unwrap(), Some(update));

        let mut buf = vec![0xAB; 3];
        encode_attributes_into(&mut buf, &sample_attrs());
        assert_eq!(buf[..3], [0xAB; 3]);
        assert_eq!(decode_attribute_block(&buf[3..]).unwrap(), sample_attrs());
    }

    #[test]
    fn attributes_reject_duplicates() {
        let attrs = PathAttributes::default();
        let mut encoded = encode_attributes(&attrs);
        let copy = encoded.clone();
        encoded.put_slice(&copy); // every attribute duplicated
        assert!(matches!(
            decode_attributes(encoded.freeze()),
            Err(CodecError::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn unknown_attributes_are_skipped() {
        let mut encoded = encode_attributes(&PathAttributes::default());
        // Append an unknown optional-transitive attribute (code 200).
        encoded.put_u8(0xC0);
        encoded.put_u8(200);
        encoded.put_u8(2);
        encoded.put_u16(0xBEEF);
        let decoded = decode_attributes(encoded.freeze()).unwrap();
        assert_eq!(decoded, PathAttributes::default());
    }

    #[test]
    fn long_prepend_survives_segment_chunking() {
        let mut path = AsPath::from_sequence(vec![Asn::new(64500)]);
        path.prepend(Asn::new(3356), 300); // forces 255-ASN chunk split
        let attrs = PathAttributes { as_path: path.clone(), ..Default::default() };
        let decoded = decode_attributes(encode_attributes(&attrs).freeze()).unwrap();
        assert_eq!(decoded.as_path.asns(), path.asns());
        assert_eq!(decoded.as_path.without_prepending().to_string(), "3356 64500");
    }

    #[test]
    fn update_message_round_trip() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        update.withdraw_v4("198.51.100.0/24".parse().unwrap());
        let encoded = encode_update_message(&update).freeze();
        let decoded = read_back(&encoded, None).unwrap().unwrap();
        assert_eq!(decoded, update);
    }

    #[test]
    fn withdrawal_only_update_round_trip() {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.withdraw_v4("130.149.1.1/32".parse().unwrap());
        let encoded = encode_update_message(&update).freeze();
        let decoded = read_back(&encoded, None).unwrap().unwrap();
        assert_eq!(decoded.withdrawn_v4().count(), 1);
        assert_eq!(decoded.announced_v4().count(), 0);
    }

    /// A maximum-size UPDATE whose NLRI mix distinct /16s with repeats:
    /// the view yields them all in wire order, the read-back update
    /// keeps the first of each in that order.
    #[test]
    fn maximum_size_update_with_repeated_nlri() {
        let attrs = encode_attributes(&sample_attrs());
        let room = BGP_MAX_MESSAGE_LEN - BGP_HEADER_LEN - 4 - attrs.len();
        let wire: Vec<Ipv4Prefix> = (0..room / 3)
            .map(|i| Ipv4Prefix::from_raw(((i * 5 % 1024) as u32) << 16, 16))
            .collect();
        let mut msg = BytesMut::new();
        msg.put_slice(&[0xFF; 16]);
        msg.put_u16(BGP_MAX_MESSAGE_LEN as u16);
        msg.put_u8(msg_type::UPDATE);
        msg.put_u16(0);
        msg.put_u16(attrs.len() as u16);
        msg.put_slice(&attrs);
        wire.iter().for_each(|p| encode_nlri(&mut msg, p));
        let pad = room % 3; // one byte each: 0.0.0.0/0
        (0..pad).for_each(|_| encode_nlri(&mut msg, &Ipv4Prefix::from_raw(0, 0)));
        let msg = msg.freeze();
        assert_eq!(msg.len(), BGP_MAX_MESSAGE_LEN);

        let view = UpdateView::parse(&msg).unwrap().unwrap();
        assert_eq!(view.announced().take(wire.len()).collect::<Vec<_>>(), wire);
        assert_eq!(view.announced().count(), wire.len() + pad);
        let mut first_seen = Vec::new();
        for p in view.announced() {
            if !first_seen.contains(&p) {
                first_seen.push(p);
            }
        }
        // Five is coprime with 1024: every /16 of the cycle shows up.
        assert_eq!(first_seen.len(), 1024 + usize::from(pad > 0));
        let update = read_back(&msg, None).unwrap().unwrap();
        assert_eq!(update.announced_v4().copied().collect::<Vec<_>>(), first_seen);
        assert_eq!(update.attrs, sample_attrs());
    }

    #[test]
    fn attr_cache_decodes_identically_and_shares_allocations() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("192.0.2.0/24".parse().unwrap());
        let encoded = encode_update_message(&update).freeze();

        let mut cache = AttrCache::new();
        let first = read_back(&encoded, Some(&mut cache)).unwrap().unwrap();
        let second = read_back(&encoded, Some(&mut cache)).unwrap().unwrap();
        let uncached = read_back(&encoded, None).unwrap().unwrap();

        assert_eq!(first, uncached, "cache must not change decoded values");
        assert_eq!(second, uncached);
        assert_eq!(cache.misses(), 1, "second decode must hit the memo table");
        assert_eq!(cache.hits(), 1);
        assert!(
            first.attrs.as_path.shares_allocation(&second.attrs.as_path),
            "cache hits must hand out Arc-shared paths"
        );
        assert!(first.attrs.communities.shares_allocation(&second.attrs.communities));
    }

    #[test]
    fn attr_cache_flushes_at_capacity() {
        let mut cache = AttrCache::new();
        for i in 0..(ATTR_CACHE_CAP + 10) {
            let attrs = PathAttributes { med: Some(i as u32), ..Default::default() };
            let raw = encode_attributes(&attrs).freeze();
            assert_eq!(cache.decode(&raw, || raw.clone()).unwrap(), attrs);
        }
        assert!(cache.len() <= ATTR_CACHE_CAP, "cache exceeded its cap");
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn attr_cache_hits_are_probed_by_borrowed_bytes() {
        let raw = encode_attributes(&sample_attrs()).freeze();
        let mut cache = AttrCache::new();
        cache.decode(&raw, || raw.clone()).unwrap();
        let copy = raw.to_vec();
        let hit = cache.decode(&copy, || panic!("a hit takes no owned key")).unwrap();
        assert_eq!(hit, sample_attrs());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn non_update_messages_are_skipped() {
        let mut msg = BytesMut::new();
        msg.put_slice(&[0xFF; 16]);
        msg.put_u16(BGP_HEADER_LEN as u16);
        msg.put_u8(msg_type::KEEPALIVE);
        assert_eq!(read_back(&msg.freeze(), None).unwrap(), None);
    }

    #[test]
    fn bad_marker_rejected() {
        let mut update = BgpUpdate::new(PathAttributes::default());
        update.withdraw_v4("10.0.0.0/8".parse().unwrap());
        let mut encoded = encode_update_message(&update);
        encoded[0] = 0x00;
        assert!(read_back(&encoded.freeze(), None).is_err());
    }

    #[test]
    fn truncated_message_rejected() {
        let mut update = BgpUpdate::new(sample_attrs());
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        let encoded = encode_update_message(&update).freeze();
        for cut in [1, BGP_HEADER_LEN - 1, BGP_HEADER_LEN + 1, encoded.len() - 1] {
            let slice = encoded.slice(..cut);
            assert!(read_back(&slice, None).is_err(), "cut at {cut}");
        }
    }
}
