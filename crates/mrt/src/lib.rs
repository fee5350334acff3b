//! # bh-mrt — MRT (RFC 6396) archive reader/writer
//!
//! The paper's pipeline ingests BGP archives in MRT format (RouteViews,
//! RIPE RIS and PCH all publish MRT; BGPStream parses it). The allowed
//! dependency set has no MRT parser, so this crate implements the format
//! from scratch:
//!
//! * **BGP4MP / BGP4MP_ET** `MESSAGE_AS4` UPDATE records — the "updates"
//!   files, the only records written and the only ones inference reads.
//!   Message payloads are genuine BGP wire bytes encoded/decoded by
//!   [`bh_bgp_types::wire`].
//! * **Everything else is read-checked only.** `STATE_CHANGE(_AS4)`
//!   records and the **TABLE_DUMP_V2** `PEER_INDEX_TABLE` +
//!   `RIB_IPV4_UNICAST` records of "rib" snapshot files are checked,
//!   counted and passed over, like other BGP messages and unknown record
//!   types — how real pipelines must handle archive noise. No world here
//!   has routing state from before its archives' first record, so the
//!   paper's RIB initialization (§4.2) has nothing to seed.
//!
//! Scope notes (explicit, smoltcp-style): IPv4 AFI end-to-end (the study is
//! 96.6 % IPv4 and evaluates IPv4 only); `MESSAGE` (2-byte-AS) records are
//! *read* but not written.
//!
//! Reading is incremental and framing-safe: records are length-prefixed,
//! torn/corrupt records produce typed errors that callers may either
//! propagate or skip ([`ReadMode::Tolerant`]), and a reader's first error
//! ends its stream. One crate-private core frames and decodes; the two
//! public readers only differ in where its bytes come from —
//! [`MrtBytesReader`] (a complete in-memory archive, sliced without
//! copying) and [`TailingReader`] (an archive still growing). Both read
//! one way, BGPStream's: [`MessageStream::next_update`] fills a reused
//! [`UpdateRecord`] with the next UPDATE, and no per-record message is
//! built.

mod frame;
pub mod read;
pub mod record;
pub mod tail;
pub mod write;

pub use bh_bgp_types::wire::AttrCache;
pub use read::{MessageStream, MrtBytesReader, ReadMode};
pub use record::{MrtError, UpdateRecord};
pub use tail::TailingReader;
pub use write::MrtWriter;

#[cfg(test)]
mod round_trip_tests {
    use std::net::IpAddr;

    use bh_bgp_types::asn::Asn;
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::SimTime;
    use bh_bgp_types::update::BgpUpdate;
    use bh_bgp_types::wire::encode_attributes;

    use super::*;
    use crate::record::{bgp4mp_subtype, mrt_type, td2_subtype};

    fn sample_update() -> BgpUpdate {
        let attrs = PathAttributes {
            as_path: "6939 3356 64500".parse().unwrap(),
            next_hop: Some("203.0.113.66".parse().unwrap()),
            communities: CommunitySet::from_classic(vec![
                Community::from_parts(3356, 9999),
                Community::NO_EXPORT,
            ]),
            ..Default::default()
        };
        let mut update = BgpUpdate::new(attrs);
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        update
    }

    /// An MRT record of `ty` / `subtype` around `body`.
    fn record(time: u32, ty: u16, subtype: u16, body: &[u8]) -> Vec<u8> {
        let mut rec = time.to_be_bytes().to_vec();
        rec.extend_from_slice(&ty.to_be_bytes());
        rec.extend_from_slice(&subtype.to_be_bytes());
        rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
        rec.extend_from_slice(body);
        rec
    }

    /// A `PEER_INDEX_TABLE` of two IPv4 peers with 4-byte ASNs, each
    /// address its own BGP ID.
    fn peer_index_table() -> Vec<u8> {
        let mut body = vec![10, 0, 0, 255]; // collector BGP ID
        body.extend_from_slice(&9u16.to_be_bytes());
        body.extend_from_slice(b"test-view");
        body.extend_from_slice(&2u16.to_be_bytes());
        for (asn, ip) in [(6939u32, [198, 32, 176, 20]), (3257, [198, 32, 176, 21])] {
            body.push(0b10); // IPv4 address, 4-byte ASN
            body.extend_from_slice(&ip);
            body.extend_from_slice(&ip);
            body.extend_from_slice(&asn.to_be_bytes());
        }
        record(1000, mrt_type::TABLE_DUMP_V2, td2_subtype::PEER_INDEX_TABLE, &body)
    }

    /// A `RIB_IPV4_UNICAST` entry for 130.149.0.0/16 from peer 0.
    fn rib_entry(attrs: &PathAttributes) -> Vec<u8> {
        let block = encode_attributes(attrs);
        let mut body = 0u32.to_be_bytes().to_vec(); // sequence number
        body.extend_from_slice(&[16, 130, 149]); // the prefix as NLRI
        body.extend_from_slice(&1u16.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes()); // peer index
        body.extend_from_slice(&900u32.to_be_bytes()); // originated
        body.extend_from_slice(&(block.len() as u16).to_be_bytes());
        body.extend_from_slice(&block);
        record(1000, mrt_type::TABLE_DUMP_V2, td2_subtype::RIB_IPV4_UNICAST, &body)
    }

    /// A `STATE_CHANGE_AS4` from Established (6) to Idle (1).
    fn state_change() -> Vec<u8> {
        let mut body = 6939u32.to_be_bytes().to_vec();
        body.extend_from_slice(&65_000u32.to_be_bytes());
        body.extend_from_slice(&0u16.to_be_bytes()); // interface index
        body.extend_from_slice(&1u16.to_be_bytes()); // AFI IPv4
        body.extend_from_slice(&[198, 32, 176, 20, 198, 32, 176, 1]);
        body.extend_from_slice(&[0, 6, 0, 1]);
        record(1200, mrt_type::BGP4MP, bgp4mp_subtype::STATE_CHANGE_AS4, &body)
    }

    #[test]
    fn full_archive_round_trip() {
        let mut buf = [peer_index_table(), rib_entry(&sample_update().attrs)].concat();
        MrtWriter::new(&mut buf)
            .write_update(
                SimTime::from_unix(1100),
                Asn::new(6939),
                "198.32.176.20".parse().unwrap(),
                Asn::new(65_000),
                "198.32.176.1".parse().unwrap(),
                &sample_update(),
            )
            .unwrap();
        buf.extend_from_slice(&state_change());

        // The UPDATE reads back; the other three records are checked,
        // counted and passed over.
        let mut reader = MrtBytesReader::new(buf.clone());
        let mut update = UpdateRecord::default();
        assert!(reader.next_update(&mut update).unwrap());
        assert_eq!(update.timestamp, SimTime::from_unix(1100));
        assert_eq!(update.peer_asn, Asn::new(6939));
        assert_eq!(update.peer_ip, "198.32.176.20".parse::<IpAddr>().unwrap());
        let sample = sample_update();
        assert_eq!(update.attrs.as_ref(), Some(&sample.attrs));
        assert!(update.announced.as_slice().iter().eq(sample.announced_v4()));
        assert!(update.withdrawn.is_empty());
        assert!(!reader.next_update(&mut update).unwrap());
        assert_eq!((reader.records_read(), reader.records_skipped()), (4, 0));

        let mut tolerant = MrtBytesReader::tolerant(buf);
        assert!(tolerant.next_update(&mut update).unwrap());
        assert!(!tolerant.next_update(&mut update).unwrap());
        assert_eq!((tolerant.records_read(), tolerant.records_skipped()), (4, 0));
    }
}
