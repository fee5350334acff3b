//! MRT codec round-trip properties: arbitrary update and withdrawal
//! records must survive `MrtWriter` → `next_update` **byte-exactly**
//! (decode to equal values, and re-encode to the exact same archive
//! bytes), state-change records between them (built field by field by
//! `common::raw`: the writer writes UPDATEs only) are checked and counted
//! (a strict read fails on a corrupted state code), and tolerant-mode
//! readers must account for every skipped record without misaligning
//! the stream. *The reader* is an input: every property holds for
//! whichever of the two feeders ([`common::Feeder`]) the case draws,
//! under whatever chunking.

mod common;

use std::net::Ipv4Addr;

use proptest::prelude::*;

use common::{arb_feeder, framed_records, raw, record_spans, Feeder, Transport, Update};

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::{Origin, PathAttributes};
use bh_bgp_types::community::{Community, CommunitySet, LargeCommunity};
use bh_bgp_types::error::CodecError;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_mrt::{MrtError, MrtWriter, ReadMode};

/// One archive record in writable form.
#[derive(Debug, Clone)]
enum Rec {
    Update {
        time: SimTime,
        peer_asn: Asn,
        update: Box<BgpUpdate>,
    },
    /// A `STATE_CHANGE_AS4` between two FSM state codes (1..=6).
    StateChange {
        time: u32,
        peer_asn: u32,
        old: u16,
        new: u16,
    },
}

/// The session every record is on; the raw builders write the same
/// local side (AS 64 512 at 192.0.2.254).
const PEER_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 44);
const LOCAL_IP: &str = "192.0.2.254";
const LOCAL_ASN: u32 = 64_512;

fn write_all(records: &[Rec]) -> Vec<u8> {
    let mut buf = Vec::new();
    records.iter().for_each(|rec| write_into(&mut buf, rec));
    buf
}

/// Append `rec`: an UPDATE through `MrtWriter`, a state change from the
/// raw builders.
fn write_into(buf: &mut Vec<u8>, rec: &Rec) {
    match rec {
        Rec::Update { time, peer_asn, update } => MrtWriter::new(buf)
            .write_update(
                *time,
                *peer_asn,
                PEER_IP.into(),
                Asn::new(LOCAL_ASN),
                LOCAL_IP.parse().unwrap(),
                update,
            )
            .expect("update writes"),
        Rec::StateChange { time, peer_asn, old, new } => {
            let [o0, o1] = old.to_be_bytes();
            let [n0, n1] = new.to_be_bytes();
            let body = raw::bgp4mp_body(false, true, *peer_asn, PEER_IP, &[o0, o1, n0, n1]);
            buf.extend(raw::record(*time, raw::BGP4MP, raw::STATE_CHANGE_AS4, &body).0);
        }
    }
}

type UpdateFields =
    (u64, u32, Vec<u32>, Vec<u32>, Vec<(u32, u32, u32)>, Vec<(u32, u8)>, Vec<(u32, u8)>, u8);

fn arb_update_fields() -> impl Strategy<Value = UpdateFields> {
    (
        0u64..4_000_000_000,
        1u32..4_000_000_000,
        prop::collection::vec(1u32..100_000, 0..5),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..3),
        prop::collection::vec((any::<u32>(), 8u8..=32), 0..3),
        prop::collection::vec((any::<u32>(), 8u8..=32), 0..3),
        0u8..6,
    )
}

/// Announcements, withdrawals, or both in one UPDATE. The wire codec
/// only carries path attributes alongside announcements (a withdraw has
/// no attributes to speak of), so the generator does the same — that is
/// the canonical form byte-exactness is defined over.
fn mk_update(fields: UpdateFields) -> Rec {
    let (t, peer, hops, comms, large, announced, withdrawn, state_pick) = fields;
    let _ = state_pick;
    let attrs = if announced.is_empty() {
        PathAttributes::default()
    } else {
        let mut communities =
            CommunitySet::from_classic(comms.into_iter().map(Community).collect::<Vec<_>>());
        for (a, b, c) in large {
            communities.insert_large(LargeCommunity::new(a, b, c));
        }
        PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::from_sequence(hops.into_iter().map(Asn::new).collect::<Vec<_>>()),
            next_hop: Some("203.0.113.66".parse().unwrap()),
            communities,
            ..Default::default()
        }
    };
    let mut update = BgpUpdate::new(attrs);
    for (net, len) in announced {
        update.announce_v4(Ipv4Prefix::from_raw(net, len));
    }
    for (net, len) in withdrawn {
        update.withdraw_v4(Ipv4Prefix::from_raw(net, len));
    }
    Rec::Update { time: SimTime::from_unix(t), peer_asn: Asn::new(peer), update: Box::new(update) }
}

fn mk_state_change(fields: UpdateFields) -> Rec {
    let (t, peer, _, _, _, _, _, pick) = fields;
    let pick = u16::from(pick);
    Rec::StateChange {
        time: u32::try_from(t).expect("drawn below 4e9"),
        peer_asn: peer,
        old: pick + 1,
        new: (pick + 3) % 6 + 1,
    }
}

/// A mixed record stream: updates, withdrawals, and state changes.
fn arb_records() -> impl Strategy<Value = Vec<Rec>> {
    prop::collection::vec((any::<bool>(), arb_update_fields()), 0..24).prop_map(|draws| {
        draws
            .into_iter()
            .map(
                |(is_update, fields)| {
                    if is_update {
                        mk_update(fields)
                    } else {
                        mk_state_change(fields)
                    }
                },
            )
            .collect()
    })
}

/// Re-serialize the records through the writer: each UPDATE from what
/// was decoded, in order; each state change as drawn.
fn rewrite(records: &[Rec], decoded: &[Update]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut decoded = decoded.iter();
    for rec in records {
        match rec {
            Rec::Update { .. } => {
                let (time, (peer_asn, peer_ip), attrs, announced, withdrawn) =
                    decoded.next().expect("one decoded update per written one");
                let mut update = BgpUpdate::new(attrs.clone().unwrap_or_default());
                announced.iter().for_each(|&p| update.announce_v4(p));
                withdrawn.iter().for_each(|&p| update.withdraw_v4(p));
                MrtWriter::new(&mut buf)
                    .write_update(
                        *time,
                        *peer_asn,
                        *peer_ip,
                        Asn::new(LOCAL_ASN),
                        LOCAL_IP.parse().unwrap(),
                        &update,
                    )
                    .expect("rewrite update");
            }
            Rec::StateChange { .. } => write_into(&mut buf, rec),
        }
    }
    assert!(decoded.next().is_none(), "an update nobody wrote");
    buf
}

/// The whole-archive reader: what every other feeder must agree with.
fn reference() -> Feeder {
    Feeder { transport: Transport::Bytes, chunks: vec![1] }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Decode-equality plus byte-exactness: every field survives the
    /// round trip, and re-encoding the decoded records reproduces the
    /// original archive bytes exactly.
    #[test]
    fn records_round_trip_byte_exactly(records in arb_records(), feeder in arb_feeder()) {
        let bytes = write_all(&records);
        let outcome = feeder.decode(ReadMode::Strict, &bytes);
        prop_assert!(outcome.error.is_none(), "own archives decode cleanly: {:?}", outcome.error);
        prop_assert_eq!(outcome.records_read, records.len() as u64);
        let written: Vec<_> = records
            .iter()
            .filter_map(|rec| match rec {
                Rec::Update { time, peer_asn, update } => Some((time, peer_asn, update)),
                Rec::StateChange { .. } => None,
            })
            .collect();
        prop_assert_eq!(outcome.updates.len(), written.len());

        // Field-level equality against the inputs.
        for ((t, peer_asn, update), decoded) in written.iter().zip(&outcome.updates) {
            let (time, peer, attrs, announced, withdrawn) = decoded;
            prop_assert_eq!(*t, time);
            prop_assert_eq!(*peer, (**peer_asn, PEER_IP.into()));
            prop_assert_eq!(&attrs.clone().unwrap_or_default(), &update.attrs);
            prop_assert!(announced.iter().eq(update.announced_v4()));
            prop_assert!(withdrawn.iter().eq(update.withdrawn_v4()));
        }

        // Byte-exactness: decoded → writer → identical archive.
        prop_assert_eq!(rewrite(&records, &outcome.updates), bytes);

        // A state change is checked, not only counted: a new-state code
        // of 0 (its last two bytes) fails a strict read there and is one
        // skip to a tolerant one.
        let spans = record_spans(&bytes);
        let changes = records.iter().zip(&spans).filter(|(rec, _)| {
            matches!(rec, Rec::StateChange { .. })
        });
        for (at, (_, (_, span))) in changes.enumerate().take(2) {
            let mut mutant = bytes.clone();
            mutant[span.end - 2..span.end].fill(0);
            let strict = feeder.decode(ReadMode::Strict, &mutant);
            let refused = matches!(
                strict.error,
                Some(MrtError::Codec(CodecError::BadValue { what: "new state", value: 0 }))
            );
            prop_assert!(refused, "state change {}: {:?}", at, strict.error);
            let tolerant = feeder.decode(ReadMode::Tolerant, &mutant);
            prop_assert_eq!(tolerant.updates, outcome.updates.clone());
            prop_assert_eq!(
                (tolerant.records_read, tolerant.records_skipped),
                (records.len() as u64 - 1, 1)
            );
        }
    }

    /// A truncated tail in both modes: a cut landing *on* a record
    /// boundary is a shorter-but-clean archive (every remaining record
    /// decodes, no error); a cut landing *inside* a record is a framing
    /// error (never silently skipped — that would desynchronize the
    /// stream). Either way the records before the cut decode and
    /// nothing is counted skipped.
    #[test]
    fn truncated_tail_loses_records_or_errors_in_both_modes(
        records in arb_records(),
        cut in 1usize..40,
        feeder in arb_feeder(),
    ) {
        let bytes = write_all(&records);
        if bytes.is_empty() {
            return Ok(());
        }
        let cut = cut.min(bytes.len() - 1).max(1);
        let torn = &bytes[..bytes.len() - cut];

        // Record boundaries of the clean archive, from the length
        // fields: a cut is only a *tear* when it lands inside a record.
        let mut boundaries = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            boundaries.push(offset);
            let len = u32::from_be_bytes(bytes[offset + 8..offset + 12].try_into().unwrap());
            offset += 12 + len as usize;
        }
        let intact = boundaries.iter().filter(|b| **b + 12 <= torn.len()).count();
        let clean_cut = boundaries.binary_search(&torn.len()).is_ok();

        for mode in [ReadMode::Strict, ReadMode::Tolerant] {
            let outcome = feeder.decode(mode, torn);
            let decoded = outcome.records_read;
            if clean_cut {
                prop_assert!(outcome.error.is_none(), "a boundary cut is a clean (shorter) archive");
                prop_assert_eq!(decoded, boundaries.len() as u64 - 1);
            } else {
                prop_assert!(outcome.error.is_some(), "a mid-record tear must surface an error");
                prop_assert!(matches!(outcome.error, Some(MrtError::Codec(_))));
                prop_assert!(decoded < intact as u64 + 1);
            }
            prop_assert!(decoded < records.len() as u64);
            let updates = records[..decoded as usize]
                .iter()
                .filter(|rec| matches!(rec, Rec::Update { .. }))
                .count();
            prop_assert_eq!(outcome.updates.len(), updates);
            prop_assert_eq!(outcome.records_skipped, 0);
            prop_assert_eq!(decoded, framed_records(torn)); // every framed record is accounted for
            prop_assert_eq!(outcome.summary(), reference().decode(mode, torn).summary());
        }
    }

    /// Corrupted-length records (length field inflated into the next
    /// record's bytes) are never *invisible*: in both modes the read
    /// either surfaces an error, counts a skip, or reads a stream
    /// observably different from the clean one (other updates, or another
    /// record count) — corruption can desynchronize framing (later bytes
    /// may resurface as records of an unknown type), but it can never
    /// reproduce the original stream while claiming a clean read.
    #[test]
    fn corrupted_length_field_never_reads_back_as_the_clean_stream(
        records in arb_records(),
        extra in 1u32..64,
        feeder in arb_feeder(),
    ) {
        if records.is_empty() {
            return Ok(());
        }
        let bytes = write_all(&records);
        let clean = feeder.decode(ReadMode::Strict, &bytes);
        prop_assert!(clean.error.is_none(), "clean archive decodes");
        let clean = (clean.updates, clean.records_read);

        // Inflate the first record's length field (bytes 8..12).
        let mut corrupted = bytes.clone();
        let len = u32::from_be_bytes(corrupted[8..12].try_into().unwrap());
        corrupted[8..12].copy_from_slice(&(len + extra).to_be_bytes());

        let framed = framed_records(&corrupted);
        for mode in [ReadMode::Strict, ReadMode::Tolerant] {
            let outcome = feeder.decode(mode, &corrupted);
            let stream = (outcome.updates.clone(), outcome.records_read);
            prop_assert!(
                outcome.error.is_some() || outcome.records_skipped > 0 || stream != clean,
                "corruption read back as the clean stream"
            );
            // However framing desynchronized, every record framed is
            // decoded or skipped; only a strict reader may stop short, at
            // the payload it refused.
            let accounted = outcome.records_read + outcome.records_skipped;
            prop_assert!(outcome.updates.len() as u64 <= outcome.records_read);
            if mode == ReadMode::Tolerant || outcome.error.is_none() {
                prop_assert_eq!(accounted, framed);
            } else {
                prop_assert!(accounted <= framed);
            }
            prop_assert_eq!(outcome.summary(), reference().decode(mode, &corrupted).summary());
        }
    }
}

/// Tolerant-mode skip accounting on a deterministically noisy archive:
/// corrupt payloads with intact framing are skipped and counted; the
/// valid records around them all decode.
#[test]
fn tolerant_mode_accounts_for_skips_between_valid_records() {
    let records = vec![
        mk_update((
            5,
            6939,
            vec![6939, 64_500],
            vec![0x0666],
            vec![],
            vec![(0x0A00_0000, 24)],
            vec![],
            0,
        )),
        mk_update((9, 6939, vec![6939], vec![], vec![], vec![], vec![(0x0B00_0000, 16)], 0)),
    ];
    let valid = write_all(&records);

    let corrupt_record = |buf: &mut Vec<u8>| {
        buf.extend_from_slice(&3u32.to_be_bytes()); // timestamp
        buf.extend_from_slice(&16u16.to_be_bytes()); // BGP4MP
        buf.extend_from_slice(&4u16.to_be_bytes()); // MESSAGE_AS4
        buf.extend_from_slice(&6u32.to_be_bytes()); // plausible length
        buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
    };

    let mut noisy = Vec::new();
    corrupt_record(&mut noisy);
    noisy.extend_from_slice(&valid);
    corrupt_record(&mut noisy);
    corrupt_record(&mut noisy);

    for (transport, chunks) in [(Transport::Bytes, vec![1]), (Transport::Tail, vec![7, 2, 40])] {
        let feeder = Feeder { transport, chunks };
        let tolerant = feeder.decode(ReadMode::Tolerant, &noisy);
        assert!(tolerant.error.is_none(), "tolerant reader survives noise: {:?}", tolerant.error);
        assert_eq!(tolerant.updates.len(), 2, "both valid records decode");
        assert_eq!(tolerant.records_read, 2);
        assert_eq!(tolerant.records_skipped, 3, "every corrupt record is counted");

        // Strict mode refuses at the first corrupt record.
        let strict = feeder.decode(ReadMode::Strict, &noisy);
        assert!(strict.error.is_some() && strict.updates.is_empty(), "{feeder:?}");
        assert_eq!(strict.records_skipped, 0);
    }
}
