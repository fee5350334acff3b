//! Zero-copy decode equivalence: whichever feeder ([`common::Feeder`]) a
//! case draws — the sliced `MrtBytesReader` path with its attribute-block
//! memo cache and Arc-shared handles, or the tail — must read back the
//! updates written, on arbitrary round-tripped archives;
//! every feeder's [`BgpElem`] stream must equal an expansion of the
//! written updates computed in the test; the tail window — chunks framed
//! in place, torn records stitched aside — must equal the bytes reader
//! under any chunking, single-byte appends included, both through
//! `TailingReader` and through a `TailingSource` over a `LiveArchive`
//! fed shared slices; and inference over a decoded
//! Small-scale archive set must equal inference over the scenario's own
//! elems. Interning is checked: tables
//! built in any order hold the same distinct values, and an issued id
//! stays stable while the table grows.

mod common;

use std::sync::OnceLock;

use proptest::prelude::*;

use common::{arb_feeder, Feeder, Transport, Update, COLLECTOR, DATASET};

use bh_bench::{Study, StudyScale};
use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::{Origin, PathAttributes};
use bh_bgp_types::community::{Community, CommunitySet, LargeCommunity};
use bh_bgp_types::intern::PathTable;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_mrt::{MrtWriter, ReadMode};
use bh_routing::archive::MrtElemSource;
use bh_routing::{
    merge_streams, split_by_collector, ElemSource, LiveArchive, LivePoll, MergedSource,
    SliceSource, TailingSource,
};
use bytes::Bytes;

const PEER_IP: &str = "198.51.100.44";
const LOCAL_IP: &str = "192.0.2.254";

/// Serialized-update generator: a plausible mix of tagged announcements,
/// repeated attribute blocks (the cache's hot case), and withdrawals.
type UpdateFields =
    (u64, u32, Vec<u32>, Vec<u32>, Vec<(u32, u32, u32)>, Vec<(u32, u8)>, Vec<(u32, u8)>);

fn arb_update_fields() -> impl Strategy<Value = Vec<UpdateFields>> {
    prop::collection::vec(
        (
            0u64..4_000_000_000,
            1u32..65_000,
            prop::collection::vec(1u32..64, 0..4), // small ASN pool: repeats
            prop::collection::vec(1u32..16, 0..3), // small community pool
            prop::collection::vec((1u32..8, 1u32..8, 1u32..8), 0..2),
            prop::collection::vec((any::<u32>(), 8u8..=32), 0..3),
            prop::collection::vec((any::<u32>(), 8u8..=32), 0..3),
        ),
        0..24,
    )
}

/// The archive of `draws`, and the updates `next_update` must fill from
/// it: the attribute block is written only beside announcements.
fn write_archive(draws: &[UpdateFields]) -> (Vec<u8>, Vec<Update>) {
    let (mut buf, mut written) = (Vec::new(), Vec::new());
    let mut writer = MrtWriter::new(&mut buf);
    for (t, peer, hops, comms, large, announced, withdrawn) in draws {
        let attrs = if announced.is_empty() {
            PathAttributes::default()
        } else {
            let mut communities =
                CommunitySet::from_classic(comms.iter().map(|&c| Community(c)).collect::<Vec<_>>());
            for &(a, b, c) in large {
                communities.insert_large(LargeCommunity::new(a, b, c));
            }
            PathAttributes {
                origin: Origin::Igp,
                as_path: AsPath::from_sequence(
                    hops.iter().map(|&a| Asn::new(a)).collect::<Vec<_>>(),
                ),
                next_hop: Some("203.0.113.66".parse().unwrap()),
                communities,
                ..Default::default()
            }
        };
        let mut update = BgpUpdate::new(attrs);
        for &(net, len) in announced {
            update.announce_v4(Ipv4Prefix::from_raw(net, len));
        }
        for &(net, len) in withdrawn {
            update.withdraw_v4(Ipv4Prefix::from_raw(net, len));
        }
        writer
            .write_update(
                SimTime::from_unix(*t),
                Asn::new(*peer),
                PEER_IP.parse().unwrap(),
                Asn::new(64_512),
                LOCAL_IP.parse().unwrap(),
                &update,
            )
            .expect("update writes");
        written.push((
            SimTime::from_unix(*t),
            (Asn::new(*peer), PEER_IP.parse().unwrap()),
            update.has_announcements().then(|| update.attrs.clone()),
            update.announced_v4().copied().collect(),
            update.withdrawn_v4().copied().collect(),
        ));
    }
    (buf, written)
}

/// One record of the elem-expansion archive.
#[derive(Debug, Clone)]
enum Draw {
    /// `form`: 0 through `MrtWriter` (its `BgpUpdate` drops repeats), 1
    /// a hand-built AS4 `MESSAGE`, 2 an AS2 `MESSAGE`, 3 a `BGP4MP_ET`
    /// record — the last three keep repeated NLRI on the wire.
    Update {
        time: u32,
        peer: u32,
        hops: Vec<u32>,
        comms: Vec<u32>,
        announced: Vec<Ipv4Prefix>,
        withdrawn: Vec<Ipv4Prefix>,
        form: u8,
    },
    Keepalive {
        time: u32,
        peer: u32,
    },
    StateChange {
        time: u32,
        peer: u32,
    },
}

fn arb_draw() -> impl Strategy<Value = Draw> {
    // A pool of twelve prefixes, so an UPDATE repeats some of its NLRI.
    let prefixes = || {
        prop::collection::vec((0u32..4, 0usize..3), 0..6).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(net, len)| Ipv4Prefix::from_raw(0x0A00_0000 | net << 16, [16, 24, 32][len]))
                .collect::<Vec<_>>()
        })
    };
    (
        0u8..8,
        0u32..4_000_000_000,
        1u32..4_000_000_000,
        prop::collection::vec(1u32..64, 0..4),
        prop::collection::vec(1u32..16, 0..3),
        prefixes(),
        prefixes(),
    )
        .prop_map(|(pick, time, peer, hops, comms, announced, withdrawn)| match pick {
            6 => Draw::Keepalive { time, peer },
            7 => Draw::StateChange { time, peer },
            form => Draw::Update { time, peer, hops, comms, announced, withdrawn, form: form % 4 },
        })
}

/// The archive of `draws` and, expanded outside the decoder
/// ([`common::expand_update`]), the elems it must stream.
fn write_draws(draws: &[Draw]) -> (Vec<u8>, Vec<bh_routing::BgpElem>) {
    use common::raw;
    let peer_ip: std::net::Ipv4Addr = PEER_IP.parse().unwrap();
    let (mut archive, mut expected) = (Vec::new(), Vec::new());
    for draw in draws {
        match draw {
            Draw::Update { time, peer, hops, comms, announced, withdrawn, form } => {
                let attrs = PathAttributes {
                    origin: Origin::Igp,
                    as_path: AsPath::from_sequence(
                        hops.iter().map(|&a| Asn::new(a)).collect::<Vec<_>>(),
                    ),
                    next_hop: Some("203.0.113.66".parse().unwrap()),
                    communities: CommunitySet::from_classic(
                        comms.iter().map(|&c| Community(c)).collect::<Vec<_>>(),
                    ),
                    ..Default::default()
                };
                let (as4, peer) = if *form == 2 { (false, peer & 0xFFFF) } else { (true, *peer) };
                if *form == 0 {
                    let mut update = BgpUpdate::new(attrs.clone());
                    announced.iter().for_each(|&p| update.announce_v4(p));
                    withdrawn.iter().for_each(|&p| update.withdraw_v4(p));
                    MrtWriter::new(&mut archive)
                        .write_update(
                            SimTime::from_unix(*time as u64),
                            Asn::new(peer),
                            peer_ip.into(),
                            Asn::new(64_512),
                            LOCAL_IP.parse().unwrap(),
                            &update,
                        )
                        .expect("update writes");
                } else {
                    let msg = raw::update(&attrs, announced, withdrawn);
                    let et = *form == 3;
                    archive.extend(raw::message_record(*time, et, as4, peer, peer_ip, msg).0);
                }
                expected.extend(common::expand_update(
                    SimTime::from_unix(*time as u64),
                    Asn::new(peer),
                    peer_ip.into(),
                    &attrs,
                    announced,
                    withdrawn,
                ));
            }
            Draw::Keepalive { time, peer } => {
                let keepalive = raw::message(4, &[]);
                archive
                    .extend(raw::message_record(*time, false, true, *peer, peer_ip, keepalive).0);
            }
            Draw::StateChange { time, peer } => {
                let states = [0, 6, 0, 1]; // Established → Idle
                let body = raw::bgp4mp_body(false, true, *peer, peer_ip, &states);
                archive.extend(raw::record(*time, raw::BGP4MP, raw::STATE_CHANGE_AS4, &body).0);
            }
        }
    }
    (archive, expected)
}

proptest! {
    /// Update-level equivalence: whichever feeder the case draws reads
    /// the archive back as the updates written, one per record.
    #[test]
    fn bytes_reader_equals_read_reader(draws in arb_update_fields(), feeder in arb_feeder()) {
        let (archive, written) = write_archive(&draws);
        let fed = feeder.decode(ReadMode::Strict, &archive);
        prop_assert_eq!(fed.summary(), (&written[..], None, written.len() as u64, 0));
    }

    /// Elem-level, against a reference outside the decoder: whichever
    /// feeder the case draws, in either mode, the elem source streams
    /// exactly the expansion of the updates written — multi-prefix,
    /// repeated, announce-plus-withdraw and withdraw-only UPDATEs, as
    /// AS4, AS2 `MESSAGE` and `BGP4MP_ET` records, between KEEPALIVEs and
    /// state changes that yield nothing.
    #[test]
    fn elems_equal_the_written_updates_through_every_feeder(
        draws in prop::collection::vec(arb_draw(), 0..16),
        feeder in arb_feeder(),
    ) {
        let (archive, expected) = write_draws(&draws);
        for mode in [ReadMode::Strict, ReadMode::Tolerant] {
            let out = feeder.elems(mode, &archive);
            prop_assert_eq!(out.summary(), (&expected[..], None, draws.len() as u64, 0));
        }
    }

    /// The tail window equals the bytes reader under any chunking: sizes
    /// cycled from 1..48, or every append a single byte. Updates and elems
    /// through `TailingReader` (each chunk a `&[u8]`, copied once), and
    /// elems through a `TailingSource` over a `LiveArchive` appended
    /// `Bytes` slices of the archive and polled after every append.
    #[test]
    fn the_tail_window_equals_the_bytes_reader_under_any_chunking(
        draws in prop::collection::vec(arb_draw(), 0..16),
        chunks in (any::<bool>(), prop::collection::vec(1usize..48, 1..8))
            .prop_map(|(bytewise, sizes)| if bytewise { vec![1] } else { sizes }),
    ) {
        let (archive, _) = write_draws(&draws);
        let whole = Feeder { transport: Transport::Bytes, chunks: vec![1] };
        let tail = Feeder { transport: Transport::Tail, chunks: chunks.clone() };
        let records = whole.decode(ReadMode::Strict, &archive);
        prop_assert_eq!(tail.decode(ReadMode::Strict, &archive).summary(), records.summary());
        let elems = whole.elems(ReadMode::Strict, &archive);
        prop_assert_eq!(tail.elems(ReadMode::Strict, &archive).summary(), elems.summary());

        let bytes = Bytes::from(archive);
        let live = LiveArchive::new();
        let mut source = TailingSource::new(live.clone(), DATASET, COLLECTOR);
        let mut tailed = Vec::new();
        let mut at = 0;
        for &n in chunks.iter().cycle() {
            if at == bytes.len() {
                break;
            }
            let end = (at + n).min(bytes.len());
            live.append(bytes.slice(at..end)).expect("the archive is open");
            at = end;
            loop {
                match source.poll() {
                    LivePoll::Elem(elem) => tailed.push(elem),
                    LivePoll::Pending(_) => break,
                    LivePoll::End => prop_assert!(false, "an open archive ended"),
                }
            }
        }
        live.close();
        while let LivePoll::Elem(elem) = source.poll() {
            tailed.push(elem);
        }
        prop_assert!(source.error().is_none());
        prop_assert_eq!(&tailed, &elems.elems);
    }

    /// Intern tables are order-insensitive sets with stable ids: interning
    /// the same values in any order yields the same distinct values, and
    /// an id keeps resolving to its value however much is interned after it.
    #[test]
    fn intern_tables_dedup_and_keep_ids_stable(
        a in prop::collection::vec(prop::collection::vec(1u32..32, 0..5), 0..12),
        b in prop::collection::vec(prop::collection::vec(1u32..32, 0..5), 0..12),
    ) {
        let paths_of = |draws: &[Vec<u32>]| -> Vec<AsPath> {
            draws
                .iter()
                .map(|hops| {
                    AsPath::from_sequence(hops.iter().map(|&h| Asn::new(h)).collect::<Vec<_>>())
                })
                .collect()
        };
        let (left, right) = (paths_of(&a), paths_of(&b));

        // Order-insensitivity.
        let mut fwd = PathTable::new();
        let mut rev = PathTable::new();
        for p in &left {
            fwd.intern(p);
        }
        for p in left.iter().rev() {
            rev.intern(p);
        }
        prop_assert_eq!(fwd.len(), rev.len());
        for p in fwd.iter() {
            prop_assert!(rev.canonical(p).is_some());
        }

        // Id stability while the table keeps growing.
        let issued: Vec<_> = left.iter().map(|p| fwd.intern(p)).collect();
        for p in &right {
            fwd.intern(p);
        }
        for (p, id) in left.iter().zip(&issued) {
            prop_assert_eq!(fwd.resolve(*id), p);
            prop_assert_eq!(fwd.intern(p), *id);
        }
        // The grown table is the set union.
        let mut union = PathTable::new();
        for p in left.iter().chain(&right) {
            union.intern(p);
            prop_assert!(fwd.canonical(p).is_some());
        }
        prop_assert_eq!(fwd.len(), union.len());
    }
}

/// One Small-scale environment shared by the golden tests below.
fn small_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Small, 42))
}

/// The golden end-to-end check: a realistic multi-collector archive set
/// run through the zero-copy merged stream and through the fleet
/// produces `InferenceResult`s bit-identical to the scenario's own elems,
/// merged in memory with no decode.
#[test]
fn zero_copy_inference_equals_read_path_inference() {
    let study = small_study();
    let run = study.visibility_run(4, 6.0);
    let refdata = run.refdata;
    let archives = run.output.fleet_archives().expect("archives serialize");
    assert!(archives.len() >= 2, "need a real fleet");

    let infer = |source: &mut dyn ElemSource| {
        let mut session = study.session(&refdata).build();
        session.ingest(source);
        session.finish()
    };
    let streams: Vec<_> = split_by_collector(&run.output.elems).into_values().collect();
    let expected = infer(&mut SliceSource::new(&merge_streams(streams)));

    let bytes_sources: Vec<_> = archives
        .iter()
        .map(|a| MrtElemSource::from_bytes(a.bytes.clone(), a.dataset, a.collector))
        .collect();
    let via_bytes = infer(&mut MergedSource::new(bytes_sources));
    assert_eq!(via_bytes, expected, "zero-copy merged stream diverged");

    let mut stream = bh_workloads::fleet_of(&archives).start();
    let via_fleet = infer(&mut stream);
    assert!(stream.finish().is_clean());
    assert_eq!(via_fleet, expected, "fleet diverged");

    assert!(!expected.events.is_empty(), "degenerate run: nothing inferred");
}
