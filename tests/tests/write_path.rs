//! The MRT write path, pinned and cross-checked. `write_path_golden_pin`
//! holds the bytes `fleet_archives` writes, a catalogue of attribute
//! blocks and three UPDATE records (the only kind `MrtWriter` writes) to
//! digests recorded from the writer that built every record out of
//! separate buffers; the
//! property holds every `write_update` record to the field-by-field
//! builders of `common::raw` (framing, back-patched lengths, NLRI).

mod common;

use std::net::{IpAddr, Ipv4Addr};

use proptest::prelude::*;

use common::raw;

use bh_bench::{Study, StudyScale};
use bh_bgp_types::as_path::{AsPath, AsPathSegment};
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::{Origin, PathAttributes};
use bh_bgp_types::community::{Community, CommunitySet, ExtendedCommunity, LargeCommunity};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::BgpUpdate;
use bh_bgp_types::wire::encode_attributes;
use bh_mrt::MrtWriter;

/// FNV-1a over bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every archive `fleet_archives` writes for a 4-day visibility run, in
/// order: count, elems, bytes and one digest over names and bytes.
fn archives_line(scale: StudyScale, seed: u64) -> String {
    let run = Study::build(scale, seed).visibility_run(4, 6.0);
    let archives = run.output.fleet_archives().expect("archives serialize");
    let mut all = Vec::new();
    for a in &archives {
        all.extend_from_slice(a.name.as_bytes());
        all.extend_from_slice(&a.bytes);
    }
    format!(
        "archives={} elems={} bytes={} digest={:016x}",
        archives.len(),
        archives.iter().map(|a| a.elems).sum::<u64>(),
        archives.iter().map(|a| a.bytes.len()).sum::<usize>(),
        digest(&all)
    )
}

fn asns(range: std::ops::Range<u32>) -> Vec<Asn> {
    range.map(Asn::new).collect()
}

/// Attribute sets covering every encoder branch: segment chunking past
/// 255 ASNs, an AS_SET, extended-length headers, the optional scalars,
/// and all three community families together.
fn attribute_catalogue() -> Vec<(&'static str, PathAttributes)> {
    let mut every_family = CommunitySet::from_classic(vec![
        Community::from_parts(3356, 9999),
        Community::BLACKHOLE,
        Community::NO_EXPORT,
    ]);
    every_family.insert_extended(ExtendedCommunity::two_octet_as(3356, 7, 2));
    every_family.insert_extended(ExtendedCommunity::two_octet_as(174, 666, 3));
    every_family.insert_large(LargeCommunity::new(196_608, 666, 0));
    every_family.insert_large(LargeCommunity::new(64_500, 1, 2));
    vec![
        ("default", PathAttributes::default()),
        (
            "long path and set",
            PathAttributes {
                as_path: AsPath::from_segments(vec![
                    AsPathSegment::Sequence(asns(64_000..64_300)),
                    AsPathSegment::Set(asns(65_001..65_004)),
                ]),
                next_hop: Some("192.0.2.66".parse().unwrap()),
                ..Default::default()
            },
        ),
        (
            "extended-length communities",
            PathAttributes {
                as_path: AsPath::from_sequence(asns(64_500..64_503)),
                communities: CommunitySet::from_classic(
                    (0..70).map(|i| Community::from_parts(3356, i)).collect(),
                ),
                ..Default::default()
            },
        ),
        (
            "scalars",
            PathAttributes {
                origin: Origin::Egp,
                as_path: AsPath::from_sequence(asns(64_500..64_502)),
                next_hop: Some("203.0.113.9".parse().unwrap()),
                med: Some(50),
                local_pref: Some(120),
                atomic_aggregate: true,
                aggregator: Some((Asn::new(64_500), Ipv4Addr::new(10, 0, 0, 1))),
                ..Default::default()
            },
        ),
        (
            "every community family",
            PathAttributes {
                origin: Origin::Incomplete,
                as_path: "6939 3356 64500 64500".parse().unwrap(),
                next_hop: Some("192.0.2.66".parse().unwrap()),
                communities: every_family,
                ..Default::default()
            },
        ),
    ]
}

/// Three UPDATE records through one writer, IPv4 and IPv6 peers: the
/// name, length and digest of each.
fn record_lines() -> Vec<String> {
    let catalogue = attribute_catalogue();
    let attrs = |name: &str| catalogue.iter().find(|(n, _)| *n == name).unwrap().1.clone();
    let v4: IpAddr = "198.51.100.44".parse().unwrap();
    let v6: IpAddr = "2001:db8::44".parse().unwrap();
    let (local_v4, local_v6): (IpAddr, IpAddr) =
        ("192.0.2.254".parse().unwrap(), "2001:db8::fe".parse().unwrap());
    let (peer, local) = (Asn::new(6939), Asn::new(64_512));
    let t = SimTime::from_unix(1_500_000_000);

    let mut announce = BgpUpdate::new(attrs("every community family"));
    announce.announce_v4("130.149.1.1/32".parse().unwrap());
    announce.announce_v4("192.0.2.0/24".parse().unwrap());
    announce.withdraw_v4("198.51.100.0/24".parse().unwrap());
    let mut v6_announce = BgpUpdate::new(attrs("scalars"));
    v6_announce.announce_v4("10.0.0.0/8".parse().unwrap());
    let withdraw = BgpUpdate::withdraw("0.0.0.0/0".parse().unwrap());

    let mut w = MrtWriter::new(Vec::new());
    let mut ends = Vec::new();
    let mut mark =
        |w: &MrtWriter<Vec<u8>>, name: &'static str| ends.push((name, w.bytes_written()));
    w.write_update(t, peer, v4, local, local_v4, &announce).unwrap();
    mark(&w, "update v4");
    w.write_update(t, peer, v6, local, local_v6, &v6_announce).unwrap();
    mark(&w, "update v6");
    w.write_update(t, peer, v4, local, local_v4, &withdraw).unwrap();
    mark(&w, "withdraw");
    assert_eq!(w.records_written(), ends.len() as u64);
    let bytes = w.into_inner();
    let mut start = 0;
    ends.into_iter()
        .map(|(name, end)| {
            let record = &bytes[start..end as usize];
            start = end as usize;
            format!("{name} len={} digest={:016x}", record.len(), digest(record))
        })
        .collect()
}

fn assert_lines(got: &[String], expected: &[&str]) {
    for (i, (got, expected)) in got.iter().zip(expected).enumerate() {
        assert_eq!(got, expected, "line {i}");
    }
    assert_eq!(got.len(), expected.len(), "{got:#?}");
}

/// Golden pin of the write path, recorded from the writer that framed
/// each record out of a separate header, body and message buffer. The
/// Small archives (the benchmark's world, a shorter run) are
/// release-only; their bytes and digest were re-recorded when a neighbor
/// listed under two relationships got the export verdict of the first
/// listed instead of the last (the elem count did not move).
#[test]
fn write_path_golden_pin() {
    let blocks: Vec<String> = attribute_catalogue()
        .iter()
        .map(|(name, attrs)| {
            let block = encode_attributes(attrs);
            format!("{name} len={} digest={:016x}", block.len(), digest(&block))
        })
        .collect();
    assert_lines(
        &blocks,
        &[
            "default len=7 digest=26a807a1f4df36a3",
            "long path and set len=1233 digest=6d651e75e4a7bb33",
            "extended-length communities len=305 digest=5b2de5911e456c2e",
            "scalars len=52 digest=500e28a310ba818f",
            "every community family len=93 digest=bd96e30597599ee4",
        ],
    );
    assert_lines(
        &record_lines(),
        &[
            "update v4 len=161 digest=f52b96b0bfa4856f",
            "update v6 len=133 digest=fd62f376bc43d34d",
            "withdraw len=56 digest=c6b7be2702ce6342",
        ],
    );
    assert_lines(
        &[archives_line(StudyScale::Tiny, 5)],
        &["archives=35 elems=74543 bytes=6023877 digest=a6edfdb838b228e1"],
    );
    if !cfg!(debug_assertions) {
        assert_lines(
            &[archives_line(StudyScale::Small, 42)],
            &["archives=57 elems=180344 bytes=15279786 digest=4db2657d027cdc02"],
        );
    }
}

type UpdateDraw =
    (u32, u32, u32, Vec<u32>, Vec<u32>, Vec<(u32, u32, u32)>, Vec<(u32, u8)>, Vec<(u32, u8)>);

fn arb_update_draw() -> impl Strategy<Value = UpdateDraw> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(1u32..100_000, 0..6),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..3),
        prop::collection::vec((any::<u32>(), 0u8..=32), 0..6),
        prop::collection::vec((any::<u32>(), 0u8..=32), 0..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// `write_update` writes exactly the record `common::raw` builds
    /// field by field from the same update: the MRT header and length,
    /// the BGP4MP envelope, the message header and length, the
    /// withdrawn-routes and attribute lengths, and both NLRI lists.
    #[test]
    fn write_update_matches_the_raw_builders(draw in arb_update_draw()) {
        let (time, peer_asn, peer_ip, hops, comms, large, announced, withdrawn) = draw;
        let mut communities =
            CommunitySet::from_classic(comms.into_iter().map(Community).collect());
        for (a, b, c) in large {
            communities.insert_large(LargeCommunity::new(a, b, c));
        }
        let mut update = BgpUpdate::new(PathAttributes {
            as_path: AsPath::from_sequence(hops.into_iter().map(Asn::new).collect::<Vec<_>>()),
            next_hop: Some(IpAddr::V4(Ipv4Addr::from(peer_ip))),
            communities,
            ..Default::default()
        });
        for (net, len) in announced {
            update.announce_v4(Ipv4Prefix::from_raw(net, len));
        }
        for (net, len) in withdrawn {
            update.withdraw_v4(Ipv4Prefix::from_raw(net, len));
        }
        let peer_ip = Ipv4Addr::from(peer_ip);

        let mut writer = MrtWriter::new(Vec::new());
        writer
            .write_update(
                SimTime::from_unix(u64::from(time)),
                Asn::new(peer_asn),
                IpAddr::V4(peer_ip),
                Asn::new(64_512),
                "192.0.2.254".parse().unwrap(),
                &update,
            )
            .expect("update writes");
        let announced: Vec<Ipv4Prefix> = update.announced_v4().copied().collect();
        let withdrawn: Vec<Ipv4Prefix> = update.withdrawn_v4().copied().collect();
        let message = raw::update(&update.attrs, &announced, &withdrawn);
        let (expected, _) = raw::message_record(time, false, true, peer_asn, peer_ip, message);
        prop_assert_eq!(writer.bytes_written(), expected.len() as u64);
        prop_assert_eq!(writer.into_inner(), expected);
    }
}
