//! Hostile input: every byte of an archive, and of a query connection,
//! is untrusted until parsed.
//!
//! MRT / BGP wire: from one small valid archive the harness derives
//! mutants — a cut at every offset, each length or count field set to 0,
//! ±1 and its maximum, seeded bit flips — and drives each through both
//! feeders ([`common::Feeder`]), strict and tolerant, at update and
//! at elem level. Every mutant must decode without a panic; a strict
//! reader returns at most one error and then only `Ok(false)`; a tolerant
//! one accounts for every record it framed (`records_read +
//! records_skipped` equals an independent walk of the length fields,
//! unless the framing itself broke) — records that are not UPDATEs are
//! seen only there; and the elem path yields every elem of a record or
//! none of them — exactly the elems of the updates `next_update` filled,
//! expanded outside the decoder.
//!
//! The live line protocol (`bh_live::serve_connection`): an endless line,
//! bytes that are not UTF-8, NUL / CR / empty lines, and the same cuts
//! and seeded bit flips over a valid command script. Every input line
//! gets exactly one `ok`/`err` reply and the connection keeps serving up
//! to `quit`.
//!
//! One more MRT case is about cost, not content: a 1 MiB record appended
//! one byte at a time must decode in linear time — the tail stitches a
//! torn record from its own bytes, once each.
//!
//! CI runs this file in `--release` under a hard timeout, so a parser
//! that stops advancing on malformed input fails fast.

mod common;

use std::io::{self, BufReader, Read};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::raw::{self, Field};
use common::{expand_records, framed_records, Feeder, Transport};

use bh_bgp_types::as_path::AsPath;
use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::error::CodecError;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_core::{AnalyticsConfig, AnalyticsPipeline, ReferenceData, SessionBuilder};
use bh_irr::BlackholeDictionary;
use bh_live::wire::MAX_LINE_BYTES;
use bh_live::{serve_connection, LiveFleet, LiveFleetConfig, QueryRunner};
use bh_mrt::{MessageStream, MrtError, ReadMode, TailingReader, UpdateRecord};
use bh_routing::{deploy, CollectorConfig};
use bh_topology::{TopologyBuilder, TopologyConfig};

fn prefix(s: &str) -> Ipv4Prefix {
    s.parse().expect("test prefix")
}

/// The seed archive, and every length or count field in it with its
/// absolute offset: an UPDATE announcing three prefixes (one repeated)
/// and withdrawing one, a withdraw-only UPDATE with an empty attribute
/// block, a state change, a KEEPALIVE, an AS2 `MESSAGE`, a `BGP4MP_ET`
/// UPDATE, a `PEER_INDEX_TABLE` (one IPv4 peer with a 2-byte ASN, one
/// IPv6 peer with a 4-byte ASN) and a `RIB_IPV4_UNICAST` entry from both
/// peers.
fn seed_archive() -> (Vec<u8>, Vec<Field>) {
    let peer = Ipv4Addr::new(198, 51, 100, 44);
    let mut path = AsPath::from_sequence(vec![Asn::new(6939), Asn::new(3356)]);
    path.prepend(Asn::new(64_500), 2);
    let attrs = PathAttributes {
        as_path: path,
        next_hop: Some("203.0.113.66".parse().expect("next hop")),
        communities: CommunitySet::from_classic(vec![
            Community::from_parts(3356, 9999),
            Community::BLACKHOLE,
        ]),
        ..Default::default()
    };
    let host = prefix("130.149.1.1/32");
    let records = [
        raw::message_record(
            10,
            false,
            true,
            6939,
            peer,
            raw::update(
                &attrs,
                &[host, prefix("192.0.2.0/24"), host, prefix("10.0.0.0/8")],
                &[prefix("198.51.100.0/24")],
            ),
        ),
        raw::message_record(
            11,
            false,
            true,
            6939,
            peer,
            raw::update(&attrs, &[], &[host, prefix("0.0.0.0/0")]),
        ),
        raw::record(
            12,
            raw::BGP4MP,
            raw::STATE_CHANGE_AS4,
            &raw::bgp4mp_body(false, true, 6939, peer, &[0, 6, 0, 1]),
        ),
        raw::message_record(13, false, true, 6939, peer, raw::message(4, &[])),
        raw::message_record(14, false, false, 3356, peer, raw::update(&attrs, &[host], &[])),
        raw::message_record(15, true, true, 174, peer, raw::update(&attrs, &[host], &[host])),
        raw::table_dump_record(
            16,
            raw::PEER_INDEX_TABLE,
            raw::peer_index_table(
                "rrc00",
                &[(6939, peer.into()), (4_200_000_000, "2001:db8::44".parse().expect("v6"))],
            ),
        ),
        raw::table_dump_record(
            16,
            raw::RIB_IPV4_UNICAST,
            raw::rib_ipv4_unicast(&prefix("130.149.0.0/16"), &[0, 1], &attrs),
        ),
    ];
    let (mut archive, mut fields) = (Vec::new(), Vec::new());
    for (bytes, record_fields) in records {
        let base = archive.len();
        fields.extend(record_fields.into_iter().map(|f| Field { offset: base + f.offset, ..f }));
        archive.extend(bytes);
    }
    (archive, fields)
}

/// The feeders every mutant goes through: the whole archive, and
/// appends cut at ragged offsets.
fn feeders() -> [Feeder; 2] {
    [
        Feeder { transport: Transport::Bytes, chunks: vec![1] },
        Feeder { transport: Transport::Tail, chunks: vec![5, 64, 2, 11] },
    ]
}

/// Every check the harness makes, on one mutant.
fn check(case: &str, bytes: &[u8]) {
    let framed = framed_records(bytes);
    for feeder in feeders() {
        for mode in [ReadMode::Strict, ReadMode::Tolerant] {
            let at = format!("{case}, {:?}, {mode:?}", feeder.transport);
            // `Feeder` asserts that an error is final and single.
            let records = catch_unwind(AssertUnwindSafe(|| feeder.decode(mode, bytes)))
                .unwrap_or_else(|_| panic!("{at}: the update path panicked"));
            let elems = catch_unwind(AssertUnwindSafe(|| feeder.elems(mode, bytes)))
                .unwrap_or_else(|_| panic!("{at}: the elem path panicked"));

            let accounted = records.records_read + records.records_skipped;
            assert!(records.updates.len() as u64 <= records.records_read, "{at}");
            if mode == ReadMode::Tolerant || records.error.is_none() {
                assert_eq!(accounted, framed, "{at}: a framed record went unaccounted");
            } else {
                assert!(accounted <= framed, "{at}");
            }
            match (mode, &records.error) {
                (ReadMode::Strict, _) => assert_eq!(records.records_skipped, 0, "{at}"),
                (ReadMode::Tolerant, None | Some(MrtError::OversizedRecord(_))) => {}
                (ReadMode::Tolerant, Some(e)) => assert!(
                    matches!(
                        e,
                        MrtError::Codec(CodecError::Truncated {
                            what: "mrt header" | "mrt body",
                            ..
                        })
                    ),
                    "{at}: only a framing failure ends a tolerant stream, not {e:?}"
                ),
            }

            let expected = expand_records(&records.updates);
            assert_eq!(
                elems.summary(),
                (&expected[..], records.summary().1, records.records_read, records.records_skipped),
                "{at}: the elem path is not the whole-record expansion"
            );
        }
    }
}

#[test]
fn seed_archive_decodes_cleanly() {
    let (archive, fields) = seed_archive();
    let clean = Feeder { transport: Transport::Bytes, chunks: vec![1] };
    let records = clean.decode(ReadMode::Strict, &archive);
    assert!(records.error.is_none(), "{:?}", records.error);
    assert_eq!((records.records_read, records.updates.len()), (8, 4));
    let elems = clean.elems(ReadMode::Strict, &archive).elems;
    // 3 + 1, 2, 0, 0, 1, 1 + 1, 0, 0: repeats dropped, nothing from the
    // state change, the KEEPALIVE or the table dump.
    assert_eq!(elems.len(), 9);
    let names = |name| fields.iter().filter(|f| f.name == name).count();
    assert_eq!(names("mrt length"), 8);
    assert_eq!(names("bgp message length"), 5);
    assert_eq!(names("withdrawn length"), 4);
    assert_eq!(names("attribute length"), 4);
    assert_eq!(names("as_path segment count"), 5);
    assert_eq!(names("nlri length"), 10);
    assert_eq!(names("view name length") + names("peer count"), 2);
    assert_eq!(names("rib prefix length") + names("rib entry count"), 2);
    assert_eq!(names("rib attribute length"), 2);
    check("seed", &archive);
}

#[test]
fn every_truncation_point() {
    let (archive, _) = seed_archive();
    for cut in 0..archive.len() {
        check(&format!("cut at {cut}"), &archive[..cut]);
    }
}

#[test]
fn every_length_field_at_its_edges() {
    let (archive, fields) = seed_archive();
    for field in &fields {
        let span = field.offset..field.offset + field.width;
        let mut value = [0u8; 4];
        value[4 - field.width..].copy_from_slice(&archive[span.clone()]);
        let value = u32::from_be_bytes(value);
        let max = u32::MAX >> (32 - 8 * field.width);
        let edges = [0, value.wrapping_sub(1) & max, value.wrapping_add(1) & max, max];
        for edge in edges {
            let mut mutant = archive.clone();
            mutant[span.clone()].copy_from_slice(&edge.to_be_bytes()[4 - field.width..]);
            check(&format!("{} at {} = {edge} (was {value})", field.name, field.offset), &mutant);
        }
    }
}

/// SplitMix64: a fixed stream, so a failure names a reproducible case.
fn seeded(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `bytes` with one to three seeded bits flipped.
fn flip_bits(bytes: &[u8], next: &mut impl FnMut() -> u64) -> Vec<u8> {
    let mut mutant = bytes.to_vec();
    let flips = 1 + next() % 3;
    for _ in 0..flips {
        let bit = (next() % (mutant.len() as u64 * 8)) as usize;
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
    mutant
}

#[test]
fn seeded_bit_flips() {
    let (archive, _) = seed_archive();
    let mut next = seeded(0x5EED);
    for case in 0..1500 {
        check(&format!("flip case {case}"), &flip_bits(&archive, &mut next));
    }
}

/// A 1 MiB unknown-type record torn at every byte, then the seed
/// archive. Each append is one byte; a tail that re-copied the partial
/// record per append would move ≈5×10¹¹ bytes before it completed.
#[test]
fn a_megabyte_record_appended_byte_by_byte_decodes_in_linear_time() {
    let (big, _) = raw::record(1, 99, 0, &vec![0xA5; 1 << 20]);
    let (seed, _) = seed_archive();
    let archive = [&big[..], &seed].concat();
    let started = Instant::now();
    let mut reader = TailingReader::new();
    let (mut record, mut updates) = (UpdateRecord::default(), 0);
    for (at, byte) in archive.chunks(1).enumerate() {
        reader.extend(byte);
        while reader.next_update(&mut record).expect("every prefix is pending") {
            updates += 1;
        }
        if at + 1 == big.len() {
            assert_eq!(reader.records_read(), 1, "the big record is framed once whole");
        }
    }
    reader.close();
    assert!(!reader.next_update(&mut record).expect("the archive is whole"));
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "{elapsed:?} for a byte-at-a-time megabyte");
    assert_eq!((reader.records_read(), updates), (9, 4));
    assert_eq!(reader.bytes_consumed(), archive.len() as u64);
    assert_eq!(reader.bytes_pending(), 0);
}

// ---- the live line protocol ------------------------------------------------

/// The query side of a daemon over no archives: it has no events, so
/// every reply is one line.
fn idle_runner() -> QueryRunner {
    let topology = TopologyBuilder::new(TopologyConfig::tiny(3)).build();
    let refdata =
        Arc::new(ReferenceData::build(&topology, &deploy(&topology, &CollectorConfig::tiny(3))));
    let builder = SessionBuilder::new(Arc::new(BlackholeDictionary::default()), refdata.clone());
    let pipeline =
        AnalyticsPipeline::new(refdata, AnalyticsConfig::window(SimTime::ZERO, SimTime::ZERO));
    LiveFleet::new(builder, pipeline, &[], SimTime::ZERO, LiveFleetConfig::default()).query_runner()
}

/// Serve `input` and return the reply lines; the connection must end
/// without an error.
fn serve(runner: &QueryRunner, input: impl Read) -> Vec<String> {
    let mut out = Vec::new();
    serve_connection(runner, BufReader::new(input), &mut out).expect("in-memory serve");
    let out = String::from_utf8(out).expect("replies are UTF-8");
    assert!(out.is_empty() || out.ends_with('\n'), "a reply is unterminated: {out:?}");
    out.lines().map(str::to_owned).collect()
}

/// The replies `script` is owed: one per line (a last line without its
/// newline included) up to and including the first `quit`.
fn owed_replies(script: &[u8]) -> (usize, bool) {
    let mut lines: Vec<&[u8]> = script.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|last| last.is_empty()) {
        lines.pop();
    }
    let quit = lines
        .iter()
        .position(|line| std::str::from_utf8(line).is_ok_and(|text| text.trim() == "quit"));
    match quit {
        Some(at) => (at + 1, true),
        None => (lines.len(), false),
    }
}

/// Every line of `script` got exactly one `ok`/`err` reply, ending in
/// `ok bye` when the script says `quit`.
fn check_protocol(case: &str, runner: &QueryRunner, script: &[u8]) {
    let replies = catch_unwind(AssertUnwindSafe(|| serve(runner, script)))
        .unwrap_or_else(|_| panic!("{case}: serving panicked"));
    let (owed, quits) = owed_replies(script);
    assert_eq!(replies.len(), owed, "{case}: {replies:?}");
    for reply in &replies {
        assert!(reply.starts_with("ok ") || reply.starts_with("err "), "{case}: {reply:?}");
    }
    assert_eq!(replies.last().map(String::as_str) == Some("ok bye"), quits, "{case}: {replies:?}");
}

/// A valid session: every command, one wrong argument, then `quit`.
const SCRIPT: &[u8] = b"status\nreport\nevents-since 0\nevents-since x\nstatus\r\nquit\n";

#[test]
fn an_endless_line_is_refused_and_the_connection_keeps_serving() {
    let runner = idle_runner();
    let endless = io::repeat(b'a').take(64 << 20);
    let replies = serve(&runner, endless.chain(&b"\nstatus\nquit\n"[..]));
    let lengths: Vec<usize> = replies.iter().map(String::len).collect();
    assert_eq!(lengths.len(), 3, "reply lengths {lengths:?}");
    assert!(replies[0] == "err line too long", "reply lengths {lengths:?}");
    assert!(replies[1].starts_with("ok status elems=0 "), "{}", replies[1]);
    assert_eq!(replies[2], "ok bye");

    // At the cap a line is still a command; one byte over, it is not.
    let mut at_cap = b"status".to_vec();
    at_cap.resize(MAX_LINE_BYTES, b' ');
    let mut over = at_cap.clone();
    over.push(b' ');
    let script = [&at_cap[..], b"\r\n", &over, b"\nquit"].concat();
    let replies = serve(&runner, &script[..]);
    assert!(replies[0].starts_with("ok status "), "{}", replies[0]);
    assert_eq!(replies[1..], ["err line too long", "ok bye"]);
}

#[test]
fn bytes_that_are_not_utf8_get_an_error_reply() {
    let runner = idle_runner();
    let replies = serve(&runner, &b"stat\xffus\n\xc3\nstatus\nquit\n"[..]);
    assert_eq!(replies[..2], ["err not utf-8", "err not utf-8"]);
    assert!(replies[2].starts_with("ok status "), "{}", replies[2]);
    assert_eq!(replies[3], "ok bye");
}

#[test]
fn nul_cr_and_empty_lines_each_get_one_reply() {
    let runner = idle_runner();
    let script = b"\0\n\r\n\n\rstatus\nstatus\0\n \t \nstatus\r\n\r\r\nquit\r\n";
    check_protocol("control bytes", &runner, script);
    let replies = serve(&runner, &script[..]);
    assert_eq!(replies[1..3], ["err empty command", "err empty command"]);
    assert!(replies[6].starts_with("ok status "), "{}", replies[6]);
}

#[test]
fn command_script_cuts_and_bit_flips() {
    let runner = idle_runner();
    check_protocol("script", &runner, SCRIPT);
    for cut in 0..SCRIPT.len() {
        check_protocol(&format!("cut at {cut}"), &runner, &SCRIPT[..cut]);
    }
    let mut next = seeded(0x11E5);
    for case in 0..1500 {
        check_protocol(&format!("flip case {case}"), &runner, &flip_bits(SCRIPT, &mut next));
    }
}
