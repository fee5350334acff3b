//! Metamorphic relations: a change to the input that must not change the
//! output.
//!
//! R1, an archive cut. A collector's updates archive cut at a record
//! boundary into two archives of the same `(dataset, collector)` is the
//! same stream: `MergedSource` breaks time ties by source index, and the
//! first part comes first. So the merged elems, the session's
//! `StreamSummary` and events, the `AnalyticsPipeline` report and the
//! naive transcription of §4.2 (`bh_integration::oracle`) over the merged
//! elems must all equal the uncut run's. Every archive of a study run is
//! cut at once, at its start, at its end and at a seeded record boundary
//! (`common::record_spans`): on a Tiny run, and on the Small world in
//! release.
//!
//! R7, prefix locality. All §4.2 inference state is keyed by prefix: the
//! per-(prefix, peer) machines and the open-event table. So splitting a
//! run's merged elems by a prefix key into k parts (k = 2..=8, a hash
//! written here, in stream order within each part) and inferring each
//! part with its own session changes nothing: the parts' events, in
//! `canonical_order`, are the whole run's events; every `EngineStats`
//! counter summed over the parts is the whole run's; the per-dataset
//! visibility unioned with `DatasetVisibility::merge` is the whole
//! run's. Same runs as R1.

mod common;

use std::collections::BTreeMap;

use bytes::Bytes;

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_core::{
    canonical_order, AnalyticsReport, BlackholeEvent, DatasetVisibility, EngineConfig, EngineStats,
    EventAccumulator, ReferenceData, StreamSummary,
};
use bh_integration::oracle::{Oracle, OracleOutput};
use bh_irr::BlackholeDictionary;
use bh_routing::{BgpElem, DataSource, ElemSource, MergedSource, MrtElemSource};
use bh_workloads::CollectorArchive;

/// What one merged stream of archives yields, end to end.
struct Run {
    elems: Vec<BgpElem>,
    events: Vec<BlackholeEvent>,
    summary: StreamSummary,
    report: AnalyticsReport,
}

/// Merge `parts` — each a `(dataset, collector)` and its bytes, in
/// archive order — and infer over the merge with one session, feeding
/// the events and the run's analytics pipeline as they close.
fn observe(study: &Study, run: &StudyRun, parts: &[(&CollectorArchive, Bytes)]) -> Run {
    let sources = parts
        .iter()
        .map(|(a, bytes)| MrtElemSource::from_bytes(bytes.clone(), a.dataset, a.collector))
        .collect();
    let mut merged = MergedSource::new(sources);
    let mut session = study.session(&run.refdata).build();
    let mut accumulators = (Vec::new(), study.analytics_pipeline(&run.refdata, run.analytics));
    let mut elems = Vec::new();
    while let Some(elem) = merged.next_owned() {
        session.push(&elem);
        session.drain_closed_into(&mut accumulators);
        elems.push(elem);
    }
    let summary = session.finish_with(&mut accumulators);
    let (mut events, report) = accumulators.finalize();
    canonical_order(&mut events);
    Run { elems, events, summary, report }
}

/// Each archive whole: the uncut run.
fn whole(archives: &[CollectorArchive]) -> Vec<(&CollectorArchive, Bytes)> {
    archives.iter().map(|a| (a, a.bytes.clone())).collect()
}

/// Each archive as two parts, split at the byte offset `cut` picks from
/// its record boundaries (the start of each record, then the end).
fn cut_each(
    archives: &[CollectorArchive],
    mut cut: impl FnMut(&[usize]) -> usize,
) -> Vec<(&CollectorArchive, Bytes)> {
    let mut parts = Vec::new();
    for a in archives {
        let mut boundaries: Vec<usize> =
            common::record_spans(&a.bytes).into_iter().map(|(_, span)| span.start).collect();
        boundaries.push(a.bytes.len());
        let at = cut(&boundaries);
        parts.push((a, a.bytes.slice(..at)));
        parts.push((a, a.bytes.slice(at..)));
    }
    parts
}

/// SplitMix64: a fixed stream, so a failure names a reproducible cut.
fn seeded(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn oracle(dict: &BlackholeDictionary, refdata: &ReferenceData, elems: &[BgpElem]) -> OracleOutput {
    Oracle { dict, refdata, config: EngineConfig::default(), controls: None }.infer(elems)
}

fn assert_cuts_change_nothing(study: &Study, run: &StudyRun) {
    let archives = run.output.fleet_archives().expect("archives serialize");
    assert!(archives.len() >= 2, "need a real fleet");
    let uncut = observe(study, run, &whole(&archives));
    assert!(!uncut.events.is_empty(), "degenerate run: nothing inferred");
    let want = oracle(&study.dict, &run.refdata, &uncut.elems);

    let mut next = seeded(0xC075);
    let seeded_cut = cut_each(&archives, |b| b[(next() % b.len() as u64) as usize]);
    let inside = seeded_cut.chunks(2).filter(|p| !p[0].1.is_empty() && !p[1].1.is_empty());
    assert!(inside.count() > 0, "every seeded cut fell at an archive end");
    let cuts = [
        ("at the start", cut_each(&archives, |b| b[0])),
        ("at the end", cut_each(&archives, |b| b[b.len() - 1])),
        ("at a seeded boundary", seeded_cut),
    ];
    for (name, parts) in cuts {
        let cut = observe(study, run, &parts);
        assert_eq!(cut.elems, uncut.elems, "{name}: the merged elems");
        assert_eq!(cut.events, uncut.events, "{name}: events");
        assert_eq!(cut.summary, uncut.summary, "{name}: stream summary");
        assert_eq!(cut.report, uncut.report, "{name}: report");
        let got = oracle(&study.dict, &run.refdata, &cut.elems);
        assert_eq!(got.events, want.events, "{name}: oracle events");
        assert_eq!(got.stats, want.stats, "{name}: oracle counters");
        assert_eq!(got.census, want.census, "{name}: oracle census");
        assert_eq!(got.per_dataset, want.per_dataset, "{name}: oracle visibility");
    }
}

#[test]
fn an_archive_cut_at_a_record_boundary_changes_nothing_on_a_tiny_run() {
    let study = Study::build(StudyScale::Tiny, 7);
    assert_cuts_change_nothing(&study, &study.visibility_run(3, 6.0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the Small world takes minutes unoptimized")]
fn an_archive_cut_at_a_record_boundary_changes_nothing_on_the_small_world() {
    let study = Study::build(StudyScale::Small, 42);
    assert_cuts_change_nothing(&study, &study.visibility_run(10, 8.0));
}

/// R7's part of a prefix: a SplitMix64 finalizer over its bits and
/// length, so prefixes sharing a covering block land in different parts.
fn part_of(prefix: &Ipv4Prefix, parts: u64) -> usize {
    let key = (u64::from(prefix.network_bits()) << 8) | u64::from(prefix.length());
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % parts) as usize
}

/// Counters summed field by field; the destructuring names every field,
/// so a new counter does not compile until it is summed here too.
fn sum_stats(parts: impl IntoIterator<Item = EngineStats>) -> EngineStats {
    let mut sum = EngineStats::default();
    for EngineStats {
        elems,
        tagged_announcements,
        cleaned,
        ambiguous_unresolved,
        implicit_withdrawals,
        explicit_withdrawals,
        bundled_detections,
        control_suppressed,
    } in parts
    {
        sum.elems += elems;
        sum.tagged_announcements += tagged_announcements;
        sum.cleaned += cleaned;
        sum.ambiguous_unresolved += ambiguous_unresolved;
        sum.implicit_withdrawals += implicit_withdrawals;
        sum.explicit_withdrawals += explicit_withdrawals;
        sum.bundled_detections += bundled_detections;
        sum.control_suppressed += control_suppressed;
    }
    sum
}

fn assert_prefix_parts_change_nothing(study: &Study, run: &StudyRun) {
    let archives = run.output.fleet_archives().expect("archives serialize");
    let whole = observe(study, run, &whole(&archives));
    assert!(!whole.events.is_empty(), "degenerate run: nothing inferred");
    for k in 2..=8u64 {
        let mut parts: Vec<Vec<&BgpElem>> = vec![Vec::new(); k as usize];
        for elem in &whole.elems {
            parts[part_of(&elem.prefix, k)].push(elem);
        }
        assert!(parts.iter().all(|p| !p.is_empty()), "{k} parts: an empty part");
        let mut events = Vec::new();
        let mut stats = Vec::new();
        let mut per_dataset: BTreeMap<DataSource, DatasetVisibility> = BTreeMap::new();
        for part in parts {
            let mut session = study.session(&run.refdata).build();
            for elem in part {
                session.push(elem);
            }
            let result = session.finish();
            events.extend(result.events);
            stats.push(result.stats);
            for (dataset, vis) in &result.per_dataset {
                per_dataset.entry(*dataset).or_default().merge(vis);
            }
        }
        canonical_order(&mut events);
        assert_eq!(events, whole.events, "{k} parts: events");
        assert_eq!(sum_stats(stats), whole.summary.stats, "{k} parts: counters");
        assert_eq!(per_dataset, whole.summary.per_dataset, "{k} parts: visibility");
    }
}

#[test]
fn inference_split_by_prefix_changes_nothing_on_a_tiny_run() {
    let study = Study::build(StudyScale::Tiny, 7);
    assert_prefix_parts_change_nothing(&study, &study.visibility_run(3, 6.0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the Small world takes minutes unoptimized")]
fn inference_split_by_prefix_changes_nothing_on_the_small_world() {
    let study = Study::build(StudyScale::Small, 42);
    assert_prefix_parts_change_nothing(&study, &study.visibility_run(10, 8.0));
}
