//! Streaming-session semantics on real scenario streams: incremental
//! draining, checkpoint/resume, and source-agnostic ingestion must all
//! be observationally identical to one-shot batch processing.

use std::collections::{BTreeMap, BTreeSet};

use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_core::{BlackholeEvent, InferenceResult};
use bh_routing::archive::write_updates;
use bh_routing::{BgpElem, DataSource, ElemSource, MrtElemSource, SliceSource};

/// Canonical comparison key: the full event payload.
fn sort_events(mut events: Vec<BlackholeEvent>) -> Vec<BlackholeEvent> {
    events.sort_by_key(|e| (e.start, e.prefix, e.end));
    events
}

#[test]
fn drain_closed_plus_finish_equals_batch() {
    let study = Study::build(StudyScale::Tiny, 71);
    let StudyRun { output, refdata, .. } = study.visibility_run(5, 8.0);
    let batch = study.infer(&refdata, &output.elems);
    assert!(!batch.events.is_empty());
    let open_in_batch = batch.events.iter().filter(|e| e.end.is_none()).count();

    // Stream the same elements, draining finished events every 512
    // elements — the constant-memory consumer pattern.
    let mut session = study.session(&refdata).build();
    let mut drained: Vec<BlackholeEvent> = Vec::new();
    let mut drain_rounds_with_events = 0;
    for (k, elem) in output.elems.iter().enumerate() {
        session.push(elem);
        if k % 512 == 511 {
            let batch = session.drain_closed();
            if !batch.is_empty() {
                drain_rounds_with_events += 1;
            }
            drained.extend(batch);
        }
    }
    let tail = session.finish();

    // Mid-stream draining must actually have handed events out (the
    // stream has thousands of closes), and the final result must hold
    // only the remainder.
    assert!(drain_rounds_with_events > 0, "no events were drained mid-stream");
    assert!(!drained.is_empty());
    assert_eq!(tail.events.iter().filter(|e| e.end.is_none()).count(), open_in_batch);

    // Union of drained + finish == the one-shot batch result, exactly.
    let mut combined = drained;
    combined.extend(tail.events.iter().cloned());
    assert_eq!(sort_events(combined), sort_events(batch.events.clone()));

    // Census/stats/visibility are unaffected by draining.
    assert_eq!(tail.census, batch.census);
    assert_eq!(tail.stats, batch.stats);
    assert_eq!(tail.per_dataset, batch.per_dataset);
}

#[test]
fn checkpoint_resume_mid_scenario_equals_one_shot() {
    let study = Study::build(StudyScale::Tiny, 73);
    let StudyRun { output, refdata, .. } = study.visibility_run(3, 6.0);
    let expected = study.infer(&refdata, &output.elems);

    let mid = output.elems.len() / 2;
    let mut first = study.session(&refdata).build();
    first.ingest(&mut SliceSource::new(&output.elems[..mid]));
    let checkpoint = first.checkpoint();
    drop(first);

    let mut resumed = study.session(&refdata).resume(checkpoint);
    resumed.ingest(&mut SliceSource::new(&output.elems[mid..]));
    assert_eq!(resumed.finish(), expected);
}

#[test]
fn mrt_streaming_source_feeds_inference_identically() {
    let study = Study::build(StudyScale::Tiny, 74);
    let StudyRun { output, refdata, .. } = study.visibility_run(3, 6.0);
    let live = study.infer(&refdata, &output.elems);

    // Write per-platform archives (the shape real archives come in),
    // then stream each back through a constant-memory MRT source into
    // one session — platform by platform, no materialized Vec<BgpElem>.
    let mut per_platform: Vec<InferenceResult> = Vec::new();
    let mut per_dataset: BTreeMap<DataSource, Vec<BgpElem>> = BTreeMap::new();
    for elem in &output.elems {
        per_dataset.entry(elem.dataset).or_default().push(elem.clone());
    }
    for (dataset, elems) in per_dataset {
        let mut archive = Vec::new();
        write_updates(&mut archive, &elems).expect("mrt write");
        let mut source = MrtElemSource::from_bytes(archive, dataset, 0);
        let mut session = study.session(&refdata).build();
        let n = session.ingest(&mut source);
        assert!(source.error().is_none(), "archive must stream cleanly");
        assert_eq!(n, elems.len() as u64, "every element streams through");
        per_platform.push(session.finish());
    }

    // Each platform alone sees a subset of the live events' prefixes.
    let live_prefixes: BTreeSet<Ipv4Prefix> = live.events.iter().map(|e| e.prefix).collect();
    let mut union: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    for result in &per_platform {
        for e in &result.events {
            union.insert(e.prefix);
        }
    }
    assert_eq!(union, live_prefixes, "platform-split streams must cover the live view");
}

#[test]
fn scenario_output_is_an_elem_source() {
    let study = Study::build(StudyScale::Tiny, 75);
    let StudyRun { output, refdata, .. } = study.visibility_run(2, 6.0);
    let expected = study.infer(&refdata, &output.elems);
    let mut session = study.session(&refdata).build();
    let mut source = SliceSource::new(&output.elems);
    assert_eq!(source.size_hint().0, output.elems.len());
    session.ingest(&mut source);
    assert_eq!(session.finish(), expected);
}
