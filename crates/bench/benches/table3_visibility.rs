//! Table 3 — blackhole visibility per dataset.
//!
//! Runs the visibility-window scenario, infers events, and tabulates
//! per-platform providers/users/prefixes with unique counts and
//! direct-feed fractions.

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{count, pct, Table};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{EventAccumulator, InferenceResult, VisibilityAccumulator};

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { output, result, refdata, report, .. } = study.visibility_run(10, 8.0);

    let rows = &report.table3;
    let mut table = Table::new(
        "Table 3: Blackhole dataset overview (IPv4)",
        &[
            "Source",
            "#Bh providers",
            "#Unique",
            "#Bh users",
            "#Unique",
            "#Bh prefixes",
            "#Unique",
            "Direct feeds",
        ],
    );
    for row in rows {
        table.row(vec![
            row.source.clone(),
            count(row.providers),
            count(row.unique_providers),
            count(row.users),
            count(row.unique_users),
            count(row.prefixes),
            count(row.unique_prefixes),
            pct(row.direct_feed_fraction),
        ]);
    }
    println!("{}", table.render());

    let cdn = rows.iter().find(|r| r.source == "CDN").expect("CDN row");
    let ris = rows.iter().find(|r| r.source == "RIS").expect("RIS row");
    let pch = rows.iter().find(|r| r.source == "PCH").expect("PCH row");
    println!(
        "shape: CDN providers {} >= RIS providers {} -> {} (paper: CDN observes most providers)",
        cdn.providers,
        ris.providers,
        cdn.providers >= ris.providers
    );
    println!(
        "shape: PCH direct-feed {} >= RIS direct-feed {} -> {} (paper: 43.6% vs 4.42%)",
        pct(pch.direct_feed_fraction),
        pct(ris.direct_feed_fraction),
        pch.direct_feed_fraction >= ris.direct_feed_fraction
    );
    println!(
        "ground truth: {} reactions, {} inferred events\n",
        output.ground_truth.len(),
        result.events.len()
    );

    // Fold the session's visibility map through the mergeable
    // accumulator (what the streaming pipeline does inline).
    let table = |result: &InferenceResult| {
        let mut acc = VisibilityAccumulator::new(refdata.clone());
        acc.observe_visibility(&result.per_dataset);
        acc.finalize()
    };
    c.bench_function("table3/inference_plus_table", |b| {
        b.iter(|| table(&study.infer(&refdata, &output.elems)))
    });
    c.bench_function("table3/accumulator", |b| b.iter(|| table(&result)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
