//! Fig. 7(c) — AS distance between collector and blackholing provider,
//! including the "no-path" bundling bucket, plus the bundling ablation
//! (DESIGN.md ablation #1).

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{pct, Table};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{DetectionDistance, DistanceAccumulator, EventAccumulator};
use bh_routing::SliceSource;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { output, result, refdata, report, .. } = study.visibility_run(10, 8.0);

    let hist = &report.distance_histogram;
    let total: usize = hist.values().sum();
    let mut table = Table::new(
        "Fig 7c: AS distance collector <-> blackholing provider",
        &["Distance", "#Detections", "Share"],
    );
    for (d, n) in hist {
        let label = match d {
            DetectionDistance::NoPath => "no-path (bundled)".to_string(),
            DetectionDistance::Hops(h) => format!("{h}"),
        };
        table.row(vec![label, n.to_string(), pct(*n as f64 / total.max(1) as f64)]);
    }
    println!("{}", table.render());

    let no_path = hist.get(&DetectionDistance::NoPath).copied().unwrap_or(0);
    let zero = hist.get(&DetectionDistance::Hops(0)).copied().unwrap_or(0);
    println!(
        "shape: no-path share {} (paper: ~50%); 0-distance share {} (paper: ~20%, \
         collector at the blackholing IXP)",
        pct(no_path as f64 / total.max(1) as f64),
        pct(zero as f64 / total.max(1) as f64)
    );

    // Ablation: disable bundling detection and compare event counts.
    let infer_no_bundling = || {
        let mut session = study.session(&refdata).bundling_detection(false).build();
        session.ingest(&mut SliceSource::new(&output.elems));
        session.finish()
    };
    let ablated = infer_no_bundling();
    println!(
        "ablation: events with bundling {} vs without {} -> bundling contributes {} \
         (paper: ~half of inferences)\n",
        result.events.len(),
        ablated.events.len(),
        pct(1.0 - ablated.events.len() as f64 / result.events.len().max(1) as f64)
    );

    c.bench_function("fig7c/distance_histogram", |b| {
        b.iter(|| DistanceAccumulator::default().fold(&result.events))
    });
    c.bench_function("fig7c/inference_no_bundling", |b| b.iter(infer_no_bundling));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
