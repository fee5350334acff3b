//! Fig. 7(b) — number of blackholing providers per blackholing event.

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{pct, Table};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{EventAccumulator, ProvidersPerEventAccumulator};

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { result, report, .. } = study.visibility_run(10, 8.0);

    let hist = &report.providers_per_event;
    let total: usize = hist.values().sum();
    let mut table =
        Table::new("Fig 7b: #blackholing providers per event", &["#Providers", "#Events", "Share"]);
    for (k, n) in hist {
        table.row(vec![k.to_string(), n.to_string(), pct(*n as f64 / total.max(1) as f64)]);
    }
    println!("{}", table.render());

    let multi: usize = hist.iter().filter(|(k, _)| **k > 1).map(|(_, n)| n).sum();
    let max_providers = hist.keys().max().copied().unwrap_or(0);
    println!(
        "shape: multi-provider events {} (paper: 28%); max providers in one event: {} \
         (paper: 20)\n",
        pct(multi as f64 / total.max(1) as f64),
        max_providers
    );

    c.bench_function("fig7b/histogram", |b| {
        b.iter(|| ProvidersPerEventAccumulator::default().fold(&result.events))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
