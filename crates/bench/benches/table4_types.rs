//! Table 4 — blackhole visibility by provider network type.

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{count, pct, Table};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{EventAccumulator, TypeAccumulator};
use bh_topology::NetworkType;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { result, refdata, report, .. } = study.visibility_run(10, 8.0);

    let rows = &report.table4;
    let mut table = Table::new(
        "Table 4: Blackhole visibility by provider type (IPv4)",
        &["Network Type", "#Bh prov.", "#Bh users", "#Bh pref.", "Direct feed"],
    );
    for row in rows {
        table.row(vec![
            row.network_type.label().to_string(),
            count(row.providers),
            count(row.users),
            count(row.prefixes),
            pct(row.direct_feed_fraction),
        ]);
    }
    println!("{}", table.render());

    let transit =
        rows.iter().find(|r| r.network_type == NetworkType::TransitAccess).expect("transit row");
    let ixp = rows.iter().find(|r| r.network_type == NetworkType::Ixp).expect("ixp row");
    let total_prefixes: usize = rows.iter().map(|r| r.prefixes).sum();
    println!(
        "shape: Transit/Access prefixes {}/{} = {} (paper: ~90%)",
        transit.prefixes,
        total_prefixes,
        pct(transit.prefixes as f64 / total_prefixes.max(1) as f64)
    );
    println!(
        "shape: IXPs direct-feed {} (paper: 100% — every observed IXP has a PCH session)",
        pct(ixp.direct_feed_fraction)
    );
    println!(
        "shape: IXP providers {} < transit providers {} but serve {} users (second place)\n",
        ixp.providers, transit.providers, ixp.users
    );

    c.bench_function("table4/compute", |b| {
        b.iter(|| TypeAccumulator::new(refdata.clone()).fold(&result.events))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
