//! Fig. 5 — CDFs of blackholed-prefix counts per provider (transit vs
//! IXP) and per user type.

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{render_series, Ecdf, Series};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{EventAccumulator, ProviderPrefixAccumulator, UserPrefixAccumulator};
use bh_topology::NetworkType;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { result, refdata, report, .. } = study.visibility_run(10, 8.0);

    // Fig. 5(a): per-provider counts, transit/access vs IXP.
    let per_provider = &report.prefixes_per_provider;
    let transit: Vec<f64> = per_provider
        .iter()
        .filter(|(_, ty, _)| *ty == NetworkType::TransitAccess)
        .map(|(_, _, n)| *n as f64)
        .collect();
    let ixp: Vec<f64> = per_provider
        .iter()
        .filter(|(_, ty, _)| *ty == NetworkType::Ixp)
        .map(|(_, _, n)| *n as f64)
        .collect();
    let transit_cdf = Ecdf::new(transit.clone());
    let ixp_cdf = Ecdf::new(ixp);
    // The mergeable ECDF form: incremental pushes build the same CDF.
    let mut incremental = Ecdf::empty();
    for v in &transit {
        incremental.push(*v);
    }
    assert_eq!(incremental.points(), transit_cdf.points());
    println!(
        "{}",
        render_series(
            "Fig 5a: CDF of #blackholed prefixes per provider",
            &[
                Series::new("transit/access", transit_cdf.points()),
                Series::new("ixp", ixp_cdf.points()),
            ],
        )
    );
    if !transit_cdf.is_empty() && !ixp_cdf.is_empty() {
        println!(
            "shape: providers with exactly 1 prefix: transit {:.0}% vs IXP {:.0}% \
             (paper: 15% vs ~20% — IXP CDF more extreme at the low end)",
            transit_cdf.fraction_le(1.0) * 100.0,
            ixp_cdf.fraction_le(1.0) * 100.0
        );
        println!(
            "shape: max prefixes: transit {} vs IXP {} (paper: both heavy-tailed)",
            transit_cdf.max().unwrap_or(0.0),
            ixp_cdf.max().unwrap_or(0.0)
        );
    }

    // Fig. 5(b): per-user counts, split by user type.
    let per_user = &report.prefixes_per_user;
    let mut series = Vec::new();
    let mut content_prefixes = 0usize;
    let mut total_prefixes = 0usize;
    let mut content_users = 0usize;
    for ty in [NetworkType::Content, NetworkType::TransitAccess, NetworkType::Enterprise] {
        let values: Vec<f64> =
            per_user.iter().filter(|(_, t, _)| *t == ty).map(|(_, _, n)| *n as f64).collect();
        if !values.is_empty() {
            series.push(Series::new(ty.label(), Ecdf::new(values).points()));
        }
    }
    for (_, ty, n) in per_user {
        total_prefixes += n;
        if *ty == NetworkType::Content {
            content_prefixes += n;
            content_users += 1;
        }
    }
    println!("{}", render_series("Fig 5b: CDF of #blackholed prefixes per user", &series));
    println!(
        "shape: content users {}/{} = {:.0}% of users originate {:.0}% of prefixes \
         (paper: 18% of users, 43% of prefixes)\n",
        content_users,
        per_user.len(),
        content_users as f64 / per_user.len().max(1) as f64 * 100.0,
        content_prefixes as f64 / total_prefixes.max(1) as f64 * 100.0
    );

    c.bench_function("fig5/per_provider_and_user", |b| {
        b.iter(|| {
            (
                ProviderPrefixAccumulator::new(refdata.clone()).fold(&result.events),
                UserPrefixAccumulator::new(refdata.clone()).fold(&result.events),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
