//! Fig. 6 — blackholing providers and users per country.

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::Table;
use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{CountryAccumulator, EventAccumulator};

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { result, refdata, report, .. } = study.visibility_run(10, 8.0);

    let top = |map: &std::collections::BTreeMap<&'static str, usize>| -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = map.iter().map(|(c, n)| (c.to_string(), *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(8);
        v
    };
    let top_providers = top(&report.provider_countries);
    let top_users = top(&report.user_countries);

    let mut table = Table::new(
        "Fig 6: top countries (providers | users)",
        &["Rank", "Provider country", "#", "User country", "#"],
    );
    for i in 0..top_providers.len().max(top_users.len()) {
        table.row(vec![
            (i + 1).to_string(),
            top_providers.get(i).map(|(c, _)| c.clone()).unwrap_or_default(),
            top_providers.get(i).map(|(_, n)| n.to_string()).unwrap_or_default(),
            top_users.get(i).map(|(c, _)| c.clone()).unwrap_or_default(),
            top_users.get(i).map(|(_, n)| n.to_string()).unwrap_or_default(),
        ]);
    }
    println!("{}", table.render());

    let top3_providers: Vec<&str> = top_providers.iter().take(3).map(|(c, _)| c.as_str()).collect();
    let top5_users: Vec<&str> = top_users.iter().take(5).map(|(c, _)| c.as_str()).collect();
    println!(
        "shape: provider top-3 {:?} should be a subset of {{RU,US,DE,GB,NL}} (paper: RU,US,DE lead)",
        top3_providers
    );
    println!(
        "shape: user top-5 {:?} should draw from {{RU,US,DE,BR,UA,PL}} (paper adds BR and UA)\n",
        top5_users
    );

    c.bench_function("fig6/per_country", |b| {
        b.iter(|| CountryAccumulator::new(refdata.clone()).fold(&result.events))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
