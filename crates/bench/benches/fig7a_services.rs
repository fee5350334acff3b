//! Fig. 7(a) — services running on blackholed IPs (scans.io substitute).

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{pct, Table};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_dataplane::{service_histogram, ScanGenerator, Service};

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { report, .. } = study.visibility_run(10, 8.0);

    // The March-2017-style snapshot: all blackholed prefixes, from the
    // one-pass census accumulator.
    let prefixes: Vec<Ipv4Prefix> = report.blackholed_prefixes.iter().copied().collect();
    let mut generator = ScanGenerator::new(0xCA5);
    let profiles = generator.profile_all(&prefixes);
    let (hist, none) = service_histogram(&profiles);

    let mut table =
        Table::new("Fig 7a: services on blackholed prefixes", &["Service", "#Prefixes", "Share"]);
    for service in Service::ALL {
        let n = hist.get(&service).copied().unwrap_or(0);
        table.row(vec![
            service.label().to_string(),
            n.to_string(),
            pct(n as f64 / profiles.len().max(1) as f64),
        ]);
    }
    table.row(vec![
        "NONE".into(),
        none.to_string(),
        pct(none as f64 / profiles.len().max(1) as f64),
    ]);
    println!("{}", table.render());

    let http = hist.get(&Service::Http).copied().unwrap_or(0);
    println!(
        "shape: HTTP dominates with {} (paper: 53% of prefixes; >60% expose some service)",
        pct(http as f64 / profiles.len().max(1) as f64)
    );
    let responding = profiles.iter().filter(|p| p.http_responds).count();
    println!(
        "shape: HTTP GET response rate {} of HTTP hosts (paper: 61% vs ~90% baseline)",
        pct(responding as f64 / http.max(1) as f64)
    );
    let alexa = profiles.iter().filter(|p| p.alexa_domain.is_some()).count();
    println!(
        "shape: Alexa-top-1M hosting: {} prefixes = {} of HTTP hosts (paper: ~3%)\n",
        alexa,
        pct(alexa as f64 / http.max(1) as f64)
    );

    c.bench_function("fig7a/profile_and_histogram", |b| {
        b.iter(|| {
            let mut generator = ScanGenerator::new(0xCA5);
            let profiles = generator.profile_all(&prefixes);
            service_histogram(&profiles)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
