//! §8 — malicious activity of blackholed IPs (daily prober/scanner
//! matches against the CDN security feeds).

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::Table;
use bh_bench::{Study, StudyRun, StudyScale};
use bh_dataplane::reputation_feed;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { report, .. } = study.visibility_run(8, 6.0);
    // The blackholed-prefix census from the one-pass accumulator.
    let blackholed = report.blackholed_prefixes.len();

    // Scale the feed the way the paper's population scales (20K prefixes
    // in March 2017 → 400–900 daily matches).
    let feed = reputation_feed(0x5EC8, 14, 20_000);
    let mut table = Table::new(
        "Sec 8: daily suspicious-activity matches among blackholed IPs",
        &["Day", "Probers", "Scanners", "Both", "Login attempts"],
    );
    for day in &feed {
        table.row(vec![
            day.day.to_string(),
            day.probers.to_string(),
            day.scanners.to_string(),
            day.both.to_string(),
            day.login_attempts.to_string(),
        ]);
    }
    println!("{}", table.render());

    let mean_matches: f64 =
        feed.iter().map(|d| (d.probers + d.scanners - d.both) as f64).sum::<f64>()
            / feed.len() as f64;
    let prober_share: f64 = feed
        .iter()
        .map(|d| d.probers as f64 / (d.probers + d.scanners - d.both) as f64)
        .sum::<f64>()
        / feed.len() as f64;
    println!(
        "shape: mean daily matches {:.0} in [400,900]; prober share {:.0}% (paper: >90%)",
        mean_matches,
        prober_share * 100.0
    );
    println!(
        "context: this run blackholed {blackholed} distinct prefixes (the paper's union of \
         suspicious IPs covers ~2% of blackholed prefixes)\n"
    );

    c.bench_function("sec8/feed_generation", |b| b.iter(|| reputation_feed(0x5EC8, 240, 20_000)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
