//! Fig. 8 — blackholing durations: ungrouped events vs 5-minute-grouped
//! periods (CDF), histogram regimes, grouping-timeout sweep, and the
//! per-peer-state ablation (DESIGN.md ablations #2 and #3).

use criterion::{criterion_group, criterion_main, Criterion};

use bh_analysis::{pct, render_series, Ecdf, Histogram, Series};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_bgp_types::time::SimDuration;
use bh_core::{DurationAccumulator, EventAccumulator, PeriodAccumulator};
use bh_routing::SliceSource;

fn bench(c: &mut Criterion) {
    let study = Study::build(StudyScale::Small, 42);
    let StudyRun { output, result, refdata, analytics, report } = study.visibility_run(10, 8.0);
    let now = analytics.now;

    // Fig. 8(a): CDFs.
    let ungrouped: Vec<f64> = report.durations.iter().map(|d| d.as_mins_f64()).collect();
    let grouped: Vec<f64> = report.periods.iter().map(|p| p.duration(now).as_mins_f64()).collect();
    let ungrouped_cdf = Ecdf::new(ungrouped);
    let grouped_cdf = Ecdf::new(grouped);
    println!(
        "{}",
        render_series(
            "Fig 8a: CDF of blackholing durations (minutes)",
            &[
                Series::new("ungrouped events", ungrouped_cdf.points()),
                Series::new("grouped periods (5min)", grouped_cdf.points()),
            ],
        )
    );
    println!(
        "shape: ungrouped <=1min: {} (paper: >70%); grouped <=1min: {} (paper: ~4%)",
        pct(ungrouped_cdf.fraction_le(1.0)),
        pct(grouped_cdf.fraction_le(1.0))
    );
    println!(
        "shape: grouped >16h: {} (paper: ~30% of grouped are long)",
        pct(1.0 - grouped_cdf.fraction_le(16.0 * 60.0))
    );

    // Fig. 8(b): histogram regimes (hours, log bins).
    let mut hist = Histogram::logarithmic(1.0 / 60.0, 24.0 * 95.0, 16);
    hist.record_all(report.durations.iter().map(|d| d.as_hours_f64()));
    println!("# Fig 8b: duration histogram (hours, log bins)");
    for (lo, hi, count) in hist.bins() {
        if count > 0 {
            println!("{lo:.3}\t{hi:.3}\t{count}");
        }
    }
    println!();

    // Grouping-timeout sweep (ablation #3).
    for timeout_mins in [1u64, 5, 15, 60] {
        let periods = PeriodAccumulator::new(SimDuration::mins(timeout_mins)).fold(&result.events);
        println!(
            "sweep: timeout {timeout_mins:>2}min -> {} periods from {} events",
            periods.len(),
            result.events.len()
        );
    }

    // Per-peer-state ablation (ablation #2): collapsing peers shortens
    // events because the first de-activation closes them.
    let mut session = study.session(&refdata).per_peer_state(false).build();
    session.ingest(&mut SliceSource::new(&output.elems));
    let ablated = session.finish();
    let mean = |events: &[bh_core::BlackholeEvent]| -> f64 {
        let ds = DurationAccumulator::new(now).fold(events);
        if ds.is_empty() {
            0.0
        } else {
            ds.iter().map(|d| d.as_secs() as f64).sum::<f64>() / ds.len() as f64
        }
    };
    println!(
        "ablation: mean event duration with per-peer state {:.0}s vs without {:.0}s\n",
        mean(&result.events),
        mean(&ablated.events)
    );

    c.bench_function("fig8/period_accumulator", |b| {
        b.iter(|| PeriodAccumulator::new(SimDuration::mins(5)).fold(&result.events))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
