//! The longitudinal story (Fig. 4): blackholing adoption from December
//! 2014 to March 2017 with the headline DDoS spikes.
//!
//! ```text
//! cargo run --release -p bh-examples --example ddos_timeline
//! ```

use bh_bench::{Observed, Study, StudyScale};
use bh_bgp_types::time::study as window;
use bh_examples::section;
use bh_workloads::SPIKES;

fn main() {
    section("simulating Dec 2014 - Mar 2017 (scaled)");
    let study = Study::build(StudyScale::Tiny, 11);
    let run = study.longitudinal_run(2.0);
    let Observed { events, report, .. } = study.observe(&run).expect("archives write and decode");
    println!(
        "{} ground-truth reactions, {} inferred events over {} days",
        run.output.ground_truth.len(),
        events.len(),
        run.output.days
    );

    section("monthly activity (mean per day)");
    // The observation's report carries the daily series, computed by the
    // one-pass accumulator.
    let series = &report.daily;
    println!("{:<9} {:>10} {:>8} {:>10}", "month", "providers", "users", "prefixes");
    let mut month_key = (0i64, 0u32);
    let mut acc = (0usize, 0usize, 0usize, 0usize);
    for p in series {
        let (y, m, _) = p.day.ymd();
        if (y, m) != month_key {
            if acc.3 > 0 {
                println!(
                    "{:04}-{:02}   {:>10.1} {:>8.1} {:>10.1}",
                    month_key.0,
                    month_key.1,
                    acc.0 as f64 / acc.3 as f64,
                    acc.1 as f64 / acc.3 as f64,
                    acc.2 as f64 / acc.3 as f64
                );
            }
            month_key = (y, m);
            acc = (0, 0, 0, 0);
        }
        acc = (acc.0 + p.providers, acc.1 + p.users, acc.2 + p.prefixes, acc.3 + 1);
    }

    section("the named spikes (Fig. 4c annotations)");
    for spike in SPIKES {
        let t = bh_bgp_types::time::SimTime::from_ymd(spike.year, spike.month, spike.day);
        let idx = (t.day_index() - window::longitudinal_start().day_index()) as usize;
        let (baseline, on_day) = if idx >= 7 && idx < series.len() {
            let b: f64 = series[idx - 7..idx].iter().map(|p| p.prefixes as f64).sum::<f64>() / 7.0;
            (b, series[idx].prefixes as f64)
        } else {
            (0.0, 0.0)
        };
        println!(
            "  ({}) {:04}-{:02}-{:02}  x{:>4.1}  {}",
            spike.label,
            spike.year,
            spike.month,
            spike.day,
            if baseline > 0.0 { on_day / baseline } else { 0.0 },
            spike.description
        );
    }
}
