//! Adversarial workloads scored against simulator-side ground truth:
//! the question the original study could never answer — what does the
//! inference get *wrong*, and why?
//!
//! ```text
//! cargo run --release -p bh-examples --example adversarial_scenarios
//! ```
//!
//! Runs five labelled workloads end to end (simulate → infer → score):
//! the cooperative baseline, stolen-community subprefix hijacks,
//! leak-shaped tagged routes over misbehaving transits, prepend-based
//! re-routing as a negative control, and an ROV deployment sweep over
//! strict ROAs, then prints each confusion report.

use bh_bench::{AdversarialRun, Study, StudyScale};
use bh_examples::section;
use bh_routing::RejectReason;
use bh_workloads::AdversarialConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let study = Study::build(StudyScale::Tiny, 1234);
    let days = 4;
    let rate = 4.0;

    section("cooperative baseline (expect: perfect)");
    let run = study.adversarial_run(&AdversarialConfig::baseline(41, days, rate))?;
    println!("{}", run.observed.report);

    section("subprefix hijacks with stolen trigger communities");
    let run = study.adversarial_run(&AdversarialConfig::subprefix_hijack(42, days, rate))?;
    println!("{}", run.observed.report);

    section("route leaks: too-coarse tagged routes, leaker transits");
    let config = AdversarialConfig::route_leak(&study.topology, 43, days, rate);
    let run = study.adversarial_run(&config)?;
    println!("{}", run.observed.report);
    println!(
        "  simulator: {} exports forced past valley-free, {} triggers length-rejected",
        run.output.run_stats.exports_forced,
        run.output.run_stats.trigger_rejects.get(&RejectReason::LengthRejected).unwrap_or(&0),
    );

    section("prepend re-routing (negative control, expect: silent)");
    let run = study.adversarial_run(&AdversarialConfig::prepend_reroute(44, days, rate))?;
    println!("{}", run.observed.report);

    section("ROV deployment sweep under strict ROAs");
    println!(
        "{:>9} {:>9} {:>9} {:>7} {:>12}",
        "fraction", "expected", "detected", "recall", "rov-rejects"
    );
    for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let config = AdversarialConfig::rov_sweep(&study.topology, 45, days, rate, fraction);
        let AdversarialRun { output, observed, .. } = study.adversarial_run(&config)?;
        let report = observed.report;
        println!(
            "{fraction:>9.2} {:>9} {:>9} {:>7.3} {:>12}",
            report.expected,
            report.detected_events,
            report.recall(),
            output.run_stats.import_rejects_for(RejectReason::RovInvalid),
        );
    }
    println!("\nstrict ROAs pin max_length to the allocation: every /32 RTBH route");
    println!("is RPKI-Invalid at a deploying AS, so ROV eats blackhole visibility.");
    Ok(())
}
