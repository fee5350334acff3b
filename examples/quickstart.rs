//! Quickstart: the whole pipeline in one screen.
//!
//! ```text
//! cargo run --release -p bh-examples --example quickstart
//! ```
//!
//! Builds a synthetic Internet, mines the blackhole-community dictionary
//! from its IRR/web corpus, simulates one week of DDoS attacks and
//! operator reactions, runs the inference engine over the collector
//! streams, and prints the headline numbers.

use bh_analysis::{pct, Table};
use bh_bench::{Study, StudyRun, StudyScale};
use bh_examples::section;

fn main() {
    section("1. build the Internet + mine the dictionary");
    let study = Study::build(StudyScale::Small, 7);
    println!(
        "topology: {} ASes, {} IXPs, {} ground-truth blackholing providers",
        study.topology.as_count(),
        study.topology.ixps().len(),
        study.topology.blackholing_providers().len()
    );
    let v = study.dict.validate_against(&study.topology);
    println!(
        "dictionary: {} communities for {} providers (precision {:.3}, recall {:.3})",
        study.dict.community_count(),
        study.dict.provider_count(),
        v.precision(),
        v.recall()
    );

    section("2. one week of attacks and reactions");
    let StudyRun { output, result, report, .. } = study.visibility_run(7, 10.0);
    println!(
        "scenario: {} announcements over {} days; {} ground-truth reactions",
        output.announcements,
        output.days,
        output.ground_truth.len()
    );
    println!(
        "collectors observed {} BGP elements across {} sessions",
        output.elems.len(),
        study.deployment().session_count()
    );

    section("3. inference");
    println!(
        "events: {} inferred ({} via community bundling, {} ambiguous skipped)",
        result.events.len(),
        result.stats.bundled_detections,
        result.stats.ambiguous_unresolved
    );

    section("4. visibility (Table 3 shape)");
    // Every run carries its report, computed by the one-pass accumulators.
    let mut table = Table::new(
        "per-platform blackholing visibility",
        &["Source", "Providers", "Users", "Prefixes", "Direct feeds"],
    );
    for row in &report.table3 {
        table.row(vec![
            row.source.clone(),
            row.providers.to_string(),
            row.users.to_string(),
            row.prefixes.to_string(),
            pct(row.direct_feed_fraction),
        ]);
    }
    println!("{}", table.render());
    println!("run `cargo bench` to regenerate every table and figure of the paper.");
}
