//! Quickstart: the whole pipeline in one screen.
//!
//! ```text
//! cargo run --release -p bh-examples --example quickstart
//! ```
//!
//! Builds a synthetic Internet, mines the blackhole-community dictionary
//! from its IRR/web corpus, simulates one week of DDoS attacks and
//! operator reactions, writes what each collector saw as an MRT archive,
//! runs the inference engine over the archives' merged stream, and
//! prints the headline numbers.

use bh_analysis::{pct, Table};
use bh_bench::{Observed, Study, StudyScale};
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
    let run = study.visibility_run(7, 10.0);
    let output = &run.output;
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

    section("3. inference over the collectors' MRT archives");
    let Observed { events, summary, report } =
        study.observe(&run).expect("archives write and decode");
    println!(
        "events: {} inferred ({} via community bundling, {} ambiguous skipped)",
        events.len(),
        summary.stats.bundled_detections,
        summary.stats.ambiguous_unresolved
    );

    section("4. visibility (Table 3 shape)");
    // The observation's report, computed by the one-pass accumulators as
    // events closed.
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
