//! Regenerate every table and figure of the paper from one shared world,
//! check the paper's claims against it, and print the report that is
//! committed as `EXPERIMENTS.md`. Exits non-zero on a broken claim.
//!
//! ```text
//! cargo run --release -p bh-examples --example reproduce > EXPERIMENTS.md
//! ```

use bh_bench::reproduce::{evaluate, registry, Verdict, World};

fn main() {
    let world = World::build().expect("the collectors' archives write and decode");
    let evaluation = evaluate(&world, &registry());
    print!("{}", evaluation.markdown);
    for (section, claim, _) in evaluation.verdicts.iter().filter(|(.., v)| *v == Verdict::Broken) {
        eprintln!("broken: {section}: {claim}");
    }
    if evaluation.count(Verdict::Broken) > 0 {
        std::process::exit(1);
    }
}
