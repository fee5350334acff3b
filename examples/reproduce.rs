//! Regenerate every table and figure of the paper from one shared world,
//! check the paper's claims against it, and print the report that is
//! committed as `EXPERIMENTS.md`. Exits non-zero on a broken claim. The
//! run's peak resident set goes to stderr, so the report is unchanged.
//!
//! ```text
//! cargo run --release -p bh-examples --example reproduce > EXPERIMENTS.md
//! ```

use bh_bench::reproduce::{evaluate, registry, Verdict, World};

fn main() {
    let world = World::build().expect("the collectors' archives write and decode");
    let evaluation = evaluate(&world, &registry());
    print!("{}", evaluation.markdown);
    if let Some(kb) = peak_rss_kb() {
        eprintln!("reproduce: {} MB peak RSS", kb / 1024);
    }
    for (section, claim, _) in evaluation.verdicts.iter().filter(|(.., v)| *v == Verdict::Broken) {
        eprintln!("broken: {section}: {claim}");
    }
    if evaluation.count(Verdict::Broken) > 0 {
        std::process::exit(1);
    }
}

/// `VmHWM` of `/proc/self/status`, in kB: `None` where the kernel does
/// not report it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}
