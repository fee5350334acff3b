//! Duration and grouping shapes (Fig. 8) on a generated scenario, checked
//! against ground truth.

use bh_bench::{Observed, Study, StudyRun, StudyScale};
use bh_bgp_types::time::{SimDuration, SimTime};

/// The run and what its collectors saw.
fn observed_run(study: &Study, days: u64, rate: f64) -> (StudyRun, Observed) {
    let run = study.visibility_run(days, rate);
    let observed = study.observe(&run).expect("archives decode");
    (run, observed)
}

#[test]
fn grouping_collapses_probing_pulses() {
    let study = Study::build(StudyScale::Tiny, 41);
    // The run's report groups at the paper's 5-minute timeout.
    let (StudyRun { output, .. }, Observed { events, report, .. }) = observed_run(&study, 4, 8.0);
    let periods = report.periods;
    assert!(periods.len() <= events.len(), "grouping must never create periods");
    // The probing pattern dominates the reaction model, so grouping must
    // shrink the count substantially when multi-phase truths exist.
    let multi_phase_truths = output.ground_truth.iter().filter(|t| t.phases.len() > 1).count();
    if multi_phase_truths > 5 {
        assert!(
            periods.len() < events.len(),
            "{} periods from {} events with {} multi-phase truths",
            periods.len(),
            events.len(),
            multi_phase_truths
        );
    }

    // Every period's span covers its constituent events.
    for p in &periods {
        for e in events.iter().filter(|e| e.prefix == p.prefix) {
            if e.start >= p.start {
                if let (Some(pe), Some(ee)) = (p.end, e.end) {
                    if e.start <= pe {
                        assert!(ee <= pe, "event escapes its period");
                    }
                }
            }
        }
    }
}

#[test]
fn ungrouped_durations_reflect_probing_pulse_lengths() {
    let study = Study::build(StudyScale::Tiny, 43);
    let (StudyRun { output, .. }, Observed { events, .. }) = observed_run(&study, 4, 8.0);
    let now = SimTime::from_unix(u64::MAX / 2);

    // Ground truth pulse lengths are 20–100s; inferred closed events for
    // multi-phase prefixes should be in that ballpark (within BGP-echo
    // tolerance of a few minutes for correlated closes).
    let probing_prefixes: std::collections::BTreeSet<_> =
        output.ground_truth.iter().filter(|t| t.phases.len() > 2).map(|t| t.prefix).collect();
    let mut short = 0usize;
    let mut total = 0usize;
    for e in &events {
        if !probing_prefixes.contains(&e.prefix) || e.end.is_none() {
            continue;
        }
        total += 1;
        if e.duration(now) <= SimDuration::mins(3) {
            short += 1;
        }
    }
    if total >= 10 {
        assert!(short * 3 >= total * 2, "only {short}/{total} probing events are short");
    }
}

#[test]
fn grouped_period_counts_match_ground_truth_reactions() {
    let study = Study::build(StudyScale::Tiny, 47);
    let (StudyRun { output, .. }, Observed { report, .. }) = observed_run(&study, 3, 6.0);
    let periods = report.periods;

    // Each visible ground-truth reaction (prefix) produces at least one
    // period and no more periods than distinct reactions + 1 (reactions
    // to the same prefix hours apart stay distinct periods).
    let mut truth_reactions: std::collections::BTreeMap<_, usize> = Default::default();
    for t in &output.ground_truth {
        *truth_reactions.entry(t.prefix).or_default() += 1;
    }
    for p in &periods {
        let reactions = truth_reactions.get(&p.prefix).copied().unwrap_or(0);
        assert!(reactions > 0, "period without ground truth: {}", p.prefix);
    }
}
