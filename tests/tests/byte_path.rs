//! The byte path against the in-memory reference: `Study::observe` —
//! inference over the collectors' MRT archives (`fleet_archives` →
//! `fleet_of`, one time-ordered merge) — must equal `Study::infer` +
//! `observe_result` over the simulator's element `Vec` on events,
//! counters, census, per-dataset visibility and the analytics report; on
//! Tiny visibility runs at several seeds, on the adversarial catalog
//! (events, summary and confusion report) and, release-only, on the Small world
//! `reproduce` reads.

use bh_bench::{Study, StudyRun, StudyScale};
use bh_core::{ConfusionAccumulator, EventAccumulator};
use bh_workloads::AdversarialConfig;

fn assert_run_matches_reference(study: &Study, run: &StudyRun) {
    let observed = study.observe(run).expect("archives decode");

    let reference = study.infer(&run.refdata, &run.output.elems);
    let mut pipeline = study.analytics_pipeline(&run.refdata, run.analytics);
    pipeline.observe_result(&reference);
    assert!(!reference.events.is_empty(), "degenerate run: nothing inferred");
    assert_eq!(observed.events, reference.events);
    assert_eq!(observed.summary.stats, reference.stats);
    assert_eq!(observed.summary.census, reference.census);
    assert_eq!(observed.summary.per_dataset, reference.per_dataset);
    assert_eq!(observed.report, pipeline.finalize());
}

#[test]
fn byte_path_matches_the_reference_on_tiny_visibility_runs() {
    for seed in [1, 7, 11, 91] {
        let study = Study::build(StudyScale::Tiny, seed);
        assert_run_matches_reference(&study, &study.visibility_run(3, 6.0));
    }
}

#[test]
fn byte_path_matches_the_reference_on_the_adversarial_catalog() {
    let study = Study::build(StudyScale::Tiny, 1234);
    let topology = &study.topology;
    for config in [
        AdversarialConfig::baseline(41, 3, 4.0),
        AdversarialConfig::stolen_tag_hijack(46, 3, 4.0),
        AdversarialConfig::subprefix_hijack(42, 3, 4.0),
        AdversarialConfig::rov_sweep(topology, 45, 3, 4.0, 0.5),
        AdversarialConfig::prepend_reroute(44, 3, 4.0),
        AdversarialConfig::route_leak(topology, 43, 3, 4.0),
    ] {
        let run = study.adversarial_run(&config).expect("archives decode");

        let reference = study.infer(&run.refdata, &run.output.elems);
        let labels = run.output.labels.clone();
        let report = ConfusionAccumulator::new(config.name.clone(), labels).fold(&reference.events);
        assert_eq!(run.observed.events, reference.events, "{}", config.name);
        assert_eq!(run.observed.report, report, "{}", config.name);
        let summary = &run.observed.summary;
        assert_eq!(summary.stats, reference.stats, "{}", config.name);
        assert_eq!(summary.census, reference.census, "{}", config.name);
        assert_eq!(summary.per_dataset, reference.per_dataset, "{}", config.name);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: the Small world takes minutes unoptimized")]
fn byte_path_matches_the_reference_on_the_small_world() {
    let study = Study::build(StudyScale::Small, 42);
    assert_run_matches_reference(&study, &study.visibility_run(10, 8.0));
}
