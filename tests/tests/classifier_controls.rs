//! The general community classifier and its negative controls, scored
//! end to end.
//!
//! The headline claim: a dictionary-only baseline poisoned by weak
//! `discard` trap phrasing flags stolen-tag hijacks as blackholing;
//! installing the classifier's negative controls strictly reduces those
//! false positives while leaving cooperative recall untouched. The
//! property tests pin the safety side: the controls-off path is
//! bit-identical to the pre-classifier session, per-class dictionary
//! maps never overlap, and controls never suppress a genuine RTBH
//! event.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use bh_bench::{AdversarialRun, Study, StudyScale};
use bh_core::LabelKind;
use bh_irr::{
    BlackholeDictionary, CommunityClass, CommunityClassifier, CommunityPrefixCensus,
    CorpusGenerator, NegativeControls,
};
use bh_topology::{TopologyBuilder, TopologyConfig};
use bh_workloads::AdversarialConfig;

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Tiny, 1234))
}

/// Negative controls from the class-aware dictionary's documentation
/// (no census: the documented location/informational tags alone).
fn documented_controls(study: &Study) -> Arc<NegativeControls> {
    let controls =
        CommunityClassifier.negative_controls(&study.dict, &CommunityPrefixCensus::new());
    assert!(!controls.is_empty(), "no documented tags became controls");
    Arc::new(controls)
}

/// [`Study::adversarial_run_with`] over archives that must decode.
fn scored(
    study: &Study,
    dict: Arc<BlackholeDictionary>,
    controls: Option<Arc<NegativeControls>>,
    config: &AdversarialConfig,
) -> AdversarialRun {
    study.adversarial_run_with(dict, controls, config).expect("the collectors' archives decode")
}

#[test]
fn golden_per_class_validation_at_small_scale() {
    let study = Study::build(StudyScale::Small, 7);
    let v = study.dict.validate_classes(&study.topology);
    for class in [CommunityClass::Action, CommunityClass::Location, CommunityClass::Informational] {
        let s = v.score(class);
        assert!(s.true_positives > 0, "{class:?} never validated a documented tag ({s:?})");
        assert!(s.precision() >= 0.95, "{class:?} precision {} ({s:?})", s.precision());
        assert!(s.recall() >= 0.9, "{class:?} recall {} ({s:?})", s.recall());
    }
}

#[test]
fn negative_controls_cut_stolen_tag_false_positives() {
    let study = study();
    let naive = study.naive_dict();
    let controls = documented_controls(study);
    let config = AdversarialConfig::stolen_tag_hijack(46, 3, 4.0);

    let base = scored(study, naive.clone(), None, &config);
    let controlled = scored(study, naive, Some(controls), &config);

    assert!(
        base.observed.report.fp_by_kind.get(&LabelKind::Tagged).copied().unwrap_or(0) > 0,
        "the trap-poisoned dictionary was never fooled by stolen tags:\n{}",
        base.observed.report
    );
    assert!(
        controlled.observed.report.false_positives < base.observed.report.false_positives,
        "controls did not reduce false positives:\nbase {}\ncontrolled {}",
        base.observed.report,
        controlled.observed.report
    );
    let suppressed = controlled.observed.summary.stats.control_suppressed;
    assert!(suppressed > 0, "nothing was counted as suppressed");
    // Cooperative recall is untouched on both sides.
    assert_eq!(base.observed.report.recall(), 1.0, "\n{}", base.observed.report);
    assert_eq!(controlled.observed.report.recall(), 1.0, "\n{}", controlled.observed.report);
}

#[test]
fn controls_strictly_reduce_false_positives_across_the_catalog() {
    let study = study();
    let naive = study.naive_dict();
    let controls = documented_controls(study);
    let catalog = [
        AdversarialConfig::baseline(41, 3, 4.0),
        AdversarialConfig::subprefix_hijack(42, 3, 4.0),
        AdversarialConfig::route_leak(&study.topology, 43, 3, 4.0),
        AdversarialConfig::prepend_reroute(44, 3, 4.0),
        AdversarialConfig::stolen_tag_hijack(46, 3, 4.0),
    ];
    let mut base_fps = 0;
    let mut controlled_fps = 0;
    for config in &catalog {
        let base = scored(study, naive.clone(), None, config);
        let controlled = scored(study, naive.clone(), Some(controls.clone()), config);
        // Recall must be identical scenario by scenario: controls only
        // ever remove false positives, never true detections.
        assert_eq!(
            base.observed.report.recall(),
            controlled.observed.report.recall(),
            "recall moved under controls on {}:\nbase {}\ncontrolled {}",
            config.name,
            base.observed.report,
            controlled.observed.report
        );
        assert!(
            controlled.observed.report.false_positives <= base.observed.report.false_positives,
            "controls added false positives on {}",
            config.name
        );
        base_fps += base.observed.report.false_positives;
        controlled_fps += controlled.observed.report.false_positives;
    }
    assert!(
        controlled_fps < base_fps,
        "catalog-wide false positives did not strictly drop: {base_fps} -> {controlled_fps}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case builds a topology and mines a corpus
    })]

    #[test]
    fn class_maps_are_always_disjoint(seed in 0u64..500) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(seed)).build();
        let corpus = CorpusGenerator::new(&t, seed ^ 0x5151).generate();
        let dict = BlackholeDictionary::build(&corpus);
        // Each (provider, community) pair resolves to exactly one class:
        // the per-class maps and the blackhole map never overlap.
        for class in CommunityClass::ALL.into_iter().skip(1) {
            for entry in dict.class_entries(class) {
                for p in &entry.providers {
                    prop_assert!(
                        !dict.providers_for(entry.community).contains(p),
                        "{} is both blackhole and {class:?} for {p}",
                        entry.community
                    );
                    for other in CommunityClass::ALL.into_iter().skip(1) {
                        if other == class { continue; }
                        let dup = dict
                            .class_entries(other)
                            .any(|e| e.community == entry.community && e.providers.contains(p));
                        prop_assert!(
                            !dup,
                            "{} is both {class:?} and {other:?} for {p}",
                            entry.community
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn controls_off_path_is_bit_identical(seed in 0u64..500, days in 2u64..4, rate in 2.0f64..6.0) {
        let study = Study::build(StudyScale::Tiny, seed);
        let config = AdversarialConfig::baseline(seed ^ 0x77, days, rate);
        let without = scored(&study, study.dict.clone(), None, &config);
        let with_empty = scored(
            &study,
            study.dict.clone(),
            Some(Arc::new(NegativeControls::default())),
            &config,
        );
        prop_assert_eq!(without.observed, with_empty.observed);
    }

    #[test]
    fn controls_never_suppress_a_genuine_blackhole(seed in 0u64..500, days in 2u64..4) {
        let study = Study::build(StudyScale::Tiny, seed);
        let controls = Arc::new(
            CommunityClassifier
                .negative_controls(&study.dict, &CommunityPrefixCensus::new()),
        );
        let config = AdversarialConfig::baseline(seed ^ 0x99, days, 4.0);
        let run = scored(&study, study.dict.clone(), Some(controls), &config);
        prop_assert!(
            run.observed.report.recall() == 1.0,
            "controls ate a genuine event:\n{}",
            run.observed.report
        );
        prop_assert_eq!(run.observed.report.false_negatives, 0);
    }
}
