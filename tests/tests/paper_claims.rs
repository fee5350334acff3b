//! The paper's claims as a gate: every section of
//! `bh_bench::reproduce::registry()` is evaluated on the one shared
//! world and no claim may come out broken — and the gate itself is
//! mutation-checked with ablation toggles the session already has.

use std::sync::{Arc, OnceLock};

use bh_bench::reproduce::{evaluate, registry, Evaluation, Section, Verdict, World};
use bh_core::SessionBuilder;
use bh_irr::BlackholeDictionary;

/// Built once per test binary: the Small study and its scenario run
/// dominate wall-clock.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build().expect("the collectors' archives write and decode"))
}

fn sections(keep: impl Fn(&Section) -> bool) -> Vec<Section> {
    registry().into_iter().filter(keep).collect()
}

fn broken(evaluation: &Evaluation) -> Vec<(&'static str, &'static str)> {
    let broken = evaluation.verdicts.iter().filter(|(.., v)| *v == Verdict::Broken);
    broken.map(|(section, claim, _)| (*section, *claim)).collect()
}

#[test]
fn fast_sections_have_no_broken_claim() {
    let evaluation = evaluate(world(), &sections(|s| !s.slow));
    assert_eq!(broken(&evaluation), [], "see EXPERIMENTS.md / `make reproduce`");
    // 39 paper claims (Fig. 4's three are slow) + the two per-peer-state pins.
    assert_eq!(evaluation.verdicts.len(), 41);
    let tally = [Verdict::Holds, Verdict::ExpectedDivergence, Verdict::NotMeasurable];
    assert_eq!(tally.map(|v| evaluation.count(v)), [23, 17, 1]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: the Tiny longitudinal run takes minutes unoptimized"
)]
fn slow_sections_have_no_broken_claim() {
    let evaluation = evaluate(world(), &sections(|s| s.slow));
    assert_eq!(broken(&evaluation), [], "see EXPERIMENTS.md / `make reproduce`");
    assert_eq!(evaluation.verdicts.len(), 3, "Fig. 4's three claims");
}

/// Re-observe the same archives with `session`, evaluate the
/// sections whose id starts with `prefix`, and return what broke.
fn mutant(session: SessionBuilder, prefix: &str) -> Vec<(&'static str, &'static str)> {
    let mutated = world().reinfer(session).expect("the archives decode again");
    broken(&evaluate(&mutated, &sections(|s| !s.slow && s.id().starts_with(prefix))))
}

#[test]
fn the_gate_fails_under_mutation() {
    let w = world();
    let session = || w.study.session(&w.run.refdata);

    let no_bundling = mutant(session().bundling_detection(false), "Fig. 7(c)");
    assert!(no_bundling.iter().any(|(_, claim)| claim.contains("no-path")), "{no_bundling:?}");

    let no_peer_state = mutant(session().per_peer_state(false), "Ablation: per-peer");
    assert!(no_peer_state.iter().any(|(_, claim)| claim.contains("duration")), "{no_peer_state:?}");

    let empty = Arc::new(BlackholeDictionary::default());
    let no_dictionary = mutant(SessionBuilder::new(empty, w.run.refdata.clone()), "Table");
    for table in ["Table 3", "Table 4"] {
        assert!(no_dictionary.iter().any(|(id, _)| *id == table), "{table}: {no_dictionary:?}");
    }
}
