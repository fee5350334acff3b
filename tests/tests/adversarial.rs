//! Golden adversarial-workload tests: the inference scored against
//! simulator-side ground truth.
//!
//! The cooperative baseline must score perfectly — every RTBH event
//! detected, nothing else flagged. The adversarial workloads then
//! demonstrate the detector's *known* failure modes with exact
//! attribution: stolen-community hijacks and leak-shaped tagged routes
//! show up as false positives of their own kind, prepend-based
//! re-routing never triggers, and deploying ROV over strict ROAs
//! monotonically destroys blackhole visibility (the RPKI-vs-RTBH
//! tension: a /32 host route is Invalid under an allocation-length
//! ROA).

use std::sync::OnceLock;

use bh_bench::{Study, StudyScale};
use bh_core::LabelKind;
use bh_routing::RejectReason;
use bh_topology::{CommunityScrub, PolicyTable, RoaTable};
use bh_workloads::{AdversarialConfig, AdversarialOutput};

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::build(StudyScale::Tiny, 1234))
}

#[test]
fn cooperative_baseline_scores_perfectly() {
    let run = study().adversarial_run(&AdversarialConfig::baseline(41, 3, 4.0));
    let r = &run.report;
    assert!(r.expected > 0, "no cooperative events scheduled:\n{r}");
    assert_eq!(r.false_positives, 0, "\n{r}");
    assert_eq!(r.false_negatives, 0, "\n{r}");
    assert!(r.is_perfect(), "\n{r}");
    assert_eq!(r.precision(), 1.0);
    assert_eq!(r.recall(), 1.0);
}

#[test]
fn subprefix_hijacks_degrade_precision_with_hijack_attribution() {
    let run = study().adversarial_run(&AdversarialConfig::subprefix_hijack(42, 3, 4.0));
    let r = &run.report;
    assert!(r.false_positives > 0, "hijacks went undetected as FPs:\n{r}");
    assert!(r.precision() < 1.0, "\n{r}");
    assert!(
        r.fp_by_kind.get(&LabelKind::Hijack).copied().unwrap_or(0) > 0,
        "false positives not attributed to hijacks:\n{r}"
    );
    // The cooperative population is still being found.
    assert_eq!(r.recall(), 1.0, "\n{r}");
}

#[test]
fn route_leaks_are_misclassified_as_blackholes() {
    let config = AdversarialConfig::route_leak(&study().topology, 43, 3, 4.0);
    let run = study().adversarial_run(&config);
    let r = &run.report;
    assert!(r.false_positives > 0, "leak-shaped routes never flagged:\n{r}");
    assert!(
        r.fp_by_kind.get(&LabelKind::RouteLeak).copied().unwrap_or(0) > 0,
        "false positives not attributed to leaks:\n{r}"
    );
    assert!(r.precision() < 1.0, "\n{r}");
    // The leaker ASes really did export past the valley-free rule, and
    // the inert triggers were length-rejected, not silently dropped.
    assert!(run.output.run_stats.exports_forced > 0);
    assert!(run.output.run_stats.trigger_rejects.contains_key(&RejectReason::LengthRejected));
}

#[test]
fn prepend_reroutes_are_a_clean_negative_control() {
    let run = study().adversarial_run(&AdversarialConfig::prepend_reroute(44, 3, 4.0));
    let r = &run.report;
    let reroutes = run.output.labels.iter().filter(|l| l.kind == LabelKind::Reroute).count();
    assert!(reroutes > 0, "no reroutes scheduled");
    assert_eq!(r.false_positives, 0, "a community-free reroute triggered detection:\n{r}");
    assert!(r.is_perfect(), "\n{r}");
}

#[test]
fn rov_deployment_monotonically_suppresses_detection() {
    let topology = &study().topology;
    let mut detected = Vec::new();
    for fraction in [0.0, 0.25, 0.5, 1.0] {
        let config = AdversarialConfig::rov_sweep(topology, 45, 3, 4.0, fraction);
        let run = study().adversarial_run(&config);
        if fraction > 0.0 {
            assert!(
                run.output.run_stats.import_rejects_for(RejectReason::RovInvalid) > 0,
                "ROV at fraction {fraction} rejected nothing"
            );
        }
        detected.push(run.report.detected_events);
    }
    // Same seed, same schedule: deployments are nested, so visibility
    // (and the detected-event count) can only shrink.
    assert!(detected[0] > 0, "baseline sweep point detected nothing: {detected:?}");
    for w in detected.windows(2) {
        assert!(w[1] <= w[0], "detection count increased along the sweep: {detected:?}");
    }
    assert!(
        *detected.last().unwrap() < detected[0],
        "full ROV deployment did not suppress anything: {detected:?}"
    );
}

/// Everything the per-AS policy layer can change about a run, as one
/// line: the elem count, an order-sensitive FNV-1a digest of the elem
/// stream (over each elem's `Debug` rendering), and the simulator's
/// reject / forced-export / work accounting.
fn policy_fingerprint(out: &AdversarialOutput) -> String {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for elem in &out.elems {
        for byte in format!("{elem:?}").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let stats = &out.run_stats;
    format!(
        "elems={} digest={digest:016x} import_rejects={:?} extension_rejects={:?} \
         exports_forced={} work_items={}",
        out.elems.len(),
        stats.import_rejects,
        stats.extension_rejects,
        stats.exports_forced,
        stats.work_items
    )
}

/// Golden pin of the policy layer, recorded before `PolicyEngine` was
/// rewritten from hook chains to plain `AsPolicy` tests: the engine and
/// the FIFO reference of `phased_propagation.rs` share the policy code,
/// so only values recorded from the old implementation catch a semantic
/// slip in it. The third deployment turns every `AsPolicy` field on
/// somewhere, which the two catalog workloads do not.
#[test]
fn policy_layer_golden_pin() {
    let topology = &study().topology;

    let rov = AdversarialConfig::rov_sweep(topology, 45, 3, 4.0, 0.5);
    assert_eq!(policy_fingerprint(&study().adversarial_run(&rov).output), "elems=292 digest=6d3113c869bc9052 import_rejects={LoopDetected: 10, RovInvalid: 41} extension_rejects={\"rov\": 41} exports_forced=0 work_items=1387");

    let leak = AdversarialConfig::route_leak(topology, 43, 3, 4.0);
    assert_eq!(policy_fingerprint(&study().adversarial_run(&leak).output), "elems=994 digest=1b8b280520e11a88 import_rejects={LoopDetected: 33258} extension_rejects={} exports_forced=181784 work_items=1329077");

    let mut every_field = leak.clone();
    every_field.policy.set_roas(RoaTable::strict_from_topology(topology));
    for (k, asn) in PolicyTable::rov_candidates(topology).into_iter().enumerate() {
        let policy = every_field.policy.entry(asn);
        policy.peerlock_lite = k % 2 == 0;
        policy.path_end = k % 2 == 1;
        policy.rov = k % 4 == 0;
        policy.only_to_customers |= k % 3 == 2;
        if k % 3 == 1 {
            policy.scrub = Some(CommunityScrub { strip_all: true, ..CommunityScrub::default() });
        }
    }
    assert_eq!(policy_fingerprint(&study().adversarial_run(&every_field).output), "elems=956 digest=fffe4d3cc73b1f1c import_rejects={LoopDetected: 16711, RovInvalid: 83, PeerlockViolation: 53, PathEndInvalid: 7, RouteLeak: 18} extension_rejects={\"only-to-customers\": 18, \"path-end\": 7, \"peerlock-lite\": 53, \"rov\": 83} exports_forced=82746 work_items=668449");
}
