//! The end-to-end study pipeline at configurable scale.
//!
//! Mirrors the paper's pipeline exactly:
//!
//! 1. the Internet exists (topology + collector deployment),
//! 2. operators document their blackhole communities (corpus),
//! 3. the dictionary is mined from the corpus (§4.1),
//! 4. attacks happen and operators react (scenario → BGP simulation),
//! 5. collectors archive what they saw as MRT; the session infers over
//!    the archives' time-ordered merge (§4.2),
//! 6. analytics reproduce the tables and figures.
//!
//! A run is steps 1–4, with **one** collector deployment threaded through
//! simulation *and* reference data; [`Study::observe`] is steps 5–6.

use std::sync::Arc;

use bh_bgp_types::time::SimTime;
use bh_core::{
    canonical_order, AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, BlackholeEvent,
    ConfusionAccumulator, ConfusionReport, EventAccumulator, InferenceResult, ReferenceData,
    SessionBuilder, StreamSummary,
};
use bh_irr::{BlackholeDictionary, Corpus, CorpusGenerator, NegativeControls};
use bh_mrt::MrtError;
use bh_routing::{deploy, BgpElem, CollectorConfig, CollectorDeployment, ElemSource};
use bh_topology::{PolicyTable, Topology, TopologyBuilder, TopologyConfig};
use bh_workloads::{
    fleet_archives, fleet_of, run, run_adversarial, AdversarialConfig, AdversarialOutput,
    CollectorArchive, ScenarioConfig, ScenarioOutput,
};

/// Pipeline scale: trade fidelity for wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyScale {
    /// ~60 ASes — unit-test speed.
    Tiny,
    /// ~230 ASes — the `reproduce` default: shape-faithful, seconds per run.
    Small,
    /// The full Table-2-scale Internet (~1,150 ASes) — example/demo runs.
    Full,
    /// The CAIDA-shaped ~75k-AS internet with power-law customer degrees
    /// — the propagation-engine scale tier. Whole-study runs at this
    /// scale are hours; it exists for the massive smoke path
    /// (`examples/massive_smoke.rs`).
    Massive,
}

impl StudyScale {
    /// Topology configuration for the scale.
    pub fn topology_config(self, seed: u64) -> TopologyConfig {
        match self {
            StudyScale::Tiny => TopologyConfig::tiny(seed),
            StudyScale::Small => TopologyConfig {
                seed,
                tier1_count: 8,
                transit_count: 70,
                content_count: 80,
                enterprise_count: 30,
                edu_count: 15,
                unknown_count: 15,
                ixp_count: 12,
                bh_transit: bh_topology::ProviderCounts { documented: 40, undocumented: 16 },
                bh_ixp: 10,
                bh_content: bh_topology::ProviderCounts { documented: 5, undocumented: 3 },
                bh_edu: bh_topology::ProviderCounts { documented: 3, undocumented: 0 },
                bh_enterprise: bh_topology::ProviderCounts { documented: 2, undocumented: 1 },
                bh_unknown: bh_topology::ProviderCounts { documented: 3, undocumented: 1 },
                power_law_degrees: false,
            },
            StudyScale::Full => TopologyConfig { seed, ..Default::default() },
            StudyScale::Massive => TopologyConfig::massive(seed),
        }
    }

    /// Collector configuration for the scale.
    pub fn collector_config(self, seed: u64) -> CollectorConfig {
        match self {
            StudyScale::Tiny => CollectorConfig::tiny(seed),
            StudyScale::Small => CollectorConfig {
                seed,
                ris_peers: 18,
                rv_peers: 14,
                pch_ixp_coverage: 0.6,
                cdn_peers: 90,
            },
            StudyScale::Full | StudyScale::Massive => {
                CollectorConfig { seed, ..Default::default() }
            }
        }
    }
}

/// A fully assembled study environment.
pub struct Study {
    /// The synthetic Internet.
    pub topology: Topology,
    /// Collector deployment (kept for re-deployments).
    pub collector_config: CollectorConfig,
    /// The mined, documented dictionary (shared by every session).
    pub dict: Arc<BlackholeDictionary>,
    /// Base RNG seed.
    pub seed: u64,
}

/// One scenario run: what the world did. Nothing is inferred yet.
pub struct StudyRun {
    /// Scenario output (elements + ground truth).
    pub output: ScenarioOutput,
    /// The reference data of the deployment that produced `output`.
    pub refdata: Arc<ReferenceData>,
    /// The analytics window of this run (the scenario calendar).
    pub analytics: AnalyticsConfig,
}

/// What the collectors saw of a run: inference over its per-collector
/// MRT archives, with the paper's tables and figures (or another
/// accumulator's report).
#[derive(Debug, Clone, PartialEq)]
pub struct Observed<R = AnalyticsReport> {
    /// Every inferred event, in `(start, prefix)` order.
    pub events: Vec<BlackholeEvent>,
    /// Census, counters and per-dataset visibility.
    pub summary: StreamSummary,
    /// The accumulator's output.
    pub report: R,
}

/// One adversarial run, end to end: the labelled workload's output and
/// what its collectors saw, scored against the simulator's ground truth
/// (precision/recall/per-kind false-positive attribution).
pub struct AdversarialRun {
    /// Workload output (elements + cooperative ground truth + labels).
    pub output: AdversarialOutput,
    /// The reference data the inference used.
    pub refdata: Arc<ReferenceData>,
    /// Inference over the collectors' archives, with its confusion report.
    pub observed: Observed<ConfusionReport>,
}

/// Infer over the merged stream of `archives` with one session, feeding
/// the event list and `accumulator` as events close. The first archive
/// that fails to decode is the error.
fn observe_with<A: EventAccumulator>(
    archives: &[CollectorArchive],
    session: SessionBuilder,
    accumulator: A,
) -> Result<Observed<A::Output>, MrtError> {
    let mut stream = fleet_of(archives).start();
    let mut session = session.build();
    let mut accumulators = (Vec::new(), accumulator);
    while let Some(elem) = stream.next_elem() {
        session.push(elem);
        session.drain_closed_into(&mut accumulators);
    }
    if let Some(error) = stream.finish().archives.into_iter().find_map(|a| a.error) {
        return Err(error);
    }
    let summary = session.finish_with(&mut accumulators);
    let (mut events, report) = accumulators.finalize();
    canonical_order(&mut events);
    Ok(Observed { events, summary, report })
}

impl Study {
    /// Build the environment: topology, corpus, dictionary.
    pub fn build(scale: StudyScale, seed: u64) -> Self {
        let topology = TopologyBuilder::new(scale.topology_config(seed)).build();
        let corpus = CorpusGenerator::new(&topology, seed ^ 0x1212).generate();
        let dict = Arc::new(BlackholeDictionary::build(&corpus));
        Study { topology, collector_config: scale.collector_config(seed ^ 0x3434), dict, seed }
    }

    /// A fresh collector deployment (deterministic for a given study).
    pub fn deployment(&self) -> CollectorDeployment {
        deploy(&self.topology, &self.collector_config)
    }

    /// Reference data matching a specific deployment.
    pub fn refdata_for(&self, deployment: &CollectorDeployment) -> Arc<ReferenceData> {
        Arc::new(ReferenceData::build(&self.topology, deployment))
    }

    /// Reference data for a fresh (deterministic) deployment.
    pub fn refdata(&self) -> Arc<ReferenceData> {
        self.refdata_for(&self.deployment())
    }

    /// A session builder over this study's dictionary and the given
    /// reference data.
    pub fn session(&self, refdata: &Arc<ReferenceData>) -> SessionBuilder {
        SessionBuilder::new(self.dict.clone(), refdata.clone())
    }

    /// One-shot inference over an in-memory element stream: the reference
    /// [`Study::observe`] is tested against. No `Study` run calls it.
    pub fn infer(&self, refdata: &Arc<ReferenceData>, elems: &[BgpElem]) -> InferenceResult {
        let mut session = self.session(refdata).build();
        session.ingest(&mut bh_routing::SliceSource::new(elems));
        session.finish()
    }

    /// An empty [`AnalyticsPipeline`] over the given reference data.
    pub fn analytics_pipeline(
        &self,
        refdata: &Arc<ReferenceData>,
        config: AnalyticsConfig,
    ) -> AnalyticsPipeline {
        AnalyticsPipeline::new(refdata.clone(), config)
    }

    /// Run a scenario — with `policies`, if any, installed on the
    /// simulator — with ONE deployment: the same collector set observes
    /// the stream and parameterizes the refdata.
    fn scenario_run(&self, config: &ScenarioConfig, policies: Option<&PolicyTable>) -> StudyRun {
        let deployment = self.deployment();
        let refdata = self.refdata_for(&deployment);
        let analytics =
            AnalyticsConfig::window(config.calendar.window_start, config.calendar.window_end);
        let output = run(&self.topology, deployment, config, policies);
        StudyRun { output, refdata, analytics }
    }

    /// What the collectors saw of `run`: one MRT archive per collector,
    /// merged back in time order and inferred by this study's session. A
    /// writer refusal or an archive that fails to decode is the error.
    pub fn observe(&self, run: &StudyRun) -> Result<Observed, MrtError> {
        self.observe_archives(&run.output.fleet_archives()?, run, self.session(&run.refdata))
    }

    /// `run`'s collector `archives` inferred by `session` (the `reproduce`
    /// world writes them once and re-observes them for its ablations).
    pub(crate) fn observe_archives(
        &self,
        archives: &[CollectorArchive],
        run: &StudyRun,
        session: SessionBuilder,
    ) -> Result<Observed, MrtError> {
        observe_with(archives, session, self.analytics_pipeline(&run.refdata, run.analytics))
    }

    /// The configuration of the standard short visibility run.
    fn visibility_config(&self, days: u64, rate: f64) -> ScenarioConfig {
        let mut config = ScenarioConfig::visibility_window(self.seed ^ 0x7777, rate);
        config.calendar.window_end =
            SimTime::from_unix((config.calendar.window_start.day_index() + days) * 86_400);
        config
    }

    /// The standard short visibility run: `days`
    /// days at `rate` attacks/day inside the Aug-2016+ window.
    pub fn visibility_run(&self, days: u64, rate: f64) -> StudyRun {
        self.scenario_run(&self.visibility_config(days, rate), None)
    }

    /// [`visibility_run`](Self::visibility_run) with a per-AS
    /// [`PolicyTable`] installed on the simulator. An empty table is
    /// property-tested bit-identical to the plain run — this is the
    /// policy-extensions ablation's comparison axis.
    pub fn visibility_run_under(&self, days: u64, rate: f64, policies: &PolicyTable) -> StudyRun {
        self.scenario_run(&self.visibility_config(days, rate), Some(policies))
    }

    /// Run an adversarial workload end to end: simulate, infer over the
    /// collectors' archives, and score the inference against the
    /// workload's ground-truth labels.
    pub fn adversarial_run(&self, config: &AdversarialConfig) -> Result<AdversarialRun, MrtError> {
        self.adversarial_run_with(self.dict.clone(), None, config)
    }

    /// [`adversarial_run`](Self::adversarial_run) with an injected
    /// dictionary and optional negative controls — the comparison axis
    /// for scoring the classifier: a trap-poisoned
    /// [`Study::naive_dict`] with and without
    /// [`CommunityClassifier::negative_controls`](bh_irr::CommunityClassifier::negative_controls).
    pub fn adversarial_run_with(
        &self,
        dict: Arc<BlackholeDictionary>,
        controls: Option<Arc<NegativeControls>>,
        config: &AdversarialConfig,
    ) -> Result<AdversarialRun, MrtError> {
        let deployment = self.deployment();
        let refdata = self.refdata_for(&deployment);
        let output = run_adversarial(&self.topology, deployment, config);
        let mut session = SessionBuilder::new(dict, refdata.clone());
        if let Some(controls) = controls {
            session = session.negative_controls(controls);
        }
        let confusion = ConfusionAccumulator::new(config.name.clone(), output.labels.clone());
        let observed = observe_with(&fleet_archives(&output.elems)?, session, confusion)?;
        Ok(AdversarialRun { output, refdata, observed })
    }

    /// Regenerate this study's documentation corpus (the build does not
    /// retain it; same seed, so byte-identical to what the dictionary
    /// was mined from).
    pub fn corpus(&self) -> Corpus {
        CorpusGenerator::new(&self.topology, self.seed ^ 0x1212).generate()
    }

    /// The naive, stem-only dictionary over the same corpus: the
    /// dictionary-only baseline whose trap-poisoned blackhole map the
    /// classifier's negative controls are scored against.
    pub fn naive_dict(&self) -> Arc<BlackholeDictionary> {
        Arc::new(BlackholeDictionary::build_naive(&self.corpus()))
    }

    /// The longitudinal run (Fig. 4): the full Dec 2014 – Mar 2017 window
    /// at `rate` attacks/day (scaled down vs. reality; shape-preserving).
    pub fn longitudinal_run(&self, rate: f64) -> StudyRun {
        self.scenario_run(&ScenarioConfig::study(self.seed ^ 0x9999, rate), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_study_builds_and_infers() {
        let study = Study::build(StudyScale::Tiny, 5);
        let run = study.visibility_run(4, 6.0);
        let observed = study.observe(&run).expect("archives decode");
        assert!(!run.output.ground_truth.is_empty());
        assert!(
            !observed.events.is_empty(),
            "inference found no events from {} truths",
            run.output.ground_truth.len()
        );
    }

    #[test]
    fn dictionary_quality_at_small_scale() {
        let study = Study::build(StudyScale::Small, 7);
        let v = study.dict.validate_against(&study.topology);
        assert!(v.precision() >= 0.99, "precision {}", v.precision());
        assert!(v.recall() >= 0.95, "recall {}", v.recall());
        assert_eq!(v.undocumented_leaks, 0);
    }

    #[test]
    fn run_refdata_matches_observing_deployment() {
        let study = Study::build(StudyScale::Tiny, 9);
        let run = study.visibility_run(2, 4.0);
        // The refdata threaded through the run reflects the exact
        // deployment that observed the stream: every session peer is a
        // direct feed of its platform (deploy() is deterministic, so a
        // fresh deployment reproduces the one the run used).
        for session in study.deployment().sessions() {
            assert!(
                run.refdata.has_direct_feed(session.dataset, session.peer_asn),
                "session {:?}/{} missing from refdata",
                session.dataset,
                session.peer_asn
            );
        }
    }

    #[test]
    fn fleet_ingestion_matches_merged_materialized() {
        let study = Study::build(StudyScale::Tiny, 19);
        let run = study.visibility_run(2, 4.0);
        let archives = run.output.fleet_archives().expect("archives serialize");
        assert!(archives.len() >= 2);
        // The reference is the same merged order the fleet yields,
        // materialized: MRT normalizes NEXT_HOP, which the inference
        // ignores, so results are bit-identical.
        let merged = bh_routing::merge_streams(
            bh_routing::split_by_collector(&run.output.elems).into_values().collect(),
        );
        let expected = study.infer(&run.refdata, &merged);

        let mut stream = bh_workloads::fleet_of(&archives).start();
        let mut session = study.session(&run.refdata).build();
        session.ingest(&mut stream);
        assert!(stream.finish().is_clean());
        assert_eq!(session.finish(), expected);
    }

    #[test]
    fn streaming_analytics_match_run_report() {
        let study = Study::build(StudyScale::Tiny, 17);
        let run = study.visibility_run(2, 5.0);
        let result = study.infer(&run.refdata, &run.output.elems);
        let mut reference = study.analytics_pipeline(&run.refdata, run.analytics);
        reference.observe_result(&result);
        let report = reference.finalize();
        let mut session = study.session(&run.refdata).build();
        let mut pipeline = study.analytics_pipeline(&run.refdata, run.analytics);
        for (n, elem) in run.output.elems.iter().enumerate() {
            session.push(elem);
            if n % 512 == 511 {
                session.drain_closed_into(&mut pipeline);
            }
        }
        let summary = session.finish_with(&mut pipeline);
        assert_eq!(summary.stats, result.stats);
        assert_eq!(summary.per_dataset, result.per_dataset);
        assert_eq!(pipeline.finalize(), report);
    }
}
