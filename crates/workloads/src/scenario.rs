//! The end-to-end scenario driver: attack calendar → operator reactions →
//! BGP simulation → collector element stream + ground truth.
//!
//! [`run`] is the one entry point (an optional per-AS [`PolicyTable`] is
//! its only variation). The driver decides *when* attacks happen and
//! *who* is hit; what the victim then does is [`plan_reaction`]'s, and every
//! announce/withdraw pair is written by [`Schedule::pulse`].

use std::collections::BTreeMap;

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::{Announcement, BgpElem, BgpSimulator, CollectorDeployment, RunStats};
use bh_topology::{NetworkType, PolicyTable, Topology};

use crate::attacks::AttackCalendar;
use crate::reaction::{
    capable_providers, eligible_users, plan_reaction, sampled_tags, slash24_of, triggers, Action,
    GroundTruthEvent, Schedule, TimedAction,
};

/// Scenario configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed (independent of topology/collector seeds).
    pub seed: u64,
    /// The attack calendar.
    pub calendar: AttackCalendar,
    /// Fraction of potential users already using blackholing at window
    /// start (the paper's user population grew ×4 → ~0.25).
    pub initial_adoption: f64,
    /// How many base prefixes to announce at start (they carry the
    /// providers' tag communities and anchor the Fig. 2 census).
    pub base_prefix_sample: usize,
}

impl ScenarioConfig {
    /// A short test scenario: `days` days at the start of the study
    /// window, modest rates.
    pub fn short(seed: u64, days: u64, attacks_per_day: f64) -> Self {
        let mut calendar = AttackCalendar::study(attacks_per_day);
        calendar.window_end =
            SimTime::from_unix((calendar.window_start.day_index() + days) * 86_400);
        ScenarioConfig { seed, calendar, initial_adoption: 0.6, base_prefix_sample: 40 }
    }

    /// The full study window (Dec 2014 – Mar 2017) at a configurable
    /// daily attack rate.
    pub fn study(seed: u64, attacks_per_day: f64) -> Self {
        ScenarioConfig {
            seed,
            calendar: AttackCalendar::study(attacks_per_day),
            initial_adoption: 0.25,
            base_prefix_sample: 120,
        }
    }

    /// The visibility window (Aug 2016 – Mar 2017): Tables 3/4, Figs 5–8.
    pub fn visibility_window(seed: u64, attacks_per_day: f64) -> Self {
        let mut config = Self::study(seed, attacks_per_day);
        config.calendar.window_start = bh_bgp_types::time::study::visibility_start();
        config.initial_adoption = 0.8; // adoption had mostly happened
        config
    }

    /// The `Massive` tier: a short, low-rate calendar sized for the
    /// CAIDA-scale (~75k-AS) topology, where every announcement floods
    /// the whole graph. Pair with
    /// [`bh_topology::TopologyConfig::massive`].
    pub fn massive(seed: u64) -> Self {
        let mut config = Self::short(seed, 1, 2.0);
        config.base_prefix_sample = 8;
        config
    }
}

/// Scenario output: the collector stream and the ground truth to validate
/// inference against.
#[derive(Debug)]
pub struct ScenarioOutput {
    /// Every element observed at every collector session, time-ordered.
    pub elems: Vec<BgpElem>,
    /// Ground-truth blackholing reactions.
    pub ground_truth: Vec<GroundTruthEvent>,
    /// Days simulated.
    pub days: u64,
    /// Total announcements injected.
    pub announcements: u64,
    /// Per-reason / per-extension rejection accounting from the run.
    pub run_stats: RunStats,
}

/// Run a scenario on a fresh simulator over `topology`, with `policies`
/// (if any) installed before the first announcement. An empty table
/// installs nothing and is property-tested bit-identical to `None`.
pub fn run(
    topology: &Topology,
    deployment: CollectorDeployment,
    config: &ScenarioConfig,
    policies: Option<&PolicyTable>,
) -> ScenarioOutput {
    let mut sim = BgpSimulator::new(topology, deployment, config.seed ^ 0x5151);
    if let Some(table) = policies {
        sim.install_policies(table);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut schedule = Schedule::default();

    // ---- candidate users with adoption dates ---------------------------
    let users = eligible_users(topology, capable_providers);
    let total_days = config.calendar.days().max(1);
    let adoption_day: BTreeMap<Asn, u64> = users
        .iter()
        .map(|asn| {
            let day = if rng.gen_bool(config.initial_adoption) {
                0
            } else {
                rng.gen_range(0..total_days)
            };
            (*asn, day)
        })
        .collect();
    // Content networks are over-represented among blackholing users
    // (18% of users originate 43% of blackholed prefixes).
    let weights: Vec<u32> = users
        .iter()
        .map(|asn| match topology.as_info(*asn).map(|i| i.network_type) {
            Some(NetworkType::Content) => 6,
            Some(NetworkType::TransitAccess | NetworkType::Enterprise) => 2,
            _ => 1,
        })
        .collect();

    // ---- base prefixes (census anchoring) --------------------------------
    let mut base: Vec<(Asn, Ipv4Prefix)> =
        topology.ases().flat_map(|i| i.prefixes.iter().map(move |p| (i.asn, *p))).collect();
    base.sort();
    let base_sample: Vec<(Asn, Ipv4Prefix)> = base
        .choose_multiple(&mut rng, config.base_prefix_sample.min(base.len()))
        .copied()
        .collect();
    for (origin, prefix) in &base_sample {
        // The origin's providers tag customer routes; carry a sample of
        // those tags so the census sees "other" communities on coarse
        // prefixes (Fig. 2's red-cross population).
        let communities = sampled_tags(topology, topology.providers_of(*origin));
        schedule.actions.push(TimedAction {
            time: config.calendar.window_start,
            action: Action::Announce(Announcement::simple(*origin, *prefix, communities)),
            truth: None,
        });
    }

    // ---- attacks ---------------------------------------------------------
    // A world without a capable user has no reactions to plan (`NoItem`):
    // only the base prefixes are announced and the ground truth is empty.
    if let Ok(picker) = WeightedIndex::new(&weights) {
        for day in 0..total_days {
            let n_attacks = config.calendar.sample_attacks(&mut rng, day);
            let day_start = config.calendar.day(day);
            for _ in 0..n_attacks {
                let user = users[picker.sample(&mut rng)];
                if adoption_day[&user] > day {
                    continue; // victim has not adopted blackholing yet
                }
                let start = day_start + SimDuration::secs(rng.gen_range(0..86_000));
                let duration = SimDuration::mins(rng.gen_range(5..240));
                plan_reaction(&mut rng, topology, user, start, duration, &mut schedule);
            }

            // Spike A: the accidental full-table blackholing (<2 minutes),
            // on its day whenever the window covers it.
            if let Some(spike) = config.calendar.spike_on(day) {
                if spike.is_misconfiguration
                    && config.calendar.day(day).ymd() == (spike.year, spike.month, spike.day)
                {
                    plan_accident(&mut rng, topology, day_start, &mut schedule);
                }
            }
        }
    }

    let announcements = schedule.run(&mut sim);

    ScenarioOutput {
        run_stats: sim.run_stats().clone(),
        elems: sim.drain_elems(),
        ground_truth: schedule.truths,
        days: total_days,
        announcements,
    }
}

/// Spike A: a European academic network accidentally blackholes its
/// entire routing table for under two minutes.
fn plan_accident(
    rng: &mut StdRng,
    topology: &Topology,
    day_start: SimTime,
    schedule: &mut Schedule,
) {
    // Pick an education network in Europe with capable providers.
    let capable = |i: &&bh_topology::AsInfo| {
        !i.prefixes.is_empty() && !capable_providers(topology, i.asn).is_empty()
    };
    let candidate = topology
        .ases()
        .find(|i| i.network_type == NetworkType::EducationResearchNfp && capable(i))
        .or_else(|| topology.ases().find(capable));
    let Some(info) = candidate else { return };
    let providers = capable_providers(topology, info.asn);
    let communities = triggers(&providers);
    let start = day_start + SimDuration::hours(10);
    let window = (start, start + SimDuration::secs(rng.gen_range(60..115)));

    // "Entire routing table": every constituent /24 of its space (capped).
    for allocation in &info.prefixes {
        let slices = 1u64 << (24u8.saturating_sub(allocation.length()) as u32);
        for k in 0..slices.min(160) {
            let Some(p24) = slash24_of(allocation, k) else { break };
            let truth =
                schedule.truth(GroundTruthEvent::bundled(p24, info.asn, &providers, window));
            let route = Announcement::simple(info.asn, p24, communities.clone());
            schedule.pulse(route, window, false, Some(truth));
        }
    }
}

#[cfg(test)]
mod tests {
    use bh_routing::{deploy, CollectorConfig, DataSource, ElemType};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    fn run_short(seed: u64, days: u64, rate: f64) -> ScenarioOutput {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        run(&t, d, &ScenarioConfig::short(seed, days, rate), None)
    }

    #[test]
    fn scenario_produces_elems_and_truth() {
        let out = run_short(1, 3, 6.0);
        assert!(out.announcements > 0);
        assert!(!out.ground_truth.is_empty(), "no blackholing events generated");
        assert!(!out.elems.is_empty(), "collectors saw nothing");
        assert_eq!(out.days, 3);
    }

    /// A world where nobody offers blackholing has no capable user: the
    /// run announces its base prefixes and plans no reaction.
    #[test]
    fn world_without_blackholing_providers_has_no_reactions() {
        let t = TopologyBuilder::new(crate::adversarial::tests::no_offerings(3)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        let out = run(&t, d, &ScenarioConfig::short(1, 2, 6.0), None);
        assert!(!out.elems.is_empty(), "base prefixes were not announced");
        assert!(out.ground_truth.is_empty());
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = run_short(42, 2, 5.0);
        let b = run_short(42, 2, 5.0);
        assert_eq!(a.elems.len(), b.elems.len());
        assert_eq!(a.ground_truth.len(), b.ground_truth.len());
        for (x, y) in a.ground_truth.iter().zip(&b.ground_truth) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.phases, y.phases);
        }
    }

    #[test]
    fn elems_are_time_ordered_per_execution() {
        let out = run_short(7, 2, 5.0);
        for w in out.elems.windows(2) {
            assert!(w[0].time <= w[1].time, "elems out of order");
        }
    }

    #[test]
    fn some_blackholes_are_accepted() {
        let out = run_short(3, 3, 8.0);
        let accepted = out.ground_truth.iter().filter(|t| !t.accepted.is_empty()).count();
        assert!(
            accepted * 3 > out.ground_truth.len(),
            "too few accepted: {accepted}/{}",
            out.ground_truth.len()
        );
    }

    #[test]
    fn tagged_elems_reach_collectors() {
        let out = run_short(5, 3, 8.0);
        let tagged = out
            .elems
            .iter()
            .filter(|e| e.elem_type == ElemType::Announce && !e.communities.is_empty())
            .count();
        assert!(tagged > 0, "no tagged announcements visible");
        // At least two platforms observe something.
        let datasets: std::collections::BTreeSet<DataSource> =
            out.elems.iter().map(|e| e.dataset).collect();
        assert!(datasets.len() >= 2, "only {datasets:?}");
    }

    #[test]
    fn ground_truth_phases_inside_window() {
        let out = run_short(9, 4, 5.0);
        let window_start = AttackCalendar::study(1.0).window_start;
        for truth in &out.ground_truth {
            assert!(truth.start() >= window_start);
            assert!(truth.end() > truth.start());
        }
    }
}
