//! Adversarial workloads with simulator-side ground truth.
//!
//! The cooperative scenario ([`crate::scenario`]) asks "does the
//! inference reproduce the paper's findings?". This module asks the
//! harder question the original study could never answer for lack of
//! ground truth: *what does the detector get wrong under adversarial
//! or policy-perturbed traffic?* Each workload schedules a mix of
//!
//! * **cooperative blackholes** — well-formed RTBH requests the
//!   detector is *expected* to find (labelled
//!   [`LabelKind::Blackhole`], `expect_detection = true`);
//! * **subprefix hijacks** — an unrelated stub announces a /32 inside
//!   the victim's space carrying the victim's provider trigger
//!   communities; any detection is a false positive
//!   ([`LabelKind::Hijack`]);
//! * **prepend reroutes** — the re-routing alternative to blackholing
//!   (§2 of the paper): own-prefix announcements with heavy AS-path
//!   prepending and *no* communities, a negative control that must
//!   never trigger ([`LabelKind::Reroute`]);
//! * **route leaks** — a tagged announcement *coarser* than the
//!   provider's minimum accepted blackhole length: the trigger is
//!   inert ([`bh_routing::RejectReason::LengthRejected`]) but the
//!   tagged route propagates like any customer route, stressing the
//!   leak-vs-blackhole misclassification ([`LabelKind::RouteLeak`]);
//! * **stolen-tag hijacks** — host routes decorated with the victim
//!   providers' harmless location/informational *tag* communities
//!   ([`LabelKind::Tagged`]): bait for a trap-poisoned dictionary, and
//!   the population the classifier's negative controls suppress.
//!
//! Every scheduled event also emits a [`TruthLabel`], so
//! [`bh_core::score_events`] can turn an
//! [`InferenceResult`](bh_core::InferenceResult) into a confusion
//! report with per-kind false-positive attribution.
//!
//! Workloads may additionally install a per-AS [`PolicyTable`] — the
//! ROV sweep ([`AdversarialConfig::rov_sweep`]) deploys strict ROAs
//! plus origin validation at a nested fraction of transit networks,
//! and the route-leak workload turns real transit ASes into `leaker`s
//! that export past the valley-free rule.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{LabelKind, TruthLabel};
use bh_routing::{
    AnnounceScope, Announcement, BgpElem, BgpSimulator, CollectorDeployment, RunStats,
    SessionBehavior,
};
use bh_topology::{DocumentationChannel, NetworkType, PolicyTable, RoaTable, Tier, Topology};

use crate::attacks::poisson;
use crate::reaction::{
    capable_providers, execute, Action, CapableProvider, GroundTruthEvent, TimedAction,
};

/// One adversarial workload: daily Poisson rates per event family plus
/// the policy deployment active during the run.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Scenario name, carried into the confusion report.
    pub name: String,
    /// RNG seed (drives scheduling and victim selection).
    pub seed: u64,
    /// Days simulated from the visibility-window start.
    pub days: u64,
    /// Mean cooperative blackhole events per day.
    pub blackholes_per_day: f64,
    /// Mean subprefix-hijack events per day.
    pub hijacks_per_day: f64,
    /// Mean prepend-reroute events per day.
    pub reroutes_per_day: f64,
    /// Mean route-leak events per day.
    pub leaks_per_day: f64,
    /// Mean stolen-tag hijack events per day (host routes decorated
    /// with providers' non-blackhole *tag* communities).
    pub tagged_per_day: f64,
    /// Per-AS policies installed on the simulator before any
    /// announcement (empty table installs nothing).
    pub policy: PolicyTable,
}

impl AdversarialConfig {
    /// Cooperative traffic only — the detector should score perfectly.
    pub fn baseline(seed: u64, days: u64, rate: f64) -> Self {
        AdversarialConfig {
            name: "baseline".into(),
            seed,
            days,
            blackholes_per_day: rate,
            hijacks_per_day: 0.0,
            reroutes_per_day: 0.0,
            leaks_per_day: 0.0,
            tagged_per_day: 0.0,
            policy: PolicyTable::new(),
        }
    }

    /// Cooperative traffic plus stolen-tag hijacks: the attacker
    /// decorates victim host routes with the victim providers'
    /// location/informational tag communities. A dictionary poisoned by
    /// trap phrasing mistakes the tags for triggers; the classifier's
    /// negative controls are scored by how many of these they suppress.
    pub fn stolen_tag_hijack(seed: u64, days: u64, rate: f64) -> Self {
        AdversarialConfig {
            name: "stolen-tag".into(),
            tagged_per_day: rate,
            ..Self::baseline(seed, days, rate)
        }
    }

    /// Cooperative traffic plus subprefix hijacks carrying stolen
    /// trigger communities — precision must degrade.
    pub fn subprefix_hijack(seed: u64, days: u64, rate: f64) -> Self {
        AdversarialConfig {
            name: "subprefix-hijack".into(),
            hijacks_per_day: rate,
            ..Self::baseline(seed, days, rate)
        }
    }

    /// Cooperative traffic under strict ROAs with ROV deployed at
    /// `fraction` of the transit candidates. Strict ROAs pin
    /// `max_length` to the allocation length, so every /32 RTBH route
    /// is RPKI-Invalid at a deploying AS — visibility (and therefore
    /// the detected-event count) shrinks monotonically in `fraction`.
    pub fn rov_sweep(topology: &Topology, seed: u64, days: u64, rate: f64, fraction: f64) -> Self {
        let mut policy = PolicyTable::new();
        policy.set_roas(RoaTable::strict_from_topology(topology));
        policy.deploy_rov_fraction(topology, fraction);
        AdversarialConfig {
            name: format!("rov-{:.2}", fraction),
            policy,
            ..Self::baseline(seed, days, rate)
        }
    }

    /// Cooperative traffic plus prepend-based re-routing (no
    /// communities) — the negative control: zero false positives
    /// expected.
    pub fn prepend_reroute(seed: u64, days: u64, rate: f64) -> Self {
        AdversarialConfig {
            name: "prepend-reroute".into(),
            reroutes_per_day: rate,
            ..Self::baseline(seed, days, rate)
        }
    }

    /// Cooperative traffic plus too-coarse tagged announcements, with
    /// every third transit AS exporting past the valley-free rule
    /// (`leaker`) and every fifth enforcing RFC 9234-style
    /// only-to-customers.
    pub fn route_leak(topology: &Topology, seed: u64, days: u64, rate: f64) -> Self {
        let mut policy = PolicyTable::new();
        let mut transits: Vec<Asn> =
            topology.ases().filter(|i| i.tier == Tier::Transit).map(|i| i.asn).collect();
        transits.sort_unstable();
        for (k, asn) in transits.iter().enumerate() {
            if k % 3 == 0 {
                policy.entry(*asn).leaker = true;
            } else if k % 5 == 0 {
                policy.entry(*asn).only_to_customers = true;
            }
        }
        AdversarialConfig {
            name: "route-leak".into(),
            leaks_per_day: rate,
            policy,
            ..Self::baseline(seed, days, rate)
        }
    }
}

/// Output of an adversarial run: the collector stream, the cooperative
/// ground truth, the full label set for confusion scoring, and the
/// simulator's rejection accounting.
#[derive(Debug)]
pub struct AdversarialOutput {
    /// Every element observed at every collector session, time-ordered.
    pub elems: Vec<BgpElem>,
    /// Ground truth for the *cooperative* blackholing events only.
    pub ground_truth: Vec<GroundTruthEvent>,
    /// Truth labels for every scheduled event (cooperative and
    /// adversarial) — feed to [`bh_core::score_events`].
    pub labels: Vec<TruthLabel>,
    /// Per-reason / per-extension rejection accounting from the run.
    pub run_stats: RunStats,
    /// Days simulated.
    pub days: u64,
    /// Total announcements injected.
    pub announcements: u64,
}

impl AdversarialOutput {
    /// The collector stream as an [`bh_routing::ElemSource`].
    pub fn elem_source(&self) -> bh_routing::SliceSource<'_> {
        bh_routing::SliceSource::new(&self.elems)
    }
}

/// Providers whose detections the dictionary can actually attribute:
/// documented offerings that do not strip the trigger community on
/// propagation. Cooperative events use only these so the baseline is
/// perfectly detectable by construction.
fn clean_providers(topology: &Topology, user: Asn) -> Vec<CapableProvider> {
    capable_providers(topology, user)
        .into_iter()
        .filter(|cp| {
            topology.as_info(cp.provider).and_then(|i| i.blackhole_offering.as_ref()).is_some_and(
                |o| o.documentation != DocumentationChannel::Undocumented && !o.strips_community,
            )
        })
        .collect()
}

/// Users eligible for cooperative events: edge/transit networks with
/// address space and at least one clean provider.
fn cooperative_users(topology: &Topology) -> Vec<Asn> {
    let mut users: Vec<Asn> = topology
        .ases()
        .filter(|i| matches!(i.tier, Tier::Stub | Tier::Transit))
        .filter(|i| i.network_type != NetworkType::Ixp)
        .filter(|i| !i.prefixes.is_empty())
        .filter(|i| !clean_providers(topology, i.asn).is_empty())
        .map(|i| i.asn)
        .collect();
    users.sort_unstable();
    users
}

/// Stub networks usable as hijackers (any upstream will do — the
/// stolen communities are someone else's).
fn attacker_pool(topology: &Topology) -> Vec<Asn> {
    let mut pool: Vec<Asn> = topology
        .ases()
        .filter(|i| i.tier == Tier::Stub && i.network_type != NetworkType::Ixp)
        .filter(|i| !topology.providers_of(i.asn).is_empty())
        .map(|i| i.asn)
        .collect();
    pool.sort_unstable();
    pool
}

/// An unused /32 inside one of `user`'s allocations, so no two events
/// ever share a prefix (exact-prefix label matching stays unambiguous).
fn fresh_host_route(
    rng: &mut StdRng,
    topology: &Topology,
    user: Asn,
    used: &mut BTreeSet<Ipv4Prefix>,
) -> Option<Ipv4Prefix> {
    let info = topology.as_info(user)?;
    let allocation = info.prefixes.choose(rng)?;
    for _ in 0..64 {
        let offset = rng.gen_range(0..allocation.address_count());
        let addr = allocation.nth_addr(offset)?;
        let host = Ipv4Prefix::host(addr);
        if used.insert(host) {
            return Some(host);
        }
    }
    None
}

struct Planner<'a> {
    topology: &'a Topology,
    users: Vec<Asn>,
    attackers: Vec<Asn>,
    used: BTreeSet<Ipv4Prefix>,
    truths: Vec<GroundTruthEvent>,
    labels: Vec<TruthLabel>,
    actions: Vec<TimedAction>,
}

impl Planner<'_> {
    /// A well-formed RTBH event: /32 inside the user's space, triggers
    /// of every clean provider bundled to all neighbors, IRR in order,
    /// no NO_EXPORT, one sustained phase.
    fn blackhole(&mut self, rng: &mut StdRng, day_start: SimTime) {
        let user = *self.users.choose(rng).expect("non-empty user pool");
        let providers = clean_providers(self.topology, user);
        let Some(prefix) = fresh_host_route(rng, self.topology, user, &mut self.used) else {
            return;
        };
        let start = day_start + SimDuration::secs(rng.gen_range(0..80_000));
        let end = start + SimDuration::mins(rng.gen_range(30..=150));
        let mut communities = CommunitySet::new();
        for p in &providers {
            for c in &p.communities {
                communities.insert(*c);
            }
            if let Some(l) = p.large {
                communities.insert_large(l);
            }
        }
        let truth_index = self.truths.len();
        self.truths.push(GroundTruthEvent {
            prefix,
            user,
            requested: providers.iter().map(|p| p.provider).collect(),
            accepted: Vec::new(),
            phases: vec![(start, end)],
            bundled: true,
            no_export: false,
            irr_registered: true,
            implicit_withdraw: false,
        });
        self.labels.push(TruthLabel {
            prefix,
            start,
            end,
            kind: LabelKind::Blackhole,
            expect_detection: true,
        });
        self.actions.push(TimedAction {
            time: start,
            action: Action::Announce(Announcement {
                origin: user,
                prefix,
                communities,
                scope: AnnounceScope::AllNeighbors,
                irr_registered: true,
                prepend: 1,
            }),
            truth: Some(truth_index),
        });
        self.actions.push(TimedAction {
            time: end,
            action: Action::Withdraw { origin: user, prefix },
            truth: Some(truth_index),
        });
    }

    /// A subprefix hijack: an unrelated stub originates a /32 inside
    /// the victim's space, bundling the *victim's* provider triggers.
    /// The trigger fails authentication everywhere (off-allocation
    /// origin), but the tagged host route propagates — bait for the
    /// bundling heuristic.
    fn hijack(&mut self, rng: &mut StdRng, day_start: SimTime) {
        let victim = *self.users.choose(rng).expect("non-empty user pool");
        let Some(&attacker) =
            self.attackers.choose_multiple(rng, self.attackers.len()).find(|&&a| a != victim)
        else {
            return;
        };
        let providers = clean_providers(self.topology, victim);
        let Some(prefix) = fresh_host_route(rng, self.topology, victim, &mut self.used) else {
            return;
        };
        let start = day_start + SimDuration::secs(rng.gen_range(0..80_000));
        let end = start + SimDuration::mins(rng.gen_range(20..=90));
        let mut communities = CommunitySet::new();
        for p in &providers {
            for c in &p.communities {
                communities.insert(*c);
            }
        }
        self.labels.push(TruthLabel {
            prefix,
            start,
            end,
            kind: LabelKind::Hijack,
            expect_detection: false,
        });
        self.actions.push(TimedAction {
            time: start,
            action: Action::Announce(Announcement {
                origin: attacker,
                prefix,
                communities,
                scope: AnnounceScope::AllNeighbors,
                irr_registered: false,
                prepend: 1,
            }),
            truth: None,
        });
        self.actions.push(TimedAction {
            time: end,
            action: Action::Withdraw { origin: attacker, prefix },
            truth: None,
        });
    }

    /// A stolen-tag hijack: like [`Planner::hijack`], but the attacker
    /// steals the victim providers' harmless *tag* communities
    /// (location/informational documentation) instead of the blackhole
    /// triggers. No correct dictionary should ever bite; one poisoned by
    /// weak-`discard` trap phrasing does, and the negative controls are
    /// scored by how many of these they suppress.
    fn stolen_tag(&mut self, rng: &mut StdRng, day_start: SimTime) {
        let victim = *self.users.choose(rng).expect("non-empty user pool");
        let Some(&attacker) =
            self.attackers.choose_multiple(rng, self.attackers.len()).find(|&&a| a != victim)
        else {
            return;
        };
        let mut communities = CommunitySet::new();
        for p in clean_providers(self.topology, victim) {
            if let Some(info) = self.topology.as_info(p.provider) {
                for &tag in info.tag_communities.iter().take(2) {
                    communities.insert(tag);
                }
            }
        }
        if communities.is_empty() {
            return; // no provider documents classic tags: nothing to steal
        }
        let Some(prefix) = fresh_host_route(rng, self.topology, victim, &mut self.used) else {
            return;
        };
        let start = day_start + SimDuration::secs(rng.gen_range(0..80_000));
        let end = start + SimDuration::mins(rng.gen_range(20..=90));
        self.labels.push(TruthLabel {
            prefix,
            start,
            end,
            kind: LabelKind::Tagged,
            expect_detection: false,
        });
        self.actions.push(TimedAction {
            time: start,
            action: Action::Announce(Announcement {
                origin: attacker,
                prefix,
                communities,
                scope: AnnounceScope::AllNeighbors,
                irr_registered: false,
                prepend: 1,
            }),
            truth: None,
        });
        self.actions.push(TimedAction {
            time: end,
            action: Action::Withdraw { origin: attacker, prefix },
            truth: None,
        });
    }

    /// Prepend-based re-routing: the victim re-announces its own /24
    /// with heavy prepending and no communities at all. The negative
    /// control — nothing here should ever look like blackholing.
    fn reroute(&mut self, rng: &mut StdRng, day_start: SimTime) {
        let user = *self.users.choose(rng).expect("non-empty user pool");
        let Some(info) = self.topology.as_info(user) else { return };
        let Some(allocation) = info.prefixes.iter().find(|p| p.length() <= 24) else {
            return;
        };
        let Some(base) = allocation.nth_addr(0) else { return };
        let Ok(prefix) = Ipv4Prefix::new(base, 24) else { return };
        let start = day_start + SimDuration::secs(rng.gen_range(0..80_000));
        let end = start + SimDuration::mins(rng.gen_range(60..=300));
        self.labels.push(TruthLabel {
            prefix,
            start,
            end,
            kind: LabelKind::Reroute,
            expect_detection: false,
        });
        self.actions.push(TimedAction {
            time: start,
            action: Action::Announce(Announcement {
                origin: user,
                prefix,
                communities: CommunitySet::new(),
                scope: AnnounceScope::AllNeighbors,
                irr_registered: true,
                prepend: rng.gen_range(3..=5),
            }),
            truth: None,
        });
        self.actions.push(TimedAction {
            time: end,
            action: Action::Withdraw { origin: user, prefix },
            truth: None,
        });
    }

    /// A leak-shaped tagged route: the user announces an allocation
    /// *coarser* than the provider's minimum accepted blackhole length
    /// with the trigger attached. The trigger is inert
    /// (`LengthRejected`) yet the tagged route propagates with the
    /// provider on-path — exactly what a blackhole detection looks
    /// like from a collector.
    fn leak(&mut self, rng: &mut StdRng, day_start: SimTime) {
        let user = *self.users.choose(rng).expect("non-empty user pool");
        let Some(info) = self.topology.as_info(user) else { return };
        let providers = clean_providers(self.topology, user);
        let pair = info.prefixes.iter().find_map(|alloc| {
            providers
                .iter()
                .find(|cp| {
                    self.topology
                        .as_info(cp.provider)
                        .and_then(|i| i.blackhole_offering.as_ref())
                        .is_some_and(|o| alloc.length() < o.min_accepted_length)
                })
                .map(|cp| (*alloc, cp))
        });
        let Some((prefix, provider)) = pair else { return };
        let start = day_start + SimDuration::secs(rng.gen_range(0..80_000));
        let end = start + SimDuration::mins(rng.gen_range(60..=240));
        let mut communities = CommunitySet::new();
        for c in &provider.communities {
            communities.insert(*c);
        }
        self.labels.push(TruthLabel {
            prefix,
            start,
            end,
            kind: LabelKind::RouteLeak,
            expect_detection: false,
        });
        self.actions.push(TimedAction {
            time: start,
            action: Action::Announce(Announcement {
                origin: user,
                prefix,
                communities,
                scope: AnnounceScope::AllNeighbors,
                irr_registered: true,
                prepend: 1,
            }),
            truth: None,
        });
        self.actions.push(TimedAction {
            time: end,
            action: Action::Withdraw { origin: user, prefix },
            truth: None,
        });
    }
}

/// Run an adversarial workload over `topology`, returning the collector
/// stream plus the labels to score the inference against.
///
/// Session behaviors are pinned to accept host routes on every session
/// type: the workloads measure what *policies and adversaries* do to
/// the detector, so per-AS behavioral noise is deliberately removed.
pub fn run_adversarial(
    topology: &Topology,
    deployment: CollectorDeployment,
    config: &AdversarialConfig,
) -> AdversarialOutput {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sim = BgpSimulator::new(topology, deployment, config.seed ^ 0xADBE);
    if !config.policy.is_empty() {
        sim.install_policies(&config.policy);
    }
    for info in topology.ases() {
        sim.set_behavior(
            info.asn,
            SessionBehavior { host_routes_from_customers: true, host_routes_from_peers: true },
        );
    }

    let window_start = bh_bgp_types::time::study::visibility_start();
    let mut planner = Planner {
        topology,
        users: cooperative_users(topology),
        attackers: attacker_pool(topology),
        used: BTreeSet::new(),
        truths: Vec::new(),
        labels: Vec::new(),
        actions: Vec::new(),
    };
    assert!(!planner.users.is_empty(), "topology has no cooperative blackholing users");

    let total_days = config.days.max(1);
    for d in 0..total_days {
        let day_start = SimTime::from_unix((window_start.day_index() + d) * 86_400);
        // At least one event of each enabled family on day 0, so short
        // runs exercise every labelled population deterministically.
        let floor = |rate: f64| usize::from(d == 0 && rate > 0.0);
        for _ in
            0..poisson(&mut rng, config.blackholes_per_day).max(floor(config.blackholes_per_day))
        {
            planner.blackhole(&mut rng, day_start);
        }
        for _ in 0..poisson(&mut rng, config.hijacks_per_day).max(floor(config.hijacks_per_day)) {
            planner.hijack(&mut rng, day_start);
        }
        for _ in 0..poisson(&mut rng, config.reroutes_per_day).max(floor(config.reroutes_per_day)) {
            planner.reroute(&mut rng, day_start);
        }
        for _ in 0..poisson(&mut rng, config.leaks_per_day).max(floor(config.leaks_per_day)) {
            planner.leak(&mut rng, day_start);
        }
        for _ in 0..poisson(&mut rng, config.tagged_per_day).max(floor(config.tagged_per_day)) {
            planner.stolen_tag(&mut rng, day_start);
        }
    }

    let Planner { mut truths, labels, mut actions, .. } = planner;
    let announcements = execute(&mut sim, &mut actions, &mut truths);

    AdversarialOutput {
        run_stats: sim.run_stats().clone(),
        elems: sim.drain_elems(),
        ground_truth: truths,
        labels,
        days: total_days,
        announcements,
    }
}

#[cfg(test)]
mod tests {
    use bh_routing::{deploy, CollectorConfig};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    fn run_tiny(config: &AdversarialConfig) -> AdversarialOutput {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        run_adversarial(&t, d, config)
    }

    #[test]
    fn baseline_emits_only_expected_blackhole_labels() {
        let out = run_tiny(&AdversarialConfig::baseline(1, 3, 4.0));
        assert!(!out.labels.is_empty());
        assert!(out.labels.iter().all(|l| l.kind == LabelKind::Blackhole && l.expect_detection));
        assert_eq!(out.labels.len(), out.ground_truth.len());
        assert!(!out.elems.is_empty(), "collectors saw nothing");
    }

    #[test]
    fn hijack_workload_emits_unexpected_hijack_labels() {
        let out = run_tiny(&AdversarialConfig::subprefix_hijack(2, 3, 4.0));
        let hijacks = out.labels.iter().filter(|l| l.kind == LabelKind::Hijack).count();
        assert!(hijacks > 0, "no hijacks scheduled");
        assert!(out
            .labels
            .iter()
            .filter(|l| l.kind == LabelKind::Hijack)
            .all(|l| !l.expect_detection));
        // Hijack prefixes never collide with cooperative ones.
        let mut seen = BTreeSet::new();
        for l in out.labels.iter().filter(|l| l.prefix.is_host_route()) {
            assert!(seen.insert(l.prefix), "duplicate /32 label {}", l.prefix);
        }
    }

    #[test]
    fn leak_workload_schedules_coarse_tagged_routes_and_forces_exports() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        let config = AdversarialConfig::route_leak(&t, 3, 3, 4.0);
        assert!(config.policy.deployed_count() > 0, "no leakers deployed");
        let out = run_adversarial(&t, d, &config);
        let leaks: Vec<_> = out.labels.iter().filter(|l| l.kind == LabelKind::RouteLeak).collect();
        assert!(!leaks.is_empty(), "no leak labels");
        assert!(leaks.iter().all(|l| !l.prefix.is_host_route()), "leaks must be coarse");
        assert!(out.run_stats.exports_forced > 0, "leakers never forced an export");
    }

    #[test]
    fn stolen_tag_workload_emits_tagged_labels_that_reach_collectors() {
        let out = run_tiny(&AdversarialConfig::stolen_tag_hijack(4, 3, 4.0));
        let tagged: Vec<_> = out.labels.iter().filter(|l| l.kind == LabelKind::Tagged).collect();
        assert!(!tagged.is_empty(), "no stolen-tag events scheduled");
        assert!(tagged.iter().all(|l| !l.expect_detection && l.prefix.is_host_route()));
        // The stolen tags survive propagation: collectors see at least
        // one of these host routes still carrying communities.
        let prefixes: BTreeSet<_> = tagged.iter().map(|l| l.prefix).collect();
        assert!(
            out.elems.iter().any(|e| prefixes.contains(&e.prefix) && !e.communities.is_empty()),
            "stolen tags were stripped before reaching any collector"
        );
    }

    #[test]
    fn rov_sweep_deployments_are_nested_and_monotonic() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let mut last = 0;
        for f in [0.0, 0.25, 0.5, 1.0] {
            let config = AdversarialConfig::rov_sweep(&t, 9, 2, 3.0, f);
            let count = config.policy.deployed_count();
            assert!(count >= last, "deployment shrank at fraction {f}");
            last = count;
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_tiny(&AdversarialConfig::subprefix_hijack(7, 2, 4.0));
        let b = run_tiny(&AdversarialConfig::subprefix_hijack(7, 2, 4.0));
        assert_eq!(a.elems.len(), b.elems.len());
        assert_eq!(a.labels.len(), b.labels.len());
        for (x, y) in a.labels.iter().zip(&b.labels) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!((x.start, x.end, x.kind), (y.start, y.end, y.kind));
        }
    }
}
