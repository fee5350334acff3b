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
//! Each family is one `Planner` method that decides who announces
//! which prefix when and with which tags; the announce/withdraw pair
//! and the label are written by
//! [`Schedule::labelled_pulse`](crate::reaction::Schedule::labelled_pulse).
//! Every scheduled event also emits a [`TruthLabel`], so a
//! [`ConfusionAccumulator`](bh_core::ConfusionAccumulator) can turn the
//! inferred events into a confusion report with per-kind false-positive
//! attribution.
//!
//! Workloads may additionally install a per-AS [`PolicyTable`] — the
//! ROV sweep ([`AdversarialConfig::rov_sweep`]) deploys strict ROAs
//! plus origin validation at a nested fraction of transit networks,
//! and the route-leak workload turns real transit ASes into `leaker`s
//! that export past the valley-free rule.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::CommunitySet;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{LabelKind, TruthLabel};
use bh_routing::{
    Announcement, BgpElem, BgpSimulator, CollectorDeployment, RunStats, SessionBehavior,
};
use bh_topology::{DocumentationChannel, NetworkType, PolicyTable, RoaTable, Tier, Topology};

use crate::attacks::poisson;
use crate::reaction::{
    capable_providers, eligible_users, sampled_tags, slash24_of, triggers, CapableProvider,
    GroundTruthEvent, Schedule,
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
    /// adversarial) — feed to a
    /// [`ConfusionAccumulator`](bh_core::ConfusionAccumulator).
    pub labels: Vec<TruthLabel>,
    /// Per-reason / per-extension rejection accounting from the run.
    pub run_stats: RunStats,
    /// Days simulated.
    pub days: u64,
    /// Total announcements injected.
    pub announcements: u64,
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

/// An event window inside the day: a uniformly drawn start, then a
/// duration of `minutes`.
fn window(
    rng: &mut StdRng,
    day_start: SimTime,
    minutes: RangeInclusive<u64>,
) -> (SimTime, SimTime) {
    let start = day_start + SimDuration::secs(rng.gen_range(0..80_000));
    (start, start + SimDuration::mins(rng.gen_range(minutes)))
}

/// What the catalog's event families share: the world, the hijacker
/// pool, the /32s already used and the schedule they write to. Each
/// method plans one event for the `user` (or victim) the driver drew.
struct Planner<'a> {
    topology: &'a Topology,
    attackers: Vec<Asn>,
    used: BTreeSet<Ipv4Prefix>,
    schedule: Schedule,
}

/// One event family of the catalog, as the driver calls it.
type PlanEvent<'a> = fn(&mut Planner<'a>, &mut StdRng, Asn, SimTime);

impl Planner<'_> {
    /// An unused /32 inside one of `user`'s allocations, so no two events
    /// ever share a prefix (exact-prefix label matching stays unambiguous).
    fn fresh_host_route(&mut self, rng: &mut StdRng, user: Asn) -> Option<Ipv4Prefix> {
        let info = self.topology.as_info(user)?;
        let allocation = info.prefixes.choose(rng)?;
        for _ in 0..64 {
            let offset = rng.gen_range(0..allocation.address_count());
            let host = Ipv4Prefix::host(allocation.nth_addr(offset)?);
            if self.used.insert(host) {
                return Some(host);
            }
        }
        None
    }

    /// A stub other than `victim` to originate a hijack.
    fn attacker(&self, rng: &mut StdRng, victim: Asn) -> Option<Asn> {
        self.attackers.choose_multiple(rng, self.attackers.len()).find(|&&a| a != victim).copied()
    }

    /// A well-formed RTBH event: /32 inside the user's space, triggers
    /// of every clean provider bundled to all neighbors, IRR in order,
    /// no NO_EXPORT, one sustained phase.
    fn blackhole(&mut self, rng: &mut StdRng, user: Asn, day_start: SimTime) {
        let providers = clean_providers(self.topology, user);
        let Some(prefix) = self.fresh_host_route(rng, user) else { return };
        let window = window(rng, day_start, 30..=150);
        let truth =
            self.schedule.truth(GroundTruthEvent::bundled(prefix, user, &providers, window));
        let route = Announcement::simple(user, prefix, triggers(&providers));
        self.schedule.labelled_pulse(route, window, LabelKind::Blackhole, Some(truth));
    }

    /// A subprefix hijack: an unrelated stub originates a /32 inside
    /// the victim's space, bundling the *victim's* provider triggers.
    /// The trigger fails authentication everywhere (off-allocation
    /// origin), but the tagged host route propagates — bait for the
    /// bundling heuristic.
    fn hijack(&mut self, rng: &mut StdRng, victim: Asn, day_start: SimTime) {
        let Some(attacker) = self.attacker(rng, victim) else { return };
        let communities = triggers(&clean_providers(self.topology, victim));
        let Some(prefix) = self.fresh_host_route(rng, victim) else { return };
        let window = window(rng, day_start, 20..=90);
        let route = Announcement {
            irr_registered: false,
            ..Announcement::simple(attacker, prefix, communities)
        };
        self.schedule.labelled_pulse(route, window, LabelKind::Hijack, None);
    }

    /// A stolen-tag hijack: like [`Planner::hijack`], but the attacker
    /// steals the victim providers' harmless *tag* communities
    /// (location/informational documentation) instead of the blackhole
    /// triggers. No correct dictionary should ever bite; one poisoned by
    /// weak-`discard` trap phrasing does, and the negative controls are
    /// scored by how many of these they suppress.
    fn stolen_tag(&mut self, rng: &mut StdRng, victim: Asn, day_start: SimTime) {
        let Some(attacker) = self.attacker(rng, victim) else { return };
        let providers = clean_providers(self.topology, victim);
        let communities = sampled_tags(self.topology, providers.iter().map(|p| p.provider));
        if communities.is_empty() {
            return; // no provider documents classic tags: nothing to steal
        }
        let Some(prefix) = self.fresh_host_route(rng, victim) else { return };
        let window = window(rng, day_start, 20..=90);
        let route = Announcement {
            irr_registered: false,
            ..Announcement::simple(attacker, prefix, communities)
        };
        self.schedule.labelled_pulse(route, window, LabelKind::Tagged, None);
    }

    /// Prepend-based re-routing: the victim re-announces its own /24
    /// with heavy prepending and no communities at all. The negative
    /// control — nothing here should ever look like blackholing.
    fn reroute(&mut self, rng: &mut StdRng, user: Asn, day_start: SimTime) {
        let Some(info) = self.topology.as_info(user) else { return };
        let Some(allocation) = info.prefixes.iter().find(|p| p.length() <= 24) else { return };
        let Some(prefix) = slash24_of(allocation, 0) else { return };
        let window = window(rng, day_start, 60..=300);
        let route = Announcement {
            prepend: rng.gen_range(3..=5),
            ..Announcement::simple(user, prefix, CommunitySet::new())
        };
        self.schedule.labelled_pulse(route, window, LabelKind::Reroute, None);
    }

    /// A leak-shaped tagged route: the user announces an allocation
    /// *coarser* than the provider's minimum accepted blackhole length
    /// with the trigger attached. The trigger is inert
    /// (`LengthRejected`) yet the tagged route propagates with the
    /// provider on-path — exactly what a blackhole detection looks
    /// like from a collector.
    fn leak(&mut self, rng: &mut StdRng, user: Asn, day_start: SimTime) {
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
        let window = window(rng, day_start, 60..=240);
        let route = Announcement::simple(user, prefix, triggers([provider]));
        self.schedule.labelled_pulse(route, window, LabelKind::RouteLeak, None);
    }
}

/// Run an adversarial workload over `topology`, returning the collector
/// stream plus the labels to score the inference against.
///
/// Session behaviors are pinned to accept host routes on every session
/// type: the workloads measure what *policies and adversaries* do to
/// the detector, so per-AS behavioral noise is deliberately removed.
///
/// A world without a cooperative user (nobody has a clean provider)
/// schedules nothing: the output is empty, not a panic.
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
    let users = eligible_users(topology, clean_providers);
    let mut planner = Planner {
        topology,
        attackers: attacker_pool(topology),
        used: BTreeSet::new(),
        schedule: Schedule::default(),
    };
    let families: [(f64, PlanEvent<'_>); 5] = [
        (config.blackholes_per_day, Planner::blackhole),
        (config.hijacks_per_day, Planner::hijack),
        (config.reroutes_per_day, Planner::reroute),
        (config.leaks_per_day, Planner::leak),
        (config.tagged_per_day, Planner::stolen_tag),
    ];

    let total_days = config.days.max(1);
    for d in 0..total_days {
        let day_start = SimTime::from_unix((window_start.day_index() + d) * 86_400);
        for (rate, plan) in families {
            // At least one event of each enabled family on day 0, so short
            // runs exercise every labelled population deterministically.
            let floor = usize::from(d == 0 && rate > 0.0);
            for _ in 0..poisson(&mut rng, rate).max(floor) {
                let Some(&user) = users.choose(&mut rng) else { break };
                plan(&mut planner, &mut rng, user, day_start);
            }
        }
    }

    let mut schedule = planner.schedule;
    let announcements = schedule.run(&mut sim);

    AdversarialOutput {
        run_stats: sim.run_stats().clone(),
        elems: sim.drain_elems(),
        ground_truth: schedule.truths,
        labels: schedule.labels,
        days: total_days,
        announcements,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use bh_routing::{deploy, CollectorConfig};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    fn run_tiny(config: &AdversarialConfig) -> AdversarialOutput {
        let t = TopologyBuilder::new(TopologyConfig::tiny(55)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        run_adversarial(&t, d, config)
    }

    /// `TopologyConfig::tiny(seed)` with every blackholing population at
    /// zero: public input under which no user is eligible.
    pub(crate) fn no_offerings(seed: u64) -> TopologyConfig {
        let none = bh_topology::ProviderCounts { documented: 0, undocumented: 0 };
        TopologyConfig {
            bh_transit: none,
            bh_ixp: 0,
            bh_content: none,
            bh_edu: none,
            bh_enterprise: none,
            bh_unknown: none,
            ..TopologyConfig::tiny(seed)
        }
    }

    #[test]
    fn world_without_cooperative_users_schedules_nothing() {
        let t = TopologyBuilder::new(no_offerings(3)).build();
        let d = deploy(&t, &CollectorConfig::tiny(6));
        let out = run_adversarial(&t, d, &AdversarialConfig::subprefix_hijack(1, 2, 4.0));
        assert!(out.labels.is_empty() && out.ground_truth.is_empty() && out.elems.is_empty());
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
