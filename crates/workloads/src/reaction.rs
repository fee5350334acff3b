//! Operator reaction model: how a victim network uses blackholing.
//!
//! Reproduces the practices §9 uncovered:
//!
//! * mostly /32 host routes (98 % of blackholed IPv4 prefixes),
//! * multi-provider blackholing (28 % of events involve several
//!   providers, up to 20),
//! * community *bundling* to all neighbors vs. *targeted* announcements
//!   (bundling accounts for ~half of all detections),
//! * the ON/OFF probing pattern (>70 % of ungrouped events last ≤1
//!   minute; 5-minute grouping collapses them),
//! * long-lived and very-long-lived regimes (weeks/months: reputation
//!   blocking, forgotten entries),
//! * RFC 7999 NO_EXPORT compliance by a minority of users,
//! * misconfigurations: missing IRR registration (route servers refuse to
//!   redistribute) and wrong communities.
//!
//! How often each practice occurs is a constant below, not an option:
//! no run of this repository ever used a second value, and a fidelity
//! fix (an `expected-divergence` of `EXPERIMENTS.md`) edits the constant
//! and the one planner that reads it.
//!
//! Everything a scenario plans goes through one [`Schedule`]: planners
//! ([`plan_reaction`], the Spike-A accident, the adversarial catalog)
//! decide *who* announces *which* prefix *when* with *which* tags, and
//! [`Schedule::pulse`] is the only place that spells the
//! announce-then-take-back pair.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{LabelKind, TruthLabel};
use bh_routing::{AnnounceScope, Announcement, BgpSimulator};
use bh_topology::{NetworkType, Tier, Topology};

/// Probability a reaction uses the ON/OFF probing pattern (Fig. 8:
/// > 70 % of ungrouped events last ≤ 1 minute).
pub const PROBING_PROBABILITY: f64 = 0.7;
/// Probability a reaction bundles its communities to all neighbors
/// (Fig. 7(c): bundling accounts for ~half of all detections).
pub const BUNDLING_PROBABILITY: f64 = 0.5;
/// Probability the user attaches NO_EXPORT (RFC 7999 compliance).
pub const NO_EXPORT_PROBABILITY: f64 = 0.2;
/// Probability the user's IRR registration is missing (§10
/// misconfiguration).
pub const UNREGISTERED_PROBABILITY: f64 = 0.12;
/// Probability of a long-lived (multi-day) blackhole.
pub const LONG_LIVED_PROBABILITY: f64 = 0.04;
/// Probability a /24 is blackholed instead of /32s ("blackhole the
/// whole prefix" strategy).
pub const WHOLE_PREFIX_PROBABILITY: f64 = 0.02;
/// Probability a withdrawal is implicit (re-announce without tags).
pub const IMPLICIT_WITHDRAW_PROBABILITY: f64 = 0.3;
/// Mean attacked hosts per attack, beyond the first.
pub const ATTACK_INTENSITY: f64 = 1.5;

/// One scheduled routing action.
#[derive(Debug, Clone)]
pub enum Action {
    /// Inject an announcement.
    Announce(Announcement),
    /// Withdraw an origin's prefix.
    Withdraw {
        /// The withdrawing origin.
        origin: Asn,
        /// The prefix.
        prefix: Ipv4Prefix,
    },
}

/// A timed action, linked to its ground-truth record.
#[derive(Debug, Clone)]
pub struct TimedAction {
    /// When the action fires.
    pub time: SimTime,
    /// What happens.
    pub action: Action,
    /// Index into the schedule's ground-truth vector, when this action
    /// belongs to a blackholing reaction.
    pub truth: Option<usize>,
}

/// Ground truth for one blackholing reaction (one prefix).
#[derive(Debug, Clone)]
pub struct GroundTruthEvent {
    /// The blackholed prefix.
    pub prefix: Ipv4Prefix,
    /// The blackholing user.
    pub user: Asn,
    /// Providers the user asked (ASNs; route servers for IXPs).
    pub requested: Vec<Asn>,
    /// Providers that actually accepted (filled during execution).
    pub accepted: Vec<Asn>,
    /// ON phases: (start, end) of each blackhole pulse.
    pub phases: Vec<(SimTime, SimTime)>,
    /// Whether communities were bundled to all neighbors.
    pub bundled: bool,
    /// Whether NO_EXPORT was attached.
    pub no_export: bool,
    /// Whether the user's IRR registration is in order.
    pub irr_registered: bool,
    /// Whether the withdrawal is implicit (re-announce without tags).
    pub implicit_withdraw: bool,
}

impl GroundTruthEvent {
    /// The well-formed request: one sustained phase, every provider of
    /// `providers` asked, bundled to all neighbors, IRR in order, no
    /// NO_EXPORT, explicit withdrawal.
    pub(crate) fn bundled(
        prefix: Ipv4Prefix,
        user: Asn,
        providers: &[CapableProvider],
        window: (SimTime, SimTime),
    ) -> Self {
        GroundTruthEvent {
            prefix,
            user,
            requested: providers.iter().map(|p| p.provider).collect(),
            accepted: Vec::new(),
            phases: vec![window],
            bundled: true,
            no_export: false,
            irr_registered: true,
            implicit_withdraw: false,
        }
    }

    /// Overall start (first phase).
    pub fn start(&self) -> SimTime {
        self.phases.first().map(|(s, _)| *s).unwrap_or(SimTime::ZERO)
    }

    /// Overall end (last phase).
    pub fn end(&self) -> SimTime {
        self.phases.last().map(|(_, e)| *e).unwrap_or(SimTime::ZERO)
    }
}

/// Everything a scenario plans before the simulator runs: the timed
/// actions, the ground truth of the cooperative reactions among them
/// and, for adversarial runs, the label of every scheduled event.
#[derive(Debug, Default)]
pub struct Schedule {
    /// Actions in scheduling order ([`Schedule::run`] sorts them by time).
    pub actions: Vec<TimedAction>,
    /// Ground truth, indexed by [`TimedAction::truth`].
    pub truths: Vec<GroundTruthEvent>,
    /// Confusion-scoring labels (adversarial catalog only).
    pub labels: Vec<TruthLabel>,
}

impl Schedule {
    /// Record a reaction's ground truth; the returned index links its
    /// pulses to it.
    pub fn truth(&mut self, event: GroundTruthEvent) -> usize {
        self.truths.push(event);
        self.truths.len() - 1
    }

    /// Announce `route` at `on` and take it back at `off` — by an
    /// explicit withdrawal or, when `implicit`, by re-announcing it
    /// without communities or prepending (§4.2's implicit withdrawal).
    pub fn pulse(
        &mut self,
        route: Announcement,
        (on, off): (SimTime, SimTime),
        implicit: bool,
        truth: Option<usize>,
    ) {
        let take_back = if implicit {
            Action::Announce(Announcement {
                communities: CommunitySet::new(),
                prepend: 1,
                ..route.clone()
            })
        } else {
            Action::Withdraw { origin: route.origin, prefix: route.prefix }
        };
        self.actions.push(TimedAction { time: on, action: Action::Announce(route), truth });
        self.actions.push(TimedAction { time: off, action: take_back, truth });
    }

    /// A [`pulse`](Self::pulse) with an explicit withdrawal, labelled for
    /// confusion scoring: only [`LabelKind::Blackhole`] is something the
    /// detector is expected to find.
    pub fn labelled_pulse(
        &mut self,
        route: Announcement,
        (start, end): (SimTime, SimTime),
        kind: LabelKind,
        truth: Option<usize>,
    ) {
        self.labels.push(TruthLabel {
            prefix: route.prefix,
            start,
            end,
            kind,
            expect_detection: kind == LabelKind::Blackhole,
        });
        self.pulse(route, (start, end), false, truth);
    }

    /// Run the actions through `sim` in time order (stable, so
    /// same-second actions keep their scheduling order), recording in
    /// `truths` which providers accepted each blackholing reaction.
    /// Returns the number of announcements injected.
    pub fn run(&mut self, sim: &mut BgpSimulator<'_>) -> u64 {
        self.actions.sort_by_key(|a| a.time.unix());
        let mut announcements = 0;
        for timed in &self.actions {
            match &timed.action {
                Action::Announce(a) => {
                    announcements += 1;
                    let outcome = sim.announce(timed.time, a);
                    if let Some(idx) = timed.truth {
                        for asn in outcome.accepted_by {
                            if !self.truths[idx].accepted.contains(&asn) {
                                self.truths[idx].accepted.push(asn);
                            }
                        }
                    }
                }
                Action::Withdraw { origin, prefix } => {
                    sim.withdraw(timed.time, *origin, *prefix);
                }
            }
        }
        announcements
    }
}

/// A provider available to a user, with the communities that trigger it.
#[derive(Debug, Clone)]
pub struct CapableProvider {
    /// Who to announce to (the provider itself, or the IXP route server).
    pub announce_to: Asn,
    /// The provider's ASN as recorded in ground truth (RS ASN for IXPs).
    pub provider: Asn,
    /// Trigger communities.
    pub communities: Vec<Community>,
    /// Large-community trigger, if the provider uses one.
    pub large: Option<bh_bgp_types::community::LargeCommunity>,
}

/// Find the blackholing-capable providers of a user: direct providers
/// with an offering plus route servers of IXPs the user is a member of.
pub fn capable_providers(topology: &Topology, user: Asn) -> Vec<CapableProvider> {
    let direct = topology.providers_of(user);
    let route_servers =
        topology.ixps().iter().filter(|ixp| ixp.has_member(user)).map(|ixp| ixp.route_server_asn);
    direct
        .into_iter()
        .chain(route_servers)
        .filter_map(|asn| {
            let offering = topology.as_info(asn)?.blackhole_offering.as_ref()?;
            Some(CapableProvider {
                announce_to: asn,
                provider: asn,
                communities: offering.communities.clone(),
                large: offering.large_community,
            })
        })
        .collect()
}

/// The union of the providers' trigger communities (classic and RFC 8092
/// large) — what a user attaches to ask all of them at once.
pub fn triggers<'a>(providers: impl IntoIterator<Item = &'a CapableProvider>) -> CommunitySet {
    let mut communities = CommunitySet::new();
    for p in providers {
        for c in &p.communities {
            communities.insert(*c);
        }
        if let Some(l) = p.large {
            communities.insert_large(l);
        }
    }
    communities
}

/// Up to two of each network's classic *tag* communities (relationship,
/// location, TE — never a trigger): what routes crossing `networks`
/// carry beside any blackhole request.
pub(crate) fn sampled_tags(
    topology: &Topology,
    networks: impl IntoIterator<Item = Asn>,
) -> CommunitySet {
    let mut communities = CommunitySet::new();
    for info in networks.into_iter().filter_map(|asn| topology.as_info(asn)) {
        for c in info.tag_communities.iter().take(2) {
            communities.insert(*c);
        }
    }
    communities
}

/// The networks that can play the blackholing user: edge and transit
/// networks with address space and at least one provider `providers_of`
/// finds for them. Sorted by ASN.
pub fn eligible_users(
    topology: &Topology,
    providers_of: impl Fn(&Topology, Asn) -> Vec<CapableProvider>,
) -> Vec<Asn> {
    let mut users: Vec<Asn> = topology
        .ases()
        .filter(|i| matches!(i.tier, Tier::Stub | Tier::Transit))
        .filter(|i| i.network_type != NetworkType::Ixp)
        .filter(|i| !i.prefixes.is_empty())
        .filter(|i| !providers_of(topology, i.asn).is_empty())
        .map(|i| i.asn)
        .collect();
    users.sort_unstable();
    users
}

/// The `k`-th /24 of `allocation`, if it has one.
pub(crate) fn slash24_of(allocation: &Ipv4Prefix, k: u64) -> Option<Ipv4Prefix> {
    Ipv4Prefix::new(allocation.nth_addr(k * 256)?, 24).ok()
}

/// Plan the reaction of `user` to an attack starting at `start` and
/// lasting `attack_duration`: which prefixes it blackholes, at which
/// providers, how tagged and in which ON phases. Appends the ground
/// truth and the pulses to `schedule`; a user without capable providers
/// or address space does nothing.
pub fn plan_reaction(
    rng: &mut StdRng,
    topology: &Topology,
    user: Asn,
    start: SimTime,
    attack_duration: SimDuration,
    schedule: &mut Schedule,
) {
    let providers = capable_providers(topology, user);
    if providers.is_empty() {
        return;
    }
    let Some(info) = topology.as_info(user) else { return };
    if info.prefixes.is_empty() {
        return;
    }
    let allocation = info.prefixes[rng.gen_range(0..info.prefixes.len())];

    // Victim prefixes: usually 1..k /32s, rarely a whole /24.
    let whole_prefix = rng.gen_bool(WHOLE_PREFIX_PROBABILITY) && allocation.length() <= 24;
    let victim_prefixes = match slash24_of(&allocation, 0) {
        Some(p24) if whole_prefix => vec![p24],
        _ => {
            let mut hosts: Vec<Ipv4Prefix> = Vec::new();
            for _ in 0..1 + crate::attacks::poisson(rng, ATTACK_INTENSITY) {
                let offset = rng.gen_range(0..allocation.address_count());
                if let Some(host) = allocation.nth_addr(offset).map(Ipv4Prefix::host) {
                    if !hosts.contains(&host) {
                        hosts.push(host);
                    }
                }
            }
            hosts
        }
    };

    // Provider selection: 72% single, multi otherwise (heavy tail).
    let selected: Vec<&CapableProvider> = {
        let count = if providers.len() == 1 || rng.gen_bool(0.72) {
            1
        } else {
            let max = providers.len().min(8);
            2 + crate::attacks::poisson(rng, 0.8).min(max - 2)
        };
        let mut picked: Vec<&CapableProvider> = providers.choose_multiple(rng, count).collect();
        picked.sort_by_key(|p| p.provider);
        picked
    };

    let bundled = rng.gen_bool(BUNDLING_PROBABILITY);
    let no_export = rng.gen_bool(NO_EXPORT_PROBABILITY);
    let irr_registered = !rng.gen_bool(UNREGISTERED_PROBABILITY);
    let implicit_withdraw = rng.gen_bool(IMPLICIT_WITHDRAW_PROBABILITY);

    let mut communities = triggers(selected.iter().copied());
    if no_export {
        communities.insert(Community::NO_EXPORT);
    }
    let scope = if bundled {
        AnnounceScope::AllNeighbors
    } else {
        AnnounceScope::Neighbors(selected.iter().map(|p| p.announce_to).collect())
    };

    // Phase plan.
    let phases: Vec<(SimTime, SimTime)> = if rng.gen_bool(LONG_LIVED_PROBABILITY) {
        // Long-lived regime: days to ~2 months, single phase.
        let days = rng.gen_range(2..=60);
        vec![(start, start + SimDuration::days(days))]
    } else if rng.gen_bool(PROBING_PROBABILITY) {
        // ON/OFF probing until the attack ends.
        let mut phases = Vec::new();
        let mut t = start;
        let deadline = start + attack_duration;
        while t < deadline && phases.len() < 50 {
            let on = SimDuration::secs(rng.gen_range(20..=100));
            let end = t + on;
            phases.push((t, end));
            let off = SimDuration::secs(rng.gen_range(20..=120));
            t = end + off;
        }
        phases
    } else {
        // Single sustained blackhole for the attack duration (minutes to
        // hours).
        vec![(start, start + attack_duration)]
    };

    for prefix in victim_prefixes {
        let truth = schedule.truth(GroundTruthEvent {
            prefix,
            user,
            requested: selected.iter().map(|p| p.provider).collect(),
            accepted: Vec::new(),
            phases: phases.clone(),
            bundled,
            no_export,
            irr_registered,
            implicit_withdraw,
        });
        for &phase in &phases {
            let route = Announcement {
                origin: user,
                prefix,
                communities: communities.clone(),
                scope: scope.clone(),
                irr_registered,
                prepend: if rng.gen_bool(0.1) { rng.gen_range(2..=4) } else { 1 },
            };
            schedule.pulse(route, phase, implicit_withdraw, Some(truth));
        }
    }
}

#[cfg(test)]
mod tests {
    use bh_topology::{TopologyBuilder, TopologyConfig};
    use rand::SeedableRng;

    use super::*;

    fn topology() -> Topology {
        TopologyBuilder::new(TopologyConfig::tiny(77)).build()
    }

    fn a_user(t: &Topology) -> Asn {
        t.ases()
            .find(|i| {
                !i.prefixes.is_empty()
                    && i.tier == bh_topology::Tier::Stub
                    && !capable_providers(t, i.asn).is_empty()
            })
            .expect("capable user exists")
            .asn
    }

    #[test]
    fn capable_providers_cover_transit_and_ixp() {
        let t = topology();
        let mut transit_capable = 0;
        let mut ixp_capable = 0;
        for info in t.ases() {
            for cp in capable_providers(&t, info.asn) {
                if t.ixp_by_route_server(cp.provider).is_some() {
                    ixp_capable += 1;
                } else {
                    transit_capable += 1;
                }
            }
        }
        assert!(transit_capable > 0);
        assert!(ixp_capable > 0);
    }

    #[test]
    fn reaction_produces_matched_announce_withdraw_pairs() {
        let t = topology();
        let user = a_user(&t);
        let mut rng = StdRng::seed_from_u64(3);
        let mut schedule = Schedule::default();
        let (start, duration) = (SimTime::from_unix(1000), SimDuration::mins(30));
        plan_reaction(&mut rng, &t, user, start, duration, &mut schedule);
        let Schedule { actions, truths, .. } = schedule;
        assert!(!actions.is_empty());
        assert!(!truths.is_empty());
        // Every action is linked to a truth record; counts per truth are
        // even (announce/withdraw pairs).
        let mut per_truth: std::collections::BTreeMap<usize, usize> = Default::default();
        for a in &actions {
            *per_truth.entry(a.truth.expect("linked")).or_default() += 1;
        }
        for (truth_idx, count) in per_truth {
            assert_eq!(count % 2, 0, "odd action count for truth {truth_idx}");
            assert_eq!(count / 2, truths[truth_idx].phases.len());
        }
    }

    #[test]
    fn phases_are_ordered_and_disjoint() {
        let t = topology();
        let user = a_user(&t);
        let mut schedule = Schedule::default();
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (start, duration) = (SimTime::from_unix(5000), SimDuration::mins(20));
            plan_reaction(&mut rng, &t, user, start, duration, &mut schedule);
        }
        for truth in &schedule.truths {
            for w in truth.phases.windows(2) {
                assert!(w[0].1 < w[1].0, "phases overlap: {:?}", truth.phases);
            }
            for (on, off) in &truth.phases {
                assert!(on < off);
            }
            assert!(truth.start() <= truth.end());
        }
    }

    #[test]
    fn probing_dominates_with_default_config() {
        let t = topology();
        let user = a_user(&t);
        let mut schedule = Schedule::default();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let (start, duration) = (SimTime::from_unix(5000), SimDuration::mins(30));
            plan_reaction(&mut rng, &t, user, start, duration, &mut schedule);
        }
        let truths = schedule.truths;
        let multi_phase = truths.iter().filter(|t| t.phases.len() > 1).count();
        assert!(
            multi_phase * 2 > truths.len(),
            "probing should dominate: {multi_phase}/{}",
            truths.len()
        );
        // Host routes dominate (98% in the paper).
        let host = truths.iter().filter(|t| t.prefix.is_host_route()).count();
        assert!(host * 10 >= truths.len() * 9);
    }

    #[test]
    fn victim_prefixes_are_inside_the_users_allocation() {
        let t = topology();
        let user = a_user(&t);
        let alloc = &t.as_info(user).unwrap().prefixes;
        let mut schedule = Schedule::default();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let (start, duration) = (SimTime::from_unix(5000), SimDuration::mins(10));
            plan_reaction(&mut rng, &t, user, start, duration, &mut schedule);
        }
        for truth in &schedule.truths {
            assert!(
                alloc.iter().any(|a| a.contains(&truth.prefix)),
                "{} outside allocation",
                truth.prefix
            );
            assert_eq!(truth.user, user);
            assert!(!truth.requested.is_empty());
        }
    }

    #[test]
    fn users_without_capable_providers_do_nothing() {
        let t = topology();
        // A route-server ASN has no providers.
        let rs = t.ixps()[0].route_server_asn;
        let mut schedule = Schedule::default();
        let mut rng = StdRng::seed_from_u64(1);
        let (start, duration) = (SimTime::from_unix(0), SimDuration::mins(5));
        plan_reaction(&mut rng, &t, rs, start, duration, &mut schedule);
        assert!(schedule.actions.is_empty());
        assert!(schedule.truths.is_empty());
    }
}
