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

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, CommunitySet};
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_routing::{AnnounceScope, Announcement, BgpSimulator};
use bh_topology::Topology;

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
    /// Index into the scenario's ground-truth vector, when this action
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
    /// Overall start (first phase).
    pub fn start(&self) -> SimTime {
        self.phases.first().map(|(s, _)| *s).unwrap_or(SimTime::ZERO)
    }

    /// Overall end (last phase).
    pub fn end(&self) -> SimTime {
        self.phases.last().map(|(_, e)| *e).unwrap_or(SimTime::ZERO)
    }
}

/// Run `actions` through `sim` in time order (stable, so same-second
/// actions keep their scheduling order), recording in `truths` which
/// providers accepted each blackholing reaction. Returns the number of
/// announcements injected.
pub(crate) fn execute(
    sim: &mut BgpSimulator<'_>,
    actions: &mut [TimedAction],
    truths: &mut [GroundTruthEvent],
) -> u64 {
    actions.sort_by_key(|a| a.time.unix());
    let mut announcements = 0;
    for timed in actions.iter() {
        match &timed.action {
            Action::Announce(a) => {
                announcements += 1;
                let outcome = sim.announce(timed.time, a);
                if let Some(idx) = timed.truth {
                    for asn in outcome.accepted_by {
                        if !truths[idx].accepted.contains(&asn) {
                            truths[idx].accepted.push(asn);
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
    let mut out = Vec::new();
    for &p in &topology.providers_of(user) {
        if let Some(info) = topology.as_info(p) {
            if let Some(o) = &info.blackhole_offering {
                out.push(CapableProvider {
                    announce_to: p,
                    provider: p,
                    communities: o.communities.clone(),
                    large: o.large_community,
                });
            }
        }
    }
    for ixp in topology.ixps() {
        if !ixp.has_member(user) {
            continue;
        }
        if let Some(info) = topology.as_info(ixp.route_server_asn) {
            if let Some(o) = &info.blackhole_offering {
                out.push(CapableProvider {
                    announce_to: ixp.route_server_asn,
                    provider: ixp.route_server_asn,
                    communities: o.communities.clone(),
                    large: o.large_community,
                });
            }
        }
    }
    out
}

/// Reaction-model tunables (defaults follow the paper's findings).
#[derive(Debug, Clone)]
pub struct ReactionConfig {
    /// Probability an event uses the ON/OFF probing pattern.
    pub probing_probability: f64,
    /// Probability a reaction bundles communities to all neighbors.
    pub bundling_probability: f64,
    /// Probability the user attaches NO_EXPORT (RFC 7999 compliance).
    pub no_export_probability: f64,
    /// Probability the user's IRR registration is missing (§10
    /// misconfiguration).
    pub unregistered_probability: f64,
    /// Probability of a long-lived (multi-day) blackhole.
    pub long_lived_probability: f64,
    /// Probability a /24 is blackholed instead of /32s ("blackhole the
    /// whole prefix" strategy).
    pub whole_prefix_probability: f64,
    /// Probability a withdrawal is implicit (re-announce without tags).
    pub implicit_withdraw_probability: f64,
}

impl Default for ReactionConfig {
    fn default() -> Self {
        ReactionConfig {
            probing_probability: 0.7,
            bundling_probability: 0.5,
            no_export_probability: 0.2,
            unregistered_probability: 0.12,
            long_lived_probability: 0.04,
            whole_prefix_probability: 0.02,
            implicit_withdraw_probability: 0.3,
        }
    }
}

/// Plan the reaction of `user` to an attack starting at `start` and
/// lasting `attack_duration`; `intensity` scales the number of attacked
/// hosts. Appends ground truth to `truths` and returns the actions.
#[allow(clippy::too_many_arguments)]
pub fn plan_reaction(
    rng: &mut StdRng,
    topology: &Topology,
    config: &ReactionConfig,
    user: Asn,
    start: SimTime,
    attack_duration: SimDuration,
    intensity: f64,
    truths: &mut Vec<GroundTruthEvent>,
) -> Vec<TimedAction> {
    let mut actions = Vec::new();
    let providers = capable_providers(topology, user);
    if providers.is_empty() {
        return actions;
    }
    let Some(info) = topology.as_info(user) else {
        return actions;
    };
    if info.prefixes.is_empty() {
        return actions;
    }
    let allocation = info.prefixes[rng.gen_range(0..info.prefixes.len())];

    // Victim prefixes: usually 1..k /32s, rarely a whole /24.
    let mut victim_prefixes: Vec<Ipv4Prefix> = Vec::new();
    if rng.gen_bool(config.whole_prefix_probability) && allocation.length() <= 24 {
        let base = allocation.nth_addr(0).expect("allocation non-empty");
        victim_prefixes.push(Ipv4Prefix::new(base, 24).expect("/24 inside allocation"));
    } else {
        let host_count = 1 + crate::attacks::poisson(rng, intensity.clamp(0.0, 12.0));
        for _ in 0..host_count {
            let offset = rng.gen_range(0..allocation.address_count());
            if let Some(addr) = allocation.nth_addr(offset) {
                let host = Ipv4Prefix::host(addr);
                if !victim_prefixes.contains(&host) {
                    victim_prefixes.push(host);
                }
            }
        }
    }

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

    let bundled = rng.gen_bool(config.bundling_probability);
    let no_export = rng.gen_bool(config.no_export_probability);
    let irr_registered = !rng.gen_bool(config.unregistered_probability);
    let implicit_withdraw = rng.gen_bool(config.implicit_withdraw_probability);

    // Trigger communities for the announcement.
    let mut communities = CommunitySet::new();
    for p in &selected {
        for c in &p.communities {
            communities.insert(*c);
        }
        if let Some(l) = p.large {
            communities.insert_large(l);
        }
    }
    if no_export {
        communities.insert(Community::NO_EXPORT);
    }
    let scope = if bundled {
        AnnounceScope::AllNeighbors
    } else {
        AnnounceScope::Neighbors(selected.iter().map(|p| p.announce_to).collect())
    };

    // Phase plan.
    let phases: Vec<(SimTime, SimTime)> = if rng.gen_bool(config.long_lived_probability) {
        // Long-lived regime: days to ~2 months, single phase.
        let days = rng.gen_range(2..=60);
        vec![(start, start + SimDuration::days(days))]
    } else if rng.gen_bool(config.probing_probability) {
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
        let truth_index = truths.len();
        truths.push(GroundTruthEvent {
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
        for &(on, off) in &phases {
            actions.push(TimedAction {
                time: on,
                action: Action::Announce(Announcement {
                    origin: user,
                    prefix,
                    communities: communities.clone(),
                    scope: scope.clone(),
                    irr_registered,
                    prepend: if rng.gen_bool(0.1) { rng.gen_range(2..=4) } else { 1 },
                }),
                truth: Some(truth_index),
            });
            let withdraw_action = if implicit_withdraw {
                // Implicit: re-announce without the blackhole tags.
                Action::Announce(Announcement {
                    origin: user,
                    prefix,
                    communities: CommunitySet::new(),
                    scope: scope.clone(),
                    irr_registered,
                    prepend: 1,
                })
            } else {
                Action::Withdraw { origin: user, prefix }
            };
            actions.push(TimedAction {
                time: off,
                action: withdraw_action,
                truth: Some(truth_index),
            });
        }
    }
    actions
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
        let mut truths = Vec::new();
        let actions = plan_reaction(
            &mut rng,
            &t,
            &ReactionConfig::default(),
            user,
            SimTime::from_unix(1000),
            SimDuration::mins(30),
            2.0,
            &mut truths,
        );
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
        let mut truths = Vec::new();
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            plan_reaction(
                &mut rng,
                &t,
                &ReactionConfig::default(),
                user,
                SimTime::from_unix(5000),
                SimDuration::mins(20),
                1.0,
                &mut truths,
            );
        }
        for truth in &truths {
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
        let mut truths = Vec::new();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            plan_reaction(
                &mut rng,
                &t,
                &ReactionConfig::default(),
                user,
                SimTime::from_unix(5000),
                SimDuration::mins(30),
                1.0,
                &mut truths,
            );
        }
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
        let mut truths = Vec::new();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            plan_reaction(
                &mut rng,
                &t,
                &ReactionConfig::default(),
                user,
                SimTime::from_unix(5000),
                SimDuration::mins(10),
                3.0,
                &mut truths,
            );
        }
        for truth in &truths {
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
        let mut truths = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let actions = plan_reaction(
            &mut rng,
            &t,
            &ReactionConfig::default(),
            rs,
            SimTime::from_unix(0),
            SimDuration::mins(5),
            1.0,
            &mut truths,
        );
        assert!(actions.is_empty());
        assert!(truths.is_empty());
    }
}
