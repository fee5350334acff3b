//! IPFIX-style flow measurement at an IXP (Fig. 9(c) and the §10 passive
//! validation).
//!
//! Models the paper's setup: traffic traces sampled 1:10,000 from the
//! switching fabric of a major IXP. Members send traffic toward blackholed
//! prefixes; members that honor the route server's blackhole route drop
//! at their ingress (traffic counted *below* the zero line), members that
//! don't honor it — because they filter /32s or don't use the route
//! server — keep forwarding (*above* the line). The paper found 80 % of
//! the still-forwarded traffic came from fewer than ten members.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::{SimDuration, SimTime};
use bh_topology::Ixp;

/// Sampling rate of the IPFIX traces (1 out of `SAMPLING_RATE` packets).
pub const SAMPLING_RATE: u64 = 10_000;

/// Why a member keeps sending traffic to a blackholed prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IgnoreReason {
    /// The member filters /32 announcements (router config not updated).
    FiltersHostRoutes,
    /// The member does not peer with the route server at all.
    NoRouteServerSession,
}

/// Per-member behavior toward blackhole routes at this IXP.
#[derive(Debug, Clone)]
pub struct MemberBehavior {
    /// The member.
    pub asn: Asn,
    /// `None` = honors the blackhole (drops); `Some(reason)` = keeps
    /// forwarding.
    pub ignores: Option<IgnoreReason>,
    /// Mean traffic rate toward a popular destination (packets/second,
    /// pre-sampling).
    pub mean_rate: f64,
}

/// One hour of traffic to one blackholed prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourPoint {
    /// Hour start.
    pub time: SimTime,
    /// Sampled packets dropped at member ingress (the below-zero stack).
    pub dropped: u64,
    /// Sampled packets still forwarded across the fabric.
    pub forwarded: u64,
}

/// The flow experiment for one IXP.
pub struct FlowSim {
    members: Vec<MemberBehavior>,
    rng: StdRng,
}

impl FlowSim {
    /// Build per-member behaviors for an IXP. `honor_fraction` is the
    /// share of members that accept and honor the /32 blackhole route
    /// (the paper's one-day validation found about one third of traffic
    /// sources dropping).
    pub fn new(ixp: &Ixp, honor_fraction: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut members = Vec::with_capacity(ixp.members.len());
        for &asn in &ixp.members {
            let ignores = if rng.gen_bool(honor_fraction) {
                None
            } else if rng.gen_bool(0.6) {
                Some(IgnoreReason::FiltersHostRoutes)
            } else {
                Some(IgnoreReason::NoRouteServerSession)
            };
            // Heavy-tailed member rates: a few members dominate traffic
            // (80 % of leaked traffic from <10 members).
            let mean_rate = if rng.gen_bool(0.08) {
                rng.gen_range(20_000.0..120_000.0)
            } else {
                rng.gen_range(50.0..2_000.0)
            };
            members.push(MemberBehavior { asn, ignores, mean_rate });
        }
        FlowSim { members, rng }
    }

    /// The member behaviors (for reporting).
    pub fn members(&self) -> &[MemberBehavior] {
        &self.members
    }

    /// Simulate one week of hourly traffic toward a blackholed prefix
    /// that stays blackholed throughout (the Fig. 9(c) setting), starting
    /// at `start`.
    pub fn week_series(&mut self, start: SimTime, senders: usize) -> Vec<HourPoint> {
        let sender_set: Vec<MemberBehavior> =
            self.members.iter().take(senders.min(self.members.len())).cloned().collect();
        let mut out = Vec::with_capacity(24 * 7);
        for hour in 0..(24 * 7) {
            let time = start + SimDuration::hours(hour);
            // Diurnal modulation: peak in the evening, trough at night.
            let tod = (hour % 24) as f64;
            let diurnal = 0.6
                + 0.4 * (-((tod - 19.0) * (tod - 19.0)) / 40.0).exp()
                + 0.25 * (-((tod - 12.0) * (tod - 12.0)) / 60.0).exp();
            let mut dropped = 0u64;
            let mut forwarded = 0u64;
            for member in &sender_set {
                let packets = member.mean_rate * 3600.0 * diurnal * self.rng.gen_range(0.85..1.15);
                let sampled = (packets / SAMPLING_RATE as f64).round() as u64;
                if member.ignores.is_some() {
                    forwarded += sampled;
                } else {
                    dropped += sampled;
                }
            }
            out.push(HourPoint { time, dropped, forwarded });
        }
        out
    }

    /// §10 one-day validation: of the members sending traffic to
    /// blackholed /32s, what fraction drop for at least one of them?
    pub fn dropping_member_fraction(&self) -> f64 {
        let dropping = self.members.iter().filter(|m| m.ignores.is_none()).count();
        if self.members.is_empty() {
            0.0
        } else {
            dropping as f64 / self.members.len() as f64
        }
    }

    /// The members responsible for the forwarded (non-dropped) traffic,
    /// heaviest first, with their share of the total leak.
    pub fn leak_concentration(&self) -> Vec<(Asn, f64)> {
        let ignorers: Vec<&MemberBehavior> =
            self.members.iter().filter(|m| m.ignores.is_some()).collect();
        let total: f64 = ignorers.iter().map(|m| m.mean_rate).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mut out: Vec<(Asn, f64)> =
            ignorers.iter().map(|m| (m.asn, m.mean_rate / total)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// Control-plane-visible blackholings with no data-plane reduction — the
/// §10 misconfiguration analysis (red region of Fig. 9(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoDropCause {
    /// The user's IRR/RIR entries are missing so the route server never
    /// redistributed the announcement.
    NotRedistributed,
    /// The announcement carried an invalid next-hop or wrong community.
    BrokenAnnouncement,
}

/// Classify ground-truth events that show no data-plane drop.
pub fn classify_no_drop(irr_registered: bool, accepted: &BTreeSet<Asn>) -> Option<NoDropCause> {
    if !irr_registered {
        return Some(NoDropCause::NotRedistributed);
    }
    if accepted.is_empty() {
        return Some(NoDropCause::BrokenAnnouncement);
    }
    None
}

/// Aggregate weekly series across prefixes into a per-prefix map, the
/// exact Fig. 9(c) presentation (top stack = forwarded, bottom = dropped).
pub fn fig9c_series(
    sim: &mut FlowSim,
    start: SimTime,
    prefixes: &[Ipv4Prefix],
    senders: usize,
) -> BTreeMap<Ipv4Prefix, Vec<HourPoint>> {
    let mut out = BTreeMap::new();
    for prefix in prefixes {
        out.insert(*prefix, sim.week_series(start, senders));
    }
    out
}

#[cfg(test)]
mod tests {
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;

    fn big_ixp() -> Ixp {
        let t = TopologyBuilder::new(TopologyConfig::tiny(61)).build();
        t.ixps().iter().max_by_key(|ixp| ixp.members.len()).expect("topology has IXPs").clone()
    }

    #[test]
    fn week_series_shape() {
        let ixp = big_ixp();
        // Seed chosen so the deterministic first-`senders` slice contains
        // both honoring and ignoring members under the vendored SplitMix64
        // stream (which differs from upstream rand's ChaCha StdRng).
        let mut sim = FlowSim::new(&ixp, 0.35, 5);
        let series = sim.week_series(SimTime::from_ymd(2017, 3, 20), 10);
        assert_eq!(series.len(), 168);
        let total_dropped: u64 = series.iter().map(|p| p.dropped).sum();
        let total_forwarded: u64 = series.iter().map(|p| p.forwarded).sum();
        // Both stacks are populated: some members honor, some don't.
        assert!(total_dropped > 0, "nothing dropped");
        assert!(total_forwarded > 0, "nothing forwarded");
        // Diurnal pattern: peak hour is at least 1.3x the trough.
        let max = series.iter().map(|p| p.dropped + p.forwarded).max().unwrap();
        let min = series.iter().map(|p| p.dropped + p.forwarded).min().unwrap();
        assert!(max as f64 >= min as f64 * 1.3, "no diurnal variation: {min}..{max}");
    }

    #[test]
    fn dropping_fraction_matches_config() {
        let ixp = big_ixp();
        let sim = FlowSim::new(&ixp, 0.33, 5);
        let f = sim.dropping_member_fraction();
        assert!(f > 0.1 && f < 0.6, "fraction {f}");
    }

    #[test]
    fn leak_is_concentrated() {
        let ixp = big_ixp();
        let sim = FlowSim::new(&ixp, 0.33, 7);
        let conc = sim.leak_concentration();
        if conc.len() >= 10 {
            let top10: f64 = conc.iter().take(10).map(|(_, s)| s).sum();
            assert!(top10 > 0.5, "top-10 leak share only {top10}");
        }
        // Shares sum to 1.
        let sum: f64 = conc.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9 || conc.is_empty());
    }

    #[test]
    fn no_drop_classification() {
        assert_eq!(classify_no_drop(false, &BTreeSet::new()), Some(NoDropCause::NotRedistributed));
        assert_eq!(classify_no_drop(true, &BTreeSet::new()), Some(NoDropCause::BrokenAnnouncement));
        assert_eq!(classify_no_drop(true, &BTreeSet::from([Asn::new(1)])), None);
    }

    #[test]
    fn fig9c_covers_requested_prefixes() {
        let ixp = big_ixp();
        let mut sim = FlowSim::new(&ixp, 0.33, 9);
        let prefixes: Vec<Ipv4Prefix> =
            vec!["9.9.9.9/32".parse().unwrap(), "8.8.8.8/32".parse().unwrap()];
        let map = fig9c_series(&mut sim, SimTime::from_ymd(2017, 3, 20), &prefixes, 8);
        assert_eq!(map.len(), 2);
        for series in map.values() {
            assert_eq!(series.len(), 168);
        }
    }

    #[test]
    fn behaviors_are_deterministic() {
        let ixp = big_ixp();
        let a = FlowSim::new(&ixp, 0.33, 11);
        let b = FlowSim::new(&ixp, 0.33, 11);
        for (x, y) in a.members().iter().zip(b.members()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.ignores, y.ignores);
        }
    }
}
