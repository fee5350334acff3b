//! Extended-dictionary inference (Fig. 2 and the "Possibilities for
//! Extended Dictionary" analysis, §4.1).
//!
//! The observation: non-blackhole communities ride on /24-or-coarser
//! prefixes, while blackhole communities ride almost exclusively on /32s.
//! Communities used *exclusively* on prefixes more specific than /24 that
//! also co-occur with a documented blackhole community at least once are
//! inferred blackhole communities — kept out of the documented dictionary
//! (the paper's choice: "we decided not to include them") but quantified
//! (111 communities on 102 ASes).

use std::collections::{BTreeMap, BTreeSet};

use bh_bgp_types::community::Community;

use crate::dictionary::BlackholeDictionary;

/// Census of community usage across BGP announcements: per community, a
/// histogram over announced prefix lengths, plus co-occurrence with other
/// communities on the same announcement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommunityPrefixCensus {
    counts: BTreeMap<Community, [u64; 33]>,
    cooccur: BTreeMap<Community, BTreeSet<Community>>,
    total_observations: u64,
}

impl CommunityPrefixCensus {
    /// Empty census.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one announcement: all its communities, at this prefix length.
    pub fn record(&mut self, communities: &[Community], length: u8) {
        self.record_repeated(communities, length, 1);
    }

    /// Record `count` announcements that all carried exactly this
    /// community set at this prefix length — the bulk form sessions use
    /// to replay per-(set, length) tallies accumulated off to the side.
    pub fn record_repeated(&mut self, communities: &[Community], length: u8, count: u64) {
        let bucket = length.min(32) as usize;
        for &c in communities {
            self.counts.entry(c).or_insert([0u64; 33])[bucket] += count;
            let set = self.cooccur.entry(c).or_default();
            for &other in communities {
                if other != c {
                    set.insert(other);
                }
            }
        }
        self.total_observations += count;
    }

    /// Number of distinct communities observed.
    pub fn community_count(&self) -> usize {
        self.counts.len()
    }

    /// Iterate all observed communities in deterministic (sorted) order.
    pub fn communities(&self) -> impl Iterator<Item = Community> + '_ {
        self.counts.keys().copied()
    }

    /// Total announcements recorded.
    pub fn total_observations(&self) -> u64 {
        self.total_observations
    }

    /// Total occurrences of one community.
    pub fn occurrences(&self, c: Community) -> u64 {
        self.counts.get(&c).map(|h| h.iter().sum()).unwrap_or(0)
    }

    /// Fraction of a community's occurrences on prefixes more specific
    /// than /24.
    pub fn fraction_more_specific_than_24(&self, c: Community) -> f64 {
        let Some(hist) = self.counts.get(&c) else { return 0.0 };
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let specific: u64 = hist[25..=32].iter().sum();
        specific as f64 / total as f64
    }

    /// Did `a` ever appear together with `b` on one announcement?
    pub fn cooccurs(&self, a: Community, b: Community) -> bool {
        self.cooccur.get(&a).is_some_and(|set| set.contains(&b))
    }

    /// Did `c` ever co-occur with any *documented* blackhole community?
    pub fn cooccurs_with_blackhole(&self, c: Community, dict: &BlackholeDictionary) -> bool {
        self.cooccur
            .get(&c)
            .is_some_and(|set| set.iter().any(|other| dict.is_blackhole_community(*other)))
    }

    /// The Fig. 2 surface: for each community, the fraction of occurrences
    /// at each prefix length, labeled blackhole (documented dictionary) or
    /// other.
    pub fn fig2_series(&self, dict: &BlackholeDictionary) -> Vec<Fig2Point> {
        let mut out = Vec::new();
        for (tag_index, (c, hist)) in self.counts.iter().enumerate() {
            let total: u64 = hist.iter().sum();
            if total == 0 {
                continue;
            }
            let is_blackhole = dict.is_blackhole_community(*c);
            for (length, &count) in hist.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                out.push(Fig2Point {
                    tag_index,
                    community: *c,
                    prefix_length: length as u8,
                    fraction: count as f64 / total as f64,
                    is_blackhole,
                });
            }
        }
        out
    }

    /// The inferred-community extraction. Criteria (§4.1):
    /// * used exclusively on prefixes more specific than /24,
    /// * co-occurs with a documented blackhole community at least once,
    /// * high 16 bits encode a public ASN (otherwise the provider cannot
    ///   be identified without documentation),
    /// * not already in the documented dictionary,
    /// * observed at least `min_occurrences` times (guards against noise).
    pub fn infer_candidates(
        &self,
        dict: &BlackholeDictionary,
        min_occurrences: u64,
    ) -> Vec<InferredCommunity> {
        let mut out = Vec::new();
        for (&c, hist) in &self.counts {
            if dict.is_blackhole_community(c) {
                continue;
            }
            let total: u64 = hist.iter().sum();
            if total < min_occurrences {
                continue;
            }
            let coarse: u64 = hist[..=24].iter().sum();
            if coarse > 0 {
                continue; // not exclusive to more-specifics
            }
            if !c.has_public_asn() {
                continue;
            }
            if !self.cooccurs_with_blackhole(c, dict) {
                continue;
            }
            out.push(InferredCommunity { community: c, occurrences: total, asn: c.asn() });
        }
        out
    }
}

/// One point of the Fig. 2 surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    /// Dense index of the community tag (the figure's x axis).
    pub tag_index: usize,
    /// The community.
    pub community: Community,
    /// Prefix length (y axis).
    pub prefix_length: u8,
    /// Fraction of this tag's occurrences at this length (z axis).
    pub fraction: f64,
    /// Whether the tag is in the documented blackhole dictionary
    /// (blue dots vs. red crosses in the paper's figure).
    pub is_blackhole: bool,
}

/// An inferred (undocumented) blackhole community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferredCommunity {
    /// The community value.
    pub community: Community,
    /// How many announcements carried it.
    pub occurrences: u64,
    /// The provider implied by the high 16 bits.
    pub asn: bh_bgp_types::asn::Asn,
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::asn::Asn;

    use super::*;

    fn dict_with(entries: &[(u32, Community)]) -> BlackholeDictionary {
        let mut d = BlackholeDictionary::default();
        for (asn, c) in entries {
            d.insert_validated(Asn::new(*asn), *c);
        }
        d
    }

    #[test]
    fn census_records_and_counts() {
        let mut census = CommunityPrefixCensus::new();
        let bh = Community::from_parts(100, 666);
        let te = Community::from_parts(100, 80);
        census.record(&[bh, te], 32);
        census.record(&[te], 16);
        assert_eq!(census.community_count(), 2);
        assert_eq!(census.occurrences(bh), 1);
        assert_eq!(census.occurrences(te), 2);
        assert_eq!(census.total_observations(), 2);
        assert!(census.cooccurs(bh, te));
        assert!(census.cooccurs(te, bh));
        assert!(!census.cooccurs(bh, Community::from_parts(1, 1)));
    }

    #[test]
    fn fraction_more_specific() {
        let mut census = CommunityPrefixCensus::new();
        let c = Community::from_parts(100, 666);
        census.record(&[c], 32);
        census.record(&[c], 32);
        census.record(&[c], 24);
        census.record(&[c], 16);
        assert!((census.fraction_more_specific_than_24(c) - 0.5).abs() < 1e-9);
        assert_eq!(census.fraction_more_specific_than_24(Community::from_parts(9, 9)), 0.0);
    }

    #[test]
    fn fig2_shape_blackhole_vs_other() {
        // Blackhole tags mass at /32, other tags at /16-/24 — the figure's
        // two clusters.
        let bh = Community::from_parts(100, 666);
        let te = Community::from_parts(200, 80);
        let dict = dict_with(&[(100, bh)]);
        let mut census = CommunityPrefixCensus::new();
        for _ in 0..50 {
            census.record(&[bh], 32);
        }
        census.record(&[bh], 30);
        for _ in 0..40 {
            census.record(&[te], 24);
        }
        for _ in 0..10 {
            census.record(&[te], 16);
        }
        let series = census.fig2_series(&dict);
        let bh_at_32 = series.iter().find(|p| p.community == bh && p.prefix_length == 32).unwrap();
        assert!(bh_at_32.is_blackhole);
        assert!(bh_at_32.fraction > 0.9);
        let te_at_24 = series.iter().find(|p| p.community == te && p.prefix_length == 24).unwrap();
        assert!(!te_at_24.is_blackhole);
        assert!(te_at_24.fraction > 0.7);
    }

    #[test]
    fn inference_requires_all_criteria() {
        let documented = Community::from_parts(100, 666);
        let dict = dict_with(&[(100, documented)]);
        let mut census = CommunityPrefixCensus::new();

        let good = Community::from_parts(555, 666); // public ASN, bundled
        let no_cooccur = Community::from_parts(556, 666);
        let not_exclusive = Community::from_parts(557, 666);
        let non_public = Community::from_parts(65_534, 666);
        let rare = Community::from_parts(558, 666);

        for _ in 0..10 {
            census.record(&[good, documented], 32);
            census.record(&[no_cooccur], 32);
            census.record(&[not_exclusive, documented], 32);
            census.record(&[non_public, documented], 32);
        }
        census.record(&[not_exclusive], 24); // poisons exclusivity
        census.record(&[rare, documented], 32); // below min occurrences

        let inferred = census.infer_candidates(&dict, 5);
        let values: Vec<Community> = inferred.iter().map(|i| i.community).collect();
        assert_eq!(values, vec![good]);
        assert_eq!(inferred[0].asn, Asn::new(555));
        assert_eq!(inferred[0].occurrences, 10);
    }

    #[test]
    fn documented_communities_are_not_reinferred() {
        let documented = Community::from_parts(100, 666);
        let dict = dict_with(&[(100, documented)]);
        let mut census = CommunityPrefixCensus::new();
        for _ in 0..10 {
            census.record(&[documented], 32);
        }
        assert!(census.infer_candidates(&dict, 1).is_empty());
    }

    #[test]
    fn fig2_series_is_deterministic_under_insertion_order() {
        // Regression: the figure's tag indices must not depend on the
        // order announcements arrived, only on the community values.
        let a = Community::from_parts(100, 666);
        let b = Community::from_parts(200, 80);
        let c = Community::from_parts(300, 12);
        let dict = dict_with(&[(100, a)]);

        let mut forward = CommunityPrefixCensus::new();
        for tag in [a, b, c] {
            forward.record(&[tag], 32);
            forward.record(&[tag], 24);
        }
        let mut reverse = CommunityPrefixCensus::new();
        for tag in [c, b, a] {
            reverse.record(&[tag], 24);
            reverse.record(&[tag], 32);
        }

        let fwd = forward.fig2_series(&dict);
        let rev = reverse.fig2_series(&dict);
        assert_eq!(fwd.len(), rev.len());
        for (x, y) in fwd.iter().zip(&rev) {
            assert_eq!(x.tag_index, y.tag_index, "tag index order diverged");
            assert_eq!(x.community, y.community);
            assert_eq!(x.prefix_length, y.prefix_length);
            assert_eq!(x.fraction, y.fraction);
            assert_eq!(x.is_blackhole, y.is_blackhole);
        }
    }

    #[test]
    fn census_saturates_overlong_prefix_lengths_at_32() {
        // A corrupt MRT record can claim a length > 32; the census must
        // clamp into the /32 bucket instead of indexing out of bounds.
        let c = Community::from_parts(100, 666);
        let mut census = CommunityPrefixCensus::new();
        census.record(&[c], 128);
        census.record_repeated(&[c], 200, 3);
        census.record(&[c], 32);
        assert_eq!(census.occurrences(c), 5);
        assert!((census.fraction_more_specific_than_24(c) - 1.0).abs() < 1e-12);
        let dict = BlackholeDictionary::default();
        let series = census.fig2_series(&dict);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].prefix_length, 32);
        assert!((series[0].fraction - 1.0).abs() < 1e-12);
    }
}
