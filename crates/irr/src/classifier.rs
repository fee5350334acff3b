//! General community classification and negative controls.
//!
//! The dictionary ([`crate::dictionary`]) answers "is this a documented
//! blackhole trigger, and whose?". This module answers the broader
//! question the Krenc et al. taxonomy poses: *what is this community
//! for?* — combining documentation (the per-class dictionary maps) with
//! usage features from the [`CommunityPrefixCensus`] (prefix-length
//! profile, co-occurrence with documented communities, public-ASN high
//! bits) to classify communities the documentation never mentions.
//!
//! The classifier's practical payoff is the **negative control** set:
//! communities confidently classified as location or informational
//! cannot be blackhole triggers, so a candidate event whose *only*
//! trigger community sits in the control set is suppressed. Stolen-tag
//! hijacks — attacker announcements decorated with a victim provider's
//! harmless tag communities — are the headline beneficiary.
//!
//! The two thresholds ([`MIN_OCCURRENCES`], [`COARSE_FRACTION`]) are
//! part of the method and fixed here, not per-run options.

use std::collections::BTreeSet;

use bh_bgp_types::community::Community;

use crate::dictionary::BlackholeDictionary;
use crate::inference::CommunityPrefixCensus;
use crate::mining::CommunityClass;

/// Minimum observations before an undocumented community is classified
/// at all (guards against noise). Part of the method, as in Krenc et
/// al.'s usage classification — not a per-run option.
pub const MIN_OCCURRENCES: u64 = 5;
/// Fraction of occurrences on /24-or-coarser prefixes above which a
/// community counts as "coarse" (ordinary routing, not blackholing).
pub const COARSE_FRACTION: f64 = 0.5;

/// One classified community.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifiedCommunity {
    /// The community value.
    pub community: Community,
    /// Its inferred (or documented) usage class.
    pub class: CommunityClass,
    /// Whether the class came from documentation (dictionary) rather
    /// than usage features.
    pub documented: bool,
    /// Total observations in the census.
    pub occurrences: u64,
}

/// Classifies census communities by documentation-first, usage-second.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommunityClassifier;

impl CommunityClassifier {
    /// Classify every community the census observed.
    ///
    /// Documentation wins outright. Undocumented communities are
    /// classified from usage:
    /// * exclusively-more-specific-than-/24 usage with a public high-16
    ///   ASN and blackhole co-occurrence → [`CommunityClass::Blackhole`]
    ///   (the §4.1 extended-dictionary criteria);
    /// * mostly-coarse usage → the class of the documented communities it
    ///   co-occurs with (strongest class wins), defaulting to
    ///   informational;
    /// * mixed usage → informational (no confident signal).
    pub fn classify_census(
        &self,
        dict: &BlackholeDictionary,
        census: &CommunityPrefixCensus,
    ) -> Vec<ClassifiedCommunity> {
        let mut out = Vec::new();
        for c in census.communities() {
            let occurrences = census.occurrences(c);
            if let Some(class) = dict.class_of(c) {
                out.push(ClassifiedCommunity {
                    community: c,
                    class,
                    documented: true,
                    occurrences,
                });
                continue;
            }
            if occurrences < MIN_OCCURRENCES {
                continue;
            }
            let specific = census.fraction_more_specific_than_24(c);
            let class = if specific >= 1.0 - f64::EPSILON {
                if c.has_public_asn() && census.cooccurs_with_blackhole(c, dict) {
                    CommunityClass::Blackhole
                } else {
                    // Specific-only but unattributable: no provider to
                    // pin the trigger on, so it stays informational.
                    CommunityClass::Informational
                }
            } else if specific <= 1.0 - COARSE_FRACTION {
                self.class_by_cooccurrence(dict, census, c)
            } else {
                CommunityClass::Informational
            };
            out.push(ClassifiedCommunity { community: c, class, documented: false, occurrences });
        }
        out
    }

    /// The strongest non-blackhole class among documented communities
    /// this one co-occurs with (a community riding alongside documented
    /// location tags is itself location-flavored).
    fn class_by_cooccurrence(
        &self,
        dict: &BlackholeDictionary,
        census: &CommunityPrefixCensus,
        c: Community,
    ) -> CommunityClass {
        for class in [CommunityClass::Action, CommunityClass::Location] {
            for entry in dict.class_entries(class) {
                if census.cooccurs(c, entry.community) {
                    return class;
                }
            }
        }
        CommunityClass::Informational
    }

    /// Build the negative-control set: communities that are confidently
    /// *not* blackhole triggers — documented location/informational tags
    /// plus census communities classified as such. Anything the
    /// dictionary lists as a blackhole trigger is excluded defensively.
    pub fn negative_controls(
        &self,
        dict: &BlackholeDictionary,
        census: &CommunityPrefixCensus,
    ) -> NegativeControls {
        let mut set = BTreeSet::new();
        for class in [CommunityClass::Location, CommunityClass::Informational] {
            for entry in dict.class_entries(class) {
                set.insert(entry.community);
            }
        }
        for classified in self.classify_census(dict, census) {
            if matches!(classified.class, CommunityClass::Location | CommunityClass::Informational)
            {
                set.insert(classified.community);
            }
        }
        set.retain(|c| !dict.is_blackhole_community(*c));
        NegativeControls { set }
    }
}

/// Communities known *not* to trigger blackholing. Plugged into the
/// inference session, they suppress candidate events whose only trigger
/// is a control — the false-positive reduction knob.
///
/// Classic communities only: RFC 8092 large-community triggers are
/// always provider-documented and never filtered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NegativeControls {
    set: BTreeSet<Community>,
}

impl NegativeControls {
    /// Controls from an explicit set.
    pub fn from_set(set: BTreeSet<Community>) -> Self {
        NegativeControls { set }
    }

    /// Is this community a negative control?
    pub fn contains(&self, c: Community) -> bool {
        self.set.contains(&c)
    }

    /// Number of controls.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterate the controls in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Community> + '_ {
        self.set.iter().copied()
    }

    /// Add one control.
    pub fn insert(&mut self, c: Community) {
        self.set.insert(c);
    }
}

#[cfg(test)]
mod tests {
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use crate::corpus::CorpusGenerator;

    use super::*;

    fn fixture() -> (BlackholeDictionary, CommunityPrefixCensus) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(11)).build();
        let corpus = CorpusGenerator::new(&t, 5).generate();
        let dict = BlackholeDictionary::build(&corpus);
        let mut census = CommunityPrefixCensus::new();
        // Documented blackhole usage: /32-only.
        let documented_bh =
            dict.entries().next().expect("tiny topology mines at least one trigger").community;
        for _ in 0..20 {
            census.record(&[documented_bh], 32);
        }
        // Documented location tag used coarsely.
        if let Some(entry) = dict.class_entries(CommunityClass::Location).next() {
            for _ in 0..10 {
                census.record(&[entry.community], 20);
            }
        }
        (dict, census)
    }

    #[test]
    fn documented_classes_win_over_usage() {
        let (dict, mut census) = fixture();
        // Use a documented location tag exclusively on /32s — the
        // documentation must still win.
        let loc = dict
            .class_entries(CommunityClass::Location)
            .next()
            .expect("tiny topology documents location tags")
            .community;
        for _ in 0..50 {
            census.record(&[loc], 32);
        }
        let classified = CommunityClassifier.classify_census(&dict, &census);
        let hit = classified.iter().find(|c| c.community == loc).unwrap();
        assert_eq!(hit.class, CommunityClass::Location);
        assert!(hit.documented);
    }

    #[test]
    fn undocumented_specific_cooccurring_community_is_blackhole() {
        let (dict, mut census) = fixture();
        let documented_bh = dict.entries().next().unwrap().community;
        let hidden = Community::from_parts(4999, 666);
        assert_eq!(dict.class_of(hidden), None);
        for _ in 0..10 {
            census.record(&[hidden, documented_bh], 32);
        }
        let classified = CommunityClassifier.classify_census(&dict, &census);
        let hit = classified.iter().find(|c| c.community == hidden).unwrap();
        assert_eq!(hit.class, CommunityClass::Blackhole);
        assert!(!hit.documented);
    }

    #[test]
    fn undocumented_coarse_community_follows_cooccurring_class() {
        let (dict, mut census) = fixture();
        let loc = dict
            .class_entries(CommunityClass::Location)
            .next()
            .expect("tiny topology documents location tags")
            .community;
        let rider = Community::from_parts(4998, 77);
        for _ in 0..10 {
            census.record(&[rider, loc], 20);
        }
        let lonely = Community::from_parts(4997, 78);
        for _ in 0..10 {
            census.record(&[lonely], 20);
        }
        let classified = CommunityClassifier.classify_census(&dict, &census);
        let rider_hit = classified.iter().find(|c| c.community == rider).unwrap();
        assert_eq!(rider_hit.class, CommunityClass::Location);
        let lonely_hit = classified.iter().find(|c| c.community == lonely).unwrap();
        assert_eq!(lonely_hit.class, CommunityClass::Informational);
    }

    #[test]
    fn rare_undocumented_communities_are_skipped() {
        let (dict, mut census) = fixture();
        let rare = Community::from_parts(4996, 9);
        census.record(&[rare], 32);
        let classified = CommunityClassifier.classify_census(&dict, &census);
        assert!(classified.iter().all(|c| c.community != rare));
    }

    #[test]
    fn negative_controls_exclude_every_blackhole_trigger() {
        let (dict, census) = fixture();
        let controls = CommunityClassifier.negative_controls(&dict, &census);
        assert!(!controls.is_empty(), "documented tags should produce controls");
        for c in controls.iter() {
            assert!(!dict.is_blackhole_community(c), "{c} is a trigger yet listed as control");
        }
        // Every documented location/informational tag not doubling as a
        // trigger is a control.
        for class in [CommunityClass::Location, CommunityClass::Informational] {
            for entry in dict.class_entries(class) {
                if !dict.is_blackhole_community(entry.community) {
                    assert!(controls.contains(entry.community));
                }
            }
        }
    }

    #[test]
    fn controls_set_basics() {
        let mut controls = NegativeControls::default();
        assert!(controls.is_empty());
        let c = Community::from_parts(3356, 100);
        controls.insert(c);
        assert_eq!(controls.len(), 1);
        assert!(controls.contains(c));
        assert!(!controls.contains(Community::from_parts(3356, 101)));
        let same = NegativeControls::from_set(controls.iter().collect());
        assert_eq!(controls, same);
    }
}
