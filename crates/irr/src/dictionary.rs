//! The blackhole communities dictionary.
//!
//! §4.1: "we only include communities in our dictionary if we can validate
//! them either via published information by the ASes or private
//! communication, and we refer to them as documented communities. … we
//! augment the dictionary of documented communities with information about
//! which networks provide \[shared\] communit\[ies\]."

use std::collections::{BTreeMap, BTreeSet};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, LargeCommunity};
use bh_topology::{DocumentationChannel, TagClass, Topology};

use crate::corpus::Corpus;
use crate::mining::{CommunityClass, DictionaryMiner, MinedCommunity};

/// One dictionary entry: a community and the providers that honor it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictEntry {
    /// The community value.
    pub community: Community,
    /// Candidate providers. Usually one; shared/ambiguous communities
    /// (high 16 bits not a public ASN) list every provider known to use
    /// the value — the inference engine disambiguates via the AS path.
    pub providers: Vec<Asn>,
}

impl DictEntry {
    /// Is this entry ambiguous (multiple candidate providers)?
    pub fn is_ambiguous(&self) -> bool {
        self.providers.len() > 1
    }
}

/// Per-provider metadata recorded while building the dictionary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProviderMeta {
    /// All communities this provider uses for blackholing.
    pub communities: Vec<Community>,
    /// Large-community trigger, if mined.
    pub large: Option<LargeCommunity>,
    /// Documented minimum accepted prefix length, if mined.
    pub min_accepted_length: Option<u8>,
}

/// The documented blackhole communities dictionary.
#[derive(Debug, Clone, Default)]
pub struct BlackholeDictionary {
    by_community: BTreeMap<Community, BTreeSet<Asn>>,
    by_large: BTreeMap<LargeCommunity, BTreeSet<Asn>>,
    providers: BTreeMap<Asn, ProviderMeta>,
    /// Non-blackhole documented communities (the second dictionary built
    /// in §4.1 for the Fig. 2 comparison), refined by usage class.
    class_by_community: BTreeMap<CommunityClass, BTreeMap<Community, BTreeSet<Asn>>>,
    /// Class-refined RFC 8092 large communities (32-bit-ASN tags).
    class_by_large: BTreeMap<CommunityClass, BTreeMap<LargeCommunity, BTreeSet<Asn>>>,
}

impl BlackholeDictionary {
    /// Build from a corpus: class-aware mine, then aggregate.
    pub fn build(corpus: &Corpus) -> Self {
        let mined = DictionaryMiner.mine(corpus);
        Self::from_mined(&mined)
    }

    /// Build with the legacy stem-only miner — no class refinement, so
    /// weak-`discard` tag prose poisons the blackhole map. This is the
    /// dictionary-only baseline the negative-control scoring compares
    /// against.
    pub fn build_naive(corpus: &Corpus) -> Self {
        let mined = DictionaryMiner.mine_naive(corpus);
        Self::from_mined(&mined)
    }

    /// Aggregate mined observations.
    ///
    /// Each (provider, community) pair is first resolved to a single
    /// class — the strongest observation wins (blackhole, then action,
    /// then location, then informational), independent of observation
    /// order — so the per-class maps are disjoint by construction.
    pub fn from_mined(mined: &[MinedCommunity]) -> Self {
        let mut dict = BlackholeDictionary::default();
        let mut classic_class: BTreeMap<(Asn, Community), CommunityClass> = BTreeMap::new();
        let mut large_class: BTreeMap<(Asn, LargeCommunity), CommunityClass> = BTreeMap::new();
        for m in mined {
            if let Some(c) = m.community {
                classic_class
                    .entry((m.asn, c))
                    .and_modify(|e| *e = (*e).min(m.class))
                    .or_insert(m.class);
            }
            if let Some(l) = m.large {
                large_class
                    .entry((m.asn, l))
                    .and_modify(|e| *e = (*e).min(m.class))
                    .or_insert(m.class);
            }
        }
        for m in mined {
            if let Some(c) = m.community {
                let resolved = classic_class[&(m.asn, c)];
                if resolved == CommunityClass::Blackhole {
                    // Only blackhole-classed observations carry trigger
                    // metadata; outvoted non-blackhole sightings are
                    // dropped to keep the maps disjoint.
                    if m.class == CommunityClass::Blackhole {
                        dict.by_community.entry(c).or_default().insert(m.asn);
                        let meta = dict.providers.entry(m.asn).or_default();
                        if !meta.communities.contains(&c) {
                            meta.communities.push(c);
                        }
                        if let Some(len) = m.min_accepted_length {
                            meta.min_accepted_length =
                                Some(meta.min_accepted_length.map_or(len, |old| old.min(len)));
                        }
                    }
                } else {
                    dict.class_by_community
                        .entry(resolved)
                        .or_default()
                        .entry(c)
                        .or_default()
                        .insert(m.asn);
                }
            }
            if let Some(l) = m.large {
                let resolved = large_class[&(m.asn, l)];
                if resolved == CommunityClass::Blackhole {
                    if m.class == CommunityClass::Blackhole {
                        dict.by_large.entry(l).or_default().insert(m.asn);
                        dict.providers.entry(m.asn).or_default().large = Some(l);
                    }
                } else {
                    dict.class_by_large
                        .entry(resolved)
                        .or_default()
                        .entry(l)
                        .or_default()
                        .insert(m.asn);
                }
            }
        }
        dict
    }

    /// Number of distinct blackhole communities.
    pub fn community_count(&self) -> usize {
        self.by_community.len() + self.by_large.len()
    }

    /// Number of providers with at least one blackhole community.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Candidate providers for a classic community (empty if unknown).
    pub fn providers_for(&self, community: Community) -> Vec<Asn> {
        self.by_community
            .get(&community)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Candidate providers for a large community.
    pub fn providers_for_large(&self, large: LargeCommunity) -> Vec<Asn> {
        self.by_large.get(&large).map(|set| set.iter().copied().collect()).unwrap_or_default()
    }

    /// Is this a known blackhole community?
    pub fn is_blackhole_community(&self, community: Community) -> bool {
        self.by_community.contains_key(&community)
    }

    /// Iterate blackhole entries.
    pub fn entries(&self) -> impl Iterator<Item = DictEntry> + '_ {
        self.by_community.iter().map(|(c, providers)| DictEntry {
            community: *c,
            providers: providers.iter().copied().collect(),
        })
    }

    /// Iterate the documented entries of one non-blackhole class.
    /// ([`CommunityClass::Blackhole`] entries live in [`Self::entries`].)
    pub fn class_entries(&self, class: CommunityClass) -> impl Iterator<Item = DictEntry> + '_ {
        self.class_by_community.get(&class).into_iter().flatten().map(|(c, providers)| DictEntry {
            community: *c,
            providers: providers.iter().copied().collect(),
        })
    }

    /// Iterate the documented RFC 8092 entries of one non-blackhole class.
    pub fn class_large_entries(
        &self,
        class: CommunityClass,
    ) -> impl Iterator<Item = (LargeCommunity, Vec<Asn>)> + '_ {
        self.class_by_large
            .get(&class)
            .into_iter()
            .flatten()
            .map(|(l, providers)| (*l, providers.iter().copied().collect()))
    }

    /// The resolved usage class of a classic community, if documented at
    /// all. When different providers documented the same value under
    /// different classes, the strongest class wins (blackhole > action >
    /// location > informational).
    pub fn class_of(&self, community: Community) -> Option<CommunityClass> {
        if self.by_community.contains_key(&community) {
            return Some(CommunityClass::Blackhole);
        }
        self.class_by_community
            .iter()
            .find(|(_, map)| map.contains_key(&community))
            .map(|(class, _)| *class)
    }

    /// Providers and metadata.
    pub fn providers(&self) -> impl Iterator<Item = (Asn, &ProviderMeta)> {
        self.providers.iter().map(|(asn, meta)| (*asn, meta))
    }

    /// Insert an externally validated entry (e.g. a late private
    /// communication or a manually confirmed inferred community).
    pub fn insert_validated(&mut self, asn: Asn, community: Community) {
        self.by_community.entry(community).or_default().insert(asn);
        let meta = self.providers.entry(asn).or_default();
        if !meta.communities.contains(&community) {
            meta.communities.push(community);
        }
    }

    /// Validate against topology ground truth.
    pub fn validate_against(&self, topology: &Topology) -> DictionaryValidation {
        let mut v = DictionaryValidation::default();
        // Recall over documented offerings.
        for info in topology.ases() {
            let Some(offering) = &info.blackhole_offering else { continue };
            match offering.documentation {
                DocumentationChannel::Undocumented => {
                    // Correctly absent?
                    for c in &offering.communities {
                        if self.providers_for(*c).contains(&info.asn) {
                            v.undocumented_leaks += 1;
                        }
                    }
                }
                _ => {
                    for c in &offering.communities {
                        if self.providers_for(*c).contains(&info.asn) {
                            v.true_positives += 1;
                        } else {
                            v.missed.push((info.asn, *c));
                        }
                    }
                    if let Some(l) = offering.large_community {
                        if self.providers_for_large(l).contains(&info.asn) {
                            v.true_positives += 1;
                        } else {
                            v.missed.push((info.asn, Community::from_parts(0, 0)));
                        }
                    }
                }
            }
        }
        // Precision: every dictionary pair must be a real offering.
        for entry in self.entries() {
            for asn in &entry.providers {
                let genuine = topology.as_info(*asn).is_some_and(|info| {
                    info.blackhole_offering.as_ref().is_some_and(|o| o.is_trigger(entry.community))
                });
                if !genuine {
                    v.false_positives.push((*asn, entry.community));
                }
            }
        }
        v
    }

    /// Validate the non-blackhole class maps against topology tag ground
    /// truth, the way [`Self::validate_against`] does for blackholes.
    ///
    /// Precision counts every mined class pair against the full tag
    /// ground truth. Recall is restricted to ASes whose offering is
    /// IRR-documented: those render an `aut-num` deterministically, so
    /// every one of their tags is minable; the web and undocumented
    /// channels only probabilistically emit tag text.
    pub fn validate_classes(&self, topology: &Topology) -> ClassValidation {
        let mut v = ClassValidation::default();
        let mut truth: BTreeMap<(Asn, Community), CommunityClass> = BTreeMap::new();
        let mut truth_large: BTreeMap<(Asn, LargeCommunity), CommunityClass> = BTreeMap::new();
        for info in topology.ases() {
            for (c, class) in info.classed_tags() {
                truth.insert((info.asn, c), tag_class_to_community_class(class));
            }
            for tag in &info.tag_large_communities {
                truth_large
                    .insert((info.asn, tag.community), tag_class_to_community_class(tag.class));
            }
        }
        for class in CommunityClass::ALL {
            if class == CommunityClass::Blackhole {
                continue;
            }
            let score = v.per_class.entry(class).or_default();
            for entry in self.class_entries(class) {
                for asn in &entry.providers {
                    if truth.get(&(*asn, entry.community)) == Some(&class) {
                        score.true_positives += 1;
                    } else {
                        score.false_positives += 1;
                    }
                }
            }
            for (large, providers) in self.class_large_entries(class) {
                for asn in providers {
                    if truth_large.get(&(asn, large)) == Some(&class) {
                        score.true_positives += 1;
                    } else {
                        score.false_positives += 1;
                    }
                }
            }
        }
        for info in topology.ases() {
            let irr = info
                .blackhole_offering
                .as_ref()
                .is_some_and(|o| o.documentation == DocumentationChannel::Irr);
            if !irr {
                continue;
            }
            for (c, class) in info.classed_tags() {
                let class = tag_class_to_community_class(class);
                let found = self
                    .class_by_community
                    .get(&class)
                    .and_then(|map| map.get(&c))
                    .is_some_and(|providers| providers.contains(&info.asn));
                let score = v.per_class.entry(class).or_default();
                if found {
                    score.recalled += 1;
                } else {
                    score.missed += 1;
                }
            }
            for tag in &info.tag_large_communities {
                let class = tag_class_to_community_class(tag.class);
                let found = self
                    .class_by_large
                    .get(&class)
                    .and_then(|map| map.get(&tag.community))
                    .is_some_and(|providers| providers.contains(&info.asn));
                let score = v.per_class.entry(class).or_default();
                if found {
                    score.recalled += 1;
                } else {
                    score.missed += 1;
                }
            }
        }
        v
    }
}

/// The ground-truth tag class a mined class is scored against.
fn tag_class_to_community_class(class: TagClass) -> CommunityClass {
    match class {
        TagClass::Location => CommunityClass::Location,
        TagClass::Action => CommunityClass::Action,
        TagClass::Informational => CommunityClass::Informational,
    }
}

/// Precision/recall of the miner vs. ground truth.
#[derive(Debug, Clone, Default)]
pub struct DictionaryValidation {
    /// Documented (provider, community) pairs correctly mined.
    pub true_positives: usize,
    /// Pairs in the dictionary that are not genuine offerings.
    pub false_positives: Vec<(Asn, Community)>,
    /// Documented pairs the miner missed.
    pub missed: Vec<(Asn, Community)>,
    /// Undocumented offerings that somehow ended up in the dictionary
    /// (must be zero: there is no text to mine them from).
    pub undocumented_leaks: usize,
}

impl DictionaryValidation {
    /// Recall over documented pairs.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.missed.len();
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Precision over mined pairs.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives.len();
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Per-class precision/recall of the general community classifier
/// dictionary vs. ground truth.
#[derive(Debug, Clone, Default)]
pub struct ClassValidation {
    /// Scores per non-blackhole class.
    pub per_class: BTreeMap<CommunityClass, ClassScore>,
}

impl ClassValidation {
    /// Score for one class (zeros when nothing was mined or expected).
    pub fn score(&self, class: CommunityClass) -> ClassScore {
        self.per_class.get(&class).copied().unwrap_or_default()
    }
}

/// Precision/recall counters for one community class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassScore {
    /// Mined pairs matching ground truth (precision numerator).
    pub true_positives: usize,
    /// Mined pairs with no matching ground-truth tag of this class.
    pub false_positives: usize,
    /// IRR-documented ground-truth tags found under the right class.
    pub recalled: usize,
    /// IRR-documented ground-truth tags absent or misclassified.
    pub missed: usize,
}

impl ClassScore {
    /// Precision over mined pairs.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall over IRR-documented ground-truth tags.
    pub fn recall(&self) -> f64 {
        let denom = self.recalled + self.missed;
        if denom == 0 {
            1.0
        } else {
            self.recalled as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use crate::corpus::CorpusGenerator;

    use super::*;

    fn built() -> (bh_topology::Topology, BlackholeDictionary) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(11)).build();
        let corpus = CorpusGenerator::new(&t, 5).generate();
        let dict = BlackholeDictionary::build(&corpus);
        (t, dict)
    }

    #[test]
    fn dictionary_has_high_precision_and_recall() {
        let (t, dict) = built();
        let v = dict.validate_against(&t);
        assert_eq!(v.undocumented_leaks, 0);
        assert!(v.precision() >= 0.99, "precision {} fps {:?}", v.precision(), v.false_positives);
        assert!(v.recall() >= 0.95, "recall {} missed {:?}", v.recall(), v.missed);
    }

    #[test]
    fn rfc7999_is_shared_by_ixps() {
        let (t, dict) = built();
        let providers = dict.providers_for(Community::BLACKHOLE);
        // Every RFC 7999 IXP route server should be listed.
        let expected: Vec<Asn> = t
            .ases()
            .filter(|i| {
                i.blackhole_offering
                    .as_ref()
                    .is_some_and(|o| o.communities.contains(&Community::BLACKHOLE))
            })
            .map(|i| i.asn)
            .collect();
        assert!(!expected.is_empty());
        for asn in expected {
            assert!(providers.contains(&asn), "{asn} missing from 65535:666 entry");
        }
        assert!(dict
            .entries()
            .find(|e| e.community == Community::BLACKHOLE)
            .unwrap()
            .is_ambiguous());
    }

    #[test]
    fn level3_decoy_lands_in_other_dictionary() {
        let (t, dict) = built();
        // Find the decoy provider (blackholes with :9999, tags with :666).
        let decoy = t
            .ases()
            .find(|i| {
                i.blackhole_offering
                    .as_ref()
                    .is_some_and(|o| o.primary_community().value_part() == 9999)
            })
            .expect("decoy exists");
        let tag = Community::from_parts((decoy.asn.value() & 0xFFFF) as u16, 666);
        assert!(
            !dict.providers_for(tag).contains(&decoy.asn),
            "decoy ASN:666 must not be a blackhole entry for the decoy"
        );
        let bh = decoy.blackhole_offering.as_ref().unwrap().primary_community();
        assert!(dict.providers_for(bh).contains(&decoy.asn));
        let is_other = dict.class_by_community.values().any(|map| map.contains_key(&tag));
        assert!(is_other || dict.providers_for(tag).is_empty());
    }

    #[test]
    fn metadata_captures_min_length() {
        let (t, dict) = built();
        // At least one IRR-documented provider records a min length.
        let any = dict.providers().any(|(_, meta)| meta.min_accepted_length.is_some());
        assert!(any);
        // Lengths are in the legal blackhole window.
        for (_, meta) in dict.providers() {
            if let Some(len) = meta.min_accepted_length {
                assert!((22..=32).contains(&len));
            }
        }
        drop(t);
    }

    #[test]
    fn insert_validated_extends_dictionary() {
        let (_, mut dict) = built();
        let asn = Asn::new(64_496); // not mined
        let c = Community::from_parts(444, 666);
        assert!(!dict.is_blackhole_community(c));
        dict.insert_validated(asn, c);
        assert!(dict.is_blackhole_community(c));
        assert_eq!(dict.providers_for(c), vec![asn]);
        // Idempotent.
        dict.insert_validated(asn, c);
        assert_eq!(dict.providers[&asn].communities.len(), 1);
    }

    #[test]
    fn class_maps_are_populated_and_disjoint_from_blackholes() {
        let (_, dict) = built();
        let mut class_pairs = 0;
        for class in CommunityClass::ALL.into_iter().skip(1) {
            for entry in dict.class_entries(class) {
                class_pairs += entry.providers.len();
                for p in &entry.providers {
                    assert!(
                        !dict.providers_for(entry.community).contains(p),
                        "{} is both blackhole and {class:?} for {p}",
                        entry.community
                    );
                }
            }
        }
        assert!(class_pairs > 0, "no class entries mined");
    }

    #[test]
    fn class_validation_scores_high_at_tiny_scale() {
        let (t, dict) = built();
        let v = dict.validate_classes(&t);
        for class in
            [CommunityClass::Action, CommunityClass::Location, CommunityClass::Informational]
        {
            let s = v.score(class);
            assert!(s.precision() >= 0.95, "{class:?} precision {} ({s:?})", s.precision());
            assert!(s.recall() >= 0.9, "{class:?} recall {} ({s:?})", s.recall());
        }
    }

    #[test]
    fn naive_dictionary_is_poisoned_by_trap_tags_and_class_aware_is_not() {
        let (t, _) = built();
        let corpus = CorpusGenerator::new(&t, 5).generate();
        let aware = BlackholeDictionary::build(&corpus).validate_against(&t);
        let naive = BlackholeDictionary::build_naive(&corpus).validate_against(&t);
        assert!(aware.precision() >= 0.99, "aware precision {}", aware.precision());
        assert!(
            naive.false_positives.len() > aware.false_positives.len(),
            "traps should poison only the naive miner (naive {:?})",
            naive.false_positives
        );
        // Recall is about genuine triggers and is unaffected by traps.
        assert!(naive.recall() >= 0.95 && aware.recall() >= 0.95);
    }

    #[test]
    fn aliasing_32_bit_providers_do_not_collide_after_rfc8092_routing() {
        use bh_topology::{
            AsInfo, BlackholeAuth, BlackholeOffering, LargeTag, NetworkType, Relationship,
            TagClass, Tier, Topology,
        };

        // Two 32-bit ASNs that alias mod 2^16: truncation used to fold
        // both onto one `ASN:666`-style classic community.
        let a = Asn::new(70_000);
        let b = Asn::new(70_000 + 65_536);
        assert_eq!(a.value() & 0xFFFF, b.value() & 0xFFFF);
        let mk = |asn: Asn| AsInfo {
            asn,
            tier: Tier::Transit,
            network_type: NetworkType::TransitAccess,
            country: "DE",
            prefixes: vec![],
            blackhole_offering: Some(BlackholeOffering {
                communities: vec![],
                large_community: Some(LargeCommunity::new(asn.value(), 666, 0)),
                min_accepted_length: 25,
                documentation: DocumentationChannel::Irr,
                auth: BlackholeAuth::OriginOrCone,
                blackhole_ip: None,
                strips_community: false,
                honors_no_export: true,
            }),
            tag_communities: vec![],
            tag_classes: vec![],
            tag_large_communities: vec![LargeTag {
                community: LargeCommunity::new(asn.value(), 2001, 0),
                class: TagClass::Location,
            }],
            in_peeringdb: true,
        };
        let mut ases = BTreeMap::new();
        ases.insert(a, mk(a));
        ases.insert(b, mk(b));
        let t = Topology::assemble(ases, vec![(a, b, Relationship::Peer)], vec![]);
        let corpus = CorpusGenerator::new(&t, 9).generate();
        let dict = BlackholeDictionary::build(&corpus);
        // Each provider keeps its own RFC 8092 trigger — no mod-2^16 merge.
        assert_eq!(dict.providers_for_large(LargeCommunity::new(a.value(), 666, 0)), vec![a]);
        assert_eq!(dict.providers_for_large(LargeCommunity::new(b.value(), 666, 0)), vec![b]);
        // And no truncated classic entry exists at all.
        let truncated = Community::from_parts((a.value() & 0xFFFF) as u16, 666);
        assert!(dict.providers_for(truncated).is_empty());
        assert_eq!(dict.class_of(truncated), None);
        // The location tags stay per-provider too.
        let location: Vec<_> = dict.class_large_entries(CommunityClass::Location).collect();
        let tag = |asn: Asn| (LargeCommunity::new(asn.value(), 2001, 0), vec![asn]);
        assert_eq!(location, vec![tag(a), tag(b)]);
        let v = dict.validate_against(&t);
        assert!(v.false_positives.is_empty() && v.missed.is_empty() && v.undocumented_leaks == 0);
    }
}
