//! Seeded topology generator.
//!
//! Builds a synthetic Internet whose *composition* mirrors the populations
//! the paper measures: a tier-1 clique, a transit hierarchy, stub networks
//! of every PeeringDB type, IXPs with route servers and peering LANs, and
//! — crucially — a ground-truth set of blackholing providers whose
//! distribution follows Table 2:
//!
//! | type            | documented | inferred (undocumented) |
//! |-----------------|-----------:|------------------------:|
//! | Transit/Access  |        198 |                      81 |
//! | IXP             |         49 |                       0 |
//! | Content         |         23 |                      14 |
//! | Educ/Res/NfP    |         15 |                       1 |
//! | Enterprise      |          8 |                       3 |
//! | Unknown         |         14 |                       3 |
//!
//! Community conventions follow §4.1: ~51 % `ASN:666`, the rest `ASN:66`,
//! `ASN:999`, `ASN:9999`…; 47 of 49 IXPs use RFC 7999 `65535:666`; a few
//! providers share ambiguous communities whose high 16 bits are not a
//! public ASN; one network blackholes via an RFC 8092 large community; and
//! one tier-1 uses `ASN:666` as a *peering tag* while blackholing with
//! `ASN:9999` (the Level3 decoy).
//!
//! Every `rng` draw of [`TopologyBuilder::build`] happens in a fixed order:
//! `tests/tests/adversarial.rs::generator_golden_pin` pins the result.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::community::{Community, LargeCommunity};

use crate::addressing::AddressAllocator;
use crate::geo::{
    sample_country, IXP_COUNTRY_WEIGHTS, PROVIDER_COUNTRY_WEIGHTS, USER_COUNTRY_WEIGHTS,
};
use crate::graph::Topology;
use crate::types::{
    classic_community, AsInfo, BlackholeAuth, BlackholeOffering, DocumentationChannel, Ixp, IxpId,
    NetworkType, Relationship, TagClass, Tier,
};

/// Fraction of classifiable ASes with a PeeringDB record disclosing
/// their type, at every scale; unknown-type ASes never have one.
const PEERINGDB_COVERAGE: f64 = 0.72;

/// Per-type counts of blackholing providers, split documented/undocumented.
#[derive(Debug, Clone, Copy)]
pub struct ProviderCounts {
    /// Providers whose offering is documented (IRR/web/private).
    pub documented: usize,
    /// Providers whose offering is undocumented (only inferable).
    pub undocumented: usize,
}

/// Generator configuration. `Default` reproduces the paper-scale study
/// populations; tests use [`TopologyConfig::tiny`] for speed.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// RNG seed — everything downstream is deterministic in this.
    pub seed: u64,
    /// Number of tier-1 ASes (full clique).
    pub tier1_count: usize,
    /// Number of mid-tier transit/access ASes.
    pub transit_count: usize,
    /// Number of content/hoster stub ASes.
    pub content_count: usize,
    /// Number of enterprise stub ASes.
    pub enterprise_count: usize,
    /// Number of education/research/NfP ASes.
    pub edu_count: usize,
    /// Number of unclassifiable ASes.
    pub unknown_count: usize,
    /// Number of IXPs.
    pub ixp_count: usize,
    /// Blackholing providers per type (Table 2 shape).
    pub bh_transit: ProviderCounts,
    /// IXPs offering blackholing (documented only, per the paper).
    pub bh_ixp: usize,
    /// Content providers offering blackholing.
    pub bh_content: ProviderCounts,
    /// Educ/Research/NfP providers offering blackholing.
    pub bh_edu: ProviderCounts,
    /// Enterprise providers offering blackholing.
    pub bh_enterprise: ProviderCounts,
    /// Unknown-type providers offering blackholing.
    pub bh_unknown: ProviderCounts,
    /// CAIDA-serial-2-shaped growth: customers attach to transit
    /// providers preferentially by current customer degree (rich get
    /// richer → power-law degree distribution, like the real AS graph)
    /// instead of uniformly, and stub address space is packed densely so
    /// the allocator scales to ~75k ASes. Off by default — the
    /// paper-study and tiny shapes are byte-identical with it off.
    pub power_law_degrees: bool,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 0x1997_0666,
            tier1_count: 14,
            transit_count: 430,
            content_count: 330,
            enterprise_count: 160,
            edu_count: 80,
            unknown_count: 90,
            ixp_count: 55,
            bh_transit: ProviderCounts { documented: 198, undocumented: 81 },
            bh_ixp: 49,
            bh_content: ProviderCounts { documented: 23, undocumented: 14 },
            bh_edu: ProviderCounts { documented: 15, undocumented: 1 },
            bh_enterprise: ProviderCounts { documented: 8, undocumented: 3 },
            bh_unknown: ProviderCounts { documented: 14, undocumented: 3 },
            power_law_degrees: false,
        }
    }
}

impl TopologyConfig {
    /// A small topology for fast tests: same structure, ~60 ASes.
    pub fn tiny(seed: u64) -> Self {
        TopologyConfig {
            seed,
            tier1_count: 4,
            transit_count: 14,
            content_count: 18,
            enterprise_count: 8,
            edu_count: 4,
            unknown_count: 4,
            ixp_count: 4,
            bh_transit: ProviderCounts { documented: 8, undocumented: 3 },
            bh_ixp: 3,
            bh_content: ProviderCounts { documented: 2, undocumented: 1 },
            bh_edu: ProviderCounts { documented: 1, undocumented: 0 },
            bh_enterprise: ProviderCounts { documented: 1, undocumented: 0 },
            bh_unknown: ProviderCounts { documented: 1, undocumented: 0 },
            power_law_degrees: false,
        }
    }

    /// The CAIDA-serial-2-shaped internet: ~75k ASes with power-law
    /// customer degrees, a 20-member tier-1 clique, and ~190 IXPs. The
    /// scale where propagation-engine claims become falsifiable.
    pub fn massive(seed: u64) -> Self {
        Self::massive_scaled(seed, 75_000)
    }

    /// [`TopologyConfig::massive`] at a chosen AS count (≥500; smoke
    /// tests and CI run the same shape a couple of orders of magnitude
    /// smaller). Type proportions follow the CAIDA serial-2 mix; the
    /// Table-2 blackholing populations shrink proportionally but never
    /// exceed the paper's absolute counts.
    pub fn massive_scaled(seed: u64, total_ases: usize) -> Self {
        let total = total_ases.max(500);
        let tier1_count = 20;
        let transit_count = (total * 6 / 100).max(40);
        let content_count = total * 25 / 100;
        let edu_count = total * 8 / 100;
        let unknown_count = total * 12 / 100;
        let enterprise_count =
            total - tier1_count - transit_count - content_count - edu_count - unknown_count;
        let ixp_count = (total / 400).clamp(4, 200);
        // Scale a Table-2 count with the graph, floor 1, cap at the
        // paper's real-internet absolute.
        let scale = |n: usize| (n * total / 75_000).clamp(1, n);
        TopologyConfig {
            seed,
            tier1_count,
            transit_count,
            content_count,
            enterprise_count,
            edu_count,
            unknown_count,
            ixp_count,
            bh_transit: ProviderCounts { documented: scale(198), undocumented: scale(81) },
            bh_ixp: scale(49).min(ixp_count),
            bh_content: ProviderCounts { documented: scale(23), undocumented: scale(14) },
            bh_edu: ProviderCounts { documented: scale(15), undocumented: scale(1) },
            bh_enterprise: ProviderCounts { documented: scale(8), undocumented: scale(3) },
            bh_unknown: ProviderCounts { documented: scale(14), undocumented: scale(3) },
            power_law_degrees: true,
        }
    }

    /// Total AS count (excluding IXP route-server ASNs).
    pub fn total_ases(&self) -> usize {
        self.tier1_count
            + self.transit_count
            + self.content_count
            + self.enterprise_count
            + self.edu_count
            + self.unknown_count
    }
}

/// The world under construction, as the builder's steps hand it on.
#[derive(Default)]
struct Parts {
    ases: BTreeMap<Asn, AsInfo>,
    edges: Vec<(Asn, Asn, Relationship)>,
    ixps: Vec<Ixp>,
    tier1: Vec<Asn>,
    transits: Vec<Asn>,
    /// Preferential-attachment endpoint pool (massive shape only): every
    /// transit appears once at creation plus once per customer edge it
    /// acquires, so a uniform draw from the pool is degree-proportional —
    /// the Barabási–Albert process that gives the AS graph its power-law
    /// customer degrees.
    attach_pool: Vec<Asn>,
    contents: Vec<Asn>,
    enterprises: Vec<Asn>,
    edus: Vec<Asn>,
    unknowns: Vec<Asn>,
}

/// The generator.
pub struct TopologyBuilder {
    config: TopologyConfig,
    rng: StdRng,
    alloc: AddressAllocator,
    next_asn: u32,
    next_rs_asn: u32,
}

impl TopologyBuilder {
    /// Create a builder.
    pub fn new(config: TopologyConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        // At massive scale the regular ASN walk (~10.5 step average)
        // climbs well past 59k, so route-server ASNs move out of its way;
        // the historical base is kept for the paper-scale shapes so their
        // generated topologies stay byte-identical.
        let next_rs_asn = if config.power_law_degrees { 3_000_000 } else { 59_000 };
        TopologyBuilder { config, rng, alloc: AddressAllocator::new(), next_asn: 100, next_rs_asn }
    }

    fn fresh_asn(&mut self) -> Asn {
        let asn = Asn::new(self.next_asn);
        // Skip anything non-public so communities stay unambiguous unless
        // we *choose* ambiguity.
        self.next_asn += 1 + self.rng.gen_range(0..20);
        if !asn.is_public() {
            return self.fresh_asn();
        }
        asn
    }

    fn fresh_rs_asn(&mut self) -> Asn {
        let asn = Asn::new(self.next_rs_asn);
        self.next_rs_asn += 1;
        asn
    }

    /// Allocate an AS prefix: slab-granular normally, packed in the
    /// massive shape (where one slab per prefix would exhaust the space).
    fn alloc_prefix(&mut self, length: u8) -> bh_bgp_types::prefix::Ipv4Prefix {
        if self.config.power_law_degrees {
            self.alloc.alloc_packed(length)
        } else {
            self.alloc.alloc(length)
        }
    }

    /// Build the topology.
    pub fn build(mut self) -> Topology {
        let cfg = self.config.clone();
        let mut parts = Parts::default();

        // ---- Tier-1 clique -------------------------------------------------
        for _ in 0..cfg.tier1_count {
            let asn = self.fresh_asn();
            let prefix_count = self.rng.gen_range(3..=6);
            let prefixes =
                (0..prefix_count).map(|_| self.alloc.alloc(self.rng.gen_range(11..=14))).collect();
            let country = sample_country(&mut self.rng, PROVIDER_COUNTRY_WEIGHTS);
            // Tier-1s always have PeeringDB records.
            let info =
                AsInfo::new(asn, Tier::Tier1, NetworkType::TransitAccess, country, prefixes, true);
            parts.ases.insert(asn, info);
            parts.tier1.push(asn);
        }
        for (i, a) in parts.tier1.iter().enumerate() {
            for b in &parts.tier1[i + 1..] {
                parts.edges.push((*a, *b, Relationship::Peer));
            }
        }

        // ---- Mid-tier transit ----------------------------------------------
        for _ in 0..cfg.transit_count {
            let asn = self.fresh_asn();
            let prefix_count = self.rng.gen_range(1..=3);
            let prefixes = (0..prefix_count)
                .map(|_| {
                    let len = self.rng.gen_range(14..=18);
                    self.alloc_prefix(len)
                })
                .collect();
            // Providers: preferential mix of tier-1 and earlier transits.
            let provider_count = self.rng.gen_range(1..=3).min(1 + parts.transits.len());
            let mut providers: Vec<Asn> = Vec::new();
            for _ in 0..provider_count {
                let from_tier1 = parts.transits.len() < 4 || self.rng.gen_bool(0.45);
                let pool: &[Asn] = if from_tier1 {
                    &parts.tier1
                } else if cfg.power_law_degrees {
                    &parts.attach_pool
                } else {
                    &parts.transits
                };
                if let Some(&p) = pool.choose(&mut self.rng) {
                    if !providers.contains(&p) && p != asn {
                        providers.push(p);
                    }
                }
            }
            for p in &providers {
                parts.edges.push((*p, asn, Relationship::Customer));
                if cfg.power_law_degrees && !parts.tier1.contains(p) {
                    parts.attach_pool.push(*p);
                }
            }
            // Occasional lateral peering among transits.
            if !parts.transits.is_empty() && self.rng.gen_bool(0.35) {
                if let Some(&peer) = parts.transits.choose(&mut self.rng) {
                    if peer != asn {
                        parts.edges.push((asn, peer, Relationship::Peer));
                    }
                }
            }
            let info = AsInfo::new(
                asn,
                Tier::Transit,
                NetworkType::TransitAccess,
                sample_country(&mut self.rng, PROVIDER_COUNTRY_WEIGHTS),
                prefixes,
                self.rng.gen_bool(PEERINGDB_COVERAGE),
            );
            parts.ases.insert(asn, info);
            parts.transits.push(asn);
            parts.attach_pool.push(asn);
        }

        // ---- Stubs of each type --------------------------------------------
        parts.contents = self.stubs(&mut parts, NetworkType::Content, cfg.content_count);
        parts.enterprises = self.stubs(&mut parts, NetworkType::Enterprise, cfg.enterprise_count);
        parts.edus = self.stubs(&mut parts, NetworkType::EducationResearchNfp, cfg.edu_count);
        parts.unknowns = self.stubs(&mut parts, NetworkType::Unknown, cfg.unknown_count);

        // ---- IXPs ----------------------------------------------------------
        // Candidate members: content networks peer most aggressively, then
        // transit/access; enterprises rarely.
        let mut member_pool: Vec<Asn> = Vec::new();
        member_pool.extend(&parts.contents);
        member_pool.extend(&parts.transits);
        member_pool.extend(&parts.contents); // double weight for content
        member_pool.extend(&parts.edus);
        member_pool.extend(&parts.enterprises);
        for i in 0..cfg.ixp_count {
            let rs_asn = self.fresh_rs_asn();
            let lan = self.alloc.alloc_lan();
            let country = sample_country(&mut self.rng, IXP_COUNTRY_WEIGHTS);
            // Size distribution: a few giants, many small exchanges.
            let member_count = if i < cfg.ixp_count / 8 {
                self.rng.gen_range(120..=200.min(member_pool.len().max(121) - 1))
            } else if i < cfg.ixp_count / 3 {
                self.rng.gen_range(25..=80)
            } else {
                self.rng.gen_range(4..=20)
            };
            let mut members: Vec<Asn> = member_pool
                .choose_multiple(&mut self.rng, member_count.min(member_pool.len()))
                .copied()
                .collect();
            members.sort_unstable();
            members.dedup();
            // Route-server AS entry; IXPs maintain PeeringDB records (LANs
            // are published).
            let info = AsInfo::new(rs_asn, Tier::Stub, NetworkType::Ixp, country, vec![], true);
            parts.ases.insert(rs_asn, info);
            for m in &members {
                parts.edges.push((*m, rs_asn, Relationship::RouteServer));
            }
            // Some bilateral peering among members of the same IXP.
            let bilateral = members.len() / 4;
            for _ in 0..bilateral {
                if let (Some(&a), Some(&b)) =
                    (members.choose(&mut self.rng), members.choose(&mut self.rng))
                {
                    if a != b {
                        parts.edges.push((a, b, Relationship::Peer));
                    }
                }
            }
            parts.ixps.push(Ixp {
                id: IxpId(i as u32),
                name: format!("IX-{i:02}-{country}"),
                route_server_asn: rs_asn,
                route_server_in_path: self.rng.gen_bool(0.7),
                peering_lan: lan,
                members,
                country,
            });
        }

        // ---- Blackhole offerings (ground truth) ----------------------------
        self.assign_offerings(&mut parts);

        // ---- Non-blackhole tag communities ----------------------------------
        // Transit networks tag customer/peer routes; this census is the
        // "other communities" population of Fig. 2.
        for asn in parts.tier1.iter().chain(&parts.transits) {
            let info = parts.ases.get_mut(asn).expect("transit AS exists");
            let n_tags = self.rng.gen_range(1..=4);
            for k in 0..n_tags {
                let (value, class) = match k {
                    // relationship tags
                    0 => (100 + self.rng.gen_range(0..10), TagClass::Informational),
                    // location tags
                    1 => (2000 + self.rng.gen_range(0..50), TagClass::Location),
                    // TE tags
                    _ => (3000 + self.rng.gen_range(0..100), TagClass::Action),
                };
                info.push_tag(value as u16, k as u32, class);
            }
        }

        Topology::assemble(parts.ases, parts.edges, parts.ixps)
    }

    /// Create `count` stub networks of type `ty`, each buying transit
    /// from one to three mid-tier providers.
    fn stubs(&mut self, parts: &mut Parts, ty: NetworkType, count: usize) -> Vec<Asn> {
        let mut out = Vec::with_capacity(count);
        let power_law = self.config.power_law_degrees;
        for _ in 0..count {
            let asn = self.fresh_asn();
            let (min_len, max_len, max_prefixes) = match ty {
                NetworkType::Content => (17, 21, 2), // hosters: midsize blocks
                NetworkType::EducationResearchNfp => (15, 17, 1),
                _ => (19, 23, 2),
            };
            let prefix_count = self.rng.gen_range(1..=max_prefixes);
            let prefixes = (0..prefix_count)
                .map(|_| {
                    let len = self.rng.gen_range(min_len..=max_len);
                    self.alloc_prefix(len)
                })
                .collect();
            let provider_count = self.rng.gen_range(1..=3usize);
            let mut chosen = Vec::new();
            for _ in 0..provider_count {
                let pool = if power_law { &parts.attach_pool } else { &parts.transits };
                if let Some(&p) = pool.choose(&mut self.rng) {
                    if !chosen.contains(&p) {
                        chosen.push(p);
                    }
                }
            }
            for p in &chosen {
                parts.edges.push((*p, asn, Relationship::Customer));
                if power_law {
                    parts.attach_pool.push(*p);
                }
            }
            let weights = if ty == NetworkType::TransitAccess {
                PROVIDER_COUNTRY_WEIGHTS
            } else {
                USER_COUNTRY_WEIGHTS
            };
            let info = AsInfo::new(
                asn,
                Tier::Stub,
                ty,
                sample_country(&mut self.rng, weights),
                prefixes,
                self.rng.gen_bool(if ty == NetworkType::Unknown {
                    0.0 // unknowns are unknown *because* they lack records
                } else {
                    PEERINGDB_COVERAGE
                }),
            );
            parts.ases.insert(asn, info);
            out.push(asn);
        }
        out
    }

    /// Pick a blackhole community value following the §4.1 conventions.
    fn trigger_value(&mut self) -> u16 {
        let roll: f64 = self.rng.gen();
        if roll < 0.51 {
            666
        } else if roll < 0.66 {
            66
        } else if roll < 0.81 {
            999
        } else if roll < 0.91 {
            9999
        } else {
            self.rng.gen_range(600..700)
        }
    }

    /// Pick a blackhole trigger for `asn`: classic `ASN:value` for 16-bit
    /// ASNs, RFC 8092 large `ASN:value:0` for 32-bit ASNs (which have no
    /// classic encoding).
    fn trigger_for(&mut self, asn: Asn) -> (Option<Community>, Option<LargeCommunity>) {
        let value = self.trigger_value();
        match classic_community(asn, value) {
            Some(c) => (Some(c), None),
            None => (None, Some(LargeCommunity::new(asn.value(), u32::from(value), 0))),
        }
    }

    /// Give the Table-2 populations their blackholing offerings.
    fn assign_offerings(&mut self, parts: &mut Parts) {
        let Parts { ases, ixps, tier1, transits, contents, edus, enterprises, unknowns, .. } =
            parts;
        let cfg = self.config.clone();

        // Shared ambiguous communities: a handful of transit providers
        // share community values whose high 16 bits are not a public ASN
        // (the paper's 0:666 / 65535-style cases).
        let shared_pool = [Community::from_parts(0, 666), Community::from_parts(64999, 666)];
        let mut shared_assigned = 0usize;

        // Transit/access providers: tier-1s first (the paper found 13
        // tier-1s with blackhole communities), then mid-tier.
        let mut transit_order: Vec<Asn> = tier1.to_vec();
        transit_order.extend(transits.iter().copied());
        let total_transit_bh = cfg.bh_transit.documented + cfg.bh_transit.undocumented;
        let selected: Vec<Asn> = transit_order.into_iter().take(total_transit_bh).collect();
        for (i, asn) in selected.iter().enumerate() {
            let documented = i < cfg.bh_transit.documented;
            // ~10% of documented transit offerings get a regional second
            // community (223 communities / 198 networks in Table 2).
            let mut communities = Vec::new();
            let mut large_community = None;
            if i == 0 {
                // The Level3 decoy: blackhole with ASN:9999, use ASN:666 as
                // a peering tag (added to tag_communities below).
                match classic_community(*asn, 9999) {
                    Some(c) => communities.push(c),
                    None => large_community = Some(LargeCommunity::new(asn.value(), 9999, 0)),
                }
            } else if shared_assigned < 4 && documented && self.rng.gen_bool(0.08) {
                communities.push(shared_pool[shared_assigned % shared_pool.len()]);
                shared_assigned += 1;
            } else if i == 1 && documented {
                // The single large-community blackholer (RFC 8092).
                large_community = Some(LargeCommunity::new(asn.value(), 666, 0));
                let (classic, _) = self.trigger_for(*asn);
                communities.extend(classic);
            } else {
                let (classic, large) = self.trigger_for(*asn);
                communities.extend(classic);
                large_community = large_community.or(large);
            }
            if documented && self.rng.gen_bool(0.10) {
                // Regional variant (e.g. blackhole only in EU). 32-bit
                // providers are large-community-only and get no variant.
                if let Some(&base) = communities.first() {
                    communities.push(Community::from_parts(
                        base.asn_part(),
                        base.value_part().wrapping_add(1),
                    ));
                }
            }
            let documentation = if !documented {
                DocumentationChannel::Undocumented
            } else {
                // IRR is the largest source, then web pages, then private.
                let roll: f64 = self.rng.gen();
                if roll < 0.62 {
                    DocumentationChannel::Irr
                } else if roll < 0.97 {
                    DocumentationChannel::WebPage
                } else {
                    DocumentationChannel::Private
                }
            };
            let auth = match self.rng.gen_range(0..10) {
                0 => BlackholeAuth::Rpki,
                1 | 2 => BlackholeAuth::IrrRegistered,
                _ => BlackholeAuth::OriginOrCone,
            };
            let info = ases.get_mut(asn).expect("selected AS exists");
            info.blackhole_offering = Some(BlackholeOffering {
                communities,
                large_community,
                min_accepted_length: if self.rng.gen_bool(0.85) { 25 } else { 22 },
                documentation,
                auth,
                blackhole_ip: None,
                strips_community: self.rng.gen_bool(0.25),
                honors_no_export: self.rng.gen_bool(0.4),
            });
            if i == 0 {
                // Attach the decoy peering tag.
                info.push_tag(666, 1, TagClass::Informational);
            }
        }

        // IXPs: 47/49 use RFC 7999; the rest share one legacy community.
        let legacy_ixps = (cfg.bh_ixp / 3).min(2);
        for (k, ixp) in ixps.iter().take(cfg.bh_ixp).enumerate() {
            let rfc7999 = k < cfg.bh_ixp - legacy_ixps;
            let communities = if rfc7999 {
                vec![Community::BLACKHOLE]
            } else {
                vec![Community::from_parts(65534, 666)]
            };
            let info = ases.get_mut(&ixp.route_server_asn).expect("route server AS exists");
            info.blackhole_offering = Some(BlackholeOffering {
                communities,
                large_community: None,
                min_accepted_length: 25,
                documentation: DocumentationChannel::Irr,
                auth: BlackholeAuth::IrrRegistered,
                blackhole_ip: Some(AddressAllocator::blackhole_ip(&ixp.peering_lan)),
                strips_community: false,
                honors_no_export: false,
            });
        }

        // Edge types.
        let assign_edge = |builder: &mut Self,
                           pool: &[Asn],
                           counts: crate::gen::ProviderCounts,
                           ases: &mut BTreeMap<Asn, AsInfo>| {
            let total = counts.documented + counts.undocumented;
            for (i, asn) in pool.iter().take(total).enumerate() {
                let documented = i < counts.documented;
                let documentation = if documented {
                    if builder.rng.gen_bool(0.6) {
                        DocumentationChannel::Irr
                    } else {
                        DocumentationChannel::WebPage
                    }
                } else {
                    DocumentationChannel::Undocumented
                };
                let (classic, large) = builder.trigger_for(*asn);
                let info = ases.get_mut(asn).expect("pool AS exists");
                info.blackhole_offering = Some(BlackholeOffering {
                    communities: classic.into_iter().collect(),
                    large_community: large,
                    min_accepted_length: 25,
                    documentation,
                    auth: BlackholeAuth::OriginOrCone,
                    blackhole_ip: None,
                    strips_community: builder.rng.gen_bool(0.3),
                    honors_no_export: builder.rng.gen_bool(0.4),
                });
            }
        };
        assign_edge(self, contents, cfg.bh_content, ases);
        assign_edge(self, edus, cfg.bh_edu, ases);
        assign_edge(self, enterprises, cfg.bh_enterprise, ases);
        assign_edge(self, unknowns, cfg.bh_unknown, ases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Classifier;

    fn build_tiny() -> Topology {
        TopologyBuilder::new(TopologyConfig::tiny(7)).build()
    }

    #[test]
    fn thirty_two_bit_asns_get_large_communities_not_truncated_classics() {
        // A transit-heavy walk that crosses the 16-bit ASN boundary (the
        // ASN stride averages ~10.5, so ASes past index ~6200 are 32-bit).
        // Before routing 32-bit providers through RFC 8092, two such ASes
        // aliasing mod 2^16 collided on one truncated `ASN:666`-style tag.
        let mut cfg = TopologyConfig::massive_scaled(7, 500);
        cfg.transit_count = 7_000;
        let t = TopologyBuilder::new(cfg).build();
        let shared = [Community::from_parts(0, 666), Community::from_parts(64_999, 666)];
        let mut high_tagged = 0usize;
        let mut high_offerings = 0usize;
        for info in t.ases() {
            if info.asn.value() <= u32::from(u16::MAX) || info.network_type == NetworkType::Ixp {
                continue;
            }
            // 32-bit ASes never own ASN-derived classic communities.
            assert!(info.tag_communities.is_empty(), "{} has truncated classic tags", info.asn);
            for tag in &info.tag_large_communities {
                assert_eq!(tag.community.asn(), info.asn);
                high_tagged += 1;
            }
            if let Some(o) = &info.blackhole_offering {
                assert!(
                    o.communities.iter().all(|c| shared.contains(c)),
                    "{} has a truncated classic trigger",
                    info.asn
                );
                if let Some(l) = o.large_community {
                    assert_eq!(l.asn(), info.asn);
                    high_offerings += 1;
                }
            }
        }
        assert!(high_tagged > 0, "no 32-bit AS received large tags");
        assert!(high_offerings > 0, "no 32-bit AS received a large trigger");
    }

    #[test]
    fn classic_community_refuses_32_bit_asns() {
        // Two ASNs that alias mod 2^16 — the collision the truncation
        // produced.
        let a = Asn::new(70_000);
        let b = Asn::new(70_000 + 65_536);
        assert_eq!(classic_community(a, 666), None);
        assert_eq!(classic_community(b, 666), None);
        assert_eq!(classic_community(Asn::new(3356), 666), Some(Community::from_parts(3356, 666)));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TopologyBuilder::new(TopologyConfig::tiny(42)).build();
        let b = TopologyBuilder::new(TopologyConfig::tiny(42)).build();
        let asns_a: Vec<_> = a.ases().map(|i| i.asn).collect();
        let asns_b: Vec<_> = b.ases().map(|i| i.asn).collect();
        assert_eq!(asns_a, asns_b);
        assert_eq!(a.blackholing_providers(), b.blackholing_providers());
        assert_eq!(a.ixps().len(), b.ixps().len());
        for (x, y) in a.ixps().iter().zip(b.ixps()) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.peering_lan, y.peering_lan);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TopologyBuilder::new(TopologyConfig::tiny(1)).build();
        let b = TopologyBuilder::new(TopologyConfig::tiny(2)).build();
        let asns_a: Vec<_> = a.ases().map(|i| i.asn).collect();
        let asns_b: Vec<_> = b.ases().map(|i| i.asn).collect();
        assert_ne!(asns_a, asns_b);
    }

    #[test]
    fn population_counts_match_config() {
        let cfg = TopologyConfig::tiny(7);
        let t = TopologyBuilder::new(cfg.clone()).build();
        assert_eq!(t.as_count(), cfg.total_ases() + cfg.ixp_count);
        assert_eq!(t.ixps().len(), cfg.ixp_count);
        let of_type = |ty| t.ases().filter(|i| i.network_type == ty).count();
        assert_eq!(of_type(NetworkType::Content), cfg.content_count);
        assert_eq!(of_type(NetworkType::Ixp), cfg.ixp_count);
    }

    #[test]
    fn blackhole_provider_counts_match_table2_shape() {
        let cfg = TopologyConfig::tiny(7);
        let t = TopologyBuilder::new(cfg.clone()).build();
        let providers = t.blackholing_providers();
        let expect = cfg.bh_transit.documented
            + cfg.bh_transit.undocumented
            + cfg.bh_ixp
            + cfg.bh_content.documented
            + cfg.bh_content.undocumented
            + cfg.bh_edu.documented
            + cfg.bh_edu.undocumented
            + cfg.bh_enterprise.documented
            + cfg.bh_enterprise.undocumented
            + cfg.bh_unknown.documented
            + cfg.bh_unknown.undocumented;
        assert_eq!(providers.len(), expect);
    }

    #[test]
    fn default_config_reproduces_paper_totals() {
        let cfg = TopologyConfig::default();
        let documented = cfg.bh_transit.documented
            + cfg.bh_ixp
            + cfg.bh_content.documented
            + cfg.bh_edu.documented
            + cfg.bh_enterprise.documented
            + cfg.bh_unknown.documented;
        let undocumented = cfg.bh_transit.undocumented
            + cfg.bh_content.undocumented
            + cfg.bh_edu.undocumented
            + cfg.bh_enterprise.undocumented
            + cfg.bh_unknown.undocumented;
        assert_eq!(documented, 307); // Table 2 total
        assert_eq!(undocumented, 102); // inferred, in parentheses
    }

    #[test]
    fn tier1_clique_is_complete() {
        let t = build_tiny();
        let tier1: Vec<Asn> = t.ases().filter(|i| i.tier == Tier::Tier1).map(|i| i.asn).collect();
        for &a in &tier1 {
            for &b in &tier1 {
                if a != b {
                    assert!(t.peers_of(a).contains(&b), "{a} and {b} must peer");
                }
            }
        }
    }

    #[test]
    fn every_stub_has_a_provider() {
        let t = build_tiny();
        for info in t.ases() {
            if info.tier == Tier::Stub && info.network_type != NetworkType::Ixp {
                assert!(
                    !t.providers_of(info.asn).is_empty(),
                    "{} ({:?}) has no provider",
                    info.asn,
                    info.network_type
                );
            }
        }
    }

    #[test]
    fn everyone_can_reach_tier1() {
        // Connectivity: the provider cone of any non-IXP AS intersects tier-1.
        let t = build_tiny();
        let tier1: Vec<Asn> = t.ases().filter(|i| i.tier == Tier::Tier1).map(|i| i.asn).collect();
        for info in t.ases() {
            if info.network_type == NetworkType::Ixp {
                continue;
            }
            let cone = t.provider_cone(info.asn);
            assert!(
                tier1.iter().any(|asn| cone.contains(asn)),
                "{} cannot reach the core",
                info.asn
            );
        }
    }

    #[test]
    fn ixps_have_members_and_lans() {
        let t = build_tiny();
        for ixp in t.ixps() {
            assert!(!ixp.members.is_empty(), "{} has no members", ixp.name);
            assert_eq!(ixp.peering_lan.length(), 24);
            for &m in &ixp.members {
                assert!(t.as_info(m).is_some());
                // Route-server session edge exists.
                assert!(t
                    .neighbors(m)
                    .iter()
                    .any(|(n, r)| *n == ixp.route_server_asn && *r == Relationship::RouteServer));
            }
        }
    }

    #[test]
    fn ixp_offerings_use_rfc7999_majority() {
        let t = TopologyBuilder::new(TopologyConfig::tiny(3)).build();
        let mut rfc = 0;
        let mut other = 0;
        for ixp in t.ixps() {
            if let Some(info) = t.as_info(ixp.route_server_asn) {
                if let Some(o) = &info.blackhole_offering {
                    if o.communities.contains(&Community::BLACKHOLE) {
                        rfc += 1;
                    } else {
                        other += 1;
                    }
                    assert!(o.blackhole_ip.is_some(), "IXPs advertise a blackholing IP");
                }
            }
        }
        assert!(rfc >= other, "RFC 7999 must dominate ({rfc} vs {other})");
        assert!(rfc + other >= 3);
    }

    #[test]
    fn level3_decoy_exists() {
        // The first transit blackholer blackholes with ASN:9999 and tags
        // peering routes with ASN:666.
        let t = build_tiny();
        let decoy = t.ases().find(|info| {
            info.blackhole_offering
                .as_ref()
                .is_some_and(|o| o.primary_community().value_part() == 9999)
                && info.tag_communities.iter().any(|c| c.value_part() == 666)
        });
        assert!(decoy.is_some(), "Level3-style decoy must exist");
    }

    #[test]
    fn prefixes_are_globally_disjoint() {
        let t = build_tiny();
        let mut all: Vec<_> = t.ases().flat_map(|i| i.prefixes.iter().copied()).collect();
        for ixp in t.ixps() {
            all.push(ixp.peering_lan);
        }
        for (i, a) in all.iter().enumerate() {
            for b in all.iter().skip(i + 1) {
                assert!(!a.contains(b) && !b.contains(a), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn classifier_is_usable_on_generated_topology() {
        let t = build_tiny();
        let c = Classifier;
        // Every AS classifies without panicking; IXP route servers with
        // records classify as IXP.
        for info in t.ases() {
            let _ = c.classify(&t, info.asn);
        }
        for ixp in t.ixps() {
            assert_eq!(c.network_type(&t, ixp.route_server_asn), NetworkType::Ixp);
        }
    }

    #[test]
    fn massive_scaled_builds_a_power_law_graph() {
        let cfg = TopologyConfig::massive_scaled(11, 2000);
        let t = TopologyBuilder::new(cfg.clone()).build();
        assert_eq!(t.as_count(), cfg.total_ases() + cfg.ixp_count);
        let expect_bh = cfg.bh_transit.documented
            + cfg.bh_transit.undocumented
            + cfg.bh_ixp
            + cfg.bh_content.documented
            + cfg.bh_content.undocumented
            + cfg.bh_edu.documented
            + cfg.bh_edu.undocumented
            + cfg.bh_enterprise.documented
            + cfg.bh_enterprise.undocumented
            + cfg.bh_unknown.documented
            + cfg.bh_unknown.undocumented;
        assert_eq!(t.blackholing_providers().len(), expect_bh);
        // Preferential attachment: hub transits dwarf the median.
        let mut degrees: Vec<usize> = t
            .ases()
            .filter(|i| i.tier == Tier::Transit)
            .map(|i| t.degrees(i.asn).customers)
            .collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let max = *degrees.last().unwrap();
        assert!(
            max >= 40 && max >= 5 * median.max(1),
            "no power-law tail: max {max}, median {median}"
        );
        // Stubs still multihome and reach the core.
        let tier1: Vec<Asn> = t.ases().filter(|i| i.tier == Tier::Tier1).map(|i| i.asn).collect();
        for info in t.ases() {
            if info.network_type == NetworkType::Ixp {
                continue;
            }
            if info.tier == Tier::Stub {
                assert!(!t.providers_of(info.asn).is_empty(), "{} has no provider", info.asn);
            }
            let cone = t.provider_cone(info.asn);
            assert!(
                tier1.iter().any(|asn| cone.contains(asn)),
                "{} cannot reach the core",
                info.asn
            );
        }
        // Route-server ASNs moved out of the regular ASN walk's range.
        for ixp in t.ixps() {
            assert!(ixp.route_server_asn.value() >= 3_000_000);
        }
        // Prefixes stay globally disjoint under the packed allocator.
        let mut all: Vec<_> = t.ases().flat_map(|i| i.prefixes.iter().copied()).collect();
        for ixp in t.ixps() {
            all.push(ixp.peering_lan);
        }
        all.sort_unstable_by_key(|p| (u32::from(p.network()), p.length()));
        for pair in all.windows(2) {
            assert!(
                !pair[0].contains(&pair[1]) && !pair[1].contains(&pair[0]),
                "{} overlaps {}",
                pair[0],
                pair[1]
            );
        }
        // The rank invariant the propagation engine relies on, at scale.
        let ranks = t.propagation_ranks();
        for info in t.ases() {
            for &(neighbor, rel) in t.neighbors(info.asn) {
                if rel == Relationship::Provider {
                    assert!(
                        ranks.rank_of(neighbor).unwrap() > ranks.rank_of(info.asn).unwrap(),
                        "provider edge {} -> {} does not increase rank",
                        info.asn,
                        neighbor
                    );
                }
            }
        }
    }

    #[test]
    fn default_scale_builds_and_is_consistent() {
        // One full-size build to catch scaling issues (allocator bounds,
        // member sampling, etc.).
        let t = TopologyBuilder::new(TopologyConfig { seed: 1, ..Default::default() }).build();
        let cfg = TopologyConfig::default();
        assert_eq!(t.as_count(), cfg.total_ases() + cfg.ixp_count);
        assert_eq!(t.blackholing_providers().len(), 307 + 102);
        let transit = t.ases().filter(|i| !t.customers_of(i.asn).is_empty()).count();
        assert!(transit > cfg.tier1_count);
        // Documented/undocumented split survives.
        let documented = t
            .ases()
            .filter(|i| {
                i.blackhole_offering
                    .as_ref()
                    .is_some_and(|o| o.documentation != DocumentationChannel::Undocumented)
            })
            .count();
        assert_eq!(documented, 307);
    }
}
