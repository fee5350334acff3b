//! # bh-topology — synthetic AS-level Internet
//!
//! The paper measures a real Internet through BGP collectors; this crate
//! builds the *substrate* that substitutes for it: a seeded, deterministic
//! AS-level topology with
//!
//! * a tier-1 clique, mid-tier transit, and typed stub networks
//!   (content/enterprise/education/unknown — the PeeringDB taxonomy of
//!   Tables 2 and 4),
//! * Gao-Rexford business relationships (customer/provider/peer) plus IXP
//!   route-server sessions,
//! * IXPs with route servers, published peering LANs and `.66` blackholing
//!   IPs (the PeeringDB data the inference consults),
//! * per-country registration following Fig. 6's distributions,
//! * **ground-truth blackhole offerings** shaped like Table 2 — including
//!   ambiguous shared communities, regional variants, the RFC 7999 IXP
//!   majority, one RFC 8092 large-community blackholer, and the
//!   Level3-style `ASN:666`-as-peering-tag decoy,
//! * a PeeringDB→CAIDA two-stage classifier ([`registry::Classifier`]).
//!
//! Ground truth lives here so that the `bh-irr` dictionary miner and the
//! `bh-core` inference engine can be *validated* against it: precision and
//! recall are measurable instead of anecdotal.

pub mod addressing;
pub mod gen;
pub mod geo;
pub mod graph;
pub mod policy;
pub mod registry;
pub mod types;

pub use addressing::AddressAllocator;
pub use gen::{ProviderCounts, TopologyBuilder, TopologyConfig};
pub use graph::{AsnIndex, Degrees, LanIndex, OriginIndex, PropagationRanks, Topology};
pub use policy::{AsPolicy, PolicyTable, Roa, RoaTable, RpkiValidity};
pub use registry::{ClassificationSource, Classifier};
pub use types::{
    classic_community, AsInfo, BlackholeAuth, BlackholeOffering, DocumentationChannel, Ixp, IxpId,
    LargeTag, NetworkType, Relationship, TagClass, Tier,
};
