//! # bh-routing — BGP propagation simulator and collector substrate
//!
//! This crate substitutes for the paper's measurement infrastructure: the
//! real Internet's BGP dynamics plus the RIPE RIS / Route Views / PCH /
//! CDN collector platforms. It produces the exact observable the
//! inference engine consumes — timestamped, per-peer BGP elements
//! ([`BgpElem`], the BGPStream shape) — with the visibility mechanics the
//! paper depends on:
//!
//! * Gao-Rexford propagation (valley-free exports, relationship
//!   preferences) — [`policy`], [`sim`];
//! * blackhole acceptance at providers (trigger communities, >/24 length
//!   window, origin/cone/RPKI/IRR authentication) — [`policy`];
//! * community bundling, stripping, NO_EXPORT, and RFC 7999-compliant
//!   suppression — [`sim`];
//! * IXP route servers with member redistribution and PCH route-server
//!   views whose peer-ip lies in the peering LAN — [`sim`];
//! * platform placement biases — [`collector`];
//! * valley-free *forwarding* paths for the data-plane crates —
//!   [`paths`];
//! * combinatorial dataset statistics (Table 1) — [`stats`];
//! * MRT export of the element stream, plus a constant-memory streaming
//!   reader — [`archive`];
//! * source-agnostic element streams for the inference — [`source`];
//! * k-way timestamp merging of many collector streams — [`merge`];
//! * bounded-memory ingestion of whole archive fleets as one merged
//!   stream — [`fleet`];
//! * live tailing of *growing* archives with a watermark-gated merge —
//!   [`live`].

pub mod archive;
pub mod collector;
pub mod elem;
pub mod extensions;
pub mod fleet;
pub mod live;
pub mod merge;
pub mod paths;
pub mod policy;
pub mod sim;
pub mod source;
pub mod stats;

pub use archive::{merge_streams, read_updates, split_by_collector, write_updates, MrtElemSource};
pub use collector::{deploy, CollectorConfig, CollectorDeployment, CollectorSession, FeedKind};
pub use elem::{BgpElem, DataSource, ElemType, PeerKey};
pub use extensions::{PolicyEngine, RunStats};
pub use fleet::{ArchiveReport, CollectorFleet, FleetReport, FleetSource};
pub use live::{ArchiveClosed, LiveArchive, LiveMerge, LivePoll, TailingSource, WatermarkClock};
pub use merge::MergedSource;
pub use paths::ForwardingTree;
pub use policy::{ImportDecision, ImportOutcome, RejectReason, SessionBehavior};
pub use sim::{AnnounceOutcome, AnnounceScope, Announcement, BgpSimulator, PropagationError};
pub use source::{collect_source, ElemSource, SliceSource};
pub use stats::{table1, DatasetStats};
