//! # bh-bgp-types — BGP data model for the blackholing study
//!
//! Foundational types shared by every crate in the `bgp-blackholing`
//! workspace, reproducing the data model needed by Giotsas et al.,
//! *"Inferring BGP Blackholing Activity in the Internet"* (IMC 2017):
//!
//! * [`Asn`] — autonomous system numbers (16/32-bit, RFC 6793 aware).
//! * [`Ipv4Prefix`] — CIDR prefixes with containment and specificity
//!   predicates (the paper's inference hinges on "more specific than /24"
//!   checks; 96.6 % of the study's prefixes are IPv4 and its evaluation
//!   is IPv4-only, so that is the one family modelled).
//! * [`Community`], [`ExtendedCommunity`], [`LargeCommunity`] — the BGP
//!   community attribute families (RFC 1997, RFC 4360, RFC 8092), including
//!   the RFC 7999 well-known `BLACKHOLE` value `65535:666`.
//! * [`AsPath`] — AS paths with prepending removal, the basis for inferring
//!   the *blackholing user* as the hop before the provider.
//! * [`PathAttributes`] / [`BgpUpdate`] — BGP UPDATE messages with a binary
//!   wire codec (consumed by the `bh-mrt` MRT reader/writer).
//! * [`bogon::BogonFilter`] — Team-Cymru-style bogon cleaning used in §3 of
//!   the paper ("filter out non-routable, private, and bogon prefixes, and
//!   eliminate prefixes less-specific than /8").
//! * [`PrefixTrie`] — longest-prefix-match trie behind the topology's
//!   peering-LAN and prefix-origin indexes.
//! * [`SimTime`] — simulation timestamps (Unix seconds) with civil-date
//!   helpers for daily bucketing of the longitudinal analysis (Fig. 4).
//!
//! The crate is deliberately free of I/O and randomness: it is a pure data
//! model with deterministic codecs, in the spirit of an event-driven
//! networking stack (state machines over explicit wire formats, no hidden
//! machinery).

pub mod as_path;
pub mod asn;
pub mod attrs;
pub mod bogon;
pub mod community;
pub mod error;
pub mod hash;
pub mod intern;
pub mod prefix;
pub mod time;
pub mod trie;
pub mod update;
pub mod wire;

pub use as_path::{AsPath, AsPathSegment};
pub use asn::Asn;
pub use attrs::{Origin, PathAttributes};
pub use community::{AnyCommunity, Community, CommunitySet, ExtendedCommunity, LargeCommunity};
pub use error::{CodecError, ParseError};
pub use intern::{CommunitySetId, CommunitySetTable, InternTable, Internable, PathId, PathTable};
pub use prefix::Ipv4Prefix;
pub use time::{SimDuration, SimTime};
pub use trie::PrefixTrie;
pub use update::BgpUpdate;
