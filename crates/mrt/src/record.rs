//! MRT record types (RFC 6396): the type codes, the errors, the values
//! `MrtWriter` takes for the records it writes, and the [`UpdateRecord`]
//! a reader fills.

use std::fmt;
use std::io;
use std::net::{IpAddr, Ipv4Addr};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::error::CodecError;
use bh_bgp_types::prefix::Ipv4Prefix;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::update::PrefixList;

/// MRT record types used here.
pub mod mrt_type {
    /// TABLE_DUMP_V2.
    pub const TABLE_DUMP_V2: u16 = 13;
    /// BGP4MP.
    pub const BGP4MP: u16 = 16;
    /// BGP4MP_ET (extended timestamp).
    pub const BGP4MP_ET: u16 = 17;
}

/// BGP4MP subtypes.
pub mod bgp4mp_subtype {
    /// STATE_CHANGE (2-byte AS).
    pub const STATE_CHANGE: u16 = 0;
    /// MESSAGE (2-byte AS).
    pub const MESSAGE: u16 = 1;
    /// MESSAGE_AS4.
    pub const MESSAGE_AS4: u16 = 4;
    /// STATE_CHANGE_AS4.
    pub const STATE_CHANGE_AS4: u16 = 5;
}

/// TABLE_DUMP_V2 subtypes.
pub mod td2_subtype {
    /// PEER_INDEX_TABLE.
    pub const PEER_INDEX_TABLE: u16 = 1;
    /// RIB_IPV4_UNICAST.
    pub const RIB_IPV4_UNICAST: u16 = 2;
}

/// Errors from reading/writing MRT archives.
#[derive(Debug)]
pub enum MrtError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Record or payload was malformed.
    Codec(CodecError),
    /// A record length field exceeds sanity bounds.
    OversizedRecord(u32),
    /// Bytes were appended to a tailing reader after it was closed; they
    /// were dropped (the count), and the stream ends here.
    ExtendedAfterClose(usize),
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Io(e) => write!(f, "mrt i/o error: {e}"),
            MrtError::Codec(e) => write!(f, "mrt codec error: {e}"),
            MrtError::OversizedRecord(len) => write!(f, "mrt record length {len} exceeds bound"),
            MrtError::ExtendedAfterClose(len) => {
                write!(f, "{len} mrt bytes appended after close were dropped")
            }
        }
    }
}

impl std::error::Error for MrtError {}

impl From<io::Error> for MrtError {
    fn from(e: io::Error) -> Self {
        MrtError::Io(e)
    }
}

impl From<CodecError> for MrtError {
    fn from(e: CodecError) -> Self {
        MrtError::Codec(e)
    }
}

/// BGP FSM states carried by STATE_CHANGE records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BgpState {
    /// Idle.
    Idle,
    /// Connect.
    Connect,
    /// Active.
    Active,
    /// OpenSent.
    OpenSent,
    /// OpenConfirm.
    OpenConfirm,
    /// Established.
    Established,
}

impl BgpState {
    /// Wire code (RFC 6396 §4.4.1, 1-based).
    pub fn code(self) -> u16 {
        match self {
            BgpState::Idle => 1,
            BgpState::Connect => 2,
            BgpState::Active => 3,
            BgpState::OpenSent => 4,
            BgpState::OpenConfirm => 5,
            BgpState::Established => 6,
        }
    }

    /// Decode from the wire code.
    pub fn from_code(code: u16) -> Option<BgpState> {
        Some(match code {
            1 => BgpState::Idle,
            2 => BgpState::Connect,
            3 => BgpState::Active,
            4 => BgpState::OpenSent,
            5 => BgpState::OpenConfirm,
            6 => BgpState::Established,
            _ => return None,
        })
    }
}

/// One peer of a TABLE_DUMP_V2 PEER_INDEX_TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer BGP identifier (router ID).
    pub bgp_id: [u8; 4],
    /// Peer IP address.
    pub ip: IpAddr,
    /// Peer ASN.
    pub asn: Asn,
}

impl PeerEntry {
    /// A peer entry with a router ID derived from its IPv4 address.
    pub fn new(asn: Asn, ip: IpAddr) -> Self {
        let bgp_id = match ip {
            IpAddr::V4(v4) => v4.octets(),
            IpAddr::V6(v6) => {
                let o = v6.octets();
                [o[12], o[13], o[14], o[15]]
            }
        };
        PeerEntry { bgp_id, ip, asn }
    }
}

/// TABLE_DUMP_V2 PEER_INDEX_TABLE: the peer directory that RIB entries
/// reference by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerIndexTable {
    /// Collector BGP identifier.
    pub collector_id: [u8; 4],
    /// Optional view name (e.g. the collector name).
    pub view_name: String,
    /// Peer directory.
    pub peers: Vec<PeerEntry>,
}

impl PeerIndexTable {
    /// Build a table.
    pub fn new(collector_id: [u8; 4], view_name: impl Into<String>, peers: Vec<PeerEntry>) -> Self {
        PeerIndexTable { collector_id, view_name: view_name.into(), peers }
    }

    /// Look up a peer by index.
    pub fn peer(&self, index: u16) -> Option<&PeerEntry> {
        self.peers.get(index as usize)
    }
}

/// One RIB_IPV4_UNICAST entry: the per-peer best paths for one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Sequence number within the dump.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// One entry per peer that had a path at dump time.
    pub entries: Vec<RibPeerEntry>,
}

/// One peer's path in a [`RibEntry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibPeerEntry {
    /// Index into the PEER_INDEX_TABLE.
    pub peer_index: u16,
    /// When the route was originated/learned.
    pub originated: SimTime,
    /// The path attributes.
    pub attrs: PathAttributes,
}

/// One BGP4MP UPDATE record as the elem path consumes it, filled by
/// [`MessageStream::next_update`](crate::MessageStream::next_update) into
/// buffers reused from record to record.
#[derive(Debug, Clone)]
pub struct UpdateRecord {
    /// Record timestamp.
    pub timestamp: SimTime,
    /// ASN of the sending peer.
    pub peer_asn: Asn,
    /// IP of the sending peer.
    pub peer_ip: IpAddr,
    /// The path attributes; `None` for an empty attribute block (or once
    /// a consumer took them).
    pub attrs: Option<PathAttributes>,
    /// Announced prefixes: first-seen order, no repeats.
    pub announced: PrefixList,
    /// Withdrawn prefixes: first-seen order, no repeats.
    pub withdrawn: PrefixList,
}

impl Default for UpdateRecord {
    fn default() -> Self {
        UpdateRecord {
            timestamp: SimTime::ZERO,
            peer_asn: Asn::new(0),
            peer_ip: IpAddr::V4(Ipv4Addr::UNSPECIFIED),
            attrs: None,
            announced: PrefixList::new(),
            withdrawn: PrefixList::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgp_state_codes_round_trip() {
        for s in [
            BgpState::Idle,
            BgpState::Connect,
            BgpState::Active,
            BgpState::OpenSent,
            BgpState::OpenConfirm,
            BgpState::Established,
        ] {
            assert_eq!(BgpState::from_code(s.code()), Some(s));
        }
        assert_eq!(BgpState::from_code(0), None);
        assert_eq!(BgpState::from_code(7), None);
    }

    #[test]
    fn peer_entry_derives_router_id() {
        let p = PeerEntry::new(Asn::new(6939), "198.32.176.20".parse().unwrap());
        assert_eq!(p.bgp_id, [198, 32, 176, 20]);
        let p6 = PeerEntry::new(Asn::new(6939), "2001:db8::1".parse().unwrap());
        assert_eq!(p6.bgp_id, [0, 0, 0, 1]);
    }

    #[test]
    fn peer_index_lookup() {
        let table = PeerIndexTable::new(
            [1, 2, 3, 4],
            "v",
            vec![PeerEntry::new(Asn::new(1), "10.0.0.1".parse().unwrap())],
        );
        assert!(table.peer(0).is_some());
        assert!(table.peer(1).is_none());
    }

    #[test]
    fn error_display() {
        let e = MrtError::OversizedRecord(1 << 30);
        assert!(e.to_string().contains("exceeds"));
        let e: MrtError = CodecError::BadLength { what: "x", value: 1 }.into();
        assert!(e.to_string().contains("codec"));
    }
}
