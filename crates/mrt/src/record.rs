//! MRT record types (RFC 6396): the type codes, the errors, and the
//! [`UpdateRecord`] a reader fills.

use std::fmt;
use std::io;
use std::net::{IpAddr, Ipv4Addr};

use bh_bgp_types::asn::Asn;
use bh_bgp_types::attrs::PathAttributes;
use bh_bgp_types::error::CodecError;
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
    fn error_display() {
        let e = MrtError::OversizedRecord(1 << 30);
        assert!(e.to_string().contains("exceeds"));
        let e: MrtError = CodecError::BadLength { what: "x", value: 1 }.into();
        assert!(e.to_string().contains("codec"));
    }
}
