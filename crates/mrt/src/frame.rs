//! The one record-framing core under every reader.
//!
//! An MRT archive is a run of records, each a 12-byte common header
//! (timestamp, type, subtype, body length) and a body. [`Framer`] is the
//! only code that parses that header, bounds the length, decides whether
//! a short read means "not yet" or "torn", applies the [`ReadMode`], and
//! counts what it framed. The public readers differ only in how bytes
//! reach it — a [`Window`]: `MrtBytesReader` hands over the archive
//! itself (bodies are refcounted slices of it), `TailingReader` and
//! `MrtReader` a [`Tail`] that grows as bytes arrive.

use bytes::{Buf, Bytes};

use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::wire::AttrCache;

use crate::read::{decode_body, ReadMode, MAX_RECORD_LEN};
use crate::record::{MrtError, MrtRecord};

/// Length of the MRT common header.
const HEADER_LEN: usize = 12;

/// The unconsumed bytes of an archive, as one reader holds them.
pub(crate) trait Window {
    /// Everything not yet framed into a record.
    fn pending(&self) -> &[u8];

    /// Consume one record — header plus `len` body bytes, all of which
    /// are in [`pending`](Window::pending) — and return its body.
    fn take_body(&mut self, len: usize) -> Bytes;
}

/// A complete in-memory archive: bodies are O(1) slices of it.
impl Window for Bytes {
    fn pending(&self) -> &[u8] {
        self
    }

    fn take_body(&mut self, len: usize) -> Bytes {
        self.advance(HEADER_LEN);
        self.split_to(len)
    }
}

/// A growable window: the unframed tail of an archive still arriving.
/// Consumed records are compacted away on the next append, so it holds
/// one partial record plus one append chunk.
#[derive(Default)]
pub(crate) struct Tail {
    buf: Vec<u8>,
    pos: usize,
}

impl Tail {
    /// Append `chunk`, dropping the consumed prefix first.
    pub(crate) fn extend(&mut self, chunk: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(chunk);
    }
}

impl Window for Tail {
    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    fn take_body(&mut self, len: usize) -> Bytes {
        let body = &self.buf[self.pos + HEADER_LEN..][..len];
        self.pos += HEADER_LEN + len;
        Bytes::from(body)
    }
}

/// The framing and decoding core: a [`Window`] plus everything the
/// readers have in common; see the [module docs](self).
pub(crate) struct Framer<W> {
    pub(crate) window: W,
    pub(crate) mode: ReadMode,
    /// No more bytes will arrive: a partial trailing record is a
    /// truncation error, not "pending". Set by the reader, never unset.
    pub(crate) closed: bool,
    /// An error was returned; the stream offset is unreliable, so every
    /// later call yields `Ok(None)`.
    failed: bool,
    pub(crate) records_read: u64,
    pub(crate) records_skipped: u64,
    pub(crate) bytes_consumed: u64,
    pub(crate) cache: AttrCache,
}

impl<W: Window> Framer<W> {
    /// A framer over a complete (`closed`) or still growing archive.
    pub(crate) fn new(window: W, mode: ReadMode, closed: bool) -> Self {
        Framer {
            window,
            mode,
            closed,
            failed: false,
            records_read: 0,
            records_skipped: 0,
            bytes_consumed: 0,
            cache: AttrCache::new(),
        }
    }

    /// Can more input still change what [`Framer::next_record`] returns?
    pub(crate) fn wants_input(&self) -> bool {
        !self.closed && !self.failed
    }

    /// End the stream on `error`: it is returned once, then the framer
    /// yields `Ok(None)` forever.
    pub(crate) fn fail<T>(&mut self, error: MrtError) -> Result<T, MrtError> {
        self.failed = true;
        Err(error)
    }

    /// The window holds `available` of the `needed` bytes of a header or
    /// body: "not yet" while the archive grows, torn once it is closed.
    fn short(
        &mut self,
        what: &'static str,
        needed: usize,
        available: usize,
    ) -> Result<Option<MrtRecord>, MrtError> {
        if !self.closed {
            return Ok(None);
        }
        self.fail(CodecError::Truncated { what, needed, available }.into())
    }

    /// Frame and decode the next record of the window. `Ok(None)` means
    /// no complete record is buffered: clean EOF if the framer is closed,
    /// otherwise "pending — call again after the window grew".
    pub(crate) fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        loop {
            let pending = self.window.pending();
            if self.failed || pending.is_empty() {
                return Ok(None);
            }
            let Some(header) = pending.first_chunk::<HEADER_LEN>() else {
                let available = pending.len();
                return self.short("mrt header", HEADER_LEN, available);
            };
            let [t0, t1, t2, t3, y0, y1, s0, s1, l0, l1, l2, l3] = *header;
            let len = u32::from_be_bytes([l0, l1, l2, l3]);
            if len > MAX_RECORD_LEN {
                return self.fail(MrtError::OversizedRecord(len));
            }
            let len = len as usize;
            let available = pending.len() - HEADER_LEN;
            if available < len {
                return self.short("mrt body", len, available);
            }
            let timestamp = SimTime::from_unix(u32::from_be_bytes([t0, t1, t2, t3]) as u64);
            let (ty, subtype) = (u16::from_be_bytes([y0, y1]), u16::from_be_bytes([s0, s1]));
            let body = self.window.take_body(len);
            self.bytes_consumed += (HEADER_LEN + len) as u64;
            match decode_body(ty, subtype, body, Some(&mut self.cache)) {
                Ok(body) => {
                    self.records_read += 1;
                    return Ok(Some(MrtRecord { timestamp, body }));
                }
                Err(_) if self.mode == ReadMode::Tolerant => self.records_skipped += 1,
                Err(e) => return self.fail(e),
            }
        }
    }
}
