//! The one record-framing core under every reader.
//!
//! An MRT archive is a run of records, each a 12-byte common header
//! (timestamp, type, subtype, body length) and a body. [`Framer`] is the
//! only code that parses that header, bounds the length, decides whether
//! a short read means "not yet" or "torn", applies the [`ReadMode`], and
//! counts what it framed. Each body is handed to the record parser as a
//! slice borrowed from the reader's [`Window`] — `MrtBytesReader` frames
//! the archive itself, `TailingReader` a [`Tail`] that grows as bytes
//! arrive — so nothing is copied or refcounted per record;
//! only an attribute block the cache has not seen is taken as an owned key.

use bytes::{Buf, Bytes};

use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::wire::AttrCache;

use crate::read::{parse_body, BodyView, ReadMode, MAX_RECORD_LEN};
use crate::record::{MrtError, MrtRecord, UpdateRecord};

/// Length of the MRT common header.
const HEADER_LEN: usize = 12;

/// The unconsumed bytes of an archive, as one reader holds them.
pub(crate) trait Window {
    /// Everything not yet framed into a record.
    fn pending(&self) -> &[u8];

    /// Consume `len` framed bytes from the front of
    /// [`pending`](Window::pending).
    fn consume(&mut self, len: usize);

    /// An owned buffer holding `part`, a slice of
    /// [`pending`](Window::pending).
    fn share(&self, part: &[u8]) -> Bytes;
}

/// A complete in-memory archive: shared parts are O(1) slices of it.
impl Window for Bytes {
    fn pending(&self) -> &[u8] {
        self
    }

    fn consume(&mut self, len: usize) {
        self.advance(len);
    }

    fn share(&self, part: &[u8]) -> Bytes {
        self.slice_ref(part)
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

    fn consume(&mut self, len: usize) {
        self.pos += len;
    }

    fn share(&self, part: &[u8]) -> Bytes {
        Bytes::from(part)
    }
}

/// One framed record: its header fields and its body, borrowed from the
/// window.
pub(crate) struct Frame<'a> {
    pub(crate) timestamp: SimTime,
    pub(crate) ty: u16,
    pub(crate) subtype: u16,
    pub(crate) body: &'a [u8],
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
    pub(crate) failed: bool,
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

    /// End the stream on `error`: it is returned once, then the framer
    /// yields `Ok(None)` forever.
    pub(crate) fn fail<T>(&mut self, error: MrtError) -> Result<T, MrtError> {
        self.failed = true;
        Err(error)
    }

    /// The window holds `available` of the `needed` bytes of a header or
    /// body: "not yet" while the archive grows, torn once it is closed.
    fn short<T>(
        &mut self,
        what: &'static str,
        needed: usize,
        available: usize,
    ) -> Result<Option<T>, MrtError> {
        if !self.closed {
            return Ok(None);
        }
        self.fail(CodecError::Truncated { what, needed, available }.into())
    }

    /// Frame records and hand each to `decode` until it yields a value.
    /// `decode` returning `Ok(None)` passes over a well-formed record
    /// (counted as read); its error is counted as a skip in tolerant
    /// mode and ends the stream in strict mode. `Ok(None)` from here means
    /// no complete record is buffered: clean EOF if the framer is closed,
    /// otherwise "pending — call again after the window grew".
    fn frame<T>(
        &mut self,
        mut decode: impl FnMut(Frame<'_>, &W, &mut AttrCache) -> Result<Option<T>, MrtError>,
    ) -> Result<Option<T>, MrtError> {
        loop {
            let pending = self.window.pending();
            if self.failed || pending.is_empty() {
                return Ok(None);
            }
            let Some((header, rest)) = pending.split_first_chunk::<HEADER_LEN>() else {
                let available = pending.len();
                return self.short("mrt header", HEADER_LEN, available);
            };
            let [t0, t1, t2, t3, y0, y1, s0, s1, l0, l1, l2, l3] = *header;
            let len = u32::from_be_bytes([l0, l1, l2, l3]);
            if len > MAX_RECORD_LEN {
                return self.fail(MrtError::OversizedRecord(len));
            }
            let len = len as usize;
            let Some(body) = rest.get(..len) else {
                let available = rest.len();
                return self.short("mrt body", len, available);
            };
            let frame = Frame {
                timestamp: SimTime::from_unix(u32::from_be_bytes([t0, t1, t2, t3]) as u64),
                ty: u16::from_be_bytes([y0, y1]),
                subtype: u16::from_be_bytes([s0, s1]),
                body,
            };
            let decoded = decode(frame, &self.window, &mut self.cache);
            self.window.consume(HEADER_LEN + len);
            self.bytes_consumed += (HEADER_LEN + len) as u64;
            match decoded {
                Ok(Some(value)) => {
                    self.records_read += 1;
                    return Ok(Some(value));
                }
                Ok(None) => self.records_read += 1,
                Err(_) if self.mode == ReadMode::Tolerant => self.records_skipped += 1,
                Err(e) => return self.fail(e),
            }
        }
    }

    /// Frame and decode the next record, whatever its type.
    pub(crate) fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        self.frame(|frame, window, cache| {
            let body = parse_body(frame.ty, frame.subtype, frame.body)?
                .materialize(cache, |raw| window.share(raw))?;
            Ok(Some(MrtRecord { timestamp: frame.timestamp, body }))
        })
    }

    /// Frame records until the next BGP4MP UPDATE and decode it into
    /// `into`. Every other record is decoded and counted as
    /// [`next_record`](Self::next_record) would, then dropped; the UPDATE
    /// is checked whole before `into` is touched.
    pub(crate) fn next_update(&mut self, into: &mut UpdateRecord) -> Result<Option<()>, MrtError> {
        self.frame(|frame, window, cache| {
            let BodyView::Message(envelope, Some(update)) =
                parse_body(frame.ty, frame.subtype, frame.body)?
            else {
                return Ok(None);
            };
            let attrs = update.attributes(Some(cache), |raw| window.share(raw))?;
            into.timestamp = frame.timestamp;
            into.peer_asn = envelope.peer_asn;
            into.peer_ip = envelope.peer_ip;
            into.attrs = attrs;
            into.announced.clear();
            into.announced.extend(update.announced());
            into.withdrawn.clear();
            into.withdrawn.extend(update.withdrawn());
            Ok(Some(()))
        })
    }
}
