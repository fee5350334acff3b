//! The one record-framing core under every reader.
//!
//! An MRT archive is a run of records, each a 12-byte common header
//! (timestamp, type, subtype, body length) and a body. [`Framer`] is the
//! only code that parses that header, bounds the length, decides whether
//! a short read means "not yet" or "torn", applies the [`ReadMode`], and
//! counts what it framed. Each body is handed to the record parser as a
//! slice borrowed from the reader's [`Window`], and both windows hold
//! their bytes as [`Bytes`]: `MrtBytesReader` frames the archive itself,
//! `TailingReader` a [`Tail`] of the chunks the caller appended. So
//! nothing is copied or refcounted per record, and an attribute block the
//! cache has not seen is kept as an O(1) slice of the bytes it came in.
//!
//! A [`Tail`] frames each appended chunk in place. Only a record torn
//! across chunks is copied, into a side buffer that holds that record's
//! bytes alone and is frozen into a [`Bytes`] once the record is whole;
//! every byte is copied at most once, however the writer fragments the
//! archive.

use std::collections::VecDeque;

use bytes::{Buf, Bytes};

use bh_bgp_types::error::CodecError;
use bh_bgp_types::time::SimTime;
use bh_bgp_types::wire::AttrCache;

use crate::read::{parse_body, BodyView, ReadMode, MAX_RECORD_LEN};
use crate::record::{MrtError, UpdateRecord};

/// Length of the MRT common header.
const HEADER_LEN: usize = 12;

/// The unconsumed bytes of an archive, as one reader holds them.
pub(crate) trait Window {
    /// The contiguous bytes framing resumes at.
    fn pending(&self) -> &[u8];

    /// Consume `len` framed bytes from the front of
    /// [`pending`](Window::pending).
    fn consume(&mut self, len: usize);

    /// An owned buffer holding `part`, a slice of a complete record in
    /// [`pending`](Window::pending).
    fn share(&self, part: &[u8]) -> Bytes;

    /// [`pending`](Window::pending) ends short of a whole record: make
    /// more of the archive contiguous. `false` when nothing more has
    /// arrived, and the short record is all there is.
    fn refill(&mut self) -> bool;
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

    fn refill(&mut self) -> bool {
        false
    }
}

/// The unframed tail of an archive still arriving, as the chunks it was
/// appended in; see the [module docs](self).
#[derive(Default)]
pub(crate) struct Tail {
    /// The chunk being framed (or a stitched record, frozen).
    window: Bytes,
    /// A record torn across chunks, while it is still incomplete. When
    /// it is non-empty, `window` is empty and framing resumes here.
    torn: Vec<u8>,
    /// Chunks appended behind `window` / `torn`.
    queue: VecDeque<Bytes>,
}

impl Tail {
    /// Append `chunk`. An empty tail adopts it as its window.
    pub(crate) fn extend(&mut self, chunk: Bytes) {
        if chunk.is_empty() {
            return;
        }
        if self.window.is_empty() && self.torn.is_empty() && self.queue.is_empty() {
            self.window = chunk;
        } else {
            self.queue.push_back(chunk);
        }
    }

    /// Bytes appended but not yet framed.
    pub(crate) fn len(&self) -> usize {
        self.window.len() + self.torn.len() + self.queue.iter().map(Bytes::len).sum::<usize>()
    }
}

/// How long the record starting at `partial` is, as far as its header
/// says: the header alone until it is whole (or when its length is over
/// the cap, which the framer refuses), then header plus body.
fn record_len(partial: &[u8]) -> usize {
    match partial.first_chunk::<HEADER_LEN>() {
        Some(&[.., l0, l1, l2, l3]) => match u32::from_be_bytes([l0, l1, l2, l3]) {
            len if len > MAX_RECORD_LEN => HEADER_LEN,
            len => HEADER_LEN + len as usize,
        },
        None => HEADER_LEN,
    }
}

impl Window for Tail {
    fn pending(&self) -> &[u8] {
        if self.torn.is_empty() {
            &self.window
        } else {
            &self.torn
        }
    }

    fn consume(&mut self, len: usize) {
        // Only whole records are consumed, and a whole record is never
        // left in `torn` (`refill` freezes it into `window`).
        self.window.advance(len);
    }

    fn share(&self, part: &[u8]) -> Bytes {
        self.window.slice_ref(part)
    }

    fn refill(&mut self) -> bool {
        if self.torn.is_empty() {
            if self.window.is_empty() {
                return match self.queue.pop_front() {
                    Some(chunk) => {
                        self.window = chunk;
                        true
                    }
                    None => false,
                };
            }
            if self.queue.is_empty() {
                return false;
            }
            // The window ends in a torn record: move its start aside.
            self.torn.extend_from_slice(&self.window);
            self.window = Bytes::new();
        }
        // Copy exactly the bytes the torn record still lacks.
        while let Some(front) = self.queue.front_mut() {
            let lacking = record_len(&self.torn).saturating_sub(self.torn.len());
            if lacking == 0 {
                break;
            }
            let take = lacking.min(front.len());
            self.torn.extend_from_slice(&front[..take]);
            front.advance(take);
            if front.is_empty() {
                self.queue.pop_front();
            }
        }
        if self.torn.len() < record_len(&self.torn) {
            return false;
        }
        self.window = Bytes::from(std::mem::take(&mut self.torn));
        true
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
            if self.failed {
                return Ok(None);
            }
            let pending = self.window.pending();
            let Some((header, rest)) = pending.split_first_chunk::<HEADER_LEN>() else {
                let available = pending.len();
                if self.window.refill() {
                    continue;
                }
                if available == 0 {
                    return Ok(None);
                }
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
                if self.window.refill() {
                    continue;
                }
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

    /// Frame records until the next BGP4MP UPDATE and decode it into
    /// `into`. Every other record is checked and counted, then dropped;
    /// the UPDATE is checked whole before `into` is touched.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// An unknown-type record (passed over by every reader) of `len`
    /// body bytes, each `fill`.
    fn record(len: usize, fill: u8) -> Vec<u8> {
        let mut rec = 7u32.to_be_bytes().to_vec();
        rec.extend_from_slice(&[0, 99, 0, 1]);
        rec.extend_from_slice(&(len as u32).to_be_bytes());
        rec.resize(HEADER_LEN + len, fill);
        rec
    }

    fn framer() -> Framer<Tail> {
        Framer::new(Tail::default(), ReadMode::Strict, false)
    }

    /// Frame one record, whatever its type: `Some` when one was whole.
    fn step(f: &mut Framer<Tail>) -> Result<Option<()>, MrtError> {
        f.frame(|frame, _, _| parse_body(frame.ty, frame.subtype, frame.body).map(|_| Some(())))
    }

    #[test]
    fn a_whole_chunk_is_framed_where_it_lies() {
        let chunk = Bytes::from([record(20, 1), record(30, 2)].concat());
        let mut f = framer();
        f.window.extend(chunk.clone());
        assert_eq!(f.window.pending().as_ptr(), chunk.as_ptr(), "adopted, not copied");
        let part = &f.window.pending()[HEADER_LEN..HEADER_LEN + 4];
        assert_eq!(f.window.share(part).as_ptr(), chunk[HEADER_LEN..].as_ptr());
        assert!(step(&mut f).unwrap().is_some());
        assert_eq!(f.window.pending().as_ptr(), chunk[32..].as_ptr());
        assert!(step(&mut f).unwrap().is_some());
        assert!(step(&mut f).unwrap().is_none());
        assert_eq!(f.window.len(), 0);
    }

    #[test]
    fn a_torn_record_is_stitched_from_its_own_bytes() {
        let (a, b, c) = (record(20, 1), record(30, 2), record(40, 3));
        let first = Bytes::from([&a[..], &b[..5]].concat());
        let second = Bytes::from([&b[5..], &c[..]].concat());
        let mut f = framer();
        f.window.extend(first);
        f.window.extend(second.clone());
        assert_eq!(f.window.len(), a.len() + b.len() + c.len());
        assert!(step(&mut f).unwrap().is_some(), "a, in place");
        assert!(step(&mut f).unwrap().is_some(), "b, stitched");
        // The side buffer took b's bytes alone; c waits in the second
        // chunk, to be framed there.
        assert!(f.window.torn.is_empty());
        let rest = f.window.queue.front().expect("c is queued");
        assert_eq!((rest.as_ptr(), rest.len()), (second[b.len() - 5..].as_ptr(), c.len()));
        assert!(step(&mut f).unwrap().is_some(), "c, in place");
        assert!(step(&mut f).unwrap().is_none());
        assert_eq!((f.records_read, f.bytes_consumed), (3, (a.len() + b.len() + c.len()) as u64));
    }

    #[test]
    fn a_record_grown_byte_by_byte_pends_then_decodes() {
        let rec = record(300, 9);
        let mut f = framer();
        for (at, byte) in rec.iter().enumerate() {
            assert!(step(&mut f).unwrap().is_none(), "pending at {at}");
            f.window.extend(Bytes::from(vec![*byte]));
        }
        assert_eq!(f.window.len(), rec.len());
        assert!(step(&mut f).unwrap().is_some());
        assert_eq!(f.window.len(), 0);
    }

    #[test]
    fn an_oversized_length_is_refused_once_its_header_is_whole() {
        let mut header = record(0, 0);
        header[8..12].copy_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        let mut f = framer();
        f.window.extend(Bytes::from(header[..7].to_vec()));
        assert!(step(&mut f).unwrap().is_none());
        f.window.extend(Bytes::from(header[7..].to_vec()));
        assert!(matches!(step(&mut f), Err(MrtError::OversizedRecord(_))));
    }
}
