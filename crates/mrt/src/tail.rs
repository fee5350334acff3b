//! Tailing MRT reader: incremental decoding of a *growing* archive.
//!
//! [`MrtBytesReader`](crate::read::MrtBytesReader) assumes the archive
//! is complete: a record that extends past the end of the input
//! is a framing tear and ends the stream with an error. A live pipeline
//! tails archives that are still being written, where the same byte
//! pattern — a partial trailing record — means "the writer has not
//! finished this record *yet*". [`TailingReader`] makes that distinction
//! explicit: bytes are appended with [`TailingReader::extend`] as the
//! archive grows, a partial trailing record makes
//! [`next_update`](MessageStream::next_update) return `Ok(false)` ("no
//! more updates *for now*") and is re-framed on the next call once more
//! bytes arrived, and only after [`TailingReader::close`] does a
//! leftover partial record become the truncation error it would be in a
//! finished archive. Bytes appended after `close` are dropped, and the
//! next read reports them as [`MrtError::ExtendedAfterClose`] — once, as
//! the error that ends the stream.
//!
//! Appended chunks are kept as [`Bytes`] and framed in place, as
//! `MrtBytesReader` frames its archive: a chunk handed over as `Bytes`
//! is never copied, and the attribute blocks the cache keeps are slices
//! of it. Only a record torn across appends is copied — its own bytes,
//! once — into a side buffer that becomes its window when it completes.
//!
//! The reader implements [`MessageStream`], so
//! `bh_routing::MrtElemSource` drives it like any other reader;
//! consumers distinguish "pending" from "end of stream" by whether the
//! reader [`is_closed`](TailingReader::is_closed).

use bytes::Bytes;

use crate::frame::{Framer, Tail};
use crate::read::{MessageStream, ReadMode};
use crate::record::{MrtError, UpdateRecord};

/// An incremental MRT reader over an archive that is still growing.
///
/// See the [module docs](self) for the pending-vs-torn semantics. The
/// reader holds the chunks not yet framed, plus whatever its attribute
/// cache keeps alive: each cached block pins the chunk it was sliced
/// from, as it pins the archive under `MrtBytesReader`.
pub struct TailingReader {
    framer: Framer<Tail>,
    /// The error for bytes appended after `close`, due on the next read.
    refused: Option<MrtError>,
}

impl Default for TailingReader {
    fn default() -> Self {
        Self::new()
    }
}

impl TailingReader {
    /// Strict tailing reader (the first malformed *payload* is an error).
    pub fn new() -> Self {
        Self::with_mode(ReadMode::Strict)
    }

    /// Tolerant tailing reader (skips undecodable payloads; framing
    /// stays strict, and a partial tail is still "pending", not a skip).
    pub fn tolerant() -> Self {
        Self::with_mode(ReadMode::Tolerant)
    }

    fn with_mode(mode: ReadMode) -> Self {
        TailingReader { framer: Framer::new(Tail::default(), mode, false), refused: None }
    }

    /// Append newly observed archive bytes. After
    /// [`TailingReader::close`] the bytes are dropped instead, and the
    /// next read returns [`MrtError::ExtendedAfterClose`] (unless the
    /// stream already ended on an error).
    ///
    /// A `Bytes` chunk is framed where it lies; a `&[u8]` is copied
    /// once, into the `Bytes` it becomes.
    pub fn extend(&mut self, chunk: impl Into<Bytes>) {
        let chunk = chunk.into();
        if !self.is_closed() {
            self.framer.window.extend(chunk);
        } else if !self.framer.failed && self.refused.is_none() {
            self.refused = Some(MrtError::ExtendedAfterClose(chunk.len()));
        }
    }

    /// Declare the archive complete: no more bytes will arrive. After
    /// this, a leftover partial record is reported as the truncation
    /// error a finished archive would produce.
    pub fn close(&mut self) {
        self.framer.closed = true;
    }

    /// Has [`TailingReader::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.framer.closed
    }

    /// Bytes framed into records so far (complete records only — a
    /// pending partial tail is not consumed).
    pub fn bytes_consumed(&self) -> u64 {
        self.framer.bytes_consumed
    }

    /// Bytes buffered but not yet framed (the partial tail, if any).
    pub fn bytes_pending(&self) -> usize {
        self.framer.window.len()
    }

    /// [`next_update`](MessageStream::next_update) into a fresh record.
    #[doc(hidden)]
    pub fn try_next_record(&mut self) -> Result<Option<UpdateRecord>, MrtError> {
        let mut update = UpdateRecord::default();
        Ok(self.next_update(&mut update)?.then_some(update))
    }

    /// End the stream on a pending [`MrtError::ExtendedAfterClose`].
    fn surface_refusal(&mut self) -> Result<(), MrtError> {
        match self.refused.take() {
            Some(error) => self.framer.fail(error),
            None => Ok(()),
        }
    }
}

impl MessageStream for TailingReader {
    fn next_update(&mut self, into: &mut UpdateRecord) -> Result<bool, MrtError> {
        self.surface_refusal()?;
        Ok(self.framer.next_update(into)?.is_some())
    }

    fn records_read(&self) -> u64 {
        self.framer.records_read
    }

    fn records_skipped(&self) -> u64 {
        self.framer.records_skipped
    }
}

#[cfg(test)]
mod tests {
    use bh_bgp_types::asn::Asn;
    use bh_bgp_types::attrs::PathAttributes;
    use bh_bgp_types::time::SimTime;
    use bh_bgp_types::update::BgpUpdate;

    use super::*;
    use crate::read::MAX_RECORD_LEN;
    use crate::write::MrtWriter;

    fn update_record(t: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = MrtWriter::new(&mut buf);
        let mut update = BgpUpdate::new(PathAttributes {
            as_path: "6939 64500".parse().unwrap(),
            next_hop: Some("10.0.0.9".parse().unwrap()),
            ..Default::default()
        });
        update.announce_v4("130.149.1.1/32".parse().unwrap());
        w.write_update(
            SimTime::from_unix(t),
            Asn::new(6939),
            "10.0.0.1".parse().unwrap(),
            Asn::new(65000),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        buf
    }

    /// The next UPDATE's timestamp, `None` when none is complete.
    fn next(r: &mut TailingReader) -> Result<Option<SimTime>, MrtError> {
        let mut into = UpdateRecord::default();
        Ok(r.next_update(&mut into)?.then_some(into.timestamp))
    }

    #[test]
    fn empty_reader_is_pending_until_closed() {
        let mut r = TailingReader::new();
        assert!(next(&mut r).unwrap().is_none());
        assert!(!r.is_closed());
        r.close();
        assert!(next(&mut r).unwrap().is_none(), "clean EOF after close");
    }

    #[test]
    fn partial_tail_is_pending_then_decodes_after_growth() {
        let rec = update_record(5);
        let mut r = TailingReader::new();
        // Grow the archive in three fragments that tear the record at a
        // header boundary and mid-body.
        r.extend(&rec[..7]);
        assert!(next(&mut r).unwrap().is_none(), "partial header pends");
        r.extend(&rec[7..rec.len() - 3]);
        assert!(next(&mut r).unwrap().is_none(), "partial body pends");
        assert_eq!(r.records_read(), 0);
        r.extend(&rec[rec.len() - 3..]);
        assert_eq!(next(&mut r).unwrap(), Some(SimTime::from_unix(5)), "record completes");
        assert_eq!(r.records_read(), 1);
        assert_eq!(r.bytes_consumed(), rec.len() as u64);
        assert_eq!(r.bytes_pending(), 0);
    }

    #[test]
    fn close_turns_partial_tail_into_truncation_error() {
        let rec = update_record(5);
        let mut r = TailingReader::new();
        r.extend(&rec[..rec.len() - 3]);
        assert!(next(&mut r).unwrap().is_none());
        r.close();
        assert!(matches!(next(&mut r), Err(MrtError::Codec(_))));
        // The failure latches: the stream is dead, not retried.
        assert!(next(&mut r).unwrap().is_none());
    }

    #[test]
    fn interleaved_appends_and_reads_stream_every_record() {
        let mut r = TailingReader::new();
        let mut seen = 0u64;
        for t in 0..20u64 {
            let rec = update_record(t);
            let cut = rec.len() / 2;
            r.extend(&rec[..cut]);
            while let Some(time) = next(&mut r).unwrap() {
                assert_eq!(time, SimTime::from_unix(seen));
                seen += 1;
            }
            r.extend(&rec[cut..]);
        }
        r.close();
        while next(&mut r).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 20);
        assert_eq!(r.records_read(), 20);
    }

    #[test]
    fn tolerant_tail_skips_corrupt_payload_but_pends_on_partial() {
        let mut noisy = Vec::new();
        noisy.extend_from_slice(&1u32.to_be_bytes());
        noisy.extend_from_slice(&crate::record::mrt_type::BGP4MP.to_be_bytes());
        noisy.extend_from_slice(&crate::record::bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        noisy.extend_from_slice(&4u32.to_be_bytes());
        noisy.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let rec = update_record(9);

        let mut r = TailingReader::tolerant();
        r.extend(noisy);
        r.extend(&rec[..5]);
        assert!(next(&mut r).unwrap().is_none(), "corrupt skipped, tail pends");
        assert_eq!(r.records_skipped(), 1);
        r.extend(&rec[5..]);
        assert!(next(&mut r).unwrap().is_some());
        assert_eq!(r.records_read(), 1);
    }

    #[test]
    fn extend_after_close_drops_the_bytes_and_ends_the_stream_once() {
        let rec = update_record(3);
        let mut r = TailingReader::new();
        r.extend(&rec[..]);
        r.close();
        r.extend(&rec[..]);
        r.extend(&rec[..]);
        assert_eq!(r.bytes_pending(), rec.len(), "the late bytes were dropped");
        assert!(matches!(next(&mut r), Err(MrtError::ExtendedAfterClose(n)) if n == rec.len()));
        assert!(next(&mut r).unwrap().is_none(), "the error surfaces once");
        assert_eq!(r.records_read(), 0);

        // A stream that already ended on an error stays ended.
        let mut r = TailingReader::new();
        r.close();
        r.extend(&rec[..]);
        assert!(matches!(next(&mut r), Err(MrtError::ExtendedAfterClose(_))));
        assert!(next(&mut r).unwrap().is_none());
        r.extend(&rec[..]);
        assert!(next(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_record_fails_even_while_growing() {
        let mut r = TailingReader::new();
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&0u32.to_be_bytes());
        hdr.extend_from_slice(&crate::record::mrt_type::BGP4MP.to_be_bytes());
        hdr.extend_from_slice(&crate::record::bgp4mp_subtype::MESSAGE_AS4.to_be_bytes());
        hdr.extend_from_slice(&(MAX_RECORD_LEN + 1).to_be_bytes());
        r.extend(hdr);
        assert!(matches!(next(&mut r), Err(MrtError::OversizedRecord(_))));
    }
}
