//! The reader as a test input: the three public MRT feeders over one
//! framing core, each driven the way its transport delivers bytes —
//! `MrtBytesReader` over the whole archive, `MrtReader` over a `Read`
//! that returns a few bytes per call, `TailingReader` under appends cut
//! at arbitrary offsets. Properties that take a [`Feeder`] hold for all
//! three or the unification is broken.

use std::io::Read;

use proptest::prelude::*;

use bh_mrt::{
    MessageStream, MrtBytesReader, MrtError, MrtReader, MrtRecord, ReadMode, TailingReader,
};

/// Which reader frames the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Bytes,
    Read,
    Tail,
}

/// A reader plus the chunking its bytes arrive in (cycled; ignored by
/// [`Transport::Bytes`], which sees the archive whole).
#[derive(Debug, Clone)]
pub struct Feeder {
    pub transport: Transport,
    pub chunks: Vec<usize>,
}

pub fn arb_feeder() -> impl Strategy<Value = Feeder> {
    (0u8..3, prop::collection::vec(1usize..48, 1..8)).prop_map(|(pick, chunks)| Feeder {
        transport: [Transport::Bytes, Transport::Read, Transport::Tail][pick as usize],
        chunks,
    })
}

/// What a reader made of an archive.
#[derive(Debug)]
pub struct Outcome {
    pub records: Vec<MrtRecord>,
    pub error: Option<MrtError>,
    pub records_read: u64,
    pub records_skipped: u64,
}

impl Outcome {
    /// Everything comparable across feeders (the error by its rendering:
    /// `MrtError` holds an `io::Error` and is not `PartialEq`).
    pub fn summary(&self) -> (&[MrtRecord], Option<String>, u64, u64) {
        let error = self.error.as_ref().map(|e| format!("{e:?}"));
        (&self.records, error, self.records_read, self.records_skipped)
    }
}

/// A `Read` that hands out `bytes` in the feeder's chunk sizes.
struct Dribble<'a> {
    bytes: &'a [u8],
    chunks: std::iter::Cycle<std::slice::Iter<'a, usize>>,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (*self.chunks.next().expect("chunks is non-empty"))
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Drain `reader` until it has nothing more *for now*; an error is
/// recorded, and must be final.
fn pump(reader: &mut impl MessageStream, out: &mut Outcome) {
    loop {
        match reader.next_record() {
            Ok(Some(record)) => {
                assert!(out.error.is_none(), "a record after {:?}", out.error);
                out.records.push(record);
            }
            Ok(None) => return,
            Err(e) => {
                assert!(out.error.is_none(), "a second error after {:?}: {e:?}", out.error);
                out.error = Some(e);
            }
        }
    }
}

impl Feeder {
    /// Decode `archive` through this feeder in `mode`.
    pub fn decode(&self, mode: ReadMode, archive: &[u8]) -> Outcome {
        let tolerant = mode == ReadMode::Tolerant;
        let mut out =
            Outcome { records: Vec::new(), error: None, records_read: 0, records_skipped: 0 };
        let chunks = self.chunks.iter().cycle();
        let (read, skipped) = match self.transport {
            Transport::Bytes => {
                let archive = archive.to_vec();
                let mut reader = if tolerant {
                    MrtBytesReader::tolerant(archive)
                } else {
                    MrtBytesReader::new(archive)
                };
                pump(&mut reader, &mut out);
                (reader.records_read(), reader.records_skipped())
            }
            Transport::Read => {
                let source = Dribble { bytes: archive, chunks };
                let mut reader =
                    if tolerant { MrtReader::tolerant(source) } else { MrtReader::new(source) };
                pump(&mut reader, &mut out);
                (reader.records_read(), reader.records_skipped())
            }
            Transport::Tail => {
                let mut reader =
                    if tolerant { TailingReader::tolerant() } else { TailingReader::new() };
                let mut rest = archive;
                for &chunk in chunks {
                    if rest.is_empty() {
                        break;
                    }
                    let (head, tail) = rest.split_at(chunk.min(rest.len()));
                    reader.extend(head);
                    pump(&mut reader, &mut out);
                    rest = tail;
                }
                reader.close();
                pump(&mut reader, &mut out);
                (MessageStream::records_read(&reader), MessageStream::records_skipped(&reader))
            }
        };
        out.records_read = read;
        out.records_skipped = skipped;
        out
    }
}
