//! The sharded parallel runner: hash-partition the element stream by
//! prefix across worker threads, each owning an
//! [`InferenceSession`](crate::InferenceSession), and merge
//! deterministically.
//!
//! Correctness rests on two facts about the §4.2 method:
//!
//! 1. All mutable inference state is keyed by prefix (the per-(prefix,
//!    peer) machines, the open-event table), so routing *every element
//!    of one prefix to the same shard* preserves the exact per-prefix
//!    arrival order — the only order the state machines observe.
//! 2. The cross-prefix outputs (census, stats, per-dataset visibility,
//!    and every [`EventAccumulator`]) are commutative accumulators, and
//!    the event list has a canonical order (stable sort by `(start,
//!    prefix)`), so shard merging is deterministic and bit-identical to
//!    a single-threaded run — property tests in `tests/` assert exactly
//!    that.
//!
//! Each worker streams its closed events into its own accumulator as it
//! goes (a clone of the prototype handed to
//! [`SessionBuilder::build_sharded_with`]); the per-shard accumulators
//! are folded together at the [`ShardedSession::finish_parts`] barrier
//! in shard-index order. The event list itself (`Vec<BlackholeEvent>`)
//! is one accumulator — [`canonical_order`](crate::canonical_order)
//! then sorts it as a single session's `finish()` does; an
//! [`AnalyticsPipeline`](crate::AnalyticsPipeline) instead computes
//! every paper figure inline, with no per-shard event `Vec` at all.
//!
//! Elements cross thread boundaries in batches to amortize channel
//! overhead; the partition hash is a fixed multiplicative hash of the
//! prefix bits (never `RandomState`), so shard assignment is stable
//! across runs and machines.
//!
//! The sharded runner composes with multi-collector ingestion: feeding
//! it a [`MergedSource`](bh_routing::MergedSource) or a
//! [`CollectorFleet`](bh_routing::CollectorFleet) stream via
//! [`ShardedSession::ingest`] decodes and merges the archives on the
//! calling thread and fans the stream out to M inference workers — the
//! only worker threads in ingest and inference — with bounded memory at
//! every stage.

use std::sync::mpsc;
use std::thread::{self, JoinHandle};

use bh_bgp_types::prefix::Ipv4Prefix;
use bh_routing::{BgpElem, ElemSource};

use crate::accumulate::EventAccumulator;
use crate::session::{SessionBuilder, StreamSummary};

/// Elements buffered per shard before a batch crosses the channel.
const BATCH: usize = 512;

/// Batches a shard's channel holds before `push` blocks: the
/// backpressure that bounds memory when the feed outruns the workers
/// (a fast archive decode otherwise queues most of the stream here).
const QUEUE_BATCHES: usize = 4;

/// A parallel inference session over `N` prefix-partitioned workers,
/// each streaming its closed events through its own accumulator.
///
/// Built via [`SessionBuilder::build_sharded_with`] (any
/// [`EventAccumulator`]: the event list itself, or an
/// [`AnalyticsPipeline`](crate::AnalyticsPipeline) computing every
/// figure inline). Exposes the same one-pass surface as
/// [`InferenceSession`](crate::InferenceSession) (`push` / `ingest`).
/// Mid-stream draining and checkpointing remain single-session features
/// — the sharded runner targets offline archive scans where only the
/// final result matters.
pub struct ShardedSession<A: EventAccumulator> {
    /// Per shard: batches of elements, in per-prefix arrival order.
    senders: Vec<mpsc::SyncSender<Vec<BgpElem>>>,
    workers: Vec<JoinHandle<(StreamSummary, A)>>,
    buffers: Vec<Vec<BgpElem>>,
}

impl<A> ShardedSession<A>
where
    A: EventAccumulator + Clone + Send + 'static,
{
    /// Spawn `shards` workers (clamped to at least 1), each owning a
    /// session built from `builder` and a clone of `accumulator`.
    pub(crate) fn spawn(builder: SessionBuilder, shards: usize, accumulator: A) -> Self {
        let shards = shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Vec<BgpElem>>(QUEUE_BATCHES);
            let worker_builder = builder.clone();
            let mut acc = accumulator.clone();
            workers.push(thread::spawn(move || {
                let mut session = worker_builder.build();
                while let Ok(batch) = rx.recv() {
                    for elem in &batch {
                        session.push(elem);
                    }
                    // Stream closed events into the accumulator batch by
                    // batch: the worker never holds an event Vec.
                    session.drain_closed_into(&mut acc);
                }
                let summary = session.finish_with(&mut acc);
                (summary, acc)
            }));
            senders.push(tx);
        }
        ShardedSession { senders, workers, buffers: vec![Vec::new(); shards] }
    }
}

impl<A: EventAccumulator> ShardedSession<A> {
    /// Deterministic shard assignment: a fixed multiplicative hash of
    /// the prefix bits and length.
    fn shard_of(&self, prefix: &Ipv4Prefix) -> usize {
        let key = ((prefix.network_bits() as u64) << 8) | prefix.length() as u64;
        let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((hashed >> 32) % self.senders.len() as u64) as usize
    }

    /// Route one element to its prefix's shard.
    pub fn push(&mut self, elem: &BgpElem) {
        let shard = self.shard_of(&elem.prefix);
        self.buffers[shard].push(elem.clone());
        if self.buffers[shard].len() >= BATCH {
            let batch = std::mem::take(&mut self.buffers[shard]);
            let _ = self.senders[shard].send(batch);
        }
    }

    /// Drain every element of a source through the shards; returns how
    /// many were processed.
    pub fn ingest<S: ElemSource + ?Sized>(&mut self, source: &mut S) -> u64 {
        let mut n = 0;
        while let Some(elem) = source.next_elem() {
            self.push(elem);
            n += 1;
        }
        n
    }

    fn flush(&mut self) {
        for (shard, buffer) in self.buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                let _ = self.senders[shard].send(std::mem::take(buffer));
            }
        }
    }

    /// Flush, close the channels, join the workers, and fold their
    /// outputs: summaries merge commutatively, per-shard accumulators
    /// merge in shard-index order (deterministic — and order-free
    /// anyway, since every [`EventAccumulator`] merge is commutative).
    pub fn finish_parts(mut self) -> (StreamSummary, A) {
        self.flush();
        drop(std::mem::take(&mut self.senders)); // close channels: workers finish
        let mut summary = StreamSummary::empty();
        let mut merged: Option<A> = None;
        for worker in self.workers.drain(..) {
            let (worker_summary, acc) = worker.join().expect("shard worker panicked");
            summary.merge(worker_summary);
            match merged.as_mut() {
                None => merged = Some(acc),
                Some(m) => m.merge(acc),
            }
        }
        (summary, merged.expect("at least one shard"))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bh_bgp_types::as_path::AsPath;
    use bh_bgp_types::asn::Asn;
    use bh_bgp_types::community::{Community, CommunitySet};
    use bh_bgp_types::time::{SimDuration, SimTime};
    use bh_irr::BlackholeDictionary;
    use bh_routing::{deploy, CollectorConfig, DataSource, ElemType};
    use bh_topology::{TopologyBuilder, TopologyConfig};

    use super::*;
    use crate::accumulate::{AnalyticsConfig, AnalyticsPipeline};
    use crate::events::BlackholeEvent;
    use crate::refdata::ReferenceData;
    use crate::session::InferenceResult;

    /// A sharded session's events and summary as one result, in the
    /// order a single session's `finish()` gives.
    fn finish(sharded: ShardedSession<Vec<BlackholeEvent>>) -> InferenceResult {
        let (summary, events) = sharded.finish_parts();
        InferenceResult::new(summary, events)
    }

    fn builder() -> (SessionBuilder, Community, Arc<ReferenceData>) {
        let t = TopologyBuilder::new(TopologyConfig::tiny(31)).build();
        let d = deploy(&t, &CollectorConfig::tiny(4));
        let refdata = Arc::new(ReferenceData::build(&t, &d));
        let mut dict = BlackholeDictionary::default();
        let community = Community::from_parts(777, 666);
        dict.insert_validated(Asn::new(64_777), community);
        (SessionBuilder::new(Arc::new(dict), refdata.clone()), community, refdata)
    }

    fn announce(prefix: &str, time: u64, communities: Vec<Community>, peer: u32) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(time),
            dataset: DataSource::Ris,
            collector: 0,
            peer_asn: Asn::new(peer),
            peer_ip: "198.51.100.7".parse().unwrap(),
            elem_type: ElemType::Announce,
            prefix: prefix.parse().unwrap(),
            as_path: "100 64777 64999".parse().unwrap(),
            communities: CommunitySet::from_classic(communities),
            next_hop: None,
        }
    }

    fn withdraw(prefix: &str, time: u64, peer: u32) -> BgpElem {
        BgpElem {
            time: SimTime::from_unix(time),
            dataset: DataSource::Ris,
            collector: 0,
            peer_asn: Asn::new(peer),
            peer_ip: "198.51.100.7".parse().unwrap(),
            elem_type: ElemType::Withdraw,
            prefix: prefix.parse().unwrap(),
            as_path: AsPath::empty(),
            communities: CommunitySet::new(),
            next_hop: None,
        }
    }

    /// Synthetic multi-prefix stream with on/off pulses and stragglers.
    fn stream(community: Community) -> Vec<BgpElem> {
        let mut elems = Vec::new();
        for k in 0..40u64 {
            let prefix = format!("9.9.{}.{}/32", k % 7, k % 23);
            elems.push(announce(&prefix, 100 + k, vec![community], 100 + (k % 3) as u32));
            if k % 2 == 0 {
                elems.push(withdraw(&prefix, 200 + k, 100 + (k % 3) as u32));
            }
        }
        elems.sort_by_key(|e| e.time);
        elems
    }

    #[test]
    fn sharded_matches_single_threaded_exactly() {
        let (b, community, _) = builder();
        let elems = stream(community);

        let mut single = b.clone().build();
        for e in &elems {
            single.push(e);
        }
        let expected = single.finish();

        for shards in [1, 2, 4, 7] {
            let mut sharded = b.clone().build_sharded_with(shards, Vec::new());
            assert_eq!(sharded.senders.len(), shards);
            for e in &elems {
                sharded.push(e);
            }
            assert_eq!(finish(sharded), expected, "{shards} shards diverged");
        }
    }

    #[test]
    fn sharded_ingest_of_merged_collector_streams_matches_single() {
        use bh_routing::{MergedSource, SliceSource};

        let (b, community, _) = builder();
        // Split the synthetic stream across three "collectors" (keeping
        // per-collector time order) and re-merge it at ingest time.
        let elems = stream(community);
        let mut streams: Vec<Vec<BgpElem>> = vec![Vec::new(); 3];
        for (k, mut e) in elems.into_iter().enumerate() {
            e.collector = (k % 3) as u16;
            streams[k % 3].push(e);
        }

        let mut single = b.clone().build();
        let sources: Vec<SliceSource<'_>> = streams.iter().map(SliceSource::from).collect();
        single.ingest(&mut MergedSource::new(sources));
        let expected = single.finish();

        let mut sharded = b.build_sharded_with(4, Vec::new());
        let sources: Vec<SliceSource<'_>> = streams.iter().map(SliceSource::from).collect();
        sharded.ingest(&mut MergedSource::new(sources));
        assert_eq!(finish(sharded), expected);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let (b, community, _) = builder();
        let mut sharded = b.build_sharded_with(0, Vec::new());
        assert_eq!(sharded.senders.len(), 1);
        sharded.push(&announce("9.9.9.9/32", 10, vec![community], 1));
        assert_eq!(finish(sharded).events.len(), 1);
    }

    #[test]
    fn sharded_inline_analytics_matches_batch_functions() {
        let (b, community, refdata) = builder();
        let elems = stream(community);
        let config = AnalyticsConfig::window(SimTime::ZERO, SimTime::ZERO + SimDuration::days(2));
        let pipeline = AnalyticsPipeline::new(refdata.clone(), config);

        // Batch reference: full result, then the batch wrappers.
        let mut single = b.clone().build();
        for e in &elems {
            single.push(e);
        }
        let batch = single.finish();
        let mut reference = AnalyticsPipeline::new(refdata, config);
        reference.observe_result(&batch);
        let expected = reference.finalize();

        let mut sharded = b.build_sharded_with(4, pipeline);
        for e in &elems {
            sharded.push(e);
        }
        let (summary, merged) = sharded.finish_parts();
        assert_eq!(summary.stats, batch.stats);
        assert_eq!(summary.census, batch.census);
        assert_eq!(summary.per_dataset, batch.per_dataset);
        assert_eq!(merged.finalize(), expected);
    }
}
