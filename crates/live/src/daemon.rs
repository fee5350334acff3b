//! The `LiveFleet` daemon: incremental inference over tailing archives.
//!
//! One [`step`](LiveFleet::step) = drain everything the watermark-gated
//! merge proves safe, push it through the session, emit newly closed
//! events (sequence-numbered, latency-stamped), and checkpoint when due.
//! Time is an argument: whoever drives the daemon passes `now` to every
//! call that stamps or publishes something (`LiveNode` passes its
//! replay time, a deployment would pass wall time).
//! The daemon is single-threaded, like all inference here: a single
//! [`InferenceSession`] closes events in deterministic stream order,
//! which is what makes sequence numbers stable across a kill/resume.

use std::sync::{Arc, RwLock};

use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{
    AnalyticsPipeline, AnalyticsReport, BlackholeEvent, EventAccumulator, InferenceSession,
    SequencedEvent, SessionBuilder, SessionCheckpoint, StreamSummary,
};
use bh_routing::elem::DataSource;
use bh_routing::live::{LiveArchive, LiveMerge, TailingSource};

use crate::query::{write_shared, LiveStatus, QueryRunner, SharedState};

/// Daemon tunables.
#[derive(Debug, Clone, Copy)]
pub struct LiveFleetConfig {
    /// The emission-latency budget: every closed event should be
    /// published within this much clock time of its closing update.
    /// The daemon meets it by construction when stepped at least once
    /// per `max_latency`; [`LiveStatus::max_latency_seen`] records the
    /// worst case actually observed so deployments can verify.
    pub max_latency: SimDuration,
    /// Checkpoint after this many ingested elements.
    pub checkpoint_every: u64,
}

impl Default for LiveFleetConfig {
    fn default() -> Self {
        LiveFleetConfig { max_latency: SimDuration::mins(5), checkpoint_every: 8_192 }
    }
}

/// How many recent events the query ring retains for `events-since`.
const EVENTS_CAPACITY: usize = 65_536;

/// Everything a daemon needs to resume exactly where a predecessor
/// died: the session checkpoint, the analytics folded in so far, the
/// next sequence number, each archive's delivery position, and the
/// status counters (elements, checkpoints, worst latency seen).
#[derive(Clone)]
pub struct LiveCheckpoint {
    pub(crate) session: SessionCheckpoint,
    pub(crate) pipeline: AnalyticsPipeline,
    pub(crate) next_seq: u64,
    pub(crate) delivered: Vec<((DataSource, u16), u64)>,
    pub(crate) total_elems: u64,
    pub(crate) checkpoints: u64,
    pub(crate) max_latency_seen: SimDuration,
}

impl LiveCheckpoint {
    /// Elements ingested when the checkpoint was taken.
    pub fn total_elems(&self) -> u64 {
        self.total_elems
    }

    /// The sequence number the next emitted event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Blackholings open at checkpoint time.
    pub fn open_events(&self) -> usize {
        self.session.open_events()
    }
}

/// The live blackhole-detection daemon. See the [module docs](self).
pub struct LiveFleet {
    merge: LiveMerge,
    session: InferenceSession,
    out: Publisher,
    checkpoint_every: u64,
    since_checkpoint: u64,
    last_checkpoint: Option<LiveCheckpoint>,
}

/// The daemon's write side — what it has sequenced and counted so far,
/// and the shared state queries read. Kept apart from the session so
/// [`LiveFleet::finish`], which consumes the session, publishes its
/// events the way every step does.
struct Publisher {
    pipeline: AnalyticsPipeline,
    shared: Arc<RwLock<SharedState>>,
    next_seq: u64,
    total_elems: u64,
    checkpoints: u64,
    max_latency_seen: SimDuration,
}

impl Publisher {
    /// Sequence and publish `events` in order: each gets the next
    /// sequence number, is folded into analytics and retained for
    /// `events-since`. Re-emissions after a resume overwrite their ring
    /// slot with an identical event.
    fn emit(&mut self, events: Vec<BlackholeEvent>, now: SimTime) {
        if events.is_empty() {
            return;
        }
        let mut shared = write_shared(&self.shared);
        for event in events {
            if let Some(end) = event.end {
                self.max_latency_seen = self.max_latency_seen.max(now.since(end));
            }
            self.pipeline.observe(&event);
            let seq = self.next_seq;
            self.next_seq += 1;
            shared.events.insert(seq, SequencedEvent { seq, emitted_at: now, event });
            while shared.events.len() > EVENTS_CAPACITY {
                shared.events.pop_first();
            }
        }
    }

    fn publish_status(&self, now: SimTime, open_events: usize, merge: &LiveMerge) {
        let status = LiveStatus {
            elems: self.total_elems,
            events_emitted: self.next_seq,
            open_events,
            now,
            sources_ended: merge.sources_ended(),
            sources_total: merge.source_count(),
            max_latency_seen: self.max_latency_seen,
            checkpoints: self.checkpoints,
            drained: merge.all_ended(),
        };
        write_shared(&self.shared).status = status;
    }
}

impl LiveFleet {
    /// Boot a fresh daemon at time `start` over `feeds` (one labelled
    /// [`LiveArchive`] per collector; label order is the merge
    /// tie-break order): a [`resume`](LiveFleet::resume) from the
    /// initial checkpoint — an empty session, `pipeline`, every counter
    /// at zero and nothing delivered.
    pub fn new(
        builder: SessionBuilder,
        pipeline: AnalyticsPipeline,
        feeds: &[(DataSource, u16, LiveArchive)],
        start: SimTime,
        config: LiveFleetConfig,
    ) -> Self {
        let initial = LiveCheckpoint {
            session: builder.clone().build().checkpoint(),
            pipeline,
            next_seq: 0,
            delivered: Vec::new(),
            total_elems: 0,
            checkpoints: 0,
            max_latency_seen: SimDuration::ZERO,
        };
        Self::resume(builder, feeds, start, config, initial)
    }

    /// Resume at time `start` from a predecessor's [`LiveCheckpoint`].
    /// `feeds` must describe the same archives in the same order; each
    /// source skips what the checkpoint says was already delivered, the
    /// session resumes its open state, and sequence numbering continues
    /// — any events that closed after the checkpoint but before the
    /// crash are re-emitted under their original numbers, so consumers
    /// dedup by sequence and observe no gap.
    pub fn resume(
        builder: SessionBuilder,
        feeds: &[(DataSource, u16, LiveArchive)],
        start: SimTime,
        config: LiveFleetConfig,
        checkpoint: LiveCheckpoint,
    ) -> Self {
        let sources = feeds
            .iter()
            .map(|(d, c, a)| {
                let skip = checkpoint
                    .delivered
                    .iter()
                    .find(|(label, _)| *label == (*d, *c))
                    .map(|(_, n)| *n)
                    .unwrap_or(0);
                TailingSource::with_skip(a.clone(), *d, *c, skip)
            })
            .collect::<Vec<_>>();
        let daemon = LiveFleet {
            merge: LiveMerge::new(sources),
            session: builder.resume(checkpoint.session),
            out: Publisher {
                pipeline: checkpoint.pipeline,
                shared: Arc::new(RwLock::new(SharedState::default())),
                next_seq: checkpoint.next_seq,
                total_elems: checkpoint.total_elems,
                checkpoints: checkpoint.checkpoints,
                max_latency_seen: checkpoint.max_latency_seen,
            },
            checkpoint_every: config.checkpoint_every.max(1),
            since_checkpoint: 0,
            last_checkpoint: None,
        };
        daemon.publish_status(start);
        daemon
    }

    /// A read-side handle for queries; clone freely.
    pub fn query_runner(&self) -> QueryRunner {
        QueryRunner::new(self.out.shared.clone())
    }

    /// Have all archives closed and drained?
    pub fn drained(&self) -> bool {
        self.merge.all_ended()
    }

    /// The most recent checkpoint, if one has been taken — what a
    /// supervisor persists so a successor can [`LiveFleet::resume`].
    pub fn last_checkpoint(&self) -> Option<LiveCheckpoint> {
        self.last_checkpoint.clone()
    }

    /// Take a checkpoint and keep it as the last one: the one deep copy
    /// it makes is the one kept.
    fn checkpoint(&mut self, now: SimTime) {
        // Emit first so the session checkpoint carries no pending closed
        // events: everything closed has a sequence number, and the
        // successor's numbering continues from a clean boundary.
        self.out.emit(self.session.drain_closed(), now);
        self.out.checkpoints += 1;
        let checkpoint = LiveCheckpoint {
            session: self.session.checkpoint(),
            pipeline: self.out.pipeline.clone(),
            next_seq: self.out.next_seq,
            delivered: self.merge.delivered(),
            total_elems: self.out.total_elems,
            checkpoints: self.out.checkpoints,
            max_latency_seen: self.out.max_latency_seen,
        };
        self.since_checkpoint = 0;
        write_shared(&self.out.shared).report = Some(self.out.pipeline.snapshot());
        self.publish_status(now);
        self.last_checkpoint = Some(checkpoint);
    }

    /// One daemon iteration at time `now`: ingest everything the merge
    /// proves safe, emit newly closed events, checkpoint if the cadence
    /// is due. Returns the number of elements ingested.
    pub fn step(&mut self, now: SimTime) -> u64 {
        let mut ingested = 0u64;
        while let Some(elem) = self.merge.next_ready() {
            self.session.push(elem);
            ingested += 1;
        }
        self.out.total_elems += ingested;
        self.since_checkpoint += ingested;
        self.out.emit(self.session.drain_closed(), now);
        if self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint(now);
        } else {
            self.publish_status(now);
        }
        ingested
    }

    fn publish_status(&self, now: SimTime) {
        self.out.publish_status(now, self.session.open_event_count(), &self.merge);
    }

    /// Finish the drained stream: flush remaining closed events, emit
    /// the still-open ones (`end: None`, latency zero by definition),
    /// publish the final report, and return the session summary plus the
    /// final [`AnalyticsReport`] — the pair one session's `finish_with`
    /// into an `AnalyticsPipeline` over the same stream produces.
    pub fn finish(mut self, now: SimTime) -> (StreamSummary, AnalyticsReport) {
        self.step(now);
        debug_assert!(self.drained(), "finish() on an undrained daemon emits open events early");
        // The rest in the order the session hands it over — the order
        // the sequence numbers follow.
        let mut rest = Vec::new();
        let summary = self.session.finish_with(&mut rest);
        self.out.emit(rest, now);
        self.out.pipeline.observe_visibility(&summary.per_dataset);
        let report = self.out.pipeline.snapshot();
        write_shared(&self.out.shared).report = Some(report.clone());
        self.out.publish_status(now, 0, &self.merge);
        (summary, report)
    }
}
