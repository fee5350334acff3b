//! The `LiveFleet` daemon: incremental inference over tailing archives.
//!
//! One [`step`](LiveFleet::step) = drain everything the watermark-gated
//! merge proves safe, push it through the session, emit newly closed
//! events (sequence-numbered, latency-stamped), and checkpoint when due.
//! The daemon is single-threaded by design: a single
//! [`InferenceSession`] closes events in deterministic stream order,
//! which is what makes sequence numbers stable across a kill/resume —
//! the sharded session cannot drain or checkpoint mid-stream, so the
//! live path trades its parallelism for exactly-once event semantics.

use std::sync::{Arc, RwLock};

use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{
    AnalyticsPipeline, AnalyticsReport, BlackholeEvent, EventAccumulator, InferenceSession,
    SequencedEvent, SessionBuilder, SessionCheckpoint, StreamSummary,
};
use bh_routing::elem::DataSource;
use bh_routing::live::{Clock, LiveArchive, LiveMerge, TailingSource};

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
    /// How long [`LiveFleet::run_until_drained`] sleeps when a step
    /// ingested nothing.
    pub poll_interval: SimDuration,
    /// Checkpoint after this many ingested elements.
    pub checkpoint_every: u64,
    /// How many recent events the query ring retains.
    pub events_capacity: usize,
}

impl Default for LiveFleetConfig {
    fn default() -> Self {
        LiveFleetConfig {
            max_latency: SimDuration::mins(5),
            poll_interval: SimDuration::secs(1),
            checkpoint_every: 8_192,
            events_capacity: 65_536,
        }
    }
}

/// Everything a daemon needs to resume exactly where a predecessor
/// died: the session checkpoint, the analytics folded in so far, the
/// next sequence number, and each archive's delivery position.
#[derive(Clone)]
pub struct LiveCheckpoint {
    pub(crate) session: SessionCheckpoint,
    pub(crate) pipeline: AnalyticsPipeline,
    pub(crate) next_seq: u64,
    pub(crate) delivered: Vec<((DataSource, u16), u64)>,
    pub(crate) total_elems: u64,
    pub(crate) checkpoints: u64,
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
    pipeline: AnalyticsPipeline,
    clock: Arc<dyn Clock>,
    config: LiveFleetConfig,
    shared: Arc<RwLock<SharedState>>,
    next_seq: u64,
    since_checkpoint: u64,
    total_elems: u64,
    checkpoints: u64,
    max_latency_seen: SimDuration,
    last_checkpoint: Option<LiveCheckpoint>,
}

impl LiveFleet {
    /// Boot a fresh daemon over `feeds` (one labelled [`LiveArchive`]
    /// per collector; label order is the merge tie-break order).
    pub fn new(
        builder: SessionBuilder,
        pipeline: AnalyticsPipeline,
        feeds: &[(DataSource, u16, LiveArchive)],
        clock: Arc<dyn Clock>,
        config: LiveFleetConfig,
    ) -> Self {
        let sources =
            feeds.iter().map(|(d, c, a)| TailingSource::new(a.clone(), *d, *c)).collect::<Vec<_>>();
        Self::assemble(builder.build(), pipeline, sources, clock, config, 0, 0, 0)
    }

    /// Resume from a predecessor's [`LiveCheckpoint`]. `feeds` must
    /// describe the same archives in the same order; each source skips
    /// what the checkpoint says was already delivered, the session
    /// resumes its open state, and sequence numbering continues — any
    /// events that closed after the checkpoint but before the crash are
    /// re-emitted under their original numbers, so consumers dedup by
    /// sequence and observe no gap.
    pub fn resume(
        builder: SessionBuilder,
        feeds: &[(DataSource, u16, LiveArchive)],
        clock: Arc<dyn Clock>,
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
        Self::assemble(
            builder.resume(checkpoint.session.clone()),
            checkpoint.pipeline.clone(),
            sources,
            clock,
            config,
            checkpoint.next_seq,
            checkpoint.total_elems,
            checkpoint.checkpoints,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        session: InferenceSession,
        pipeline: AnalyticsPipeline,
        sources: Vec<TailingSource>,
        clock: Arc<dyn Clock>,
        config: LiveFleetConfig,
        next_seq: u64,
        total_elems: u64,
        checkpoints: u64,
    ) -> Self {
        let mut daemon = LiveFleet {
            merge: LiveMerge::new(sources),
            session,
            pipeline,
            clock,
            config: LiveFleetConfig {
                checkpoint_every: config.checkpoint_every.max(1),
                events_capacity: config.events_capacity.max(1),
                ..config
            },
            shared: Arc::new(RwLock::new(SharedState::default())),
            next_seq,
            since_checkpoint: 0,
            total_elems,
            checkpoints,
            max_latency_seen: SimDuration::ZERO,
            last_checkpoint: None,
        };
        daemon.publish_status();
        daemon
    }

    /// A read-side handle for queries; clone freely.
    pub fn query_runner(&self) -> QueryRunner {
        QueryRunner::new(self.shared.clone())
    }

    /// Daemon tunables in effect.
    pub fn config(&self) -> &LiveFleetConfig {
        &self.config
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

    /// Force a checkpoint now (also resets the cadence counter).
    pub fn checkpoint_now(&mut self) -> LiveCheckpoint {
        // Emit first so the session checkpoint carries no pending closed
        // events: everything closed has a sequence number, and the
        // successor's numbering continues from a clean boundary.
        self.emit_closed();
        let checkpoint = LiveCheckpoint {
            session: self.session.checkpoint(),
            pipeline: self.pipeline.clone(),
            next_seq: self.next_seq,
            delivered: self.merge.delivered(),
            total_elems: self.total_elems,
            checkpoints: self.checkpoints + 1,
        };
        self.checkpoints += 1;
        self.since_checkpoint = 0;
        self.last_checkpoint = Some(checkpoint.clone());
        let report = self.pipeline.snapshot();
        {
            let mut shared = write_shared(&self.shared);
            shared.report = Some(report);
        }
        self.publish_status();
        checkpoint
    }

    /// One daemon iteration: ingest everything the merge proves safe,
    /// emit newly closed events, checkpoint if the cadence is due.
    /// Returns the number of elements ingested.
    pub fn step(&mut self) -> u64 {
        let mut ingested = 0u64;
        while let Some(elem) = self.merge.next_ready() {
            self.session.push(elem);
            ingested += 1;
        }
        self.total_elems += ingested;
        self.since_checkpoint += ingested;
        self.emit_closed();
        if self.since_checkpoint >= self.config.checkpoint_every {
            self.checkpoint_now();
        } else {
            self.publish_status();
        }
        ingested
    }

    /// Run until the stream drains, sleeping `poll_interval` on idle
    /// steps — the production loop shape (with a wall clock, the sleep
    /// blocks; with a virtual clock it advances time).
    pub fn run_until_drained(&mut self) {
        while !self.drained() {
            if self.step() == 0 && !self.drained() {
                self.clock.sleep(self.config.poll_interval);
            }
        }
    }

    /// Sequence and publish every event the session has closed.
    fn emit_closed(&mut self) {
        let closed = self.session.drain_closed();
        if closed.is_empty() {
            return;
        }
        let now = self.clock.now();
        let shared = Arc::clone(&self.shared);
        let mut shared = write_shared(&shared);
        for event in closed {
            self.sequence_into(&mut shared, event, now);
        }
    }

    /// Assign the next sequence number, fold into analytics, retain for
    /// `events-since`. Re-emissions after a resume overwrite their ring
    /// slot with an identical event.
    fn sequence_into(&mut self, shared: &mut SharedState, event: BlackholeEvent, now: SimTime) {
        if let Some(end) = event.end {
            self.max_latency_seen = self.max_latency_seen.max(now.since(end));
        }
        self.pipeline.observe(&event);
        let seq = self.next_seq;
        self.next_seq += 1;
        shared.events.insert(seq, SequencedEvent { seq, emitted_at: now, event });
        while shared.events.len() > self.config.events_capacity {
            shared.events.pop_first();
        }
    }

    fn publish_status(&mut self) {
        let status = LiveStatus {
            elems: self.total_elems,
            events_emitted: self.next_seq,
            open_events: self.session.open_event_count(),
            now: self.clock.now(),
            sources_ended: self.merge.sources_ended(),
            sources_total: self.merge.source_count(),
            max_latency_seen: self.max_latency_seen,
            checkpoints: self.checkpoints,
            drained: self.merge.all_ended(),
        };
        write_shared(&self.shared).status = status;
    }

    /// Finish the drained stream: flush remaining closed events, emit
    /// the still-open ones (`end: None`, latency zero by definition),
    /// publish the final report, and return the session summary plus the
    /// final [`AnalyticsReport`] — the pair one session's `finish_with`
    /// into an `AnalyticsPipeline` over the same stream produces.
    pub fn finish(mut self) -> (StreamSummary, AnalyticsReport) {
        self.step();
        debug_assert!(self.drained(), "finish() on an undrained daemon emits open events early");
        let now = self.clock.now();
        let mut emitted = Vec::new();
        let summary = {
            let mut tee = SequencingTee {
                pipeline: &mut self.pipeline,
                emitted: &mut emitted,
                next_seq: &mut self.next_seq,
                emitted_at: now,
            };
            self.session.finish_with(&mut tee)
        };
        let report = self.pipeline.snapshot();
        {
            let mut shared = write_shared(&self.shared);
            for se in emitted {
                if let Some(end) = se.event.end {
                    self.max_latency_seen = self.max_latency_seen.max(now.since(end));
                }
                shared.events.insert(se.seq, se);
                while shared.events.len() > self.config.events_capacity {
                    shared.events.pop_first();
                }
            }
            shared.report = Some(report.clone());
            shared.status = LiveStatus {
                elems: self.total_elems,
                events_emitted: self.next_seq,
                open_events: 0,
                now,
                sources_ended: self.merge.sources_ended(),
                sources_total: self.merge.source_count(),
                max_latency_seen: self.max_latency_seen,
                checkpoints: self.checkpoints,
                drained: true,
            };
        }
        (summary, report)
    }
}

/// The finish-path adapter: an accumulator that forwards every event to
/// the analytics pipeline while capturing it as a [`SequencedEvent`].
struct SequencingTee<'a> {
    pipeline: &'a mut AnalyticsPipeline,
    emitted: &'a mut Vec<SequencedEvent>,
    next_seq: &'a mut u64,
    emitted_at: SimTime,
}

impl EventAccumulator for SequencingTee<'_> {
    type Output = ();

    fn observe(&mut self, event: &BlackholeEvent) {
        self.pipeline.observe(event);
        let seq = *self.next_seq;
        *self.next_seq += 1;
        self.emitted.push(SequencedEvent {
            seq,
            emitted_at: self.emitted_at,
            event: event.clone(),
        });
    }

    fn observe_visibility(
        &mut self,
        per_dataset: &std::collections::BTreeMap<DataSource, bh_core::DatasetVisibility>,
    ) {
        self.pipeline.observe_visibility(per_dataset);
    }

    fn merge(&mut self, _other: Self) {
        unreachable!("the finish tee never runs sharded");
    }

    fn finalize(self) {}
}
