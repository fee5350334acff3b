//! `LiveNode`: the whole service in one box, on replayed time.
//!
//! The container-style harness the e2e suite, the benchmark and the
//! examples boot: a [`ReplayFeed`] paces a recorded [`CollectorArchive`]
//! fleet, the node's own `now` moves in fixed quanta, and a
//! [`LiveFleet`] daemon consumes the growing archives. One
//! [`tick`](LiveNode::tick) is one quantum of simulated wall time;
//! [`kill`](LiveNode::kill) and [`LiveNode::resume`] model a crash and
//! supervised restart.

use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{AnalyticsPipeline, AnalyticsReport, SessionBuilder, StreamSummary};
use bh_workloads::{CollectorArchive, ReplayFeed};

use crate::daemon::{LiveCheckpoint, LiveFleet, LiveFleetConfig};
use crate::query::QueryRunner;

/// A booted node: feed + daemon + the time they share. See the
/// [module docs](self).
pub struct LiveNode {
    feed: ReplayFeed,
    daemon: LiveFleet,
    now: SimTime,
    quantum: SimDuration,
}

impl LiveNode {
    /// Boot the full node: build the replay lanes from `archives`, start
    /// time at `start`, and bring up a fresh daemon.
    pub fn boot(
        builder: SessionBuilder,
        pipeline: AnalyticsPipeline,
        archives: &[CollectorArchive],
        start: SimTime,
        quantum: SimDuration,
        config: LiveFleetConfig,
    ) -> Self {
        let (feed, handles) = ReplayFeed::new(archives);
        let daemon = LiveFleet::new(builder, pipeline, &handles, start, config);
        LiveNode { feed, daemon, now: start, quantum }
    }

    /// Boot a successor node from a crashed predecessor's checkpoint.
    /// The replay starts over from the same `archives` (a real
    /// supervisor re-opens the same files); the daemon skips everything
    /// the checkpoint says was delivered. Time starts at `start` —
    /// pass the predecessor's time of death for realistic replays.
    pub fn resume(
        builder: SessionBuilder,
        archives: &[CollectorArchive],
        start: SimTime,
        quantum: SimDuration,
        config: LiveFleetConfig,
        checkpoint: LiveCheckpoint,
    ) -> Self {
        let (feed, handles) = ReplayFeed::new(archives);
        let daemon = LiveFleet::resume(builder, &handles, start, config, checkpoint);
        LiveNode { feed, daemon, now: start, quantum }
    }

    /// One quantum: pump every record now due into the archives, step
    /// the daemon, advance time. Returns the elements ingested.
    pub fn tick(&mut self) -> u64 {
        self.feed.pump(self.now);
        let ingested = self.daemon.step(self.now);
        self.now += self.quantum;
        ingested
    }

    /// Fully replayed and fully drained?
    pub fn done(&self) -> bool {
        self.feed.finished() && self.daemon.drained()
    }

    /// Run ticks until [`done`](LiveNode::done) (bounded by the replay
    /// length — every tick advances time).
    pub fn run_to_completion(&mut self) {
        while !self.done() {
            self.tick();
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-side query handle (works across threads).
    pub fn query(&self) -> QueryRunner {
        self.daemon.query_runner()
    }

    /// Crash the node: drop the daemon mid-stream and hand back its most
    /// recent checkpoint (`None` if none was taken yet). The feed and
    /// its archives die with the node, exactly like a host failure.
    pub fn kill(self) -> Option<LiveCheckpoint> {
        self.daemon.last_checkpoint()
    }

    /// Finish the drained stream; see [`LiveFleet::finish`].
    pub fn finish(self) -> (StreamSummary, AnalyticsReport) {
        self.daemon.finish(self.now)
    }
}
