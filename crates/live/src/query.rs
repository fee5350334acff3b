//! Shared state between the daemon and its query surface.
//!
//! The daemon owns the write side (a `SharedState` behind an
//! `Arc<RwLock>`); any number of [`QueryRunner`] clones — wire
//! front-ends, monitoring threads, tests — read consistent snapshots
//! without ever touching the inference state itself.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bh_bgp_types::time::{SimDuration, SimTime};
use bh_core::{AnalyticsReport, SequencedEvent};

/// Liveness counters the daemon refreshes every step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveStatus {
    /// Elements ingested since session start (including before a resume).
    pub elems: u64,
    /// Events emitted so far (== the next sequence number).
    pub events_emitted: u64,
    /// Blackholings currently open in the session.
    pub open_events: usize,
    /// The daemon clock's current time.
    pub now: SimTime,
    /// Tailing sources that reached end-of-archive.
    pub sources_ended: usize,
    /// Total tailing sources.
    pub sources_total: usize,
    /// Worst emission latency observed so far (closed events only),
    /// carried across a resume.
    pub max_latency_seen: SimDuration,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Every archive closed and drained — the stream is complete.
    pub drained: bool,
}

/// The daemon-published state the query surface reads.
#[derive(Debug, Default)]
pub(crate) struct SharedState {
    pub(crate) status: LiveStatus,
    pub(crate) report: Option<AnalyticsReport>,
    /// Recent events keyed by sequence number, trimmed to the
    /// configured capacity (oldest first).
    pub(crate) events: BTreeMap<u64, SequencedEvent>,
}

/// Lock `shared` for writing. Every write replaces a whole field or
/// moves one ring entry, so the state is valid at every step and a lock
/// poisoned by a panicking holder is recovered, not propagated: the
/// query plane keeps answering from the last published state.
pub(crate) fn write_shared(shared: &RwLock<SharedState>) -> RwLockWriteGuard<'_, SharedState> {
    shared.write().unwrap_or_else(PoisonError::into_inner)
}

/// Read-side handle over the daemon's shared state. Cloning is cheap;
/// all clones observe the same live state.
#[derive(Debug, Clone)]
pub struct QueryRunner {
    shared: Arc<RwLock<SharedState>>,
}

impl QueryRunner {
    pub(crate) fn new(shared: Arc<RwLock<SharedState>>) -> Self {
        QueryRunner { shared }
    }

    /// Poison is recovered for the reason [`write_shared`] gives.
    fn read(&self) -> RwLockReadGuard<'_, SharedState> {
        self.shared.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The daemon's current liveness counters.
    pub fn status(&self) -> LiveStatus {
        self.read().status.clone()
    }

    /// The most recent [`AnalyticsReport`] snapshot — published at every
    /// checkpoint and at drain; `None` before the first checkpoint.
    pub fn report(&self) -> Option<AnalyticsReport> {
        self.read().report.clone()
    }

    /// Every retained event with `seq >= since`, ascending. Events older
    /// than the ring capacity are gone — a consumer that falls further
    /// behind than the capacity must re-sync from a report instead.
    pub fn events_since(&self, since: u64) -> Vec<SequencedEvent> {
        self.read().events.range(since..).map(|(_, e)| e.clone()).collect()
    }
}
