//! # bh-live — near-real-time blackhole detection service
//!
//! The paper's inference is a run-to-completion study; this crate turns
//! the same machinery into a long-running daemon with freshness
//! guarantees (the CommunityWatch framing: community-based signals as a
//! *live* anomaly detector):
//!
//! * [`LiveFleet`] ([`daemon`]) tails growing per-collector MRT
//!   archives through `bh_routing::live`, drives one
//!   [`InferenceSession`](bh_core::InferenceSession) incrementally,
//!   assigns every closed [`BlackholeEvent`](bh_core::BlackholeEvent) a
//!   [sequence number](bh_core::SequencedEvent) in deterministic
//!   closure order, and checkpoints periodically so a crashed daemon
//!   resumes without gaps or duplicates.
//! * [`QueryRunner`] ([`query`]) answers `status` / `report` /
//!   `events-since` queries over shared state the daemon publishes —
//!   incremental [`AnalyticsReport`](bh_core::AnalyticsReport)
//!   snapshots between checkpoints, a ring of the 65 536 most recent
//!   events, and liveness counters.
//! * [`wire`] is the thin line-protocol front-end over a
//!   [`QueryRunner`] (one command per line, `ok`/`err` replies).
//! * [`LiveNode`] ([`node`]) is the container-style harness that boots
//!   the whole service against a replayed workload and advances its
//!   time in fixed quanta — what the e2e tests, the benchmark and the
//!   examples drive. The daemon itself reads no clock: `now` is an
//!   argument of [`LiveFleet::step`] and [`LiveFleet::finish`].
//!
//! ## Latency semantics
//!
//! An event's *emission latency* is `emitted_at − event.end`: the time
//! between the update that closed the event arriving at the collector
//! and the daemon publishing it. A deployment bounds this with
//! [`LiveFleetConfig::max_latency`]; the daemon satisfies the bound
//! whenever it is stepped at least once per `max_latency` and feeds
//! advance their watermarks with time (a due element is delivered on the
//! first poll after its watermark clears — see
//! [`bh_routing::LiveMerge`]).

pub mod daemon;
pub mod node;
pub mod query;
pub mod wire;

pub use daemon::{LiveCheckpoint, LiveFleet, LiveFleetConfig};
pub use node::LiveNode;
pub use query::{LiveStatus, QueryRunner};
pub use wire::{handle_command, serve_connection};
