//! # bh-core — the paper's contribution: BGP blackholing inference
//!
//! Implements the full methodology of Giotsas et al. (IMC 2017), §4:
//!
//! 1. **Dictionary-driven detection** ([`session`]): announcements carrying
//!    a community from the documented blackhole dictionary are candidate
//!    blackholings; shared/ambiguous communities are resolved via the AS
//!    path; IXP blackholing is detected via the route-server ASN on the
//!    path or a peer-ip inside a PeeringDB peering LAN; the blackholing
//!    *user* is the AS-hop before the provider (prepending removed), the
//!    peer-as for route-server views, or the origin for bundled
//!    detections.
//! 2. **Event tracking** ([`session`], [`events`]): per-(prefix, peer)
//!    state machines handle announcements, explicit withdrawals, and
//!    *implicit* withdrawals (re-announcement without the tag);
//!    observations are correlated across peers into prefix-level
//!    [`events::BlackholeEvent`]s that start at their first tagged
//!    announcement (no RIB-dump initialization: see the §4.2 deviation
//!    below); the 5-minute grouping of §9 collapses operators' ON/OFF
//!    probing into [`events::BlackholePeriod`]s.
//! 3. **Analytics** ([`analytics`], [`accumulate`]): Table 3
//!    (per-dataset visibility), Table 4 (by provider type), Fig. 4
//!    (daily adoption series), Fig. 5 (prefix-count CDFs per
//!    provider/user), Fig. 6 (per-country), Fig. 7(b) (providers per
//!    event), Fig. 7(c) (AS-distance incl. the bundling "no-path"
//!    share), Fig. 8 (durations and §9 grouped periods). All of them
//!    come from one one-pass [`accumulate::EventAccumulator`], the
//!    [`accumulate::AnalyticsPipeline`] (its `fold` is the batch form),
//!    fed from `drain_closed_into` mid-stream and `finish_with` at the
//!    end.
//! 4. **Reference data** ([`refdata`]): the *public* metadata the
//!    methodology is allowed to consult (PeeringDB LANs and route
//!    servers, PeeringDB/CAIDA classification, RIR countries, collector
//!    session metadata) — never the simulator's ground truth.
//!
//! The inference runs as **streaming sessions**: a
//! [`session::SessionBuilder`] assembles an owned
//! [`session::InferenceSession`] (dictionary/reference data behind
//! `Arc`), elements arrive via `push` or from any
//! [`bh_routing::ElemSource`] — the live simulator, an in-memory slice,
//! or a constant-memory MRT archive reader. One session on the calling
//! thread infers over the time-ordered merge of every collector's
//! stream, as the paper's single pass does; all its state is keyed by
//! prefix, and `bh-core` starts no threads.
//!
//! ## Deviation from §4.2: no RIB-dump initialization
//!
//! The paper seeds its per-prefix state from RIB table dumps at
//! "starting time zero", then replays the update files: a blackholing
//! already in the table when the archives begin gets start time zero.
//! That initialization exists for state from before an archive's first
//! record, and no world here has any: every scenario, adversarial run
//! and live replay starts from an empty simulator at its window start
//! and reaches inference only as BGP4MP UPDATE archives. So a session
//! reads UPDATE streams only, and every event starts at its first tagged
//! announcement. `bh_mrt` still checks and counts `TABLE_DUMP_V2`
//! records; RIB input would return as a RIB arm of
//! `MessageStream::next_update`, not as a second ingest path.

pub mod accumulate;
pub mod analytics;
pub mod confusion;
pub mod events;
pub mod refdata;
pub mod session;

pub use accumulate::{AnalyticsConfig, AnalyticsPipeline, AnalyticsReport, EventAccumulator};
pub use analytics::{DailyPoint, TypeRow, VisibilityRow};
pub use confusion::{ConfusionAccumulator, ConfusionReport, LabelKind, TruthLabel};
pub use events::{
    BlackholeEvent, BlackholePeriod, DetectionDistance, PeriodAccumulator, ProviderId,
    SequencedEvent,
};
pub use refdata::ReferenceData;
pub use session::{
    canonical_order, DatasetVisibility, Detection, EngineConfig, EngineStats, InferenceResult,
    InferenceSession, SessionBuilder, SessionCheckpoint, StreamSummary,
};
