//! # bh-workloads — scenario drivers
//!
//! Generates the *activity* the paper measures: a DDoS attack calendar
//! spanning December 2014 – March 2017 with the Fig. 4(c) headline spikes
//! ([`attacks`]), an operator reaction model reproducing the §9 practices
//! (ON/OFF probing, multi-provider blackholing, community bundling,
//! NO_EXPORT compliance, misconfigurations — [`reaction`]), and the
//! end-to-end driver that feeds everything through the BGP simulator and
//! returns the collector element stream together with per-event ground
//! truth ([`scenario`]), plus per-collector MRT archive partitioning so
//! a synthetic collector fleet can be written out and re-ingested
//! ([`fleet`]).
//!
//! Ground truth is what the original study never had: every inferred
//! event can be checked against the reaction that actually caused it.

pub mod adversarial;
pub mod attacks;
pub mod fleet;
pub mod live;
pub mod reaction;
pub mod scenario;

pub use adversarial::{run_adversarial, AdversarialConfig, AdversarialOutput};
pub use attacks::{mirai_era_start, poisson, AttackCalendar, Spike, SPIKES};
pub use fleet::{fleet_archives, fleet_archives_for, fleet_of, CollectorArchive};
pub use live::ReplayFeed;
pub use reaction::{
    capable_providers, eligible_users, plan_reaction, triggers, Action, CapableProvider,
    GroundTruthEvent, Schedule, TimedAction,
};
pub use scenario::{run, ScenarioConfig, ScenarioOutput};
