//! # bh-bench — the study harness and the checked reproduction
//!
//! The [`pipeline`] module builds the full study end-to-end — topology →
//! corpus → dictionary → scenario → collector archives → inference — at
//! several scales, so examples, integration tests and the benchmark
//! share one code path. The [`reproduce`] module regenerates every
//! table and figure of the paper from one such study and checks the
//! paper's headline claims against the result (`EXPERIMENTS.md`).

pub mod pipeline;
pub mod reproduce;

pub use pipeline::{AdversarialRun, Observed, Study, StudyRun, StudyScale};
