//! The repo's benchmark: six named workloads over the MRT → inference →
//! live pipeline and its simulator, three end-to-end metrics, and an
//! outside-in per-layer ledger. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root.

pub mod adapter;
pub mod cli;
pub mod json;
pub mod ledger;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
