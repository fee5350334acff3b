//! # bh-analysis — statistics and reporting
//!
//! Dependency-free analysis primitives used by `bh_bench::reproduce` and
//! the `quickstart` example:
//!
//! * [`stats`] — ECDF quantiles (Figs. 5, 8(a), 9), a logarithmic
//!   histogram (Fig. 8(b)), means.
//! * [`render`] — aligned ASCII tables matching the paper's table shapes
//!   and TSV series emitters for every figure.

pub mod render;
pub mod stats;

pub use render::{count, pct, render_series, Series, Table};
pub use stats::{mean, Ecdf, Histogram};
