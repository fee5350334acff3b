//! # bh-analysis — statistics and reporting
//!
//! Dependency-free analysis primitives shared by `bh_bench::reproduce`,
//! the examples and the integration tests:
//!
//! * [`stats`] — ECDFs (Figs. 5, 8, 9), linear and logarithmic histograms
//!   (Figs. 7, 8(b), 9(a/b)), quantiles.
//! * [`render`] — aligned ASCII tables matching the paper's table shapes
//!   and TSV series emitters for every figure.

pub mod render;
pub mod stats;

pub use render::{count, pct, render_series, Series, Table};
pub use stats::{mean, Ecdf, Histogram};
