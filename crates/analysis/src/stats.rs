//! Statistics primitives: ECDFs, histograms, percentiles.
//!
//! Both [`Ecdf`] and [`Histogram`] are *mergeable incremental* forms:
//! they grow one sample at a time ([`Ecdf::push`] /
//! [`Histogram::record`]) and two instances fed disjoint sample sets
//! merge ([`Ecdf::merge`] / [`Histogram::merge`]) into exactly what one
//! instance fed the union would hold — the same contract as
//! `bh_core`'s `EventAccumulator`s, so per-shard statistics fold
//! together losslessly.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// An empty ECDF ready for incremental [`Ecdf::push`].
    pub fn empty() -> Self {
        Ecdf { sorted: Vec::new() }
    }

    /// Add one sample, keeping the sorted invariant (NaNs are dropped).
    ///
    /// Each push is a sorted insert — O(n) element moves — so this is
    /// for trickles of samples between reads. Bulk loads should use
    /// [`Ecdf::new`] (sort once) and per-shard folds should build one
    /// `Ecdf` per shard and combine with the linear-time
    /// [`Ecdf::merge`].
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        self.sorted.insert(idx, x);
    }

    /// Fold another ECDF in: the result equals an ECDF built from the
    /// concatenated sample sets (linear-time sorted merge).
    pub fn merge(&mut self, other: Ecdf) {
        let mine = std::mem::take(&mut self.sorted);
        let mut a = mine.into_iter().peekable();
        let mut b = other.sorted.into_iter().peekable();
        let mut out = Vec::with_capacity(a.len() + b.len());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if *x <= *y {
                        out.push(a.next().expect("peeked"));
                    } else {
                        out.push(b.next().expect("peeked"));
                    }
                }
                (Some(_), None) => out.extend(a.by_ref()),
                (None, Some(_)) => out.extend(b.by_ref()),
                (None, None) => break,
            }
        }
        self.sorted = out;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Is the ECDF empty?
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by lower interpolation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
    }

    /// Median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The (x, F(x)) points of the step function, deduplicated by x.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let y = (i + 1) as f64 / n;
            match out.last_mut() {
                Some((lx, ly)) if *lx == x => *ly = y,
                _ => out.push((x, y)),
            }
        }
        out
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Arithmetic mean; 0 for empty input.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A histogram over fixed bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Linear bins: `[lo, hi)` split into `n` equal bins.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo, "invalid histogram spec");
        let width = (hi - lo) / n as f64;
        let edges = (0..=n).map(|i| lo + width * i as f64).collect();
        Histogram { edges, counts: vec![0; n], underflow: 0, overflow: 0 }
    }

    /// Logarithmic bins from `lo` to `hi` (both > 0), `n` bins.
    pub fn logarithmic(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo && lo > 0.0, "invalid log histogram spec");
        let ratio = (hi / lo).powf(1.0 / n as f64);
        let mut edges = Vec::with_capacity(n + 1);
        let mut edge = lo;
        for _ in 0..=n {
            edges.push(edge);
            edge *= ratio;
        }
        Histogram { edges, counts: vec![0; n], underflow: 0, overflow: 0 }
    }

    /// Record one sample (NaNs are dropped, as in [`Ecdf`]).
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x < self.edges[0] {
            self.underflow += 1;
            return;
        }
        if x >= *self.edges.last().expect("edges non-empty") {
            self.overflow += 1;
            return;
        }
        let idx = (self.edges.partition_point(|e| *e <= x) - 1).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Record many samples.
    pub fn record_all(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.record(x);
        }
    }

    /// Fold another histogram over the *same bin edges* in: bin counts
    /// and under/overflow add, so the result equals one histogram fed
    /// both sample sets. Panics when the edges differ.
    pub fn merge(&mut self, other: Histogram) {
        assert_eq!(self.edges, other.edges, "histogram merge requires identical bin edges");
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// `(bin_low, bin_high, count)` triples.
    pub fn bins(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.edges[i], self.edges[i + 1], c))
            .collect()
    }

    /// Samples below the first bin.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the last edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded samples including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.fraction_le(0.5), 0.0);
        assert_eq!(e.fraction_le(1.0), 0.25);
        assert_eq!(e.fraction_le(2.0), 0.75);
        assert_eq!(e.fraction_le(10.0), 1.0);
        assert_eq!(e.median(), Some(2.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(3.0));
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0, 4.0, 4.0, 2.0]);
        let points = e.points();
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_handles_empty_and_nan() {
        let e = Ecdf::new(vec![f64::NAN, f64::NAN]);
        assert!(e.is_empty());
        assert_eq!(e.fraction_le(1.0), 0.0);
        assert_eq!(e.median(), None);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(100.0));
        let p90 = e.quantile(0.9).unwrap();
        assert!((89.0..=91.0).contains(&p90));
    }

    #[test]
    fn linear_histogram() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        h.record_all([0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 55.0]);
        let bins = h.bins();
        assert_eq!(bins.len(), 5);
        assert_eq!(bins[0].2, 2); // 0.0, 1.9
        assert_eq!(bins[1].2, 1); // 2.0
        assert_eq!(bins[4].2, 1); // 9.99
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_drops_nan() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        h.record_all([1.0, f64::NAN, 9.5]);
        assert_eq!(h.total(), 2);
        assert_eq!(h.bins()[4].2, 1, "a NaN must not land in the top bin");
        let mut other = Histogram::linear(0.0, 10.0, 5);
        other.record(f64::NAN);
        h.merge(other);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn log_histogram_regimes() {
        // Fig. 8(b)-style: minutes / days / months regimes in hours.
        let mut h = Histogram::logarithmic(1.0 / 60.0, 24.0 * 90.0, 12);
        h.record_all([0.5 / 60.0, 1.0, 30.0 * 24.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 3);
        let nonzero: Vec<_> = h.bins().into_iter().filter(|(_, _, c)| *c > 0).collect();
        assert_eq!(nonzero.len(), 2);
        // Edges grow geometrically.
        let bins = h.bins();
        let r0 = bins[0].1 / bins[0].0;
        let r5 = bins[5].1 / bins[5].0;
        assert!((r0 - r5).abs() < 1e-9);
    }

    #[test]
    fn ecdf_push_matches_batch_construction() {
        let samples = [5.0, 1.0, f64::NAN, 9.0, 4.0, 4.0, 2.0];
        let mut incremental = Ecdf::empty();
        for x in samples {
            incremental.push(x);
        }
        assert_eq!(incremental, Ecdf::new(samples.to_vec()));
    }

    #[test]
    fn ecdf_merge_equals_concatenated_batch() {
        let left = vec![5.0, 1.0, 9.0];
        let right = vec![4.0, 4.0, 2.0, 7.5];
        let mut merged = Ecdf::new(left.clone());
        merged.merge(Ecdf::new(right.clone()));
        let mut all = left;
        all.extend(right);
        assert_eq!(merged, Ecdf::new(all));
        // Merging an empty ECDF is the identity, both ways.
        let mut e = merged.clone();
        e.merge(Ecdf::empty());
        assert_eq!(e, merged);
        let mut empty = Ecdf::empty();
        empty.merge(merged.clone());
        assert_eq!(empty, merged);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::linear(0.0, 10.0, 5);
        a.record_all([0.0, 1.9, -1.0]);
        let mut b = Histogram::linear(0.0, 10.0, 5);
        b.record_all([2.0, 9.99, 10.0, 55.0]);
        a.merge(b);
        let mut combined = Histogram::linear(0.0, 10.0, 5);
        combined.record_all([0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 55.0]);
        assert_eq!(a, combined);
        assert_eq!(a.total(), 7);
    }

    #[test]
    #[should_panic(expected = "identical bin edges")]
    fn histogram_merge_rejects_mismatched_edges() {
        let mut a = Histogram::linear(0.0, 10.0, 5);
        a.merge(Histogram::linear(0.0, 10.0, 4));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
