//! Statistics primitives: ECDF quantiles, logarithmic histograms, means.

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

    /// The `q`-quantile, `q` clamped to `[0, 1]`: the sorted sample at
    /// the nearest rank, `round((n - 1) * q)` — no interpolation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        Some(self.sorted[idx])
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

/// A histogram over fixed bins; samples outside them are not counted.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Logarithmic bins from `lo` to `hi`, `n` bins; `None` unless
    /// `0 < lo < hi` and `n > 0`.
    pub fn logarithmic(lo: f64, hi: f64, n: usize) -> Option<Self> {
        if !(n > 0 && hi > lo && lo > 0.0) {
            return None;
        }
        let ratio = (hi / lo).powf(1.0 / n as f64);
        let mut edges = Vec::with_capacity(n + 1);
        let mut edge = lo;
        for _ in 0..=n {
            edges.push(edge);
            edge *= ratio;
        }
        Some(Histogram { edges, counts: vec![0; n] })
    }

    /// Record one sample into the bin `[low, high)` holding it; a sample
    /// below the first edge, at or above the last, or NaN is dropped.
    pub fn record(&mut self, x: f64) {
        // The number of edges at or below `x`: 0 below the first edge (and
        // for NaN, which compares false), `edges.len()` at or above the last.
        let at_or_below = self.edges.partition_point(|e| *e <= x);
        if (1..self.edges.len()).contains(&at_or_below) {
            self.counts[at_or_below - 1] += 1;
        }
    }

    /// Record many samples.
    pub fn record_all(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.record(x);
        }
    }

    /// `(bin_low, bin_high, count)` triples.
    pub fn bins(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.edges[i], self.edges[i + 1], c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-bin counts of a histogram.
    fn counts(h: &Histogram) -> Vec<u64> {
        h.bins().into_iter().map(|(_, _, c)| c).collect()
    }

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(0.5), Some(2.0));
        assert_eq!(e.quantile(1.0), Some(3.0));
        // Out-of-range quantiles clamp to the extremes.
        assert_eq!(e.quantile(-1.0), Some(1.0));
        assert_eq!(e.quantile(2.0), Some(3.0));
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0, 4.0, 4.0, 2.0]);
        let values: Vec<f64> = (0..=20).filter_map(|i| e.quantile(i as f64 / 20.0)).collect();
        assert_eq!(values.len(), 21);
        for w in values.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(values.last(), Some(&9.0));
    }

    #[test]
    fn ecdf_handles_empty_and_nan() {
        let e = Ecdf::new(vec![f64::NAN, f64::NAN]);
        assert_eq!(e.quantile(0.0), None);
        assert_eq!(e.quantile(0.5), None);
        let e = Ecdf::new(vec![f64::NAN, 4.0]);
        assert_eq!(e.quantile(1.0), Some(4.0));
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
    fn histogram_drops_nan() {
        let mut h = Histogram::logarithmic(1.0, 1000.0, 3).unwrap();
        h.record_all([2.0, f64::NAN, 999.0]);
        assert_eq!(counts(&h), [1, 0, 1], "a NaN must not land in any bin");
    }

    #[test]
    fn log_histogram_regimes() {
        // Fig. 8(b)-style: minutes / days / months regimes in hours.
        let mut h = Histogram::logarithmic(1.0 / 60.0, 24.0 * 90.0, 12).unwrap();
        h.record_all([0.5 / 60.0, 1.0, 30.0 * 24.0, 24.0 * 90.0]);
        // Below the first edge and at the last edge: not counted.
        assert_eq!(counts(&h).iter().sum::<u64>(), 2);
        let nonzero: Vec<_> = h.bins().into_iter().filter(|(_, _, c)| *c > 0).collect();
        assert_eq!(nonzero.len(), 2);
        // Edges grow geometrically.
        let bins = h.bins();
        let r0 = bins[0].1 / bins[0].0;
        let r5 = bins[5].1 / bins[5].0;
        assert!((r0 - r5).abs() < 1e-9);
    }

    #[test]
    fn log_histogram_bins_are_half_open() {
        // Edges 1, 2, 4: each bin holds its low edge, not its high one.
        let mut h = Histogram::logarithmic(1.0, 4.0, 2).unwrap();
        assert_eq!(h.bins().iter().map(|(lo, _, _)| *lo).collect::<Vec<_>>(), [1.0, 2.0]);
        h.record_all([1.0, 1.9, 2.0, 3.99, 0.5, 4.0, 55.0]);
        assert_eq!(counts(&h), [2, 2]);
    }

    #[test]
    fn log_histogram_rejects_invalid_specs() {
        assert!(Histogram::logarithmic(0.0, 10.0, 4).is_none());
        assert!(Histogram::logarithmic(10.0, 10.0, 4).is_none());
        assert!(Histogram::logarithmic(1.0, 10.0, 0).is_none());
        assert!(Histogram::logarithmic(f64::NAN, 10.0, 4).is_none());
        assert_eq!(Histogram::logarithmic(1.0, 10.0, 4).map(|h| h.bins().len()), Some(4));
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
