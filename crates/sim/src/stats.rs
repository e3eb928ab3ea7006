//! Summary statistics, empirical CDFs and histograms.
//!
//! The experiment harness reproduces several statistical artifacts from the paper —
//! most prominently Fig. 4(a), the CDF of inter-parallelism window sizes, and
//! Fig. 4(b), mean window size bucketed by following traffic volume. The types here are
//! deliberately simple: they hold all samples in memory (traces are small) and compute
//! exact order statistics.

use serde::{Deserialize, Serialize};

/// Running summary of a set of `f64` samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Creates a summary from existing samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut s = Summary::new();
        for x in samples {
            s.add(x);
        }
        s
    }

    /// Adds one sample. Non-finite samples are ignored.
    pub fn add(&mut self, sample: f64) {
        if sample.is_finite() {
            self.samples.push(sample);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum() / self.samples.len() as f64)
        }
    }

    /// Minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.min(x)),
        })
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.max(x)),
        })
    }

    /// Borrow the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// An empirical cumulative distribution function over recorded samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. Non-finite samples are dropped.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x`, in `[0, 1]`. Empty CDFs report 0.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly greater than `x`.
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// The value below which fraction `q` of the samples fall (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.sorted.len() as f64 - 1.0)).round() as usize;
        Some(self.sorted[rank])
    }

    /// Returns `(value, cumulative fraction)` pairs suitable for plotting the CDF curve,
    /// one point per sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }
}

/// A histogram with caller-defined bucket edges, used for Fig. 4(b)-style breakdowns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BucketedStats {
    /// Upper-inclusive edges of each bucket except the last, which is open-ended.
    edges: Vec<f64>,
    /// Per-bucket sample summaries.
    buckets: Vec<Summary>,
}

impl BucketedStats {
    /// Creates a bucketed collector. `edges` must be strictly increasing; bucket `i`
    /// holds keys `<= edges[i]` (after failing all earlier buckets), and a final
    /// open-ended bucket holds everything larger than the last edge.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bucket edges must be strictly increasing"
        );
        let buckets = vec![Summary::new(); edges.len() + 1];
        BucketedStats { edges, buckets }
    }

    /// Adds a `value` sample classified by `key`.
    pub fn add(&mut self, key: f64, value: f64) {
        let idx = self.bucket_index(key);
        self.buckets[idx].add(value);
    }

    /// Index of the bucket a key falls in.
    pub(crate) fn bucket_index(&self, key: f64) -> usize {
        self.edges.partition_point(|&e| e < key)
    }

    /// Per-bucket summaries, in edge order.
    pub fn buckets(&self) -> &[Summary] {
        &self.buckets
    }

    /// The configured edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = Summary::from_samples([1.0, f64::NAN, f64::INFINITY, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn empty_summary_is_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn cdf_fractions() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.fraction_above(3.0), 0.25);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(3.0)); // the rank rounds up on an even count
        assert_eq!(cdf.quantile(1.0), Some(4.0));
        assert_eq!(Cdf::from_samples(Vec::new()).quantile(0.5), None);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_samples([5.0, 1.0, 3.0, 2.0, 4.0]);
        let pts = cdf.points();
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bucketed_stats_classification() {
        // Buckets: <=1, <=64, <=957, >957 (the Fig. 4(b) traffic-size buckets, in MB).
        let mut b = BucketedStats::new(vec![1.0, 64.0, 957.0]);
        b.add(0.5, 10.0);
        b.add(64.0, 20.0);
        b.add(100.0, 30.0);
        b.add(3829.0, 40.0);
        assert_eq!(b.buckets().len(), 4);
        assert_eq!(b.buckets()[0].count(), 1);
        assert_eq!(b.buckets()[1].count(), 1);
        assert_eq!(b.buckets()[2].count(), 1);
        assert_eq!(b.buckets()[3].count(), 1);
        assert_eq!(b.buckets()[3].mean(), Some(40.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bucketed_stats_rejects_bad_edges() {
        let _ = BucketedStats::new(vec![2.0, 1.0]);
    }
}
