//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
///
/// Samples are collected unsorted and sorted lazily on first query
/// ([`Cdf::freeze`] or any read method). Used for Fig 10 (latency
/// distribution at 6000 tps / 16 shards).
///
/// # Example
///
/// ```
/// use optchain_metrics::Cdf;
///
/// let mut cdf = Cdf::new();
/// cdf.extend([4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
/// assert_eq!(cdf.percentile(50.0), 2.0);
/// assert_eq!(cdf.percentile(100.0), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty CDF pre-sized for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Cdf {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Records a sample.
    ///
    /// Non-finite samples are ignored (a latency can never be NaN; guarding
    /// here keeps percentile queries total).
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sorted = false;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` iff no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sorts the sample buffer now instead of at first query.
    pub fn freeze(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Fraction of samples `<= value`, in `[0, 1]`.
    pub fn fraction_at_or_below(&mut self, value: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.freeze();
        let n = self.samples.partition_point(|s| *s <= value);
        n as f64 / self.samples.len() as f64
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) using nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty cdf");
        assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0,100]");
        self.freeze();
        if p == 0.0 {
            return self.samples[0];
        }
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1)]
    }

    /// Evaluates the CDF at `points` evenly spaced values between min and
    /// max, returning `(value, fraction)` pairs — a plottable curve.
    pub fn curve(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.freeze();
        let lo = self.samples[0];
        let hi = *self.samples.last().expect("nonempty");
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        (0..points)
            .map(|i| {
                let v = lo + span * i as f64 / (points - 1).max(1) as f64;
                let n = self.samples.partition_point(|s| *s <= v);
                (v, n as f64 / self.samples.len() as f64)
            })
            .collect()
    }

    /// Mean of the samples, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Maximum sample, or `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.freeze();
        self.samples.last().copied()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Cdf::new();
        for v in iter {
            c.record(v);
        }
        c
    }
}

impl Extend<f64> for Cdf {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_is_monotone() {
        let mut cdf: Cdf = [5.0, 1.0, 3.0, 3.0, 9.0].into_iter().collect();
        let f1 = cdf.fraction_at_or_below(1.0);
        let f3 = cdf.fraction_at_or_below(3.0);
        let f9 = cdf.fraction_at_or_below(9.0);
        assert!(f1 <= f3 && f3 <= f9);
        assert_eq!(f9, 1.0);
        assert_eq!(f1, 0.2);
        assert_eq!(f3, 0.6);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut cdf: Cdf = (1..=10).map(|v| v as f64).collect();
        assert_eq!(cdf.percentile(10.0), 1.0);
        assert_eq!(cdf.percentile(50.0), 5.0);
        assert_eq!(cdf.percentile(90.0), 9.0);
        assert_eq!(cdf.percentile(100.0), 10.0);
        assert_eq!(cdf.percentile(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty cdf")]
    fn percentile_of_empty_panics() {
        Cdf::new().percentile(50.0);
    }

    #[test]
    fn nan_is_ignored() {
        let mut cdf = Cdf::new();
        cdf.record(f64::NAN);
        cdf.record(2.0);
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.max(), Some(2.0));
    }

    #[test]
    fn curve_spans_range_and_ends_at_one() {
        let mut cdf: Cdf = (0..100).map(|v| v as f64).collect();
        let curve = cdf.curve(11);
        assert_eq!(curve.len(), 11);
        assert_eq!(curve[0].0, 0.0);
        assert_eq!(curve[10].0, 99.0);
        assert_eq!(curve[10].1, 1.0);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1, "cdf must be monotone");
        }
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut cdf = Cdf::new();
        cdf.record(1.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 1.0);
        cdf.record(0.5);
        assert_eq!(cdf.fraction_at_or_below(0.6), 0.5);
    }
}
