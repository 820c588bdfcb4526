//! Fixed-width time-binned series.

/// Aggregated statistics of one time bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Start of the bin (inclusive), in the series' time unit.
    pub start: f64,
    /// Number of samples recorded in the bin.
    pub count: u64,
    /// Sum of the sample values.
    pub sum: f64,
    /// Smallest sample value.
    pub min: f64,
    /// Largest sample value.
    pub max: f64,
}

impl Bin {
    fn empty(start: f64) -> Self {
        Bin {
            start,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Mean of the samples in the bin, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// `true` iff the bin holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A time series with fixed-width bins starting at time zero.
///
/// Figures 5–7 of the paper are all bin aggregations: committed
/// transactions per 50-second window (Fig 5, bin sum of 1-valued events)
/// and max/min shard queue sizes over time (Fig 6/7, bin max/min of
/// sampled queue lengths).
///
/// # Example
///
/// ```
/// use optchain_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new(50.0);
/// ts.record(10.0, 1.0);
/// ts.record(20.0, 1.0);
/// ts.record(60.0, 1.0);
/// assert_eq!(ts.bins().len(), 2);
/// assert_eq!(ts.bins()[0].count, 2);
/// assert_eq!(ts.bins()[1].start, 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: f64,
    bins: Vec<Bin>,
}

impl TimeSeries {
    /// Creates a series with the given bin width (same unit as timestamps).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive and finite.
    pub fn new(bin_width: f64) -> Self {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin width must be positive, got {bin_width}"
        );
        TimeSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Records a sample `value` observed at time `t >= 0`.
    ///
    /// Negative or non-finite timestamps are ignored.
    pub fn record(&mut self, t: f64, value: f64) {
        if !t.is_finite() || t < 0.0 || !value.is_finite() {
            return;
        }
        let idx = (t / self.bin_width) as usize;
        while self.bins.len() <= idx {
            let start = self.bins.len() as f64 * self.bin_width;
            self.bins.push(Bin::empty(start));
        }
        let bin = &mut self.bins[idx];
        bin.count += 1;
        bin.sum += value;
        bin.min = bin.min.min(value);
        bin.max = bin.max.max(value);
    }

    /// Records an event (value 1) at time `t` — convenience for counting.
    pub fn record_event(&mut self, t: f64) {
        self.record(t, 1.0);
    }

    /// All bins from time zero through the last recorded sample.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Per-bin event counts (Fig 5's "committed transactions per window").
    pub fn counts(&self) -> Vec<u64> {
        self.bins.iter().map(|b| b.count).collect()
    }

    /// Per-bin `(start, mean)` points, skipping empty bins.
    pub fn mean_points(&self) -> Vec<(f64, f64)> {
        self.bins
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| (b.start, b.mean()))
            .collect()
    }

    /// Largest bin count, or 0 when empty.
    pub fn peak_count(&self) -> u64 {
        self.bins.iter().map(|b| b.count).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_grow_on_demand() {
        let mut ts = TimeSeries::new(10.0);
        ts.record(35.0, 2.0);
        assert_eq!(ts.bins().len(), 4);
        assert!(ts.bins()[0].is_empty());
        assert_eq!(ts.bins()[3].count, 1);
        assert_eq!(ts.bins()[3].start, 30.0);
    }

    #[test]
    fn bin_statistics() {
        let mut ts = TimeSeries::new(1.0);
        ts.record(0.1, 5.0);
        ts.record(0.2, 1.0);
        ts.record(0.9, 3.0);
        let b = ts.bins()[0];
        assert_eq!(b.count, 3);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert!((b.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn events_count() {
        let mut ts = TimeSeries::new(50.0);
        for t in [1.0, 2.0, 3.0, 51.0] {
            ts.record_event(t);
        }
        assert_eq!(ts.counts(), vec![3, 1]);
        assert_eq!(ts.peak_count(), 3);
    }

    #[test]
    fn rejects_bad_samples() {
        let mut ts = TimeSeries::new(1.0);
        ts.record(-1.0, 1.0);
        ts.record(f64::NAN, 1.0);
        ts.record(1.0, f64::INFINITY);
        assert!(ts.bins().is_empty());
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_width_panics() {
        TimeSeries::new(0.0);
    }

    #[test]
    fn boundary_lands_in_upper_bin() {
        let mut ts = TimeSeries::new(10.0);
        ts.record(10.0, 1.0);
        assert_eq!(ts.bins().len(), 2);
        assert_eq!(ts.bins()[1].count, 1);
    }

    #[test]
    fn mean_points_skip_empty_bins() {
        let mut ts = TimeSeries::new(1.0);
        ts.record(0.5, 2.0);
        ts.record(2.5, 4.0);
        let pts = ts.mean_points();
        assert_eq!(pts, vec![(0.0, 2.0), (2.0, 4.0)]);
    }
}
