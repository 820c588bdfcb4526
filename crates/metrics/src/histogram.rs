//! Integer-bucketed histograms with log-scale views.

use std::collections::BTreeMap;

/// A sparse histogram over non-negative integer values.
///
/// Used for the TaN degree distributions of Fig 2: `value` is a degree,
/// the count is the number of nodes with that degree. The log-log view the
/// paper plots is exposed via [`Histogram::log_log_points`] and the
/// cumulative view (Fig 2b) via [`Histogram::cumulative_fraction_below`].
///
/// # Example
///
/// ```
/// use optchain_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for d in [0, 1, 1, 2, 2, 2] {
///     h.record(d);
/// }
/// assert_eq!(h.count_of(2), 3);
/// assert_eq!(h.total(), 6);
/// // Fraction of samples strictly below 2: (1+2)/6.
/// assert!((h.cumulative_fraction_below(2) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample with the given integer value.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records `n` samples with the given value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Number of samples with exactly this value.
    pub fn count_of(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.counts.iter().map(|(v, c)| *v as f64 * *c as f64).sum();
        sum / self.total as f64
    }

    /// Fraction of samples with value strictly below `value`.
    pub fn cumulative_fraction_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self.counts.range(..value).map(|(_, c)| c).sum();
        below as f64 / self.total as f64
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(v, c)| (*v, *c))
    }

    /// `(ln(value), ln(frequency))` points for nonzero values — the log-log
    /// degree-distribution plot of Fig 2a.
    pub fn log_log_points(&self) -> Vec<(f64, f64)> {
        self.counts
            .iter()
            .filter(|(v, _)| **v > 0)
            .map(|(v, c)| ((*v as f64).ln(), (*c as f64 / self.total as f64).ln()))
            .collect()
    }

    /// Least-squares slope of the log-log plot, i.e. the power-law exponent
    /// estimate. Returns `None` with fewer than two distinct nonzero values.
    pub fn power_law_slope(&self) -> Option<f64> {
        let pts = self.log_log_points();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|(x, _)| x).sum();
        let sy: f64 = pts.iter().map(|(_, y)| y).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        Some((n * sxy - sx * sy) / denom)
    }

    /// The smallest recorded value at or above quantile `q` (in
    /// `0.0..=1.0`): the value `v` such that at least `ceil(q · total)`
    /// samples are `<= v`. `quantile(0.5)` is the median, `quantile(0.99)`
    /// the p99 — the serving layer's latency summaries read these off the
    /// request histogram. Returns `None` on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a finite value in `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(
            q.is_finite() && (0.0..=1.0).contains(&q),
            "quantile must be in 0.0..=1.0, got {q}"
        );
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (value, count) in self.counts.iter() {
            seen += count;
            if seen >= rank {
                return Some(*value);
            }
        }
        self.max_value()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_total() {
        let h: Histogram = [5u64, 5, 7].into_iter().collect();
        assert_eq!(h.count_of(5), 2);
        assert_eq!(h.count_of(7), 1);
        assert_eq!(h.count_of(6), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max_value(), Some(7));
    }

    #[test]
    fn mean_matches_manual() {
        let h: Histogram = [1u64, 2, 3, 4].into_iter().collect();
        assert!((h.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cumulative_fraction_edges() {
        let h: Histogram = [1u64, 2, 3].into_iter().collect();
        assert_eq!(h.cumulative_fraction_below(0), 0.0);
        assert_eq!(h.cumulative_fraction_below(1), 0.0);
        assert!((h.cumulative_fraction_below(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.power_law_slope(), None);
    }

    #[test]
    fn power_law_slope_recovers_exponent() {
        // Build an exact power law: count(v) = round(1e6 * v^-2).
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            let c = (1e6 * (v as f64).powi(-2)).round() as u64;
            h.record_n(v, c);
        }
        let slope = h.power_law_slope().unwrap();
        assert!(
            (slope + 2.0).abs() < 0.05,
            "expected slope near -2, got {slope}"
        );
    }

    #[test]
    fn quantile_picks_expected_values() {
        let h: Histogram = (1..=100u64).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn quantile_with_repeated_values() {
        let mut h = Histogram::new();
        h.record_n(10, 99);
        h.record_n(1000, 1);
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.99), Some(10));
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn merge_sums_counts() {
        let a: Histogram = [1u64, 2].into_iter().collect();
        let mut b: Histogram = [2u64, 3].into_iter().collect();
        b.merge(&a);
        assert_eq!(b.count_of(2), 2);
        assert_eq!(b.total(), 4);
    }

    #[test]
    fn log_log_skips_zero_values() {
        let h: Histogram = [0u64, 0, 1, 2].into_iter().collect();
        let pts = h.log_log_points();
        assert_eq!(pts.len(), 2); // values 1 and 2 only
    }
}
