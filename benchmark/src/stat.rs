//! Small numeric helpers: order statistics, process memory, digests.

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`); the
/// rank is `ceil(q·n)`, as `optchain_metrics::Histogram::quantile` uses.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` ascending (the samples are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    sort(&mut values);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Resident set size of this process in KiB (Linux `VmRSS`).
pub fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmRSS value")
}

/// FNV-1a over the little-endian bytes of `words` — the assignment
/// digest two runs must agree on.
pub fn fnv1a(words: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
