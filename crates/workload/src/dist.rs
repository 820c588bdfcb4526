//! Small discrete distributions used by the generator.
//!
//! Both samplers here, [`DiscreteDist`] (input and output counts) and
//! `ZipfTable` (wallet activity), draw through one inverse CDF: a
//! normalized cumulative table plus a guide table with one bucket per
//! entry (the cutpoint method). A draw `u` in `[0, 1)` starts at its
//! bucket's first candidate and walks to the **first entry whose
//! cumulative weight is `>= u`**. On a strictly increasing table that
//! is the entry a binary search finds; where zero weights tie several
//! entries, it is the first of the tied run. With as many buckets as
//! entries a draw examines a couple of entries on average, one or two
//! cache lines, instead of taking `log2(n)` dependent branches.

use rand::Rng;

/// A normalized cumulative table with a guide table over it.
#[derive(Debug, Clone, PartialEq)]
struct Cdf {
    /// Cumulative weights divided by their total: nondecreasing, the
    /// last entry exactly 1.0.
    cumulative: Vec<f64>,
    /// `guide[j]` is the first entry whose cumulative weight is
    /// `>= j / guide.len()`.
    guide: Vec<u32>,
}

impl Cdf {
    /// Normalizes the running sums `cumulative` (nondecreasing,
    /// nonempty) by their total.
    ///
    /// # Panics
    ///
    /// Panics unless the total is finite and positive.
    fn new(mut cumulative: Vec<f64>) -> Self {
        let total = *cumulative.last().expect("nonempty");
        assert!(
            total.is_finite() && total > 0.0,
            "cumulative weights must sum to a finite positive total, got {total}"
        );
        assert!(cumulative.len() <= u32::MAX as usize, "too many entries");
        for c in &mut cumulative {
            *c /= total;
        }
        *cumulative.last_mut().expect("nonempty") = 1.0;
        let buckets = cumulative.len();
        let mut guide = Vec::with_capacity(buckets);
        let mut i = 0;
        for j in 0..buckets {
            // The last entry is 1.0, above every bucket's lower edge.
            let edge = j as f64 / buckets as f64;
            while cumulative[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Cdf { cumulative, guide }
    }

    /// The first entry whose cumulative weight is `>= u`, clamped to
    /// the last entry. The bucket only picks where the walk starts, so
    /// rounding in `u * buckets` cannot change the answer.
    fn index(&self, u: f64) -> usize {
        let cumulative = &self.cumulative;
        let bucket = ((u * self.guide.len() as f64) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket] as usize;
        while i > 0 && cumulative[i - 1] >= u {
            i -= 1;
        }
        let last = cumulative.len() - 1;
        while i < last && cumulative[i] < u {
            i += 1;
        }
        i
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index(rng.gen())
    }
}

/// A discrete distribution over the values `1..=weights.len()`.
///
/// Used for input and output counts. Sampling is inverse-CDF over the
/// normalized weights, started from a guide table: a draw `u` in
/// `[0, 1)` returns the smallest value whose cumulative weight is
/// `>= u`, so of values tied by zero weights the first is returned.
///
/// # Example
///
/// ```
/// use optchain_workload::DiscreteDist;
/// use rand::SeedableRng;
///
/// let dist = DiscreteDist::new(vec![3.0, 1.0]); // P(1)=0.75, P(2)=0.25
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let v = dist.sample(&mut rng);
/// assert!(v == 1 || v == 2);
/// assert!((dist.mean() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    cdf: Cdf,
}

impl DiscreteDist {
    /// Creates a distribution from positive weights for values `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "weights must be nonempty");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            assert!(
                w.is_finite() && *w >= 0.0,
                "weight {w} must be finite and >= 0"
            );
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        DiscreteDist {
            cdf: Cdf::new(cumulative),
        }
    }

    /// A distribution always returning `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0`.
    pub fn constant(value: usize) -> Self {
        assert!(value > 0, "constant value must be >= 1");
        let mut weights = vec![0.0; value];
        weights[value - 1] = 1.0;
        DiscreteDist::new(weights)
    }

    /// A distribution with fixed mass at 1 and 2 plus a power-law tail:
    /// `P(k) ∝ scale / k^alpha` for `k in 3..=max`, all normalized.
    ///
    /// This is the shape of Bitcoin's input/output count distributions —
    /// dominated by 1–2 with a heavy tail of sweeps and fan-outs.
    ///
    /// # Panics
    ///
    /// Panics if `max < 3` or any weight is invalid (see [`DiscreteDist::new`]).
    pub fn with_power_tail(p1: f64, p2: f64, alpha: f64, scale: f64, max: usize) -> Self {
        assert!(max >= 3, "power tail needs max >= 3");
        let mut weights = Vec::with_capacity(max);
        weights.push(p1);
        weights.push(p2);
        for k in 3..=max {
            weights.push(scale / (k as f64).powf(alpha));
        }
        DiscreteDist::new(weights)
    }

    /// Input-count distribution calibrated to produce TaN out-degrees like
    /// the paper's Bitcoin measurements: *realized* mean ≈ 2.3 distinct
    /// parents, ≈87% below 3, ≈97% below 10 (Fig 2a/2b).
    ///
    /// The sampled mean (≈3.1) is intentionally above the target because
    /// wallets with thin UTXO pools truncate large draws; the generator's
    /// realized distribution after truncation matches the paper's shape.
    pub fn bitcoin_inputs() -> Self {
        DiscreteDist::with_power_tail(0.40, 0.25, 1.8, 0.35, 200)
    }

    /// Output-count distribution calibrated so eventual in-degrees match
    /// the paper's "93.1% of nodes have in-degree lower than 3": most
    /// transactions are a payment plus change, with a fan-out tail
    /// (mean ≈ 2.4, slightly above the input mean so the UTXO set grows
    /// like Bitcoin's).
    pub fn bitcoin_outputs() -> Self {
        DiscreteDist::with_power_tail(0.34, 0.50, 1.9, 0.20, 500)
    }

    /// Largest value the distribution can return.
    pub fn max_value(&self) -> usize {
        self.cdf.cumulative.len()
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (i, c) in self.cdf.cumulative.iter().enumerate() {
            mean += (i + 1) as f64 * (c - prev);
            prev = *c;
        }
        mean
    }

    /// Samples a value in `1..=max_value()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.cdf.sample(rng) + 1
    }
}

/// Samples an index into `0..len` with a bias toward the end of the range
/// (most recent elements), with exponential decay `bias` per position.
/// `bias <= 0` degenerates to uniform.
pub(crate) fn recency_index<R: Rng + ?Sized>(rng: &mut R, len: usize, bias: f64) -> usize {
    debug_assert!(len > 0);
    if len == 1 {
        return 0;
    }
    if bias <= 0.0 {
        return rng.gen_range(0..len);
    }
    // Exponential depth from the most recent end.
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let depth = (-u.ln() / bias) as usize;
    if depth >= len {
        rng.gen_range(0..len)
    } else {
        len - 1 - depth
    }
}

/// Zipf-like sampling of wallet activity: weight of rank `i` is
/// `1 / (i + 1)^s`. The table is strictly increasing (a draw lands where
/// a binary search would) unless a steep exponent makes a tail weight
/// vanish in the running sum; of such tied ranks only the first is
/// ever drawn.
#[derive(Debug, Clone)]
pub(crate) struct ZipfTable {
    cdf: Cdf,
}

impl ZipfTable {
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf table needs at least one element");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        ZipfTable {
            cdf: Cdf::new(cumulative),
        }
    }

    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.cdf.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_respects_support() {
        let dist = DiscreteDist::new(vec![1.0, 2.0, 3.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..1000 {
            let v = dist.sample(&mut rng);
            assert!((1..=3).contains(&v));
        }
    }

    #[test]
    fn constant_always_returns_value() {
        let dist = DiscreteDist::constant(4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut rng), 4);
        }
        assert_eq!(dist.mean(), 4.0);
    }

    #[test]
    fn empirical_frequencies_match_weights() {
        let dist = DiscreteDist::new(vec![0.7, 0.3]);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 50_000;
        let ones = (0..n).filter(|_| dist.sample(&mut rng) == 1).count();
        let f = ones as f64 / n as f64;
        assert!((f - 0.7).abs() < 0.02, "empirical frequency {f}");
    }

    #[test]
    fn bitcoin_presets_have_plausible_means() {
        // Sampled means sit above the paper's 2.3 realized average degree
        // because thin wallet pools truncate large draws; see the preset
        // docs. The 1–2 mass must stay dominant.
        let inputs = DiscreteDist::bitcoin_inputs();
        let outputs = DiscreteDist::bitcoin_outputs();
        assert!((2.0..6.0).contains(&inputs.mean()), "{}", inputs.mean());
        assert!((2.0..4.0).contains(&outputs.mean()), "{}", outputs.mean());
    }

    #[test]
    #[should_panic(expected = "weights must be nonempty")]
    fn empty_weights_panic() {
        DiscreteDist::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn zero_weights_panic() {
        DiscreteDist::new(vec![0.0, 0.0]);
    }

    #[test]
    fn recency_prefers_recent() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 10_000;
        let len = 100;
        let recent = (0..n)
            .filter(|_| recency_index(&mut rng, len, 0.3) >= len - 10)
            .count();
        // With bias 0.3 the last 10 slots should receive the vast majority.
        assert!(
            recent as f64 / n as f64 > 0.8,
            "recent fraction {recent}/{n}"
        );
    }

    #[test]
    fn recency_uniform_when_unbiased() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 10_000;
        let len = 100;
        let recent = (0..n)
            .filter(|_| recency_index(&mut rng, len, 0.0) >= len - 10)
            .count();
        let f = recent as f64 / n as f64;
        assert!((f - 0.1).abs() < 0.03, "uniform fraction {f}");
    }

    /// The guided walk against a bisection at every point where an
    /// answer can change: `u = 0`, the largest draw `1 - 2^-53`, each
    /// cumulative value and each bucket edge with their two float
    /// neighbours. `partition_point` bisects to the first entry `>= u`:
    /// on a strictly increasing table that is the `Ok(i)` / `Err(i)` the
    /// samplers' earlier binary search returned, and on a table with
    /// zero-weight ties the first tied index.
    #[test]
    fn guided_walk_equals_bisection() {
        let check = |what: &str, cdf: &Cdf| {
            let c = &cdf.cumulative;
            let mut points = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            let edges = (0..c.len()).map(|j| j as f64 / c.len() as f64);
            for x in c.iter().copied().chain(edges) {
                points.extend([x, x.next_up(), x.next_down()]);
            }
            for u in points.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let want = c.partition_point(|&x| x < u).min(c.len() - 1);
                assert_eq!(cdf.index(u), want, "{what}: u = {u:e}");
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for case in 0..300 {
            let len: usize = if case < 20 { 1 } else { rng.gen_range(1..80) };
            let mut weights: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..3) {
                    0 => 0.0,
                    1 => rng.gen_range(1e-9..1e-3),
                    _ => rng.gen_range(0.0..10.0),
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                weights[rng.gen_range(0..len)] = 1.0;
            }
            check(&format!("{weights:?}"), &DiscreteDist::new(weights).cdf);
        }
        // Entries one ulp below a bucket edge: `u * n` can round up
        // into the next bucket, whose guide starts past the answer.
        for n in 2..64 {
            let below = (1..n).map(|i| (i as f64 / n as f64).next_down());
            let cdf = Cdf::new(below.chain([1.0]).collect());
            check(&format!("edge-hugging({n})"), &cdf);
        }
        check("constant(5)", &DiscreteDist::constant(5).cdf);
        check("bitcoin_inputs", &DiscreteDist::bitcoin_inputs().cdf);
        check("bitcoin_outputs", &DiscreteDist::bitcoin_outputs().cdf);
        for n in [1, 2, 20_000] {
            for s in [0.0, 0.9, 2.0] {
                let cdf = ZipfTable::new(n, s).cdf;
                assert!(
                    cdf.cumulative.windows(2).all(|w| w[0] < w[1]),
                    "zipf({n}, {s}) is strictly increasing"
                );
                check(&format!("zipf({n}, {s})"), &cdf);
            }
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let table = ZipfTable::new(1000, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 20_000;
        let top10 = (0..n).filter(|_| table.sample(&mut rng) < 10).count();
        // Zipf(1.0) over 1000 ranks gives the top-10 ranks ~39% of mass.
        let f = top10 as f64 / n as f64;
        assert!(f > 0.3, "zipf top-10 fraction {f}");
    }
}
