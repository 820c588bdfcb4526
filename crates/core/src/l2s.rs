//! The Latency-to-Shard (L2S) score.
//!
//! Section IV.C of the paper models, for each shard `i`:
//!
//! * client↔shard communication time as exponential with rate `λc_i`
//!   (mean `1/λc_i`, sampled by the client);
//! * shard verification time as exponential with rate `λv_i` (estimated
//!   from recent consensus times and the shard's queue length).
//!
//! The proof-of-acceptance time of shard `i` is the sum `C_i + V_i` — a
//! hypoexponential whose CDF is
//! `F_i(t) = 1 − λv/(λv−λc)·e^{−λc t} + λc/(λv−λc)·e^{−λv t}` — and the
//! verification phase completes when **all** involved shards respond, so
//! its distribution is the max: `F(t) = Π_i F_i(t)`.
//!
//! Algorithm 1 line 6 defines the L2S score as the mean of the
//! self-convolution of that max-density:
//! `E(j) = ∫ t ∫ f_v(x) f_v(t−x) dx dt = 2·E[max_i (C_i + V_i)]`
//! (linearity of expectation) — computed here **exactly** by expanding
//! `1 − Π F_i(t)` into a sum of exponentials and integrating term-wise
//! ([`L2sEstimator::expected_max`]) up to 10 shards, and beyond that by
//! Simpson's rule ([`L2sEstimator::expected_max_numeric`]).
//!
//! [`L2sMode::VerifyPlusCommit`], the default, is the variant where the
//! second phase is the commit at the output shard (`E[max] + E[C_j +
//! V_j]`), matching the two-phase OmniLedger protocol narrative;
//! [`L2sMode`] says why both are provided.

/// Per-shard telemetry observed by the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTelemetry {
    /// Expected one-way communication time to the shard, seconds
    /// (`1/λc`).
    pub expected_comm: f64,
    /// Expected verification time at the shard, seconds (`1/λv`),
    /// typically `recent consensus time × (queue / block capacity + 1)`.
    pub expected_verify: f64,
}

impl ShardTelemetry {
    /// Creates telemetry from expected communication and verification
    /// times (seconds).
    ///
    /// # Panics
    ///
    /// Panics if either value is not strictly positive and finite.
    pub fn new(expected_comm: f64, expected_verify: f64) -> Self {
        assert!(
            expected_comm.is_finite() && expected_comm > 0.0,
            "expected_comm must be positive, got {expected_comm}"
        );
        assert!(
            expected_verify.is_finite() && expected_verify > 0.0,
            "expected_verify must be positive, got {expected_verify}"
        );
        ShardTelemetry {
            expected_comm,
            expected_verify,
        }
    }

    fn rates(&self) -> (f64, f64) {
        let lc = 1.0 / self.expected_comm;
        let mut lv = 1.0 / self.expected_verify;
        // The closed form divides by (λv − λc); nudge coincident rates
        // apart (an Erlang corner case) instead of special-casing.
        if (lv - lc).abs() < 1e-9 * lc.max(lv) {
            lv *= 1.0 + 1e-6;
        }
        (lc, lv)
    }
}

/// Which two-phase latency model the estimator uses.
///
/// Algorithm 1 line 6 as printed convolves the verification density
/// `f_v^{(j)}` with *itself*, but the paper derives the commit density
/// `f_c^{(j)}` immediately before, and only the verify-then-commit
/// reading can ever favor moving a transaction *away* from a backlogged
/// input shard (the max over involved shards is monotone in the set, so
/// the self-convolution score of the hot shard is always the smallest).
/// We therefore default to [`L2sMode::VerifyPlusCommit`] and keep the
/// literal formula as an ablation; the `ablation_l2s` table of
/// `reproduce` quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum L2sMode {
    /// Algorithm 1 as printed: the mean of `f_v * f_v` over the involved
    /// set `inputs ∪ {j}`, i.e. `2·E[max_i (C_i+V_i)]`.
    PaperSelfConvolution,
    /// Verification phase over the input shards plus the commit at the
    /// output shard: `E[max_{i ∈ inputs} (C_i+V_i)] + E[C_j+V_j]`.
    #[default]
    VerifyPlusCommit,
}

/// Computes L2S scores from shard telemetry.
///
/// # Example
///
/// ```
/// use optchain_core::{L2sEstimator, ShardTelemetry};
///
/// let est = L2sEstimator::new();
/// let fast = ShardTelemetry::new(0.1, 0.5);
/// let slow = ShardTelemetry::new(0.1, 5.0);
/// let telemetry = [fast, slow];
/// // Placing in the idle shard is cheaper than in the backlogged one.
/// let cheap = est.score(&telemetry, &[], 0);
/// let dear = est.score(&telemetry, &[], 1);
/// assert!(cheap < dear);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct L2sEstimator {
    mode: L2sMode,
}

/// Reusable memo for [`L2sEstimator::scores_into`]: `E[max]` by
/// **telemetry-class sequence**.
///
/// A *class* is the set of shards whose [`ShardTelemetry`] is
/// bit-identical on the board seen at `(mode, epoch)`, named by its first
/// shard. `E[max]` reads only those values, in input order, so input
/// lists with one class sequence share a bit-identical `E[max]`; boards
/// have few classes (a static board is one).
///
/// * **Key**: the class sequence of the inputs, `++ [class(j)]` for a
///   [`L2sMode::PaperSelfConvolution`] candidate `j` outside them.
///   Lookups compare the full key.
/// * **Bound**: 512 entries and 8,192 key classes, emptied when full;
///   sized on first use, so no later hit or miss allocates.
/// * **Hit**: a [`L2sEstimator::scores_into`] call that computed no `E[max]`.
///
/// Classes and table are rebuilt when `(mode, epoch)` changes; a changed
/// `epoch` **must** accompany any change in telemetry values (the
/// caller's discipline), and `None` rebuilds at every call. Scores are
/// bit-identical to per-candidate [`L2sEstimator::score`] calls.
#[derive(Debug, Clone, Default)]
pub struct L2sMemo {
    /// `(mode, epoch)` the classes and the table belong to.
    built: Option<(L2sMode, u64)>,
    /// Per shard, its class: the first shard with bit-identical telemetry.
    class: Vec<u32>,
    /// The class sequence looked up; classes are shards, so a shard list.
    key: Vec<u32>,
    /// Open-addressed `(gen, start, len, E[max])`, keyed by
    /// `keys[start..][..len]`; a slot of an older `gen` is free.
    slots: Vec<(u64, u32, u32, f64)>,
    keys: Vec<u32>,
    gen: u64,
    live: usize,
    scratch: Scratch,
    hits: u64,
    misses: u64,
}

const SLOTS: usize = 1024;
const KEY_CAP: usize = 8192;

/// One step of the memo's key hash, so `inputs ++ [j]` extends `inputs`.
fn mix(hash: u64, class: u32) -> u64 {
    (hash.rotate_left(5) ^ u64::from(class)).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Buffers of one `E[max]` evaluation: a warm memo's misses allocate nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    terms: Vec<(f64, f64)>,
    next: Vec<(f64, f64)>,
    /// Numeric: each distinct `(λc, λv, a, b)` of `F = 1 − a·e^{−λc t} + b·e^{−λv t}`,
    /// its value at the current sample, and every shard's index into both.
    factors: Vec<(f64, f64, f64, f64)>,
    at: Vec<f64>,
    class_of: Vec<u32>,
}

impl Scratch {
    /// The one body of [`L2sEstimator::expected_max`]: 0 for no shards,
    /// the `3^m`-term expansion up to 10 shards, numeric beyond. The
    /// term order and floating-point operation sequence are the contract
    /// every score is bit-identical under.
    fn expected_max(&mut self, telemetry: &[ShardTelemetry], shards: &[u32]) -> f64 {
        if shards.is_empty() {
            return 0.0;
        } else if shards.len() > 10 {
            return self.numeric(telemetry, shards);
        }
        let Scratch { terms, next, .. } = self;
        terms.clear();
        terms.push((1.0, 0.0));
        for &s in shards {
            let (lc, lv) = telemetry[s as usize].rates();
            let a = -lv / (lv - lc);
            let b = lc / (lv - lc);
            next.clear();
            next.reserve(terms.len() * 3);
            for &(coef, rate) in terms.iter() {
                next.push((coef, rate));
                next.push((coef * a, rate + lc));
                next.push((coef * b, rate + lv));
            }
            std::mem::swap(terms, next);
        }
        // E[max] = ∫ (1 − Π F_i) dt = −Σ_{rate>0} coef/rate.
        let mut e = 0.0;
        for &(coef, rate) in terms.iter() {
            if rate > 0.0 {
                e -= coef / rate;
            }
        }
        e.max(0.0)
    }

    /// The one body of [`L2sEstimator::expected_max_numeric`]: each
    /// distinct `(λc, λv)` is evaluated once per sample, and the factors
    /// are multiplied per shard in input order.
    fn numeric(&mut self, telemetry: &[ShardTelemetry], shards: &[u32]) -> f64 {
        if shards.is_empty() {
            return 0.0;
        }
        self.factors.clear();
        self.class_of.clear();
        for &s in shards {
            let (lc, lv) = telemetry[s as usize].rates();
            let bits = |c: f64, v: f64| (c.to_bits(), v.to_bits());
            let same = |&(c, v, ..): &(f64, f64, f64, f64)| bits(c, v) == bits(lc, lv);
            let c = self.factors.iter().position(same).unwrap_or_else(|| {
                self.factors.push((lc, lv, lv / (lv - lc), lc / (lv - lc)));
                self.factors.len() - 1
            });
            self.class_of.push(c as u32);
        }
        let mut survival = |t: f64| -> f64 {
            self.at.clear();
            self.at.extend(self.factors.iter().map(|&(lc, lv, a, b)| {
                (1.0 - a * (-lc * t).exp() + b * (-lv * t).exp()).clamp(0.0, 1.0)
            }));
            1.0 - self
                .class_of
                .iter()
                .fold(1.0, |prod, &c| prod * self.at[c as usize])
        };
        // Integrate to where the survival is negligible: a generous bound
        // of slowest-mean × (log m + 40).
        let worst_mean: f64 = shards
            .iter()
            .map(|&s| {
                let t = telemetry[s as usize];
                t.expected_comm + t.expected_verify
            })
            .fold(0.0, f64::max);
        let horizon = worst_mean * (40.0 + (shards.len() as f64).ln());
        let steps = 4000usize; // even
        let h = horizon / steps as f64;
        let mut acc = survival(0.0) + survival(horizon);
        for i in 1..steps {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            acc += w * survival(i as f64 * h);
        }
        acc * h / 3.0
    }
}

impl L2sMemo {
    /// A fresh, empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calls of [`L2sEstimator::scores_into`] that computed no `E[max]`.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of calls that computed at least one.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Rebuilds the classes and empties the table unless both belong to
    /// `(mode, epoch)` and a board of this width.
    fn begin(&mut self, mode: L2sMode, telemetry: &[ShardTelemetry], epoch: Option<u64>) {
        let at = epoch.map(|e| (mode, e));
        if at.is_some() && at == self.built && self.class.len() == telemetry.len() {
            return;
        }
        self.built = at;
        let bits = |t: &ShardTelemetry| (t.expected_comm.to_bits(), t.expected_verify.to_bits());
        self.class.clear();
        for (s, t) in telemetry.iter().enumerate() {
            let rep = (0..s).find(|&r| self.class[r] == r as u32 && bits(&telemetry[r]) == bits(t));
            self.class.push(rep.unwrap_or(s) as u32);
        }
        self.clear();
    }

    fn clear(&mut self) {
        self.slots.resize(SLOTS, (0, 0, 0, 0.0));
        self.keys.clear();
        self.keys.reserve(KEY_CAP);
        self.gen += 1;
        self.live = 0;
    }

    /// `E[max]` over the shard list `self.key`, whose [`mix`] is `hash`:
    /// read from the table, or computed and entered.
    fn emax(&mut self, telemetry: &[ShardTelemetry], hash: u64) -> f64 {
        let key = &self.key[..];
        let mut i = hash as usize % SLOTS;
        while self.slots[i].0 == self.gen {
            let (_, start, len, value) = self.slots[i];
            let stored = &self.keys[start as usize..];
            if len as usize == key.len() && stored.iter().zip(key).all(|(a, b)| a == b) {
                return value;
            }
            i = (i + 1) % SLOTS;
        }
        let value = self.scratch.expected_max(telemetry, key);
        if 2 * self.live >= SLOTS || self.keys.len() + key.len() > KEY_CAP {
            self.clear();
            i = hash as usize % SLOTS;
        }
        let (start, len) = (self.keys.len() as u32, self.key.len() as u32);
        self.slots[i] = (self.gen, start, len, value);
        self.keys.extend_from_slice(&self.key);
        self.live += 1;
        value
    }
}

impl L2sEstimator {
    /// Creates an estimator in the default [`L2sMode::VerifyPlusCommit`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an estimator with an explicit [`L2sMode`].
    pub fn with_mode(mode: L2sMode) -> Self {
        L2sEstimator { mode }
    }

    /// The configured mode.
    pub fn mode(&self) -> L2sMode {
        self.mode
    }

    /// The L2S score `E(j)` for placing a transaction with input shards
    /// `input_shards` into shard `output`.
    ///
    /// In [`L2sMode::VerifyPlusCommit`] (default) the verification phase
    /// covers the input shards and the commit phase the output shard; a
    /// transaction with no inputs (coinbase) pays only the commit. In
    /// [`L2sMode::PaperSelfConvolution`] the involved set is
    /// `inputs ∪ {output}` — the output shard must be included or the
    /// score would not depend on `j` at all.
    ///
    /// # Panics
    ///
    /// Panics if `output` or any input shard is out of `telemetry`'s
    /// range.
    pub fn score(&self, telemetry: &[ShardTelemetry], input_shards: &[u32], output: u32) -> f64 {
        assert!(
            (output as usize) < telemetry.len(),
            "output shard {output} out of range"
        );
        let mut inputs: Vec<u32> = Vec::with_capacity(input_shards.len());
        for &s in input_shards {
            assert!(
                (s as usize) < telemetry.len(),
                "input shard {s} out of range"
            );
            if !inputs.contains(&s) {
                inputs.push(s);
            }
        }
        match self.mode {
            L2sMode::PaperSelfConvolution => {
                let mut involved = inputs;
                if !involved.contains(&output) {
                    involved.push(output);
                }
                2.0 * Self::expected_max(telemetry, &involved)
            }
            L2sMode::VerifyPlusCommit => {
                let t = telemetry[output as usize];
                Self::expected_max(telemetry, &inputs) + t.expected_comm + t.expected_verify
            }
        }
    }

    /// Computes the L2S score of **every** candidate output shard into
    /// `out`, reading each `E[max]` from `memo` (see [`L2sMemo`] for the
    /// reuse contract).
    ///
    /// `input_shards` must already be duplicate-free, as produced by
    /// [`crate::placer::input_shards_into`]; the set is consumed in the
    /// given order so results are bit-identical to calling
    /// [`L2sEstimator::score`] once per candidate.
    ///
    /// # Panics
    ///
    /// Panics if any input shard is out of `telemetry`'s range.
    pub fn scores_into(
        &self,
        memo: &mut L2sMemo,
        telemetry: &[ShardTelemetry],
        epoch: Option<u64>,
        input_shards: &[u32],
        out: &mut Vec<f64>,
    ) {
        let k = telemetry.len();
        memo.begin(self.mode, telemetry, epoch);
        memo.key.clear();
        let mut hash = 0;
        for &s in input_shards {
            assert!((s as usize) < k, "input shard {s} out of range");
            let class = memo.class[s as usize];
            memo.key.push(class);
            hash = mix(hash, class);
        }
        // Every computed `E[max]` is entered, which moves `(gen, live)`.
        let entered = (memo.gen, memo.live);
        out.clear();
        match self.mode {
            L2sMode::VerifyPlusCommit => {
                let emax = memo.emax(telemetry, hash);
                for t in telemetry {
                    out.push(emax + t.expected_comm + t.expected_verify);
                }
            }
            L2sMode::PaperSelfConvolution => {
                // The involved set is `inputs ∪ {j}`: the inputs alone
                // for a candidate among them, `inputs ++ [j]` otherwise.
                for j in 0..k {
                    if input_shards.contains(&(j as u32)) {
                        out.push(2.0 * memo.emax(telemetry, hash));
                    } else {
                        memo.key.push(memo.class[j]);
                        out.push(2.0 * memo.emax(telemetry, mix(hash, memo.class[j])));
                        memo.key.pop();
                    }
                }
            }
        }
        let miss = (memo.gen, memo.live) != entered;
        memo.misses += u64::from(miss);
        memo.hits += u64::from(!miss);
    }

    /// Exact `E[max_{i ∈ shards} (C_i + V_i)]` by inclusion–exclusion:
    /// each factor `F_i(t) = 1 + a_i e^{−λc_i t} + b_i e^{−λv_i t}`
    /// expands the product into `3^m` exponential terms, and
    /// `E[max] = ∫ (1 − Π F_i) dt = −Σ coef/rate` over the non-constant
    /// terms. Falls back to numeric integration beyond 10 shards (where
    /// `3^m` would explode — cross-TXs never involve that many shards in
    /// practice).
    ///
    /// An empty shard set scores 0.
    ///
    /// # Panics
    ///
    /// Panics if a shard index is out of range.
    pub fn expected_max(telemetry: &[ShardTelemetry], shards: &[u32]) -> f64 {
        Scratch::default().expected_max(telemetry, shards)
    }

    /// Numeric `E[max]` by integrating the survival function
    /// `1 − Π F_i(t)` with Simpson's rule — the cross-check for
    /// [`L2sEstimator::expected_max`] and the fallback for very large
    /// involved sets.
    ///
    /// # Panics
    ///
    /// Panics if a shard index is out of range.
    pub fn expected_max_numeric(telemetry: &[ShardTelemetry], shards: &[u32]) -> f64 {
        Scratch::default().numeric(telemetry, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tele(comm: f64, verify: f64) -> ShardTelemetry {
        ShardTelemetry::new(comm, verify)
    }

    #[test]
    fn single_shard_mean_is_sum_of_means() {
        // E[C + V] = 1/λc + 1/λv exactly.
        let t = [tele(0.2, 0.8)];
        let e = L2sEstimator::expected_max(&t, &[0]);
        assert!((e - 1.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn closed_form_matches_numeric() {
        let t = [
            tele(0.1, 0.4),
            tele(0.25, 1.0),
            tele(0.05, 3.0),
            tele(0.5, 0.5),
        ];
        for shards in [vec![0u32], vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3]] {
            let exact = L2sEstimator::expected_max(&t, &shards);
            let numeric = L2sEstimator::expected_max_numeric(&t, &shards);
            assert!(
                (exact - numeric).abs() < 1e-3 * exact.max(1.0),
                "{shards:?}: exact {exact} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn max_grows_with_more_shards() {
        let t = [tele(0.1, 0.5), tele(0.1, 0.5), tele(0.1, 0.5)];
        let e1 = L2sEstimator::expected_max(&t, &[0]);
        let e2 = L2sEstimator::expected_max(&t, &[0, 1]);
        let e3 = L2sEstimator::expected_max(&t, &[0, 1, 2]);
        assert!(e1 < e2 && e2 < e3, "{e1} {e2} {e3}");
    }

    #[test]
    fn slow_shard_dominates_max() {
        let t = [tele(0.1, 0.1), tele(0.1, 10.0)];
        let e = L2sEstimator::expected_max(&t, &[0, 1]);
        // Must be at least the slow shard's own mean.
        assert!(e >= 10.1 - 1e-6, "{e}");
        assert!(e < 10.1 + 1.0, "{e}");
    }

    #[test]
    fn coincident_rates_do_not_blow_up() {
        let t = [tele(0.5, 0.5)];
        let e = L2sEstimator::expected_max(&t, &[0]);
        assert!((e - 1.0).abs() < 1e-3, "{e}");
        assert!(e.is_finite());
    }

    #[test]
    fn paper_mode_doubles_single_phase() {
        let t = [tele(0.2, 0.8)];
        let est = L2sEstimator::with_mode(L2sMode::PaperSelfConvolution);
        let e = est.score(&t, &[], 0);
        assert!((e - 2.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn default_mode_is_verify_plus_commit() {
        assert_eq!(L2sEstimator::new().mode(), L2sMode::VerifyPlusCommit);
        let t = [tele(0.2, 0.8)];
        // Coinbase: verification phase empty, only the commit is paid.
        let e = L2sEstimator::new().score(&t, &[], 0);
        assert!((e - 1.0).abs() < 1e-9, "{e}");
    }

    #[test]
    fn verify_plus_commit_mode() {
        let t = [tele(0.2, 0.8), tele(0.1, 0.4)];
        let est = L2sEstimator::with_mode(L2sMode::VerifyPlusCommit);
        // Inputs in shard 0, output in shard 1:
        // E[T0] + E[T1] = 1.0 + 0.5 (verify over inputs only).
        let e = est.score(&t, &[0], 1);
        assert!((e - 1.5).abs() < 1e-9, "{e}");
    }

    #[test]
    fn verify_plus_commit_can_favor_diverting_from_hot_shard() {
        // The property that makes this the default: with the inputs stuck
        // in a backlogged shard, an idle output shard still scores lower.
        let t = [tele(0.1, 100.0), tele(0.1, 0.2)];
        let est = L2sEstimator::new();
        assert!(est.score(&t, &[0], 1) < est.score(&t, &[0], 0));
        // ...whereas the literal self-convolution cannot (max is monotone).
        let paper = L2sEstimator::with_mode(L2sMode::PaperSelfConvolution);
        assert!(paper.score(&t, &[0], 1) >= paper.score(&t, &[0], 0));
    }

    #[test]
    fn output_shard_always_involved() {
        // Even with no inputs, placing into a backlogged shard must cost
        // more than an idle one (this is the temporal-balance signal).
        let t = [tele(0.1, 0.2), tele(0.1, 8.0)];
        let est = L2sEstimator::new();
        assert!(est.score(&t, &[], 1) > est.score(&t, &[], 0));
    }

    #[test]
    fn duplicate_input_shards_are_deduplicated() {
        let t = [tele(0.1, 0.5), tele(0.1, 0.7)];
        let est = L2sEstimator::new();
        let once = est.score(&t, &[1], 0);
        let twice = est.score(&t, &[1, 1, 1], 0);
        assert!((once - twice).abs() < 1e-12);
    }

    #[test]
    fn numeric_fallback_for_many_shards() {
        let t: Vec<_> = (0..12).map(|i| tele(0.1, 0.2 + 0.05 * i as f64)).collect();
        let shards: Vec<u32> = (0..12).collect();
        let e = L2sEstimator::expected_max(&t, &shards);
        assert!(e.is_finite() && e > 0.0);
        // Must exceed the slowest single mean.
        assert!(e >= 0.1 + 0.2 + 0.05 * 11.0 - 1e-6);
    }

    fn batch_matches_per_candidate(mode: L2sMode, telemetry: &[ShardTelemetry], inputs: &[u32]) {
        let est = L2sEstimator::with_mode(mode);
        let mut memo = L2sMemo::new();
        let mut batch = Vec::new();
        est.scores_into(&mut memo, telemetry, Some(1), inputs, &mut batch);
        for j in 0..telemetry.len() as u32 {
            let single = est.score(telemetry, inputs, j);
            assert_eq!(
                batch[j as usize].to_bits(),
                single.to_bits(),
                "{mode:?} inputs {inputs:?} candidate {j}: batch {} vs single {single}",
                batch[j as usize]
            );
        }
    }

    #[test]
    fn batch_scores_bit_identical_to_per_candidate() {
        let telemetry: Vec<ShardTelemetry> = (0..8)
            .map(|i| tele(0.05 + 0.013 * i as f64, 0.3 + 0.21 * i as f64))
            .collect();
        for mode in [L2sMode::VerifyPlusCommit, L2sMode::PaperSelfConvolution] {
            for inputs in [
                &[][..],
                &[0][..],
                &[3, 1][..],
                &[5, 0, 7][..],
                &[1, 2, 3, 4][..],
            ] {
                batch_matches_per_candidate(mode, &telemetry, inputs);
            }
        }
    }

    #[test]
    fn batch_scores_match_for_oversized_input_sets() {
        // ≥ 10 input shards exercises the numeric integrator.
        let telemetry: Vec<ShardTelemetry> =
            (0..12).map(|i| tele(0.1, 0.2 + 0.05 * i as f64)).collect();
        let inputs: Vec<u32> = (0..11).collect();
        for mode in [L2sMode::VerifyPlusCommit, L2sMode::PaperSelfConvolution] {
            batch_matches_per_candidate(mode, &telemetry, &inputs);
        }
    }

    #[test]
    fn memo_reuses_within_epoch_and_invalidates_on_epoch_change() {
        let est = L2sEstimator::new();
        let telemetry = [tele(0.1, 0.5), tele(0.1, 0.7)];
        let mut memo = L2sMemo::new();
        let mut out = Vec::new();
        est.scores_into(&mut memo, &telemetry, Some(1), &[0], &mut out);
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        // Same epoch, same inputs: cached expansion reused.
        est.scores_into(&mut memo, &telemetry, Some(1), &[0], &mut out);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // Telemetry epoch changed: must recompute.
        let hotter = [tele(0.1, 5.0), tele(0.1, 0.7)];
        est.scores_into(&mut memo, &hotter, Some(2), &[0], &mut out);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert_eq!(out[0].to_bits(), est.score(&hotter, &[0], 0).to_bits());
        // Different input set under the same epoch: also a miss.
        est.scores_into(&mut memo, &hotter, Some(2), &[1], &mut out);
        assert_eq!((memo.hits(), memo.misses()), (1, 3));
    }

    #[test]
    fn memo_never_reused_without_epoch() {
        let est = L2sEstimator::new();
        let telemetry = [tele(0.1, 0.5), tele(0.1, 0.7)];
        let mut memo = L2sMemo::new();
        let mut out = Vec::new();
        est.scores_into(&mut memo, &telemetry, None, &[0], &mut out);
        est.scores_into(&mut memo, &telemetry, None, &[0], &mut out);
        assert_eq!(memo.hits(), 0, "epoch-less calls must not trust the cache");
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn memo_invalidates_on_mode_change() {
        let telemetry = [tele(0.1, 0.5), tele(0.1, 0.7)];
        let mut memo = L2sMemo::new();
        let mut out = Vec::new();
        let vpc = L2sEstimator::with_mode(L2sMode::VerifyPlusCommit);
        vpc.scores_into(&mut memo, &telemetry, Some(1), &[0], &mut out);
        let paper = L2sEstimator::with_mode(L2sMode::PaperSelfConvolution);
        paper.scores_into(&mut memo, &telemetry, Some(1), &[0], &mut out);
        assert_eq!(memo.misses(), 2, "a different mode cannot reuse the cache");
        assert_eq!(out[0].to_bits(), paper.score(&telemetry, &[0], 0).to_bits());
    }

    #[test]
    #[should_panic(expected = "expected_comm must be positive")]
    fn bad_telemetry_panics() {
        ShardTelemetry::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_shard_index_panics() {
        let t = [tele(0.1, 0.1)];
        L2sEstimator::new().score(&t, &[3], 0);
    }
}
