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
//! ([`L2sEstimator::expected_max`]), with a numeric integrator kept as a
//! cross-check ([`L2sEstimator::expected_max_numeric`]).
//!
//! [`L2sMode::VerifyPlusCommit`] offers the variant where the second
//! phase is the commit at the output shard (`E[max] + E[C_j + V_j]`),
//! matching the two-phase OmniLedger protocol narrative; DESIGN.md §4
//! discusses why both are provided.

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
/// literal formula as an ablation; DESIGN.md §4 and the `ablation_l2s`
/// bench quantify the difference.
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

/// Reusable memo for [`L2sEstimator::scores_into`].
///
/// The expensive part of an L2S evaluation is the `3^m` exponential-sum
/// expansion of the input-shard set, which Algorithm 1 as written redoes
/// once per **candidate** shard. The memo caches that shared expansion,
/// keyed by `(mode, input-shard set, telemetry epoch)`:
///
/// * within one placement decision the k-way candidate scan always reuses
///   it (the k candidate scores differ only in the output-shard factor);
/// * across consecutive transactions it is reused whenever the caller
///   supplies a telemetry `epoch` and neither the epoch nor the input set
///   changed — common in chain-heavy streams, where a wallet's
///   transactions keep the same input shard while telemetry is only
///   republished at a fixed interval.
///
/// The caller owns epoch discipline: a changed `epoch` **must** accompany
/// any change in the telemetry values, and `None` disables cross-call
/// reuse entirely (safe default). Scores produced through the memo are
/// bit-identical to per-candidate [`L2sEstimator::score`] calls — the
/// floating-point operation sequence is replicated exactly, which the
/// golden placement test relies on.
#[derive(Debug, Clone, Default)]
pub struct L2sMemo {
    valid: bool,
    mode: Option<L2sMode>,
    epoch: Option<u64>,
    key: Vec<u32>,
    /// `VerifyPlusCommit`: the cached `E[max]` over the input set.
    /// `PaperSelfConvolution`: the cached score for candidates *inside*
    /// the input set (`2·E[max(inputs)]`).
    emax: f64,
    /// `PaperSelfConvolution`: the expansion terms of `Π_{i∈inputs} F_i`
    /// as `(coefficient, rate)` pairs (empty = fall back to per-candidate
    /// scoring, used for oversized input sets). `VerifyPlusCommit` uses
    /// the same buffer as scratch while computing `emax`.
    terms: Vec<(f64, f64)>,
    /// Double-buffer partner of `terms` during the product expansion, so
    /// a memo miss allocates nothing once both buffers are warm.
    scratch: Vec<(f64, f64)>,
    hits: u64,
    misses: u64,
}

/// Expands `Π_{i ∈ shards} F_i(t)` into `(coefficient, rate)` terms using
/// caller-owned buffers — the allocation-free twin of the expansion
/// inside [`L2sEstimator::expected_max`], replicating its term order and
/// floating-point operation sequence exactly (the golden placement test
/// depends on bit-identical scores).
fn expand_product_into(
    telemetry: &[ShardTelemetry],
    shards: &[u32],
    terms: &mut Vec<(f64, f64)>,
    scratch: &mut Vec<(f64, f64)>,
) {
    terms.clear();
    terms.push((1.0, 0.0));
    for &s in shards {
        let (lc, lv) = telemetry[s as usize].rates();
        let a = -lv / (lv - lc);
        let b = lc / (lv - lc);
        scratch.clear();
        scratch.reserve(terms.len() * 3);
        for &(coef, rate) in terms.iter() {
            scratch.push((coef, rate));
            scratch.push((coef * a, rate + lc));
            scratch.push((coef * b, rate + lv));
        }
        std::mem::swap(terms, scratch);
    }
}

/// `E[max] = −Σ_{rate>0} coef/rate` over an expansion produced by
/// [`expand_product_into`] (the integral of `1 − Π F_i`).
fn integrate_terms(terms: &[(f64, f64)]) -> f64 {
    let mut e = 0.0;
    for &(coef, rate) in terms {
        if rate > 0.0 {
            e -= coef / rate;
        }
    }
    e.max(0.0)
}

impl L2sMemo {
    /// A fresh, invalid memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of [`L2sEstimator::scores_into`] calls that reused the
    /// cached expansion.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of calls that had to recompute it.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl L2sEstimator {
    /// Creates an estimator using the paper's self-convolution mode.
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
    /// `out`, sharing the input-set expansion across candidates through
    /// `memo` (see [`L2sMemo`] for the reuse contract).
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
        for &s in input_shards {
            assert!((s as usize) < k, "input shard {s} out of range");
        }
        let reusable = memo.valid
            && memo.mode == Some(self.mode)
            && epoch.is_some()
            && memo.epoch == epoch
            && memo.key == input_shards;
        if reusable {
            memo.hits += 1;
        } else {
            memo.misses += 1;
            memo.mode = Some(self.mode);
            memo.epoch = epoch;
            memo.key.clear();
            memo.key.extend_from_slice(input_shards);
            memo.terms.clear();
            match self.mode {
                L2sMode::VerifyPlusCommit => {
                    // Same math as `expected_max`, into the memo's reused
                    // buffers: a miss allocates nothing once warm.
                    memo.emax = if input_shards.is_empty() {
                        0.0
                    } else if input_shards.len() > 10 {
                        Self::expected_max_numeric(telemetry, input_shards)
                    } else {
                        expand_product_into(
                            telemetry,
                            input_shards,
                            &mut memo.terms,
                            &mut memo.scratch,
                        );
                        integrate_terms(&memo.terms)
                    };
                    // The expansion is only scratch in this mode; the
                    // per-candidate loop below keys off `emax` alone.
                    memo.terms.clear();
                }
                L2sMode::PaperSelfConvolution => {
                    // Candidates extend the involved set to `inputs ∪ {j}`
                    // (≤ inputs.len() + 1 shards); the closed form applies
                    // up to 10, matching `expected_max`'s cutoff. Bigger
                    // sets fall back to per-candidate scoring below.
                    if input_shards.len() < 10 {
                        expand_product_into(
                            telemetry,
                            input_shards,
                            &mut memo.terms,
                            &mut memo.scratch,
                        );
                        memo.emax = 2.0 * integrate_terms(&memo.terms);
                    }
                }
            }
            memo.valid = true;
        }
        out.clear();
        match self.mode {
            L2sMode::VerifyPlusCommit => {
                for t in telemetry {
                    out.push(memo.emax + t.expected_comm + t.expected_verify);
                }
            }
            L2sMode::PaperSelfConvolution => {
                if input_shards.len() >= 10 {
                    for j in 0..k as u32 {
                        out.push(self.score(telemetry, input_shards, j));
                    }
                    return;
                }
                for j in 0..k as u32 {
                    if input_shards.contains(&j) {
                        out.push(memo.emax);
                        continue;
                    }
                    // Extend the shared expansion with candidate j's
                    // factor, replicating `expected_max`'s term order and
                    // float-op sequence exactly.
                    let (lc, lv) = telemetry[j as usize].rates();
                    let a = -lv / (lv - lc);
                    let b = lc / (lv - lc);
                    let mut e = 0.0;
                    for &(coef, rate) in &memo.terms {
                        if rate > 0.0 {
                            e -= coef / rate;
                        }
                        let (c2, r2) = (coef * a, rate + lc);
                        if r2 > 0.0 {
                            e -= c2 / r2;
                        }
                        let (c3, r3) = (coef * b, rate + lv);
                        if r3 > 0.0 {
                            e -= c3 / r3;
                        }
                    }
                    out.push(2.0 * e.max(0.0));
                }
            }
        }
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
        if shards.is_empty() {
            return 0.0;
        }
        if shards.len() > 10 {
            return Self::expected_max_numeric(telemetry, shards);
        }
        // One shared expansion serves this allocating entry point and the
        // memoized batch path, so the bit-identity contract between them
        // cannot drift.
        let mut terms = Vec::new();
        let mut scratch = Vec::new();
        expand_product_into(telemetry, shards, &mut terms, &mut scratch);
        integrate_terms(&terms)
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
        if shards.is_empty() {
            return 0.0;
        }
        let rates: Vec<(f64, f64)> = shards
            .iter()
            .map(|&s| telemetry[s as usize].rates())
            .collect();
        let survival = |t: f64| -> f64 {
            let mut prod = 1.0;
            for &(lc, lv) in &rates {
                let f = 1.0 - lv / (lv - lc) * (-lc * t).exp() + lc / (lv - lc) * (-lv * t).exp();
                prod *= f.clamp(0.0, 1.0);
            }
            1.0 - prod
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
        // ≥ 10 input shards exercises the numeric-integration fallback
        // and the memo's per-candidate delegation.
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
