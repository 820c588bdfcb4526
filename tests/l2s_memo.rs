//! The L2S memo against its per-candidate oracle where the small golden
//! streams do not reach: k = 16, transactions with 0–16 input shards (so
//! the `3^m` expansion and the numeric integrator both run through the
//! memo), and boards of 1, 2, 4 and 16 distinct values that change every
//! 50 transactions, with a telemetry epoch and without, in both L2S
//! modes. Every score must be `to_bits()`-equal to
//! `L2sEstimator::score` (through the seed's allocating placer,
//! `optchain_bench::naive`), and every shard the same.

use optchain::core::{
    DecisionBuf, L2sEstimator, L2sMemo, L2sMode, OptChainPlacer, PlacementContext, ShardTelemetry,
    T2sEngine, TemporalFitness,
};
use optchain::tan::hash::splitmix64;
use optchain::tan::TanGraph;
use optchain::utxo::{OutPoint, Transaction, TxId, TxOutput, WalletId};
use optchain_bench::naive::NaiveOptChainPlacer;

const K: usize = 16;
const TXS: u64 = 360;
/// Transactions between two boards.
const BOARD_EVERY: u64 = 50;
const OUTPUTS: u32 = 8;

/// A board of `distinct` telemetry values spread over the `K` shards.
fn board(distinct: usize, seed: u64) -> Vec<ShardTelemetry> {
    let values: Vec<ShardTelemetry> = (0..distinct as u64)
        .map(|v| {
            let r = splitmix64(seed ^ v);
            let comm = 0.02 + (r % 97) as f64 / 400.0;
            let verify = 0.2 + (r >> 16 & 0xfff) as f64 / 512.0;
            ShardTelemetry::new(comm, verify)
        })
        .collect();
    (0..K as u64)
        .map(|s| values[(splitmix64(seed ^ s << 8) % distinct as u64) as usize])
        .collect()
}

/// Places `TXS` transactions through the memo path and the naive path
/// side by side; returns how many had more than 10 input shards, and the
/// most any had.
fn run(mode: L2sMode, use_epoch: bool) -> (usize, usize) {
    let parts = || {
        (
            T2sEngine::with_alpha(K as u32, 0.5),
            L2sEstimator::with_mode(mode),
            TemporalFitness::paper(),
        )
    };
    let (e, l, f) = parts();
    let mut optimized = OptChainPlacer::from_parts(e, l, f);
    let (e, l, f) = parts();
    let mut naive = NaiveOptChainPlacer::from_parts(e, l, f);
    let (mut tan_fast, mut tan_slow) = (TanGraph::new(), TanGraph::new());
    let mut buf = DecisionBuf::new();
    // Per shard, the unspent outputs of the transactions placed there.
    let mut unspent: Vec<Vec<OutPoint>> = vec![Vec::new(); K];
    let mut telemetry = board(1, 0);
    let (mut wide, mut widest) = (0, 0);
    for i in 0..TXS {
        if i % BOARD_EVERY == 0 {
            let distinct = [1, 2, 4, 16][(i / BOARD_EVERY) as usize % 4];
            telemetry = board(distinct, splitmix64(i));
        }
        let r = splitmix64(!i);
        // A third are coinbases, a third reach for up to every shard.
        let want = match r % 3 {
            0 => 0,
            1 => r as usize % 5,
            _ => r as usize % (K + 1),
        };
        let mut builder = Transaction::builder(TxId(i));
        let mut shards: Vec<usize> = (0..K).filter(|&s| !unspent[s].is_empty()).collect();
        for n in 0..want.min(shards.len()) {
            let pick = n + (splitmix64(r ^ n as u64) as usize) % (shards.len() - n);
            shards.swap(n, pick);
            builder = builder.input(unspent[shards[n]].pop().expect("non-empty"));
        }
        let tx = builder
            .outputs((0..OUTPUTS).map(|_| TxOutput::new(1, WalletId(0))))
            .build();
        let node = tan_fast.insert_tx(&tx);
        tan_slow.insert_tx(&tx);
        let epoch = i / BOARD_EVERY;
        let ctx = if use_epoch {
            PlacementContext::with_epoch(&tan_fast, &telemetry, epoch)
        } else {
            PlacementContext::new(&tan_fast, &telemetry)
        };
        let shard = optimized.place_into(&ctx, node, &mut buf);
        let decision =
            naive.place_with_detail_naive(&PlacementContext::new(&tan_slow, &telemetry), node);
        let m = buf.input_shards().len();
        assert_eq!(shard, decision.shard, "tx {i} ({mode:?}, m = {m})");
        for j in 0..K {
            assert_eq!(
                buf.l2s()[j].to_bits(),
                decision.l2s[j].to_bits(),
                "tx {i} ({mode:?}, epoch {use_epoch}, m = {m}) candidate {j}"
            );
            assert_eq!(buf.fitness()[j].to_bits(), decision.fitness[j].to_bits());
        }
        wide += usize::from(m > 10);
        widest = widest.max(m);
        unspent[shard.index()].extend((0..OUTPUTS).map(|v| tx.id().outpoint(v)));
    }
    (wide, widest)
}

#[test]
fn memo_scores_match_per_candidate_scores_on_multi_class_boards() {
    for mode in [L2sMode::VerifyPlusCommit, L2sMode::PaperSelfConvolution] {
        for use_epoch in [true, false] {
            let (wide, widest) = run(mode, use_epoch);
            assert!(wide >= 20, "{mode:?}: only {wide} transactions had m > 10");
            assert_eq!(widest, K, "{mode:?}: no transaction touched every shard");
        }
    }
}

/// The seed's `expected_max_numeric`, verbatim apart from `rates()`,
/// which is private to the estimator.
fn seed_numeric(telemetry: &[ShardTelemetry], shards: &[u32]) -> f64 {
    let rates: Vec<(f64, f64)> = shards
        .iter()
        .map(|&s| {
            let t = telemetry[s as usize];
            let lc = 1.0 / t.expected_comm;
            let mut lv = 1.0 / t.expected_verify;
            if (lv - lc).abs() < 1e-9 * lc.max(lv) {
                lv *= 1.0 + 1e-6;
            }
            (lc, lv)
        })
        .collect();
    let survival = |t: f64| -> f64 {
        let mut prod = 1.0;
        for &(lc, lv) in &rates {
            let f = 1.0 - lv / (lv - lc) * (-lc * t).exp() + lc / (lv - lc) * (-lv * t).exp();
            prod *= f.clamp(0.0, 1.0);
        }
        1.0 - prod
    };
    let worst_mean: f64 = shards
        .iter()
        .map(|&s| {
            let t = telemetry[s as usize];
            t.expected_comm + t.expected_verify
        })
        .fold(0.0, f64::max);
    let horizon = worst_mean * (40.0 + (shards.len() as f64).ln());
    let steps = 4000usize;
    let h = horizon / steps as f64;
    let mut acc = survival(0.0) + survival(horizon);
    for i in 1..steps {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * survival(i as f64 * h);
    }
    acc * h / 3.0
}

#[test]
fn per_class_numeric_integral_is_bit_identical_to_the_per_shard_loop() {
    for distinct in [1, 2, 4, 16] {
        let telemetry = board(distinct, 0xB17C04 ^ distinct as u64);
        for m in 11..=K {
            let mut shards: Vec<u32> = (0..K as u32).collect();
            shards.rotate_left(m % 5);
            shards.truncate(m);
            let want = seed_numeric(&telemetry, &shards).to_bits();
            let numeric = L2sEstimator::expected_max_numeric(&telemetry, &shards);
            assert_eq!(numeric.to_bits(), want, "{distinct} values, m = {m}");
            let routed = L2sEstimator::expected_max(&telemetry, &shards);
            assert_eq!(routed.to_bits(), want, "{distinct} values, m = {m}");
        }
    }
}

#[test]
fn interleaved_input_sets_share_one_memo() {
    // Two clients alternate on one board: the table keeps both entries,
    // where a single-entry memo would miss every time.
    let telemetry = board(4, 7);
    let est = L2sEstimator::new();
    let mut memo = L2sMemo::new();
    let mut out = Vec::new();
    for round in 0..10 {
        for inputs in [&[0u32, 5][..], &[3, 9, 12][..]] {
            est.scores_into(&mut memo, &telemetry, Some(1), inputs, &mut out);
            let single = est.score(&telemetry, inputs, 2);
            assert_eq!(out[2].to_bits(), single.to_bits(), "round {round}");
        }
    }
    assert_eq!((memo.hits(), memo.misses()), (18, 2));
}
