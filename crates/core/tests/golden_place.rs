//! Golden equivalence: the zero-allocation `place_into` hot path must
//! produce **bit-identical** decisions to the seed's allocating
//! implementation (`optchain_bench::naive`), across random workloads,
//! shard counts, damping factors, L2S modes, and telemetry histories.
//!
//! This is the contract that makes the perf work safe: the optimized
//! path shares the L2S expansion across the k-way candidate scan and
//! memoizes it across transactions, and any floating-point reordering
//! would silently change tie-breaks and drift assignments.

mod common;
use common::{build_stream, stream_strategy};

use proptest::prelude::*;

use optchain_bench::naive::NaiveOptChainPlacer;
use optchain_core::replay::{replay, QueueProxy};
use optchain_core::{
    DecisionBuf, L2sEstimator, L2sMode, OptChainPlacer, PlacementContext, Placer, T2sEngine,
    TemporalFitness,
};
use optchain_tan::TanGraph;

fn placer_pair(k: u32, alpha: f64, mode: L2sMode) -> (OptChainPlacer, NaiveOptChainPlacer) {
    let optimized = OptChainPlacer::from_parts(
        T2sEngine::with_alpha(k, alpha),
        L2sEstimator::with_mode(mode),
        TemporalFitness::paper(),
    );
    let naive = NaiveOptChainPlacer::from_parts(
        T2sEngine::with_alpha(k, alpha),
        L2sEstimator::with_mode(mode),
        TemporalFitness::paper(),
    );
    (optimized, naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full replay (queue-proxy telemetry, epochs enabled, memo active):
    /// identical assignments transaction by transaction.
    #[test]
    fn replay_assignments_are_bit_identical(
        recipe in stream_strategy(250),
        k in 1u32..17,
        alpha_pct in 5u32..100,
        mode_paper in any::<bool>(),
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let mode = if mode_paper {
            L2sMode::PaperSelfConvolution
        } else {
            L2sMode::VerifyPlusCommit
        };
        let txs = build_stream(&recipe);
        let (mut optimized, mut naive) = placer_pair(k, alpha, mode);
        let fast = replay(&txs, &mut optimized);
        let slow = replay(&txs, &mut naive);
        prop_assert_eq!(&fast.assignments, &slow.assignments);
        prop_assert_eq!(fast.cross, slow.cross);
        prop_assert_eq!(fast.shard_sizes, slow.shard_sizes);
    }

    /// Per-decision scores (not just the argmax) are bit-identical under
    /// hand-varied telemetry with and without epochs.
    #[test]
    fn decision_scores_are_bit_identical(
        recipe in stream_strategy(250),
        k in 1u32..9,
        use_epoch in any::<bool>(),
    ) {
        let txs = build_stream(&recipe);
        let (mut optimized, mut naive) = placer_pair(k, 0.5, L2sMode::VerifyPlusCommit);
        let mut tan_fast = TanGraph::new();
        let mut tan_slow = TanGraph::new();
        let mut buf = DecisionBuf::new();
        let mut proxy = QueueProxy::new(k);
        for tx in &txs {
            let node = tan_fast.insert_tx(tx);
            tan_slow.insert_tx(tx);
            let (telemetry, epoch) = {
                let (t, e) = proxy.telemetry();
                (t.to_vec(), e)
            };
            let ctx_fast = if use_epoch {
                PlacementContext::with_epoch(&tan_fast, &telemetry, epoch)
            } else {
                PlacementContext::new(&tan_fast, &telemetry)
            };
            let shard = optimized.place_into(&ctx_fast, node, &mut buf);
            let ctx_slow = PlacementContext::new(&tan_slow, &telemetry);
            let decision = naive.place_with_detail_naive(&ctx_slow, node);
            prop_assert_eq!(shard, decision.shard);
            for j in 0..k as usize {
                prop_assert_eq!(buf.t2s()[j].to_bits(), decision.t2s[j].to_bits());
                prop_assert_eq!(buf.l2s()[j].to_bits(), decision.l2s[j].to_bits());
                prop_assert_eq!(buf.fitness()[j].to_bits(), decision.fitness[j].to_bits());
            }
            proxy.on_place(shard.0);
        }
    }
}

/// The `Placer`-trait path (`place`) and the detail path
/// (`place_into` with a caller-owned buffer) are the same decision
/// procedure.
#[test]
fn trait_and_detail_paths_agree() {
    let recipe: Vec<Vec<u8>> = vec![vec![], vec![1], vec![1, 2], vec![], vec![2], vec![1, 4]];
    let txs = build_stream(&recipe);
    let (mut via_place, _) = placer_pair(4, 0.5, L2sMode::VerifyPlusCommit);
    let (mut via_detail, _) = placer_pair(4, 0.5, L2sMode::VerifyPlusCommit);
    let telemetry = vec![optchain_core::ShardTelemetry::new(0.1, 0.5); 4];
    let mut tan_a = TanGraph::new();
    let mut tan_b = TanGraph::new();
    let mut buf = DecisionBuf::new();
    for tx in &txs {
        let a = tan_a.insert_tx(tx);
        let b = tan_b.insert_tx(tx);
        let sa = via_place.place(&PlacementContext::new(&tan_a, &telemetry), a);
        let sb = via_detail.place_into(&PlacementContext::new(&tan_b, &telemetry), b, &mut buf);
        assert_eq!((sa, sa), (sb, buf.shard()));
    }
    assert_eq!(via_place.assignments(), via_detail.assignments());
}
