//! Property-based tests for the placement core.

mod common;
use common::{build_stream, stream_strategy};

use proptest::prelude::*;

use optchain_core::replay::{replay, QueueProxy};
use optchain_core::{
    GreedyPlacer, L2sEstimator, L2sMode, OptChainPlacer, Placer, RandomPlacer, ShardTelemetry,
    T2sEngine, T2sPlacer,
};
use optchain_tan::TanGraph;
use optchain_utxo::TxId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// T2S scores stay finite and non-negative across arbitrary DAGs and
    /// placements; shard sizes count every placement.
    #[test]
    fn t2s_invariants(recipe in stream_strategy(200), k in 1u32..9) {
        let txs = build_stream(&recipe);
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(k);
        for (i, tx) in txs.iter().enumerate() {
            let node = tan.insert_tx(tx);
            engine.register(&tan, node);
            let pp = engine.pprime(node);
            prop_assert!(pp.iter().all(|p| p.is_finite() && *p >= 0.0));
            engine.place(node, (i as u32 * 7) % k);
        }
        prop_assert_eq!(
            engine.shard_sizes().iter().sum::<u64>(),
            txs.len() as u64
        );
    }

    /// Every strategy assigns every node exactly once, in range, and
    /// replay accounting is exact.
    #[test]
    fn replay_accounting(recipe in stream_strategy(200), k in 2u32..9) {
        let txs = build_stream(&recipe);
        for outcome in [
            replay(&txs, &mut OptChainPlacer::new(k)),
            replay(&txs, &mut T2sPlacer::new(k)),
            replay(&txs, &mut GreedyPlacer::new(k)),
            replay(&txs, &mut RandomPlacer::new(k)),
        ] {
            prop_assert_eq!(outcome.total, txs.len() as u64);
            prop_assert_eq!(outcome.shard_sizes.iter().sum::<u64>(), outcome.total);
            prop_assert!(outcome.cross + outcome.coinbase <= outcome.total);
            prop_assert!(outcome.assignments.iter().all(|s| *s < k));
        }
    }

    /// L2S scores are positive, finite, and monotone: slowing any
    /// involved shard never lowers the score.
    #[test]
    fn l2s_monotone(
        comm in 0.01f64..1.0,
        verify in 0.05f64..10.0,
        extra in 0.1f64..50.0,
        mode_paper in any::<bool>(),
    ) {
        let mode = if mode_paper {
            L2sMode::PaperSelfConvolution
        } else {
            L2sMode::VerifyPlusCommit
        };
        let est = L2sEstimator::with_mode(mode);
        let base = [ShardTelemetry::new(comm, verify), ShardTelemetry::new(comm, verify)];
        let slowed = [
            ShardTelemetry::new(comm, verify + extra),
            ShardTelemetry::new(comm, verify),
        ];
        let b = est.score(&base, &[0], 1);
        let s = est.score(&slowed, &[0], 1);
        prop_assert!(b.is_finite() && b > 0.0);
        prop_assert!(s >= b - 1e-9, "slowing shard 0 lowered E: {b} -> {s}");
    }

    /// The queue proxy never goes negative and total queue mass is
    /// bounded by arrivals.
    #[test]
    fn queue_proxy_bounds(places in proptest::collection::vec(0u32..6, 1..400)) {
        let mut proxy = QueueProxy::new(6);
        for &p in &places {
            proxy.on_place(p);
        }
        let total: f64 = proxy.queues().iter().sum();
        prop_assert!(proxy.queues().iter().all(|q| *q >= 0.0));
        prop_assert!(total <= places.len() as f64 + 1e-9);
        for t in proxy.telemetry().0 {
            prop_assert!(t.expected_verify >= 0.5 - 1e-9);
        }
    }

    /// Random (hash) placement is stable: the same txid always maps to
    /// the same shard, independent of history.
    #[test]
    fn random_placement_is_pure(ids in proptest::collection::vec(0u64..10_000, 1..50)) {
        let k = 8;
        let mut shards = std::collections::HashMap::new();
        // Two independent runs over different orderings.
        for run in 0..2 {
            let mut tan = TanGraph::new();
            let mut placer = RandomPlacer::new(k);
            let telemetry = vec![ShardTelemetry::new(0.1, 0.5); k as usize];
            let mut order = ids.clone();
            if run == 1 {
                order.reverse();
            }
            for id in order {
                // A repeated id is the graph's to refuse.
                let Ok(node) = tan.try_insert(TxId(id), &[]) else {
                    continue;
                };
                let shard =
                    placer.place(&optchain_core::PlacementContext::new(&tan, &telemetry), node);
                if let Some(prev) = shards.insert(id, shard.0) {
                    prop_assert_eq!(prev, shard.0, "hash placement must be pure in txid");
                }
            }
        }
    }
}
