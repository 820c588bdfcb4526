//! Golden equivalence for the `Router` surface: the owned, session-based
//! API must produce **bit-identical** assignments and scores to the
//! borrow-style `place_into` path and to `replay`, across random
//! workloads, shard counts, damping factors, L2S modes, T2S windows, and
//! every built-in strategy. Sessions and restarts must never change a
//! decision — only memo accounting.

mod common;
use common::{build_stream, in_ram, restart, stream_strategy};

use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};

use optchain_core::replay::{replay, replay_router, QueueProxy};
use optchain_core::{
    DecisionBuf, GreedyPlacer, L2sEstimator, L2sMode, OptChainPlacer, OraclePlacer,
    PlacementContext, Placer, RandomPlacer, Router, Strategy, T2sEngine, T2sPlacer,
    TemporalFitness,
};
use optchain_tan::TanGraph;

/// A deterministic "Metis-like" oracle covering the whole stream (the
/// real partitioner lives in `optchain-partition`, which this crate must
/// not depend on; any fixed assignment exercises the same code path).
fn synthetic_oracle(n: usize, k: u32) -> Vec<u32> {
    (0..n).map(|i| (i as u32).wrapping_mul(7) % k).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `replay_router` is bit-identical to `replay` over the equivalent
    /// concrete placer, for every built-in strategy.
    #[test]
    fn router_replay_matches_placer_replay(
        recipe in stream_strategy(250),
        k in 1u32..17,
    ) {
        let txs = build_stream(&recipe);
        let n = txs.len() as u64;
        let oracle = synthetic_oracle(txs.len(), k);
        for strategy in [
            Strategy::OptChain,
            Strategy::T2s,
            Strategy::OmniLedger,
            Strategy::Greedy,
            Strategy::Metis,
        ] {
            let mut builder = Router::builder()
                .shards(k)
                .strategy(strategy)
                .expected_total(n);
            if strategy == Strategy::Metis {
                builder = builder.oracle(oracle.clone());
            }
            let via_router = replay_router(&txs, &mut builder.build());
            let via_placer = match strategy {
                Strategy::OptChain => replay(&txs, &mut OptChainPlacer::new(k)),
                Strategy::T2s => replay(
                    &txs,
                    &mut T2sPlacer::with_engine(T2sEngine::new(k), 0.1, Some(n)),
                ),
                Strategy::OmniLedger => replay(&txs, &mut RandomPlacer::new(k)),
                Strategy::Greedy => {
                    replay(&txs, &mut GreedyPlacer::with_epsilon(k, 0.1, Some(n)))
                }
                Strategy::Metis => replay(&txs, &mut OraclePlacer::new(k, oracle.clone())),
            };
            prop_assert_eq!(via_router.strategy, via_placer.strategy);
            prop_assert_eq!(&via_router.assignments, &via_placer.assignments);
            prop_assert_eq!(via_router.cross, via_placer.cross);
            prop_assert_eq!(via_router.shard_sizes, via_placer.shard_sizes);
        }
    }

    /// `Router::submit` under a live telemetry feed is bit-identical —
    /// per-shard scores included — to `place_into` over an external
    /// graph, across α and L2S modes.
    #[test]
    fn router_submit_matches_place_into_bitwise(
        recipe in stream_strategy(250),
        k in 1u32..9,
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
        let mut router = Router::builder()
            .shards(k)
            .alpha(alpha)
            .l2s_mode(mode)
            .build();
        let mut placer = OptChainPlacer::from_parts(
            T2sEngine::with_alpha(k, alpha),
            L2sEstimator::with_mode(mode),
            TemporalFitness::paper(),
        );
        let mut tan = TanGraph::new();
        let mut buf = DecisionBuf::new();
        let mut proxy = QueueProxy::new(k);
        for tx in &txs {
            let node = tan.insert_tx(tx);
            let (telemetry, epoch) = {
                let (t, e) = proxy.telemetry();
                (t.to_vec(), e)
            };
            let ctx = PlacementContext::with_epoch(&tan, &telemetry, epoch);
            let expected = placer.place_into(&ctx, node, &mut buf);

            router.feed_telemetry(&telemetry);
            prop_assert_eq!(router.submit_tx(tx).unwrap(), expected);
            let got = router.last_decision();
            for j in 0..k as usize {
                prop_assert_eq!(got.t2s()[j].to_bits(), buf.t2s()[j].to_bits());
                prop_assert_eq!(got.l2s()[j].to_bits(), buf.l2s()[j].to_bits());
                prop_assert_eq!(got.fitness()[j].to_bits(), buf.fitness()[j].to_bits());
            }
            prop_assert_eq!(got.input_shards(), buf.input_shards());
            proxy.on_place(expected.0);
        }
        prop_assert_eq!(router.assignments(), placer.assignments());
    }

    /// The batch path is the submit path: one `submit_batch` call equals
    /// the same stream submitted one transaction at a time.
    #[test]
    fn submit_batch_matches_submit(
        recipe in stream_strategy(250),
        k in 1u32..9,
    ) {
        let txs = build_stream(&recipe);
        let mut one_by_one = Router::builder().shards(k).build();
        let singles: Vec<u32> = txs.iter().map(|tx| one_by_one.submit_tx(tx).unwrap().0).collect();
        let mut batched = Router::builder().shards(k).build();
        let mut out = Vec::new();
        batched.submit_batch(&txs, &mut out);
        let batch: Vec<u32> = out.iter().map(|s| s.0).collect();
        prop_assert_eq!(singles, batch);
        prop_assert_eq!(one_by_one.assignments(), batched.assignments());
    }

    /// Sessions only change memo accounting, never decisions: a stream
    /// split across interleaved client sessions (each with its own view
    /// of the same telemetry) places exactly like session-less submits.
    #[test]
    fn sessions_do_not_change_decisions(
        recipe in stream_strategy(250),
        k in 1u32..9,
        clients in 1usize..5,
    ) {
        let txs = build_stream(&recipe);
        let mut plain = Router::builder().shards(k).build();
        let mut with_sessions = Router::builder().shards(k).build();
        let mut sessions: Vec<_> = (0..clients).map(|_| with_sessions.session()).collect();
        let view = with_sessions.telemetry().to_vec();
        for (i, tx) in txs.iter().enumerate() {
            let a = plain.submit_tx(tx).unwrap();
            let session = &mut sessions[i % clients];
            if session.view_version() != Some(0) {
                session.set_view(&view, 0);
            }
            let b = with_sessions.submit_tx_in(session, tx).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(plain.assignments(), with_sessions.assignments());
    }

    /// A restart is invisible to the suffix: placing through a snapshot
    /// + `Router::recover` continues exactly like the uninterrupted
    /// router, for every strategy.
    #[test]
    fn snapshot_warm_start_is_transparent(
        recipe in stream_strategy(250),
        k in 1u32..9,
        cut_pct in 0u32..100,
    ) {
        let txs = build_stream(&recipe);
        let n = txs.len() as u64;
        let cut = txs.len() * cut_pct as usize / 100;
        let oracle = synthetic_oracle(txs.len(), k);
        for strategy in [
            Strategy::OptChain,
            Strategy::T2s,
            Strategy::OmniLedger,
            Strategy::Greedy,
            Strategy::Metis,
        ] {
            let builder = || {
                let mut b = Router::builder()
                    .shards(k)
                    .strategy(strategy)
                    .expected_total(n);
                if strategy == Strategy::Metis {
                    b = b.oracle(oracle.clone());
                }
                b
            };
            let mut continuous = builder().build();
            for tx in &txs {
                continuous.submit_tx(tx).unwrap();
            }
            let (mut first_half, storage) = in_ram(builder());
            for tx in &txs[..cut] {
                first_half.submit_tx(tx).unwrap();
            }
            let mut resumed = restart(first_half, &storage);
            for tx in &txs[cut..] {
                resumed.submit_tx(tx).unwrap();
            }
            prop_assert_eq!(
                continuous.assignments(),
                resumed.assignments(),
                "strategy {:?} cut {}",
                strategy,
                cut
            );
        }
    }
}

/// Hand-built non-proptest case pinning `Router::warm_start_history`
/// for externally produced prefixes (the Table II path).
#[test]
fn external_snapshot_warm_start_matches_placer_warm_start() {
    let recipe: Vec<Vec<u8>> = (0..120)
        .map(|i| {
            if i % 3 == 0 {
                vec![]
            } else {
                vec![1, (i % 7 + 1) as u8]
            }
        })
        .collect();
    let txs = build_stream(&recipe);
    let (prefix, delta) = txs.split_at(80);
    let k = 4u32;
    let prefix_tan = TanGraph::from_transactions(prefix.iter());
    let warm = synthetic_oracle(prefix.len(), k);

    // Old path: concrete placer warm_start + replay_into.
    let mut tan = TanGraph::from_transactions(prefix.iter());
    let mut placer = OptChainPlacer::new(k);
    placer.warm_start(&tan, &warm);
    let old = optchain_core::replay::replay_into(delta, &mut placer, &mut tan);

    // New path: the router replays the external history itself.
    let mut router = Router::builder().shards(k).build();
    router.warm_start_history(&prefix_tan, &warm).unwrap();
    let new = replay_router(delta, &mut router);

    assert_eq!(old.assignments, new.assignments);
    assert_eq!(old.cross, new.cross);
    assert_eq!(old.shard_sizes, new.shard_sizes);
}
