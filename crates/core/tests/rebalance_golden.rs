//! Golden and property coverage for the dynamic re-sharding subsystem:
//! a router with the `Rebalancer` disabled (or configured so it can
//! never trigger) must place **bit-identically** to one without it, a
//! rebalancing run must be deterministic end to end, and an epoch
//! commit must never orphan an assignment — every live node resolves
//! to exactly one in-range shard before, during, and after move
//! batches, under every retention policy.

mod common;
use common::{aggressive, build_stream, in_ram, restart, stream_strategy};

use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{Move, RebalancePolicy, RetentionPolicy, Router, ShardId};
use optchain_utxo::{Transaction, TxId};

fn assignments_of(router: &mut Router, txs: &[Transaction]) -> Vec<u32> {
    let mut out: Vec<ShardId> = Vec::new();
    router.submit_batch(txs, &mut out);
    out.into_iter().map(|s| s.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A rebalancer whose trigger can never fire changes nothing: the
    /// assignments are bit-identical to a router built without one,
    /// and no epoch is ever opened.
    #[test]
    fn never_triggering_rebalancer_is_bit_identical(
        recipe in stream_strategy(250),
        k in 1u32..9,
    ) {
        let txs = build_stream(&recipe);
        let mut plain = Router::builder().shards(k).build();
        let mut gated = Router::builder()
            .shards(k)
            .rebalancer(
                RebalancePolicy::default()
                    .with_epoch_interval(16)
                    .with_utilization_trigger(f64::INFINITY),
            )
            .build();
        prop_assert_eq!(
            assignments_of(&mut plain, &txs),
            assignments_of(&mut gated, &txs)
        );
        let stats = gated.rebalance_stats();
        prop_assert_eq!(stats.epochs_opened, 0);
        prop_assert_eq!(stats.nodes_moved, 0);
        prop_assert_eq!(gated.cross_placed(), plain.cross_placed());
    }

    /// Until the first epoch boundary the rebalancer is pure
    /// observation: a stream shorter than one epoch interval places
    /// exactly like a router without a rebalancer.
    #[test]
    fn sub_epoch_stream_is_bit_identical(
        recipe in stream_strategy(250),
        k in 1u32..9,
    ) {
        let txs = build_stream(&recipe);
        let mut plain = Router::builder().shards(k).build();
        let mut rebalanced = Router::builder()
            .shards(k)
            .rebalancer(aggressive(txs.len() as u64 + 1))
            .build();
        prop_assert_eq!(
            assignments_of(&mut plain, &txs),
            assignments_of(&mut rebalanced, &txs)
        );
        prop_assert_eq!(rebalanced.rebalance_stats().epochs_committed, 0);
    }

    /// The ISSUE's safety property: across staged epochs, commits, and
    /// retention-driven eviction, every live node always resolves to
    /// exactly one in-range shard — a move either re-homes a node or is
    /// dropped, it never leaves a dangling assignment. Checked under
    /// all three retention policies.
    #[test]
    fn epoch_commit_never_orphans_an_assignment(
        recipe in stream_strategy(250),
        k in 2u32..7,
        interval in 4u64..40,
        retention_pick in 0usize..3,
    ) {
        let txs = build_stream(&recipe);
        let retention = match retention_pick {
            0 => RetentionPolicy::Unbounded,
            1 => RetentionPolicy::WindowTxs(64),
            _ => RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 },
        };
        let mut router = Router::builder()
            .shards(k)
            .retention(retention)
            .rebalancer(aggressive(interval))
            .build();

        let mut out: Vec<ShardId> = Vec::new();
        let mut moves: Vec<Move> = Vec::new();
        let mut total_moves = 0u64;
        for chunk in txs.chunks(interval as usize) {
            router.submit_batch(chunk, &mut out);
            // Mid-protocol check: every live node resolves, whether an
            // epoch is currently staged or just committed.
            for node in router.tan().live_nodes() {
                let txid = router.tan().txid(node);
                let shard = router.shard_of(txid);
                prop_assert!(
                    matches!(shard, Some(s) if s.0 < k),
                    "live node {txid:?} resolves to {shard:?} (k = {k})"
                );
            }
            moves.clear();
            router.drain_rebalance_moves(&mut moves);
            total_moves += moves.len() as u64;
            for mv in &moves {
                prop_assert!(mv.from != mv.to, "degenerate move {mv:?}");
                prop_assert!(mv.from.0 < k && mv.to.0 < k, "out of range {mv:?}");
                prop_assert!(mv.bytes > 0, "zero-byte migration {mv:?}");
            }
        }
        let stats = router.rebalance_stats();
        prop_assert_eq!(stats.nodes_moved, total_moves);
        prop_assert!(stats.epochs_committed <= stats.epochs_opened);
        prop_assert!(
            stats.nodes_moved == 0 || stats.bytes_migrated > 0,
            "moves without migrated bytes"
        );
    }

    /// Same stream + same policy = same placements, same moves, same
    /// counters — the epoch protocol is deterministic even while it is
    /// actively migrating hubs.
    #[test]
    fn rebalancing_run_is_deterministic(
        recipe in stream_strategy(250),
        k in 2u32..7,
        interval in 4u64..40,
    ) {
        let txs = build_stream(&recipe);
        let run = |txs: &[Transaction]| {
            let mut router = Router::builder()
                .shards(k)
                .rebalancer(aggressive(interval))
                .build();
            let mut out: Vec<ShardId> = Vec::new();
            router.submit_batch(txs, &mut out);
            let mut moves = Vec::new();
            router.drain_rebalance_moves(&mut moves);
            (
                out.into_iter().map(|s| s.0).collect::<Vec<u32>>(),
                moves,
                router.rebalance_stats(),
                router.cross_placed(),
            )
        };
        prop_assert_eq!(run(&txs), run(&txs));
    }
}

/// A snapshot is the state, not a recipe for it: after a committed
/// epoch has re-homed hubs, the T2S rows of their earlier spenders
/// still hold the mass inherited from the *pre-move* shard, which no
/// replay of `(graph, final assignments)` reproduces. A durable router
/// restarted through `Router::recover` must carry those rows verbatim,
/// and the rebalancer's staged batch and counters with them: across
/// four more epoch boundaries the recovered router decides, scores,
/// migrates and counts bit for bit like one that never stopped.
#[test]
fn snapshot_after_a_committed_epoch_restores_scores_bit_for_bit() {
    let builder = || Router::builder().shards(4).rebalancer(aggressive(16));
    // Hubs 0..4 draw every later spend, so their shards run hot and
    // the aggressive policy keeps re-homing them.
    let inputs_of = |i: u64| match i {
        0..4 => vec![],
        _ => vec![TxId(i % 4), TxId(i - 1)],
    };
    let mut live = builder().build();
    let (mut durable, storage) = in_ram(builder());
    for i in 0..200u64 {
        live.submit(TxId(i), &inputs_of(i)).unwrap();
        durable.submit(TxId(i), &inputs_of(i)).unwrap();
    }
    let stats = live.rebalance_stats();
    assert!(stats.epochs_committed >= 1 && stats.nodes_moved >= 1);
    // The drain buffer is process-local: a restart starts it empty.
    live.drain_rebalance_moves(&mut Vec::new());

    let mut restored = restart(durable, &storage);
    assert_eq!(restored.rebalance_stats(), stats);
    assert_eq!(restored.cross_placed(), live.cross_placed());
    for i in 200..264u64 {
        let a = live.submit(TxId(i), &inputs_of(i)).unwrap();
        let b = restored.submit(TxId(i), &inputs_of(i)).unwrap();
        assert_eq!(a, b, "tx {i}");
        let (a, b) = (live.last_decision(), restored.last_decision());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(a.t2s()), bits(b.t2s()), "tx {i} T2S");
        assert_eq!(bits(a.l2s()), bits(b.l2s()), "tx {i} L2S");
        assert_eq!(bits(a.fitness()), bits(b.fitness()), "tx {i} fitness");
    }
    let after = live.rebalance_stats();
    assert!(after.epochs_committed >= stats.epochs_committed + 3);
    assert_eq!(restored.rebalance_stats(), after);
    assert_eq!(restored.cross_placed(), live.cross_placed());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    live.drain_rebalance_moves(&mut a);
    restored.drain_rebalance_moves(&mut b);
    assert!(!a.is_empty(), "the continuation commits moves");
    assert_eq!(a, b);
}
