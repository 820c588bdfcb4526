//! The paper's wallet deployment (Section I: *"users do not need to
//! download the complete transaction history"*) is a [`Router`] under
//! `WindowTxs(budget)` that learns placements made elsewhere through
//! [`Router::adopt_remote`]. These tests hold that deployment to what a
//! wallet needs from it.

mod tests {
    use optchain_tan::TanGraph;
    use optchain_utxo::TxId;

    use crate::{
        OptChainPlacer, PlacementContext, Placer, RetentionPolicy, Router, ShardId, ShardTelemetry,
        DEFAULT_TELEMETRY,
    };

    /// A wallet for `k` shards remembering at most `budget` transactions.
    fn wallet(k: u32, budget: usize) -> Router {
        Router::builder()
            .shards(k)
            .retention(RetentionPolicy::WindowTxs(budget))
            .build()
    }

    #[test]
    fn follows_remembered_parents() {
        let mut w = wallet(4, 100);
        w.adopt_remote(TxId(0), &[], 3);
        assert_eq!(w.submit(TxId(1), &[TxId(0)]).unwrap(), ShardId(3));
        assert_eq!(w.shard_of(TxId(1)), Some(ShardId(3)));
    }

    #[test]
    fn unknown_parents_degrade_to_balance() {
        let mut w = wallet(4, 100);
        // Four txs with unknown parents spread across shards (ties break
        // to the smallest shard).
        let seen: std::collections::HashSet<ShardId> = (0..4u64)
            .map(|i| w.submit(TxId(i), &[TxId(999 + i)]).unwrap())
            .collect();
        assert_eq!(seen.len(), 4, "ties must spread: {seen:?}");
    }

    #[test]
    fn budget_evicts_oldest() {
        let mut w = wallet(2, 3);
        for i in 0..5u64 {
            w.submit(TxId(i), &[]).unwrap();
        }
        assert_eq!(w.tan().live_len(), 3);
        assert_eq!(w.assignments().live_len(), 3);
        assert_eq!(w.shard_of(TxId(0)), None, "oldest evicted");
        assert!(w.shard_of(TxId(4)).is_some());
    }

    #[test]
    fn chain_stays_in_one_shard() {
        let mut w = wallet(8, 1_000);
        let first = w.submit(TxId(0), &[]).unwrap();
        for i in 1..50u64 {
            let s = w.submit(TxId(i), &[TxId(i - 1)]).unwrap();
            assert_eq!(s, first, "chain split at {i}");
        }
    }

    #[test]
    fn diverts_from_backlogged_shard() {
        let mut w = wallet(2, 100);
        w.adopt_remote(TxId(0), &[], 0);
        w.feed_telemetry(&[ShardTelemetry::new(0.1, 500.0), DEFAULT_TELEMETRY]);
        let s = w.submit(TxId(1), &[TxId(0)]).unwrap();
        assert_eq!(s, ShardId(1), "wallet must divert from the backlog");
    }

    #[test]
    fn matches_full_engine_on_shared_history() {
        // While the budget covers the history, the wallet and a full
        // OptChain placer over the whole graph agree.
        let tele = [DEFAULT_TELEMETRY; 4];
        let mut tan = TanGraph::new();
        let mut full = OptChainPlacer::new(4);
        let mut w = wallet(4, 1_000);
        let parents_of = |i: u64| -> Vec<TxId> {
            match i {
                0 | 1 => vec![],
                2 => vec![TxId(0)],
                3 => vec![TxId(1), TxId(2)],
                _ => vec![TxId(i - 1)],
            }
        };
        for i in 0..12u64 {
            let parents = parents_of(i);
            let node = tan.insert(TxId(i), &parents);
            let a = full.place(&PlacementContext::new(&tan, &tele), node);
            let b = w.submit(TxId(i), &parents).unwrap();
            assert_eq!(a, b, "diverged at tx {i}");
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_budget_panics() {
        wallet(2, 0);
    }

    #[test]
    fn windowed_wallet_drops_history_past_the_horizon() {
        let window = 8usize;
        let mut w = wallet(2, window);
        for i in 0..100u64 {
            let parents: Vec<TxId> = if i == 0 { vec![] } else { vec![TxId(i - 1)] };
            w.submit(TxId(i), &parents).unwrap();
            let live = w.tan().live_len();
            assert!(live <= window, "wallet holds {live} > window");
        }
        assert_eq!(w.shard_of(TxId(0)), None, "aged history is dropped");
        assert!(w.shard_of(TxId(99)).is_some());
    }
}
