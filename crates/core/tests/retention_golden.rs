//! Golden properties of the `RetentionPolicy` lifecycle:
//!
//! 1. `WindowTxs(n)` with `n >=` the stream length never evicts, so it
//!    is **bit-identical** to `Unbounded` — assignments *and* the full
//!    score breakdown (proptest).
//! 2. For a stream whose every parent sits within the window (the
//!    `build_stream` recipe bounds parent offsets), a windowed router
//!    is bit-identical to unbounded over the *whole* stream even while
//!    it evicts almost everything — edge resolution and score rows are
//!    the only coupling, and both are window-exact by construction.
//! 3. Compaction round trip: evict → `compact` → snapshot →
//!    `Router::recover` continues bit-identically to the uninterrupted
//!    windowed run (the windowed engine-state snapshot).
//! 4. A `RouterFleet` under a retention policy stays bit-identical to
//!    a `Router` under the same policy.
//! 5. `KeepUnspentAndHubs` keeps aged hubs and unspent outputs
//!    resolvable across the `HUB_WINDOW`, while spent non-hubs degrade
//!    to missing references.
//! 6. The `AssignmentStore` windows in lockstep with the graph
//!    (windowed reads ≡ unbounded on live ids, `None` past the
//!    horizon), and the windowed snapshot round-trips the store
//!    bit-exactly.
//! 7. A windowed `Router` — what a wallet-sized node is — holds
//!    O(window) live state over arbitrarily long streams.
//! 8. The paper's wallet (§I) is a `Router` under `WindowTxs(budget)`
//!    learning remote placements through `adopt_remote` (after `wallet`).

mod common;
use common::{in_ram, restart, seeded_stream};

use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{
    OptChainPlacer, PlacementContext, Placer, RetentionPolicy, Router, RouterFleet, ShardId,
    ShardTelemetry, Strategy, DEFAULT_TELEMETRY,
};
use optchain_tan::{NodeId, TanGraph};
use optchain_utxo::{Transaction, TxId};

/// Submits `txs` one by one, returning `(shard, t2s, l2s, fitness)` per
/// transaction — the full decision evidence.
fn drive_with_scores(router: &mut Router, txs: &[Transaction]) -> Vec<(u32, Vec<f64>, Vec<f64>)> {
    txs.iter()
        .map(|tx| {
            router.submit_tx(tx).unwrap();
            let buf = router.last_decision();
            (buf.shard().0, buf.t2s().to_vec(), buf.fitness().to_vec())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite golden: `WindowTxs(n)` with `n >= stream length` is
    /// bit-identical to `Unbounded` — assignments and scores.
    #[test]
    fn oversized_window_is_bit_identical_to_unbounded(
        len in 1usize..300,
        extra in 0usize..100,
        seed in 0u64..1_000,
    ) {
        let txs = seeded_stream(len, 30, seed);
        let mut unbounded = Router::builder().shards(6).build();
        let mut windowed = Router::builder()
            .shards(6)
            .retention(RetentionPolicy::WindowTxs(len + extra))
            .build();
        let a = drive_with_scores(&mut unbounded, &txs);
        let b = drive_with_scores(&mut windowed, &txs);
        prop_assert_eq!(a, b);
        prop_assert_eq!(windowed.tan().evicted_nodes(), 0);
    }

    /// In-window ancestry: when every parent offset is below the
    /// window, the windowed run matches unbounded bit for bit over the
    /// whole stream — even though it evicts almost everything.
    #[test]
    fn in_window_ancestry_is_bit_identical_while_evicting(
        seed in 0u64..1_000,
    ) {
        let window = 64usize;
        let txs = seeded_stream(1_500, 30, seed); // offsets < 31 <= window
        let mut unbounded = Router::builder().shards(4).build();
        let mut windowed = Router::builder()
            .shards(4)
            .retention(RetentionPolicy::WindowTxs(window))
            .build();
        let a = drive_with_scores(&mut unbounded, &txs);
        let b = drive_with_scores(&mut windowed, &txs);
        prop_assert_eq!(a, b);
        prop_assert!(
            windowed.tan().evicted_nodes() > 1_000,
            "eviction must actually run: {} evicted",
            windowed.tan().evicted_nodes()
        );
        prop_assert!(windowed.tan().live_len() <= 2 * window);
    }

    /// Compaction round trip: evict → compact → snapshot → recover
    /// continues bit-identically to the live windowed run.
    #[test]
    fn compaction_snapshot_roundtrip_is_bit_exact(
        split in 200usize..700,
        seed in 0u64..1_000,
    ) {
        let window = 64usize;
        let txs = seeded_stream(1_000, 40, seed);
        let policy = RetentionPolicy::WindowTxs(window);
        let mut live = Router::builder().shards(4).retention(policy).build();
        let (mut durable, storage) = in_ram(Router::builder().shards(4).retention(policy));
        drive_with_scores(&mut live, &txs[..split]);
        drive_with_scores(&mut durable, &txs[..split]);
        durable.compact();
        let mut restored = restart(durable, &storage);
        prop_assert!(restored.assignments().live_len() <= window, "windowed shape");
        prop_assert_eq!(restored.retention(), policy);
        let a = drive_with_scores(&mut live, &txs[split..]);
        let b = drive_with_scores(&mut restored, &txs[split..]);
        prop_assert_eq!(a, b);
        prop_assert_eq!(live.assignments(), restored.assignments());
        prop_assert_eq!(
            live.tan().missing_parent_refs(),
            restored.tan().missing_parent_refs()
        );
    }

    /// T2S-only strategy under the lifecycle: the windowed T2s router
    /// round-trips through a windowed snapshot too.
    #[test]
    fn t2s_strategy_compaction_roundtrip(seed in 0u64..500) {
        let policy = RetentionPolicy::WindowTxs(48);
        let txs = seeded_stream(600, 20, seed);
        let builder = || Router::builder().shards(3).strategy(Strategy::T2s).retention(policy);
        let mut live = builder().build();
        let (mut durable, storage) = in_ram(builder());
        for tx in &txs[..400] {
            live.submit_tx(tx).unwrap();
            durable.submit_tx(tx).unwrap();
        }
        durable.compact();
        let mut restored = restart(durable, &storage);
        for tx in &txs[400..] {
            let a = live.submit_tx(tx).unwrap();
            let b = restored.submit_tx(tx).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(live.assignments(), restored.assignments());
    }

    /// AssignmentStore golden: the windowed store reads identically to
    /// the unbounded history on every live id and `None` past the
    /// horizon, in lockstep with the graph's own eviction.
    #[test]
    fn assignment_store_windows_in_lockstep_with_the_graph(
        seed in 0u64..1_000,
    ) {
        let window = 64usize;
        let txs = seeded_stream(1_000, 30, seed);
        let mut unbounded = Router::builder().shards(4).build();
        let mut windowed = Router::builder()
            .shards(4)
            .retention(RetentionPolicy::WindowTxs(window))
            .build();
        for tx in &txs {
            unbounded.submit_tx(tx).unwrap();
            windowed.submit_tx(tx).unwrap();
        }
        let full = unbounded.assignments();
        let view = windowed.assignments();
        prop_assert_eq!(view.len(), txs.len());
        prop_assert!(view.live_len() <= window);
        prop_assert_eq!(view.horizon(), txs.len() - window);
        for id in 0..txs.len() {
            let node = NodeId(id as u32);
            if windowed.tan().is_live(node) {
                prop_assert_eq!(view.get(node), full.get(node), "live id {}", id);
            } else {
                prop_assert_eq!(view.get(node), None, "evicted id {}", id);
            }
        }
    }

    /// A fleet under a retention policy stays bit-identical to a Router
    /// under the same policy.
    #[test]
    fn one_worker_fleet_matches_router_under_retention(
        seed in 0u64..500,
        hub_policy in 0u8..2,
    ) {
        let policy = if hub_policy == 1 {
            RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 }
        } else {
            RetentionPolicy::WindowTxs(128)
        };
        let txs = seeded_stream(400, 30, seed);
        let mut router = Router::builder().shards(4).retention(policy).build();
        let router_shards: Vec<u32> =
            txs.iter().map(|tx| router.submit_tx(tx).unwrap().0).collect();

        let fleet = RouterFleet::builder().shards(4).retention(policy).build();
        let handle = fleet.handle(0);
        let fleet_shards: Vec<u32> = txs.iter().map(|tx| handle.submit_tx(tx).unwrap().0).collect();
        prop_assert_eq!(router_shards, fleet_shards);
    }
}

#[test]
fn keep_unspent_and_hubs_survives_the_hub_window() {
    let min_degree = 3u32;
    let (mut router, storage) = in_ram(
        Router::builder()
            .shards(4)
            .retention(RetentionPolicy::KeepUnspentAndHubs { min_degree }),
    );
    // TxId(0): a hub (spent `min_degree` times). TxId(1): spent once.
    // TxId(2): never spent.
    let hub_shard = router.submit(TxId(0), &[]).unwrap();
    router.submit(TxId(1), &[]).unwrap();
    router.submit(TxId(2), &[]).unwrap();
    for i in 0..u64::from(min_degree) {
        router.submit(TxId(10 + i), &[TxId(0)]).unwrap();
    }
    router.submit(TxId(20), &[TxId(1)]).unwrap();
    // Age everything far past the hub window.
    let filler = RetentionPolicy::HUB_WINDOW as u64 + 500;
    for i in 0..filler {
        router.submit(TxId(1_000_000 + i), &[]).unwrap();
    }
    let tan = router.tan();
    assert!(tan.evicted_nodes() > 0, "aging must evict");
    assert!(tan.is_live(NodeId(0)), "the hub survives");
    assert!(tan.is_live(NodeId(2)), "the unspent output survives");
    assert!(!tan.is_live(NodeId(1)), "a spent non-hub is evicted");
    // Spending the retained hub resolves (edge + T2S pull toward its
    // shard); spending the evicted node degrades to a missing ref.
    let missing_before = router.tan().missing_parent_refs();
    let s = router.submit(TxId(2_000_000), &[TxId(0)]).unwrap();
    assert_eq!(s, hub_shard, "the retained hub's T2S row pulls its spender");
    assert_eq!(router.tan().missing_parent_refs(), missing_before);
    router.submit(TxId(2_000_001), &[TxId(1)]).unwrap();
    assert_eq!(router.tan().missing_parent_refs(), missing_before + 1);
    // The windowed snapshot carries the wrapped ring and every
    // side-table survivor: a recovered router resolves the same hub.
    let live: Vec<_> = router.assignments().iter_live().collect();
    let mut restored = restart(router, &storage);
    assert!(restored.assignments().iter_live().eq(live));
    let again = restored.submit(TxId(2_000_002), &[TxId(0)]).unwrap();
    assert_eq!(again, hub_shard);
}

#[test]
fn windowed_router_holds_bounded_live_state_over_long_streams() {
    let window = 256usize;
    let mut router = Router::builder()
        .shards(4)
        .retention(RetentionPolicy::WindowTxs(window))
        .build();
    let txs = seeded_stream(20_000, 50, 7);
    let (mut peak_live, mut peak_arena, mut peak_assign) = (0usize, 0usize, 0usize);
    for tx in &txs {
        router.submit_tx(tx).unwrap();
        peak_live = peak_live.max(router.tan().live_len());
        peak_arena = peak_arena.max(router.tan().arena_bytes());
        peak_assign = peak_assign.max(router.assignments().state_bytes());
    }
    assert!(peak_live <= window, "{peak_live} live rows");
    // Peak graph and assignment bytes stay within 2x of a router over
    // just the window-sized prefix: O(window), not O(stream).
    let mut small = Router::builder().shards(4).build();
    for tx in &txs[..window] {
        small.submit_tx(tx).unwrap();
    }
    let (arena, assign) = (small.tan().arena_bytes(), small.assignments().state_bytes());
    assert!(peak_arena <= 2 * arena, "arena {peak_arena} vs {arena}");
    assert!(peak_assign <= 2 * assign, "store {peak_assign} vs {assign}");
    // The placement state is complete despite the eviction.
    assert_eq!(router.assignments().len(), txs.len());
}

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
    w.adopt_remote(TxId(0), &[], 3).unwrap();
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
    w.adopt_remote(TxId(0), &[], 0).unwrap();
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
