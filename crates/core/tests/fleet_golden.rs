//! Golden equivalence for the [`RouterFleet`] surface:
//!
//! * a **1-worker fleet is bit-identical to a single [`Router`]** —
//!   assignments *and* per-shard scores — because no adoption ever
//!   happens and the worker sees the global stream in order;
//! * an **N-worker fleet is deterministic** for a fixed partitioner and
//!   sync schedule: two identical runs produce identical assignments;
//! * fleet restarts are transparent: drop → rebuild over the same
//!   storage backends → continued stream equals the uninterrupted
//!   stream, sync schedule included.

mod common;
use common::stream_strategy;

use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{
    MemStorage, Router, RouterFleet, ShardTelemetry, SharedStorage, Storage, Strategy,
};
use optchain_utxo::TxId;

/// Materializes a recipe into `(txid, parents)` rows.
fn build_raw_stream(recipe: &[Vec<u8>]) -> Vec<(TxId, Vec<TxId>)> {
    recipe
        .iter()
        .enumerate()
        .map(|(i, offsets)| {
            let mut parents = Vec::new();
            for off in offsets {
                if let Some(p) = i.checked_sub(*off as usize) {
                    let p = TxId(p as u64);
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
            }
            (TxId(i as u64), parents)
        })
        .collect()
}

/// Telemetry values for epoch `e` over `k` shards: shard `e % k` runs
/// hot, everything else idle — a deterministic rolling hotspot.
fn telemetry_at(e: u64, k: u32) -> Vec<ShardTelemetry> {
    (0..k)
        .map(|j| {
            if u64::from(j) == e % u64::from(k) {
                ShardTelemetry::new(0.1, 0.5 + e as f64)
            } else {
                ShardTelemetry::new(0.1, 0.5)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A 1-worker fleet under a live telemetry feed is bit-identical to
    /// a single router — shard, T2S, L2S and fitness vectors included.
    #[test]
    fn one_worker_fleet_matches_router_bitwise(
        recipe in stream_strategy(200),
        k in 1u32..9,
    ) {
        let txs = build_raw_stream(&recipe);
        let mut router = Router::builder().shards(k).build();
        let fleet = RouterFleet::builder()
            .shards(k)
            .workers(1)
            .sync_interval(16)
            .build();
        let handle = fleet.handle(42);
        for (i, (txid, parents)) in txs.iter().enumerate() {
            if i.is_multiple_of(7) {
                let values = telemetry_at(i as u64 / 7, k);
                router.feed_telemetry(&values);
                fleet.feed_telemetry(&values);
            }
            let placed = router.submit(*txid, parents).unwrap();
            let expected = router.last_decision();
            let (shard, decision) = handle.submit_with_detail(*txid, parents);
            prop_assert_eq!((shard, shard), (placed, expected.shard()), "tx {}", i);
            for j in 0..k as usize {
                prop_assert_eq!(decision.t2s[j].to_bits(), expected.t2s()[j].to_bits());
                prop_assert_eq!(decision.l2s[j].to_bits(), expected.l2s()[j].to_bits());
                prop_assert_eq!(decision.fitness[j].to_bits(), expected.fitness()[j].to_bits());
            }
        }
        // The worker's state equals the router's.
        for (txid, _) in &txs {
            prop_assert_eq!(fleet.shard_of(*txid), router.shard_of(*txid));
        }
    }

    /// Every strategy a fleet can run agrees with the single router on
    /// a 1-worker fleet (assignments; scores are OptChain-only).
    #[test]
    fn one_worker_fleet_matches_router_across_strategies(
        recipe in stream_strategy(200),
        k in 1u32..9,
    ) {
        let txs = build_raw_stream(&recipe);
        for strategy in [Strategy::OptChain, Strategy::T2s, Strategy::OmniLedger, Strategy::Greedy] {
            let mut router = Router::builder().shards(k).strategy(strategy).build();
            let fleet = RouterFleet::builder()
                .shards(k)
                .strategy(strategy)
                .workers(1)
                .build();
            let handle = fleet.handle(0);
            for (txid, parents) in &txs {
                let a = router.submit(*txid, parents).unwrap();
                let b = handle.submit(*txid, parents);
                prop_assert_eq!(a, b, "strategy {:?}", strategy);
            }
        }
    }

    /// N-worker placement is reproducible: identical partitioner, sync
    /// interval, and submission order produce identical assignments and
    /// identical sync accounting.
    #[test]
    fn n_worker_fleet_is_deterministic(
        recipe in stream_strategy(200),
        k in 1u32..9,
        workers in 2usize..5,
    ) {
        let txs = build_raw_stream(&recipe);
        let run = || {
            let fleet = RouterFleet::builder()
                .shards(k)
                .workers(workers)
                .partitioner(|client| client as usize)
                .sync_interval(32)
                .build();
            let handles: Vec<_> = (0..workers as u64).map(|c| fleet.handle(c)).collect();
            let shards: Vec<u32> = txs
                .iter()
                .enumerate()
                .map(|(i, (txid, parents))| {
                    handles[i % workers].submit(*txid, parents).0
                })
                .collect();
            let stats = fleet.stats();
            (shards, stats.adopted, stats.missing_parent_refs, stats.sync_rounds)
        };
        prop_assert_eq!(run(), run());
    }

    /// Fleet restarts are transparent: drop the fleet mid-stream,
    /// rebuild it over the same (in-RAM) storage backends, and the
    /// continued suffix places exactly like the uninterrupted fleet —
    /// pending sync deltas, sync schedule and telemetry boards included.
    #[test]
    fn fleet_restart_is_transparent(
        recipe in stream_strategy(200),
        k in 1u32..9,
        cut_pct in 0u32..100,
    ) {
        let txs = build_raw_stream(&recipe);
        let cut = txs.len() * cut_pct as usize / 100;
        let workers = 2usize;
        let builder = || {
            RouterFleet::builder()
                .shards(k)
                .workers(workers)
                .partitioner(|client| client as usize)
                .sync_interval(8)
        };
        let backends = |storages: &[SharedStorage<MemStorage>; 2]| -> Vec<Box<dyn Storage>> {
            vec![Box::new(storages[0].clone()), Box::new(storages[1].clone())]
        };
        let drive = |fleet: &RouterFleet, rows: &[(TxId, Vec<TxId>)], offset: usize| -> Vec<u32> {
            let handles: Vec<_> = (0..workers as u64).map(|c| fleet.handle(c)).collect();
            rows.iter()
                .enumerate()
                .map(|(i, (txid, parents))| {
                    let at = offset + i;
                    if at.is_multiple_of(11) {
                        fleet.feed_telemetry(&telemetry_at(at as u64 / 11, k));
                    }
                    handles[at % workers].submit(*txid, parents).0
                })
                .collect()
        };

        let continuous = builder().build();
        let expected = drive(&continuous, &txs, 0);

        let storages = [(); 2].map(|()| SharedStorage::new(MemStorage::new()));
        let prefix_fleet = builder().storage(backends(&storages)).build();
        let prefix_shards = drive(&prefix_fleet, &txs[..cut], 0);
        drop(prefix_fleet);

        let resumed = builder().storage(backends(&storages)).build();
        prop_assert_eq!(resumed.submitted(), cut as u64);
        // (The recovered workers' boards carry the last fed values, and
        // feed_telemetry dedups at the worker too, so the telemetry
        // epochs stay aligned without re-feeding.)
        let suffix = drive(&resumed, &txs[cut..], cut);

        let mut got = prefix_shards;
        got.extend(&suffix);
        prop_assert_eq!(expected, got, "cut {}", cut);
    }
}

/// Cross-sync changes placement *quality*, never determinism: with a
/// tight sync interval a two-worker fleet resolves cross-client chains
/// that a sync-less fleet must treat as parentless.
#[test]
fn cross_sync_improves_parent_resolution() {
    // Two clients alternate spends of each other's outputs: client 0
    // creates heads, client 1 spends them.
    let n = 400u64;
    let run = |interval: u64| {
        let fleet = RouterFleet::builder()
            .shards(4)
            .workers(2)
            .partitioner(|client| client as usize)
            .sync_interval(interval)
            .build();
        let h0 = fleet.handle(0);
        let h1 = fleet.handle(1);
        for i in 0..n {
            if i.is_multiple_of(2) {
                let parents: &[TxId] = if i < 2 { &[] } else { &[TxId(i - 1)] };
                h0.submit(TxId(i), parents);
            } else {
                h1.submit(TxId(i), &[TxId(i - 1)]);
            }
        }
        fleet.flush();
        fleet.stats()
    };
    let synced = run(4);
    let blind = run(0);
    assert_eq!(synced.placed, n);
    assert_eq!(blind.placed, n);
    assert!(synced.adopted > 0, "sync rounds must adopt foreign nodes");
    assert_eq!(blind.adopted, 0);
    assert!(
        synced.missing_parent_refs < blind.missing_parent_refs,
        "sync must resolve foreign parents: {} vs {}",
        synced.missing_parent_refs,
        blind.missing_parent_refs
    );
}

/// The documented staleness bound: a placement is visible to every
/// other worker after at most `sync_interval` further global
/// submissions (here made exact by quiescent submission).
#[test]
fn staleness_is_bounded_by_the_sync_interval() {
    let interval = 10u64;
    let fleet = RouterFleet::builder()
        .shards(2)
        .workers(2)
        .partitioner(|client| client as usize)
        .sync_interval(interval)
        .build();
    let h0 = fleet.handle(0);
    let h1 = fleet.handle(1);
    // Worker 0 places the parent at seq 0; the boundary lands at seq 9.
    h0.submit(TxId(1000), &[]);
    for i in 0..interval - 2 {
        h0.submit(TxId(i), &[]);
    }
    // Spending before the boundary: parent unknown to worker 1.
    h1.submit(TxId(2000), &[TxId(1000)]);
    fleet.flush();
    assert_eq!(fleet.stats().missing_parent_refs, 1);
    // One more submission crosses the boundary; after the sync round
    // the same parent resolves on worker 1.
    h0.submit(TxId(3000), &[]);
    h1.submit(TxId(2001), &[TxId(1000)]);
    fleet.flush();
    assert_eq!(fleet.stats().missing_parent_refs, 1, "no new missing ref");
}
