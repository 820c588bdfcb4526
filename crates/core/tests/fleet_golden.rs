//! Golden equivalence for the [`RouterFleet`] surface:
//!
//! * a fleet is **bit-identical to a single [`Router`]** fed the same
//!   global order — assignments *and* per-shard scores — however many
//!   workers it is configured with, however many client handles
//!   submit, and under every retention policy: one router behind one
//!   lock places the whole stream in the order callers take it;
//! * fleet restarts are transparent: drop → rebuild over the same
//!   storage backend → continued stream equals the uninterrupted
//!   stream, rebalance epochs included.

mod common;
use common::{aggressive, stream_strategy};

use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{
    MemStorage, RetentionPolicy, Router, RouterFleet, ShardTelemetry, SharedStorage, Strategy,
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

    /// A fleet under a live telemetry feed, fed round-robin by several
    /// client handles, is bit-identical to a single router — shard,
    /// T2S, L2S and fitness vectors included — for 1–4 configured
    /// workers and under every retention policy.
    #[test]
    fn one_worker_fleet_matches_router_bitwise(
        recipe in stream_strategy(200),
        k in 1u32..9,
    ) {
        let txs = build_raw_stream(&recipe);
        let policies = [
            RetentionPolicy::Unbounded,
            RetentionPolicy::WindowTxs(16),
            RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 },
        ];
        for retention in policies {
            for workers in 1usize..5 {
                let mut router = Router::builder().shards(k).retention(retention).build();
                let fleet = RouterFleet::builder()
                    .shards(k)
                    .retention(retention)
                    .workers(workers)
                    .build();
                let handles: Vec<_> = (0..workers.max(2) as u64).map(|c| fleet.handle(c)).collect();
                for (i, (txid, parents)) in txs.iter().enumerate() {
                    if i.is_multiple_of(7) {
                        let values = telemetry_at(i as u64 / 7, k);
                        router.feed_telemetry(&values);
                        fleet.feed_telemetry(&values).unwrap();
                    }
                    let placed = router.submit(*txid, parents).unwrap();
                    let expected = router.last_decision();
                    let handle = &handles[i % handles.len()];
                    let (shard, decision) = handle.submit_with_detail(*txid, parents).unwrap();
                    let at = format!("tx {i}, {workers} workers, {retention:?}");
                    prop_assert_eq!((shard, shard), (placed, expected.shard()), "{}", at);
                    for j in 0..k as usize {
                        prop_assert_eq!(decision.t2s[j].to_bits(), expected.t2s()[j].to_bits());
                        prop_assert_eq!(decision.l2s[j].to_bits(), expected.l2s()[j].to_bits());
                        prop_assert_eq!(decision.fitness[j].to_bits(), expected.fitness()[j].to_bits());
                    }
                }
                // The fleet's router state equals the router's.
                for (txid, _) in &txs {
                    prop_assert_eq!(fleet.shard_of(*txid).unwrap(), router.shard_of(*txid));
                }
            }
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
                let b = handle.submit(*txid, parents).unwrap();
                prop_assert_eq!(a, b, "strategy {:?}", strategy);
            }
        }
    }

    /// Fleet restarts are transparent: drop the fleet mid-stream,
    /// rebuild it over the same (in-RAM) storage backend, and the
    /// continued suffix places exactly like the uninterrupted fleet —
    /// telemetry board and rebalancer included.
    #[test]
    fn fleet_restart_is_transparent(
        recipe in stream_strategy(200),
        k in 1u32..9,
        cut_pct in 0u32..100,
        rebalance in any::<bool>(),
    ) {
        let txs = build_raw_stream(&recipe);
        let cut = txs.len() * cut_pct as usize / 100;
        let builder = || match rebalance {
            true => RouterFleet::builder().shards(k).rebalancer(aggressive(12)),
            false => RouterFleet::builder().shards(k),
        };
        let drive = |fleet: &RouterFleet, rows: &[(TxId, Vec<TxId>)], offset: usize| -> Vec<u32> {
            let handles = [fleet.handle(0), fleet.handle(1)];
            rows.iter()
                .enumerate()
                .map(|(i, (txid, parents))| {
                    let at = offset + i;
                    if at.is_multiple_of(11) {
                        fleet.feed_telemetry(&telemetry_at(at as u64 / 11, k)).unwrap();
                    }
                    handles[at % 2].submit(*txid, parents).unwrap().0
                })
                .collect()
        };

        let continuous = builder().build();
        let expected = drive(&continuous, &txs, 0);

        let storage = SharedStorage::new(MemStorage::new());
        let prefix_fleet = builder().storage(Box::new(storage.clone())).build();
        let prefix_shards = drive(&prefix_fleet, &txs[..cut], 0);
        drop(prefix_fleet);

        let resumed = builder().storage(Box::new(storage)).build();
        prop_assert_eq!(resumed.submitted(), cut as u64);
        // (The recovered router's board carries the last fed values,
        // and the router dedups feeds too, so the telemetry epochs stay
        // aligned without re-feeding.)
        let suffix = drive(&resumed, &txs[cut..], cut);

        let mut got = prefix_shards;
        got.extend(&suffix);
        prop_assert_eq!(expected, got, "cut {}", cut);
        prop_assert_eq!(resumed.stats().rebalance, continuous.stats().rebalance);
    }
}
