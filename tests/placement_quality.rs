//! Cross-strategy placement-quality invariants: the orderings Tables I/II
//! and the figures rest on.

use optchain::prelude::*;

fn stream(n: usize, seed: u64) -> Vec<Transaction> {
    optchain::workload::generate(WorkloadConfig::bitcoin_like().with_seed(seed), n)
}

#[test]
fn table1_orderings_hold() {
    let txs = stream(60_000, 21);
    let n = txs.len() as u64;
    for k in [4u32, 16] {
        let tan = TanGraph::from_transactions(txs.iter());
        let csr = CsrGraph::from_tan(&tan);
        let metis = replay(
            &txs,
            &mut OraclePlacer::new(k, partition_kway(&csr, k, 0.1, 1)),
        );
        let t2s = replay(
            &txs,
            &mut T2sPlacer::with_engine(T2sEngine::new(k), 0.1, Some(n)),
        );
        let greedy = replay(&txs, &mut GreedyPlacer::with_epsilon(k, 0.1, Some(n)));
        let random = replay(&txs, &mut RandomPlacer::new(k));
        let optchain = replay(&txs, &mut OptChainPlacer::new(k));

        // The paper's Table I ordering: Metis best, then the online
        // structure-aware strategies, random worst by a wide margin.
        assert!(metis.cross < t2s.cross, "k={k}");
        assert!(metis.cross < greedy.cross, "k={k}");
        assert!(
            (t2s.cross as f64) < 0.6 * random.cross as f64,
            "k={k}: T2S {} vs random {}",
            t2s.cross,
            random.cross
        );
        assert!(
            (optchain.cross as f64) < 0.6 * random.cross as f64,
            "k={k}: OptChain {} vs random {}",
            optchain.cross,
            random.cross
        );
        assert!(
            (greedy.cross as f64) < 0.6 * random.cross as f64,
            "k={k}: Greedy {} vs random {}",
            greedy.cross,
            random.cross
        );
    }
}

#[test]
fn random_placement_matches_paper_formula() {
    // With k shards, a tx with one input is cross with probability
    // (k-1)/k under random placement; the paper quotes 94% (2-in/1-out,
    // k=4) and 99.98% (k=16). Check the k=16 ballpark on real streams.
    let txs = stream(30_000, 8);
    let outcome = replay(&txs, &mut RandomPlacer::new(16));
    let non_coinbase = outcome.total - outcome.coinbase;
    let fraction = outcome.cross as f64 / non_coinbase as f64;
    assert!(
        fraction > 0.90,
        "random placement at k=16 must be almost all cross: {fraction}"
    );
}

#[test]
fn optchain_balances_where_t2s_alone_would_not() {
    // Without the ε-cap or L2S, a pure chain stream funnels into one
    // shard. OptChain (load-aware) and T2S (capped) must both keep the
    // shard sizes within a reasonable ratio on a real stream.
    let txs = stream(40_000, 13);
    let optchain = replay(&txs, &mut OptChainPlacer::new(8));
    assert!(
        optchain.size_ratio() < 2.0,
        "OptChain shard sizes diverged: {:?}",
        optchain.shard_sizes
    );
}

#[test]
fn warm_start_equals_fresh_on_same_prefix() {
    // Placing [prefix + delta] from scratch must equal warm-starting from
    // the same prefix assignment: the T2S incremental state is exact.
    let txs = stream(6_000, 17);
    let (prefix, delta) = txs.split_at(4_000);

    let mut fresh = T2sPlacer::with_engine(T2sEngine::new(4), 0.1, Some(6_000));
    let all = replay(&txs, &mut fresh);

    let mut tan = TanGraph::from_transactions(prefix.iter());
    let mut warm = T2sPlacer::with_engine(T2sEngine::new(4), 0.1, Some(6_000));
    warm.warm_start(&tan, &all.assignments[..4_000]);
    let continued = optchain::core::replay::replay_into(delta, &mut warm, &mut tan);

    assert_eq!(
        &all.assignments[4_000..],
        &continued.assignments[4_000..],
        "warm-started placement must continue identically"
    );
}

#[test]
fn deterministic_across_processes() {
    // Same seed, same outcome — byte-for-byte (catches HashMap-iteration
    // nondeterminism sneaking into any placement path).
    let a = replay(&stream(10_000, 99), &mut OptChainPlacer::new(8));
    let b = replay(&stream(10_000, 99), &mut OptChainPlacer::new(8));
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.cross, b.cross);
}

#[test]
fn prebuilt_graph_placement_equals_online_placement() {
    // Deciding over a graph that already holds the whole stream takes
    // the historical `in_degree_at` route (a hub's later spenders must
    // not count yet); it must place exactly like deciding as each
    // transaction arrives.
    let txs = stream(20_000, 5);
    let telemetry = vec![optchain::core::DEFAULT_TELEMETRY; 16];
    let mut online = Router::builder().shards(16).build();
    let mut shards = Vec::new();
    online.submit_batch(&txs, &mut shards);

    let tan = TanGraph::from_transactions(txs.iter());
    let mut placer = OptChainPlacer::new(16);
    for (node, online_shard) in tan.nodes().zip(&shards) {
        let ctx = PlacementContext::with_epoch(&tan, &telemetry, 0);
        assert_eq!(placer.place(&ctx, node), *online_shard, "node {node:?}");
    }
}
