//! End-to-end integration: workload → ledger validation → TaN → placement
//! → simulation, across crates.

use optchain::prelude::*;

fn stream(n: usize, seed: u64) -> Vec<Transaction> {
    optchain::workload::generate(WorkloadConfig::small().with_seed(seed), n)
}

#[test]
fn generated_stream_flows_through_the_whole_stack() {
    let txs = stream(5_000, 3);

    // 1. It is a valid UTXO history.
    let mut ledger = Ledger::new();
    for tx in &txs {
        ledger.apply(tx.clone()).expect("workload is valid");
    }

    // 2. The TaN network reflects it: one node per tx, DAG order.
    let tan = TanGraph::from_transactions(txs.iter());
    assert_eq!(tan.len(), txs.len());
    for (u, v) in tan.edges() {
        assert!(v < u, "TaN edges must point to the past");
    }

    // 3. Placement over the stream is total and in range.
    let outcome = replay(&txs, &mut OptChainPlacer::new(6));
    assert_eq!(outcome.assignments.len(), txs.len());
    assert!(outcome.assignments.iter().all(|s| *s < 6));

    // 4. The simulator commits everything at a sustainable rate.
    let mut config = SimConfig::small();
    config.total_txs = txs.len() as u64;
    config.tx_rate = 400.0;
    config.n_shards = 6;
    let metrics = Simulation::run_on(config, Strategy::OptChain, &txs).unwrap();
    assert_eq!(metrics.committed, txs.len() as u64);
    assert_eq!(metrics.aborted, 0);
}

#[test]
fn all_five_strategies_run_on_the_same_stream() {
    let txs = stream(4_000, 9);
    let mut config = SimConfig::small();
    config.total_txs = txs.len() as u64;
    config.tx_rate = 500.0;
    for strategy in [
        Strategy::OptChain,
        Strategy::T2s,
        Strategy::OmniLedger,
        Strategy::Greedy,
        Strategy::Metis,
    ] {
        let metrics = Simulation::run_on(config.clone(), strategy, &txs)
            .unwrap_or_else(|e| panic!("{} failed: {e}", strategy.label()));
        assert_eq!(
            metrics.committed + metrics.aborted,
            txs.len() as u64,
            "{} must process the full stream",
            strategy.label()
        );
        assert!(metrics.mean_latency() > 0.0);
    }
}

#[test]
fn metis_oracle_outperforms_random_on_cross_txs() {
    let txs = stream(8_000, 11);
    let tan = TanGraph::from_transactions(txs.iter());
    let csr = CsrGraph::from_tan(&tan);
    let assignment = partition_kway(&csr, 4, 0.1, 1);
    let metis = replay(&txs, &mut OraclePlacer::new(4, assignment));
    let random = replay(&txs, &mut RandomPlacer::new(4));
    assert!(
        metis.cross < random.cross / 2,
        "offline partitioning should at least halve cross-TXs: {} vs {}",
        metis.cross,
        random.cross
    );
}

/// A durable router whose WAL writer fails reports it as an error:
/// with its directory gone the snapshot install fails on the writer
/// thread, and `flush_journal` — a barrier — returns that error's kind
/// instead of panicking.
#[test]
fn a_failed_wal_writer_surfaces_from_flush_journal() {
    let dir = std::env::temp_dir().join(format!("optchain-e2e-wal-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = SegmentWal::open(&dir).expect("open a fresh WAL directory");
    let mut router = Router::builder().shards(4).storage(Box::new(wal)).build();
    for i in 0..1_000u64 {
        router.submit(TxId(i), &[]).expect("journaled");
    }
    router
        .flush_journal()
        .expect("the directory is still there");
    std::fs::remove_dir_all(&dir).unwrap();
    // Whether this call or a later one reports it depends on the writer.
    let _ = router.checkpoint_now();
    let err = router.flush_journal().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    let err = router.submit(TxId(1_000), &[]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
}
