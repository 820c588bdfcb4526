//! Ablation — retention window: the paper deploys OptChain in wallets
//! via SPV ("users do not need to download the complete transaction
//! history"). This sweep bounds the router's retained state
//! (`RetentionPolicy::WindowTxs`: graph, score rows and assignments
//! together) and measures the placement-quality cost.

use optchain_bench::{fmt_pct, shared_workload, Opts};
use optchain_core::replay::replay_router;
use optchain_core::{RetentionPolicy, Router, Strategy};
use optchain_metrics::Table;

const K: u32 = 16;

fn main() {
    let opts = Opts::parse();
    let txs = shared_workload(opts.txs, opts.seed);
    let n = txs.len() as u64;
    println!(
        "Ablation: retention window at {K} shards ({} txs)\n",
        optchain_bench::fmt_count(n)
    );
    let mut table = Table::new(["window (txs)", "cross-TXs", "state (MB, k=16)"]);
    for window in [1_000usize, 10_000, 100_000, usize::MAX] {
        let mut builder = Router::builder()
            .shards(K)
            .strategy(Strategy::T2s)
            .expected_total(n);
        if window != usize::MAX {
            builder = builder.retention(RetentionPolicy::WindowTxs(window));
        }
        let mut router = builder.build();
        let outcome = replay_router(&txs, &mut router);
        // Graph arenas, assignment history and `k` score cells per live
        // transaction: everything the policy bounds.
        let assignments = router.assignments();
        let state_mb = (router.tan().arena_bytes()
            + assignments.state_bytes()
            + assignments.live_len() * K as usize * 4) as f64
            / 1e6;
        table.row([
            if window == usize::MAX {
                "unbounded".to_string()
            } else {
                window.to_string()
            },
            fmt_pct(outcome.cross_fraction()),
            format!("{state_mb:.1}"),
        ]);
    }
    println!("{table}");
}
