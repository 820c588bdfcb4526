//! Table II — number of cross-TXs placing a fresh window of transactions
//! after the system warm-started from a Metis partition.
//!
//! The paper partitions the first 30M transactions with Metis, then
//! places the next 1M with each online strategy and counts cross-TXs:
//!
//! ```text
//! k   Greedy    OmniLedger  T2S-based
//! 4   335,269   837,356     112,657
//! 8   407,747   922,073     172,978
//! 16  441,267   960,935     226,171
//! 32  449,032   979,323     282,108
//! 64  454,321   988,144     366,854
//! ```
//!
//! Here the prefix:delta ratio (30:1) is preserved at reduced scale, and
//! the warm start is [`Router::warm_start_history`] replaying the
//! Metis-partitioned prefix.

use optchain_bench::{fmt_count, shared_workload, Opts};
use optchain_core::replay::replay_router;
use optchain_core::{Router, Strategy};
use optchain_metrics::Table;
use optchain_partition::{partition_kway, CsrGraph};
use optchain_tan::TanGraph;

fn main() {
    let opts = Opts::parse();
    // Preserve the paper's 30:1 prefix-to-delta ratio.
    let delta_n = (opts.txs / 8).max(10_000);
    let prefix_n = opts.txs;
    let txs = shared_workload(prefix_n + delta_n, opts.seed);
    let (prefix, delta) = txs.split_at(prefix_n as usize);
    println!(
        "Table II: cross-TXs placing {} new txs after a Metis-partitioned prefix of {}\n",
        fmt_count(delta_n),
        fmt_count(prefix_n),
    );

    let prefix_tan = TanGraph::from_transactions(prefix.iter());
    let csr = CsrGraph::from_tan(&prefix_tan);

    let mut table = Table::new(["k", "Greedy", "OmniLedger", "T2S-based", "OptChain"]);
    for k in [4u32, 8, 16, 32, 64] {
        let warm = partition_kway(&csr, k, 0.1, opts.seed);

        let run = |strategy: Strategy| {
            let mut router = Router::builder()
                .shards(k)
                .strategy(strategy)
                .expected_total(prefix_n + delta_n)
                .build();
            router.warm_start_history(&prefix_tan, &warm);
            replay_router(delta, &mut router)
        };
        table.row([
            k.to_string(),
            fmt_count(run(Strategy::Greedy).cross),
            fmt_count(run(Strategy::OmniLedger).cross),
            fmt_count(run(Strategy::T2s).cross),
            fmt_count(run(Strategy::OptChain).cross),
        ]);
    }
    println!("{table}");
    println!("(OptChain column added beyond the paper: Table II only lists T2S-based.)");
}
