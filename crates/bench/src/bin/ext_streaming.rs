//! Extension — streaming graph-partitioning baselines (Section II of the
//! paper cites Stanton & Kliot and Abbas et al.): Linear Deterministic
//! Greedy and Fennel vs the paper's strategies, on cross-TXs and balance.

use optchain_bench::{fmt_pct, shared_workload, Opts};
use optchain_core::replay::{replay, replay_router};
use optchain_core::{FennelPlacer, LdgPlacer, Router, Strategy};
use optchain_metrics::Table;

fn main() {
    let opts = Opts::parse();
    let txs = shared_workload(opts.txs, opts.seed);
    let n = txs.len() as u64;
    println!(
        "Extension: streaming-partitioning baselines ({} txs)\n",
        optchain_bench::fmt_count(n)
    );
    for k in [4u32, 16] {
        println!("── k = {k} ──");
        let mut table = Table::new(["strategy", "cross-TXs", "size ratio"]);
        let mut row = |name: &str, outcome: optchain_core::replay::ReplayOutcome| {
            table.row([
                name.to_string(),
                fmt_pct(outcome.cross_fraction()),
                format!("{:.2}", outcome.size_ratio()),
            ]);
        };
        // Built-in strategies run through the Router by name; the
        // streaming baselines go through the borrow-style `replay`
        // (`replay_router` is bit-identical to it, per
        // `router_golden.rs`).
        let built_in = |strategy: Strategy| {
            Router::builder()
                .shards(k)
                .strategy(strategy)
                .expected_total(n)
                .build()
        };
        row(
            "OptChain",
            replay_router(&txs, &mut built_in(Strategy::OptChain)),
        );
        row(
            "T2S-based",
            replay_router(&txs, &mut built_in(Strategy::T2s)),
        );
        row(
            "Greedy",
            replay_router(&txs, &mut built_in(Strategy::Greedy)),
        );
        row("LDG", replay(&txs, &mut LdgPlacer::new(k, n)));
        row("Fennel", replay(&txs, &mut FennelPlacer::new(k, n)));
        row(
            "OmniLedger",
            replay_router(&txs, &mut built_in(Strategy::OmniLedger)),
        );
        println!("{table}");
    }
    println!(
        "(LDG/Fennel minimize crossing edges under balance — the objective the \
         paper argues is not quite the right one for sharding)"
    );
}
