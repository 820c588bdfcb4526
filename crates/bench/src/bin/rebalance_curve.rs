//! Dynamic re-sharding tradeoff curve: drives one hot-spot workload
//! through the full discrete-event simulation under static OptChain
//! placement and under the same placement with the [`Rebalancer`]
//! enabled at a sweep of per-epoch migration byte budgets, then records
//! the cost/benefit curve — migration bytes spent vs. cross-shard ratio
//! and max-shard utilization recovered — as a table and, on the last
//! stdout line, one JSON object (also written to `--out PATH` if given).
//!
//! Gates (exit 1 on failure): the default-budget rebalanced arm must
//! beat the static arm on **both** cross-tx ratio and max-shard
//! utilization, every arm's migrated bytes must respect its per-epoch
//! budget, no arm may abort a transaction, and the gated arm must be
//! bit-deterministic across two runs.
//!
//! ```sh
//! cargo run --release -p optchain-bench --bin rebalance_curve -- \
//!     [--txs N] [--k K] [--seed S] [--out PATH] [--smoke]
//! ```
//!
//! [`Rebalancer`]: optchain_core::RebalancePolicy

use std::fmt::Write as _;

use optchain_core::{RebalancePolicy, Router};
use optchain_sim::{SimConfig, SimMetrics, Simulation};
use optchain_utxo::Transaction;
use optchain_workload::{HotSpotConfig, WorkloadConfig, WorkloadGenerator};

struct Args {
    txs: u64,
    k: u32,
    seed: u64,
    out: Option<String>,
    /// Hub wallets in the hot-spot.
    hubs: u32,
    /// Probability a post-warmup transaction is hub traffic.
    p_hot: f64,
    /// Migration epoch length, in submissions.
    epoch_interval: u64,
    /// Offered client load, transactions per second.
    rate: f64,
    /// CI-scale run: fewer transactions, a single-budget sweep.
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        txs: 20_000,
        k: 4,
        seed: 0xB17C04,
        out: None,
        hubs: 2,
        p_hot: 0.7,
        epoch_interval: 500,
        rate: 1_500.0,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--txs" => args.txs = next("--txs").parse().expect("--txs: number"),
            "--k" => args.k = next("--k").parse().expect("--k: number"),
            "--seed" => args.seed = next("--seed").parse().expect("--seed: number"),
            "--out" => args.out = Some(next("--out")),
            "--hubs" => args.hubs = next("--hubs").parse().expect("--hubs: number"),
            "--p-hot" => args.p_hot = next("--p-hot").parse().expect("--p-hot: number"),
            "--epoch-interval" => {
                args.epoch_interval = next("--epoch-interval")
                    .parse()
                    .expect("--epoch-interval: number")
            }
            "--rate" => args.rate = next("--rate").parse().expect("--rate: number"),
            "--smoke" => args.smoke = true,
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!(
                    "usage: rebalance_curve [--txs N] [--k K] [--seed S] [--out PATH] \
                     [--hubs N] [--p-hot X] [--epoch-interval N] [--smoke]"
                );
                std::process::exit(2)
            }
        }
    }
    if args.smoke {
        // Short enough for CI, long enough that the epoch protocol has
        // corrected the skew (the hot-spot needs a few epochs of data
        // before the moves pay for themselves).
        args.txs = args.txs.min(10_000);
    }
    args
}

/// Per-epoch migration byte budgets swept into the tradeoff curve. The
/// low points throttle the planner mid-batch (fewer hubs re-homed per
/// epoch, cheaper but slower skew recovery); the 64 KiB point is
/// [`RebalancePolicy`]'s default and carries the gates.
const BUDGET_SWEEP: &[u64] = &[512, 1024, 2 * 1024, 64 * 1024];
const GATED_BUDGET: u64 = 64 * 1024;

/// One simulated arm of the curve.
struct Arm {
    label: String,
    /// Per-epoch byte budget (`None` for the static arm).
    budget: Option<u64>,
    metrics: SimMetrics,
}

impl Arm {
    fn cross_ratio(&self) -> f64 {
        self.metrics.cross_fraction()
    }

    fn max_util(&self) -> f64 {
        self.metrics.max_shard_utilization()
    }
}

/// Policy for one rebalanced arm: the default cost model with the
/// calibrated hub threshold (93% of synthetic-workload in-degrees sit
/// below 3, so degree ≥ 2 is where the hub tail starts) and the swept
/// byte budget.
fn policy(epoch_interval: u64, budget: u64) -> RebalancePolicy {
    RebalancePolicy::default()
        .with_epoch_interval(epoch_interval)
        .with_min_in_degree(2)
        .with_byte_budget(budget)
}

fn run_arm(
    config: &SimConfig,
    txs: &[Transaction],
    epoch_interval: u64,
    label: String,
    budget: Option<u64>,
) -> Arm {
    let mut builder = Router::builder()
        .shards(config.n_shards)
        .expected_total(config.total_txs);
    if let Some(bytes) = budget {
        builder = builder.rebalancer(policy(epoch_interval, bytes));
    }
    let metrics = Simulation::run_with_router(config.clone(), txs, builder.build())
        .expect("simulation config is valid and the stream covers total_txs");
    Arm {
        label,
        budget,
        metrics,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "rebalance_curve: {} txs, k = {}, seed = {:#x}, hot-spot {} hubs @ p = {}{}",
        args.txs,
        args.k,
        args.seed,
        args.hubs,
        args.p_hot,
        if args.smoke { " [smoke]" } else { "" }
    );

    let mut config = SimConfig::small();
    config.n_shards = args.k;
    config.total_txs = args.txs;
    config.tx_rate = args.rate;
    config.workload_seed = args.seed;

    // The hot-spot starts after the warm-up tenth of the stream, so the
    // hubs exist as ordinary wallets (and T2S families) before the
    // crowd piles onto them — the skew a static placement is stuck with.
    let hotspot = HotSpotConfig {
        hubs: args.hubs,
        p_hot: args.p_hot,
        start: (args.txs / 10) as usize,
    };
    println!(
        "generating hot-spot workload (start at tx {})...",
        hotspot.start
    );
    let wl = WorkloadConfig::bitcoin_like()
        .with_seed(config.workload_seed)
        .with_hotspot(hotspot);
    let txs: Vec<Transaction> = WorkloadGenerator::new(wl).take(args.txs as usize).collect();

    println!("running the static OptChain arm...");
    let static_arm = run_arm(
        &config,
        &txs,
        args.epoch_interval,
        "static".to_string(),
        None,
    );
    report(&static_arm);

    let sweep: &[u64] = if args.smoke {
        &[GATED_BUDGET]
    } else {
        BUDGET_SWEEP
    };
    let mut arms = Vec::new();
    for &budget in sweep {
        let tag = if budget.is_multiple_of(1024) {
            format!("{}k", budget / 1024)
        } else {
            format!("{budget}b")
        };
        println!("running the rebalanced arm (budget {tag}/epoch)...");
        let arm = run_arm(
            &config,
            &txs,
            args.epoch_interval,
            format!("rebalance_{tag}"),
            Some(budget),
        );
        report(&arm);
        arms.push(arm);
    }

    let gated = arms
        .iter()
        .find(|a| a.budget == Some(GATED_BUDGET))
        .expect("the sweep always contains the gated default budget");

    // Determinism: the gated arm replayed over the same stream must
    // reproduce every counter bit for bit (same epoch boundaries →
    // same assignments → same consensus schedule).
    println!("re-running the gated arm (determinism check)...");
    let repeat = run_arm(
        &config,
        &txs,
        args.epoch_interval,
        "rebalance_repeat".to_string(),
        Some(GATED_BUDGET),
    );
    assert_eq!(gated.metrics.cross_txs, repeat.metrics.cross_txs);
    assert_eq!(gated.metrics.committed, repeat.metrics.committed);
    assert_eq!(
        gated.metrics.per_shard_items,
        repeat.metrics.per_shard_items
    );
    assert_eq!(
        gated.metrics.rebalance_nodes_moved,
        repeat.metrics.rebalance_nodes_moved
    );
    assert_eq!(
        gated.metrics.rebalance_bytes_migrated,
        repeat.metrics.rebalance_bytes_migrated
    );
    println!("  deterministic: every counter identical");

    let mut failed = false;
    if gated.cross_ratio() >= static_arm.cross_ratio() {
        eprintln!(
            "error: rebalanced cross-tx ratio {:.4} not below static {:.4}",
            gated.cross_ratio(),
            static_arm.cross_ratio()
        );
        failed = true;
    }
    if gated.max_util() >= static_arm.max_util() {
        eprintln!(
            "error: rebalanced max-shard utilization {:.3} not below static {:.3}",
            gated.max_util(),
            static_arm.max_util()
        );
        failed = true;
    }
    for arm in arms.iter().chain([&static_arm]) {
        if arm.metrics.aborted > 0 {
            eprintln!(
                "error: arm {} aborted {} transactions",
                arm.label, arm.metrics.aborted
            );
            failed = true;
        }
        let Some(budget) = arm.budget else { continue };
        let ceiling = arm.metrics.rebalance_epochs_committed * budget;
        if arm.metrics.rebalance_bytes_migrated > ceiling {
            eprintln!(
                "error: arm {} migrated {} bytes over {} committed epochs \
                 (budget {} bytes/epoch)",
                arm.label,
                arm.metrics.rebalance_bytes_migrated,
                arm.metrics.rebalance_epochs_committed,
                budget
            );
            failed = true;
        }
    }
    if gated.metrics.rebalance_nodes_moved == 0 {
        eprintln!("error: the gated arm never migrated a hub — the trigger did not fire");
        failed = true;
    }
    if !failed {
        println!(
            "gates passed: cross ratio {:.4} -> {:.4}, max utilization {:.3} -> {:.3}, \
             {} hubs re-homed / {:.1} KiB migrated",
            static_arm.cross_ratio(),
            gated.cross_ratio(),
            static_arm.max_util(),
            gated.max_util(),
            gated.metrics.rebalance_nodes_moved,
            gated.metrics.rebalance_bytes_migrated as f64 / 1024.0,
        );
    }
    let json = curve_json(&args, &config, &static_arm, &arms);
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, json + "\n").expect("write --out");
    }
    if failed {
        std::process::exit(1);
    }
}

fn report(arm: &Arm) {
    let m = &arm.metrics;
    println!(
        "  {}: cross ratio {:.4}, max utilization {:.3}, {:.0} tps, \
         {} committed / {} aborted, {} epochs / {} moves / {} bytes migrated",
        arm.label,
        arm.cross_ratio(),
        arm.max_util(),
        m.throughput(),
        m.committed,
        m.aborted,
        m.rebalance_epochs_committed,
        m.rebalance_nodes_moved,
        m.rebalance_bytes_migrated,
    );
}

fn arm_json(json: &mut String, arm: &Arm) {
    let m = &arm.metrics;
    let _ = write!(
        json,
        "{{\"label\": \"{}\", \"budget_bytes\": {}, \"cross_ratio\": {:.6}, \
         \"max_shard_utilization\": {:.4}, \"throughput_tps\": {:.1}, \
         \"mean_latency_s\": {:.4}, \"committed\": {}, \"aborted\": {}, \
         \"epochs_committed\": {}, \"nodes_moved\": {}, \"bytes_migrated\": {}}}",
        arm.label,
        match arm.budget {
            Some(b) => b.to_string(),
            None => "null".to_string(),
        },
        arm.cross_ratio(),
        arm.max_util(),
        m.throughput(),
        m.mean_latency(),
        m.committed,
        m.aborted,
        m.rebalance_epochs_committed,
        m.rebalance_nodes_moved,
        m.rebalance_bytes_migrated,
    );
}

/// The whole curve as one JSON line.
fn curve_json(args: &Args, config: &SimConfig, static_arm: &Arm, arms: &[Arm]) -> String {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"experiment\": \"rebalance_curve\", \"txs\": {}, \"k\": {}, \"seed\": {}, \
         \"hotspot\": {{\"hubs\": {}, \"p_hot\": {}, \"start\": {}}}, \
         \"epoch_interval\": {}, \"gated_budget_bytes\": {GATED_BUDGET}, \"static\": ",
        args.txs,
        config.n_shards,
        args.seed,
        args.hubs,
        args.p_hot,
        args.txs / 10,
        args.epoch_interval,
    );
    arm_json(&mut json, static_arm);
    json.push_str(", \"arms\": [");
    for (i, arm) in arms.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        arm_json(&mut json, arm);
    }
    json.push_str("], \"deterministic\": true}");
    json
}
