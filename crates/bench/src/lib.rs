//! Experiment harness for the OptChain reproduction.
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p optchain-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table I — % cross-TXs from scratch |
//! | `table2` | Table II — cross-TXs from a warm-started system |
//! | `fig2`   | Fig 2 — TaN degree statistics |
//! | `fig3`   | Fig 3 — latency/throughput grids per strategy |
//! | `fig4`   | Fig 4 — throughput vs rate and best-config grid |
//! | `fig5`   | Fig 5 — committed transactions per window |
//! | `fig6`   | Fig 6 — max/min queue sizes over time |
//! | `fig7`   | Fig 7 — queue size ratio over time |
//! | `fig8`   | Fig 8 — average confirmation latency |
//! | `fig9`   | Fig 9 — maximum confirmation latency |
//! | `fig10`  | Fig 10 — latency CDF at 6000 tps / 16 shards |
//! | `fig11`  | Fig 11 — OptChain max sustainable rate vs shards |
//! | `ablation_alpha` | α sweep for the T2S damping factor |
//! | `ablation_weight` | L2S weight sweep around the paper's 0.01 |
//! | `ablation_l2s` | self-convolution vs verify+commit L2S |
//! | `ablation_telemetry` | quantized vs raw telemetry fidelity |
//! | `ablation_window` | retention window (the wallet deployment) |
//! | `ext_rapidchain` | OmniLedger lock vs RapidChain yank protocol |
//!
//! Every binary accepts `--txs N`, `--seed N` and `--full` (paper-scale
//! stream lengths); see [`Opts`]. `rebalance_curve` sweeps the
//! rebalancer's migration budget (PERF.md §9) and gates itself.
//!
//! This crate reproduces the paper; it does not measure the system.
//! Throughput, latency, memory and per-layer cost are measured by the
//! repo benchmark (`benchmark/run.sh`, gated in CI through
//! `scripts/bench_gate.py`). [`naive`] stays as the reference
//! `optchain-core`'s `golden_place` compares the optimized placer to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;

use std::sync::Mutex;

use optchain_sim::{SimConfig, SimMetrics, Simulation, Strategy};
use optchain_utxo::Transaction;
use optchain_workload::{WorkloadConfig, WorkloadGenerator};

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Stream length for replay-style experiments.
    pub txs: u64,
    /// Stream length for DES runs (smaller: each transaction costs
    /// several simulated messages).
    pub sim_txs: u64,
    /// Simulated injection horizon for rate-driven figures, seconds: a
    /// cell at rate `r` receives `r × horizon` transactions so queueing
    /// dynamics have time to develop.
    pub horizon_s: f64,
    /// Workload seed.
    pub seed: u64,
    /// Paper-scale mode.
    pub full: bool,
}

impl Opts {
    /// Parses `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut opts = Opts {
            txs: 200_000,
            sim_txs: 60_000,
            horizon_s: 60.0,
            seed: 0xB17C04,
            full: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--txs" => {
                    opts.txs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--txs needs a number"));
                    opts.sim_txs = opts.txs;
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--full" => {
                    opts.full = true;
                    opts.txs = 2_000_000;
                    opts.sim_txs = 400_000;
                    opts.horizon_s = 300.0;
                }
                "--horizon" => {
                    opts.horizon_s = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--horizon needs seconds"));
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [--txs N] [--seed N] [--horizon S] [--full]");
    std::process::exit(2)
}

/// Generates the shared Bitcoin-like stream every strategy is compared
/// on (identical streams per the paper's methodology).
pub fn shared_workload(n: u64, seed: u64) -> Vec<Transaction> {
    WorkloadGenerator::new(WorkloadConfig::bitcoin_like().with_seed(seed))
        .take(n as usize)
        .collect()
}

/// A paper-configured [`SimConfig`] scaled to `total_txs` at `tx_rate`,
/// with the commit window scaled so runs produce ~20 windows.
pub fn sim_config(n_shards: u32, tx_rate: f64, total_txs: u64, seed: u64) -> SimConfig {
    let mut config = SimConfig::paper();
    config.n_shards = n_shards;
    config.tx_rate = tx_rate;
    config.total_txs = total_txs;
    config.workload_seed = seed;
    config.seed = derive_seed(seed, n_shards, tx_rate);
    // Aim for ~20 commit windows and ~100 queue samples per run.
    let horizon = total_txs as f64 / tx_rate;
    config.commit_window_s = (horizon / 20.0).max(1.0);
    config.queue_sample_s = (horizon / 100.0).max(0.5);
    config
}

/// Stream length for a rate-driven simulation cell: `rate × horizon`,
/// clamped to keep single runs laptop-sized.
pub fn cell_txs(rate: f64, opts: &Opts) -> u64 {
    ((rate * opts.horizon_s) as u64).clamp(20_000, 3_000_000)
}

/// Runs one `(shards, rate, strategy)` cell on a shared stream.
///
/// # Panics
///
/// Panics if the simulation rejects the configuration — experiment
/// binaries construct only valid configs.
pub fn run_cell(
    shards: u32,
    rate: f64,
    strategy: Strategy,
    txs: &[Transaction],
    seed: u64,
) -> SimMetrics {
    let config = sim_config(shards, rate, txs.len() as u64, seed);
    Simulation::run_on(config, strategy, txs).expect("experiment config is valid")
}

/// Maps `run` over `jobs` across the configured worker count
/// (work-stealing via a shared cursor), preserving input order in the
/// output. This is the generic fan-out primitive behind
/// [`parallel_runs`] and [`run_grid`]; the registry `rayon` crate is
/// unavailable offline, so the pool is built on `std::thread::scope`.
/// The pool size defaults to all CPUs and is pinned with the
/// `OPTCHAIN_THREADS` environment variable
/// ([`optchain_core::configured_threads`] — shared with
/// [`optchain_core::RouterFleet`]'s default worker count).
pub fn par_map<J, R, F>(jobs: &[J], run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Send + Sync,
{
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = optchain_core::configured_threads().min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let m = run(&jobs[i]);
                results
                    .lock()
                    .expect("no panics hold the lock")
                    .push((i, m));
            });
        }
    });
    let mut results = results.into_inner().expect("threads joined");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, m)| m).collect()
}

/// Runs `jobs` across all CPUs, preserving input order in the output.
pub fn parallel_runs<J, R, F>(jobs: Vec<J>, run: F) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
    F: Fn(&J) -> R + Send + Sync,
{
    par_map(&jobs, run)
}

/// One cell of an experiment grid: a strategy at `(shards, rate)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Placement strategy driven in this cell.
    pub strategy: Strategy,
    /// Number of shards.
    pub shards: u32,
    /// Offered transaction rate (tps).
    pub rate: f64,
}

impl RunSpec {
    /// Builds a cell.
    pub fn new(strategy: Strategy, shards: u32, rate: f64) -> Self {
        RunSpec {
            strategy,
            shards,
            rate,
        }
    }
}

/// Deterministic per-cell simulation seed: mixes the base seed with the
/// cell's coordinates, so a run's RNG stream depends only on *what* the
/// cell is — never on scheduling order, worker count, or how many other
/// cells a grid contains. The strategy is deliberately **not** mixed in:
/// strategies compared at the same `(shards, rate)` must share network
/// and consensus randomness, as the paper's methodology requires.
/// [`sim_config`] applies this to every experiment config, so the same
/// cell produces the same numbers in every figure binary.
pub fn derive_seed(base: u64, shards: u32, rate: f64) -> u64 {
    use optchain_tan::hash::splitmix64;
    let mut s = splitmix64(base);
    s = splitmix64(s ^ shards as u64);
    s = splitmix64(s ^ rate.to_bits());
    s
}

/// Fans a grid of `(strategy × shards × rate)` cells out across all
/// cores against one shared stream, with deterministic per-cell RNG
/// seeding ([`derive_seed`], via [`sim_config`]). Results match `specs`'
/// order.
///
/// # Panics
///
/// Panics if a cell's configuration is invalid or the stream is shorter
/// than the cell requires — experiment binaries construct valid grids.
pub fn run_grid(specs: &[RunSpec], txs: &[Transaction], base_seed: u64) -> Vec<SimMetrics> {
    par_map(specs, |spec| {
        let config = sim_config(spec.shards, spec.rate, txs.len() as u64, base_seed);
        Simulation::run_on(config, spec.strategy, txs).expect("experiment config is valid")
    })
}

/// Formats a count with thousands separators for table cells.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Percentage with two decimals, e.g. `9.28 %`.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.2} %", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn fmt_pct_matches_paper_style() {
        assert_eq!(fmt_pct(0.0928), "9.28 %");
    }

    #[test]
    fn sim_config_scales_windows() {
        let c = sim_config(8, 2_000.0, 40_000, 1);
        assert_eq!(c.n_shards, 8);
        assert!((c.commit_window_s - 1.0).abs() < 1e-9);
        assert!(c.queue_sample_s > 0.0);
    }

    #[test]
    fn derive_seed_depends_only_on_cell_coordinates() {
        assert_eq!(derive_seed(1, 8, 4_000.0), derive_seed(1, 8, 4_000.0));
        assert_ne!(derive_seed(1, 8, 4_000.0), derive_seed(2, 8, 4_000.0));
        assert_ne!(derive_seed(1, 8, 4_000.0), derive_seed(1, 16, 4_000.0));
        assert_ne!(derive_seed(1, 8, 4_000.0), derive_seed(1, 8, 6_000.0));
    }

    #[test]
    fn sim_config_seeds_cells_consistently_across_callers() {
        // The same (shards, rate) cell must carry the same consensus seed
        // no matter which figure binary builds it.
        let a = sim_config(8, 2_000.0, 10_000, 42);
        let b = sim_config(8, 2_000.0, 50_000, 42);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, sim_config(16, 2_000.0, 10_000, 42).seed);
    }

    #[test]
    fn run_grid_is_deterministic_and_ordered() {
        let txs = shared_workload(3_000, 7);
        let specs = [
            RunSpec::new(Strategy::OmniLedger, 2, 800.0),
            RunSpec::new(Strategy::OmniLedger, 4, 800.0),
        ];
        let a = run_grid(&specs, &txs, 7);
        let b = run_grid(&specs, &txs, 7);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].per_shard_committed.len(), 2);
        assert_eq!(a[1].per_shard_committed.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.committed, y.committed);
            assert!((x.makespan_s - y.makespan_s).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_runs_preserves_order() {
        let txs = shared_workload(2_000, 7);
        let jobs: Vec<u32> = vec![2, 4];
        let results = parallel_runs(jobs, |k| {
            let mut config = optchain_sim::SimConfig::small();
            config.total_txs = 2_000;
            config.n_shards = *k;
            Simulation::run_on(config, Strategy::OmniLedger, &txs).unwrap()
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].per_shard_committed.len(), 2);
        assert_eq!(results[1].per_shard_committed.len(), 4);
    }
}
