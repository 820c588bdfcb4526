//! Experiment harness for the OptChain reproduction.
//!
//! One binary, `reproduce`, renders every table and figure of the paper
//! plus this reproduction's ablations and extensions
//! (`cargo run --release -p optchain-bench --bin reproduce -- <name|all>`).
//! The names are the rows of [`figures::FIGURES`]:
//!
//! | name | reproduces |
//! |------|------------|
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
//! | `ablation_window` | retention window (bounded router state) |
//! | `ext_rapidchain` | OmniLedger lock vs RapidChain yank protocol |
//! | `ext_failures` | leader failures and view changes |
//! | `ext_streaming` | LDG / Fennel streaming-partitioning baselines |
//!
//! `reproduce` accepts `--txs N`, `--seed N`, `--horizon S` and `--full`
//! (paper-scale stream lengths); see [`Opts`]. Every table is pinned at
//! `--txs 20000 --horizon 1` under `crates/bench/golden/`
//! (`tests/golden.rs`). `rebalance_curve` sweeps the rebalancer's
//! migration budget (PERF.md §9) and gates itself.
//!
//! This crate reproduces the paper; it does not measure the system.
//! Throughput, latency, memory and per-layer cost are measured by the
//! repo benchmark (`benchmark/run.sh`, gated in CI through
//! `scripts/bench_gate.py`). [`naive`] stays as the reference
//! `optchain-core`'s `golden_place` compares the optimized placer to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod naive;

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Mutex;

use optchain_sim::{SimConfig, SimMetrics, Simulation, Strategy};
use optchain_utxo::Transaction;
use optchain_workload::{WorkloadConfig, WorkloadGenerator};

/// Command-line options shared by every table and figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Stream length for replay-style experiments.
    pub txs: u64,
    /// Simulated injection horizon for rate-driven figures, seconds: a
    /// cell at rate `r` receives `r × horizon` transactions so queueing
    /// dynamics have time to develop.
    pub horizon_s: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Opts {
    /// Parses `--txs N`, `--seed N`, `--horizon S` and `--full` (paper
    /// scale: 2M txs, a 300 s horizon). An explicit `--txs` or
    /// `--horizon` wins over `--full` wherever it appears.
    ///
    /// # Errors
    ///
    /// An unknown flag or a missing or malformed value.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        fn value<T: FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
            v.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a number"))
        }
        let (mut txs, mut horizon_s, mut full, mut seed) = (None, None, false, 0xB17C04);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--txs" => txs = Some(value(&arg, args.next())?),
                "--seed" => seed = value(&arg, args.next())?,
                "--horizon" => horizon_s = Some(value(&arg, args.next())?),
                "--full" => full = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Opts {
            txs: txs.unwrap_or(if full { 2_000_000 } else { 200_000 }),
            horizon_s: horizon_s.unwrap_or(if full { 300.0 } else { 60.0 }),
            seed,
        })
    }
}

/// Generates the shared Bitcoin-like stream every strategy is compared
/// on (identical streams per the paper's methodology).
pub(crate) fn shared_workload(n: u64, seed: u64) -> Vec<Transaction> {
    WorkloadGenerator::new(WorkloadConfig::bitcoin_like().with_seed(seed))
        .take(n as usize)
        .collect()
}

/// A paper-configured [`SimConfig`] scaled to `total_txs` at `tx_rate`,
/// with the commit window scaled so runs produce ~20 windows.
pub(crate) fn sim_config(n_shards: u32, tx_rate: f64, total_txs: u64, seed: u64) -> SimConfig {
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
pub(crate) fn cell_txs(rate: f64, opts: &Opts) -> u64 {
    ((rate * opts.horizon_s) as u64).clamp(20_000, 3_000_000)
}

/// Maps `run` over `jobs` across the configured worker count
/// (work-stealing via a shared cursor), preserving input order in the
/// output. The registry `rayon` crate is unavailable offline, so the
/// pool is built on `std::thread::scope`. The pool size defaults to all
/// CPUs and is pinned with the `OPTCHAIN_THREADS` environment variable
/// ([`optchain_partition::configured_threads`], which also sizes the
/// partitioner's parallel branches).
pub(crate) fn par_map<J, R, F>(jobs: &[J], run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Send + Sync,
{
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = optchain_partition::configured_threads().min(jobs.len().max(1));
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

/// Deterministic per-cell simulation seed: mixes the base seed with the
/// cell's coordinates, so a run's RNG stream depends only on *what* the
/// cell is — never on scheduling order, worker count, or how many other
/// cells a grid contains. The strategy is deliberately **not** mixed in:
/// strategies compared at the same `(shards, rate)` must share network
/// and consensus randomness, as the paper's methodology requires.
/// [`sim_config`] applies this to every experiment config, which is what
/// lets [`Lab`] simulate a cell once for every figure that shows it.
pub(crate) fn derive_seed(base: u64, shards: u32, rate: f64) -> u64 {
    use optchain_tan::hash::splitmix64;
    let mut s = splitmix64(base);
    s = splitmix64(s ^ shards as u64);
    s = splitmix64(s ^ rate.to_bits());
    s
}

/// What the tables and figures are rendered from: the options and a
/// memo of simulator cells.
pub struct Lab {
    /// Options every table is rendered at.
    pub opts: Opts,
    /// `(shards, rate bits)` → one run per [`Strategy::figure_set`] entry.
    cells: HashMap<(u32, u64), Vec<SimMetrics>>,
}

impl Lab {
    /// A lab with nothing simulated yet.
    pub fn new(opts: Opts) -> Self {
        Lab {
            opts,
            cells: HashMap::new(),
        }
    }

    /// The figure strategies' runs at `(shards, rate)`, in
    /// [`Strategy::figure_set`] order, simulated first unless memoized.
    pub(crate) fn cells(&mut self, shards: u32, rate: f64) -> &mut [SimMetrics] {
        self.run_cells(rate, &[shards]);
        self.cells
            .get_mut(&(shards, rate.to_bits()))
            .expect("run_cells memoized the cell")
    }

    /// Simulates every figure strategy at `rate` on each of `shards` not
    /// yet memoized, in parallel over one stream of [`cell_txs`] transactions.
    /// A cell's config depends only on its coordinates ([`sim_config`]),
    /// so a memoized run is the one a fresh simulation would produce.
    /// Latencies are sorted here, so `max_latency` / `fraction_within`
    /// never reorder what another figure's `mean_latency` sums.
    pub(crate) fn run_cells(&mut self, rate: f64, shards: &[u32]) {
        let missing: Vec<u32> = shards
            .iter()
            .copied()
            .filter(|&k| !self.cells.contains_key(&(k, rate.to_bits())))
            .collect();
        if missing.is_empty() {
            return;
        }
        // Strategy-major, as the per-figure grids always ran: which runs
        // share the cores at a time sets the peak memory, and shard-major
        // pairs peaked ~5 % higher on fig 3.
        let jobs: Vec<(Strategy, u32)> = Strategy::figure_set()
            .iter()
            .flat_map(|&s| missing.iter().map(move |&k| (s, k)))
            .collect();
        let (n, seed) = (cell_txs(rate, &self.opts), self.opts.seed);
        let txs = shared_workload(n, seed);
        let runs = par_map(&jobs, |&(strategy, k)| {
            let config = sim_config(k, rate, n, seed);
            let mut m =
                Simulation::run_on(config, strategy, &txs).expect("experiment config is valid");
            m.latencies.freeze();
            m
        });
        let mut cells = vec![Vec::new(); missing.len()];
        for (i, m) in runs.into_iter().enumerate() {
            cells[i % missing.len()].push(m);
        }
        for (k, runs) in missing.into_iter().zip(cells) {
            self.cells.insert((k, rate.to_bits()), runs);
        }
    }

    /// Simulations run so far: four per memoized cell.
    pub fn simulations(&self) -> usize {
        self.cells.values().map(Vec::len).sum()
    }
}

/// Formats a count with thousands separators for table cells.
pub(crate) fn fmt_count(n: u64) -> String {
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
pub(crate) fn fmt_pct(fraction: f64) -> String {
    format!("{:.2} %", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &str) -> Result<Opts, String> {
        Opts::from_args(args.split_whitespace().map(String::from))
    }

    #[test]
    fn explicit_flags_win_over_full_in_any_order() {
        let ok = |txs, horizon_s, seed| {
            Ok(Opts {
                txs,
                horizon_s,
                seed,
            })
        };
        assert_eq!(opts(""), ok(200_000, 60.0, 0xB17C04));
        assert_eq!(opts("--full"), ok(2_000_000, 300.0, 0xB17C04));
        assert_eq!(opts("--horizon 5 --full"), ok(2_000_000, 5.0, 0xB17C04));
        assert_eq!(opts("--full --horizon 5"), ok(2_000_000, 5.0, 0xB17C04));
        assert_eq!(opts("--txs 20000 --full --seed 7"), ok(20_000, 300.0, 7));
        assert_eq!(opts("--seed 7 --full --txs 20000"), ok(20_000, 300.0, 7));
        assert_eq!(opts("--txs"), Err("--txs needs a number".into()));
        assert_eq!(opts("--seed x"), Err("--seed needs a number".into()));
        assert_eq!(opts("fig5"), Err("unknown flag fig5".into()));
    }

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
        // no matter which figure builds it.
        let a = sim_config(8, 2_000.0, 10_000, 42);
        let b = sim_config(8, 2_000.0, 50_000, 42);
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, sim_config(16, 2_000.0, 10_000, 42).seed);
    }

    #[test]
    fn run_grid_is_deterministic_and_ordered() {
        // A grid run in one batch equals its cells run one at a time, and
        // a memoized cell is never simulated twice.
        let opts = Opts {
            txs: 3_000,
            horizon_s: 0.0,
            seed: 7,
        };
        let (mut grid, mut single) = (Lab::new(opts), Lab::new(opts));
        grid.run_cells(800.0, &[2, 4]);
        assert_eq!(grid.simulations(), 8);
        for k in [2u32, 4] {
            let (a, b) = (grid.cells(k, 800.0), single.cells(k, 800.0));
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.strategy, y.strategy);
                assert_eq!(x.per_shard_committed.len(), k as usize);
                assert_eq!(x.committed, y.committed);
                assert_eq!(x.makespan_s.to_bits(), y.makespan_s.to_bits());
            }
        }
        assert_eq!(grid.simulations(), 8);
    }

    #[test]
    fn parallel_runs_preserves_order() {
        let jobs: Vec<u32> = (0..50).collect();
        assert_eq!(
            par_map(&jobs, |j| j * 2),
            (0..50).map(|j| j * 2).collect::<Vec<_>>()
        );
    }
}
