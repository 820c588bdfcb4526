//! The paper's tables and figures, and this reproduction's ablations and
//! extensions, as text: one renderer per row of [`FIGURES`] (described
//! in the crate docs), each returning what `reproduce <name>` prints and
//! documenting what the paper reports.
//!
//! The simulator figures read their cells from one [`Lab`] memo, so figs
//! 4, 8 and 9 are views of fig 3's grid, and figs 5, 6, 7 and 10 of its
//! 6000 tps / 16-shard cell.

use std::iter::once;

use optchain_core::replay::{replay, replay_router, ReplayOutcome};
use optchain_core::L2sMode::{PaperSelfConvolution, VerifyPlusCommit};
use optchain_core::{FennelPlacer, LdgPlacer, RetentionPolicy, Router, RouterBuilder};
use optchain_metrics::{fmt_f, Table};
use optchain_partition::{partition_kway, CsrGraph};
use optchain_sim::CrossShardProtocol::{OmniLedgerLock, RapidChainYank};
use optchain_sim::Strategy::{Greedy, Metis, OmniLedger, OptChain, T2s};
use optchain_sim::{SimConfig, SimMetrics, Simulation, Strategy, TelemetryFidelity};
use optchain_tan::stats::{windowed_average_degree, TanStats};
use optchain_tan::TanGraph;
use optchain_workload::{SpamEpisode, WorkloadConfig, WorkloadGenerator};

use crate::{cell_txs, fmt_count, fmt_pct, par_map, shared_workload, sim_config, Lab, Opts};

/// Renders one table or figure from the lab's stream and cells.
pub type Renderer = fn(&mut Lab) -> String;

/// Every name `reproduce` accepts, in the order `reproduce all` prints
/// them: fig 3 before the figures that reuse its cells, and fig 11, the
/// largest run outside them, before fig 3 so that it never shares the
/// process with the memo.
pub const FIGURES: &[(&str, Renderer)] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig11", fig11),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablation_alpha", ablation_alpha),
    ("ablation_weight", ablation_weight),
    ("ablation_l2s", ablation_l2s),
    ("ablation_telemetry", ablation_telemetry),
    ("ablation_window", ablation_window),
    ("ext_rapidchain", ext_rapidchain),
    ("ext_failures", ext_failures),
    ("ext_streaming", ext_streaming),
];

const RATES: [f64; 5] = [2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0];

/// The paper's best shard count for each of [`RATES`].
const BEST_SHARDS: [u32; 5] = [6, 8, 10, 14, 16];

/// Shard counts of Tables I and II.
const TABLE_KS: [u32; 5] = [4, 8, 16, 32, 64];

/// Shards and rate of the cell figs 5–7, 10 and the L2S / telemetry
/// ablations run at.
const HOT: (u32, f64) = (16, 6_000.0);

fn hot_config(opts: &Opts) -> SimConfig {
    sim_config(HOT.0, HOT.1, cell_txs(HOT.1, opts), opts.seed)
}

/// A strategy's column header (the paper's names).
fn column(strategy: Strategy) -> &'static str {
    match strategy {
        T2s => "T2S-based",
        s => s.label(),
    }
}

/// A table whose leading `first` columns are followed by one column per
/// figure strategy.
fn by_strategy(first: &[&str]) -> Table {
    let strategies = Strategy::figure_set().map(column);
    Table::new(first.iter().copied().chain(strategies))
}

fn builder(k: u32, strategy: Strategy, n: u64) -> RouterBuilder {
    Router::builder()
        .shards(k)
        .strategy(strategy)
        .expected_total(n)
}

/// A `[first, cross-TXs, size ratio]` table, one row per labelled replay.
fn replay_table(first: &str, rows: impl IntoIterator<Item = (String, ReplayOutcome)>) -> Table {
    let mut table = Table::new([first, "cross-TXs", "size ratio"]);
    for (label, outcome) in rows {
        let cross = fmt_pct(outcome.cross_fraction());
        table.row([label, cross, format!("{:.2}", outcome.size_ratio())]);
    }
    table
}

/// Paper (first 10M Bitcoin txs, k = 4…64): Metis 1.66–9.91 %, Greedy
/// 24.62–28.97 %, OmniLedger 80.82–98.18 %, T2S-based 9.28–21.65 %.
fn table1(lab: &mut Lab) -> String {
    let Opts { txs: n, seed, .. } = lab.opts;
    let txs = &shared_workload(n, seed);
    let csr = CsrGraph::from_tan(&TanGraph::from_transactions(txs.iter()));
    let strategies = [Metis, Greedy, OmniLedger, T2s, OptChain];
    let rows = par_map(&TABLE_KS, |&k| {
        let mut memo = (0, 0);
        let cells = strategies.map(|strategy| {
            let mut router = builder(k, strategy, n);
            if strategy == Metis {
                router = router.oracle(partition_kway(&csr, k, 0.1, seed));
            }
            let mut router = router.build();
            let cross = replay_router(txs, &mut router).cross_fraction();
            if strategy == OptChain {
                memo = router.l2s_memo_stats();
            }
            fmt_pct(cross)
        });
        let (hits, misses) = memo;
        let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        let memo = format!("  k={k:<2}  {hits} hits / {misses} misses ({rate:.1} % hit rate)\n");
        (once(k.to_string()).chain(cells).collect::<Vec<_>>(), memo)
    });
    let mut table = Table::new(once("k").chain(strategies.map(column)));
    let mut memo = String::new();
    for (row, line) in rows {
        table.row(row);
        memo += &line;
    }
    format!(
        "Table I: % cross-TXs from scratch ({} synthetic txs, seed {seed:#x})\n\n{table}\n\
         (OptChain column added beyond the paper: Table I only lists T2S-based.)\n\n\
         OptChain session L2S memo:\n{memo}",
        fmt_count(n)
    )
}

/// Paper: 1M txs placed after a Metis-partitioned 30M (k = 4…64: Greedy
/// 335k–454k, OmniLedger 837k–988k, T2S-based 113k–367k cross-TXs).
fn table2(lab: &mut Lab) -> String {
    let (prefix_n, seed) = (lab.opts.txs, lab.opts.seed);
    let delta_n = (prefix_n / 8).max(10_000);
    let txs = shared_workload(prefix_n + delta_n, seed);
    let (prefix, delta) = txs.split_at(prefix_n as usize);
    let prefix_tan = TanGraph::from_transactions(prefix.iter());
    let csr = CsrGraph::from_tan(&prefix_tan);
    let strategies = [Greedy, OmniLedger, T2s, OptChain];
    let rows = par_map(&TABLE_KS, |&k| {
        let warm = partition_kway(&csr, k, 0.1, seed);
        let cells = strategies.map(|strategy| {
            let mut router = builder(k, strategy, prefix_n + delta_n).build();
            router.warm_start_history(&prefix_tan, &warm).unwrap();
            fmt_count(replay_router(delta, &mut router).cross)
        });
        once(k.to_string()).chain(cells).collect::<Vec<_>>()
    });
    let mut table = Table::new(once("k").chain(strategies.map(column)));
    for row in rows {
        table.row(row);
    }
    format!(
        "Table II: cross-TXs placing {} new txs after a Metis-partitioned prefix of {}\n\n\
         {table}\n(OptChain column added beyond the paper: Table II only lists T2S-based.)\n",
        fmt_count(delta_n),
        fmt_count(prefix_n),
    )
}

/// Paper (298M-node Bitcoin TaN): power-law degrees, average ≈ 2.3,
/// stable except at bootstrap and the 2015 spam bump (recreated here).
fn fig2(lab: &mut Lab) -> String {
    let n = lab.opts.txs as usize;
    let spam = SpamEpisode {
        start: n * 6 / 10,
        len: n / 50,
        sweep_inputs: 40,
        sweep_probability: 0.5,
    };
    let config = WorkloadConfig::bitcoin_like().with_seed(lab.opts.seed);
    let generator = WorkloadGenerator::new(config.with_spam(spam));
    let txs: Vec<_> = generator.take(n).collect();
    let tan = TanGraph::from_transactions(txs.iter());
    let s = TanStats::compute(&tan);
    let (ins, outs) = (&s.in_degree, &s.out_degree);
    let mut dist = Table::new(["degree", "in-degree nodes", "out-degree nodes"]);
    for d in [0u64, 1, 2, 3, 5, 10, 20, 50, 100] {
        let (i, o) = (fmt_count(ins.count_of(d)), fmt_count(outs.count_of(d)));
        dist.row([d.to_string(), i, o]);
    }
    let mut cum = Table::new(["degree", "in-degree", "out-degree"]);
    for d in [1u64, 2, 3, 5, 10, 20, 50] {
        let i = ins.cumulative_fraction_below(d);
        let o = outs.cumulative_fraction_below(d);
        cum.row([d.to_string(), format!("{i:.4}"), format!("{o:.4}")]);
    }
    let mut series = Table::new(["after tx", "window avg degree"]);
    for (at, avg) in windowed_average_degree(&tan, n / 20) {
        series.row([fmt_count(at as u64), format!("{avg:.2}")]);
    }
    let slope = ins.power_law_slope().map_or(String::new(), |v| {
        format!("in-degree log-log slope   {v:.2} (power-law exponent)\n")
    });
    let pct = |fraction: f64| format!("{:.1} %", 100.0 * fraction);
    format!(
        "Fig 2: TaN statistics over {} synthetic txs ({} edges)\n\n\
         average degree            {:.2}   (paper: 2.3)\n\
         in-degree  < 3            {} (paper: 93.1 %)\n\
         out-degree < 3            {} (paper: 86.3 %)\n\
         out-degree < 10           {} (paper: 97.6 %)\n\
         coinbase txs              {}\n\
         unspent-frontier txs      {}\n\
         isolated txs              {}\n\
         {slope}\nFig 2a: degree distribution (count of nodes per degree)\n{dist}\n\
         Fig 2b: cumulative fraction of nodes below degree\n{cum}\n\
         Fig 2c: average degree per window of {} txs\n{series}\n\
         (the bump near {} is the injected spam episode)\n",
        fmt_count(s.node_count as u64),
        fmt_count(s.edge_count),
        s.average_degree,
        pct(s.in_degree_fraction_below(3)),
        pct(s.out_degree_fraction_below(3)),
        pct(s.out_degree_fraction_below(10)),
        fmt_count(s.coinbase_count as u64),
        fmt_count(s.unspent_count as u64),
        fmt_count(s.isolated_count as u64),
        fmt_count((n / 20) as u64),
        fmt_count((n * 6 / 10) as u64),
    )
}

/// One table cell of a simulator run.
type Metric = fn(&mut SimMetrics) -> String;

const MEAN_LATENCY: Metric = |m| fmt_f(m.mean_latency(), 1);
const STEADY_THROUGHPUT: Metric = |m| fmt_f(m.steady_throughput(), 0);

/// Paper: only OptChain tracks the offered rate (at [`BEST_SHARDS`]);
/// OmniLedger needs 16 shards for 3000 tps; Metis never tracks it.
fn fig3(lab: &mut Lab) -> String {
    let shards = [4u32, 6, 8, 10, 12, 14, 16];
    for rate in RATES {
        lab.run_cells(rate, &shards);
    }
    let horizon = lab.opts.horizon_s;
    let mut out =
        format!("Fig 3: latency / throughput grids ({horizon:.0}s of injected load per cell)\n\n");
    let header = ["shards\\rate", "2000", "3000", "4000", "5000", "6000"];
    for (si, strategy) in Strategy::figure_set().iter().enumerate() {
        let (mut lat, mut tput) = (Table::new(header), Table::new(header));
        for k in shards {
            let mut row = |metric: Metric| {
                once(k.to_string()).chain(RATES.map(|rate| metric(&mut lab.cells(k, rate)[si])))
            };
            lat.row(row(MEAN_LATENCY));
            tput.row(row(STEADY_THROUGHPUT));
        }
        let label = strategy.label();
        out +=
            &format!("── {label} ──\nmean latency (s):\n{lat}\nsteady throughput (tps):\n{tput}\n");
    }
    out
}

/// Figs 4, 8 and 9: one metric of every figure strategy at 16 shards
/// across the rates (a), then at the paper's best shard counts (b).
fn rate_tables(lab: &mut Lab, a: &str, b: &str, metric: Metric) -> String {
    let mut table = by_strategy(&["rate"]);
    for rate in RATES {
        let cells = lab.cells(16, rate).iter_mut().map(metric);
        table.row(once(format!("{rate:.0}")).chain(cells));
    }
    let mut best = by_strategy(&["rate", "shards"]);
    for (rate, k) in RATES.into_iter().zip(BEST_SHARDS) {
        let cells = lab.cells(k, rate).iter_mut().map(metric);
        best.row(
            [format!("{rate:.0}"), k.to_string()]
                .into_iter()
                .chain(cells),
        );
    }
    let horizon = lab.opts.horizon_s;
    format!("{a} ({horizon:.0}s of injected load per cell)\n\n{table}\n{b}\n{best}\n")
}

/// Paper: at the best configs OptChain's maximum is ~34 %/31 %/17 %
/// above OmniLedger/Metis/Greedy; OmniLedger flattens around 3000 tps.
fn fig4(lab: &mut Lab) -> String {
    rate_tables(
        lab,
        "Fig 4a: steady throughput (tps) at 16 shards vs transaction rate",
        "Fig 4b: max throughput at the paper's (rate, #shards) pairs",
        STEADY_THROUGHPUT,
    )
}

/// Paper: OptChain, OmniLedger and Greedy commit a near-constant number
/// per window; Metis is slow early and oscillates.
fn fig5(lab: &mut Lab) -> String {
    let window_s = hot_config(&lab.opts).commit_window_s;
    let runs = lab.cells(HOT.0, HOT.1);
    let counts: Vec<Vec<u64>> = runs.iter().map(|m| m.commits_per_window.counts()).collect();
    let mut table = by_strategy(&["window start (s)"]);
    for w in 0..counts.iter().map(Vec::len).max().unwrap_or(0) {
        let cells = counts
            .iter()
            .map(|c| c.get(w).copied().unwrap_or(0).to_string());
        table.row(once(format!("{:.0}", w as f64 * window_s)).chain(cells));
    }
    let mut out = format!(
        "Fig 5: committed txs per {window_s:.0}-second window at 6000 tps / 16 shards\n\n{table}\n"
    );
    for m in runs.iter() {
        let (strategy, committed, injected) = (m.strategy, m.committed, m.injected);
        let (committed, injected) = (fmt_count(committed), fmt_count(injected));
        let makespan = m.makespan_s;
        out += &format!(
            "{strategy:<12} committed {committed} of {injected} (makespan {makespan:.0}s)\n"
        );
    }
    out
}

/// Paper peak queues: Metis ~507k (while starving other shards),
/// OmniLedger 499k (unbounded growth), Greedy 230k, OptChain ~44k.
fn fig6(lab: &mut Lab) -> String {
    let sample_s = hot_config(&lab.opts).queue_sample_s;
    let mut out = format!(
        "Fig 6: max/min shard queue sizes over time at 6000 tps / 16 shards \
         (sample every {sample_s:.1}s)\n\n"
    );
    for m in lab.cells(HOT.0, HOT.1).iter() {
        let mut table = Table::new(["t (s)", "max queue", "min queue"]);
        for (max, min) in m.queue_max.bins().iter().zip(m.queue_min.bins()) {
            if !max.is_empty() {
                table.row([max.start, max.max, min.min].map(|v| format!("{v:.0}")));
            }
        }
        let (strategy, peak) = (m.strategy, fmt_count(m.peak_queue));
        out += &format!("── {strategy} ──\n{table}\npeak queue: {peak}\n\n");
    }
    out
}

/// Paper: Metis and Greedy show enormous ratios (starved shards);
/// OptChain and OmniLedger stay near 1.
fn fig7(lab: &mut Lab) -> String {
    let sample_s = hot_config(&lab.opts).queue_sample_s;
    let runs = lab.cells(HOT.0, HOT.1);
    let bins = runs.iter().map(|m| m.queue_ratio.bins().len());
    let mut table = by_strategy(&["t (s)"]);
    for b in 0..bins.max().unwrap_or(0) {
        let ratio = |m: &SimMetrics| {
            let bin = m.queue_ratio.bins().get(b).filter(|bin| !bin.is_empty())?;
            Some(format!("{:.1}", bin.max))
        };
        if runs.iter().any(|m| ratio(m).is_some()) {
            let cells = runs.iter().map(|m| ratio(m).unwrap_or_else(|| "-".into()));
            table.row(once(format!("{:.0}", b as f64 * sample_s)).chain(cells));
        }
    }
    let mut out =
        format!("Fig 7: max/min queue-size ratio over time at 6000 tps / 16 shards\n\n{table}\n");
    for m in runs.iter() {
        // The instantaneous ratio spikes whenever some queue drains to
        // zero between blocks, so summarize with the median (persistent
        // imbalance) alongside the worst spike.
        let bins = m.queue_ratio.bins().iter().filter(|b| !b.is_empty());
        let mut means: Vec<f64> = bins.map(|b| b.mean()).collect();
        means.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let median = means.get(means.len() / 2).copied().unwrap_or(1.0);
        let worst = means.last().copied().unwrap_or(1.0);
        let strategy = m.strategy;
        out += &format!("{strategy:<12} median ratio {median:>8.1}   worst window {worst:>9.1}\n");
    }
    out
}

/// Paper: OptChain stays below ~10.5 s; OmniLedger reaches 346 s at
/// 6000 tps / 16 shards; Metis is always high despite few cross-TXs.
fn fig8(lab: &mut Lab) -> String {
    rate_tables(
        lab,
        "Fig 8a: mean confirmation latency (s) at 16 shards",
        "Fig 8b: mean latency at the paper's (rate, #shards) pairs",
        MEAN_LATENCY,
    )
}

/// Paper at 6000 tps / 16 shards: OptChain ≤ ~101 s, OmniLedger/Metis/
/// Greedy 1309/1346/629 s.
fn fig9(lab: &mut Lab) -> String {
    rate_tables(
        lab,
        "Fig 9a: maximum confirmation latency (s) at 16 shards",
        "Fig 9b: maximum latency at the paper's (rate, #shards) pairs",
        |m| fmt_f(m.max_latency(), 1),
    )
}

/// Paper: within 10 s, OptChain ~70 %, Greedy 41.2 %, OmniLedger 7.9 %,
/// Metis 2.4 %.
fn fig10(lab: &mut Lab) -> String {
    let runs = lab.cells(HOT.0, HOT.1);
    let mut table = by_strategy(&["latency (s)"]);
    for p in (1..=20).map(|i| i as f64 * 5.0) {
        let cells = runs.iter_mut().map(|m| m.fraction_within(p));
        table.row(once(format!("{p:.0}")).chain(cells.map(|f| format!("{f:.3}"))));
    }
    let mut out = format!(
        "Fig 10: latency CDF at 6000 tps / 16 shards\n\n{table}\n\
         fraction confirmed within 10 s (paper: 0.70 / 0.079 / 0.024 / 0.412):\n"
    );
    for m in runs.iter_mut() {
        let within = m.fraction_within(10.0);
        out += &format!("  {:<12} {within:.3}\n", m.strategy);
    }
    out
}

/// Paper: near-linear in the shard count, over 20,000 tps at 62 shards,
/// latency never above 11 s while sustained.
fn fig11(lab: &mut Lab) -> String {
    let (probe_s, seed) = (lab.opts.horizon_s.min(40.0), lab.opts.seed);
    let mut table = Table::new(["shards", "max rate (tps)", "mean latency (s)", "tps/shard"]);
    let mut sustained = 0.0;
    for k in [4u32, 8, 16, 24, 32, 48, 62] {
        // Binary search between 500 and 40,000 tps.
        let (mut lo, mut hi, mut best_latency) = (500.0f64, 40_000.0f64, 0.0);
        for _ in 0..7 {
            let rate = (lo + hi) / 2.0;
            // Probe streams scale with the probed rate (capped for memory).
            let n = ((rate * probe_s) as u64).clamp(20_000, 1_200_000);
            let config = sim_config(k, rate, n, seed);
            let block_txs = config.block_txs;
            let txs = shared_workload(n, seed);
            let m = Simulation::run_on(config, OptChain, &txs).expect("valid config");
            if m.steady_throughput() >= rate * 0.93 && m.backlog <= (k * block_txs) as u64 {
                best_latency = m.mean_latency();
                lo = rate;
            } else {
                hi = rate;
            }
        }
        let per_shard = lo / k as f64;
        table.row([
            k.to_string(),
            format!("{lo:.0}"),
            format!("{best_latency:.1}"),
            format!("{per_shard:.0}"),
        ]);
        sustained = lo;
    }
    format!(
        "Fig 11: OptChain max sustainable rate vs #shards ({probe_s:.0}s probes)\n\n{table}\n\
         at 62 shards OptChain sustains {} tps (paper: >20,000 at 62 shards; \
         absolute capacity depends on the consensus substrate — the shape to check \
         is near-linear scaling)\n",
        fmt_count(sustained as u64)
    )
}

/// The paper fixes α = 0.5 without a sensitivity study.
fn ablation_alpha(lab: &mut Lab) -> String {
    let txs = &shared_workload(lab.opts.txs, lab.opts.seed);
    let n = txs.len() as u64;
    let rows = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0].map(|alpha| {
        let mut router = builder(16, T2s, n).alpha(alpha).build();
        (format!("{alpha:.2}"), replay_router(txs, &mut router))
    });
    format!(
        "Ablation: T2S damping factor α at 16 shards ({} txs)\n\n{}\n\
         (the paper's choice is α = 0.5)\n",
        fmt_count(n),
        replay_table("alpha", rows)
    )
}

/// Algorithm 1 hardcodes the L2S weight at 0.01.
fn ablation_weight(lab: &mut Lab) -> String {
    let txs = &shared_workload(lab.opts.txs, lab.opts.seed);
    let rows = [0.0, 0.001, 0.01, 0.1, 1.0, 10.0].map(|weight| {
        let mut router = Router::builder().shards(16).l2s_weight(weight).build();
        (format!("{weight}"), replay_router(txs, &mut router))
    });
    format!(
        "Ablation: L2S weight in the temporal fitness at 16 shards ({} txs)\n\n{}\n\
         (the paper's constant is 0.01; weight 0 disables load awareness)\n",
        fmt_count(txs.len() as u64),
        replay_table("weight", rows)
    )
}

/// Algorithm 1's literal self-convolution vs the verify+commit reading
/// this reproduction defaults to (`optchain_core::L2sMode` says why).
fn ablation_l2s(lab: &mut Lab) -> String {
    let config = hot_config(&lab.opts);
    let txs = &shared_workload(config.total_txs, lab.opts.seed);
    let mut table = Table::new([
        "L2S mode",
        "cross-TXs",
        "mean latency (s)",
        "max latency (s)",
        "peak queue",
        "L2S memo hits",
    ]);
    for (label, mode) in [
        ("verify+commit (default)", VerifyPlusCommit),
        ("self-convolution (paper text)", PaperSelfConvolution),
    ] {
        let router = Router::builder().shards(16).l2s_mode(mode).build();
        let mut m = Simulation::run_with_router(config.clone(), txs, router).expect("valid config");
        table.row([
            label.to_string(),
            fmt_pct(m.cross_fraction()),
            fmt_f(m.mean_latency(), 1),
            fmt_f(m.max_latency(), 1),
            fmt_count(m.peak_queue),
            fmt_pct(m.l2s_memo_hit_rate()),
        ]);
    }
    format!(
        "Ablation: L2S mode at 6000 tps / 16 shards\n\n{table}\n\
         (memo hits: per-client session reuse of the L2S expansion across transactions)\n"
    )
}

/// Quantized telemetry reproduces the paper; raw per-shard noise
/// overrides the T2S signal.
fn ablation_telemetry(lab: &mut Lab) -> String {
    let config = hot_config(&lab.opts);
    let txs = &shared_workload(config.total_txs, lab.opts.seed);
    let mut table = Table::new(["telemetry", "cross-TXs", "mean latency (s)", "peak queue"]);
    for (label, telemetry_fidelity) in [
        ("quantized (default)", TelemetryFidelity::Quantized),
        ("raw per-shard", TelemetryFidelity::Raw),
    ] {
        let config = SimConfig {
            telemetry_fidelity,
            ..config.clone()
        };
        let m = Simulation::run_on(config, OptChain, txs).expect("valid config");
        let (cross, latency, peak) = (m.cross_fraction(), m.mean_latency(), m.peak_queue);
        table.row([
            label.to_string(),
            fmt_pct(cross),
            fmt_f(latency, 1),
            fmt_count(peak),
        ]);
    }
    format!("Ablation: telemetry fidelity for OptChain at 6000 tps / 16 shards\n\n{table}\n")
}

/// `RetentionPolicy::WindowTxs` bounds graph, score rows and assignments
/// together. The state column measures arena layout: a layout change
/// re-pins this table.
fn ablation_window(lab: &mut Lab) -> String {
    const K: u32 = 16;
    let txs = &shared_workload(lab.opts.txs, lab.opts.seed);
    let n = txs.len() as u64;
    let mut table = Table::new(["window (txs)", "cross-TXs", "state (MB, k=16)"]);
    for window in [Some(1_000usize), Some(10_000), Some(100_000), None] {
        let mut router = builder(K, T2s, n);
        if let Some(window) = window {
            router = router.retention(RetentionPolicy::WindowTxs(window));
        }
        let mut router = router.build();
        let cross = fmt_pct(replay_router(txs, &mut router).cross_fraction());
        // Graph arenas, assignment history and `k` score cells per live
        // transaction: everything the policy bounds.
        let assignments = router.assignments();
        let state_mb = (router.tan().arena_bytes()
            + assignments.state_bytes()
            + assignments.live_len() * K as usize * 4) as f64
            / 1e6;
        let window = window.map_or("unbounded".to_string(), |w| w.to_string());
        table.row([window, cross, format!("{state_mb:.1}")]);
    }
    let n = fmt_count(n);
    format!("Ablation: retention window at {K} shards ({n} txs)\n\n{table}\n")
}

/// A labelled change to a simulation config.
type Arm = (&'static str, fn(&mut SimConfig));

/// A table of OptChain and OmniLedger placement at 4000 tps / 16 shards,
/// two rows per `(label, change to the config)` arm: the arm (headed
/// `arm`), the placement, then `columns` of its run.
fn at_4000_tps(
    lab: &mut Lab,
    arm: &str,
    headers: [&str; 3],
    arms: &[Arm],
    columns: fn(&mut SimMetrics) -> [String; 3],
) -> Table {
    let (n, seed) = (cell_txs(4_000.0, &lab.opts), lab.opts.seed);
    let txs = &shared_workload(n, seed);
    let mut table = Table::new([arm, "placement"].into_iter().chain(headers));
    for &(label, arm) in arms {
        for strategy in [OptChain, OmniLedger] {
            let mut config = sim_config(16, 4_000.0, n, seed);
            arm(&mut config);
            let mut m = Simulation::run_on(config, strategy, txs).expect("valid config");
            let first = [label.to_string(), strategy.label().to_string()];
            table.row(first.into_iter().chain(columns(&mut m)));
        }
    }
    table
}

/// The paper predicts "a similar level of improvement … with other
/// sharding protocols such as Rapidchain".
fn ext_rapidchain(lab: &mut Lab) -> String {
    let headers = ["cross-TXs", "mean latency (s)", "throughput (tps)"];
    let arms: [Arm; 2] = [
        ("OmniLedger lock", |c| c.protocol = OmniLedgerLock),
        ("RapidChain yank", |c| c.protocol = RapidChainYank),
    ];
    let table = at_4000_tps(lab, "protocol", headers, &arms, |m| {
        let (cross, latency, tput) = (m.cross_fraction(), m.mean_latency(), m.steady_throughput());
        [fmt_pct(cross), fmt_f(latency, 1), fmt_f(tput, 0)]
    });
    format!(
        "Extension: cross-shard protocol comparison at 4000 tps / 16 shards\n\n{table}\n\
         (OptChain's gain carries over to the yanking protocol, as predicted)\n"
    )
}

/// Leader crashes and view changes, which the paper's BFT committees face
/// but its evaluation does not exercise.
fn ext_failures(lab: &mut Lab) -> String {
    let headers = ["mean latency (s)", "max latency (s)", "steady tput (tps)"];
    let arms: [Arm; 3] = [
        ("0 %", |c| c.leader_failure_rate = 0.0),
        ("2 %", |c| c.leader_failure_rate = 0.02),
        ("10 %", |c| c.leader_failure_rate = 0.10),
    ];
    let table = at_4000_tps(lab, "failure rate", headers, &arms, |m| {
        let (mean, max, tput) = (m.mean_latency(), m.max_latency(), m.steady_throughput());
        [fmt_f(mean, 1), fmt_f(max, 1), fmt_f(tput, 0)]
    });
    format!(
        "Extension: leader failures at 4000 tps / 16 shards\n\n{table}\n\
         (view changes cost 5 s + a consensus re-run; OptChain's advantage \
         persists because same-shard txs touch fewer committees)\n"
    )
}

/// The streaming partitioners the paper's Section II cites (Stanton &
/// Kliot; Abbas et al.) vs its strategies.
fn ext_streaming(lab: &mut Lab) -> String {
    let txs = &shared_workload(lab.opts.txs, lab.opts.seed);
    let n = txs.len() as u64;
    let mut out = format!(
        "Extension: streaming-partitioning baselines ({} txs)\n\n",
        fmt_count(n)
    );
    for k in [4u32, 16] {
        let built_in = |s: Strategy| replay_router(txs, &mut builder(k, s, n).build());
        // The streaming baselines go through the borrow-style `replay`
        // (`replay_router` is bit-identical to it, per `router_golden.rs`).
        let rows = [
            ("OptChain", built_in(OptChain)),
            ("T2S-based", built_in(T2s)),
            ("Greedy", built_in(Greedy)),
            ("LDG", replay(txs, &mut LdgPlacer::new(k, n))),
            ("Fennel", replay(txs, &mut FennelPlacer::new(k, n))),
            ("OmniLedger", built_in(OmniLedger)),
        ];
        let table = replay_table("strategy", rows.map(|(name, o)| (name.to_string(), o)));
        out += &format!("── k = {k} ──\n{table}\n");
    }
    out + "(LDG/Fennel minimize crossing edges under balance — the objective the \
           paper argues is not quite the right one for sharding)\n"
}
