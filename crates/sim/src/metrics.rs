//! Metrics collected by a simulation run — the raw material of every
//! figure in the paper's evaluation.

use optchain_metrics::{Cdf, TimeSeries};

/// Everything a simulation run measures.
///
/// * Fig 3/4: [`SimMetrics::throughput`] over configs;
/// * Fig 5: [`SimMetrics::commits_per_window`];
/// * Fig 6/7: [`SimMetrics::queue_max`], [`SimMetrics::queue_min`],
///   [`SimMetrics::queue_ratio`];
/// * Fig 8/9/10: [`SimMetrics::latencies`] (mean, max, CDF).
#[derive(Debug, Clone)]
pub struct SimMetrics {
    /// Strategy label the run was driven by.
    pub strategy: &'static str,
    /// Transactions injected.
    pub injected: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted by the cross-shard protocol.
    pub aborted: u64,
    /// Cross-shard transactions among the injected.
    pub cross_txs: u64,
    /// Transactions still queued when the run ended.
    pub backlog: u64,
    /// Time of the last commit, seconds.
    pub makespan_s: f64,
    /// Confirmation latency (submission → commit) of every committed
    /// transaction, seconds.
    pub latencies: Cdf,
    /// Committed transactions per window (Fig 5; window width from the
    /// config, 50 s at paper scale).
    pub commits_per_window: TimeSeries,
    /// Maximum shard queue length over time (Fig 6).
    pub queue_max: TimeSeries,
    /// Minimum shard queue length over time (Fig 6).
    pub queue_min: TimeSeries,
    /// `max/max(min,1)` queue ratio over time (Fig 7).
    pub queue_ratio: TimeSeries,
    /// Committed transactions per shard.
    pub per_shard_committed: Vec<u64>,
    /// Consensus blocks run per shard (including lock/yank work blocks).
    pub per_shard_blocks: Vec<u64>,
    /// Work items (transactions, locks, yanks) processed per shard.
    pub per_shard_items: Vec<u64>,
    /// Largest queue length ever sampled on any shard.
    pub peak_queue: u64,
    /// L2S memo hits summed over every client placement session (plus
    /// the router-level memo). Zero for strategies without an L2S phase.
    pub l2s_memo_hits: u64,
    /// L2S memo misses, same scope as [`SimMetrics::l2s_memo_hits`].
    pub l2s_memo_misses: u64,
    /// TaN nodes still resident in the router's graph at the end of the
    /// run (window + retained survivors; equals `injected` when the
    /// retention policy is unbounded).
    pub tan_live_nodes: u64,
    /// TaN nodes evicted by the retention policy over the run — the
    /// "evicted mass" a streaming deployment sheds instead of holding.
    pub tan_evicted_nodes: u64,
    /// Aged nodes the policy retained past the horizon (unspent
    /// frontier / hubs under `KeepUnspentAndHubs`).
    pub tan_retained_nodes: u64,
    /// Heap bytes owned by the router's TaN adjacency arenas at the end
    /// of the run.
    pub tan_arena_bytes: u64,
    /// Migration epochs committed by the router's rebalancer over the
    /// run (0 without one).
    pub rebalance_epochs_committed: u64,
    /// Hub nodes re-homed between shards by the rebalancer.
    pub rebalance_nodes_moved: u64,
    /// Estimated placement-state bytes migrated by those moves — the
    /// cost side of the re-sharding tradeoff curve.
    pub rebalance_bytes_migrated: u64,
}

impl SimMetrics {
    pub(crate) fn new(
        strategy: &'static str,
        n_shards: u32,
        commit_window_s: f64,
        queue_sample_s: f64,
    ) -> Self {
        SimMetrics {
            strategy,
            injected: 0,
            committed: 0,
            aborted: 0,
            cross_txs: 0,
            backlog: 0,
            makespan_s: 0.0,
            latencies: Cdf::new(),
            commits_per_window: TimeSeries::new(commit_window_s),
            queue_max: TimeSeries::new(queue_sample_s),
            queue_min: TimeSeries::new(queue_sample_s),
            queue_ratio: TimeSeries::new(queue_sample_s),
            per_shard_committed: vec![0; n_shards as usize],
            per_shard_blocks: vec![0; n_shards as usize],
            per_shard_items: vec![0; n_shards as usize],
            peak_queue: 0,
            l2s_memo_hits: 0,
            l2s_memo_misses: 0,
            tan_live_nodes: 0,
            tan_evicted_nodes: 0,
            tan_retained_nodes: 0,
            tan_arena_bytes: 0,
            rebalance_epochs_committed: 0,
            rebalance_nodes_moved: 0,
            rebalance_bytes_migrated: 0,
        }
    }

    /// Fraction of L2S evaluations served from a session memo, in
    /// `[0, 1]` (0 when no L2S evaluation ran).
    pub fn l2s_memo_hit_rate(&self) -> f64 {
        let total = self.l2s_memo_hits + self.l2s_memo_misses;
        if total == 0 {
            0.0
        } else {
            self.l2s_memo_hits as f64 / total as f64
        }
    }

    /// Average number of work items per consensus block across shards —
    /// low fill means shards burn fixed consensus costs on small blocks.
    pub fn average_block_fill(&self) -> f64 {
        let blocks: u64 = self.per_shard_blocks.iter().sum();
        if blocks == 0 {
            return 0.0;
        }
        let items: u64 = self.per_shard_items.iter().sum();
        items as f64 / blocks as f64
    }

    /// System throughput: committed transactions divided by the makespan
    /// (the paper's definition: "the number of transaction divided by the
    /// total time for all transactions get committed").
    pub fn throughput(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.committed as f64 / self.makespan_s
        }
    }

    /// Steady-state throughput: commit rate over the *middle half* of the
    /// commit windows. The first quarter carries the pipeline-fill
    /// transient (no commits before a network round trip plus a consensus
    /// round) and the last quarter the drain; both dominate short
    /// scaled-down runs, while the paper's 10M-transaction runs make them
    /// negligible. Falls back to [`SimMetrics::throughput`] with fewer
    /// than four windows.
    pub fn steady_throughput(&self) -> f64 {
        let counts = self.commits_per_window.counts();
        if counts.len() < 4 {
            return self.throughput();
        }
        let lo = counts.len() / 4;
        let hi = counts.len() - counts.len() / 4;
        let interior = &counts[lo..hi];
        let commits: u64 = interior.iter().sum();
        commits as f64 / (interior.len() as f64 * self.commits_per_window.bin_width())
    }

    /// Mean confirmation latency, seconds.
    pub fn mean_latency(&self) -> f64 {
        self.latencies.mean()
    }

    /// Maximum confirmation latency, seconds (Fig 9).
    pub fn max_latency(&mut self) -> f64 {
        self.latencies.max().unwrap_or(0.0)
    }

    /// Fraction of committed transactions confirmed within `seconds`
    /// (Fig 10 reads this at 10 s).
    pub fn fraction_within(&mut self, seconds: f64) -> f64 {
        self.latencies.fraction_at_or_below(seconds)
    }

    /// Max-shard utilization: the busiest shard's processed work items
    /// over the per-shard mean, in `[1, k]`. `1.0` is a perfectly
    /// balanced run; the hot-spot scenarios the rebalancer targets push
    /// this toward `k` under static placement. `0` before any work ran.
    pub fn max_shard_utilization(&self) -> f64 {
        let total: u64 = self.per_shard_items.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.per_shard_items.len() as f64;
        let max = *self.per_shard_items.iter().max().expect("k >= 1");
        max as f64 / mean
    }

    /// Cross-shard fraction of the injected transactions.
    pub fn cross_fraction(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.cross_txs as f64 / self.injected as f64
        }
    }

    /// Whether the system kept up with the offered rate: throughput
    /// within `slack` (e.g. 0.95) of the offered rate and no residual
    /// backlog beyond one block per shard.
    pub fn sustained(&self, offered_rate: f64, slack: f64, block_txs: u32) -> bool {
        let shards = self.per_shard_committed.len() as u64;
        self.throughput() >= offered_rate * slack && self.backlog <= shards * block_txs as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimMetrics {
        let mut m = SimMetrics::new("test", 2, 10.0, 1.0);
        m.injected = 100;
        m.committed = 100;
        m.cross_txs = 25;
        m.makespan_s = 50.0;
        for i in 0..100 {
            m.latencies.record(1.0 + i as f64 / 100.0);
        }
        m
    }

    #[test]
    fn throughput_is_committed_over_makespan() {
        let m = sample();
        assert!((m.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_makespan_gives_zero_throughput() {
        let m = SimMetrics::new("x", 1, 10.0, 1.0);
        assert_eq!(m.throughput(), 0.0);
    }

    #[test]
    fn latency_statistics() {
        let mut m = sample();
        assert!((m.mean_latency() - 1.495).abs() < 1e-9);
        assert!((m.max_latency() - 1.99).abs() < 1e-12);
        assert!((m.fraction_within(1.495) - 0.5).abs() < 0.02);
    }

    #[test]
    fn cross_fraction_and_sustained() {
        let m = sample();
        assert!((m.cross_fraction() - 0.25).abs() < 1e-12);
        assert!(m.sustained(2.0, 0.95, 10));
        assert!(!m.sustained(4.0, 0.95, 10));
    }
}
