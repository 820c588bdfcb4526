//! Offline replay of a transaction stream through a placement strategy.
//!
//! This is how the paper produces Tables I and II: no network simulation,
//! just "run the placement algorithm over the stream and count cross-shard
//! transactions". [`replay`] builds the TaN network online, drives any
//! [`Placer`], and tallies cross-TXs and shard occupancy;
//! [`replay_router`] runs the identical loop over an owned
//! [`Router`] (both share one implementation, so their outcomes are
//! bit-identical by construction).
//!
//! Because OptChain's L2S input needs *some* notion of shard load even
//! offline, replay feeds placers a [`QueueProxy`]: an exponentially
//! decayed count of recent placements per shard, converted to expected
//! verification times. Under uniform load it degenerates to uniform
//! telemetry (and OptChain to T2S placement), which matches how the paper
//! evaluates the placement-only tables.

use optchain_tan::{stats, NodeId, TanGraph};
use optchain_utxo::Transaction;

use crate::assignment::AssignmentView;
use crate::l2s::ShardTelemetry;
use crate::placer::{input_shards_into, PlacementContext, Placer};
use crate::router::Router;

/// Synthetic telemetry for offline replay: a minimal service-rate queue
/// model. Every placement enqueues one transaction at its shard while
/// **every** shard serves `1/k` transaction per arrival (the system keeps
/// up with the stream in aggregate, as in the paper's sustainable-rate
/// configurations). Balanced placement keeps all queues near zero — and
/// OptChain's decisions collapse to T2S, as in the paper's tables — while
/// persistently skewed placement grows the hot queue linearly and
/// triggers L2S diversion.
#[derive(Debug, Clone)]
pub struct QueueProxy {
    queues: Vec<f64>,
    service_per_arrival: f64,
    base_comm: f64,
    base_verify: f64,
    /// Queue length that doubles the expected verification time (the
    /// paper estimates `1/λv` from "recent consensus time ... and its
    /// current queue size"; one block's worth of backlog ≈ one extra
    /// consensus round).
    block_capacity: f64,
    /// Cached telemetry (values of `levels`), rebuilt only when a queue
    /// crosses a block boundary.
    cached: Vec<ShardTelemetry>,
    /// Block-granular backlog level per shard (`⌊queue/block⌋`).
    levels: Vec<u64>,
    /// Bumped whenever `cached` changes — the telemetry epoch fed to
    /// [`PlacementContext::with_epoch`].
    epoch: u64,
}

impl QueueProxy {
    /// A proxy over `k` shards with default timing constants (100 ms
    /// comm, 500 ms verify, 2000-tx blocks).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        // The idle-system constants are shared with the router's initial
        // board so replay-vs-router comparisons start from equal state.
        let base_comm = crate::router::DEFAULT_TELEMETRY.expected_comm;
        let base_verify = crate::router::DEFAULT_TELEMETRY.expected_verify;
        QueueProxy {
            queues: vec![0.0; k as usize],
            service_per_arrival: 1.0 / k as f64,
            base_comm,
            base_verify,
            block_capacity: 2_000.0,
            cached: vec![ShardTelemetry::new(base_comm, base_verify); k as usize],
            levels: vec![0; k as usize],
            epoch: 0,
        }
    }

    /// Records a placement into `shard`: one arrival there, `1/k` service
    /// everywhere.
    pub fn on_place(&mut self, shard: u32) {
        for q in &mut self.queues {
            *q = (*q - self.service_per_arrival).max(0.0);
        }
        self.queues[shard as usize] += 1.0;
    }

    /// Current queue-length estimates.
    pub fn queues(&self) -> &[f64] {
        &self.queues
    }

    /// The current telemetry plus its epoch, without allocating: the
    /// cached values are rebuilt (and the epoch bumped) only when a
    /// queue crosses a block boundary, so the epoch satisfies the
    /// [`crate::L2sMemo`] contract (it changes whenever the values do).
    ///
    /// The verification estimate is **block-granular**: a transaction
    /// waits `1 + ⌊queue/block⌋` consensus rounds. Sub-block queue
    /// differences therefore leave `E(j)` identical across shards and the
    /// T2S score decides (matching the paper's tables, where OptChain's
    /// placement quality tracks T2S-based); only block-scale backlogs
    /// differentiate `E(j)` and trigger diversion. Without the floor,
    /// single-transaction queue noise would dominate the ever-shrinking
    /// normalized T2S scores and OptChain would degenerate into a pure
    /// load balancer.
    pub fn telemetry(&mut self) -> (&[ShardTelemetry], u64) {
        let mut changed = false;
        for (level, q) in self.levels.iter_mut().zip(&self.queues) {
            let now = (q / self.block_capacity).floor() as u64;
            if *level != now {
                *level = now;
                changed = true;
            }
        }
        if changed {
            self.epoch += 1;
            for (t, level) in self.cached.iter_mut().zip(&self.levels) {
                *t = ShardTelemetry::new(self.base_comm, self.base_verify * (1.0 + *level as f64));
            }
        }
        (&self.cached, self.epoch)
    }
}

/// Outcome of replaying a stream through a placer.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Strategy name (from [`Placer::name`]).
    pub strategy: &'static str,
    /// Shard of every transaction, by node index.
    pub assignments: Vec<u32>,
    /// Number of cross-shard transactions (inputs not all in own shard).
    pub cross: u64,
    /// Total transactions placed.
    pub total: u64,
    /// Transactions with no inputs (never cross-shard).
    pub coinbase: u64,
    /// Transactions per shard.
    pub shard_sizes: Vec<u64>,
}

impl ReplayOutcome {
    /// Cross-TX fraction of the whole stream, in `[0, 1]`.
    pub fn cross_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cross as f64 / self.total as f64
        }
    }

    /// Max/min shard-size ratio (`max/1` when some shard is empty).
    pub fn size_ratio(&self) -> f64 {
        let max = self.shard_sizes.iter().copied().max().unwrap_or(0);
        let min = self.shard_sizes.iter().copied().min().unwrap_or(0);
        max as f64 / min.max(1) as f64
    }
}

/// The shared replay loop's view of "something that can ingest the next
/// transaction": the borrow-style [`Placer`] driving an external TaN
/// graph, or an owned [`Router`]. Both entry points run the *same*
/// decision/accounting loop ([`run_replay`]), which is what makes
/// [`replay`] and [`replay_router`] bit-identical by construction.
trait ReplaySource {
    fn k(&self) -> u32;
    fn label(&self) -> &'static str;
    /// Inserts `tx` and decides its shard against the proxy's current
    /// telemetry.
    fn ingest(&mut self, tx: &Transaction, proxy: &mut QueueProxy) -> u32;
    fn tan(&self) -> &TanGraph;
    fn assignments(&self) -> AssignmentView<'_>;
    /// Distinct input shards of the most recently ingested transaction
    /// (first-appearance order), written into `out` (cleared first).
    /// Taken at **decision time**: a windowed source records them
    /// before its store's live range moves past a boundary parent.
    fn last_input_shards(&self, node: NodeId, out: &mut Vec<u32>);
}

struct PlacerSource<'a, P: Placer> {
    tan: &'a mut TanGraph,
    placer: &'a mut P,
}

impl<P: Placer> ReplaySource for PlacerSource<'_, P> {
    fn k(&self) -> u32 {
        self.placer.k()
    }

    fn label(&self) -> &'static str {
        self.placer.name()
    }

    fn ingest(&mut self, tx: &Transaction, proxy: &mut QueueProxy) -> u32 {
        let tan = &mut *self.tan;
        let node = tan.insert_tx(tx);
        let (telemetry, epoch) = proxy.telemetry();
        let ctx = PlacementContext::with_epoch(tan, telemetry, epoch);
        self.placer.place(&ctx, node).0
    }

    fn tan(&self) -> &TanGraph {
        self.tan
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.placer.assignments()
    }

    fn last_input_shards(&self, node: NodeId, out: &mut Vec<u32>) {
        // Borrow-style placers always run unbounded stores (the
        // windowing setter is router-internal), so the post-place read
        // loses nothing.
        input_shards_into(self.tan, self.placer.assignments(), node, out);
    }
}

impl ReplaySource for Router {
    fn k(&self) -> u32 {
        Router::k(self)
    }

    fn label(&self) -> &'static str {
        self.strategy_name()
    }

    fn ingest(&mut self, tx: &Transaction, proxy: &mut QueueProxy) -> u32 {
        let (telemetry, _epoch) = proxy.telemetry();
        // `feed_telemetry` bumps the router's version only when values
        // change — the same epoch discipline the proxy itself applies.
        self.feed_telemetry(telemetry);
        self.submit_tx(tx).expect("placing a transaction failed").0
    }

    fn tan(&self) -> &TanGraph {
        Router::tan(self)
    }

    fn assignments(&self) -> AssignmentView<'_> {
        Router::assignments(self)
    }

    fn last_input_shards(&self, _node: NodeId, out: &mut Vec<u32>) {
        // The router recorded the decision-time set in its detail
        // buffer — exact even when the submission itself advanced a
        // retention window past one of the parents.
        out.clear();
        out.extend_from_slice(self.last_decision().input_shards());
    }
}

/// The decision/accounting loop shared by every replay entry point.
///
/// # Panics
///
/// Panics if the source's assignments don't align with its TaN prefix.
fn run_replay<'a, S, I>(txs: I, src: &mut S) -> ReplayOutcome
where
    S: ReplaySource,
    I: IntoIterator<Item = &'a Transaction>,
{
    assert_eq!(
        src.assignments().len(),
        src.tan().len(),
        "placer state must align with the existing TaN prefix"
    );
    let start = src.tan().len();
    let k = src.k();
    let mut proxy = QueueProxy::new(k);
    let mut cross = 0u64;
    let mut coinbase = 0u64;
    let mut shard_scratch: Vec<u32> = Vec::new();
    // Shards are recorded as they are decided: under a retention policy
    // the source's own store windows its history, but the outcome (an
    // experiment artifact) still reports every new transaction.
    let mut new_shards: Vec<u32> = Vec::new();
    for tx in txs {
        let shard = src.ingest(tx, &mut proxy);
        new_shards.push(shard);
        proxy.on_place(shard);
        let node = NodeId((src.tan().len() - 1) as u32);
        if src.tan().inputs(node).is_empty() {
            coinbase += 1;
        } else {
            src.last_input_shards(node, &mut shard_scratch);
            if shard_scratch.iter().any(|s| *s != shard) {
                cross += 1;
            }
        }
    }
    let view = src.assignments();
    let mut assignments = Vec::with_capacity(view.len());
    assignments.extend((0..start).map(|id| {
        view.get_index(id).expect(
            "a warm-start prefix evicted by a retention policy cannot be \
             materialized into a ReplayOutcome",
        )
    }));
    assignments.extend_from_slice(&new_shards);
    let mut shard_sizes = vec![0u64; k as usize];
    for &s in &new_shards {
        shard_sizes[s as usize] += 1;
    }
    // The batch recount walks the graph's edges, which an evicting
    // (retention-policy) source no longer holds for the old prefix — the
    // incremental count taken at placement time is then the only truth.
    debug_assert!(
        src.tan().evicted_nodes() > 0
            || cross
                == stats::cross_tx_count(src.tan(), &assignments)
                    - stats::cross_tx_count(
                        src.tan(),
                        &assignments[..start.min(assignments.len())]
                    ),
        "incremental cross count must match the batch count"
    );
    ReplayOutcome {
        strategy: src.label(),
        assignments,
        cross,
        total: (src.tan().len() - start) as u64,
        coinbase,
        shard_sizes,
    }
}

/// Replays `txs` (in order) through `placer`, building the TaN network
/// online. Returns the outcome; the TaN graph itself is discarded — use
/// [`replay_into`] to keep it, or [`replay_router`] when a [`Router`]
/// owns the graph.
pub fn replay<'a, P, I>(txs: I, placer: &mut P) -> ReplayOutcome
where
    P: Placer,
    I: IntoIterator<Item = &'a Transaction>,
{
    let mut tan = TanGraph::new();
    replay_into(txs, placer, &mut tan)
}

/// [`replay`] into a caller-provided TaN graph (which may already hold a
/// placed prefix for warm-start experiments — `placer.assignments()` must
/// cover exactly the existing nodes).
///
/// # Panics
///
/// Panics if `placer.assignments().len() != tan.len()`.
pub fn replay_into<'a, P, I>(txs: I, placer: &mut P, tan: &mut TanGraph) -> ReplayOutcome
where
    P: Placer,
    I: IntoIterator<Item = &'a Transaction>,
{
    run_replay(txs, &mut PlacerSource { tan, placer })
}

/// [`replay`] through an owned [`Router`]: the router's telemetry board
/// is driven by the same [`QueueProxy`] model, so the outcome is
/// bit-identical to [`replay`] over the equivalent concrete placer (the
/// `router_golden` test enforces this for every strategy). The router
/// may hold a warm-started prefix ([`Router::warm_start_history`]); cross-TX
/// accounting then covers only the new transactions.
///
/// # Panics
///
/// [`ReplayOutcome::assignments`] materializes the **full** per-tx
/// history (it is an experiment artifact): replaying from a
/// warm-started retention-policy router whose prefix already evicted
/// assignment entries panics, because that history no longer exists.
/// Drive such routers directly (`submit_batch`, recording its shards).
pub fn replay_router<'a, I>(txs: I, router: &mut Router) -> ReplayOutcome
where
    I: IntoIterator<Item = &'a Transaction>,
{
    run_replay(txs, router)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{GreedyPlacer, OptChainPlacer, RandomPlacer, T2sPlacer};
    use optchain_utxo::{TxId, TxOutput, WalletId};

    /// A stream of `chains` independent spend chains, interleaved: chain
    /// c's transactions only ever spend chain c's previous output. The
    /// ideal placement has zero cross-TXs for k ≥ 1.
    fn chain_stream(chains: u64, len: u64) -> Vec<Transaction> {
        let mut txs = Vec::new();
        let mut id = 0u64;
        let mut heads: Vec<Option<TxId>> = vec![None; chains as usize];
        for _round in 0..len {
            for c in 0..chains {
                let tx = match heads[c as usize] {
                    None => Transaction::coinbase(TxId(id), 1_000_000, WalletId(c as u32)),
                    Some(prev) => Transaction::builder(TxId(id))
                        .input(prev.outpoint(0))
                        .output(TxOutput::new(1_000_000, WalletId(c as u32)))
                        .build(),
                };
                heads[c as usize] = Some(TxId(id));
                id += 1;
                txs.push(tx);
            }
        }
        txs
    }

    #[test]
    fn optchain_keeps_chains_together() {
        let txs = chain_stream(8, 50);
        let mut placer = OptChainPlacer::new(4);
        let outcome = replay(&txs, &mut placer);
        assert_eq!(outcome.total, 400);
        assert_eq!(
            outcome.cross, 0,
            "independent chains should never go cross-shard"
        );
    }

    #[test]
    fn random_placement_is_mostly_cross() {
        let txs = chain_stream(8, 50);
        let mut placer = RandomPlacer::new(4);
        let outcome = replay(&txs, &mut placer);
        // Each non-coinbase has one input; P(same shard) = 1/4.
        let non_coinbase = outcome.total - outcome.coinbase;
        assert!(
            outcome.cross as f64 > 0.6 * non_coinbase as f64,
            "cross {} of {}",
            outcome.cross,
            non_coinbase
        );
    }

    #[test]
    fn strategy_ordering_on_chain_stream() {
        let txs = chain_stream(16, 40);
        let cross = |outcome: ReplayOutcome| outcome.cross;
        let opt = cross(replay(&txs, &mut OptChainPlacer::new(8)));
        let t2s = cross(replay(&txs, &mut T2sPlacer::new(8)));
        let greedy = cross(replay(&txs, &mut GreedyPlacer::new(8)));
        let random = cross(replay(&txs, &mut RandomPlacer::new(8)));
        assert!(opt <= greedy, "optchain {opt} vs greedy {greedy}");
        assert!(t2s <= greedy, "t2s {t2s} vs greedy {greedy}");
        assert!(greedy < random, "greedy {greedy} vs random {random}");
    }

    #[test]
    fn outcome_accounting_adds_up() {
        let txs = chain_stream(4, 25);
        let mut placer = RandomPlacer::new(4);
        let outcome = replay(&txs, &mut placer);
        assert_eq!(outcome.shard_sizes.iter().sum::<u64>(), outcome.total);
        assert_eq!(outcome.assignments.len() as u64, outcome.total);
        assert!(outcome.cross_fraction() <= 1.0);
        assert!(outcome.size_ratio() >= 1.0);
    }

    #[test]
    fn queue_proxy_tracks_skew_and_recovers() {
        let mut proxy = QueueProxy::new(2);
        for _ in 0..100 {
            proxy.on_place(0);
        }
        // All arrivals to shard 0: its queue grows ~1/2 per step, but
        // telemetry is block-granular so sub-block skew is invisible.
        let t = proxy.telemetry().0;
        assert_eq!(t[0].expected_verify, t[1].expected_verify);
        assert!((proxy.queues()[0] - 50.0).abs() < 1.0);
        // Diverting arrivals elsewhere drains the backlog (service
        // continues at 1/k per arrival on every shard).
        for _ in 0..120 {
            proxy.on_place(1);
        }
        assert!(proxy.queues()[0] < 2.0, "{:?}", proxy.queues());
        // Push past a full block: now the backlog shows in telemetry.
        for _ in 0..8_000 {
            proxy.on_place(0);
        }
        let t = proxy.telemetry().0;
        assert!(t[0].expected_verify > t[1].expected_verify);
    }

    #[test]
    fn replay_into_requires_aligned_state() {
        let txs = chain_stream(2, 2);
        let mut tan = TanGraph::new();
        tan.insert_tx(&txs[0]);
        let mut placer = RandomPlacer::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay_into(&txs[1..], &mut placer, &mut tan)
        }));
        assert!(result.is_err(), "misaligned prefix must panic");
    }
}
