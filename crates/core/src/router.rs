//! The [`Router`]: an owned, session-based placement service.
//!
//! Algorithm 1 is a *client-facing service* — nodes stream transactions
//! in and get shard assignments out. The borrow-style [`crate::Placer`]
//! API inverts that: every caller must own the TaN graph, rebuild a
//! [`PlacementContext`] per transaction, and pick a concrete placer
//! struct at compile time. The `Router` owns all of it:
//!
//! * the [`TanGraph`] (transactions are inserted on submission),
//! * the placement strategy (runtime-dispatched via
//!   [`DynPlacer`], selected by [`Strategy`]),
//! * the telemetry board (updated through
//!   [`Router::feed_telemetry`], which bumps the telemetry version
//!   only when values actually change — the L2S memo epoch),
//! * the decision scratch buffers, so the whole
//!   [`Router::submit`] / [`Router::submit_batch`] path performs no
//!   per-transaction heap allocation.
//!
//! A client that sees its own telemetry view holds a
//! [`PlacementSession`]: the view, keyed by its version, and the L2S
//! memo that serves it. Sessions never change decisions (the golden
//! tests prove assignments bit-identical with and without them).
//!
//! # Example
//!
//! ```
//! use optchain_core::{Router, ShardTelemetry, Strategy};
//! use optchain_utxo::TxId;
//!
//! let mut router = Router::builder()
//!     .shards(4)
//!     .strategy(Strategy::OptChain)
//!     .build();
//!
//! // A coinbase and its spender follow each other into one shard.
//! let s0 = router.submit(TxId(0), &[])?;
//! let s1 = router.submit(TxId(1), &[TxId(0)])?;
//! assert_eq!(s0, s1);
//!
//! // Telemetry arrives: shard s1 backs up, the next spender diverts.
//! let mut telemetry = vec![ShardTelemetry::new(0.1, 0.5); 4];
//! telemetry[s1.index()] = ShardTelemetry::new(0.1, 500.0);
//! router.feed_telemetry(&telemetry);
//! let s2 = router.submit(TxId(2), &[TxId(1)])?;
//! assert_ne!(s2, s1);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::borrow::Cow;
use std::io;

use optchain_storage::{ByteReader, ByteWriter, Storage};
use optchain_tan::{NodeId, RetentionPolicy, TanGraph};
use optchain_utxo::{Transaction, TxId};

use crate::assignment::AssignmentView;
use crate::durable::{self, RouterSnapshot, WalRecord};
use crate::fitness::TemporalFitness;
use crate::l2s::{L2sEstimator, L2sMemo, L2sMode, ShardTelemetry};
use crate::placer::{
    input_shards_into, DecisionBuf, GreedyPlacer, OptChainPlacer, OraclePlacer, PlacementContext,
    Placer, RandomPlacer, ShardId, T2sPlacer,
};
use crate::rebalance::{Move, RebalancePolicy, RebalanceStats, Rebalancer};
use crate::strategy::{DynPlacer, Strategy};
use crate::t2s::{T2sEngine, DEFAULT_ALPHA};

/// Default telemetry a router starts from before any
/// [`Router::feed_telemetry`] call: 100 ms communication, 500 ms
/// verification per shard (the constants the repo's tests and the
/// offline replay proxy use for an idle system).
pub const DEFAULT_TELEMETRY: ShardTelemetry = ShardTelemetry {
    expected_comm: 0.1,
    expected_verify: 0.5,
};

/// The builder-configured recipe for a router: every [`RouterBuilder`]
/// knob except the storage backend. [`RouterBuilder::open`] builds or
/// reopens a router from one, and a durable router's meta blob is its
/// encoded spec. [`RouterSpec::check`] is the one statement of
/// which specs are buildable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RouterSpec {
    pub(crate) shards: Option<u32>,
    pub(crate) strategy: Strategy,
    pub(crate) alpha: f64,
    pub(crate) retention: RetentionPolicy,
    pub(crate) l2s_mode: L2sMode,
    pub(crate) l2s_weight: f64,
    pub(crate) epsilon: f64,
    pub(crate) expected_total: Option<u64>,
    pub(crate) oracle: Option<Vec<u32>>,
    pub(crate) telemetry: Option<Vec<ShardTelemetry>>,
    /// Dynamic re-sharding policy (`None` = static placement).
    pub(crate) rebalance: Option<RebalancePolicy>,
    /// Journaled entries before a journal's first snapshot (flush +
    /// snapshot + segment GC).
    pub(crate) checkpoint_every: u64,
    /// Journaled entries between fsync batches.
    pub(crate) flush_every: u64,
    /// Snapshot-interval multiplier: once a snapshot exists the next is
    /// due `checkpoint_every × full_every` entries later.
    pub(crate) full_every: u64,
}

impl RouterSpec {
    pub(crate) fn new() -> Self {
        RouterSpec {
            shards: None,
            strategy: Strategy::OptChain,
            alpha: DEFAULT_ALPHA,
            retention: RetentionPolicy::Unbounded,
            l2s_mode: L2sMode::default(),
            l2s_weight: crate::fitness::PAPER_L2S_WEIGHT,
            epsilon: 0.1,
            expected_total: None,
            oracle: None,
            telemetry: None,
            rebalance: None,
            checkpoint_every: durable::DEFAULT_CHECKPOINT_EVERY,
            flush_every: durable::DEFAULT_FLUSH_EVERY,
            full_every: durable::DEFAULT_FULL_EVERY,
        }
    }

    /// The shard count this spec will build with.
    ///
    /// # Panics
    ///
    /// Panics if no shard count was configured.
    pub(crate) fn k(&self) -> u32 {
        self.shards.expect("RouterBuilder::shards is required")
    }

    /// Every cross-field rule a buildable spec obeys, stated once:
    /// [`RouterSpec::build`] panics with the message (a caller's
    /// configuration bug), `durable::decode_spec` maps it to a typed
    /// error (bytes from disk must never panic).
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let Some(k) = self.shards else {
            return Err("RouterBuilder::shards is required");
        };
        if k == 0 {
            return Err("the shard count must be positive");
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("alpha must lie in (0, 1]");
        }
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        if !non_negative(self.l2s_weight) || !non_negative(self.epsilon) {
            return Err("the L2S weight and epsilon must be finite and >= 0");
        }
        if self.retention.graph_window() == Some(0) {
            return Err("a retention window must be positive");
        }
        // Node ids are `u32`: no stream, and so no window, is longer.
        if self.expected_total.is_some_and(|n| n > u64::from(u32::MAX)) {
            return Err("expected_total exceeds the u32 node-id space");
        }
        if self.retention.graph_window() > Some(u32::MAX as usize) {
            return Err("a retention window exceeds the u32 node-id space");
        }
        match &self.oracle {
            None if self.strategy == Strategy::Metis => {
                return Err("Strategy::Metis requires RouterBuilder::oracle");
            }
            Some(oracle) if oracle.iter().any(|&s| s >= k) => {
                return Err("oracle shard out of range");
            }
            _ => {}
        }
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.len() != k as usize)
        {
            return Err("initial telemetry must cover every shard");
        }
        if let Some(policy) = &self.rebalance {
            if self.strategy != Strategy::OptChain {
                return Err("the rebalancer re-homes T2S score mass and is only \
                     available with Strategy::OptChain");
            }
            if policy.epoch_interval == 0 {
                return Err("epoch_interval must be positive");
            }
            if policy.utilization_trigger.is_nan() || policy.utilization_trigger < 1.0 {
                return Err("utilization_trigger below 1.0 would fire on perfectly \
                     balanced shards");
            }
        }
        if self.checkpoint_every == 0 || self.flush_every == 0 || self.full_every == 0 {
            return Err("checkpoint, flush and snapshot-multiplier cadences must be positive");
        }
        Ok(())
    }

    /// Builds the placer a checked spec describes.
    fn build_placer(&self) -> DynPlacer {
        let k = self.k();
        let engine = T2sEngine::with_retention(k, self.alpha, self.retention);
        // Every built-in placer windows its assignment store under the
        // same policy the graph and the T2S engine follow, so edge
        // resolution, score retention, and assignment retention stay in
        // lockstep (the O(window) story end to end).
        match self.strategy {
            Strategy::OptChain => DynPlacer::OptChain(
                OptChainPlacer::from_parts(
                    engine,
                    L2sEstimator::with_mode(self.l2s_mode),
                    TemporalFitness::with_weight(self.l2s_weight),
                )
                .retain(self.retention),
            ),
            Strategy::T2s => DynPlacer::T2s(
                T2sPlacer::with_engine(engine, self.epsilon, self.expected_total)
                    .retain(self.retention),
            ),
            Strategy::OmniLedger => DynPlacer::Random(RandomPlacer::new(k).retain(self.retention)),
            Strategy::Greedy => DynPlacer::Greedy(
                GreedyPlacer::with_epsilon(k, self.epsilon, self.expected_total)
                    .retain(self.retention),
            ),
            Strategy::Metis => DynPlacer::Oracle(
                OraclePlacer::new(
                    k,
                    self.oracle.clone().expect("checked: Metis has an oracle"),
                )
                .retain(self.retention),
            ),
        }
    }

    /// Builds a fresh router from this spec. A known stream length
    /// doubles as a capacity hint: the TaN arenas are pre-sized so the
    /// steady-state submission path performs no doubling reallocations.
    ///
    /// # Panics
    ///
    /// Panics with [`RouterSpec::check`]'s message on an unbuildable
    /// spec.
    pub(crate) fn build(&self) -> Router {
        self.check().unwrap_or_else(|rule| panic!("{rule}"));
        let mut router = self.build_unreserved();
        if let Some(n) = self.expected_total {
            router.reserve(n as usize);
        }
        router
    }

    /// [`RouterSpec::build`] of an already-checked spec, without the
    /// capacity hint — the recovery path, where the value comes from
    /// disk and an allocation it sizes could abort the process.
    pub(crate) fn build_unreserved(&self) -> Router {
        let telemetry = self
            .telemetry
            .clone()
            .unwrap_or_else(|| vec![DEFAULT_TELEMETRY; self.k() as usize]);
        Router {
            tan: TanGraph::with_retention(self.retention),
            placer: self.build_placer(),
            retention: self.retention,
            telemetry,
            version: 0,
            buf: DecisionBuf::new(),
            memo: L2sMemo::new(),
            adopted_total: 0,
            txid_scratch: Vec::new(),
            journal: None,
            rebalancer: self.rebalance.map(Rebalancer::new),
            applied_moves: Vec::new(),
            cross_placed: 0,
            failure: None,
        }
    }
}

/// Builder for [`Router`] — see the router's docs for the shape of the
/// API it produces.
///
/// Only [`RouterBuilder::shards`] is mandatory; everything else
/// defaults to the paper's parameters. Setters only record values:
/// [`RouterBuilder::open`], the one door that builds or reopens a
/// router, checks them together, once.
pub struct RouterBuilder {
    spec: RouterSpec,
    storage: Option<Box<dyn Storage>>,
}

impl RouterBuilder {
    fn new() -> Self {
        RouterBuilder {
            spec: RouterSpec::new(),
            storage: None,
        }
    }

    /// Number of shards to place over (required).
    pub fn shards(mut self, k: u32) -> Self {
        self.spec.shards = Some(k);
        self
    }

    /// Placement strategy (default [`Strategy::OptChain`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.spec.strategy = strategy;
        self
    }

    /// T2S damping factor α (default 0.5; OptChain/T2S only).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.spec.alpha = alpha;
        self
    }

    /// The state-lifecycle policy (default
    /// [`RetentionPolicy::Unbounded`]) — the one window there is: how
    /// the router's TaN graph, T2S score rows *and* assignment history
    /// bound their memory as the stream grows (a wallet-sized node is
    /// `retention(WindowTxs(budget))`). [`Router::submit`] advances the
    /// eviction horizon automatically; [`Router::compact`] forces a
    /// checkpoint-time shrink. Spends of evicted outputs degrade exactly
    /// like pre-history spends (`missing_parent_refs`).
    pub fn retention(mut self, retention: RetentionPolicy) -> Self {
        self.spec.retention = retention;
        self
    }

    /// L2S latency model (default [`L2sMode::VerifyPlusCommit`];
    /// OptChain only).
    pub fn l2s_mode(mut self, mode: L2sMode) -> Self {
        self.spec.l2s_mode = mode;
        self
    }

    /// Temporal-fitness L2S weight (default the paper's 0.01; OptChain
    /// only).
    pub fn l2s_weight(mut self, weight: f64) -> Self {
        self.spec.l2s_weight = weight;
        self
    }

    /// Capacity-cap slack ε for Greedy/T2S (default the paper's 0.1).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.spec.epsilon = epsilon;
        self
    }

    /// Known stream length, tightening the Greedy/T2S capacity cap to
    /// `(1 + ε)⌊n/k⌋` (default: a running-count cap).
    pub fn expected_total(mut self, total: u64) -> Self {
        self.spec.expected_total = Some(total);
        self
    }

    /// Precomputed assignment of every future node — **required** for
    /// [`Strategy::Metis`], ignored otherwise.
    pub fn oracle(mut self, oracle: Vec<u32>) -> Self {
        self.spec.oracle = Some(oracle);
        self
    }

    /// Enables dynamic re-sharding: every
    /// [`RebalancePolicy::epoch_interval`] local placements (the
    /// router's placement count, adoptions excluded) the router runs a
    /// migration-epoch boundary — committing the move batch staged at
    /// the previous boundary (hub nodes re-homed between shards,
    /// assignment store and T2S score rows swung in lockstep) and
    /// staging the next batch under the policy's cost model. Between
    /// boundaries placements resolve against the pre-epoch assignment.
    /// OptChain strategy only. A durable router's snapshots carry the
    /// staged batch and the counters, and recovery re-derives every
    /// epoch its journal tail crosses. See [`RebalancePolicy`] for the
    /// knobs and [`Router::rebalance_stats`] for the lifetime counters.
    pub fn rebalancer(mut self, policy: RebalancePolicy) -> Self {
        self.spec.rebalance = Some(policy);
        self
    }

    /// Initial per-shard telemetry (default
    /// [`DEFAULT_TELEMETRY`] everywhere).
    pub fn telemetry(mut self, telemetry: &[ShardTelemetry]) -> Self {
        self.spec.telemetry = Some(telemetry.to_vec());
        self
    }

    /// Journals every placement to `storage` before acking: each
    /// submission, adoption and telemetry change is one journaled
    /// *entry* (a [`Router::submit_batch`] call's placements share one
    /// framed record), entries are fsynced in batches of
    /// [`RouterBuilder::flush_every`], and at the
    /// [`RouterBuilder::checkpoint_every`] × [`RouterBuilder::full_every`]
    /// cadence the router installs a snapshot (every decision input the
    /// journal does not carry, plus the journal position it covers) and
    /// garbage-collects the segments below it. [`RouterBuilder::open`]
    /// journals an empty backend from scratch and **recovers** one that
    /// holds a journal written by the same configuration, so a crashed
    /// durable router restarts through the builder that made it.
    pub fn storage(mut self, storage: Box<dyn Storage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Journaled entries before the first snapshot (default 32 768;
    /// durable routers only), and the unit [`RouterBuilder::full_every`]
    /// multiplies afterwards. Smaller values shorten recovery replay,
    /// larger values amortize snapshot encoding over more submissions.
    pub fn checkpoint_every(mut self, records: u64) -> Self {
        self.spec.checkpoint_every = records;
        self
    }

    /// Journaled entries between fsync batches (default 512; durable
    /// routers only). `1` fsyncs every entry — maximal durability,
    /// minimal throughput; larger batches bound the entries a crash can
    /// lose.
    pub fn flush_every(mut self, records: u64) -> Self {
        self.spec.flush_every = records;
        self
    }

    /// Snapshot-interval multiplier (default 8; durable routers only):
    /// once the journal holds a snapshot, the next is installed
    /// `checkpoint_every × n` entries later. Recovery replays the tail
    /// above the snapshot, so `n` trades snapshot encoding against
    /// replay length and disk held (one snapshot + that much tail).
    pub fn full_every(mut self, n: u64) -> Self {
        self.spec.full_every = n;
        self
    }

    /// The one door that builds or reopens a router. With no storage
    /// it builds; over an empty backend it writes the meta blob (the
    /// encoded configuration) and journals from there; over a backend
    /// that holds a journal it recovers it with [`Router::recover`],
    /// once the journal's meta blob matches this builder's
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] naming the rule when the
    /// configuration breaks one — no shard count, α outside (0, 1], a
    /// negative or non-finite L2S weight or ε, a zero retention window
    /// or cadence, [`Strategy::Metis`] without an oracle, an
    /// out-of-range oracle shard, initial telemetry length ≠ k, a
    /// rebalancer on a strategy other than OptChain, a zero epoch
    /// interval or a utilization trigger below 1 — or when the journal
    /// in storage was written by another configuration (checked before
    /// anything is recovered); otherwise what reading the backend,
    /// writing a fresh meta blob or [`Router::recover`] reports.
    pub fn open(self) -> io::Result<Router> {
        let RouterBuilder { spec, storage } = self;
        spec.check()
            .map_err(|rule| io::Error::new(io::ErrorKind::InvalidInput, rule))?;
        let Some(mut storage) = storage else {
            return Ok(spec.build());
        };
        if let Some(meta) = storage.meta()? {
            if durable::decode_spec(&meta)? != spec {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "the journal in storage was written by another configuration",
                ));
            }
            return Router::recover(storage);
        }
        // Records without a meta blob are no fresh journal either:
        // recovery reports it.
        if storage.next_seq() != 0 {
            return Router::recover(storage);
        }
        let mut router = spec.build();
        storage.put_meta(&durable::encode_spec(&spec))?;
        router.journal = Some(Journal::new(storage, &spec));
        Ok(router)
    }

    /// [`RouterBuilder::open`] for a caller whose configuration is
    /// known good.
    ///
    /// # Panics
    ///
    /// Panics with the message of any error [`RouterBuilder::open`]
    /// returns.
    pub fn build(self) -> Router {
        self.open().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A per-client handle into a [`Router`]: the client's own telemetry
/// view, keyed by version, and the L2S memo that serves it. Created with
/// [`Router::session`], used through [`Router::submit_tx_in`].
///
/// Clients interleaving on the router's board share its memo without
/// evicting each other's entries (it is a table, not the last input
/// set). A session is for a client with its own view, whose values the
/// board's memo must not serve. Decisions are **bit-identical** with or
/// without sessions; only hit/miss accounting differs.
#[derive(Debug, Default)]
pub struct PlacementSession {
    memo: L2sMemo,
    view: Vec<ShardTelemetry>,
    view_version: u64,
    has_view: bool,
}

impl PlacementSession {
    /// Installs this client's telemetry view, keyed by `version`.
    ///
    /// The version is the memo epoch: it **must** change whenever the
    /// view's values change (the natural key is the version of the
    /// telemetry board the view was derived from — equal versions imply
    /// equal views for a given client). Submissions through a session
    /// with a view use it instead of the router's own board.
    pub fn set_view(&mut self, telemetry: &[ShardTelemetry], version: u64) {
        self.view.clear();
        self.view.extend_from_slice(telemetry);
        self.view_version = version;
        self.has_view = true;
    }

    /// The version the current view was keyed with, or `None` before the
    /// first [`PlacementSession::set_view`].
    pub fn view_version(&self) -> Option<u64> {
        self.has_view.then_some(self.view_version)
    }

    /// Hit/miss counters of this session's L2S memo.
    pub fn l2s_memo_stats(&self) -> (u64, u64) {
        (self.memo.hits(), self.memo.misses())
    }
}

/// An owned, session-based placement service over a runtime-selected
/// strategy.
///
/// Placement is one sequence, so a router is driven by one caller at a
/// time (`&mut self`). An embedder with many threads holds a
/// `Mutex<Router>` and places under the lock, as the placement server
/// holds its router on its one dispatcher thread; the order in which
/// callers take the lock is the sequence the router places.
#[derive(Debug)]
pub struct Router {
    tan: TanGraph,
    placer: DynPlacer,
    /// The state-lifecycle policy: [`Router::submit`] advances the
    /// graph's eviction horizon under it.
    retention: RetentionPolicy,
    /// The router's own telemetry board (sessions may override with a
    /// per-client view).
    telemetry: Vec<ShardTelemetry>,
    /// Bumped by [`Router::feed_telemetry`] only when values change —
    /// the L2S memo epoch.
    version: u64,
    /// Scratch holding the latest decision's full breakdown.
    buf: DecisionBuf,
    /// The router-level L2S memo (session-less submissions).
    memo: L2sMemo,
    /// Lifetime count of [`Router::adopt_remote`] placements.
    adopted_total: u64,
    /// Reusable scratch for the distinct input list a durable router
    /// journals per full-transaction submission.
    txid_scratch: Vec<TxId>,
    /// The WAL attachment of a durable router (`None` = in-RAM only).
    journal: Option<Journal>,
    /// Dynamic re-sharding engine ([`RouterBuilder::rebalancer`];
    /// `None` = static placement, the paper's behavior).
    rebalancer: Option<Rebalancer>,
    /// Moves committed by rebalance epochs since the last
    /// [`Router::drain_rebalance_moves`] — consumers (the sim's lock
    /// table, dashboards) drain these to track re-homed nodes.
    applied_moves: Vec<Move>,
    /// Placements whose transaction had at least one input on another
    /// shard — the numerator of the live cross-tx ratio.
    cross_placed: u64,
    /// The kind of the first storage error ([`Router::failure`]).
    failure: Option<io::ErrorKind>,
}

/// The write-ahead attachment of a durable router: the storage backend
/// plus the counters driving fsync and snapshot cadence. Cadences count
/// *entries* (a placement, adoption or telemetry change), not
/// records: a `submit_batch` call's placements share one record.
#[derive(Debug)]
struct Journal {
    storage: Box<dyn Storage>,
    /// Entries between snapshots: `checkpoint_every` until the backend
    /// holds its first, `steady_every` from then on.
    snapshot_every: u64,
    /// `checkpoint_every × full_every`, saturating.
    steady_every: u64,
    /// Entries between fsync batches.
    flush_every: u64,
    /// Entries journaled since the last flush.
    unflushed: u64,
    /// Entries journaled since the last snapshot (recovery's replay).
    since_snapshot: u64,
    /// The record being encoded: a whole one, or the SubmitBatch record
    /// the current submission call is filling.
    scratch: ByteWriter,
    /// Placements in that open SubmitBatch record; `0` between calls.
    open_entries: u32,
    /// Length of the last snapshot body, which sizes the next buffer.
    body_len: usize,
    /// Lifetime counters surfaced by [`Router::checkpoint_stats`].
    stats: CheckpointStats,
}

impl Journal {
    /// A journal over `storage` at the cadences `spec` configures.
    fn new(storage: Box<dyn Storage>, spec: &RouterSpec) -> Journal {
        Journal {
            storage,
            snapshot_every: spec.checkpoint_every,
            steady_every: spec.checkpoint_every.saturating_mul(spec.full_every),
            flush_every: spec.flush_every,
            unflushed: 0,
            since_snapshot: 0,
            scratch: ByteWriter::new(),
            open_entries: 0,
            body_len: 0,
            stats: CheckpointStats::default(),
        }
    }

    /// Appends the open SubmitBatch record, if there is one.
    fn close_batch(&mut self) -> io::Result<()> {
        if self.open_entries > 0 {
            self.scratch
                .set_u32(durable::BATCH_COUNT_AT, self.open_entries);
            self.open_entries = 0;
            self.storage.append(self.scratch.as_slice())?;
        }
        Ok(())
    }

    /// Counts one journaled entry. On a flush or snapshot boundary the
    /// open record is closed first — a record never spans one — and a
    /// filled batch is flushed. Returns `true` when a snapshot is due
    /// (the router installs it: encoding needs `&Router`).
    fn entry_journaled(&mut self) -> io::Result<bool> {
        self.unflushed += 1;
        self.since_snapshot += 1;
        let flush = self.unflushed >= self.flush_every;
        let due = self.since_snapshot >= self.snapshot_every;
        if flush || due {
            self.close_batch()?;
        }
        if flush {
            self.storage.flush()?;
            self.unflushed = 0;
        }
        Ok(due)
    }

    /// Appends one whole record, encoded by `encode`, as one entry.
    fn append_record(&mut self, encode: impl FnOnce(&mut ByteWriter)) -> io::Result<bool> {
        debug_assert_eq!(self.open_entries, 0, "a batch record is still open");
        self.scratch.clear();
        encode(&mut self.scratch);
        self.storage.append(self.scratch.as_slice())?;
        self.entry_journaled()
    }

    /// Adds one placement to the (opened if need be) SubmitBatch record.
    fn push_submit(&mut self, txid: TxId, inputs: &[TxId], shard: u32) -> io::Result<bool> {
        if self.open_entries == 0 {
            self.scratch.clear();
            durable::begin_submit_batch(&mut self.scratch);
        }
        durable::put_placement(&mut self.scratch, txid, inputs, shard);
        self.open_entries += 1;
        self.entry_journaled()
    }
}

/// Least capacity of the snapshot buffer. Untouched capacity is address
/// space, not memory, and above 32 MiB glibc always maps an allocation
/// and unmaps it on drop; a smaller body would come from the heap from
/// the second snapshot on and hold its 10 MB resident.
const SNAPSHOT_RESERVE: usize = 33 << 20;

/// Lifetime snapshot counters of a durable router, surfaced by
/// [`Router::checkpoint_stats`]. Counters reset to zero on
/// [`Router::recover`] (they describe this process's writes, not the
/// journal's history).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots installed (cadence and [`Router::checkpoint_now`]).
    pub full_checkpoints: u64,
    /// Blob bytes across all of them.
    pub full_bytes: u64,
}

/// What a door answers for a `txid` the graph still holds.
#[cold]
fn live(txid: TxId) -> io::Error {
    io::Error::new(
        io::ErrorKind::AlreadyExists,
        format!("transaction {} is already placed", txid.0),
    )
}

impl Router {
    /// Starts configuring a router.
    pub fn builder() -> RouterBuilder {
        RouterBuilder::new()
    }

    /// Number of shards.
    pub fn k(&self) -> u32 {
        self.placer.k()
    }

    /// Pre-sizes the TaN graph arenas for `n` transactions (a pure
    /// capacity hint — decisions are unaffected). No-op once anything
    /// was submitted. [`RouterBuilder::expected_total`] applies this
    /// automatically.
    pub fn reserve(&mut self, n: usize) {
        // A windowed graph sizes its own ring as the window warms up;
        // only an unbounded one is worth pre-sizing for the stream.
        if self.tan.is_empty() && self.retention.graph_window().is_none() {
            self.tan = TanGraph::with_capacity(n);
            self.tan.set_retention(self.retention);
        }
    }

    /// The state-lifecycle policy this router runs under.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Advances the graph's eviction horizon to match the retention
    /// policy after an insertion (O(1); a no-op when unbounded).
    fn advance_horizon(&mut self) {
        if let Some(w) = self.retention.graph_window() {
            let len = self.tan.len();
            if len > w {
                self.tan.evict_before((len - w) as u32);
            }
        }
    }

    /// Releases excess capacity — the checkpoint-time shrink. Eviction
    /// itself needs no such call: [`Router::submit`] retires each aged
    /// node in place, at once, under a retention policy. This only
    /// re-fits the graph's window ring to the rows it holds and drops
    /// every arena's growth headroom; the assignment store shrinks
    /// alongside (a full ring has no slack; a warming one, the
    /// retained-survivor table and unbounded histories do). Decisions
    /// are unaffected: node ids are stable and the horizon does not move.
    pub fn compact(&mut self) {
        self.tan.compact();
        self.placer.compact_assignments();
    }

    /// Lifetime snapshot counters of a durable router (all zero
    /// without storage). See [`CheckpointStats`].
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.journal.as_ref().map(|j| j.stats).unwrap_or_default()
    }

    /// Lifetime counters of the dynamic re-sharding engine — all zero
    /// when no [`RouterBuilder::rebalancer`] was configured.
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.rebalancer
            .as_ref()
            .map(|rb| rb.state.stats)
            .unwrap_or_default()
    }

    /// Drains the moves committed by rebalance epochs since the last
    /// drain into `out` (appended; `out` is not cleared). Consumers that
    /// mirror the assignment — the sim's lock router, a dashboard's
    /// placement cache — apply these to stay consistent with the
    /// post-epoch assignment. The buffer is process-local, like
    /// [`CheckpointStats`]: [`Router::recover`] starts it empty.
    pub fn drain_rebalance_moves(&mut self, out: &mut Vec<Move>) {
        out.append(&mut self.applied_moves);
    }

    /// Placements whose transaction had at least one input on another
    /// shard — together with the stream length this is the live
    /// cross-tx ratio the rebalancer is trying to shrink. Counted for
    /// every strategy (near-free: the decision buffer already holds the
    /// input shards).
    pub fn cross_placed(&self) -> u64 {
        self.cross_placed
    }

    /// The [`Strategy`] in use.
    pub fn strategy(&self) -> Strategy {
        self.placer.strategy()
    }

    /// The strategy's table label (e.g. `"optchain"`), static for
    /// metrics plumbing.
    pub fn strategy_name(&self) -> &'static str {
        self.placer.name()
    }

    /// The TaN graph built from every submitted transaction.
    pub fn tan(&self) -> &TanGraph {
        &self.tan
    }

    /// A view over the shard of every submitted transaction, indexed by
    /// stable node id. Under a [`RetentionPolicy`] the history is
    /// windowed in lockstep with the graph: aged entries read as `None`
    /// ([`AssignmentView::get`]), while `len()` keeps counting the
    /// whole stream.
    pub fn assignments(&self) -> AssignmentView<'_> {
        self.placer.assignments()
    }

    /// The shard a previously submitted (or adopted) transaction was
    /// placed into, by transaction id — the lookup the serving layer
    /// answers `Query` requests with. `None` when the id was never seen
    /// by this router, or when its assignment aged out under a
    /// [`RetentionPolicy`].
    pub fn shard_of(&self, txid: TxId) -> Option<ShardId> {
        let node = self.tan.node(txid)?;
        self.assignments().get(node)
    }

    /// The telemetry the router currently places against.
    pub fn telemetry(&self) -> &[ShardTelemetry] {
        &self.telemetry
    }

    /// How many times the telemetry values have changed — the L2S memo
    /// epoch (sessions key their views by it).
    pub fn telemetry_version(&self) -> u64 {
        self.version
    }

    /// Updates the router's telemetry board. The version is bumped only
    /// when a value actually changed, which is exactly the
    /// [`L2sMemo`] epoch contract: unchanged values keep the epoch and
    /// the cross-transaction memo stays warm.
    ///
    /// # Panics
    ///
    /// Panics if `telemetry.len() != k`, or on any error
    /// [`Router::try_feed_telemetry`] returns.
    pub fn feed_telemetry(&mut self, telemetry: &[ShardTelemetry]) {
        self.try_feed_telemetry(telemetry)
            .expect("journaling a telemetry change failed")
    }

    /// [`Router::feed_telemetry`], surfacing journal write errors
    /// instead of panicking (see [`Router::submit`] for the error
    /// contract). On an in-RAM router this never fails.
    ///
    /// # Panics
    ///
    /// Panics if `telemetry.len() != k`.
    pub fn try_feed_telemetry(&mut self, telemetry: &[ShardTelemetry]) -> io::Result<()> {
        self.refuse()?;
        assert_eq!(
            telemetry.len(),
            self.k() as usize,
            "telemetry must cover every shard"
        );
        if self.telemetry != telemetry {
            self.telemetry.copy_from_slice(telemetry);
            self.version += 1;
            // Journaled on change only — mirroring the version-bump
            // contract, so replay reproduces the exact epoch sequence.
            self.journal_record(|w| durable::encode_telemetry_record(w, telemetry))?;
        }
        Ok(())
    }

    /// Opens a fresh per-client session (see [`PlacementSession`]).
    pub fn session(&self) -> PlacementSession {
        PlacementSession::default()
    }

    /// Places a transaction spending from `inputs` and returns its
    /// shard. Inputs unknown to the router (spends of pre-history
    /// outputs) create no TaN edge, mirroring [`TanGraph::insert`].
    /// [`Router::last_decision`] holds the score breakdown afterwards.
    ///
    /// On a durable router the decision is journaled (and, at batch
    /// boundaries, fsynced) **before** this returns — the ack implies
    /// the WAL holds the record.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AlreadyExists`] if the graph still holds `txid`
    /// (its shard is [`Router::shard_of`]), before anything is decided,
    /// ticked or journaled; an evicted id is placed afresh. Otherwise
    /// fails only when journaling fails, never in RAM.
    ///
    /// The first storage error fails the router: this call returns it,
    /// and every later call of a mutating door returns its kind
    /// ([`Router::failure`]) before it touches the graph, the strategy
    /// state, the board or the journal. Reads keep working. What the
    /// failing call applied in RAM is not undone: [`Router::shard_of`]
    /// of its id, never acked, may name a shard no journal holds.
    pub fn submit(&mut self, txid: TxId, inputs: &[TxId]) -> io::Result<ShardId> {
        let shard = self.submit_one(txid, inputs, None, None)?;
        self.close_batch_record().map(|()| shard)
    }

    /// Places a full [`Transaction`] (edges to its distinct input
    /// transactions) and returns its shard — [`Router::submit`] with
    /// the same error contract.
    pub fn submit_tx(&mut self, tx: &Transaction) -> io::Result<ShardId> {
        let shard = self.submit_one(tx.id(), &[], Some(tx), None)?;
        self.close_batch_record().map(|()| shard)
    }

    /// [`Router::submit_tx`] through a client session: the session's
    /// memo (and telemetry view, if set) drive the L2S evaluation.
    ///
    /// # Errors
    ///
    /// Besides [`Router::submit`]'s errors, a durable router refuses a
    /// session whose view differs from its own board with
    /// [`io::ErrorKind::Unsupported`], before anything is inserted or
    /// journaled: the journal does not record views, so recovery, which
    /// places against the board, could not reproduce the decision.
    ///
    /// # Panics
    ///
    /// Panics if the session's view length ≠ k.
    pub fn submit_tx_in(
        &mut self,
        session: &mut PlacementSession,
        tx: &Transaction,
    ) -> io::Result<ShardId> {
        if self.journal.is_some() && session.has_view && session.view != self.telemetry {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "a durable router places against its own telemetry board: \
                 a session view that differs from it cannot be replayed",
            ));
        }
        let shard = self.submit_one(tx.id(), &[], Some(tx), Some(session))?;
        self.close_batch_record().map(|()| shard)
    }

    /// Places every transaction of `batch` in order, writing the shards
    /// into `out` (cleared first) — the zero-allocation bulk path: after
    /// warm-up, no per-transaction heap allocation happens on this path.
    /// A durable router journals the batch as one framed record (split
    /// only where a flush or snapshot boundary falls inside it), so a
    /// crash keeps all of a record's placements or none.
    ///
    /// # Panics
    ///
    /// Panics on any error [`Router::submit`] returns: a transaction id
    /// the graph still holds, a journal write error or the router's
    /// failure.
    pub fn submit_batch(&mut self, batch: &[Transaction], out: &mut Vec<ShardId>) {
        out.clear();
        out.reserve(batch.len());
        for tx in batch {
            let shard = self.submit_one(tx.id(), &[], Some(tx), None);
            out.push(shard.unwrap_or_else(|e| panic!("placing a batch failed: {e}")));
        }
        self.close_batch_record()
            .unwrap_or_else(|e| panic!("placing a batch failed: {e}"));
    }

    /// Ends the SubmitBatch record the preceding [`Router::submit_one`]
    /// calls filled: every public door's last step (in RAM, a no-op).
    #[inline]
    fn close_batch_record(&mut self) -> io::Result<()> {
        match self.journal.as_mut() {
            Some(journal) => {
                let closed = journal.close_batch();
                self.noted(closed)
            }
            None => Ok(()),
        }
    }

    /// The one submission path behind every public door: link the node
    /// into the graph, decide, journal into the open SubmitBatch record
    /// (the door closes it). `tx` carries the full transaction when the
    /// caller has one, linked by its distinct inputs (`inputs` unused);
    /// otherwise `inputs` is linked as given. The journal records the
    /// list the graph linked, so replay through the raw-id door is
    /// identical to the original full-transaction submission.
    #[inline]
    fn submit_one(
        &mut self,
        txid: TxId,
        inputs: &[TxId],
        tx: Option<&Transaction>,
        session: Option<&mut PlacementSession>,
    ) -> io::Result<ShardId> {
        self.refuse()?;
        let mut tids = std::mem::take(&mut self.txid_scratch);
        let inputs = match tx {
            Some(tx) => {
                Self::distinct_inputs_into(tx, &mut tids);
                &tids[..]
            }
            None => inputs,
        };
        let placed = match self.tan.try_insert(txid, inputs) {
            Err(_) => Err(live(txid)),
            Ok(node) => {
                let shard = self.place_next(node, session);
                match self.journal {
                    None => Ok(shard),
                    Some(_) => self.journal_submit(txid, inputs, shard),
                }
            }
        };
        self.txid_scratch = tids;
        placed
    }

    /// The durable half of [`Router::submit_one`] — out of line, so the
    /// in-RAM doors carry none of the journal's code.
    #[inline(never)]
    fn journal_submit(
        &mut self,
        txid: TxId,
        inputs: &[TxId],
        shard: ShardId,
    ) -> io::Result<ShardId> {
        self.journal_entry(|journal| journal.push_submit(txid, inputs, shard.0))
            .map(|()| shard)
    }

    /// The score breakdown of the most recent submission, valid until
    /// the next one. Score vectors are populated for
    /// [`Strategy::OptChain`]; other strategies produce no breakdown
    /// and leave them empty (the shard and input-shard set are always
    /// recorded).
    pub fn last_decision(&self) -> &DecisionBuf {
        &self.buf
    }

    /// Hit/miss counters of the router-level L2S memo (session-less
    /// submissions; sessions carry their own —
    /// [`PlacementSession::l2s_memo_stats`]).
    pub fn l2s_memo_stats(&self) -> (u64, u64) {
        (self.memo.hits(), self.memo.misses())
    }

    /// Records a transaction whose placement was decided by **another**
    /// router (a placement service this one mirrors): inserts the node
    /// into the local TaN graph — edges form to whichever of `inputs`
    /// this router already knows — and adopts the imposed shard into
    /// the strategy state, so future local spenders of this
    /// transaction resolve their input lookup and are pulled toward its
    /// shard. For T2S-bearing strategies the adopted node contributes
    /// like a parentless transaction placed into `shard` (see
    /// [`OptChainPlacer::adopt_in`]); Greedy/OmniLedger count it toward
    /// their shard sizes.
    ///
    /// # Errors
    ///
    /// Before anything is inserted or journaled: `Unsupported` under
    /// [`Strategy::Metis`] (no adoption hook), `InvalidInput` if
    /// `shard >= k`, `AlreadyExists` if the graph still holds `txid`.
    /// Journal errors and the router's failure as for [`Router::submit`].
    pub fn adopt_remote(&mut self, txid: TxId, inputs: &[TxId], shard: u32) -> io::Result<()> {
        self.refuse()?;
        if matches!(self.placer, DynPlacer::Oracle(_)) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "adopt_remote is unsupported for oracle (Metis) placement",
            ));
        }
        if shard >= self.k() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("adopted shard {shard} out of range"),
            ));
        }
        let node = self.tan.try_insert(txid, inputs).map_err(|_| live(txid))?;
        let Router { tan, placer, .. } = self;
        match placer {
            // The graph-aware adoption path: a retention engine saves
            // the score row (and assignment) its ring slot overwrites.
            DynPlacer::OptChain(p) => p.adopt_in(tan, node, shard),
            DynPlacer::T2s(p) => p.adopt_in(tan, node, shard),
            DynPlacer::Random(p) => p.adopt_in(tan, shard),
            DynPlacer::Greedy(p) => p.adopt_in(tan, shard),
            DynPlacer::Oracle(_) => unreachable!("rejected above"),
        }
        self.adopted_total += 1;
        self.advance_horizon();
        self.journal_record(|w| durable::encode_adopt(w, txid, inputs, shard))
    }

    /// The distinct input transaction ids of a [`Transaction`], in
    /// first-appearance order — the list [`Router::submit_tx`] links by,
    /// written into `out` (cleared first): what the journal records.
    fn distinct_inputs_into(tx: &Transaction, out: &mut Vec<TxId>) {
        out.clear();
        for op in tx.inputs() {
            if !out.contains(&op.txid) {
                out.push(op.txid);
            }
        }
    }

    /// Lifetime count of [`Router::adopt_remote`] placements.
    pub fn adopted_total(&self) -> u64 {
        self.adopted_total
    }

    /// The state the checkpoint writer encodes, borrowed.
    fn parts(&self) -> RouterSnapshot<'_> {
        let (assignments, engine, greedy_sizes) = self.placer.state();
        RouterSnapshot {
            tan: Cow::Borrowed(&self.tan),
            assignments: Cow::Borrowed(assignments),
            engine: engine.map(Cow::Borrowed),
            greedy_sizes: greedy_sizes.map(Cow::Borrowed),
            adopted_total: self.adopted_total,
            telemetry: Cow::Borrowed(&self.telemetry),
            version: self.version,
            rebalance: self.rebalancer.as_ref().map(|rb| Cow::Borrowed(&rb.state)),
            cross_placed: self.cross_placed,
        }
    }

    /// Boots a **fresh** router from a prefix that something else
    /// partitioned — the paper's Table II experiment (a Metis partition
    /// of the historical prefix) as an API: adopts a copy of the
    /// un-evicted `tan` under this router's own retention policy and
    /// replays `assignments` (one shard per node; entries past the
    /// graph are ignored) into the strategy state, after which
    /// submission continues as if the router had made those placements
    /// itself. The telemetry board is untouched.
    ///
    /// A durable router ends by installing the warm state as a snapshot
    /// at journal position 0, so recovery starts from it; the error is
    /// that [`Router::checkpoint_now`]'s, or the router's failure (see
    /// [`Router::submit`]) before anything is adopted.
    ///
    /// # Panics
    ///
    /// Panics if the router has already placed transactions, the graph
    /// has evicted nodes, or `assignments` is shorter than the graph or
    /// holds a shard `>= k` (under [`Strategy::Metis`]: any shard but
    /// the oracle's).
    pub fn warm_start_history(&mut self, tan: &TanGraph, assignments: &[u32]) -> io::Result<()> {
        self.refuse()?;
        assert!(
            self.tan.is_empty() && self.placer.assignments().is_empty(),
            "warm_start_history requires a fresh router"
        );
        assert!(
            assignments.len() >= tan.len(),
            "every node needs an assignment"
        );
        let history = &assignments[..tan.len()];
        match &mut self.placer {
            DynPlacer::OptChain(p) => p.warm_start(tan, history),
            DynPlacer::T2s(p) => p.warm_start(tan, history),
            DynPlacer::Random(p) => history.iter().for_each(|&s| p.adopt_in(tan, s)),
            DynPlacer::Greedy(p) => history.iter().for_each(|&s| p.adopt_in(tan, s)),
            DynPlacer::Oracle(p) => history.iter().for_each(|&s| p.adopt_in(tan, s)),
        }
        self.tan = tan.clone();
        self.tan.set_retention(self.retention);
        self.checkpoint_now()
    }

    /// `true` iff this router journals to a storage backend.
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Bytes the journal currently holds durable (segments + meta +
    /// checkpoint), or `None` on an in-RAM router. Under a retention
    /// policy, periodic checkpoints and segment GC bound this to
    /// O(window).
    pub fn journal_bytes(&self) -> Option<u64> {
        self.journal.as_ref().map(|j| j.storage.bytes_on_disk())
    }

    /// Durably commits every record journaled so far (one fsync, then
    /// `Storage::sync`), ahead of the batch cadence. No-op in RAM.
    /// Errors as for [`Router::submit`].
    pub fn flush_journal(&mut self) -> io::Result<()> {
        self.refuse()?;
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let storage = &mut journal.storage;
        let flushed = storage.flush().and_then(|()| storage.sync());
        let flushed = flushed.map(|()| journal.unflushed = 0);
        self.noted(flushed)
    }

    /// The kind of this router's first storage error, or `None`. From
    /// then on the mutating doors (the submissions, `adopt_remote`,
    /// `try_feed_telemetry`, `warm_start_history`, `flush_journal`,
    /// `checkpoint_now`) return it; see [`Router::submit`].
    pub fn failure(&self) -> Option<io::ErrorKind> {
        self.failure
    }

    /// The first step of every mutating door: `Err` once the router
    /// has failed.
    #[inline]
    fn refuse(&self) -> io::Result<()> {
        self.failure.map_or(Ok(()), |kind| Err(kind.into()))
    }

    /// `result`, keeping the kind of its error as the router's failure
    /// if it is the first: wraps every storage call a door makes.
    fn noted<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.failure.get_or_insert(e.kind());
        }
        result
    }

    /// Journals one entry through `journal` and, when that makes a
    /// snapshot due, installs it. No-op on an in-RAM router.
    fn journal_entry(
        &mut self,
        journal: impl FnOnce(&mut Journal) -> io::Result<bool>,
    ) -> io::Result<()> {
        let Some(attached) = self.journal.as_mut() else {
            return Ok(());
        };
        let due = journal(attached);
        if self.noted(due)? {
            self.checkpoint_now()?;
        }
        Ok(())
    }

    /// Journals one whole record (Adopt, Telemetry).
    fn journal_record(&mut self, encode: impl FnOnce(&mut ByteWriter)) -> io::Result<()> {
        self.journal_entry(|journal| journal.append_record(encode))
    }

    /// Installs a snapshot now — flush, encode, checkpoint swap,
    /// segment GC — ahead of the automatic cadence (shutdown hygiene:
    /// recovery then replays nothing). No-op on an in-RAM router.
    ///
    /// Nothing else is written: the entries journaled since the last
    /// snapshot already sit in the segments, where recovery reads them.
    /// Errors as for [`Router::submit`].
    pub fn checkpoint_now(&mut self) -> io::Result<()> {
        self.refuse()?;
        let installed = self.install_snapshot();
        self.noted(installed)
    }

    /// [`Router::checkpoint_now`]'s storage calls.
    fn install_snapshot(&mut self) -> io::Result<()> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        debug_assert_eq!(journal.open_entries, 0, "a batch record is still open");
        // Every record the snapshot claims to cover goes to the backend first.
        journal.storage.flush()?;
        journal.unflushed = 0;
        let upto = journal.storage.next_seq();
        // The blob is the body, sized from the last one (a warm window's
        // snapshots differ by little); the backend drops it once installed.
        let hint = journal.body_len;
        let mut body = ByteWriter::with_capacity(SNAPSHOT_RESERVE.max(hint + hint / 8));
        self.parts().encode_into(&mut body);
        let journal = self.journal.as_mut().expect("checked above");
        journal.body_len = body.len();
        journal
            .storage
            .put_checkpoint_owned(upto, body.into_vec())?;
        journal.since_snapshot = 0;
        journal.snapshot_every = journal.steady_every;
        journal.stats.full_checkpoints += 1;
        journal.stats.full_bytes += journal.body_len as u64;
        journal.storage.gc()?;
        Ok(())
    }

    /// The one way a router's state comes back: reads the meta blob in
    /// `storage` (the full builder configuration), restores the snapshot
    /// verbatim (rebalancer state included), and replays the surviving
    /// WAL tail above it — re-running each journaled submission (and so
    /// each epoch boundary) through the deterministic placement path and
    /// cross-checking the recorded shard, re-applying adoptions and
    /// telemetry changes in journal order. The result is identical to
    /// the crashed router at its last durable record: same assignments,
    /// scores, counters and telemetry epoch, same future decisions, an
    /// empty drain buffer. The journal stays attached, so the recovered
    /// router keeps journaling where the crash left off.
    ///
    /// Torn or CRC-corrupt tail frames (a kill -9 mid-write) are
    /// truncated by the storage layer on reopen — recovery sees the
    /// longest clean prefix, exactly the records whose flush was acked
    /// (plus any buffered records the OS happened to land). A torn
    /// batch record takes all of its placements with it; none of them
    /// was acked.
    ///
    /// # Errors
    ///
    /// Fails when the backend holds no meta blob, a blob or record
    /// fails structural validation, a record names a transaction that
    /// is already placed or a shard `>= k`, or a replayed decision
    /// diverges from its journaled shard (all indicate corruption
    /// beyond what a crash can produce).
    pub fn recover(storage: Box<dyn Storage>) -> io::Result<Router> {
        let meta = storage.meta()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                "storage holds no journal meta blob",
            )
        })?;
        let spec = durable::decode_spec(&meta)?;
        let mut router = spec.build_unreserved();
        let mut journal = Journal::new(storage, &spec);
        let mut from_seq = 0u64;
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if let Some((upto, body)) = journal.storage.checkpoint()? {
            let mut r = ByteReader::new(&body);
            let snapshot = RouterSnapshot::decode_from(&mut r)?;
            r.finish()?;
            // A CRC-valid checkpoint can still disagree with the meta
            // blob the router was just built from: typed, not a panic.
            // The check states every rule but which *kind* of strategy
            // and rebalancer state the router takes: the install
            // matches state that.
            let disagrees = |rule: &str| invalid(format!("checkpoint upto {upto}: {rule}"));
            snapshot
                .check(router.retention, &router.placer)
                .map_err(disagrees)?;
            let assignments = snapshot.assignments.into_owned();
            let engine = snapshot.engine.map(Cow::into_owned);
            match (&mut router.placer, engine, snapshot.greedy_sizes) {
                (DynPlacer::OptChain(p), Some(engine), None) => p.restore(engine, assignments),
                (DynPlacer::T2s(p), Some(engine), None) => p.restore(engine, assignments),
                (DynPlacer::Random(p), None, None) => p.restore(assignments),
                (DynPlacer::Greedy(p), None, Some(sizes)) => p.restore(assignments, sizes.into()),
                (DynPlacer::Oracle(p), None, None) => p.restore(assignments),
                _ => Err(disagrees("snapshot holds another strategy's state"))?,
            }
            match (&mut router.rebalancer, snapshot.rebalance) {
                (Some(rb), Some(state)) => rb.state = state.into_owned(),
                (None, None) => {}
                _ => Err(disagrees("snapshot and meta disagree on the rebalancer"))?,
            }
            router.tan = snapshot.tan.into_owned();
            router.adopted_total = snapshot.adopted_total;
            router.telemetry = snapshot.telemetry.into_owned();
            router.version = snapshot.version;
            router.cross_placed = snapshot.cross_placed;
            from_seq = upto;
            journal.snapshot_every = journal.steady_every;
            journal.body_len = body.len();
        }
        let mut replayed = Ok(());
        journal.storage.replay(from_seq, &mut |seq, payload| {
            if replayed.is_ok() {
                replayed = router
                    .apply_recovered_record(seq, payload)
                    .map(|entries| journal.since_snapshot += entries);
            }
        })?;
        replayed?;
        // The drain buffer is process-local: moves the replayed tail
        // committed were drained (or not) by the crashed process.
        router.applied_moves.clear();
        router.journal = Some(journal);
        Ok(router)
    }

    /// Applies one journaled record during recovery, returning the
    /// entries it held. Bytes from disk fail typed (`InvalidData`,
    /// naming the sequence number), never panic: a shard out of range or
    /// a placement past the end of the oracle is checked here, the rest
    /// is the doors' own typed refusals.
    fn apply_recovered_record(&mut self, seq: u64, payload: &[u8]) -> io::Result<u64> {
        let k = self.k();
        let fail = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let refused = |e: io::Error| fail(format!("seq {seq}: {e}"));
        let check = |router: &Router, shard: u32| {
            if shard >= k {
                return Err(fail(format!("seq {seq}: journaled shard {shard} >= k {k}")));
            }
            if let DynPlacer::Oracle(p) = &router.placer {
                if !p.covers(router.tan.len()) {
                    return Err(fail(format!(
                        "seq {seq}: the journal is longer than its oracle"
                    )));
                }
            }
            Ok(())
        };
        let record =
            durable::decode_record(payload).map_err(|e| fail(format!("seq {seq}: {e}")))?;
        match record {
            WalRecord::SubmitBatch(entries) => {
                let count = entries.len() as u64;
                for (txid, inputs, shard) in entries {
                    check(self, shard)?;
                    // Re-run the deterministic decision (the journal is
                    // not attached yet, so nothing is re-journaled); the
                    // journaled shard is a corruption tripwire, not an
                    // input.
                    let got = self.submit(txid, &inputs).map_err(refused)?;
                    if got.0 != shard {
                        return Err(fail(format!(
                            "replay diverged at seq {seq}: recomputed shard {} != journaled {shard}",
                            got.0
                        )));
                    }
                }
                return Ok(count);
            }
            WalRecord::Adopt((txid, inputs, shard)) => {
                check(self, shard)?;
                self.adopt_remote(txid, &inputs, shard).map_err(refused)?;
            }
            WalRecord::Telemetry(board) => {
                if board.len() != k as usize {
                    return Err(fail(format!(
                        "seq {seq}: journaled telemetry length mismatch"
                    )));
                }
                self.try_feed_telemetry(&board)?;
            }
        }
        Ok(1)
    }

    /// Decides the shard of the freshly inserted `node`, through the
    /// session's memo/view when given, and records the decision into the
    /// router's scratch buffer.
    fn place_next(&mut self, node: NodeId, session: Option<&mut PlacementSession>) -> ShardId {
        let Router {
            tan,
            placer,
            telemetry,
            version,
            buf,
            memo,
            ..
        } = self;
        let (view, epoch, memo): (&[ShardTelemetry], u64, &mut L2sMemo) = match session {
            Some(s) if s.has_view => (&s.view, s.view_version, &mut s.memo),
            Some(s) => (&*telemetry, *version, &mut s.memo),
            None => (&*telemetry, *version, memo),
        };
        let ctx = PlacementContext::with_epoch(tan, view, epoch);
        let shard = match placer {
            DynPlacer::OptChain(p) => p.place_into_with_memo(&ctx, node, buf, memo),
            other => {
                // Input shards are read **before** the placement is
                // recorded: pushing `node` advances a windowed store's
                // live range, and a parent exactly `window` ids back —
                // still live at decision time — would otherwise read as
                // evicted in the detail buffer (OptChain's own path
                // reads them pre-push inside `place_into_with_memo`).
                input_shards_into(tan, other.assignments(), node, buf.input_shards_mut());
                let shard = other.place(&ctx, node);
                buf.record_plain(shard);
                shard
            }
        };
        // The retention lifecycle: each submission advances the eviction
        // horizon so the graph trails the stream by exactly the window.
        self.advance_horizon();
        if self.buf.input_shards().iter().any(|&s| s != shard.0) {
            self.cross_placed += 1;
        }
        if self.rebalancer.is_some() {
            self.rebalance_tick();
        }
        shard
    }

    /// One tick of the migration-epoch clock. The clock is the local
    /// placement count: adoptions replicate a *remote* decision and
    /// must not shift the local epoch boundaries. It is part of the
    /// snapshot already (assignments minus adoptions), so a recovered
    /// router resumes it exactly.
    fn rebalance_tick(&mut self) {
        let Router {
            tan,
            placer,
            rebalancer,
            applied_moves,
            adopted_total,
            ..
        } = self;
        let Some(rb) = rebalancer else { return };
        let DynPlacer::OptChain(p) = placer else {
            unreachable!("the builder only attaches a rebalancer to Strategy::OptChain")
        };
        let placed = p.assignments_store().len() as u64 - *adopted_total;
        rb.on_placement(placed, tan, p, applied_moves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optchain_utxo::{TxOutput, WalletId};

    /// Link `i` of a single spend chain: a coinbase, then each
    /// transaction spending its predecessor.
    fn chain_tx(i: u64) -> Transaction {
        if i == 0 {
            return Transaction::coinbase(TxId(0), 1_000, WalletId(0));
        }
        Transaction::builder(TxId(i))
            .input(TxId(i - 1).outpoint(0))
            .output(TxOutput::new(1_000, WalletId(0)))
            .build()
    }

    #[test]
    fn builder_defaults_to_paper_optchain() {
        let router = Router::builder().shards(8).build();
        assert_eq!(router.k(), 8);
        assert_eq!(router.strategy(), Strategy::OptChain);
        assert_eq!(router.strategy_name(), "optchain");
        assert_eq!(router.telemetry_version(), 0);
        assert_eq!(router.telemetry().len(), 8);
    }

    #[test]
    fn submit_groups_related_transactions() {
        let mut router = Router::builder().shards(4).build();
        let a = router.submit(TxId(0), &[]).unwrap();
        let b = router.submit(TxId(1), &[TxId(0)]).unwrap();
        let c = router.submit(TxId(2), &[TxId(1)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(router.assignments().len(), 3);
        assert_eq!(router.tan().len(), 3);
    }

    #[test]
    fn feed_telemetry_bumps_version_only_on_change() {
        let mut router = Router::builder().shards(2).build();
        let same = vec![DEFAULT_TELEMETRY; 2];
        router.feed_telemetry(&same);
        assert_eq!(
            router.telemetry_version(),
            0,
            "unchanged values keep the epoch"
        );
        let hot = vec![ShardTelemetry::new(0.1, 5.0), DEFAULT_TELEMETRY];
        router.feed_telemetry(&hot);
        assert_eq!(router.telemetry_version(), 1);
        router.feed_telemetry(&hot);
        assert_eq!(router.telemetry_version(), 1);
    }

    #[test]
    fn detail_exposes_scores_for_optchain() {
        let mut router = Router::builder().shards(4).build();
        router.submit(TxId(0), &[]).unwrap();
        let buf = router.last_decision();
        assert_eq!(buf.t2s().len(), 4);
        assert_eq!(buf.fitness().len(), 4);
        assert!(buf.input_shards().is_empty());
    }

    #[test]
    fn detail_for_non_optchain_records_shard_and_inputs() {
        let mut router = Router::builder()
            .shards(4)
            .strategy(Strategy::Greedy)
            .build();
        router.submit(TxId(0), &[]).unwrap();
        router.submit(TxId(1), &[TxId(0)]).unwrap();
        let buf = router.last_decision();
        assert!(buf.t2s().is_empty());
        assert_eq!(buf.input_shards().len(), 1);
        assert_eq!(buf.shard().0, buf.input_shards()[0]);
    }

    #[test]
    fn sessions_accumulate_memo_hits_on_chain_traffic() {
        let mut router = Router::builder().shards(4).build();
        let mut session = router.session();
        // A chain: after the first spend, the input-shard set repeats
        // under an unchanged view, so the session memo hits.
        router.submit_tx_in(&mut session, &chain_tx(0)).unwrap();
        for i in 1..20u64 {
            router.submit_tx_in(&mut session, &chain_tx(i)).unwrap();
        }
        let (hits, misses) = session.l2s_memo_stats();
        assert!(hits > 0, "hits {hits} misses {misses}");
        let (rh, rm) = router.l2s_memo_stats();
        assert_eq!(
            (rh, rm),
            (0, 0),
            "session traffic must not touch the router memo"
        );
    }

    #[test]
    fn session_views_key_by_version() {
        let mut router = Router::builder().shards(2).build();
        let mut session = router.session();
        assert_eq!(session.view_version(), None);
        let view = vec![ShardTelemetry::new(0.2, 1.0); 2];
        session.set_view(&view, 7);
        assert_eq!(session.view_version(), Some(7));
        let s = router.submit_tx_in(&mut session, &chain_tx(0)).unwrap();
        assert!(s.index() < 2);
    }

    #[test]
    fn metis_requires_oracle() {
        let oracle = vec![1u32, 0, 1];
        let mut router = Router::builder()
            .shards(2)
            .strategy(Strategy::Metis)
            .oracle(oracle.clone())
            .build();
        for i in 0..3u64 {
            let s = router.submit(TxId(i), &[]).unwrap();
            assert_eq!(s.0, oracle[i as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "requires RouterBuilder::oracle")]
    fn metis_without_oracle_panics() {
        Router::builder()
            .shards(2)
            .strategy(Strategy::Metis)
            .build();
    }

    type Shared = crate::SharedStorage<crate::MemStorage>;

    /// A durable router over a clonable in-RAM backend, and a restart:
    /// snapshot, drop, [`Router::recover`] — the one way state comes
    /// back.
    fn in_ram(builder: RouterBuilder) -> (Router, Shared) {
        let storage = crate::SharedStorage::new(crate::MemStorage::new());
        (builder.storage(Box::new(storage.clone())).build(), storage)
    }

    fn restart(mut router: Router, storage: &Shared) -> Router {
        router.checkpoint_now().unwrap();
        drop(router);
        Router::recover(Box::new(storage.clone())).unwrap()
    }

    /// Drives `drive` into a durable router and an in-RAM twin, restarts
    /// the durable one, and checks that it holds the twin's state and
    /// extends a chain from `TxId(0)` exactly like it.
    fn restarted_twin(k: u32, drive: impl Fn(&mut Router)) -> Router {
        let (mut durable, storage) = in_ram(Router::builder().shards(k));
        let mut twin = Router::builder().shards(k).build();
        drive(&mut durable);
        drive(&mut twin);
        let mut restored = restart(durable, &storage);
        assert_eq!(restored.assignments(), twin.assignments());
        assert_eq!(restored.adopted_total(), twin.adopted_total());
        assert_eq!(restored.telemetry(), twin.telemetry());
        assert_eq!(restored.telemetry_version(), twin.telemetry_version());
        assert_eq!(restored.cross_placed(), twin.cross_placed());
        for i in 1_000..1_020u64 {
            let parent = [TxId(if i == 1_000 { 0 } else { i - 1 })];
            let want = twin.submit(TxId(i), &parent).unwrap();
            assert_eq!(restored.submit(TxId(i), &parent).unwrap(), want, "tx {i}");
        }
        restored
    }

    #[test]
    fn snapshot_roundtrip_restores_placement_state() {
        let restored = restarted_twin(4, |r| {
            r.submit(TxId(0), &[]).unwrap();
            for i in 1..30u64 {
                r.submit(TxId(i), &[TxId(i - 1)]).unwrap();
            }
        });
        assert_eq!(restored.tan().len(), 50);
    }

    #[test]
    fn adopt_remote_links_future_spenders() {
        let mut router = Router::builder().shards(4).build();
        // A chain head placed elsewhere lands in shard 2.
        router.adopt_remote(TxId(100), &[], 2).unwrap();
        assert_eq!(router.assignments().to_vec(), Some(vec![2]));
        assert_eq!(router.adopted_total(), 1);
        // A local spender of the adopted node follows it into shard 2.
        let s = router.submit(TxId(101), &[TxId(100)]).unwrap();
        assert_eq!(s.0, 2);
        assert_eq!(router.tan().edge_count(), 1);
    }

    #[test]
    fn snapshot_roundtrip_replays_adopted_nodes() {
        let restored = restarted_twin(4, |r| {
            r.submit(TxId(0), &[]).unwrap();
            r.adopt_remote(TxId(50), &[TxId(0)], 3).unwrap();
            for i in 1..20u64 {
                r.submit(TxId(i), &[TxId(i - 1)]).unwrap();
            }
            r.adopt_remote(TxId(51), &[TxId(50)], 3).unwrap();
        });
        assert_eq!(restored.adopted_total(), 2);
    }

    #[test]
    fn snapshot_restores_telemetry_board_and_version() {
        let hot = vec![ShardTelemetry::new(0.1, 5.0), DEFAULT_TELEMETRY];
        let mut restored = restarted_twin(2, |r| {
            r.submit(TxId(0), &[]).unwrap();
            r.feed_telemetry(&hot);
        });
        assert_eq!(restored.telemetry_version(), 1);
        // Re-feeding the same values keeps the restored epoch.
        restored.feed_telemetry(&hot);
        assert_eq!(restored.telemetry_version(), 1);
    }

    /// Every refusal of `adopt_remote` is typed and leaves the router
    /// as it was.
    #[test]
    fn adopt_remote_rejects_oracle_placement() {
        let metis = Router::builder().shards(2).strategy(Strategy::Metis);
        let mut metis = metis.oracle(vec![0, 1]).build();
        let mut router = Router::builder().shards(2).build();
        let err = |r: &mut Router, shard| r.adopt_remote(TxId(0), &[], shard).unwrap_err().kind();
        assert_eq!(err(&mut metis, 1), io::ErrorKind::Unsupported);
        router.submit(TxId(0), &[]).unwrap();
        assert_eq!(err(&mut router, 2), io::ErrorKind::InvalidInput);
        assert_eq!(err(&mut router, 1), io::ErrorKind::AlreadyExists);
        assert_eq!((metis.tan().len(), router.tan().len()), (0, 1));
        assert_eq!(router.adopted_total(), 0);
    }

    #[test]
    fn submit_batch_fills_caller_buffer() {
        let txs: Vec<Transaction> = (0..10u64).map(chain_tx).collect();
        let mut router = Router::builder().shards(4).build();
        let mut out = vec![ShardId(9); 3]; // stale content is cleared
        router.submit_batch(&txs, &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.windows(2).all(|w| w[0] == w[1]), "{out:?}");
    }

    /// Drives a mixed workload (submissions, adoptions, a telemetry
    /// change, a cross-shard spend before the first snapshot) through a
    /// router for the durability tests below.
    fn drive_mixed(router: &mut Router) {
        router.submit(TxId(0), &[]).unwrap();
        router.adopt_remote(TxId(100), &[TxId(0)], 2).unwrap();
        for i in 1..40u64 {
            router.submit(TxId(i), &[TxId(i - 1), TxId(100)]).unwrap();
        }
        let mut hot = vec![DEFAULT_TELEMETRY; router.k() as usize];
        hot[1] = ShardTelemetry::new(0.2, 9.0);
        router.feed_telemetry(&hot);
        for i in 40..60u64 {
            router.submit(TxId(i), &[TxId(i - 1), TxId(i / 2)]).unwrap();
        }
    }

    /// A policy that stages a batch at every 8th placement of
    /// [`drive_mixed`], so its first snapshot (entry 25: placement 24)
    /// holds one.
    fn staging_every_8() -> Option<RebalancePolicy> {
        let policy = RebalancePolicy::default().with_epoch_interval(8);
        Some(policy.with_min_in_degree(1).with_utilization_trigger(1.0))
    }

    /// A durable router (checkpoint every 25 records, fsync every 4)
    /// driven through [`drive_mixed`] and flushed, and its journal.
    fn driven_durable(
        retention: RetentionPolicy,
        full_every: u64,
        rebalance: Option<RebalancePolicy>,
    ) -> (Router, Shared) {
        let mut builder = Router::builder().shards(4).retention(retention);
        if let Some(policy) = rebalance {
            builder = builder.rebalancer(policy);
        }
        let builder = builder.checkpoint_every(25).flush_every(4);
        let (mut durable, storage) = in_ram(builder.full_every(full_every));
        drive_mixed(&mut durable);
        durable.flush_journal().unwrap();
        (durable, storage)
    }

    /// The durable arms the codec tests sweep: every retention policy,
    /// and a checkpoint holding a staged rebalance batch.
    fn durable_arms() -> [(RetentionPolicy, Option<RebalancePolicy>); 4] {
        [
            (RetentionPolicy::Unbounded, None),
            (RetentionPolicy::WindowTxs(16), None),
            (RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 }, None),
            (RetentionPolicy::Unbounded, staging_every_8()),
        ]
    }

    #[test]
    fn live_checkpoint_encoding_matches_the_snapshot_codec() {
        for (retention, rebalance) in durable_arms() {
            let (mut router, storage) = driven_durable(retention, 8, rebalance);
            router.checkpoint_now().unwrap();
            // The installed blob is the live state's body, and a decode
            // of it writes it back: one body format, lossless.
            let blob = checkpoint_blob(&storage);
            let mut live = ByteWriter::new();
            router.parts().encode_into(&mut live);
            assert_eq!(blob, live.as_slice(), "{retention:?}");
            let mut r = ByteReader::new(&blob);
            let decoded = RouterSnapshot::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            let mut again = ByteWriter::new();
            decoded.encode_into(&mut again);
            assert_eq!(blob, again.as_slice(), "{retention:?}");
        }
    }

    #[test]
    fn recover_rebuilds_a_bit_identical_router() {
        let (mut durable, storage) = driven_durable(RetentionPolicy::Unbounded, 8, None);
        assert!(durable.is_durable());
        let mut recovered = Router::recover(replicate_journal(&storage, |_, _| {})).unwrap();
        assert_eq!(recovered.assignments(), durable.assignments());
        assert_eq!(recovered.adopted_total(), durable.adopted_total());
        assert_eq!(recovered.telemetry(), durable.telemetry());
        assert_eq!(recovered.telemetry_version(), durable.telemetry_version());
        assert_eq!(recovered.cross_placed(), durable.cross_placed());
        // The recovered router keeps journaling and keeps deciding
        // exactly like the uncrashed one.
        assert!(recovered.is_durable());
        for i in 60..80u64 {
            let a = durable.submit(TxId(i), &[TxId(i - 1)]).unwrap();
            let b = recovered.submit(TxId(i), &[TxId(i - 1)]).unwrap();
            assert_eq!(a, b, "continuation diverged at tx {i}");
        }
    }

    /// The checkpoint blob last installed into `storage`.
    fn checkpoint_blob(storage: &Shared) -> Vec<u8> {
        storage.checkpoint().unwrap().expect("a checkpoint").1
    }

    #[test]
    fn recover_rejects_every_foreign_version_byte() {
        let (durable, storage) = driven_durable(RetentionPolicy::Unbounded, 8, None);
        assert!(durable.checkpoint_stats().full_checkpoints >= 1);
        // (artifact, foreign first bytes): every value but the one
        // version each artifact is written with (meta 3 and checkpoint
        // 3 carried no rebalancer state; `n` leads a blob that is no
        // spec at all).
        let table: [(Artifact, &[u8]); 2] = [
            (Artifact::Meta, &[0, 1, 2, 3, b'n', 255]),
            (Artifact::Checkpoint, &[0, 1, 2, 3, 5, 255]),
        ];
        for (artifact, bytes) in table {
            for &byte in bytes {
                let replica = replicate_journal(&storage, |found, blob| {
                    if artifact == found {
                        blob[0] = byte;
                    }
                });
                let err = Router::recover(replica).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "{artifact:?} version byte {byte}: {err}"
                );
            }
        }
        // The untampered replica recovers.
        let recovered = Router::recover(replicate_journal(&storage, |_, _| {})).unwrap();
        assert_eq!(recovered.assignments(), durable.assignments());
    }

    /// Every single-byte flip of a checkpoint, under each policy and of
    /// one holding a staged rebalance batch, either recovers or fails
    /// typed: nothing sits between disk and decoders.
    #[test]
    fn checkpoint_byte_flips_recover_or_fail_typed() {
        for (retention, rebalance) in durable_arms() {
            let (_, storage) = driven_durable(retention, 1, rebalance);
            for at in 0..checkpoint_blob(&storage).len() {
                let replica = replicate_journal(&storage, |found, blob| {
                    if found == Artifact::Checkpoint {
                        blob[at] ^= 1 + (at * 37 % 255) as u8;
                    }
                });
                if let Err(e) = Router::recover(replica) {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{at}: {e}");
                }
            }
        }
    }

    /// One way to make a CRC-valid journal contradict itself, named:
    /// swap in another spec's meta blob, or edit the base snapshot.
    enum Swap {
        Meta(&'static str, fn(&mut RouterSpec)),
        Snapshot(&'static str, fn(&mut RouterSnapshot<'static>)),
    }

    fn rebalance(spec: &mut RouterSpec) -> &mut RebalancePolicy {
        spec.rebalance.as_mut().expect("a rebalancing spec")
    }

    /// The first move of the snapshot's staged batch.
    fn staged<'a>(snapshot: &'a mut RouterSnapshot<'static>) -> &'a mut Move {
        let state = snapshot.rebalance.as_mut().expect("a rebalancing snapshot");
        state.to_mut().staged.first_mut().expect("a staged batch")
    }

    #[test]
    fn recover_rejects_a_checkpoint_that_disagrees_with_its_meta() {
        let window = RetentionPolicy::WindowTxs(16);
        let (durable, storage) = driven_durable(window, 8, staging_every_8());
        let recover = |swap: &Swap| {
            let replica = replicate_journal(&storage, |found, blob| match (swap, found) {
                (Swap::Meta(_, edit), Artifact::Meta) => {
                    let mut spec = durable::decode_spec(blob).unwrap();
                    edit(&mut spec);
                    *blob = durable::encode_spec(&spec);
                }
                (Swap::Snapshot(_, edit), Artifact::Checkpoint) => {
                    let mut r = ByteReader::new(blob);
                    let mut snapshot = RouterSnapshot::decode_from(&mut r).unwrap();
                    edit(&mut snapshot);
                    let mut w = ByteWriter::new();
                    snapshot.encode_into(&mut w);
                    *blob = w.into_vec();
                }
                _ => {}
            });
            Router::recover(replica)
        };
        let table = [
            Swap::Meta("k", |s| s.shards = Some(2)),
            Swap::Meta("window", |s| s.retention = RetentionPolicy::WindowTxs(8)),
            Swap::Meta("strategy", |s| s.strategy = Strategy::Greedy),
            Swap::Snapshot("engine registered != store length", |s| {
                let engine = T2sEngine::with_retention(4, DEFAULT_ALPHA, s.tan.retention());
                s.engine = Some(Cow::Owned(engine));
            }),
            Swap::Snapshot("live shard >= k", |s| {
                let newest = s.assignments.len() - 1;
                assert!(s.assignments.to_mut().reassign(newest, 4));
            }),
            Swap::Meta("no epochs", |s| rebalance(s).epoch_interval = 0),
            Swap::Meta("NaN", |s| rebalance(s).utilization_trigger = f64::NAN),
            Swap::Meta("no rebalancer", |s| s.rebalance = None),
            Swap::Snapshot("staged node not live", |s| staged(s).node = NodeId(999)),
            Swap::Snapshot("staged txid", |s| staged(s).txid = TxId(999)),
            Swap::Snapshot("staged shard >= k", |s| staged(s).to = ShardId(4)),
            Swap::Snapshot("staged from == to", |s| staged(s).to = staged(s).from),
        ];
        for swap in &table {
            let (Swap::Meta(what, _) | Swap::Snapshot(what, _)) = swap;
            // An `Err` return is the point: nothing between the storage
            // bytes and the restored router may unwind.
            let err = recover(swap).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // The harness itself is lossless: an untouched re-encoded
        // snapshot under the original meta recovers.
        let recovered = recover(&Swap::Snapshot("none", |_| {})).unwrap();
        assert_eq!(recovered.assignments(), durable.assignments());
    }

    /// A SubmitBatch payload of input-less `(txid, shard)` placements
    /// claiming `count` entries.
    fn batch_of(count: u32, entries: &[(u64, u32)]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        durable::begin_submit_batch(&mut w);
        for &(txid, shard) in entries {
            durable::put_placement(&mut w, TxId(txid), &[], shard);
        }
        w.set_u32(durable::BATCH_COUNT_AT, count);
        w.into_vec()
    }

    fn adopt_of(txid: u64, shard: u32) -> Vec<u8> {
        let mut w = ByteWriter::new();
        durable::encode_adopt(&mut w, TxId(txid), &[], shard);
        w.into_vec()
    }

    #[test]
    fn recover_rejects_forged_records_typed_never_panics() {
        let mut spec = RouterSpec::new();
        spec.shards = Some(4);
        let mut metis = spec.clone();
        metis.strategy = Strategy::Metis;
        metis.oracle = Some(vec![2, 1]);
        let recover = |spec: &RouterSpec, records: &[Vec<u8>]| {
            let mut storage = crate::MemStorage::new();
            storage.put_meta(&durable::encode_spec(spec)).unwrap();
            for record in records {
                storage.append(record).unwrap();
            }
            storage.flush().unwrap();
            Router::recover(Box::new(storage))
        };
        // What an honest journal holds for transaction 0, so each
        // forgery below is the first thing recovery can object to.
        let s0 = spec.build().submit(TxId(0), &[]).unwrap().0;
        let honest = batch_of(1, &[(0, s0)]);
        let mut retired_tag = adopt_of(0, s0);
        retired_tag[0] = 1;
        let table = [
            ("dup in batch", vec![batch_of(2, &[(0, s0), (0, s0)])]),
            ("dup across records", vec![honest.clone(), honest.clone()]),
            ("adopt of a placed tx", vec![honest.clone(), adopt_of(0, 1)]),
            ("batch shard >= k", vec![batch_of(1, &[(0, 4)])]),
            ("adopt shard >= k", vec![adopt_of(0, 4)]),
            ("count past the entries", vec![batch_of(2, &[(0, s0)])]),
            ("count = u32::MAX", vec![batch_of(u32::MAX, &[(0, s0)])]),
            ("trailing bytes", vec![[honest.clone(), vec![0]].concat()]),
            ("the retired Submit tag", vec![retired_tag]),
            ("the retired SyncMark tag", vec![vec![4]]),
        ];
        // An `Err` return is the point: nothing between the storage
        // bytes and the replayed router may unwind.
        for (what, records) in table {
            let err = recover(&spec, &records).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        let past_the_oracle = batch_of(3, &[(0, 2), (1, 1), (2, 0)]);
        for (what, record) in [("adopt", adopt_of(0, 2)), ("past", past_the_oracle)] {
            let err = recover(&metis, &[record]).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "oracle {what}: {err}"
            );
        }
        let recovered = recover(&spec, &[honest, adopt_of(1, 3)]).unwrap();
        assert_eq!(recovered.assignments().to_vec(), Some(vec![s0, 3]));
    }

    /// The persisted artifacts that lead with a version byte.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Artifact {
        Meta,
        Checkpoint,
    }

    /// A copy of the journal in `storage` — the test stand-in for
    /// reopening the files a crashed process left behind. `tamper` may
    /// rewrite the meta and checkpoint blobs on the way.
    fn replicate_journal(
        storage: &Shared,
        tamper: impl Fn(Artifact, &mut Vec<u8>),
    ) -> Box<dyn Storage> {
        let mut copy = storage.with(|s| s.clone());
        let mut meta = copy.meta().unwrap().expect("meta written");
        tamper(Artifact::Meta, &mut meta);
        copy.put_meta(&meta).unwrap();
        if let Some((upto, mut blob)) = copy.checkpoint().unwrap() {
            tamper(Artifact::Checkpoint, &mut blob);
            copy.put_checkpoint(upto, &blob).unwrap();
        }
        Box::new(copy)
    }

    #[test]
    fn recovery_errors_without_a_meta_blob() {
        let err = Router::recover(Box::new(crate::MemStorage::new())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
