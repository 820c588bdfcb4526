//! The [`RouterFleet`]: a concurrent, client-sharded placement
//! front-end over N worker [`Router`]s.
//!
//! One [`Router`] is single-threaded by design, so one core caps the
//! whole ingress path. The fleet closes that gap without touching the
//! placement math: N workers, each owning a full `Router` (its own TaN
//! graph, strategy state, telemetry board and scratch buffers), each
//! running on its own thread behind a **bounded MPSC** ingress queue.
//! Clients are partitioned across workers by a configurable key
//! function, so one client's transactions always land on one worker in
//! submission order — exactly the wallet-side deployment of the paper,
//! where each client places its own chain of spends.
//!
//! # One placement message
//!
//! A batch is the only unit of placement between a caller and a worker
//! `Router`: every door of [`FleetHandle`] sends the same message —
//! first global sequence number, client key, transactions, reply mode —
//! and the worker runs one placement loop over it. The transactions are
//! either flat [`TxRows`] (what a wire request carries; a single
//! [`FleetHandle::submit`] is a batch of one) or a zero-copy window
//! into a shared `Arc<[Transaction]>` stream. The
//! reply mode is either *detached* — shards accumulate worker-side
//! under the client key until [`FleetHandle::drain`] — or a synchronous
//! round trip on the handle's one reply channel. A request of `n`
//! transactions therefore costs one channel message (two when it
//! straddles a sync boundary, see below), not `n`.
//!
//! # TaN cross-sync
//!
//! Workers' graphs would drift blind to each other's placements: a
//! transaction spending an output placed by another worker would find
//! no parent locally (no TaN edge, no T2S pull). The fleet therefore
//! runs a periodic **cross-sync**: after every
//! [`RouterFleetBuilder::sync_interval`] global submissions, a sync
//! marker is enqueued to every worker; at the marker each worker
//! publishes its delta (the transactions it placed since the last sync:
//! id, distinct input ids, shard) to a barrier exchange, then adopts
//! every other worker's delta in worker-index order via
//! [`Router::adopt_remote`]. An adopted node enters the local graph
//! with edges to whichever parents the adopter already knows and
//! contributes to local T2S like a parentless transaction placed into
//! its shard.
//!
//! **Staleness bound**: a placement becomes visible to the other
//! workers no later than `sync_interval` global submissions after it
//! was made (plus whatever is queued ahead of the marker). Transactions
//! spending a not-yet-synced foreign output are placed without that
//! edge — the same degradation [`optchain_tan::TanGraph`] already
//! models for pre-history spends (`missing_parent_refs` counts them).
//! Smaller intervals tighten placement quality; larger intervals cut
//! synchronization cost.
//!
//! # Determinism
//!
//! For a fixed partitioner, sync interval, and a fixed global
//! submission order (one driving thread, or externally serialized
//! submitters), every worker's state — and therefore every assignment —
//! is reproducible: queues preserve order, sync markers sit at fixed
//! stream positions, and deltas are adopted in worker-index order. A
//! **1-worker fleet is bit-identical to a single [`Router`]** (no
//! adoption ever happens); `fleet_golden.rs` pins both properties.
//!
//! # Example
//!
//! ```
//! use optchain_core::{RouterFleet, Strategy};
//! use optchain_utxo::TxId;
//!
//! let fleet = RouterFleet::builder()
//!     .shards(4)
//!     .strategy(Strategy::OptChain)
//!     .workers(2)
//!     .sync_interval(100)
//!     .build();
//!
//! // Each client gets a cheap handle pinned to one worker.
//! let alice = fleet.handle(1);
//! let bob = fleet.handle(2);
//! let s0 = alice.submit(TxId(0), &[]);
//! let s1 = alice.submit(TxId(1), &[TxId(0)]);
//! assert_eq!(s0, s1, "a client's chain stays together");
//! bob.submit(TxId(2), &[]);
//! ```

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use optchain_storage::Storage;
use optchain_tan::hash::splitmix64;
use optchain_tan::RetentionPolicy;
use optchain_utxo::{Transaction, TxId};

use crate::l2s::ShardTelemetry;
use crate::placer::{Decision, ShardId};
use crate::router::{Router, RouterSpec};
use crate::strategy::Strategy;

/// Worker-count default shared by the fleet and the experiment
/// driver's thread pool: the `OPTCHAIN_THREADS` environment variable
/// when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (4 if even that is
/// unavailable). CI and containers pin thread counts with the variable.
pub fn configured_threads() -> usize {
    std::env::var("OPTCHAIN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Client-key → worker-index partition function (the fleet reduces the
/// result modulo the worker count).
pub type Partitioner = Arc<dyn Fn(u64) -> usize + Send + Sync>;

/// Default cross-sync cadence, in global submissions.
pub const DEFAULT_SYNC_INTERVAL: u64 = 8_192;

/// Per-worker ingress queue depth, in messages (a batch counts as one
/// message).
const QUEUE_DEPTH: usize = 1_024;

// ---------------------------------------------------------------------------
// TxRows and Delta: transactions as flat rows
// ---------------------------------------------------------------------------

/// Transactions as flat `(txid, distinct input ids)` rows — what a wire
/// request carries, and the form it keeps from the socket to the worker:
/// three allocations however many transactions, none per transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxRows {
    ids: Vec<TxId>,
    /// Where each transaction's inputs end in `inputs` (they start
    /// where the previous transaction's end, the first at 0).
    offsets: Vec<u32>,
    inputs: Vec<TxId>,
}

impl TxRows {
    /// Empty rows with room for `txs` transactions and `inputs` input
    /// ids in total.
    pub fn with_capacity(txs: usize, inputs: usize) -> Self {
        TxRows {
            ids: Vec::with_capacity(txs),
            offsets: Vec::with_capacity(txs),
            inputs: Vec::with_capacity(inputs),
        }
    }

    /// Appends one transaction.
    pub fn push(&mut self, txid: TxId, inputs: impl IntoIterator<Item = TxId>) {
        self.ids.push(txid);
        self.inputs.extend(inputs);
        self.offsets.push(self.inputs.len() as u32);
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The transaction ids, in order.
    pub fn ids(&self) -> &[TxId] {
        &self.ids
    }

    /// Each transaction's id and input ids, in order.
    pub fn iter(&self) -> impl Iterator<Item = (TxId, &[TxId])> + '_ {
        let mut lo = 0;
        self.ids.iter().zip(&self.offsets).map(move |(&txid, &hi)| {
            let inputs = &self.inputs[lo..hi as usize];
            lo = hi as usize;
            (txid, inputs)
        })
    }

    /// Splits off the transactions from `at` on, copying only those
    /// (nothing at all when `at` is the end).
    fn split_off(&mut self, at: usize) -> TxRows {
        if at == self.len() {
            return TxRows::default();
        }
        let base = at.checked_sub(1).map_or(0, |last| self.offsets[last]);
        let mut offsets = self.offsets.split_off(at);
        offsets.iter_mut().for_each(|end| *end -= base);
        TxRows {
            ids: self.ids.split_off(at),
            offsets,
            inputs: self.inputs.split_off(base as usize),
        }
    }
}

impl<I: IntoIterator<Item = TxId>> FromIterator<(TxId, I)> for TxRows {
    fn from_iter<T: IntoIterator<Item = (TxId, I)>>(rows: T) -> Self {
        let mut out = TxRows::default();
        rows.into_iter()
            .for_each(|(txid, inputs)| out.push(txid, inputs));
        out
    }
}

/// The transactions a worker placed since the last sync, with the
/// shard of each — the unit of TaN cross-sync.
#[derive(Debug, Default)]
struct Delta {
    rows: TxRows,
    shards: Vec<u32>,
}

impl Delta {
    fn push(&mut self, txid: TxId, inputs: &[TxId], shard: u32) {
        self.rows.push(txid, inputs.iter().copied());
        self.shards.push(shard);
    }

    fn iter(&self) -> impl Iterator<Item = (TxId, &[TxId], u32)> + '_ {
        let shards = self.shards.iter();
        (self.rows.iter().zip(shards)).map(|((txid, inputs), &shard)| (txid, inputs, shard))
    }
}

// ---------------------------------------------------------------------------
// Exchange: the sync-point barrier
// ---------------------------------------------------------------------------

/// Two-phase barrier the workers meet at every sync marker: all publish
/// their deltas, then all consume everyone else's; the last consumer
/// resets the exchange for the next round. Rounds cannot overlap — a
/// worker reaching the next marker waits until the previous round is
/// fully consumed.
struct Exchange {
    workers: usize,
    state: Mutex<ExchangeState>,
    cv: Condvar,
}

struct ExchangeState {
    /// `true`: the publish phase of the current round; `false`: the
    /// consume phase.
    publishing: bool,
    arrived: usize,
    consumed: usize,
    published: Vec<Option<Arc<Delta>>>,
    /// Set when a worker thread dies mid-flight: every worker parked at
    /// (or arriving at) the barrier panics out instead of waiting for a
    /// participant that will never come — which would otherwise hang
    /// the fleet's `Drop` forever.
    poisoned: bool,
}

impl Exchange {
    fn new(workers: usize) -> Self {
        Exchange {
            workers,
            state: Mutex::new(ExchangeState {
                publishing: true,
                arrived: 0,
                consumed: 0,
                published: (0..workers).map(|_| None).collect(),
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Marks the barrier dead (a worker thread is unwinding) and wakes
    /// everyone parked at it.
    fn poison(&self) {
        if let Ok(mut s) = self.state.lock() {
            s.poisoned = true;
        }
        self.cv.notify_all();
    }

    /// Publishes worker `w`'s delta, waits for the full round, and
    /// returns every other worker's delta in worker-index order.
    ///
    /// # Panics
    ///
    /// Panics if another worker died (the barrier can never complete).
    fn exchange(&self, w: usize, delta: Delta) -> Vec<Arc<Delta>> {
        let check = |s: &ExchangeState| {
            assert!(
                !s.poisoned,
                "a fleet worker died; the sync barrier cannot complete"
            );
        };
        let mut s = self.state.lock().expect("exchange mutex");
        check(&s);
        while !s.publishing {
            s = self.cv.wait(s).expect("exchange mutex");
            check(&s);
        }
        s.published[w] = Some(Arc::new(delta));
        s.arrived += 1;
        if s.arrived == self.workers {
            s.publishing = false;
            s.consumed = 0;
            self.cv.notify_all();
        } else {
            while s.publishing {
                s = self.cv.wait(s).expect("exchange mutex");
                check(&s);
            }
        }
        let others: Vec<Arc<Delta>> = (0..self.workers)
            .filter(|i| *i != w)
            .map(|i| s.published[i].clone().expect("every worker published"))
            .collect();
        s.consumed += 1;
        if s.consumed == self.workers {
            for slot in &mut s.published {
                *slot = None;
            }
            s.arrived = 0;
            s.publishing = true;
            self.cv.notify_all();
        }
        others
    }
}

/// Poisons the exchange if the owning worker thread unwinds (e.g. a
/// duplicate `TxId` panicking inside `Router::submit`), so sibling
/// workers parked at a sync barrier fail fast instead of deadlocking.
struct PoisonOnPanic(Arc<Exchange>);

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker protocol
// ---------------------------------------------------------------------------

/// The transactions of one placement message.
enum Txs {
    /// Flat rows: a wire request, or a single submission as a batch
    /// of one.
    Rows(TxRows),
    /// A zero-copy window into a shared stream (the bulk path: no
    /// per-transaction allocation crosses the channel).
    Shared(Arc<[Transaction]>, Range<usize>),
}

/// What a synchronous submission gets back: the shard, plus the full
/// score breakdown when it was asked for.
type Placed = (ShardId, Option<Decision>);

/// Where the shards of one placement message go.
enum Reply {
    /// Into the worker's drain buffer under the message's client key,
    /// as `(global sequence, shard)`, until [`FleetHandle::drain`].
    Detached,
    /// Back to the submitting handle (a batch of one): the shard, and
    /// the decision's score breakdown when `detail`.
    Sync {
        to: SyncSender<Placed>,
        detail: bool,
    },
}

/// Per-worker placement + bookkeeping counters (the [`FleetStats`]
/// building block).
#[derive(Debug, Clone, Default)]
struct WorkerStats {
    placed: u64,
    adopted: u64,
    /// Graph-level missing input references accumulated while
    /// *adopting* foreign deltas (an adopted node's parents may sit in
    /// a sibling delta of the same round). Subtracted from the graph
    /// total to isolate placement-time misses — the number that
    /// actually degrades decisions.
    adoption_missing_refs: u64,
    /// The worker graph's total missing references (sampled at `Stats`).
    graph_missing_refs: u64,
    /// Delta entries withheld from cross-sync publication by the
    /// retention policy's pruning (spent, sub-threshold transactions).
    delta_pruned: u64,
    sync_rounds: u64,
    l2s_memo_hits: u64,
    l2s_memo_misses: u64,
    telemetry_version: u64,
    /// Placements with at least one cross-shard input (sampled at
    /// `Stats`).
    cross_placed: u64,
    /// The worker router's rebalance counters (sampled at `Stats`;
    /// all zero without a rebalancer).
    rebalance: crate::RebalanceStats,
}

enum Msg {
    /// The one placement message: `txs` take the consecutive global
    /// sequence numbers from `first_seq` on, on behalf of `client`.
    Place {
        first_seq: u64,
        client: u64,
        txs: Txs,
        reply: Reply,
    },
    Telemetry(Vec<ShardTelemetry>),
    /// Cross-sync marker: publish the delta, adopt everyone else's.
    Sync,
    /// Reply once every prior message is processed.
    Flush(SyncSender<()>),
    Drain {
        client: u64,
        reply: SyncSender<Vec<(u64, ShardId)>>,
    },
    Stats {
        reply: SyncSender<WorkerStats>,
    },
    /// Placement lookup by transaction id (see [`RouterFleet::shard_of`]).
    ShardOf {
        txid: TxId,
        reply: SyncSender<Option<ShardId>>,
    },
    Shutdown,
}

/// The long-lived loop of one fleet worker: builds its own [`Router`]
/// from the shared spec (or recovers one from its journal) and
/// processes ingress messages in order.
fn worker_loop(
    w: usize,
    spec: RouterSpec,
    storage: Option<Box<dyn Storage>>,
    rx: Receiver<Msg>,
    exchange: Arc<Exchange>,
) {
    let _poison_guard = PoisonOnPanic(exchange.clone());
    let mut stats = WorkerStats::default();
    let mut delta = Delta::default();
    let mut router = match storage {
        None => spec.build(),
        Some(storage) => {
            let fresh = storage
                .meta()
                .expect("reading the journal meta blob failed")
                .is_none();
            let mut router = if fresh {
                let mut router = spec.build();
                router
                    .attach_fresh_storage(&spec, storage)
                    .expect("writing the journal meta blob failed");
                router
            } else {
                let (router, pending) = Router::recover_with_pending(storage)
                    .expect("recovering a fleet worker from its journal failed");
                // The pending (not-yet-exchanged) delta is exactly the
                // worker's own placements replayed since the last sync
                // mark, in stream order.
                for (txid, inputs, shard) in &pending {
                    delta.push(*txid, inputs, *shard);
                }
                // `AssignmentView::len()` counts the whole stream in
                // stable-id space, not the live (post-eviction) range,
                // so the placed count stays exact under retention.
                stats.adopted = router.adopted_total();
                stats.placed = router.assignments().len() as u64 - router.adopted_total();
                router
            };
            // Worker checkpoints must coincide with sync marks: a
            // checkpoint between a mark and later submissions would cut
            // the journaled prefix of the pending delta out of replay.
            // `journal_sync_mark` still checkpoints when one is due.
            router.set_auto_checkpoint(false);
            router
        }
    };
    let mut detached: HashMap<u64, Vec<(u64, ShardId)>> = HashMap::new();
    let mut input_scratch: Vec<TxId> = Vec::new();
    let mut placed: Vec<ShardId> = Vec::new();

    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Place {
                first_seq,
                client,
                txs,
                reply,
            } => {
                placed.clear();
                let mut place = |txid: TxId, inputs: &[TxId]| {
                    let shard = router
                        .submit(txid, inputs)
                        .expect("journaling a placement failed");
                    delta.push(txid, inputs, shard.0);
                    placed.push(shard);
                };
                match &txs {
                    Txs::Rows(rows) => rows.iter().for_each(|(txid, inputs)| place(txid, inputs)),
                    Txs::Shared(stream, range) => {
                        for tx in &stream[range.clone()] {
                            Router::distinct_inputs_into(tx, &mut input_scratch);
                            place(tx.id(), &input_scratch);
                        }
                    }
                }
                stats.placed += placed.len() as u64;
                match reply {
                    Reply::Detached => detached
                        .entry(client)
                        .or_default()
                        .extend((first_seq..).zip(placed.iter().copied())),
                    Reply::Sync { to, detail } => {
                        let shard = *placed.last().expect("a synchronous batch of one");
                        let decision = detail.then(|| router.last_decision().to_decision());
                        let _ = to.send((shard, decision));
                    }
                }
            }
            Msg::Telemetry(values) => router.feed_telemetry(&values),
            Msg::Sync => {
                let mut published = std::mem::take(&mut delta);
                // Journal the mark before adopting: on replay, records
                // after the last mark are exactly the pending delta.
                router
                    .journal_sync_mark()
                    .expect("journaling a sync mark failed");
                // Pruned-delta cross-sync: under KeepUnspentAndHubs a
                // worker only publishes what the siblings' own retention
                // would keep — transactions still unspent (their outputs
                // may be spent from another worker) or already hubs in
                // the local graph. Spent, sub-threshold entries are the
                // bulk of a steady-state delta; withholding them cuts
                // the O(workers²) adoption bill. The filter reads only
                // local, deterministic state, so fleet determinism is
                // preserved.
                if matches!(spec.retention, RetentionPolicy::KeepUnspentAndHubs { .. }) {
                    let full = published;
                    published = Delta::default();
                    let tan = router.tan();
                    for (txid, inputs, shard) in full.iter() {
                        let keep = tan
                            .node(txid)
                            .is_some_and(|n| spec.retention.keeps(tan.in_degree(n) as u32));
                        if keep {
                            published.push(txid, inputs, shard);
                        } else {
                            stats.delta_pruned += 1;
                        }
                    }
                }
                let others = exchange.exchange(w, published);
                let misses_before = router.tan().missing_parent_refs();
                for other in &others {
                    for (txid, inputs, shard) in other.iter() {
                        router.adopt_remote(txid, inputs, shard);
                        stats.adopted += 1;
                    }
                }
                stats.adoption_missing_refs += router.tan().missing_parent_refs() - misses_before;
                stats.sync_rounds += 1;
            }
            Msg::Flush(reply) => {
                let _ = reply.send(());
            }
            Msg::Drain { client, reply } => {
                let _ = reply.send(detached.remove(&client).unwrap_or_default());
            }
            Msg::Stats { reply } => {
                let (hits, misses) = router.l2s_memo_stats();
                stats.l2s_memo_hits = hits;
                stats.l2s_memo_misses = misses;
                stats.graph_missing_refs = router.tan().missing_parent_refs();
                stats.telemetry_version = router.telemetry_version();
                stats.cross_placed = router.cross_placed();
                stats.rebalance = router.rebalance_stats();
                let _ = reply.send(stats.clone());
            }
            Msg::ShardOf { txid, reply } => {
                let _ = reply.send(router.shard_of(txid));
            }
            Msg::Shutdown => {
                // A graceful shutdown makes the whole acked stream
                // durable: without this, records buffered since the
                // last fsync batch would be lost on restart exactly as
                // if the process had been killed. Best-effort — a dead
                // disk at shutdown leaves the crash-recovery path to
                // do its job on the flushed prefix.
                let _ = router.flush_journal();
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared front-end state
// ---------------------------------------------------------------------------

struct Shared {
    senders: Vec<SyncSender<Msg>>,
    /// Next global submission index.
    seq: AtomicU64,
    /// Cross-sync cadence in global submissions (`0` disables).
    sync_interval: u64,
    partitioner: Partitioner,
    k: u32,
    strategy: Strategy,
}

impl Shared {
    /// Reserves up to `want` consecutive global sequence numbers without
    /// crossing a sync boundary; returns `(first, count)`.
    fn reserve_chunk(&self, want: u64) -> (u64, u64) {
        loop {
            let cur = self.seq.load(Ordering::Relaxed);
            let take = if self.sync_interval == 0 {
                want
            } else {
                want.min(self.sync_interval - (cur % self.sync_interval))
            };
            if self
                .seq
                .compare_exchange(cur, cur + take, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return (cur, take);
            }
        }
    }

    /// Enqueues a sync marker to every worker if the reservation ending
    /// at `end` landed on a boundary.
    fn sync_if_boundary(&self, end: u64) {
        if self.sync_interval != 0 && end.is_multiple_of(self.sync_interval) {
            self.sync_all();
        }
    }

    fn sync_all(&self) {
        for sender in &self.senders {
            sender.send(Msg::Sync).expect("fleet worker alive");
        }
    }

    fn worker_of(&self, client: u64) -> usize {
        (self.partitioner)(client) % self.senders.len()
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builder for [`RouterFleet`]: the [`crate::RouterBuilder`] knobs a
/// fleet caller actually sets (shards, strategy, retention, expected
/// total, rebalancer, storage) plus the fleet's own — worker count,
/// sync cadence and partitioner. Everything else runs at the
/// [`crate::RouterBuilder`] defaults on every worker.
pub struct RouterFleetBuilder {
    spec: RouterSpec,
    workers: Option<usize>,
    sync_interval: u64,
    partitioner: Option<Partitioner>,
    storages: Option<Vec<Box<dyn Storage>>>,
}

impl RouterFleetBuilder {
    fn new() -> Self {
        RouterFleetBuilder {
            spec: RouterSpec::new(),
            workers: None,
            sync_interval: DEFAULT_SYNC_INTERVAL,
            partitioner: None,
            storages: None,
        }
    }

    /// Number of shards to place over (required).
    pub fn shards(mut self, k: u32) -> Self {
        self.spec.shards = Some(k);
        self
    }

    /// Placement strategy (default [`Strategy::OptChain`]).
    /// [`Strategy::Metis`] is not available: its oracle is indexed by
    /// global node order, which per-worker graphs don't share.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.spec.strategy = strategy;
        self
    }

    /// The state-lifecycle policy every worker router runs under
    /// (default [`RetentionPolicy::Unbounded`]) — see
    /// [`crate::RouterBuilder::retention`]. This is where the policy
    /// multiplies: every worker holds a graph replica (own placements
    /// plus every adoption), so a windowed policy is an N× memory win.
    /// Under [`RetentionPolicy::KeepUnspentAndHubs`] cross-sync
    /// additionally publishes **pruned** deltas: at each sync marker a
    /// worker ships only the transactions that are still unspent or are
    /// hubs at or above the degree threshold in its local graph —
    /// exactly the set the siblings' own retention would keep alive —
    /// cutting the adoption work that caps fleet speedup. Pruned
    /// entries degrade on the siblings like any missing parent
    /// (`missing_parent_refs`); [`FleetStats::pruned_delta_txs`] counts
    /// them.
    pub fn retention(mut self, retention: RetentionPolicy) -> Self {
        self.spec.retention = retention;
        self
    }

    /// Known stream length, tightening the Greedy/T2S capacity cap.
    /// Each worker applies it to its own count, so with `w` workers the
    /// per-worker cap covers roughly `total` global transactions.
    pub fn expected_total(mut self, total: u64) -> Self {
        self.spec.expected_total = Some(total);
        self
    }

    /// Enables dynamic re-sharding on **every worker router** — see
    /// [`crate::RouterBuilder::rebalancer`]. Each worker runs its own
    /// migration-epoch clock over its own submissions, so epoch
    /// boundaries are per-worker (deterministic given each worker's
    /// stream). OptChain strategy only; incompatible with
    /// [`RouterFleetBuilder::storage`].
    pub fn rebalancer(mut self, policy: crate::RebalancePolicy) -> Self {
        self.spec.rebalance = Some(policy);
        self
    }

    /// Number of worker routers (default [`configured_threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one worker");
        self.workers = Some(n);
        self
    }

    /// Cross-sync cadence: exchange TaN deltas after every `txs` global
    /// submissions (default [`DEFAULT_SYNC_INTERVAL`]; `0` disables
    /// cross-sync entirely).
    pub fn sync_interval(mut self, txs: u64) -> Self {
        self.sync_interval = txs;
        self
    }

    /// Client-key → worker partition function (reduced modulo the
    /// worker count; default: SplitMix64 of the client key).
    pub fn partitioner(mut self, f: impl Fn(u64) -> usize + Send + Sync + 'static) -> Self {
        self.partitioner = Some(Arc::new(f));
        self
    }

    /// One durable [`Storage`] backend per worker (in worker-index
    /// order). Empty backends are journaled from scratch; backends that
    /// already hold a journal are **recovered** — each worker rebuilds
    /// its router and its pending sync delta from its own WAL, so a
    /// crashed durable fleet resumes where its journals end. Worker
    /// checkpoints are taken at sync marks only, keeping checkpoint
    /// positions consistent with the cross-sync schedule.
    ///
    /// The global submission counter and fan-out telemetry cache are
    /// **not** per-worker state: after recovery the counter resumes at
    /// the sum of the workers' placed counts, which equals the crashed
    /// fleet's counter when every submission was journaled. Storage is
    /// the one way a fleet's state comes back: a fleet that must
    /// survive a drop and rebuild in RAM takes
    /// `SharedStorage<MemStorage>` backends.
    pub fn storage(mut self, storages: Vec<Box<dyn Storage>>) -> Self {
        self.storages = Some(storages);
        self
    }

    /// Builds the fleet and spawns its worker threads.
    ///
    /// # Panics
    ///
    /// Panics on any condition [`crate::RouterBuilder::build`] rejects.
    pub fn build(self) -> RouterFleet {
        let workers = self.workers.unwrap_or_else(configured_threads).max(1);
        let durable = self.storages.is_some();
        if let Some(storages) = &self.storages {
            self.spec.assert_journalable();
            assert_eq!(
                storages.len(),
                workers,
                "a durable fleet needs exactly one storage backend per worker"
            );
        }
        // One backend per worker, or none at all for an in-RAM fleet.
        let mut storages = self.storages.into_iter().flatten();
        // Validate the spec on the caller thread: inside a worker
        // thread the panic would strand the channels.
        self.spec.check().unwrap_or_else(|rule| panic!("{rule}"));

        let exchange = Arc::new(Exchange::new(workers));
        let mut senders = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
            senders.push(tx);
            let spec = self.spec.clone();
            let exchange = exchange.clone();
            let storage = storages.next();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("optchain-fleet-{w}"))
                    .spawn(move || worker_loop(w, spec, storage, rx, exchange))
                    .expect("spawn fleet worker"),
            );
        }
        let partitioner: Partitioner = self
            .partitioner
            .unwrap_or_else(|| Arc::new(|client| splitmix64(client) as usize));
        // See `RouterFleet::eviction_horizon`: a lone worker ingests in
        // submission order; siblings lag by up to two sync intervals.
        let lag = match (workers, self.sync_interval) {
            (1, _) => Some(0),
            (_, 0) => None,
            (_, interval) => Some(2 * interval),
        };
        let window = match self.spec.retention {
            RetentionPolicy::WindowTxs(n) => Some(n as u64),
            _ => None,
        };
        let fleet = RouterFleet {
            eviction_horizon: window.zip(lag).map(|(window, lag)| window + 1 + lag),
            shared: Arc::new(Shared {
                senders,
                seq: AtomicU64::new(0),
                sync_interval: self.sync_interval,
                partitioner,
                k: self.spec.k(),
                strategy: self.spec.strategy,
            }),
            threads,
            telemetry: Mutex::new(None),
            telemetry_version: AtomicU64::new(0),
        };
        if durable {
            // Resume the global counters from whatever the journals
            // replayed (all zeros for fresh backends). The stats round
            // trip doubles as a health check: a worker that failed to
            // recover has already panicked, and the channel send
            // surfaces it here instead of at the first submission. The
            // fan-out dedup cache restarts empty, so the first
            // telemetry feed after recovery always reaches the workers
            // (their boards drop it if the values are unchanged).
            let stats = fleet.stats();
            fleet.shared.seq.store(stats.placed, Ordering::Relaxed);
            let version = stats.telemetry_versions.iter().copied().max().unwrap_or(0);
            fleet.telemetry_version.store(version, Ordering::Relaxed);
        }
        fleet
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

/// Aggregate counters across every fleet worker (see
/// [`RouterFleet::stats`]). Collecting them is a full round trip to
/// every worker — diagnostics, not a hot path.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Transactions placed by their own worker (global stream length).
    pub placed: u64,
    /// Foreign-node adoptions performed across all workers (each
    /// placement is adopted by every *other* worker at the next sync).
    pub adopted: u64,
    /// Input references that found no local parent when their
    /// transaction was **placed** (summed over workers) — the staleness
    /// cost that actually degrades decisions: a parent placed on
    /// another worker within the current sync window. Adoption-time
    /// misses (the same absent parent re-observed while replicating a
    /// sibling's delta) are reported separately, because they scale
    /// with the replica count, not with placement quality. After a
    /// restart from storage the split restarts: pre-restart misses all
    /// count here.
    pub missing_parent_refs: u64,
    /// Missing references observed while adopting foreign deltas,
    /// summed over workers (see [`FleetStats::missing_parent_refs`]).
    pub adoption_missing_parent_refs: u64,
    /// Delta entries withheld from cross-sync publication by the
    /// retention policy's pruning (see
    /// [`RouterFleetBuilder::retention`]), summed over workers. Zero
    /// outside [`RetentionPolicy::KeepUnspentAndHubs`].
    pub pruned_delta_txs: u64,
    /// Completed cross-sync rounds (same count on every worker).
    pub sync_rounds: u64,
    /// L2S memo hits summed over workers.
    pub l2s_memo_hits: u64,
    /// L2S memo misses summed over workers.
    pub l2s_memo_misses: u64,
    /// Per-worker telemetry board version — equal entries confirm the
    /// single-epoch fan-out.
    pub telemetry_versions: Vec<u64>,
    /// Transactions placed per worker (own submissions only).
    pub per_worker_placed: Vec<u64>,
    /// Placements with at least one cross-shard input, summed over
    /// workers — `cross_placed / placed` is the fleet's live cross-tx
    /// ratio.
    pub cross_placed: u64,
    /// Rebalance counters summed over workers (each worker runs its own
    /// migration-epoch clock; all zero without
    /// [`RouterFleetBuilder::rebalancer`]).
    pub rebalance: crate::RebalanceStats,
}

/// A concurrent, client-sharded placement front-end: N worker
/// [`Router`]s behind bounded ingress queues with periodic TaN
/// cross-sync. See the [module docs](crate::fleet) for the design.
///
/// Dropping the fleet shuts the workers down and joins their threads;
/// handles outliving the fleet panic on use.
pub struct RouterFleet {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Last telemetry values fed, for the single-epoch fan-out (feeds
    /// with unchanged values are dropped before reaching any worker).
    telemetry: Mutex<Option<Vec<ShardTelemetry>>>,
    telemetry_version: AtomicU64,
    eviction_horizon: Option<u64>,
}

impl RouterFleet {
    /// Starts configuring a fleet.
    pub fn builder() -> RouterFleetBuilder {
        RouterFleetBuilder::new()
    }

    /// Number of shards.
    pub fn k(&self) -> u32 {
        self.shared.k
    }

    /// Number of worker routers.
    pub fn workers(&self) -> usize {
        self.shared.senders.len()
    }

    /// The built-in [`Strategy`] every worker runs.
    pub fn strategy(&self) -> Strategy {
        self.shared.strategy
    }

    /// Global submissions accepted so far.
    pub fn submitted(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }

    /// The number of later submissions after which every worker's graph
    /// has certainly evicted a transaction id: an id submitted again
    /// with a global sequence number at least this far above its first
    /// enters every worker as a fresh node, like any pre-history spend,
    /// where a nearer resubmission panics the worker. A front end that
    /// must refuse duplicates (the placement server) may forget an id
    /// once this many others have followed it into the fleet. `None`
    /// means never: the graph keeps every id (`Unbounded`), keeps an
    /// unbounded set of them (`KeepUnspentAndHubs`), or the workers
    /// never exchange deltas (`sync_interval(0)` with several workers).
    ///
    /// Under `WindowTxs(w)` it is `w + 1`, plus `2 · sync_interval` with
    /// more than one worker. A worker evicts a node once `w` later ones
    /// are in its graph, so a lone worker — which ingests in sequence
    /// order — has dropped sequence `s` before it inserts `s + w + 1`.
    /// With siblings (and submitters serialized, as under Determinism
    /// above) a worker ingests each sync interval `I` as its own
    /// placements of that interval, then everyone else's at the marker:
    /// by marker `m` its graph holds exactly the first `m · I`
    /// sequences, in an order that differs between workers only within
    /// an interval. Sequence `s` thus sits before position
    /// `(⌊s/I⌋ + 1) · I` on every worker and `s'` at or after
    /// `⌊s'/I⌋ · I`; those are more than `w` apart whenever
    /// `s' − s ≥ w + 2I`. Queue lag inside a worker changes when it
    /// ingests, never the order. Counting from *submission* is the
    /// caller's job: a front end that reorders admitted work (the
    /// server's fee-ordered queue) must add its own bound on overtaking.
    pub fn eviction_horizon(&self) -> Option<u64> {
        self.eviction_horizon
    }

    /// How many times the fan-out telemetry values have changed — the
    /// fleet-wide epoch (every worker's board tracks it exactly,
    /// because unchanged feeds are dropped here and each worker applies
    /// the changed ones in order).
    pub fn telemetry_version(&self) -> u64 {
        self.telemetry_version.load(Ordering::Relaxed)
    }

    /// Opens a cheap, clonable per-client submitter. All submissions
    /// through the handle land on the worker the fleet's partitioner
    /// assigns to `client`, in submission order.
    pub fn handle(&self, client: u64) -> FleetHandle {
        FleetHandle::new(self.shared.clone(), self.shared.worker_of(client), client)
    }

    /// Fans one telemetry update out to every worker under a single
    /// epoch: the fleet bumps its version only when the values change,
    /// and only changed feeds reach the workers — so every worker's
    /// board version equals the fleet's ([`FleetStats`] asserts it).
    ///
    /// # Panics
    ///
    /// Panics if `telemetry.len() != k`.
    pub fn feed_telemetry(&self, telemetry: &[ShardTelemetry]) {
        assert_eq!(
            telemetry.len(),
            self.shared.k as usize,
            "telemetry must cover every shard"
        );
        let mut last = self.telemetry.lock().expect("no panics hold the lock");
        if last.as_deref() == Some(telemetry) {
            return;
        }
        *last = Some(telemetry.to_vec());
        self.telemetry_version.fetch_add(1, Ordering::Relaxed);
        for sender in &self.shared.senders {
            sender
                .send(Msg::Telemetry(telemetry.to_vec()))
                .expect("fleet worker alive");
        }
    }

    /// Forces a cross-sync round now, regardless of the interval
    /// schedule (e.g. before reading [`RouterFleet::stats`] in a test).
    pub fn sync_now(&self) {
        self.shared.sync_all();
    }

    /// Blocks until every worker has processed everything enqueued
    /// before this call.
    pub fn flush(&self) {
        self.ask_all(Msg::Flush).for_each(drop);
    }

    /// Sends every worker a message built around a fresh reply channel,
    /// then collects the replies in worker-index order.
    fn ask_all<T>(&self, msg: impl Fn(SyncSender<T>) -> Msg) -> impl Iterator<Item = T> {
        let send = |sender: &SyncSender<Msg>| {
            let (tx, rx) = mpsc::sync_channel(1);
            sender.send(msg(tx)).expect("fleet worker alive");
            rx
        };
        let replies: Vec<Receiver<T>> = self.shared.senders.iter().map(send).collect();
        (replies.into_iter()).map(|rx| rx.recv().expect("fleet worker alive"))
    }

    /// Collects aggregate counters from every worker (flushes queued
    /// work first, so counters reflect everything submitted so far).
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats::default();
        for w in self.ask_all(|reply| Msg::Stats { reply }) {
            stats.placed += w.placed;
            stats.adopted += w.adopted;
            stats.missing_parent_refs += w.graph_missing_refs - w.adoption_missing_refs;
            stats.adoption_missing_parent_refs += w.adoption_missing_refs;
            stats.pruned_delta_txs += w.delta_pruned;
            stats.sync_rounds = stats.sync_rounds.max(w.sync_rounds);
            stats.l2s_memo_hits += w.l2s_memo_hits;
            stats.l2s_memo_misses += w.l2s_memo_misses;
            stats.telemetry_versions.push(w.telemetry_version);
            stats.per_worker_placed.push(w.placed);
            stats.cross_placed += w.cross_placed;
            stats.rebalance.merge(w.rebalance);
        }
        stats
    }

    /// The shard a previously submitted transaction was placed into,
    /// by transaction id — the fleet-wide [`Router::shard_of`]. Every
    /// worker is asked in index order and the first hit wins; the owner
    /// always knows its own placements, and after a cross-sync every
    /// worker answers for every (non-pruned) transaction. `None` when
    /// no worker has the id, or its assignment aged out under the
    /// retention policy.
    ///
    /// A full round trip to every worker — a query path, not a
    /// placement hot path.
    pub fn shard_of(&self, txid: TxId) -> Option<ShardId> {
        self.ask_all(|reply| Msg::ShardOf { txid, reply })
            .fold(None, Option::or)
    }

    /// Shuts the fleet down **gracefully and explicitly**: every worker
    /// drains its ingress queue, flushes its journal tail (so the whole
    /// acked stream is durable under `.storage(...)`), and joins.
    /// Dropping the fleet does the same implicitly; the explicit form
    /// exists so a serving layer can sequence the flush inside its own
    /// drain path and observe completion before acknowledging shutdown.
    /// Outstanding [`FleetHandle`]s panic on use afterwards.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for sender in &self.shared.senders {
            let _ = sender.send(Msg::Shutdown);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for RouterFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterFleet")
            .field("workers", &self.workers())
            .field("k", &self.k())
            .field("strategy", &self.strategy())
            .finish()
    }
}

impl Drop for RouterFleet {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A per-client submitter into a [`RouterFleet`], pinned to the worker
/// the fleet's partitioner assigns to its client key. Cloning is cheap
/// (a fresh reply channel over the same shared state); clones submit
/// for the same client.
///
/// Every door sends the fleet's one placement message (see the
/// [module docs](crate::fleet)). The synchronous doors —
/// [`FleetHandle::submit`], [`FleetHandle::submit_tx`],
/// [`FleetHandle::submit_with_detail`] — send a batch of one and wait
/// for its shard on the handle's reply channel; the detached doors —
/// [`FleetHandle::submit_detached`] for [`TxRows`],
/// [`FleetHandle::submit_batch_detached`] for a window of a shared
/// stream — return immediately, and their results are collected later
/// with [`FleetHandle::drain`].
pub struct FleetHandle {
    shared: Arc<Shared>,
    worker: usize,
    client: u64,
    reply_tx: SyncSender<Placed>,
    reply_rx: Receiver<Placed>,
}

impl Clone for FleetHandle {
    fn clone(&self) -> Self {
        FleetHandle::new(self.shared.clone(), self.worker, self.client)
    }
}

impl std::fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHandle")
            .field("client", &self.client)
            .field("worker", &self.worker)
            .finish()
    }
}

impl FleetHandle {
    fn new(shared: Arc<Shared>, worker: usize, client: u64) -> Self {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        FleetHandle {
            shared,
            worker,
            client,
            reply_tx,
            reply_rx,
        }
    }

    /// The worker index this handle's client is partitioned to.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Sends the placement message for `count` transactions, split at
    /// sync boundaries: `piece(start, len)` yields each message's
    /// transactions and reply mode, and a sync marker follows every
    /// piece that ends on a boundary. Returns the first global sequence
    /// number taken (`None` when `count == 0`, which reserves nothing).
    fn place(
        &self,
        count: usize,
        mut piece: impl FnMut(usize, usize) -> (Txs, Reply),
    ) -> Option<u64> {
        let mut first_of_all = None;
        let mut done = 0usize;
        while done < count {
            let (first_seq, take) = self.shared.reserve_chunk((count - done) as u64);
            first_of_all.get_or_insert(first_seq);
            let (txs, reply) = piece(done, take as usize);
            self.shared.senders[self.worker]
                .send(Msg::Place {
                    first_seq,
                    client: self.client,
                    txs,
                    reply,
                })
                .expect("fleet worker alive");
            self.shared.sync_if_boundary(first_seq + take);
            done += take as usize;
        }
        first_of_all
    }

    /// A synchronous batch of one.
    fn submit_one(&self, txid: TxId, inputs: Vec<TxId>, detail: bool) -> Placed {
        let mut rows = TxRows::from_iter([(txid, inputs)]);
        self.place(1, |_, _| {
            let to = self.reply_tx.clone();
            (
                Txs::Rows(std::mem::take(&mut rows)),
                Reply::Sync { to, detail },
            )
        });
        self.reply_rx.recv().expect("fleet worker alive")
    }

    /// Places a transaction spending from `inputs` and returns its
    /// shard (synchronous round trip to this client's worker).
    ///
    /// # Panics
    ///
    /// Panics if `txid` was already submitted to this worker, or the
    /// fleet was shut down.
    pub fn submit(&self, txid: TxId, inputs: &[TxId]) -> ShardId {
        self.submit_one(txid, inputs.to_vec(), false).0
    }

    /// [`FleetHandle::submit`], also returning the full score breakdown
    /// of the decision (see [`Router::last_decision`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`FleetHandle::submit`].
    pub fn submit_with_detail(&self, txid: TxId, inputs: &[TxId]) -> (ShardId, Decision) {
        let (shard, decision) = self.submit_one(txid, inputs.to_vec(), true);
        (shard, decision.expect("detail requested"))
    }

    /// Places a full [`Transaction`] (linked by its distinct input
    /// transactions) and returns its shard.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FleetHandle::submit`].
    pub fn submit_tx(&self, tx: &Transaction) -> ShardId {
        self.submit_one(tx.id(), tx.input_txids(), false).0
    }

    /// Fire-and-forget submission of [`TxRows`] — what a wire request
    /// carries — as one placement message holding the rows as they
    /// came (rows that straddle a sync boundary split there, copying
    /// only the tail piece). Returns the first global sequence number
    /// of the rows (`None` for empty rows, which reserve nothing);
    /// results are collected with [`FleetHandle::drain`].
    ///
    /// # Panics
    ///
    /// Panics if the fleet was shut down.
    pub fn submit_detached(&self, mut txs: TxRows) -> Option<u64> {
        self.place(txs.len(), |_, len| {
            let rest = txs.split_off(len);
            (
                Txs::Rows(std::mem::replace(&mut txs, rest)),
                Reply::Detached,
            )
        })
    }

    /// Fire-and-forget bulk submission of `stream[range]` — the
    /// zero-copy path: only the `Arc` and the range cross the channel,
    /// so no per-transaction allocation happens on either side. Returns
    /// the first global sequence number of the range (`None` for an
    /// empty range, which reserves nothing); results are collected with
    /// [`FleetHandle::drain`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or the fleet was shut down.
    pub fn submit_batch_detached(
        &self,
        stream: &Arc<[Transaction]>,
        range: Range<usize>,
    ) -> Option<u64> {
        assert!(range.end <= stream.len(), "range out of bounds");
        self.place(range.len(), |start, len| {
            let lo = range.start + start;
            (Txs::Shared(stream.clone(), lo..lo + len), Reply::Detached)
        })
    }

    /// Collects (and clears) every detached result recorded for this
    /// client so far, as `(global sequence, shard)` pairs sorted by
    /// sequence. Blocks until the worker reaches the drain marker, so
    /// everything this handle enqueued before the call is included.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was shut down.
    pub fn drain(&self) -> Vec<(u64, ShardId)> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.shared.senders[self.worker]
            .send(Msg::Drain {
                client: self.client,
                reply: tx,
            })
            .expect("fleet worker alive");
        let mut results = rx.recv().expect("fleet worker alive");
        results.sort_by_key(|(seq, _)| *seq);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_knobs() {
        let fleet = RouterFleet::builder()
            .shards(4)
            .workers(2)
            .sync_interval(16)
            .build();
        assert_eq!(fleet.k(), 4);
        assert_eq!(fleet.workers(), 2);
        assert_eq!(fleet.strategy(), Strategy::OptChain);
        assert_eq!(fleet.submitted(), 0);
    }

    #[test]
    fn chain_traffic_stays_on_one_worker_and_one_shard() {
        let fleet = RouterFleet::builder().shards(4).workers(2).build();
        let handle = fleet.handle(7);
        let s0 = handle.submit(TxId(0), &[]);
        for i in 1..10u64 {
            let s = handle.submit(TxId(i), &[TxId(i - 1)]);
            assert_eq!(s, s0, "tx {i}");
        }
        let stats = fleet.stats();
        assert_eq!(stats.placed, 10);
        assert_eq!(
            stats.per_worker_placed.iter().filter(|n| **n > 0).count(),
            1
        );
    }

    #[test]
    fn partitioner_routes_clients() {
        let fleet = RouterFleet::builder()
            .shards(2)
            .workers(3)
            .partitioner(|client| client as usize)
            .build();
        assert_eq!(fleet.handle(0).worker(), 0);
        assert_eq!(fleet.handle(1).worker(), 1);
        assert_eq!(fleet.handle(5).worker(), 2);
    }

    #[test]
    fn cross_sync_resolves_foreign_parents() {
        // Client 0 on worker 0 places a chain head; after a sync round,
        // client 1 on worker 1 spends it and follows it into its shard.
        let build = |interval| {
            RouterFleet::builder()
                .shards(4)
                .workers(2)
                .partitioner(|client| client as usize)
                .sync_interval(interval)
                .build()
        };
        let fleet = build(1); // sync after every submission
        let w0 = fleet.handle(0);
        let w1 = fleet.handle(1);
        let parent_shard = w0.submit(TxId(0), &[]);
        let child_shard = w1.submit(TxId(1), &[TxId(0)]);
        assert_eq!(child_shard, parent_shard, "sync must link the chain");
        let stats = fleet.stats();
        assert_eq!(stats.missing_parent_refs, 0);
        assert!(stats.adopted >= 1);

        // Without sync the same traffic leaves the parent unresolved.
        let blind = build(0);
        let b0 = blind.handle(0);
        let b1 = blind.handle(1);
        b0.submit(TxId(0), &[]);
        b1.submit(TxId(1), &[TxId(0)]);
        let stats = blind.stats();
        assert_eq!(stats.missing_parent_refs, 1);
        assert_eq!(stats.adopted, 0);
    }

    #[test]
    fn telemetry_fans_out_under_a_single_epoch() {
        let fleet = RouterFleet::builder().shards(2).workers(3).build();
        let cold = vec![crate::DEFAULT_TELEMETRY; 2];
        fleet.feed_telemetry(&cold);
        assert_eq!(fleet.telemetry_version(), 1, "first feed is a change");
        fleet.feed_telemetry(&cold);
        assert_eq!(fleet.telemetry_version(), 1, "unchanged values are dropped");
        let hot = vec![ShardTelemetry::new(0.1, 5.0), ShardTelemetry::new(0.1, 0.5)];
        fleet.feed_telemetry(&hot);
        assert_eq!(fleet.telemetry_version(), 2);
        fleet.flush();
        let stats = fleet.stats();
        // Workers started from DEFAULT_TELEMETRY, so the first (equal)
        // feed kept their version at 0 and the hot feed bumped it to 1:
        // every worker sits at the same epoch.
        assert!(stats.telemetry_versions.iter().all(|v| *v == 1));
    }

    #[test]
    fn detached_submissions_drain_in_sequence_order() {
        let fleet = RouterFleet::builder().shards(2).workers(2).build();
        let handle = fleet.handle(3);
        for i in 0..20u64 {
            let parents = if i == 0 { vec![] } else { vec![TxId(i - 1)] };
            handle.submit_detached(TxRows::from_iter([(TxId(i), parents)]));
        }
        let results = handle.drain();
        assert_eq!(results.len(), 20);
        let seqs: Vec<u64> = results.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        assert!(handle.drain().is_empty(), "drain clears the buffer");
    }

    #[test]
    fn submit_batch_matches_individual_submits() {
        use optchain_utxo::{TxOutput, WalletId};
        let txs: Vec<Transaction> = (0..40u64)
            .map(|i| {
                if i.is_multiple_of(5) {
                    Transaction::coinbase(TxId(i), 1_000, WalletId(0))
                } else {
                    Transaction::builder(TxId(i))
                        .input(TxId(i - 1).outpoint(0))
                        .output(TxOutput::new(1_000, WalletId(0)))
                        .build()
                }
            })
            .collect();
        let fleet = || {
            RouterFleet::builder()
                .shards(4)
                .workers(1)
                .sync_interval(8)
                .build()
        };
        let (a, b, c) = (fleet(), fleet(), fleet());
        let ha = a.handle(0);
        let singles: Vec<ShardId> = txs.iter().map(|tx| ha.submit_tx(tx)).collect();
        let hb = b.handle(0);
        let stream: Arc<[Transaction]> = txs.into();
        assert_eq!(hb.submit_batch_detached(&stream, 0..stream.len()), Some(0));
        let batched: Vec<ShardId> = hb.drain().into_iter().map(|(_, shard)| shard).collect();
        assert_eq!(singles, batched);
        // The same transactions as one `TxRows` straddle four sync
        // boundaries: five messages, each piece intact.
        let rows: TxRows = stream
            .iter()
            .map(|tx| (tx.id(), tx.input_txids()))
            .collect();
        let mut head = rows.clone();
        let tail = head.split_off(13);
        assert_eq!((head.len(), tail.len()), (13, 27));
        assert!(head.iter().chain(tail.iter()).eq(rows.iter()));
        let hc = c.handle(0);
        assert_eq!(hc.submit_detached(rows), Some(0));
        let rowed: Vec<ShardId> = hc.drain().into_iter().map(|(_, shard)| shard).collect();
        assert_eq!(singles, rowed);
        assert_eq!(c.stats().sync_rounds, 5);
    }

    #[test]
    fn dead_worker_poisons_the_barrier_instead_of_hanging() {
        // Worker 1 dies on a duplicate TxId; worker 0, parked at the
        // next sync barrier, must panic out (propagated through its own
        // guard) rather than wait forever — and the fleet's Drop must
        // still join both threads. The submitting thread observes the
        // failure as a closed-channel panic on a later send.
        let fleet = RouterFleet::builder()
            .shards(2)
            .workers(2)
            .partitioner(|client| client as usize)
            .sync_interval(2)
            .build();
        let h0 = fleet.handle(0);
        let h1 = fleet.handle(1);
        // The second (duplicate) submission kills worker 1; depending on
        // scheduling, the killing call itself may already panic while
        // fanning out the sync marker for the boundary it crosses.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = h1.submit_detached(TxRows::from_iter([(TxId(7), [])]));
            let _ = h1.submit_detached(TxRows::from_iter([(TxId(7), [])])); // duplicate: worker 1 dies
        }));
        // Keep submitting until the dead channel surfaces as a panic;
        // the sync markers at every second submission would otherwise
        // strand worker 0 at the (now poisoned) barrier forever.
        let mut died = false;
        for i in 0..5_000u64 {
            let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = h0.submit_detached(TxRows::from_iter([(TxId(100 + i), [])]));
            }));
            if sent.is_err() {
                died = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(died, "submitting into a dead fleet must eventually panic");
        drop(fleet); // must not hang
    }

    #[test]
    fn pruned_deltas_ship_only_unspent_and_hubs() {
        // Worker 0 places a parent and immediately spends it locally;
        // under KeepUnspentAndHubs the spent, sub-threshold parent is
        // withheld from the sync delta while the unspent tip crosses.
        let fleet = RouterFleet::builder()
            .shards(4)
            .workers(2)
            .partitioner(|client| client as usize)
            .sync_interval(0) // manual sync_now only
            .retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 8 })
            .build();
        let w0 = fleet.handle(0);
        let w1 = fleet.handle(1);
        w0.submit(TxId(0), &[]); // parent, spent below
        let tip_shard = w0.submit(TxId(1), &[TxId(0)]); // unspent tip
        fleet.sync_now();
        fleet.flush();
        let stats = fleet.stats();
        assert_eq!(stats.pruned_delta_txs, 1, "the spent parent is pruned");
        assert_eq!(stats.adopted, 1, "only the tip is adopted");
        // The tip resolves cross-worker and pulls its spender along...
        let s = w1.submit(TxId(2), &[TxId(1)]);
        assert_eq!(s, tip_shard);
        // ...while a spend of the pruned parent is a missing reference.
        w1.submit(TxId(3), &[TxId(0)]);
        let stats = fleet.stats();
        assert_eq!(stats.missing_parent_refs, 1);
    }

    #[test]
    fn unbounded_and_windowed_fleets_publish_full_deltas() {
        let fleet = RouterFleet::builder()
            .shards(2)
            .workers(2)
            .partitioner(|client| client as usize)
            .sync_interval(0)
            .retention(RetentionPolicy::WindowTxs(1_000))
            .build();
        let w0 = fleet.handle(0);
        w0.submit(TxId(0), &[]);
        w0.submit(TxId(1), &[TxId(0)]);
        fleet.sync_now();
        fleet.flush();
        let stats = fleet.stats();
        assert_eq!(stats.pruned_delta_txs, 0);
        assert_eq!(stats.adopted, 2, "windowed deltas are unpruned");
    }

    #[test]
    fn windowed_workers_bound_their_graph_replicas() {
        use crate::{MemStorage, SharedStorage};
        let window = 64usize;
        let storages = [(); 2].map(|()| SharedStorage::new(MemStorage::new()));
        let fleet = RouterFleet::builder()
            .shards(2)
            .workers(2)
            .partitioner(|client| client as usize)
            .sync_interval(16)
            .retention(RetentionPolicy::WindowTxs(window))
            .storage(vec![
                Box::new(storages[0].clone()),
                Box::new(storages[1].clone()),
            ])
            .build();
        let handles = [fleet.handle(0), fleet.handle(1)];
        for i in 0..4_000u64 {
            handles[(i % 2) as usize].submit_detached(TxRows::from_iter([(TxId(i), [])]));
        }
        fleet.shutdown();
        for (w, storage) in storages.into_iter().enumerate() {
            // Every worker ingested (placed + adopted) the whole stream
            // but holds only its window.
            let router = Router::recover(Box::new(storage)).unwrap();
            assert_eq!(router.assignments().len(), 4_000, "worker {w}");
            assert_eq!(router.tan().live_len(), window, "worker {w}");
        }
    }

    #[test]
    fn an_id_resubmitted_a_horizon_later_is_fresh_on_every_worker() {
        for workers in [1usize, 2, 3] {
            let fleet = || {
                RouterFleet::builder()
                    .shards(2)
                    .workers(workers)
                    .partitioner(|client| client as usize)
                    .sync_interval(3)
                    .retention(RetentionPolicy::WindowTxs(4))
                    .build()
            };
            let horizon = fleet().eviction_horizon().expect("a windowed fleet");
            assert_eq!(horizon, if workers == 1 { 5 } else { 11 });
            // Every alignment of the original against the sync marks;
            // the copy goes to another worker and is adopted back.
            for first in 0..6 {
                let fleet = fleet();
                let total = first + horizon + 6;
                for seq in 0..total {
                    let id = if seq == first + horizon { first } else { seq };
                    fleet.handle(seq % workers as u64).submit(TxId(id), &[]);
                }
                assert_eq!(fleet.stats().placed, total, "no worker died");
            }
        }
        let blind = (RouterFleet::builder().shards(2).workers(2))
            .retention(RetentionPolicy::WindowTxs(4))
            .sync_interval(0);
        assert_eq!(blind.build().eviction_horizon(), None);
    }

    #[test]
    fn submit_batch_detached_reports_first_seq() {
        use optchain_utxo::WalletId;
        let txs: Vec<Transaction> = (0..10u64)
            .map(|i| Transaction::coinbase(TxId(i), 1, WalletId(0)))
            .collect();
        let stream: Arc<[Transaction]> = txs.into();
        let fleet = RouterFleet::builder().shards(2).workers(1).build();
        let handle = fleet.handle(0);
        assert_eq!(handle.submit_batch_detached(&stream, 0..4), Some(0));
        assert_eq!(handle.submit_batch_detached(&stream, 4..4), None);
        assert_eq!(handle.submit_batch_detached(&stream, 4..10), Some(4));
        assert_eq!(handle.drain().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = RouterFleet::builder().shards(2).workers(0);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
