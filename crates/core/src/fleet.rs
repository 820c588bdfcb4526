//! The [`RouterFleet`]: a placement front-end for many concurrent
//! clients over **one** [`Router`] on its own thread.
//!
//! OptChain places transactions as one online sequence (Algorithm 1 of
//! the paper): every decision reads every earlier one, through the T2S
//! scores its parents carry and through the shard sizes `|S_i|`. The
//! fleet keeps that sequence whole. However many handles submit, one
//! placement thread owns one `Router` (its TaN graph, strategy state,
//! telemetry board and scratch buffers) behind a **bounded MPSC**
//! ingress queue and places every transaction in the order the queue
//! delivers it. A fleet is therefore bit-identical to a `Router` fed
//! the same global order, by construction; `fleet_golden.rs` pins it.
//! What the fleet adds is the hand-off: cheap per-client handles on any
//! thread, backpressure from the bounded queue, and per-client detached
//! results.
//!
//! # One placement message
//!
//! A batch is the only unit of placement between a caller and the
//! placement thread: every door of [`FleetHandle`] sends the same
//! message — first global sequence number, client key, transactions,
//! reply mode — and the thread runs one placement loop over it. The
//! transactions are either flat [`TxRows`] (a single
//! [`FleetHandle::submit`] is a batch of one) or a zero-copy window into
//! a shared `Arc<[Transaction]>` stream. The reply mode is either
//! *detached* — shards accumulate under the client key until
//! [`FleetHandle::drain`] — or a synchronous round trip on a reply
//! channel of its own. A window of `n` transactions therefore costs one
//! channel message, not `n`.
//!
//! # Resubmissions
//!
//! A transaction id the router's graph still holds is a retry whose
//! answer exists: it is acked with the shard that id holds, on every
//! door, and journals nothing. An id the graph has evicted is placed
//! afresh.
//!
//! # Determinism
//!
//! The queue preserves order, so for a fixed global submission order
//! (one driving thread, or externally serialized submitters) every
//! assignment is reproducible — and equal to what one `Router` makes of
//! that order.
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
//!     .build();
//!
//! // Each client gets a cheap handle; all of them feed one sequence.
//! let alice = fleet.handle(1);
//! let bob = fleet.handle(2);
//! let s0 = alice.submit(TxId(0), &[]);
//! let s1 = alice.submit(TxId(1), &[TxId(0)]);
//! assert_eq!(s0, s1, "a client's chain stays together");
//! // Bob spends Alice's output: its parent is already in the graph.
//! bob.submit(TxId(2), &[TxId(1)]);
//! assert_eq!(fleet.stats().missing_parent_refs, 0);
//! ```

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use optchain_storage::Storage;
use optchain_tan::RetentionPolicy;
use optchain_utxo::{Transaction, TxId};

use crate::l2s::ShardTelemetry;
use crate::placer::{Decision, ShardId};
use crate::router::{Router, RouterSpec};
use crate::strategy::Strategy;

/// Ingress queue depth, in messages (a batch counts as one message).
const QUEUE_DEPTH: usize = 1_024;

// ---------------------------------------------------------------------------
// TxRows: transactions as flat rows
// ---------------------------------------------------------------------------

/// Transactions as flat `(txid, distinct input ids)` rows — what a wire
/// request carries, and the form it keeps from the socket to the router
/// that places it: three allocations however many transactions, none
/// per transaction.
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

    /// Each transaction's id and input ids, in order.
    pub fn iter(&self) -> impl Iterator<Item = (TxId, &[TxId])> + '_ {
        let mut lo = 0;
        self.ids.iter().zip(&self.offsets).map(move |(&txid, &hi)| {
            let inputs = &self.inputs[lo..hi as usize];
            lo = hi as usize;
            (txid, inputs)
        })
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

// ---------------------------------------------------------------------------
// Placement-thread protocol
// ---------------------------------------------------------------------------

/// The transactions of one placement message.
enum Txs {
    /// Flat rows: a single submission, as a batch of one.
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
    /// Into the drain buffer under the message's client key, as
    /// `(global sequence, shard)`, until [`FleetHandle::drain`].
    Detached,
    /// Back to the submitting handle (a batch of one): the shard, and
    /// the decision's score breakdown when `detail`.
    Sync {
        to: SyncSender<Placed>,
        detail: bool,
    },
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
    /// Reply once every prior message is processed.
    Flush(SyncSender<()>),
    Drain {
        client: u64,
        reply: SyncSender<Vec<(u64, ShardId)>>,
    },
    Stats(SyncSender<FleetStats>),
    /// Placement lookup by transaction id (see [`RouterFleet::shard_of`]).
    ShardOf {
        txid: TxId,
        reply: SyncSender<Option<ShardId>>,
    },
    Shutdown,
}

/// The counters of `router`, as [`RouterFleet::stats`] reports them.
fn stats_of(router: &Router) -> FleetStats {
    let (l2s_memo_hits, l2s_memo_misses) = router.l2s_memo_stats();
    FleetStats {
        // `AssignmentView::len()` counts the whole stream in stable-id
        // space, not the live (post-eviction) range, so the count stays
        // exact under retention.
        placed: router.assignments().len() as u64 - router.adopted_total(),
        missing_parent_refs: router.tan().missing_parent_refs(),
        cross_placed: router.cross_placed(),
        sync_rounds: 0,
        l2s_memo_hits,
        l2s_memo_misses,
        rebalance: router.rebalance_stats(),
    }
}

/// The shard a transaction is acked with: the one it was placed into,
/// or, for an id the graph still holds (refused before anything was
/// decided or journaled), the one that id holds.
fn acked(router: &Router, txid: TxId, placed: io::Result<ShardId>) -> ShardId {
    match placed {
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            router.shard_of(txid).expect("a live id holds a shard")
        }
        placed => placed.expect("journaling a placement failed"),
    }
}

/// The placement thread: processes ingress messages in order against
/// the fleet's one [`Router`].
fn placement_loop(mut router: Router, rx: Receiver<Msg>) {
    let mut detached: HashMap<u64, Vec<(u64, ShardId)>> = HashMap::new();
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
                // Whether the last transaction was placed, not acked as held.
                let mut fresh = false;
                match &txs {
                    Txs::Rows(rows) => {
                        for (txid, inputs) in rows.iter() {
                            let shard = router.submit(txid, inputs);
                            fresh = shard.is_ok();
                            placed.push(acked(&router, txid, shard));
                        }
                    }
                    Txs::Shared(stream, range) => {
                        for tx in &stream[range.clone()] {
                            let shard = router.submit_tx(tx);
                            fresh = shard.is_ok();
                            placed.push(acked(&router, tx.id(), shard));
                        }
                    }
                }
                match reply {
                    Reply::Detached => detached
                        .entry(client)
                        .or_default()
                        .extend((first_seq..).zip(placed.iter().copied())),
                    Reply::Sync { to, detail } => {
                        let shard = *placed.last().expect("a synchronous batch of one");
                        let decision = detail.then(|| match fresh {
                            true => router.last_decision().to_decision(),
                            false => Decision {
                                shard,
                                ..Decision::default()
                            },
                        });
                        let _ = to.send((shard, decision));
                    }
                }
            }
            Msg::Telemetry(values) => router.feed_telemetry(&values),
            Msg::Flush(reply) => {
                let _ = reply.send(());
            }
            Msg::Drain { client, reply } => {
                let _ = reply.send(detached.remove(&client).unwrap_or_default());
            }
            Msg::Stats(reply) => {
                let _ = reply.send(stats_of(&router));
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
    sender: SyncSender<Msg>,
    /// Next global submission index.
    seq: AtomicU64,
    k: u32,
    strategy: Strategy,
}

impl Shared {
    fn send(&self, msg: Msg) {
        self.sender.send(msg).expect("fleet placement thread alive");
    }

    /// Sends a message built around a fresh reply channel and waits for
    /// the reply.
    fn ask<T>(&self, msg: impl FnOnce(SyncSender<T>) -> Msg) -> T {
        let (tx, rx) = mpsc::sync_channel(1);
        self.send(msg(tx));
        rx.recv().expect("fleet placement thread alive")
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builder for [`RouterFleet`]: the [`crate::RouterBuilder`] knobs a
/// fleet caller actually sets (shards, strategy, retention, expected
/// total, rebalancer, storage). Everything else runs at the
/// [`crate::RouterBuilder`] defaults. [`RouterFleetBuilder::workers`],
/// [`RouterFleetBuilder::sync_interval`] and
/// [`RouterFleetBuilder::partitioner`] are accepted and change nothing:
/// every fleet places on one thread (see the [module docs](crate::fleet)).
pub struct RouterFleetBuilder {
    spec: RouterSpec,
    storage: Option<Box<dyn Storage>>,
}

impl RouterFleetBuilder {
    fn new() -> Self {
        RouterFleetBuilder {
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
    /// [`Strategy::Metis`] is not available: it needs an oracle
    /// partition, which only [`crate::RouterBuilder::oracle`] takes.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.spec.strategy = strategy;
        self
    }

    /// The state-lifecycle policy the fleet's router runs under
    /// (default [`RetentionPolicy::Unbounded`]) — see
    /// [`crate::RouterBuilder::retention`].
    pub fn retention(mut self, retention: RetentionPolicy) -> Self {
        self.spec.retention = retention;
        self
    }

    /// Known stream length, tightening the Greedy/T2S capacity cap.
    pub fn expected_total(mut self, total: u64) -> Self {
        self.spec.expected_total = Some(total);
        self
    }

    /// Enables dynamic re-sharding — see
    /// [`crate::RouterBuilder::rebalancer`]. OptChain strategy only.
    pub fn rebalancer(mut self, policy: crate::RebalancePolicy) -> Self {
        self.spec.rebalance = Some(policy);
        self
    }

    /// Accepted and ignored: placement is one sequence, so every fleet
    /// runs one placement thread and `n` changes no decision.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn workers(self, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one worker");
        self
    }

    /// Accepted and ignored: with one placement thread there are no
    /// replicas to synchronize, so `txs` changes no decision.
    pub fn sync_interval(self, _txs: u64) -> Self {
        self
    }

    /// Accepted and ignored: every client's transactions go to the one
    /// placement thread, so `f` changes no decision.
    pub fn partitioner(self, _f: impl Fn(u64) -> usize + Send + Sync + 'static) -> Self {
        self
    }

    /// The durable [`Storage`] backend the fleet's router journals to,
    /// as [`crate::RouterBuilder::storage`]. An empty backend is
    /// journaled from scratch; one that already holds a journal is
    /// **recovered** with [`Router::recover`], so a crashed durable
    /// fleet resumes where its journal ends. The global submission
    /// counter resumes at the recovered placement count. Storage is the
    /// one way a fleet's state comes back: a fleet that must survive a
    /// drop and rebuild in RAM takes a `SharedStorage<MemStorage>`.
    pub fn storage(mut self, storage: Box<dyn Storage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Builds (or recovers) the fleet's router and spawns its placement
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics on any condition [`crate::RouterBuilder::build`] rejects,
    /// or if recovering from a backend that holds a journal fails.
    pub fn build(self) -> RouterFleet {
        let router = Router::try_from(self).unwrap_or_else(|e| panic!("{e}"));
        // Resume the counters from whatever the journal replayed (zero
        // for a fresh router). The fan-out dedup cache restarts empty,
        // so the first telemetry feed after recovery always reaches the
        // router (its board drops the values if they are unchanged).
        let seq = AtomicU64::new(stats_of(&router).placed);
        let telemetry_version = AtomicU64::new(router.telemetry_version());
        let (sender, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        let shared = Arc::new(Shared {
            sender,
            seq,
            k: router.k(),
            strategy: router.strategy(),
        });
        let thread = std::thread::Builder::new()
            .name("optchain-fleet".into())
            .spawn(move || placement_loop(router, rx))
            .expect("spawn the fleet's placement thread");
        RouterFleet {
            shared,
            thread: Some(thread),
            telemetry: Mutex::new(None),
            telemetry_version,
        }
    }
}

/// The one router a [`RouterFleetBuilder`] describes: built fresh, or
/// — when its storage already holds a journal — recovered with
/// [`Router::recover`]. [`RouterFleetBuilder::build`] puts it behind a
/// placement thread; a serving layer that places on its own thread owns
/// it directly.
impl TryFrom<RouterFleetBuilder> for Router {
    type Error = io::Error;

    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] naming the rule when the spec
    /// breaks one; otherwise what reading the backend, writing a fresh
    /// journal's meta blob or [`Router::recover`] reports.
    fn try_from(builder: RouterFleetBuilder) -> io::Result<Router> {
        let RouterFleetBuilder { spec, storage } = builder;
        spec.check()
            .map_err(|rule| io::Error::new(io::ErrorKind::InvalidInput, rule))?;
        let Some(storage) = storage else {
            return Ok(spec.build());
        };
        // A backend holding records but no meta blob is no fresh
        // journal either: recovery reports it.
        if storage.meta()?.is_some() || storage.next_seq() != 0 {
            return Router::recover(storage);
        }
        let mut router = spec.build();
        router.attach_fresh_storage(&spec, storage)?;
        Ok(router)
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

/// The fleet's counters (see [`RouterFleet::stats`]). Collecting them
/// is a round trip to the placement thread — diagnostics, not a hot
/// path.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Transactions placed (the global stream length).
    pub placed: u64,
    /// Input references that found no parent in the graph when their
    /// transaction was placed: a spend of an output never submitted, or
    /// one evicted under the retention policy.
    pub missing_parent_refs: u64,
    /// Placements with at least one cross-shard input —
    /// `cross_placed / placed` is the fleet's live cross-tx ratio.
    pub cross_placed: u64,
    /// Always 0: one placement thread has no replicas to synchronize.
    pub sync_rounds: u64,
    /// L2S memo hits.
    pub l2s_memo_hits: u64,
    /// L2S memo misses.
    pub l2s_memo_misses: u64,
    /// Rebalance counters (all zero without
    /// [`RouterFleetBuilder::rebalancer`]).
    pub rebalance: crate::RebalanceStats,
}

/// A placement front-end for many concurrent clients: one [`Router`] on
/// its own thread behind a bounded ingress queue. See the
/// [module docs](crate::fleet) for the design.
///
/// Dropping the fleet shuts the placement thread down and joins it;
/// handles outliving the fleet panic on use.
pub struct RouterFleet {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    /// Last telemetry values fed, for the single-epoch fan-out (feeds
    /// with unchanged values are dropped before reaching the router).
    telemetry: Mutex<Option<Vec<ShardTelemetry>>>,
    telemetry_version: AtomicU64,
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

    /// The built-in [`Strategy`] the fleet's router runs.
    pub fn strategy(&self) -> Strategy {
        self.shared.strategy
    }

    /// Global submissions accepted so far.
    pub fn submitted(&self) -> u64 {
        self.shared.seq.load(Ordering::Relaxed)
    }

    /// How many times the fed telemetry values have changed — the
    /// fleet's epoch, which the router's board tracks exactly because
    /// unchanged feeds are dropped here.
    pub fn telemetry_version(&self) -> u64 {
        self.telemetry_version.load(Ordering::Relaxed)
    }

    /// Opens a cheap, clonable per-client submitter. Submissions through
    /// the handle are placed in submission order, in the fleet's one
    /// sequence.
    pub fn handle(&self, client: u64) -> FleetHandle {
        FleetHandle {
            shared: self.shared.clone(),
            client,
        }
    }

    /// Feeds one telemetry update under a single epoch: the fleet bumps
    /// its version only when the values change, and only changed feeds
    /// reach the router.
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
        self.shared.send(Msg::Telemetry(telemetry.to_vec()));
    }

    /// Blocks until the placement thread has processed everything
    /// enqueued before this call.
    pub fn flush(&self) {
        self.shared.ask(Msg::Flush)
    }

    /// The fleet's counters (queued work is processed first, so they
    /// reflect everything submitted so far).
    pub fn stats(&self) -> FleetStats {
        self.shared.ask(Msg::Stats)
    }

    /// The shard a previously submitted transaction was placed into,
    /// by transaction id — [`Router::shard_of`] on the fleet's router.
    /// `None` when the id was never placed, or its assignment aged out
    /// under the retention policy.
    ///
    /// A round trip to the placement thread — a query path, not a
    /// placement hot path.
    pub fn shard_of(&self, txid: TxId) -> Option<ShardId> {
        self.shared.ask(|reply| Msg::ShardOf { txid, reply })
    }

    /// Shuts the fleet down **gracefully and explicitly**: the
    /// placement thread drains its ingress queue, flushes its journal
    /// tail (so the whole acked stream is durable under `.storage(...)`),
    /// and joins. Dropping the fleet does the same implicitly; the
    /// explicit form exists so a serving layer can sequence the flush
    /// inside its own drain path and observe completion before
    /// acknowledging shutdown. Outstanding [`FleetHandle`]s panic on use
    /// afterwards.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = self.shared.sender.send(Msg::Shutdown);
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for RouterFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterFleet")
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

/// A per-client submitter into a [`RouterFleet`]. Cloning is cheap (the
/// same shared state); clones submit for the same client.
///
/// Every door sends the fleet's one placement message (see the
/// [module docs](crate::fleet)). The synchronous doors —
/// [`FleetHandle::submit`], [`FleetHandle::submit_tx`],
/// [`FleetHandle::submit_with_detail`] — send a batch of one and wait
/// for its shard on a fresh reply channel, so a dead placement thread
/// fails the call instead of hanging it; the detached door,
/// [`FleetHandle::submit_batch_detached`] for a window of a shared
/// stream, returns immediately, and its results are collected later
/// with [`FleetHandle::drain`].
#[derive(Clone)]
pub struct FleetHandle {
    shared: Arc<Shared>,
    client: u64,
}

impl std::fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHandle")
            .field("client", &self.client)
            .finish()
    }
}

impl FleetHandle {
    /// Sends the placement message for `count` transactions and returns
    /// the first global sequence number it took (`None` when
    /// `count == 0`, which reserves and sends nothing).
    fn place(&self, count: usize, txs: Txs, reply: Reply) -> Option<u64> {
        if count == 0 {
            return None;
        }
        let first_seq = self.shared.seq.fetch_add(count as u64, Ordering::Relaxed);
        self.shared.send(Msg::Place {
            first_seq,
            client: self.client,
            txs,
            reply,
        });
        Some(first_seq)
    }

    /// A synchronous batch of one, answered on a channel of its own.
    fn submit_one(&self, txid: TxId, inputs: Vec<TxId>, detail: bool) -> Placed {
        let rows = TxRows::from_iter([(txid, inputs)]);
        let (to, rx) = mpsc::sync_channel(1);
        self.place(1, Txs::Rows(rows), Reply::Sync { to, detail });
        rx.recv().expect("fleet placement thread alive")
    }

    /// Places a transaction spending from `inputs` and returns its
    /// shard (a synchronous round trip to the placement thread). An id
    /// the fleet's graph still holds is acked with the shard it holds
    /// (see the [module docs](crate::fleet)).
    ///
    /// # Panics
    ///
    /// Panics if the placement thread is gone: the fleet was shut down,
    /// or a journal write failed.
    pub fn submit(&self, txid: TxId, inputs: &[TxId]) -> ShardId {
        self.submit_one(txid, inputs.to_vec(), false).0
    }

    /// [`FleetHandle::submit`], also returning the full score breakdown
    /// of the decision (see [`Router::last_decision`]); a resubmission
    /// acked with the shard it holds has an empty breakdown.
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
        let count = range.len();
        self.place(count, Txs::Shared(stream.clone(), range), Reply::Detached)
    }

    /// Collects (and clears) every detached result recorded for this
    /// client so far, as `(global sequence, shard)` pairs sorted by
    /// sequence. Blocks until the placement thread reaches the drain
    /// marker, so everything this handle enqueued before the call is
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was shut down.
    pub fn drain(&self) -> Vec<(u64, ShardId)> {
        let client = self.client;
        let mut results = self.shared.ask(|reply| Msg::Drain { client, reply });
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
        assert_eq!(stats.missing_parent_refs, 0);
        assert_eq!(stats.sync_rounds, 0);
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
        fleet.feed_telemetry(&hot);
        assert_eq!(fleet.telemetry_version(), 2);
    }

    /// A spend chain of `n` transactions, every fifth a coinbase.
    fn chain(n: u64) -> Arc<[Transaction]> {
        use optchain_utxo::{TxOutput, WalletId};
        (0..n)
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
            .collect()
    }

    #[test]
    fn detached_submissions_drain_in_sequence_order() {
        let fleet = RouterFleet::builder().shards(2).workers(2).build();
        let handle = fleet.handle(3);
        let stream = chain(20);
        for i in 0..20 {
            handle.submit_batch_detached(&stream, i..i + 1);
        }
        let results = handle.drain();
        assert_eq!(results.len(), 20);
        let seqs: Vec<u64> = results.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        assert!(handle.drain().is_empty(), "drain clears the buffer");
    }

    #[test]
    fn submit_batch_matches_individual_submits() {
        let stream = chain(40);
        let fleet = || RouterFleet::builder().shards(4).build();
        let (a, b) = (fleet(), fleet());
        let ha = a.handle(0);
        let singles: Vec<ShardId> = stream.iter().map(|tx| ha.submit_tx(tx)).collect();
        let hb = b.handle(0);
        assert_eq!(hb.submit_batch_detached(&stream, 0..stream.len()), Some(0));
        let batched: Vec<ShardId> = hb.drain().into_iter().map(|(_, shard)| shard).collect();
        assert_eq!(singles, batched);
        assert_eq!(b.stats().sync_rounds, 0);
        // The same transactions as one `TxRows`, placed row by row by the
        // router a fleet builder describes.
        let rows: TxRows = stream
            .iter()
            .map(|tx| (tx.id(), tx.input_txids()))
            .collect();
        let mut router = Router::try_from(RouterFleet::builder().shards(4)).unwrap();
        let rowed: Vec<ShardId> = rows
            .iter()
            .map(|(txid, inputs)| router.submit(txid, inputs).unwrap())
            .collect();
        assert_eq!(singles, rowed);
    }

    #[test]
    fn windowed_workers_bound_their_graph_replicas() {
        use crate::{MemStorage, SharedStorage};
        let window = 64usize;
        let storage = SharedStorage::new(MemStorage::new());
        let fleet = RouterFleet::builder()
            .shards(2)
            .workers(2)
            .retention(RetentionPolicy::WindowTxs(window))
            .storage(Box::new(storage.clone()))
            .build();
        let handles = [fleet.handle(0), fleet.handle(1)];
        for i in 0..4_000u64 {
            handles[(i % 2) as usize].submit(TxId(i), &[]);
        }
        fleet.shutdown();
        // The router placed the whole stream but holds only its window.
        let router = Router::recover(Box::new(storage)).unwrap();
        assert_eq!(router.assignments().len(), 4_000);
        assert_eq!(router.tan().live_len(), window);
    }

    /// Under `WindowTxs(4)` an id resubmitted four places later is still
    /// in the graph and acked with the shard it holds; one place later
    /// it has been evicted and is placed afresh.
    #[test]
    fn an_id_resubmitted_a_horizon_later_is_fresh_on_every_worker() {
        for (gap, fresh) in [(4, false), (5, true)] {
            for first in 0..6 {
                let fleet = RouterFleet::builder()
                    .shards(2)
                    .workers(3)
                    .retention(RetentionPolicy::WindowTxs(4))
                    .build();
                let total = first + gap + 6;
                let mut shards = Vec::new();
                for seq in 0..total {
                    let id = if seq == first + gap { first } else { seq };
                    shards.push(fleet.handle(seq % 3).submit(TxId(id), &[]));
                }
                assert_eq!(fleet.stats().placed, total - u64::from(!fresh));
                if !fresh {
                    assert_eq!(shards[first as usize], shards[(first + gap) as usize]);
                }
            }
        }
    }

    #[test]
    fn submit_batch_detached_reports_first_seq() {
        let stream = chain(10);
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
}
