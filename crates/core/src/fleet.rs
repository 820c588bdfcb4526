//! The [`RouterFleet`]: a placement front-end for many concurrent
//! clients over **one** [`Router`] behind one lock.
//!
//! OptChain places transactions as one online sequence (Algorithm 1 of
//! the paper): every decision reads every earlier one, through the T2S
//! scores its parents carry and through the shard sizes `|S_i|`. The
//! fleet keeps that sequence whole. However many handles submit, they
//! share one `Router` (its TaN graph, strategy state, telemetry board
//! and scratch buffers) behind one mutex, and every call places on the
//! caller's own thread while it holds that lock. The order in which
//! callers take the lock is the global order, so a fleet is
//! bit-identical to a `Router` fed that order, by construction;
//! `fleet_golden.rs` pins it. For a fixed order (one driving thread, or
//! externally serialized submitters) every assignment is reproducible.
//! What the fleet adds is cheap per-client handles on any thread and
//! per-client detached results.
//!
//! # Resubmissions
//!
//! A transaction id the router's graph still holds is a retry whose
//! answer exists: it is acked with the shard that id holds, on every
//! door, and journals nothing. An id the graph has evicted is placed
//! afresh.
//!
//! # Example
//!
//! ```
//! use optchain_core::{RouterFleet, Strategy};
//! use optchain_utxo::TxId;
//!
//! # fn main() -> std::io::Result<()> {
//! let fleet = RouterFleet::builder()
//!     .shards(4)
//!     .strategy(Strategy::OptChain)
//!     .build();
//!
//! // Each client gets a cheap handle; all of them feed one sequence.
//! let alice = fleet.handle(1);
//! let bob = fleet.handle(2);
//! let s0 = alice.submit(TxId(0), &[])?;
//! let s1 = alice.submit(TxId(1), &[TxId(0)])?;
//! assert_eq!(s0, s1, "a client's chain stays together");
//! // Bob spends Alice's output: its parent is already in the graph.
//! bob.submit(TxId(2), &[TxId(1)])?;
//! assert_eq!(fleet.stats().missing_parent_refs, 0);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::io;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use optchain_storage::Storage;
use optchain_tan::RetentionPolicy;
use optchain_utxo::{Transaction, TxId};

use crate::l2s::ShardTelemetry;
use crate::placer::{Decision, ShardId};
use crate::router::{Router, RouterBuilder};
use crate::strategy::Strategy;

/// What a fleet and its handles share, behind one lock.
struct State {
    /// The fleet's one router; `None` once the fleet is shut down.
    router: Option<Router>,
    /// Next global submission index.
    seq: u64,
    /// Detached results by client key, as `(global sequence, shard)` in
    /// sequence order, until [`FleetHandle::drain`].
    detached: HashMap<u64, Vec<(u64, ShardId)>>,
}

impl State {
    /// The fleet's router, or the error every call gets once the fleet
    /// is shut down or its router has failed.
    fn router(&mut self) -> io::Result<&mut Router> {
        let router = self.router.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        match router.failure() {
            Some(kind) => Err(kind.into()),
            None => Ok(router),
        }
    }

    /// Places one transaction through `submit` under the next global
    /// sequence number. Returns its shard and whether it was placed:
    /// `false` for an id the graph still holds (refused before anything
    /// was decided or journaled), acked with the shard that id holds.
    fn place(
        &mut self,
        txid: TxId,
        submit: impl FnOnce(&mut Router) -> io::Result<ShardId>,
    ) -> io::Result<(ShardId, bool)> {
        let router = self.router()?;
        let placed = match submit(router) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                router.shard_of(txid).map(|shard| (shard, false)).ok_or(e)?
            }
            placed => (placed?, true),
        };
        self.seq += 1;
        Ok(placed)
    }

    /// Places `txs` in order on behalf of `client`, keeping each
    /// `(global sequence, shard)` for its [`FleetHandle::drain`], and
    /// returns the first sequence number (`None` for no transactions).
    /// What was placed before an error stays drainable.
    fn place_detached(&mut self, client: u64, txs: &[Transaction]) -> io::Result<Option<u64>> {
        let first = (!txs.is_empty()).then_some(self.seq);
        let mut results = self.detached.remove(&client).unwrap_or_default();
        let placed = txs.iter().try_for_each(|tx| {
            let seq = self.seq;
            let (shard, _) = self.place(tx.id(), |router| router.submit_tx(tx))?;
            results.push((seq, shard));
            Ok(())
        });
        self.detached.insert(client, results);
        placed.map(|()| first)
    }
}

/// Takes the fleet's lock for a call that can fail: a lock poisoned by
/// a panic while placing fails the call instead of panicking it.
fn lock(state: &Mutex<State>) -> io::Result<MutexGuard<'_, State>> {
    state
        .lock()
        .map_err(|_| io::Error::other("a placement panicked holding the fleet's lock"))
}

/// Takes the fleet's lock for a diagnostic read that cannot fail:
/// through a poisoned lock it reads what is there (the fleet's own
/// fields change only after a router call returns).
fn read(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
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

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builder for [`RouterFleet`]: a [`RouterBuilder`] restricted to the
/// knobs a fleet caller sets (shards, strategy, retention, expected
/// total, rebalancer, storage); every setter forwards to it, and
/// `RouterBuilder::from` hands it to a door that takes a
/// [`RouterBuilder`]. [`RouterFleetBuilder::workers`],
/// [`RouterFleetBuilder::sync_interval`] and
/// [`RouterFleetBuilder::partitioner`] are accepted and change nothing:
/// every fleet places through one router (see the
/// [module docs](crate::fleet)).
pub struct RouterFleetBuilder {
    router: RouterBuilder,
}

impl RouterFleetBuilder {
    /// Number of shards to place over (required).
    pub fn shards(mut self, k: u32) -> Self {
        self.router = self.router.shards(k);
        self
    }

    /// Placement strategy (default [`Strategy::OptChain`]).
    /// [`Strategy::Metis`] is not available: it needs an oracle
    /// partition, which only [`RouterBuilder::oracle`] takes.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.router = self.router.strategy(strategy);
        self
    }

    /// The state-lifecycle policy the fleet's router runs under
    /// (default [`RetentionPolicy::Unbounded`]) — see
    /// [`RouterBuilder::retention`].
    pub fn retention(mut self, retention: RetentionPolicy) -> Self {
        self.router = self.router.retention(retention);
        self
    }

    /// Known stream length, tightening the Greedy/T2S capacity cap.
    pub fn expected_total(mut self, total: u64) -> Self {
        self.router = self.router.expected_total(total);
        self
    }

    /// Enables dynamic re-sharding — see [`RouterBuilder::rebalancer`].
    /// OptChain strategy only.
    pub fn rebalancer(mut self, policy: crate::RebalancePolicy) -> Self {
        self.router = self.router.rebalancer(policy);
        self
    }

    /// Accepted and ignored: placement is one sequence, so every fleet
    /// places through one router and `n` changes no decision.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn workers(self, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one worker");
        self
    }

    /// Accepted and ignored: with one router there are no replicas to
    /// synchronize, so `txs` changes no decision.
    pub fn sync_interval(self, _txs: u64) -> Self {
        self
    }

    /// Accepted and ignored: every client's transactions go to the one
    /// router, so `f` changes no decision.
    pub fn partitioner(self, _f: impl Fn(u64) -> usize + Send + Sync + 'static) -> Self {
        self
    }

    /// The durable [`Storage`] backend the fleet's router journals to,
    /// as [`RouterBuilder::storage`]: a journal the same configuration
    /// wrote is recovered, and the global submission counter resumes at
    /// the recovered placement count. Storage is the one way a fleet's
    /// state comes back: a fleet that must survive a drop and rebuild
    /// in RAM takes a `SharedStorage<MemStorage>`.
    pub fn storage(mut self, storage: Box<dyn Storage>) -> Self {
        self.router = self.router.storage(storage);
        self
    }

    /// Builds (or recovers) the fleet's router with
    /// [`RouterBuilder::open`] and puts it behind the fleet's lock.
    ///
    /// # Panics
    ///
    /// Panics with the message of any error [`RouterBuilder::open`]
    /// returns.
    pub fn build(self) -> RouterFleet {
        let router = self.router.build();
        RouterFleet {
            state: Arc::new(Mutex::new(State {
                // Resumes at whatever the journal replayed (zero for a
                // fresh router).
                seq: stats_of(&router).placed,
                router: Some(router),
                detached: HashMap::new(),
            })),
        }
    }
}

/// The router a fleet builder describes, for a door that takes a
/// [`RouterBuilder`] (the placement server's).
impl From<RouterFleetBuilder> for RouterBuilder {
    fn from(fleet: RouterFleetBuilder) -> RouterBuilder {
        fleet.router
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

/// The fleet's counters (see [`RouterFleet::stats`]), read under the
/// fleet's lock — diagnostics, not a hot path.
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
    /// Always 0: one router has no replicas to synchronize.
    pub sync_rounds: u64,
    /// L2S memo hits.
    pub l2s_memo_hits: u64,
    /// L2S memo misses.
    pub l2s_memo_misses: u64,
    /// Rebalance counters (all zero without
    /// [`RouterFleetBuilder::rebalancer`]).
    pub rebalance: crate::RebalanceStats,
}

/// A placement front-end for many concurrent clients: one [`Router`]
/// behind one lock. See the [module docs](crate::fleet) for the design.
///
/// Dropping the fleet shuts it down as [`RouterFleet::shutdown`] does.
pub struct RouterFleet {
    state: Arc<Mutex<State>>,
}

impl RouterFleet {
    /// Starts configuring a fleet.
    pub fn builder() -> RouterFleetBuilder {
        RouterFleetBuilder {
            router: Router::builder(),
        }
    }

    /// Number of shards.
    pub fn k(&self) -> u32 {
        read(&self.state).router.as_ref().map_or(0, Router::k)
    }

    /// Global submissions accepted so far.
    pub fn submitted(&self) -> u64 {
        read(&self.state).seq
    }

    /// How many times the fed telemetry values have changed: the
    /// router's own epoch ([`Router::telemetry_version`]), which a feed
    /// of unchanged values keeps.
    pub fn telemetry_version(&self) -> u64 {
        let state = read(&self.state);
        state.router.as_ref().map_or(0, Router::telemetry_version)
    }

    /// Opens a cheap, clonable per-client submitter. Submissions through
    /// the handle are placed in submission order, in the fleet's one
    /// sequence.
    pub fn handle(&self, client: u64) -> FleetHandle {
        FleetHandle {
            state: self.state.clone(),
            client,
        }
    }

    /// Feeds one telemetry update to the router
    /// ([`Router::try_feed_telemetry`]: only a change bumps the epoch
    /// and is journaled). Errors as a [`FleetHandle`] door's.
    ///
    /// # Panics
    ///
    /// Panics if `telemetry.len() != k`.
    pub fn feed_telemetry(&self, telemetry: &[ShardTelemetry]) -> io::Result<()> {
        assert_eq!(
            telemetry.len(),
            self.k() as usize,
            "telemetry must cover every shard"
        );
        lock(&self.state)?.router()?.try_feed_telemetry(telemetry)
    }

    /// Returns at once: every call places before it returns, so there
    /// is nothing to wait for.
    pub fn flush(&self) {}

    /// The fleet's counters, over everything placed so far.
    pub fn stats(&self) -> FleetStats {
        let state = read(&self.state);
        state.router.as_ref().map(stats_of).unwrap_or_default()
    }

    /// The shard a previously submitted transaction was placed into,
    /// by transaction id — [`Router::shard_of`] on the fleet's router.
    /// `None` when the id was never placed, or its assignment aged out
    /// under the retention policy. Errors as a [`FleetHandle`] door's.
    pub fn shard_of(&self, txid: TxId) -> io::Result<Option<ShardId>> {
        Ok(lock(&self.state)?.router()?.shard_of(txid))
    }

    /// Shuts the fleet down **gracefully and explicitly**: flushes the
    /// router's journal tail (so the whole acked stream is durable under
    /// `.storage(...)`) and drops the router, which releases the
    /// storage. Dropping the fleet does the same implicitly; the
    /// explicit form lets a caller sequence it. Outstanding
    /// [`FleetHandle`]s return [`io::ErrorKind::NotConnected`]
    /// afterwards.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // A router a placement panicked inside is left as a kill -9
        // leaves it: recovery does its job on the flushed prefix.
        let taken = self.state.lock().map(|mut state| state.router.take());
        if let Ok(Some(mut router)) = taken {
            // Else records buffered since the last fsync batch are lost
            // as if the process were killed. Best-effort, as above.
            let _ = router.flush_journal();
        }
    }
}

impl std::fmt::Debug for RouterFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterFleet").field("k", &self.k()).finish()
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
/// Every door takes the fleet's one lock and places on the caller's
/// thread. The synchronous doors return the shard, or the kind of the
/// router's failure ([`Router::failure`]), or
/// [`io::ErrorKind::NotConnected`] once the fleet is shut down;
/// [`FleetHandle::submit_batch_detached`] keeps its results under the
/// client key until [`FleetHandle::drain`].
#[derive(Clone)]
pub struct FleetHandle {
    state: Arc<Mutex<State>>,
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
    /// Places a transaction spending from `inputs` and returns its
    /// shard. An id the fleet's graph still holds is acked with the
    /// shard it holds (see the [module docs](crate::fleet)).
    pub fn submit(&self, txid: TxId, inputs: &[TxId]) -> io::Result<ShardId> {
        let (shard, _) = lock(&self.state)?.place(txid, |router| router.submit(txid, inputs))?;
        Ok(shard)
    }

    /// [`FleetHandle::submit`], also returning the full score breakdown
    /// of the decision (see [`Router::last_decision`]); a resubmission
    /// acked with the shard it holds has an empty breakdown.
    pub fn submit_with_detail(
        &self,
        txid: TxId,
        inputs: &[TxId],
    ) -> io::Result<(ShardId, Decision)> {
        let mut state = lock(&self.state)?;
        let (shard, fresh) = state.place(txid, |router| router.submit(txid, inputs))?;
        let decision = match fresh {
            true => state.router()?.last_decision().to_decision(),
            false => Decision {
                shard,
                ..Decision::default()
            },
        };
        Ok((shard, decision))
    }

    /// Places a full [`Transaction`] (linked by its distinct input
    /// transactions) and returns its shard.
    pub fn submit_tx(&self, tx: &Transaction) -> io::Result<ShardId> {
        let (shard, _) = lock(&self.state)?.place(tx.id(), |router| router.submit_tx(tx))?;
        Ok(shard)
    }

    /// Bulk submission of `stream[range]`, placed before this returns;
    /// the shards are kept for [`FleetHandle::drain`]. Returns the
    /// first global sequence number of the range (`None` for an empty
    /// range, which takes none).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, or with an error the
    /// synchronous doors return; what was placed before it stays
    /// drainable.
    pub fn submit_batch_detached(
        &self,
        stream: &Arc<[Transaction]>,
        range: Range<usize>,
    ) -> Option<u64> {
        let txs = &stream[range];
        let placed = lock(&self.state).and_then(|mut state| state.place_detached(self.client, txs));
        placed.unwrap_or_else(|e| panic!("placing a detached batch failed: {e}"))
    }

    /// Takes every detached result recorded for this client so far, as
    /// `(global sequence, shard)` pairs in sequence order.
    pub fn drain(&self) -> Vec<(u64, ShardId)> {
        let mut state = read(&self.state);
        state.detached.remove(&self.client).unwrap_or_default()
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
        assert_eq!(fleet.submitted(), 0);
    }

    #[test]
    fn chain_traffic_stays_on_one_worker_and_one_shard() {
        let fleet = RouterFleet::builder().shards(4).workers(2).build();
        let handle = fleet.handle(7);
        let s0 = handle.submit(TxId(0), &[]).unwrap();
        for i in 1..10u64 {
            let s = handle.submit(TxId(i), &[TxId(i - 1)]).unwrap();
            assert_eq!(s, s0, "tx {i}");
        }
        let stats = fleet.stats();
        assert_eq!(stats.placed, 10);
        assert_eq!(stats.missing_parent_refs, 0);
        assert_eq!(stats.sync_rounds, 0);
    }

    /// The fleet's epoch is its router's: a feed of the defaults the
    /// board starts with is no change.
    #[test]
    fn telemetry_version_is_the_routers_own() {
        let fleet = RouterFleet::builder().shards(2).workers(3).build();
        let mut twin = Router::builder().shards(2).build();
        let cold = vec![crate::DEFAULT_TELEMETRY; 2];
        let hot = vec![ShardTelemetry::new(0.1, 5.0), ShardTelemetry::new(0.1, 0.5)];
        for feed in [&cold, &cold, &hot, &hot, &cold] {
            fleet.feed_telemetry(feed).unwrap();
            twin.feed_telemetry(feed);
            assert_eq!(fleet.telemetry_version(), twin.telemetry_version());
        }
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
        let singles: Vec<ShardId> = stream.iter().map(|tx| ha.submit_tx(tx).unwrap()).collect();
        let hb = b.handle(0);
        assert_eq!(hb.submit_batch_detached(&stream, 0..stream.len()), Some(0));
        let batched: Vec<ShardId> = hb.drain().into_iter().map(|(_, shard)| shard).collect();
        assert_eq!(singles, batched);
        assert_eq!(b.stats().sync_rounds, 0);
        // The same transactions as raw ids, placed by the router a fleet
        // builder describes.
        let mut router = RouterBuilder::from(RouterFleet::builder().shards(4)).build();
        let raw: Vec<ShardId> = stream
            .iter()
            .map(|tx| router.submit(tx.id(), &tx.input_txids()).unwrap())
            .collect();
        assert_eq!(singles, raw);
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
            handles[(i % 2) as usize].submit(TxId(i), &[]).unwrap();
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
                    shards.push(fleet.handle(seq % 3).submit(TxId(id), &[]).unwrap());
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

    /// After shutdown a handle's calls get `NotConnected`; a lock
    /// poisoned by a panic fails calls instead of panicking them.
    #[test]
    fn a_shut_or_poisoned_fleet_answers_with_an_error() {
        let fleet = RouterFleet::builder().shards(2).build();
        let handle = fleet.handle(0);
        fleet.shutdown();
        let refused = handle.submit(TxId(0), &[]).map_err(|e| e.kind());
        assert_eq!(refused, Err(io::ErrorKind::NotConnected));

        let fleet = RouterFleet::builder().shards(2).build();
        let handle = fleet.handle(0);
        handle.submit(TxId(0), &[]).unwrap();
        let poison = std::panic::AssertUnwindSafe(|| {
            let _held = handle.state.lock();
            panic!("a placement panics holding the lock");
        });
        assert!(std::panic::catch_unwind(poison).is_err());
        let refused = handle.submit_tx(&chain(1)[0]).map_err(|e| e.kind());
        assert_eq!(refused, Err(io::ErrorKind::Other));
        assert_eq!(fleet.stats().placed, 1, "a read goes through the poison");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = RouterFleet::builder().shards(2).workers(0);
    }
}
