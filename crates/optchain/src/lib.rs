//! **OptChain** — optimal transaction placement for scalable blockchain
//! sharding, reproduced in Rust.
//!
//! This facade crate re-exports the public API of the whole workspace:
//!
//! * [`core`] — the placement algorithm (T2S, L2S, temporal fitness)
//!   and the comparison strategies;
//! * [`utxo`] — the UTXO transaction model;
//! * [`tan`] — the Transactions-as-Nodes online DAG;
//! * [`workload`] — synthetic Bitcoin-like streams;
//! * [`partition`] — offline Metis-like k-way partitioning;
//! * [`sim`] — the sharded-blockchain discrete-event simulator;
//! * [`metrics`] — histograms, CDFs, time series;
//! * [`server`] / [`client`] — the network-facing placement service
//!   (length-prefixed TCP protocol, fee-ordered admission, typed
//!   overload shedding) and its blocking client.
//!
//! # Quickstart
//!
//! A [`core::Router`] owns the placement state — the TaN graph, the
//! strategy, the telemetry board — behind one submission interface:
//!
//! ```
//! use optchain::prelude::*;
//!
//! let mut router = Router::builder().shards(8).strategy(Strategy::OptChain).build();
//!
//! // Stream transactions in, get shard assignments out.
//! let txs = optchain::workload::generate(WorkloadConfig::small().with_seed(7), 2_000);
//! let mut shards = Vec::new();
//! router.submit_batch(&txs, &mut shards);
//! assert_eq!(shards.len(), txs.len());
//!
//! // Strategies swap at runtime; `replay_router` replays a stream with
//! // the paper's offline telemetry proxy and tallies cross-shard txs.
//! let mut random = Router::builder().shards(8).strategy(Strategy::OmniLedger).build();
//! let optchain = replay_router(&txs, &mut Router::builder().shards(8).build());
//! let omniledger = replay_router(&txs, &mut random);
//! assert!(optchain.cross_fraction() < omniledger.cross_fraction());
//! ```
//!
//! Single transactions go through the fallible `Router::submit` /
//! `submit_tx` (an `Err` is an id the graph still holds, or a journal
//! write failure, after which the router refuses every mutating call
//! with its kind, `Router::failure`; in-RAM routers never fail), and
//! `Router::last_decision` holds the score breakdown of the latest
//! placement. Multiple clients of one router hold
//! [`core::PlacementSession`] handles (`submit_tx_in`), which keep
//! per-client L2S memos warm; the borrow-style
//! [`core::Placer`] trait and [`core::replay`](core::replay::replay)
//! remain for callers that own their own graph.
//!
//! # Single `Router` vs `RouterFleet` — when to use which
//!
//! The [`core::RouterFleet`] is one `Router` behind one lock, fed
//! through cheap per-client handles that place on the caller's own
//! thread. It is one router on purpose: OptChain's decisions form one
//! sequence (each reads every earlier one through T2S and the shard
//! sizes), so a fleet is bit-identical to a `Router` fed the order in
//! which callers took the lock. Pick by deployment:
//!
//! * **`Router`** — one decision stream, bit-exact experiment replays,
//!   figure/table reproduction, embedding placement inside another
//!   single-threaded system (the simulator's client-side mode). One
//!   core is enough for ~10⁶ placements/sec; every golden test is
//!   stated against it.
//! * **`RouterFleet`** — a placement front-end shared by many
//!   concurrent clients on many threads. The builder takes the knobs a
//!   service sets (`shards`, `strategy`, `retention`, `expected_total`,
//!   `rebalancer`, `storage`); `workers(n)`, `sync_interval(txs)` and
//!   `partitioner(fn)` are accepted and change no placement. Every
//!   [`core::FleetHandle`] door places before it returns: `submit` /
//!   `submit_tx` / `submit_with_detail` answer with the shard or, once
//!   a journal write has failed, with the router's failure, every call
//!   after it too; `submit_batch_detached` (a zero-copy window of a
//!   shared stream) keeps its shards for `drain`. One client's spend of
//!   another's output finds its parent at once: there is one graph.
//!   The TCP node (`server::PlacementServer`) takes a `RouterBuilder`
//!   and places on its dispatcher thread, which owns the one router.
//!
//! ```
//! use optchain::prelude::*;
//!
//! # fn main() -> std::io::Result<()> {
//! let fleet = RouterFleet::builder().shards(8).build();
//! let alice = fleet.handle(1);
//! let bob = fleet.handle(2);
//! let s0 = alice.submit(TxId(0), &[])?;
//! let s1 = alice.submit(TxId(1), &[TxId(0)])?;
//! assert_eq!(s0, s1);
//! bob.submit(TxId(2), &[TxId(1)])?; // Alice's output: already known
//! assert_eq!(fleet.stats().missing_parent_refs, 0);
//! # Ok(())
//! # }
//! ```
//!
//! # Streaming deployments: pick a `RetentionPolicy`
//!
//! By default every router keeps the whole TaN graph and score matrix
//! — right for experiments, wrong for a service that ingests forever.
//! A [`core::RetentionPolicy`] bounds the lifecycle (on `Router` and
//! `RouterFleet` alike):
//!
//! * `Unbounded` — replays, tables, figures; bit-exact history.
//! * `WindowTxs(n)` — keep the last `n` transactions; memory is
//!   O(window) no matter how long the stream runs. Spends of evicted
//!   outputs degrade like pre-history spends; every transaction whose
//!   parents sit inside the window places bit-identically to
//!   `Unbounded`. Pick `n` well above the workload's typical
//!   spend-distance (the recorded baseline uses 100k).
//! * `KeepUnspentAndHubs { min_degree }` — window plus retained
//!   survivors: aged unspent outputs and high-fanout hubs stay
//!   resolvable (and keep their T2S pull) indefinitely.
//!
//! The policy bounds *everything* per-node: the TaN graph, the T2S
//! score matrix, and the assignment history (a windowed
//! [`core::AssignmentStore`] — `router.assignments().get(node)` reads
//! `None` for evicted entries while `len()` keeps counting the whole
//! stream). It is the only window there is: the paper's wallet
//! deployment ("users do not need to download the complete transaction
//! history") is a router under `WindowTxs(budget)` that learns foreign
//! placements through `Router::adopt_remote` (`examples/spv_client.rs`).
//!
//! ```
//! use optchain::prelude::*;
//!
//! let mut router = Router::builder()
//!     .shards(8)
//!     .retention(RetentionPolicy::WindowTxs(100_000))
//!     .build();
//! let txs = optchain::workload::generate(WorkloadConfig::small().with_seed(7), 2_000);
//! let mut shards = Vec::new();
//! router.submit_batch(&txs, &mut shards);
//! router.compact(); // checkpoint-time shrink
//! assert_eq!(router.assignments().len(), txs.len());
//! ```
//!
//! A durable router's snapshot (see *Recover after a crash* below) is
//! the state itself under every policy — graph (with its horizon and
//! stable-id remap), T2S engine, assignment store, telemetry board,
//! rebalancer state — so `Router::recover` is bit-exact, and under a
//! windowed policy the checkpoint stops scaling with the stream.
//!
//! # Turn on the Rebalancer: dynamic re-sharding
//!
//! Static placement commits to a shard at first sight; when the
//! workload later concentrates on a few hub outputs, the shard that
//! received the hub eats the skew forever. `.rebalancer(policy)` adds
//! a rebalancer that watches per-shard load, scores
//! candidate [`core::Move`]s with a cost model (migration bytes vs
//! saved future cross-shard traffic), and commits move batches at
//! epoch boundaries through a two-phase protocol — in-flight
//! placements resolve against the pre-epoch assignment, the commit
//! atomically re-homes the moved nodes. Placement stays deterministic
//! (same stream + same policy = same assignments, moves, and
//! counters), and a rebalancer that never triggers is bit-identical
//! to no rebalancer at all:
//!
//! ```
//! use optchain::prelude::*;
//!
//! let mut router = Router::builder()
//!     .shards(4)
//!     .rebalancer(
//!         RebalancePolicy::default()
//!             .with_epoch_interval(250)
//!             .with_min_in_degree(2),
//!     )
//!     .build();
//!
//! // A hot-spot stream: 2 hub outputs draw 70 % of spends from tx 300 on.
//! let config = WorkloadConfig::small()
//!     .with_seed(13)
//!     .with_hotspot(HotSpotConfig { hubs: 2, p_hot: 0.7, start: 300 });
//! let txs = optchain::workload::generate(config, 3_000);
//! let mut shards = Vec::new();
//! router.submit_batch(&txs, &mut shards);
//!
//! // Epochs committed, hubs re-homed — and every move is observable.
//! let stats = router.rebalance_stats();
//! assert!(stats.epochs_committed > 0 && stats.nodes_moved > 0);
//! let mut moves: Vec<Move> = Vec::new();
//! router.drain_rebalance_moves(&mut moves);
//! assert_eq!(moves.len() as u64, stats.nodes_moved);
//! assert!(moves.iter().all(|m| m.from != m.to && m.bytes > 0));
//! ```
//!
//! [`core::RebalancePolicy`] bounds the blast radius: an epoch every
//! `epoch_interval` placements, at most `max_moves_per_epoch` moves
//! and `byte_budget_per_epoch` migrated bytes per epoch, and nothing
//! moves at all until some shard exceeds `utilization_trigger`
//! (default 1.15× the mean) — so a balanced workload never pays for
//! the machinery. `.storage(...)` makes a rebalancing router durable
//! (the staged batch and the counters ride every snapshot; recovery
//! re-derives every epoch of the journal tail), and the TCP server,
//! handed the same `RouterBuilder`, surfaces the counters
//! (`optchain_rebalance_*`, per-shard acks, the cross-shard ratio) on
//! its `/metrics` endpoint. PERF.md §9 has the measured
//! budget-vs-benefit curve; `rebalance_curve` (in `optchain-bench`)
//! reproduces it and exits non-zero unless the rebalanced arm beats
//! static placement on both axes — CI runs its `--smoke`.
//!
//! # Recover after a crash: the durable node
//!
//! `.storage(backend)` turns a router into a **durable placement
//! node**: each acknowledged submission and telemetry change is
//! journaled to a write-ahead log before the ack — one framed record per
//! `submit_batch` call — a snapshot of the live state lands
//! every `checkpoint_every × full_every` journaled entries, and
//! [`core::Router::recover`] rebuilds a **bit-identical** router from
//! whatever survived: the snapshot (every decision input the journal
//! does not carry, rebalancer state included, checked against the
//! meta blob and restored verbatim; a checkpoint that disagrees with
//! it is a typed `InvalidData`, never a panic) plus the WAL tail above
//! it — the tail is the only delta, so no journaled byte is written
//! twice — torn tail frames truncated, shards and rebalance epochs
//! re-derived deterministically during replay. `recover` is the one
//! way a router's state comes back: a round trip in RAM is
//! `SharedStorage<MemStorage>` + `checkpoint_now` + `recover`.
//! [`core::RouterBuilder::open`] (and `build`, which panics on its
//! error) is the one door that builds or reopens a router: over a
//! backend that holds a journal it recovers it through `recover`, once
//! the journal's meta blob matches the builder's configuration (a
//! journal another configuration wrote is `InvalidInput`), so a
//! restarted node reopens with the builder that made it.
//! Backends implement the [`core::Storage`] trait:
//! [`core::SegmentWal`] (on-disk segments with CRC-framed records,
//! fsync-batched acks, and retention-driven segment GC) for real
//! deployments, [`core::MemStorage`] for tests, and
//! [`core::FailpointStorage`] for deterministic crash injection.
//!
//! ```
//! use optchain::prelude::*;
//!
//! let dir = std::env::temp_dir().join("optchain-facade-recover-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut router = Router::builder()
//!     .shards(8)
//!     .retention(RetentionPolicy::WindowTxs(100_000))
//!     .checkpoint_every(512) // entries before the first snapshot…
//!     .full_every(2) // …and, times this, between snapshots after it
//!     .storage(Box::new(SegmentWal::open(&dir).unwrap()))
//!     .build();
//! let txs = optchain::workload::generate(WorkloadConfig::small().with_seed(7), 2_000);
//! let mut shards = Vec::new();
//! router.submit_batch(&txs, &mut shards);
//! // Acks are fsync-batched; a graceful shutdown flushes the tail.
//! router.flush_journal().unwrap();
//! // Snapshots landed after 512 and 1,536 entries; the rest is tail.
//! let stats: CheckpointStats = router.checkpoint_stats();
//! assert_eq!(stats.full_checkpoints, 2);
//! drop(router); // a kill -9 from here on loses nothing acked
//!
//! // The restarted process reopens the same directory…
//! let mut recovered = Router::recover(Box::new(SegmentWal::open(&dir).unwrap())).unwrap();
//! assert_eq!(recovered.assignments().len(), txs.len());
//! // …and keeps deciding exactly where the crashed one left off.
//! let shard = recovered.submit(TxId(1_000_000), &[]).unwrap();
//! assert!(shard.0 < 8);
//! let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! The durability contract is batch-level: an ack means *journaled*,
//! and the record is durable once its batch is fsynced
//! (`flush_every`, default 512 records) — so a crash forgets at most
//! the unflushed tail, never a random subset. Whatever survives is a
//! prefix of the ack order, and deterministic placement turns that
//! prefix back into the exact pre-crash state
//! (`crates/core/tests/wal_golden.rs` proves it under randomized
//! kill -9 injection; `docs/DURABILITY.md` is the authoritative
//! on-disk specification — record framing, the one current version
//! of each artifact, the recovery state machine, the GC invariants —
//! and PERF.md §7 has the measured durability tax).
//!
//! # Run a placement node over TCP
//!
//! Everything above runs in-process. [`server::PlacementServer`] puts
//! the one router a [`core::RouterBuilder`] describes behind a TCP
//! listener with a small length-prefixed binary protocol, and
//! [`client::Client`] speaks it:
//!
//! ```
//! use optchain::prelude::*;
//!
//! let server = PlacementServer::builder()
//!     .router(Router::builder().shards(8))
//!     .bind("127.0.0.1:0") // OS-assigned port
//!     .start()
//!     .unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let shard = client.submit(100, TxId(1), &[]).unwrap();
//! assert!(shard < 8);
//! let shards = client
//!     .submit_batch(50, &[(TxId(2), vec![TxId(1)]), (TxId(3), vec![])])
//!     .unwrap();
//! assert_eq!(shards.len(), 2);
//! assert_eq!(client.query(TxId(1)).unwrap(), Some(shard));
//! drop(client);
//! server.shutdown(); // drains admitted work, flushes the WAL tail
//! ```
//!
//! The service half makes three promises the in-process API cannot:
//!
//! * **Admission control** — requests land in a bounded, fee-ordered
//!   queue (`queue_capacity` transactions); when it is full the server
//!   sheds with a typed [`client::RejectReason`] (`QueueFull`, `TooLarge`,
//!   `Shutdown`, `Malformed`) instead of queueing unboundedly or
//!   silently dropping, so admitted-request latency stays bounded by
//!   queue size over drain rate. A resubmitted id is no refusal: while
//!   the router's graph holds it, it is acked with the shard it holds;
//!   once evicted, it is placed afresh.
//! * **Backpressure, not disconnects** — each connection gets a credit
//!   window (`credit_window` outstanding requests); past it the server
//!   simply stops reading that socket, which surfaces to the client as
//!   TCP backpressure. A slow or bursty client is never disconnected.
//! * **No lost acks** — every request is answered exactly once
//!   (ack, typed reject, or query result), including everything
//!   admitted before a graceful [`server::PlacementServer::shutdown`],
//!   which drains the queue through the router and flushes the WAL tail
//!   (attach storage and its cadences on the `RouterBuilder` exactly as
//!   in-process). A `/metrics`-style text endpoint
//!   ([`client::Client::metrics_text`]) exposes queue depth,
//!   admitted/shed/acked counters, and admission-to-ack latency
//!   quantiles.
//!
//! The repo benchmark's `service_loopback` workload (`benchmark/`)
//! drives the full loop over loopback, closed and open loop, and
//! `service_golden` in `optchain-client` holds the overload contract.
//!
//! # Contributing
//!
//! There is one measuring system: `benchmark/` (four workloads, six
//! end-to-end metrics, a per-layer ladder; see its README and PERF.md).
//! CI runs four parallel jobs — `lint` (fmt + clippy + deletion
//! ratchet + docs), `test` (release build + full test suite),
//! `bench-gates` (`scripts/bench_gate.py`: builds the benchmark and
//! runs its smoke, untraced and traced — every output check, the exact
//! counts pinned in `scripts/bench_smoke_counts.json`, the allocation
//! limits; then `rebalance_curve --smoke`) and `wal-soak` (the
//! crash-injection matrix and a 100k-tx three-kill recovery soak that
//! also holds the journal O(window)) — plus a `nightly` full-length
//! `benchmark/run.sh`. No job gates a timing: a wall-clock claim is
//! made with the alternating-pair protocol in `benchmark/README.md`.
//! Before pushing, run the local mirror of the four PR jobs:
//!
//! ```sh
//! scripts/ci_check.sh
//! ```
//!
//! A pinned count that changes is a behaviour change: re-record it on
//! purpose (the gate prints the object to paste) and say why, exactly
//! like re-pinning a golden.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use optchain_client as client;
pub use optchain_core as core;
pub use optchain_metrics as metrics;
pub use optchain_partition as partition;
pub use optchain_server as server;
pub use optchain_sim as sim;
pub use optchain_tan as tan;
pub use optchain_utxo as utxo;
pub use optchain_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use optchain_client::{Client, ClientError, RejectReason};
    pub use optchain_core::replay::{replay, replay_into, replay_router, ReplayOutcome};
    pub use optchain_core::{
        CheckpointStats, DynPlacer, FailpointStorage, FennelPlacer, FleetHandle, FleetStats,
        GreedyPlacer, L2sEstimator, L2sMode, LdgPlacer, MemStorage, Move, OptChainPlacer,
        OraclePlacer, PlacementContext, PlacementSession, Placer, RandomPlacer, RebalancePolicy,
        RebalanceStats, RetentionPolicy, Router, RouterBuilder, RouterFleet, RouterFleetBuilder,
        SegmentWal, ShardId, ShardTelemetry, SharedStorage, Storage, Strategy, T2sEngine,
        T2sPlacer, TailDamage, TemporalFitness,
    };
    pub use optchain_partition::{partition_kway, CsrGraph};
    pub use optchain_server::{PlacementServer, PlacementServerBuilder, ServerMetrics};
    pub use optchain_sim::{SimConfig, SimMetrics, Simulation};
    pub use optchain_tan::{stats::TanStats, NodeId, TanGraph};
    pub use optchain_utxo::{Ledger, OutPoint, Transaction, TxId, TxOutput, UtxoSet, WalletId};
    pub use optchain_workload::{
        FlashCrowdEpisode, HotSpotConfig, WorkloadConfig, WorkloadGenerator,
    };
}
