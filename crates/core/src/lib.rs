//! OptChain: optimal transaction placement for scalable blockchain
//! sharding (Nguyen et al., ICDCS 2019).
//!
//! This crate is the paper's primary contribution: a lightweight,
//! client-side algorithm that decides **which shard a new transaction
//! should be submitted to**, minimizing cross-shard transactions while
//! keeping shards temporally balanced. It composes three pieces:
//!
//! * [`T2sEngine`] — the *Transaction-to-Shard* score (Section IV.B): a
//!   PageRank-style fitness vector over shards, maintained incrementally
//!   in `O(|Nin(u)|·k)` per transaction using the paper's streaming
//!   update rule;
//! * [`L2sEstimator`] — the *Latency-to-Shard* score (Section IV.C): the
//!   expected confirmation latency of placing the transaction in each
//!   shard, from exponential communication/verification models;
//! * [`OptChainPlacer`] — Algorithm 1: place `u` into
//!   `argmax_j p(u)[j] − w·E(j)` (the *Temporal Fitness* score,
//!   `w = 0.01` in the paper).
//!
//! The primary entry point is the [`Router`]: an owned, session-based
//! placement service. It holds the TaN graph, the telemetry board, and
//! the strategy state behind one submission interface, with runtime
//! strategy selection ([`Strategy`] / [`DynPlacer`]) and four doors over
//! one fallible submission path — [`Router::submit`],
//! [`Router::submit_tx`], [`Router::submit_tx_in`] (per-client
//! [`PlacementSession`] handles carrying their own telemetry view) and the
//! zero-allocation [`Router::submit_batch`] — with the score breakdown
//! of the latest decision in [`Router::last_decision`]. A router given
//! [`RouterBuilder::storage`] journals every decision and snapshots the
//! state itself; [`Router::recover`] is the one way that state comes
//! back, in RAM (a [`SharedStorage`] over [`MemStorage`]) or from disk
//! ([`SegmentWal`]).
//!
//! When many clients submit concurrently, the [`RouterFleet`] puts one
//! `Router` behind one lock and hands each client a cheap handle that
//! places on the caller's own thread. Placement stays one sequence —
//! every decision reads every earlier one — so a fleet is bit-identical
//! to a `Router` fed the same order (see the [`fleet`] module docs).
//!
//! A long-lived node bounds its memory with one knob,
//! [`RouterBuilder::retention`]: a [`RetentionPolicy`] is the only
//! window there is, and the TaN graph, the T2S score rows and the
//! assignment history age under it together. The paper's wallet
//! deployment (*"users do not need to download the complete transaction
//! history"*) is that same router under `WindowTxs(budget)`, learning
//! placements made elsewhere through [`Router::adopt_remote`].
//!
//! The comparison strategies of Section V live here too, behind the
//! [`Placer`] trait: [`RandomPlacer`] (OmniLedger's hash placement),
//! [`GreedyPlacer`], [`T2sPlacer`] (T2S without load awareness), and
//! [`OraclePlacer`] (offline Metis-style assignments) — all reachable
//! through the router by name. [`replay()`](replay::replay) /
//! [`replay::replay_router`]
//! run a strategy over a transaction stream and report cross-TX
//! statistics, which is exactly how the paper produces Tables I and II.
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
//! // A coinbase arrives, then a spender: the spender follows its
//! // parent into the same shard.
//! let shard0 = router.submit(TxId(0), &[])?;
//! let shard1 = router.submit(TxId(1), &[TxId(0)])?;
//! assert_eq!(shard0, shard1);
//!
//! // Shard telemetry streams in; a heavy backlog diverts the chain.
//! let mut telemetry = vec![ShardTelemetry::new(0.1, 0.5); 4];
//! telemetry[shard1.index()] = ShardTelemetry::new(0.1, 500.0);
//! router.feed_telemetry(&telemetry);
//! let shard2 = router.submit(TxId(2), &[TxId(1)])?;
//! assert_ne!(shard2, shard1, "L2S overrides T2S under backlog");
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The borrow-style [`Placer`] API remains for callers that own their
//! own graph, and for placers that are not a [`Strategy`] — the
//! streaming baselines [`LdgPlacer`] / [`FennelPlacer`] run through
//! [`replay()`](replay::replay); [`PlacementContext`] bundles what a
//! strategy observes per decision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod durable;
mod fitness;
pub mod fleet;
mod l2s;
mod placer;
mod rebalance;
pub mod replay;
mod router;
mod strategy;
mod streaming;
mod t2s;

pub use assignment::{AssignmentStore, AssignmentView};
pub use fitness::TemporalFitness;
pub use fitness::PAPER_L2S_WEIGHT;
pub use fleet::{FleetHandle, FleetStats, RouterFleet, RouterFleetBuilder};
pub use l2s::{L2sEstimator, L2sMemo, L2sMode, ShardTelemetry};
pub use placer::{
    input_shards_into, Decision, DecisionBuf, GreedyPlacer, OptChainPlacer, OraclePlacer,
    PlacementContext, Placer, RandomPlacer, ShardId, T2sPlacer,
};
pub use rebalance::{Move, RebalancePolicy, RebalanceStats};
pub use replay::replay;
pub use router::{CheckpointStats, PlacementSession, Router, RouterBuilder, DEFAULT_TELEMETRY};
pub use strategy::{DynPlacer, Strategy};
pub use streaming::{FennelPlacer, LdgPlacer};
pub use t2s::{T2sEngine, DEFAULT_ALPHA};

// The state-lifecycle policy lives next to the graph it evicts; the
// placement layer re-exports it as part of the builder vocabulary.
pub use optchain_tan::RetentionPolicy;

// The durable-storage vocabulary, re-exported so a durable router can
// be built (and fault-injected) without naming the storage crate.
pub use optchain_storage::{
    Crashable, FailpointStorage, MemStorage, SegmentWal, SharedStorage, Storage, TailDamage,
};
