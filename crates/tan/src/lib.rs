//! The Transactions-as-Nodes (TaN) network of the OptChain paper.
//!
//! > *"A TaN network of a set of transactions is presented as a directed
//! > graph G = (V, E) where V is the set of transactions and E is a set of
//! > directed edges in which there exists (u, v) ∈ E if the transaction u
//! > uses the UTXO(s) of transaction v."* — Definition 1, Section IV.A.
//!
//! The TaN network is an **online DAG**: nodes arrive one by one, and a
//! node's edges always point to earlier nodes (a transaction only spends
//! outputs of past transactions), so insertion order is a topological
//! order. [`TanGraph`] maintains both edge directions:
//!
//! * `inputs(u)` — the transactions whose outputs `u` spends (the paper's
//!   `Nin(u)`, the heads of `u`'s outgoing edges);
//! * `spenders(v)` — the transactions spending `v`'s outputs (the paper's
//!   `Nout(v)`, the tails of `v`'s incoming edges).
//!
//! [`stats`] computes the Fig 2 statistics: degree distributions,
//! cumulative distributions, and the average degree over time.
//!
//! For streaming deployments the graph is **evictable**: a
//! [`RetentionPolicy`] plus [`TanGraph::evict_before`] bound memory to
//! the recent window (and, optionally, retained unspent/hub survivors)
//! while node ids stay stable — see the [`graph`](TanGraph) docs.
//! Per-node state kept outside the graph (shard assignments, score
//! rows) ages by the same rule in a [`WindowedRows`].
//!
//! # Example
//!
//! ```
//! use optchain_tan::TanGraph;
//! use optchain_utxo::TxId;
//!
//! let mut tan = TanGraph::new();
//! let a = tan.insert(TxId(0), &[]); // coinbase: no outgoing edges
//! let b = tan.insert(TxId(1), &[TxId(0)]);
//! assert_eq!(tan.inputs(b), &[a]);
//! assert_eq!(tan.spenders(a).collect::<Vec<_>>(), &[b]);
//! assert_eq!(tan.edge_count(), 1);
//! ```
//!
//! # Storage
//!
//! Adjacency is flattened for the placement hot path: inputs live in one
//! CSR-style contiguous pool (immutable per node), a node's first two
//! spenders in its own row and the rest in an append-friendly chunk
//! arena, and the `TxId → NodeId` index is the 8-byte-slot
//! [`TxIndex`] from [`index`]. See PERF.md for the layout rationale and
//! measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod hash;
pub mod index;
mod retain;
mod spenders;
pub mod stats;

pub use graph::{NodeId, TanGraph};
pub use index::TxIndex;
pub use retain::{Cell, RetentionPolicy, WindowedRows};
pub use spenders::Spenders;
