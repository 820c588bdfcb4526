//! Offline graph partitioning for the OptChain reproduction.
//!
//! The paper compares its online placement against **Metis k-way** (reference \[19\]) —
//! an offline multilevel partitioner that minimizes edge cut under a
//! balance constraint — used as an unrealistic-but-strong baseline
//! ("if we can put transactions as in Metis solution, we can minimize the
//! number of cross-TXs", Section V.A). Metis itself is not available
//! offline, so this crate implements the same multilevel family:
//!
//! 1. **Coarsening** by heavy-edge matching ([`coarsen`]) until the graph
//!    is small;
//! 2. **Initial bisection** by greedy graph growing from multiple seeds;
//! 3. **Refinement** during uncoarsening with a Fiduccia–Mattheyses-style
//!    boundary pass ([`bisect`] internals);
//! 4. **k-way** by recursive bisection with proportional target weights
//!    ([`partition_kway`]), so any `k ≥ 1` works (the paper sweeps
//!    k ∈ {4, 6, 8, 10, 12, 14, 16, 32, 64}).
//!
//! [`quality`] provides edge-cut and balance metrics, and
//! [`CsrGraph::from_tan`] converts a TaN DAG into the undirected weighted
//! graph the partitioner consumes.
//!
//! # Example
//!
//! ```
//! use optchain_partition::{partition_kway, quality, CsrGraph};
//!
//! // Two triangles joined by one edge: the natural bisection cuts it.
//! let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)];
//! let g = CsrGraph::from_edges(6, edges.iter().copied());
//! let part = partition_kway(&g, 2, 0.1, 42);
//! assert_eq!(quality::edge_cut(&g, &part), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod coarsen;
mod csr;
mod kway;
pub mod quality;

pub use bisect::bisect;
pub use coarsen::{coarsen, Coarsening};
pub use csr::CsrGraph;
pub use kway::{configured_threads, partition_kway, partition_with, PartitionConfig};
