//! optchain-server: a network-facing placement node.
//!
//! This crate turns the in-process placement engine — one
//! `optchain_core::Router`, described by a [`RouterBuilder`] and
//! owned by the server's dispatcher thread, which places every admitted
//! request inline — into a TCP service with the failure modes a shared
//! node needs to have *on purpose*:
//!
//! * **Admission control** — a bounded, fee-ordered mempool-style
//!   queue ([`AdmissionQueue`]) between the wire and the dispatcher.
//!   Capacity is counted in transactions, so the queue bounds both
//!   memory and the placement backlog behind every admitted request.
//! * **Backpressure** — a per-connection credit window: a client may
//!   have at most `credit_window` requests in flight; beyond that the
//!   server simply stops reading its socket, pushing the pressure
//!   into TCP where the kernel meters it. No unbounded buffers.
//! * **Overload shedding** — when the queue is full, new work is
//!   rejected immediately with a typed reason
//!   ([`RejectReason::QueueFull`]); during drain, with
//!   [`RejectReason::Shutdown`]; once placing has failed (a journal
//!   write error), with [`RejectReason::Failed`]. Every request
//!   receives exactly one response; nothing is silently dropped, and a
//!   failed node still drains and shuts down.
//! * **Resubmission is idempotent** — a transaction id the router's
//!   graph still holds is acked with its current shard, alone, inside a
//!   batch or from another connection; the graph's own index finds it,
//!   and the server keeps no per-id state. An id the graph has evicted
//!   (under `RetentionPolicy::WindowTxs`) is placed afresh, like a
//!   spend of an evicted output is a missing parent.
//! * **Observability** — a `/metrics`-style text exposition
//!   ([`ServerMetrics::render`]) with queue depth, admitted/shed
//!   counters and admission→ack latency quantiles.
//! * **Graceful shutdown** — [`PlacementServer::shutdown`] drains the
//!   admission queue (everything admitted is placed and acked), then
//!   flushes the router's WAL tail when it was built with
//!   `.storage(...)`, and drops the router.
//!
//! The wire format ([`protocol`]) is a 4-byte length-prefixed binary
//! framing with fixed little-endian encodings — decodable with
//! nothing but a stream of bytes, and *total*: any byte sequence
//! decodes to either a message or a typed [`protocol::DecodeError`],
//! never a panic.
//!
//! ```no_run
//! use optchain_server::{PlacementServer, RouterBuilder};
//!
//! // `router` describes the node's one router: strategy, retention,
//! // storage and its cadences (a journal it wrote before is recovered).
//! fn serve(router: RouterBuilder) -> std::io::Result<()> {
//!     let server = PlacementServer::builder()
//!         .router(router.shards(8))
//!         .bind("127.0.0.1:0")
//!         .queue_capacity(16_384)
//!         .credit_window(256)
//!         .start()?;
//!     println!("placement node on {}", server.local_addr());
//!     // ... serve ...
//!     server.shutdown(); // drain, ack everything admitted, flush the WAL
//!     Ok(())
//! }
//! ```
//!
//! The matching blocking client lives in the `optchain-client` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod protocol;
pub mod queue;
mod server;

pub use metrics::{AdmissionGauges, ServerMetrics};
pub use protocol::{DecodeError, RejectReason, Request, Response, WireTx};
pub use queue::{AdmissionQueue, Admitted, QueueFull};
pub use server::{
    PlacementServer, PlacementServerBuilder, DEFAULT_CREDIT_WINDOW, DEFAULT_QUEUE_CAPACITY,
};

// Re-exported so downstream code (the client) can name the router's
// builders without an extra direct dependency.
pub use optchain_core::{RouterBuilder, RouterFleetBuilder};
