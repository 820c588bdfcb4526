//! Server-side counters and latency summaries, exposed as a
//! `/metrics`-style text exposition over the wire protocol's
//! `Metrics` request.
//!
//! Counters are lock-free atomics bumped on the admission and ack
//! paths; the latency histogram (microseconds from admission to ack,
//! an [`optchain_metrics::Histogram`]) sits behind a mutex touched
//! once per ack — diagnostics cost, not hot-path cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use optchain_core::RebalanceStats;
use optchain_metrics::Histogram;

use crate::protocol::RejectReason;

/// Placement-engine counters the dispatcher copies from its router
/// before every ack (O(1) reads, so never stale).
#[derive(Debug, Default, Clone, Copy)]
struct RouterCounters {
    /// Transactions the router has placed.
    placed: u64,
    /// Placements whose inputs resolved to another shard.
    cross_placed: u64,
    /// Rebalancer counters (all zero without a rebalancer).
    rebalance: RebalanceStats,
}

/// The gauges the admission path owns, read under its mutex and handed
/// to [`ServerMetrics::render`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionGauges {
    /// Transactions waiting in the admission queue.
    pub queue_depth: usize,
    /// The queue's capacity in transactions.
    pub queue_capacity: usize,
}

/// Aggregate server counters. All methods are `&self`; the struct is
/// shared via `Arc` between the acceptor, readers, and the dispatcher.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Transactions admitted into the queue (batch counts its length).
    admitted: AtomicU64,
    /// Transactions placed and acknowledged.
    acked: AtomicU64,
    /// Requests shed, by reason (indexed by `RejectReason as u8 - 1`;
    /// the slot of retired byte 5 stays zero).
    shed: [AtomicU64; 6],
    /// Connections accepted over the server's lifetime.
    connections_opened: AtomicU64,
    /// Connections torn down.
    connections_closed: AtomicU64,
    /// Acks that found their connection already gone (the client
    /// disconnected between admission and placement — the placement
    /// still happened and is queryable, only the notification had no
    /// reader).
    acks_to_closed_conns: AtomicU64,
    /// Admission→ack latency of acknowledged transactions, in
    /// microseconds.
    latency_usec: Mutex<Histogram>,
    /// Acks per shard (index = shard id); sized once at server start.
    per_shard_acked: OnceLock<Vec<AtomicU64>>,
    /// The router's counters as of the last ack (see [`RouterCounters`]).
    router: Mutex<RouterCounters>,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn on_admitted(&self, txs: u64) {
        self.admitted.fetch_add(txs, Ordering::Relaxed);
    }

    pub(crate) fn on_acked(&self, txs: u64, latency_usec: u64) {
        self.acked.fetch_add(txs, Ordering::Relaxed);
        self.latency_usec
            .lock()
            .expect("metrics mutex")
            .record(latency_usec);
    }

    pub(crate) fn on_shed(&self, reason: RejectReason, requests: u64) {
        self.shed[reason as usize - 1].fetch_add(requests, Ordering::Relaxed);
    }

    pub(crate) fn on_connection_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_ack_to_closed_conn(&self) {
        self.acks_to_closed_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// Sizes the per-shard ack counters. Called once by the server
    /// before the dispatcher starts; later calls are no-ops.
    pub(crate) fn init_shards(&self, k: u32) {
        let _ = self
            .per_shard_acked
            .set((0..k).map(|_| AtomicU64::new(0)).collect());
    }

    pub(crate) fn on_placed_to(&self, shard: u32) {
        if let Some(counters) = self.per_shard_acked.get() {
            if let Some(counter) = counters.get(shard as usize) {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn record_fleet(&self, placed: u64, cross_placed: u64, rebalance: RebalanceStats) {
        *self.router.lock().expect("metrics mutex") = RouterCounters {
            placed,
            cross_placed,
            rebalance,
        };
    }

    /// Transactions admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Transactions placed and acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// Requests shed with the given reason so far.
    pub fn shed(&self, reason: RejectReason) -> u64 {
        self.shed[reason as usize - 1].load(Ordering::Relaxed)
    }

    /// Requests shed across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Admission→ack latency quantile in microseconds (`None` before
    /// the first ack).
    pub fn latency_usec_quantile(&self, q: f64) -> Option<u64> {
        self.latency_usec.lock().expect("metrics mutex").quantile(q)
    }

    /// Acked placements per shard (empty before the server sizes the
    /// counters).
    pub fn per_shard_acked(&self) -> Vec<u64> {
        self.per_shard_acked
            .get()
            .map(|counters| counters.iter().map(|c| c.load(Ordering::Relaxed)).collect())
            .unwrap_or_default()
    }

    /// Cross-shard placements, as of the last ack.
    pub fn cross_placed(&self) -> u64 {
        self.router.lock().expect("metrics mutex").cross_placed
    }

    /// Cross-shard fraction of placed transactions, as of the last ack
    /// (`0` before any placement).
    pub fn cross_ratio(&self) -> f64 {
        let snap = *self.router.lock().expect("metrics mutex");
        if snap.placed == 0 {
            0.0
        } else {
            snap.cross_placed as f64 / snap.placed as f64
        }
    }

    /// Rebalancer counters as of the last ack (all zero without a
    /// rebalancer).
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.router.lock().expect("metrics mutex").rebalance
    }

    /// Renders the text exposition. The `gauges` are owned by the
    /// admission path and passed in by the server.
    pub fn render(&self, gauges: AdmissionGauges) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "optchain_queue_depth {}", gauges.queue_depth);
        let _ = writeln!(out, "optchain_queue_capacity {}", gauges.queue_capacity);
        let _ = writeln!(out, "optchain_admitted_total {}", self.admitted());
        let _ = writeln!(out, "optchain_acked_total {}", self.acked());
        for reason in [
            RejectReason::QueueFull,
            RejectReason::TooLarge,
            RejectReason::Shutdown,
            RejectReason::Malformed,
            RejectReason::Failed,
        ] {
            let _ = writeln!(
                out,
                "optchain_shed_total{{reason=\"{}\"}} {}",
                reason.label(),
                self.shed(reason)
            );
        }
        let _ = writeln!(
            out,
            "optchain_connections_opened_total {}",
            self.connections_opened.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "optchain_connections_closed_total {}",
            self.connections_closed.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "optchain_acks_to_closed_conns_total {}",
            self.acks_to_closed_conns.load(Ordering::Relaxed)
        );
        for (shard, acked) in self.per_shard_acked().iter().enumerate() {
            let _ = writeln!(
                out,
                "optchain_shard_acked_total{{shard=\"{shard}\"}} {acked}"
            );
        }
        let snap = *self.router.lock().expect("metrics mutex");
        let cross_ratio = if snap.placed == 0 {
            0.0
        } else {
            snap.cross_placed as f64 / snap.placed as f64
        };
        let _ = writeln!(out, "optchain_cross_placed_total {}", snap.cross_placed);
        let _ = writeln!(out, "optchain_cross_ratio {cross_ratio:.6}");
        let _ = writeln!(
            out,
            "optchain_rebalance_epochs_committed_total {}",
            snap.rebalance.epochs_committed
        );
        let _ = writeln!(
            out,
            "optchain_rebalance_nodes_moved_total {}",
            snap.rebalance.nodes_moved
        );
        let _ = writeln!(
            out,
            "optchain_rebalance_bytes_migrated_total {}",
            snap.rebalance.bytes_migrated
        );
        let hist = self.latency_usec.lock().expect("metrics mutex");
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("1.0", 1.0)] {
            let _ = writeln!(
                out,
                "optchain_latency_usec{{quantile=\"{label}\"}} {}",
                hist.quantile(q).unwrap_or(0)
            );
        }
        let _ = writeln!(out, "optchain_latency_samples_total {}", hist.total());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_rendering() {
        let m = ServerMetrics::new();
        m.init_shards(2);
        m.on_admitted(10);
        m.on_acked(10, 250);
        for _ in 0..7 {
            m.on_placed_to(0);
        }
        for _ in 0..3 {
            m.on_placed_to(1);
        }
        m.record_fleet(
            10,
            4,
            RebalanceStats {
                epochs_opened: 2,
                epochs_committed: 1,
                nodes_moved: 5,
                bytes_migrated: 640,
                moves_dropped: 0,
            },
        );
        m.on_shed(RejectReason::QueueFull, 3);
        m.on_shed(RejectReason::Shutdown, 1);
        m.on_connection_opened();
        assert_eq!(m.admitted(), 10);
        assert_eq!(m.acked(), 10);
        assert_eq!(m.shed(RejectReason::QueueFull), 3);
        assert_eq!(m.shed_total(), 4);
        assert_eq!(m.latency_usec_quantile(0.5), Some(250));
        let text = m.render(AdmissionGauges {
            queue_depth: 7,
            queue_capacity: 64,
        });
        assert!(text.contains("optchain_queue_depth 7"));
        assert!(text.contains("optchain_queue_capacity 64"));
        assert!(text.contains("optchain_admitted_total 10"));
        assert!(text.contains("optchain_shed_total{reason=\"queue_full\"} 3"));
        assert!(text.contains("optchain_latency_usec{quantile=\"0.99\"} 250"));
        assert_eq!(m.per_shard_acked(), vec![7, 3]);
        assert!(text.contains("optchain_shard_acked_total{shard=\"0\"} 7"));
        assert!(text.contains("optchain_shard_acked_total{shard=\"1\"} 3"));
        assert!(text.contains("optchain_cross_placed_total 4"));
        assert!(text.contains("optchain_cross_ratio 0.400000"));
        assert!(text.contains("optchain_rebalance_epochs_committed_total 1"));
        assert!(text.contains("optchain_rebalance_nodes_moved_total 5"));
        assert!(text.contains("optchain_rebalance_bytes_migrated_total 640"));
        assert!((m.cross_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(m.rebalance_stats().nodes_moved, 5);
    }

    #[test]
    fn uninitialized_shards_render_no_shard_lines_but_zero_gauges() {
        let m = ServerMetrics::new();
        let text = m.render(AdmissionGauges::default());
        assert!(!text.contains("optchain_shard_acked_total"));
        assert!(text.contains("optchain_cross_placed_total 0"));
        assert!(text.contains("optchain_cross_ratio 0.000000"));
        assert!(text.contains("optchain_rebalance_epochs_committed_total 0"));
    }
}
