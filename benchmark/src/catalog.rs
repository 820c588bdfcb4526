//! The names every later issue cites: workloads, end-to-end metrics and
//! per-layer metrics, with units and directions. `BENCHMARK.json` is
//! printed from these tables (`run.sh --catalog`), and a run refuses to
//! report unless it produced every metric listed here, so the manifest
//! and the program cannot drift apart.

use crate::node::Kind;
use crate::Better::{self, Higher, Lower};

/// Shards placed over (`k`).
pub const K: u32 = 16;
/// Transactions per request (the `loadgen --batch` default).
pub const BATCH: usize = 64;
/// `RetentionPolicy::WindowTxs` size of the windowed workloads.
pub const WINDOW: usize = 100_000;
/// `--seconds` when the flag is absent, and `run_seconds` in the manifest.
pub const RUN_SECONDS: u64 = 16;
/// Seed of the committed `BENCH_*.json` files.
pub const DEFAULT_SEED: u64 = 0xB17C04;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Offered load of the `paced` phase, transactions per second.
    pub rate_tps: f64,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "embed_unbounded",
        kind: Kind::EmbedUnbounded,
        rate_tps: 150_000.0,
        why: "In-process Router, unbounded state, static telemetry: only tan+core work, \
              ~340 MiB of node state. A storage or protocol change must not move it.",
    },
    Workload {
        name: "durable_window",
        kind: Kind::DurableWindow,
        rate_tps: 150_000.0,
        why: "In-process Router on a SegmentWal, 100k-tx window: journal encode, fsync \
              batches, full/delta checkpoints and GC over cache-resident state; ends with \
              drop and recover.",
    },
    Workload {
        name: "service_loopback",
        kind: Kind::ServiceLoopback,
        rate_tps: 100_000.0,
        why: "PlacementServer over a 1-worker fleet, one Client on 127.0.0.1: protocol \
              codec, admission queue, dispatcher and fleet hand-off are the marginal work; \
              storage does nothing.",
    },
    Workload {
        name: "hotspot_feedback",
        kind: Kind::HotspotFeedback,
        rate_tps: 150_000.0,
        why: "Hot-spot, spam-sweep and flash-crowd stream, telemetry fed back every 2048 \
              txs, hub retention, rebalancer: 40-input sweeps, hub adjacency, L2S memo \
              invalidation.",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry `0.0`).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("placed_tps", "tx/s", Higher, 0.25),
    e2e("ack_p50_us", "us", Lower, 0.25),
    e2e("cross_ratio", "fraction", Lower, 0.06),
    e2e("shard_imbalance", "ratio", Lower, 0.25),
    e2e("node_rss_mib", "MiB", Lower, 0.25),
];

/// Measured by the traced run only. A metric whose layer the workload
/// does not exercise reads 0 there (README, "Reading a traced run").
pub const PER_LAYER: [MetricDef; 69] = [
    layer("workload.gen_ns_per_tx", "ns/tx", Lower),
    // tan
    layer("tan.insert_ns_per_tx", "ns/tx", Lower),
    layer("tan.insert_window_ns_per_tx", "ns/tx", Lower),
    layer("tan.insert_hubs_ns_per_tx", "ns/tx", Lower),
    layer("tan.edges_per_tx", "count", Lower),
    layer("tan.arena_bytes_per_live_tx", "B/tx", Lower),
    layer("tan.compact_ms", "ms", Lower),
    // core.t2s / core.placer / core.l2s
    layer("core.t2s.place_ns_per_tx", "ns/tx", Lower),
    layer("core.placer.decide_ns_per_tx", "ns/tx", Lower),
    layer("core.placer.allocs_per_tx", "count", Lower),
    layer("core.l2s.memo_hit_ratio", "fraction", Higher),
    layer("core.l2s.feed_us_per_call", "us", Lower),
    // core.router
    layer("core.router.submit_ns_per_tx", "ns/tx", Lower),
    layer("core.router.tax_ns_per_tx", "ns/tx", Lower),
    layer("core.router.window_tax_ns_per_tx", "ns/tx", Lower),
    layer("core.router.allocs_per_tx", "count", Lower),
    layer("core.router.batch_max_us", "us", Lower),
    layer("core.router.assign_bytes_per_live_tx", "B/tx", Lower),
    // core.durable
    layer("core.durable.submit_ns_per_tx", "ns/tx", Lower),
    layer("core.durable.self_ns_per_tx", "ns/tx", Lower),
    layer("core.durable.stall_ms_max", "ms", Lower),
    layer("core.durable.checkpoint_now_ms", "ms", Lower),
    layer("core.durable.recover_records_per_s", "1/s", Higher),
    layer("core.durable.recover_tail_records", "count", Lower),
    layer("core.durable.recovery_s", "s", Lower),
    // storage
    layer("storage.append_count", "count", Lower),
    layer("storage.append_ns_per_record", "ns", Lower),
    layer("storage.append_bytes_per_tx", "B/tx", Lower),
    layer("storage.flush_count", "count", Lower),
    layer("storage.flush_ms_p50", "ms", Lower),
    layer("storage.flush_ms_max", "ms", Lower),
    layer("storage.ckpt_full_count", "count", Lower),
    layer("storage.ckpt_delta_count", "count", Lower),
    layer("storage.ckpt_bytes_per_tx", "B/tx", Lower),
    layer("storage.ckpt_put_ms_max", "ms", Lower),
    layer("storage.gc_bytes_per_tx", "B/tx", Higher),
    layer("storage.bytes_written_per_tx", "B/tx", Lower),
    layer("storage.busy_share", "fraction", Lower),
    layer("storage.disk_peak_mib", "MiB", Lower),
    // core.fleet
    layer("core.fleet.w1_ns_per_tx", "ns/tx", Lower),
    layer("core.fleet.w1_tax_ns_per_tx", "ns/tx", Lower),
    layer("core.fleet.w2_ns_per_tx", "ns/tx", Lower),
    layer("core.fleet.w2_sync_rounds", "count", Lower),
    layer("core.fleet.w2_missing_parent_refs", "count", Lower),
    layer("core.fleet.w2_cross_ratio", "fraction", Lower),
    // core.rebalance
    layer("core.rebalance.epochs_committed", "count", Lower),
    layer("core.rebalance.nodes_moved", "count", Lower),
    layer("core.rebalance.bytes_migrated", "B", Lower),
    layer("core.rebalance.moves_dropped", "count", Lower),
    layer("core.rebalance.tax_ns_per_tx", "ns/tx", Lower),
    // server / client / metrics
    layer("server.protocol.encode_ns_per_tx", "ns/tx", Lower),
    layer("server.protocol.decode_ns_per_tx", "ns/tx", Lower),
    layer("server.protocol.wire_bytes_per_tx", "B/tx", Lower),
    layer("server.queue.push_pop_ns", "ns", Lower),
    layer("server.admit_to_ack_p50_us", "us", Lower),
    layer("server.admit_to_ack_p99_us", "us", Lower),
    layer("server.queue_depth_max", "count", Lower),
    layer("server.shed_total", "count", Lower),
    layer("server.tax_ns_per_tx", "ns/tx", Lower),
    layer("client.send_ns_per_batch", "ns", Lower),
    layer("client.recv_wait_share", "fraction", Lower),
    layer("metrics.hist_record_ns", "ns", Lower),
    // driver: the harness checking itself
    layer("driver.sched_lag_p99_us", "us", Lower),
    layer("driver.ack_p99_us", "us", Lower),
    layer("driver.ack_p999_us", "us", Lower),
    layer("driver.p99_us_at_half_rate", "us", Lower),
    layer("driver.p99_us_at_double_rate", "us", Lower),
    layer("driver.slo_rate_tps", "tx/s", Higher),
    layer("driver.trace_overhead_pct", "%", Lower),
];

/// `BENCHMARK.json`, exactly the keys the manifest contract names.
pub fn manifest_json() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert!(why.len() <= 200, "why of {} exceeds 200 characters", w.name);
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{why}\"}}{comma}",
            w.name
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}
