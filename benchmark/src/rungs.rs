//! The layer ladder: each shipped layer driven alone, outside in, over a
//! prefix of the traced workload's own stream. `*_tax_*` metrics are a
//! rung minus the rung below it, so a number belongs to one layer.
//!
//! Every rung calls public functions only (README, "Public-API
//! allowlist"), one caller thread; the two-worker fleet rung reports
//! counts, not speed, because two workers and a driver timeshare two
//! cores.

use std::sync::Arc;
use std::time::Instant;

use optchain_core::{
    DecisionBuf, OptChainPlacer, PlacementContext, Placer, RetentionPolicy, Router, RouterFleet,
    ShardId, Strategy, T2sPlacer, DEFAULT_TELEMETRY,
};
use optchain_metrics::Histogram;
use optchain_server::protocol::{decode_request, encode_request};
use optchain_server::{AdmissionQueue, Request, WireTx};
use optchain_tan::TanGraph;
use optchain_utxo::Transaction;

use crate::catalog::{BATCH, K, WINDOW};
use crate::trace::count_allocs;
use crate::Metrics;

/// Chunk of the fleet's detached bulk submission, as in `perf_baseline`.
const FLEET_CHUNK: usize = 4_096;
/// Cross-sync cadence of the two-worker rung (the committed fleet arm's).
const FLEET_SYNC_INTERVAL: u64 = 50_000;

fn ns_per(seconds: f64, items: usize) -> f64 {
    seconds * 1e9 / items as f64
}

/// `TanGraph::insert_tx` alone under `retention`, advancing the
/// eviction horizon the way `Router` does. Returns the graph and ns/tx.
fn tan_insert(prefix: &[Transaction], retention: RetentionPolicy) -> (TanGraph, f64) {
    let mut tan = TanGraph::with_retention(retention);
    let window = retention.graph_window();
    let started = Instant::now();
    for tx in prefix {
        tan.insert_tx(tx);
        if let Some(w) = window {
            if tan.len() > w {
                tan.evict_before((tan.len() - w) as u32);
            }
        }
    }
    let ns = ns_per(started.elapsed().as_secs_f64(), prefix.len());
    (tan, ns)
}

/// `Router::submit_batch` in requests of [`BATCH`]: ns/tx, the slowest
/// batch, allocations, and the router for its accessors.
struct RouterRung {
    router: Router,
    ns_per_tx: f64,
    batch_max_us: f64,
    allocs: u64,
}

fn router_rung(prefix: &[Transaction], retention: RetentionPolicy) -> RouterRung {
    let mut router = Router::builder()
        .shards(K)
        .strategy(Strategy::OptChain)
        .retention(retention)
        .build();
    let mut out: Vec<ShardId> = Vec::with_capacity(BATCH);
    let mut batch_max = 0f64;
    let started = Instant::now();
    let ((), allocs) = count_allocs(|| {
        let mut last = started;
        for batch in prefix.chunks(BATCH) {
            router.submit_batch(batch, &mut out);
            let now = Instant::now();
            batch_max = batch_max.max((now - last).as_secs_f64());
            last = now;
        }
    });
    RouterRung {
        ns_per_tx: ns_per(started.elapsed().as_secs_f64(), prefix.len()),
        batch_max_us: batch_max * 1e6,
        allocs,
        router,
    }
}

/// `workers`-worker fleet over the shared stream through the zero-copy
/// detached path. Returns ns/tx and the fleet's counters.
fn fleet_rung(
    stream: &Arc<[Transaction]>,
    n: usize,
    workers: usize,
) -> (f64, optchain_core::FleetStats) {
    let fleet = RouterFleet::builder()
        .shards(K)
        .strategy(Strategy::OptChain)
        .workers(workers)
        .partitioner(|client| client as usize)
        .sync_interval(FLEET_SYNC_INTERVAL)
        .retention(RetentionPolicy::WindowTxs(WINDOW))
        .build();
    let handles: Vec<_> = (0..workers as u64).map(|c| fleet.handle(c)).collect();
    let started = Instant::now();
    for (i, start) in (0..n).step_by(FLEET_CHUNK).enumerate() {
        let end = (start + FLEET_CHUNK).min(n);
        let _ = handles[i % workers].submit_batch_detached(stream, start..end);
    }
    fleet.flush();
    let placed: usize = handles.iter().map(|h| h.drain().len()).sum();
    let ns = ns_per(started.elapsed().as_secs_f64(), n);
    assert_eq!(placed, n, "the fleet rung lost placements");
    let stats = fleet.stats();
    fleet.shutdown();
    (ns, stats)
}

/// Runs every rung over the first `n` transactions of `stream` and
/// records the rung metrics (and the taxes between them) in `m`.
pub fn run(stream: &Arc<[Transaction]>, n: usize, m: &mut Metrics) {
    let prefix = &stream[..n];
    let telemetry = vec![DEFAULT_TELEMETRY; K as usize];

    // tan
    let (tan, insert_ns) = tan_insert(prefix, RetentionPolicy::Unbounded);
    m.set("tan.insert_ns_per_tx", insert_ns);
    m.set("tan.edges_per_tx", tan.edge_count() as f64 / n as f64);
    m.set(
        "tan.arena_bytes_per_live_tx",
        tan.arena_bytes() as f64 / tan.live_len() as f64,
    );
    let (mut windowed_tan, window_ns) = tan_insert(prefix, RetentionPolicy::WindowTxs(WINDOW));
    m.set("tan.insert_window_ns_per_tx", window_ns);
    let started = Instant::now();
    windowed_tan.compact();
    m.set("tan.compact_ms", started.elapsed().as_secs_f64() * 1e3);
    drop(windowed_tan);
    let (_, hubs_ns) = tan_insert(
        prefix,
        RetentionPolicy::KeepUnspentAndHubs { min_degree: 8 },
    );
    m.set("tan.insert_hubs_ns_per_tx", hubs_ns);

    // core.t2s / core.placer: decisions over the prebuilt graph.
    let mut t2s = T2sPlacer::new(K);
    let started = Instant::now();
    for node in tan.nodes() {
        let ctx = PlacementContext::with_epoch(&tan, &telemetry, 0);
        std::hint::black_box(t2s.place(&ctx, node));
    }
    m.set(
        "core.t2s.place_ns_per_tx",
        ns_per(started.elapsed().as_secs_f64(), n),
    );
    drop(t2s);
    let mut placer = OptChainPlacer::new(K);
    let mut buf = DecisionBuf::new();
    let started = Instant::now();
    let ((), allocs) = count_allocs(|| {
        for node in tan.nodes() {
            let ctx = PlacementContext::with_epoch(&tan, &telemetry, 0);
            std::hint::black_box(placer.place_into(&ctx, node, &mut buf));
        }
    });
    let decide_ns = ns_per(started.elapsed().as_secs_f64(), n);
    m.set("core.placer.decide_ns_per_tx", decide_ns);
    m.set("core.placer.allocs_per_tx", allocs as f64 / n as f64);
    drop((placer, tan));

    // core.router
    let unbounded = router_rung(prefix, RetentionPolicy::Unbounded);
    m.set("core.router.submit_ns_per_tx", unbounded.ns_per_tx);
    m.set(
        "core.router.tax_ns_per_tx",
        unbounded.ns_per_tx - insert_ns - decide_ns,
    );
    m.set(
        "core.router.allocs_per_tx",
        unbounded.allocs as f64 / n as f64,
    );
    m.set("core.router.batch_max_us", unbounded.batch_max_us);
    let assignments = unbounded.router.assignments();
    m.set(
        "core.router.assign_bytes_per_live_tx",
        assignments.state_bytes() as f64 / assignments.live_len() as f64,
    );
    drop(unbounded);
    let windowed = router_rung(prefix, RetentionPolicy::WindowTxs(WINDOW));
    m.set(
        "core.router.window_tax_ns_per_tx",
        windowed.ns_per_tx - m.get("core.router.submit_ns_per_tx"),
    );
    let windowed_ns = windowed.ns_per_tx;
    drop(windowed);

    // core.fleet
    let (w1_ns, _) = fleet_rung(stream, n, 1);
    m.set("core.fleet.w1_ns_per_tx", w1_ns);
    m.set("core.fleet.w1_tax_ns_per_tx", w1_ns - windowed_ns);
    let (w2_ns, w2) = fleet_rung(stream, n, 2);
    m.set("core.fleet.w2_ns_per_tx", w2_ns);
    m.set("core.fleet.w2_sync_rounds", w2.sync_rounds as f64);
    m.set(
        "core.fleet.w2_missing_parent_refs",
        w2.missing_parent_refs as f64,
    );
    m.set(
        "core.fleet.w2_cross_ratio",
        w2.cross_placed as f64 / w2.placed as f64,
    );

    // server.protocol: the frames one `Client::send_batch` per request makes.
    let requests: Vec<Request> = prefix
        .chunks(BATCH)
        .enumerate()
        .map(|(i, batch)| Request::SubmitBatch {
            req_id: i as u64 + 1,
            fee: 1,
            txs: batch
                .iter()
                .map(|tx| WireTx {
                    txid: tx.id(),
                    inputs: tx.input_txids(),
                })
                .collect(),
        })
        .collect();
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let mut payload = Vec::new();
    let started = Instant::now();
    for request in &requests {
        encode_request(request, &mut payload);
        std::hint::black_box(&payload);
    }
    m.set(
        "server.protocol.encode_ns_per_tx",
        ns_per(started.elapsed().as_secs_f64(), n),
    );
    for request in &requests {
        encode_request(request, &mut payload);
        payloads.push(payload.clone());
    }
    // 4 bytes of length prefix per frame.
    let wire_bytes: usize = payloads.iter().map(|p| p.len() + 4).sum();
    m.set(
        "server.protocol.wire_bytes_per_tx",
        wire_bytes as f64 / n as f64,
    );
    let started = Instant::now();
    for payload in &payloads {
        std::hint::black_box(decode_request(payload).expect("decode what encode wrote"));
    }
    m.set(
        "server.protocol.decode_ns_per_tx",
        ns_per(started.elapsed().as_secs_f64(), n),
    );
    drop((requests, payloads));

    // server.queue: one try_push + one pop, at the depth a full credit
    // window of equal-fee batches holds.
    let mut queue: AdmissionQueue<u32> = AdmissionQueue::new(16_384);
    const ROUNDS: usize = 2_000;
    const DEPTH: usize = 256;
    let started = Instant::now();
    for round in 0..ROUNDS {
        for i in 0..DEPTH {
            queue
                .try_push(1, BATCH, (round * DEPTH + i) as u32)
                .expect("256 batches of 64 fit a 16384-tx queue");
        }
        for _ in 0..DEPTH {
            std::hint::black_box(queue.pop());
        }
    }
    m.set(
        "server.queue.push_pop_ns",
        ns_per(started.elapsed().as_secs_f64(), ROUNDS * DEPTH),
    );

    // metrics: Histogram::record on latency-like microsecond values
    // (the server takes a mutex around this on the ack path).
    let mut hist = Histogram::new();
    const RECORDS: usize = 1_000_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let started = Instant::now();
    for _ in 0..RECORDS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        hist.record(100 + (x >> 33) % 20_000);
    }
    std::hint::black_box(hist.total());
    m.set(
        "metrics.hist_record_ns",
        ns_per(started.elapsed().as_secs_f64(), RECORDS),
    );
}
