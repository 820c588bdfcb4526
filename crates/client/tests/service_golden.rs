//! End-to-end service tests: the TCP placement node must behave
//! exactly like the in-process engine it fronts — same placements,
//! typed shedding under overload, zero lost acks through drain and
//! across a WAL-backed restart.

use std::time::{Duration, Instant};

use optchain_client::{Client, ClientError, Event, RejectReason};
use optchain_core::{
    FailpointStorage, MemStorage, RetentionPolicy, Router, SegmentWal, SharedStorage, Storage,
    TailDamage,
};
use optchain_server::PlacementServer;
use optchain_utxo::TxId;
use optchain_workload::{generate, WorkloadConfig};

fn workload(n: usize, seed: u64) -> Vec<(TxId, Vec<TxId>)> {
    generate(WorkloadConfig::small().with_seed(seed), n)
        .into_iter()
        .map(|tx| (tx.id(), tx.input_txids()))
        .collect()
}

/// A unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("optchain-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One connection at a flat fee observes strict submission order, so
/// the node must place the stream bit-identically to a bare Router.
#[test]
fn single_connection_placements_match_router() {
    let txs = workload(2_000, 7);
    let server = PlacementServer::builder()
        .router(Router::builder().shards(8))
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.shards(), 8);

    let mut router = Router::builder().shards(8).build();
    for (txid, inputs) in &txs {
        let via_wire = client.submit(1, *txid, inputs).expect("placed");
        let direct = router.submit(*txid, inputs).unwrap();
        assert_eq!(via_wire, direct.0, "divergence at {txid:?}");
    }

    // And the node can answer where everything went.
    for (txid, _) in txs.iter().rev().take(50) {
        let shard = client.query(*txid).expect("query");
        assert_eq!(shard, router.shard_of(*txid).map(|s| s.0));
    }
    server.shutdown();
}

/// Batch submission is the same placements as singles, acked in order
/// — whether a chunk crosses the wire as one `SubmitBatch` frame or as
/// pipelined single `Submit` frames.
#[test]
fn batch_placements_match_singles() {
    let txs = workload(600, 21);
    for as_batch_frames in [true, false] {
        let server = PlacementServer::builder()
            .router(Router::builder().shards(4))
            .start()
            .expect("start server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let mut router = Router::builder().shards(4).build();

        for chunk in txs.chunks(64) {
            let shards = if as_batch_frames {
                client.submit_batch(1, chunk).expect("batch placed")
            } else {
                let mut by_req = std::collections::HashMap::new();
                let req_ids: Vec<u64> = chunk
                    .iter()
                    .map(|(txid, inputs)| client.send_submit(1, *txid, inputs).expect("send"))
                    .collect();
                client.flush().expect("flush");
                for _ in chunk {
                    match client.recv_event().expect("event") {
                        Event::Ack { req_id, shard } => {
                            by_req.insert(req_id, shard);
                        }
                        other => panic!("unexpected event {other:?}"),
                    }
                }
                req_ids.iter().map(|id| by_req[id]).collect()
            };
            assert_eq!(shards.len(), chunk.len());
            for ((txid, inputs), shard) in chunk.iter().zip(shards) {
                assert_eq!(shard, router.submit(*txid, inputs).unwrap().0);
            }
        }
        server.shutdown();
    }
}

/// The dispatcher places each `SubmitBatch` frame whole, whichever
/// connection sent it: two connections alternating 64-tx frames that
/// spend each other's outputs must be acked exactly the shards one
/// `Router` yields from the same transactions in the same order.
#[test]
fn batch_frames_from_two_connections_ack_like_one_router() {
    const FRAME: u64 = 64;
    const ROUNDS: u64 = 6;
    // Round r: connection 0 spends what connection 1 placed in round
    // r - 1, then connection 1 spends what connection 0 just placed.
    let frame = |round: u64, conn: u64| -> Vec<(TxId, Vec<TxId>)> {
        (0..FRAME)
            .map(|i| {
                let id = (2 * round + conn) * FRAME + i;
                let parent = id.checked_sub(FRAME).map(TxId);
                (TxId(id), parent.into_iter().collect())
            })
            .collect()
    };

    let mut router = Router::builder().shards(4).build();
    let server = PlacementServer::builder()
        .router(Router::builder().shards(4))
        .start()
        .expect("start server");
    // Connection ids are assigned in accept order, and `connect`
    // returns only after the hello: clients[c] is connection c.
    let mut clients = [
        Client::connect(server.local_addr()).expect("connect"),
        Client::connect(server.local_addr()).expect("connect"),
    ];
    for round in 0..ROUNDS {
        for conn in 0..2u64 {
            let txs = frame(round, conn);
            let served = clients[conn as usize]
                .submit_batch(1, &txs)
                .expect("batch placed");
            let expected: Vec<u32> = txs
                .iter()
                .map(|(txid, inputs)| router.submit(*txid, inputs).unwrap().0)
                .collect();
            assert_eq!(served, expected, "round {round} connection {conn}");
        }
    }
    server.shutdown();
}

/// Driving the node at 2x its (throttled) capacity must shed with
/// typed `QueueFull` rejections, keep admitted-request latency within
/// the queue-derived bound and answer every request exactly once.
#[test]
fn overload_sheds_typed_with_bounded_latency_and_zero_lost_acks() {
    const RATE: u64 = 2_000; // placements/sec, dispatcher-throttled
    const QUEUE: usize = 64;
    const N: u64 = 1_000;

    let router = Router::builder()
        .shards(4)
        .retention(RetentionPolicy::WindowTxs(16));
    let server = PlacementServer::builder()
        .router(router)
        .queue_capacity(QUEUE)
        .credit_window(1_024) // wider than N: shedding, not stalling
        .max_placements_per_sec(RATE)
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Offer N submissions on a 2 x RATE schedule, then collect every
    // response.
    let txs = workload(N as usize, 33);
    let started = Instant::now();
    let mut req_ids = Vec::with_capacity(txs.len());
    for (i, (txid, inputs)) in txs.iter().enumerate() {
        let due = Duration::from_secs_f64(i as f64 / (2 * RATE) as f64);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            client.flush().expect("flush");
            std::thread::sleep(wait);
        }
        req_ids.push(client.send_submit(1, *txid, inputs).expect("send"));
    }
    client.flush().expect("flush");

    let mut acks = 0u64;
    let mut queue_full = 0u64;
    let mut answered = std::collections::HashSet::new();
    for _ in 0..N {
        match client.recv_event().expect("event") {
            Event::Ack { req_id, .. } => {
                acks += 1;
                assert!(answered.insert(req_id), "double answer for {req_id}");
            }
            Event::Reject { req_id, reason } => {
                assert_eq!(reason, RejectReason::QueueFull, "unexpected shed reason");
                queue_full += 1;
                assert!(answered.insert(req_id), "double answer for {req_id}");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    let elapsed = started.elapsed();

    // Exactly one answer per request: zero lost acks, zero silent drops.
    assert_eq!(acks + queue_full, N);
    assert!(
        req_ids.iter().all(|id| answered.contains(id)),
        "every request answered"
    );
    // Genuine overload: a meaningful fraction was shed.
    assert!(queue_full > 0, "expected shedding at 2x overload");
    let m = server.metrics();
    assert_eq!(m.acked(), acks, "server acked counter agrees");
    assert_eq!(m.shed(RejectReason::QueueFull), queue_full);
    assert_eq!(m.admitted(), acks, "admitted implies acked");

    // Bounded latency for admitted work: the queue holds at most
    // QUEUE txs placed at RATE/sec, so admission->ack p99 is ~
    // QUEUE/RATE (32ms); allow a generous scheduling margin.
    let p99 = m.latency_usec_quantile(0.99).expect("latency recorded");
    let bound_usec = (QUEUE as u64 * 1_000_000 / RATE) * 8 + 200_000;
    assert!(
        p99 <= bound_usec,
        "admitted p99 {p99}us exceeds bound {bound_usec}us"
    );
    // Sanity: the run itself terminated promptly (shedding, not queuing).
    assert!(elapsed < Duration::from_secs(30));
    server.shutdown();
}

/// After `begin_shutdown`, new work sheds with `Shutdown` while
/// everything already admitted still places and acks; after
/// `shutdown`, the socket reports a clean close.
#[test]
fn drain_sheds_new_work_and_acks_admitted_work() {
    let txs = workload(200, 5);
    let server = PlacementServer::builder()
        .router(Router::builder().shards(4))
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Synchronous submits: each ack proves admission + placement.
    for (txid, inputs) in &txs[..100] {
        client.submit(1, *txid, inputs).expect("placed");
    }

    server.begin_shutdown();

    let (txid, inputs) = &txs[100];
    match client.submit(1, *txid, inputs) {
        Err(ClientError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Shutdown)
        }
        other => panic!("expected Shutdown rejection, got {other:?}"),
    }
    // Queries are shed during drain too — the node is going away.
    match client.query(txs[0].0) {
        Err(ClientError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Shutdown)
        }
        other => panic!("expected Shutdown rejection, got {other:?}"),
    }

    server.shutdown();

    // The server closed the stream at a frame boundary.
    let mut c = client;
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match c.recv_event() {
        Err(ClientError::ServerClosed) | Err(ClientError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
}

/// A node built over `.storage(...)` journals every placement before
/// acking: after a full stop and a rebuild from the same directories,
/// every previously acked placement must still be queryable — zero
/// lost acks across the restart.
#[test]
fn wal_backed_restart_preserves_every_acked_placement() {
    let dir = scratch_dir("wal-restart");
    let txs = workload(400, 11);
    let storage = |dir: &std::path::Path| -> Box<dyn Storage> {
        Box::new(SegmentWal::open(dir).expect("open wal"))
    };

    let mut placed: Vec<(TxId, u32)> = Vec::with_capacity(txs.len());
    {
        let server = PlacementServer::builder()
            .router(Router::builder().shards(4).storage(storage(&dir)))
            .start()
            .expect("start server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (txid, inputs) in &txs {
            let shard = client.submit(1, *txid, inputs).expect("placed");
            placed.push((*txid, shard));
        }
        // Graceful shutdown flushes each worker's WAL tail.
        server.shutdown();
    }

    let server = PlacementServer::builder()
        .router(Router::builder().shards(4).storage(storage(&dir)))
        .start()
        .expect("restart server");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    for (txid, shard) in &placed {
        let recovered = client.query(*txid).expect("query after restart");
        assert_eq!(
            recovered,
            Some(*shard),
            "{txid:?} lost or moved across restart"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable server runs on the journal cadences its router builder
/// sets: with `flush_every(16)` and `checkpoint_every(96)` (defaults
/// 512 and 32 768), 200 acked single placements leave a snapshot at
/// journal position 96 and every whole batch of 16 records durable;
/// shutdown flushes the other 8, and the journal recovers all 200.
#[test]
fn a_durable_server_runs_on_its_routers_journal_cadences() {
    let disk = SharedStorage::new(MemStorage::new());
    let server = PlacementServer::builder()
        .router(
            Router::builder()
                .shards(4)
                .flush_every(16)
                .checkpoint_every(96)
                .storage(Box::new(disk.clone())),
        )
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let txs = workload(200, 19);
    let acked: Vec<u32> = txs
        .iter()
        .map(|(txid, inputs)| client.submit(1, *txid, inputs).expect("placed"))
        .collect();
    let snapshot_at =
        |disk: &SharedStorage<MemStorage>| disk.checkpoint().unwrap().map(|(upto, _)| upto);
    // One record per single placement; the snapshot collected the
    // records below it, so the durable log ends at its position plus
    // what it holds.
    let durable_end = |disk: &SharedStorage<MemStorage>| {
        snapshot_at(disk).unwrap_or(0) + disk.with(|m| m.durable_records())
    };
    assert_eq!(disk.next_seq(), 200);
    assert_eq!(snapshot_at(&disk), Some(96));
    assert_eq!(durable_end(&disk), 192, "flushed in batches of 16");
    server.shutdown();
    assert_eq!(snapshot_at(&disk), Some(96));
    assert_eq!(durable_end(&disk), 200, "shutdown flushes the tail");

    let recovered = Router::recover(Box::new(disk)).expect("recover");
    for ((txid, _), shard) in txs.iter().zip(&acked) {
        assert_eq!(recovered.shard_of(*txid).map(|s| s.0), Some(*shard));
    }
}

/// A node over `.storage(...)` recovers its graph on restart, so an id
/// acked before the restart and resubmitted after it is acked with the
/// recovered shard — the placement thread lives on, and fresh work
/// still places.
#[test]
fn a_resubmission_after_a_durable_restart_acks_the_recovered_shard() {
    let dir = scratch_dir("resubmit-restart");
    let txs = workload(200, 13);
    let start = || {
        let wal = SegmentWal::open(&dir).expect("open wal");
        PlacementServer::builder()
            .router(Router::builder().shards(4).storage(Box::new(wal)))
            .start()
            .expect("start server")
    };
    let server = start();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let acked = client.submit_batch(1, &txs[..100]).expect("placed");
    server.shutdown();

    let server = start();
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for ((txid, inputs), shard) in txs.iter().zip(&acked).step_by(7) {
        assert_eq!(client.submit(1, *txid, inputs).expect("acked"), *shard);
    }
    let fresh = client.submit_batch(1, &txs[100..]).expect("placed");
    assert_eq!(client.query(txs[199].0).unwrap(), fresh.last().copied());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transaction id the node still holds is acked with the shard it
/// holds — resubmitted alone, repeated inside a batch, or sent again
/// from another connection — and `query` agrees. Nothing is refused.
#[test]
fn a_duplicate_is_acked_with_the_shard_it_holds() {
    let server = PlacementServer::builder()
        .router(Router::builder().shards(4))
        .start()
        .expect("start server");
    let mut a = Client::connect(server.local_addr()).expect("connect");
    let mut b = Client::connect(server.local_addr()).expect("connect");

    let held = a.submit(1, TxId(42), &[]).expect("placed");
    assert_eq!(a.submit(1, TxId(42), &[TxId(7)]).expect("acked"), held);
    let batch = [
        (TxId(50), vec![]),
        (TxId(50), vec![TxId(42)]),
        (TxId(42), vec![]),
    ];
    let shards = a.submit_batch(1, &batch).expect("acked whole");
    assert_eq!(shards, [shards[0], shards[0], held]);
    assert_eq!(b.submit(1, TxId(50), &[]).expect("acked"), shards[0]);
    for (txid, shard) in [(42, held), (50, shards[0])] {
        assert_eq!(b.query(TxId(txid)).expect("query"), Some(shard));
    }
    // The connection lives on, and nothing was shed.
    a.submit(1, TxId(43), &[TxId(42)]).expect("placed");
    assert_eq!(server.metrics().shed_total(), 0);
    server.shutdown();
}

/// What a resubmission means follows the router's retention policy: an
/// id the graph still holds is acked with the shard it holds, and under
/// `WindowTxs` an id the graph has evicted is placed afresh — the
/// answers a `Router` gives the same traffic, whichever of two
/// connections sends it.
#[test]
fn resubmission_past_the_horizon_is_a_fresh_placement() {
    const WINDOW: u64 = 16;
    let window = RetentionPolicy::WindowTxs(WINDOW as usize);
    for (policy, evicts) in [(window, true), (RetentionPolicy::Unbounded, false)] {
        let server = PlacementServer::builder()
            .router(Router::builder().shards(4).retention(policy))
            .start()
            .expect("start server");
        let mut clients = [
            Client::connect(server.local_addr()).expect("connect"),
            Client::connect(server.local_addr()).expect("connect"),
        ];
        let mut router = Router::builder().shards(4).retention(policy).build();
        // Id 0 comes back once while the graph holds it and once after
        // WINDOW later ids, each time spending the newest id.
        let ids = (0..WINDOW).chain([0]).chain(WINDOW..2 * WINDOW).chain([0]);
        let (mut fresh, mut newest) = (Vec::new(), 0);
        for (n, id) in ids.enumerate() {
            let resubmitted = n > 0 && id == 0;
            let inputs: Vec<TxId> = resubmitted.then_some(TxId(newest)).into_iter().collect();
            let served = clients[n % 2].submit(1, TxId(id), &inputs).expect("acked");
            let placed = router.submit(TxId(id), &inputs);
            if resubmitted {
                fresh.push(placed.is_ok());
            } else {
                newest = id;
            }
            let expected = placed.ok().or_else(|| router.shard_of(TxId(id)));
            assert_eq!(Some(served), expected.map(|s| s.0), "{policy:?} at {n}");
        }
        assert_eq!(fresh, [false, evicts], "{policy:?}");
        let shard = router.shard_of(TxId(0)).map(|s| s.0);
        assert_eq!(clients[1].query(TxId(0)).expect("query"), shard);
        server.shutdown();
    }
}

/// The metrics endpoint reports the counters the protocol promises.
#[test]
fn metrics_text_reports_service_counters() {
    let server = PlacementServer::builder()
        .router(Router::builder().shards(4))
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..32u64 {
        client.submit(1, TxId(1000 + i), &[]).expect("placed");
    }
    let text = client.metrics_text().expect("metrics");
    assert!(text.contains("optchain_admitted_total 32"), "{text}");
    assert!(text.contains("optchain_acked_total 32"), "{text}");
    assert!(text.contains("optchain_queue_capacity"), "{text}");
    assert!(
        text.contains("optchain_latency_usec{quantile=\"0.99\"}"),
        "{text}"
    );
    // Per-shard load: every ack was attributed to a shard, one line per
    // shard, summing to the acked total.
    let m = server.metrics();
    let per_shard = m.per_shard_acked();
    assert_eq!(per_shard.len(), 4);
    assert_eq!(per_shard.iter().sum::<u64>(), 32);
    for shard in 0..4 {
        assert!(
            text.contains(&format!("optchain_shard_acked_total{{shard=\"{shard}\"}}")),
            "{text}"
        );
    }
    // Cross-shard and rebalance counters render even without a
    // rebalancer (input-free submissions are never cross, and no
    // rebalancer means all-zero migration counters).
    assert!(text.contains("optchain_cross_placed_total 0"), "{text}");
    assert!(text.contains("optchain_cross_ratio 0.000000"), "{text}");
    assert!(
        text.contains("optchain_rebalance_epochs_committed_total 0"),
        "{text}"
    );
    assert!(
        text.contains("optchain_rebalance_nodes_moved_total 0"),
        "{text}"
    );
    assert!(
        text.contains("optchain_rebalance_bytes_migrated_total 0"),
        "{text}"
    );
    assert_eq!(
        m.rebalance_stats(),
        optchain_core::RebalanceStats::default()
    );
    // The in-process accessor renders the same exposition.
    assert!(server.metrics_text().contains("optchain_admitted_total 32"));
    // The router's counters are copied before every ack: right after
    // the last one they equal a Router twin's, with no wait.
    let mut twin = Router::builder().shards(4).build();
    for i in 0..32u64 {
        twin.submit(TxId(1000 + i), &[]).unwrap();
    }
    for chunk in workload(600, 9).chunks(64) {
        client.submit_batch(1, chunk).expect("placed");
        for (txid, inputs) in chunk {
            twin.submit(*txid, inputs).unwrap();
        }
    }
    assert!(twin.cross_placed() > 0, "the workload crosses shards");
    assert_eq!(server.metrics().cross_placed(), twin.cross_placed());
    server.shutdown();
}

/// What a server cannot open a router from is a typed error out of
/// `start`: no router at all, a rule the spec breaks, a journal written
/// by another configuration, and a journal that does not recover —
/// garbage for a meta blob, or records without one.
#[test]
fn start_reports_a_router_it_cannot_build() {
    let err = PlacementServer::builder().start().expect_err("no router");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    let err = PlacementServer::builder()
        .router(Router::builder().shards(0))
        .start()
        .expect_err("zero shards");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("shard count"), "{err}");

    let journaled = SharedStorage::new(MemStorage::new());
    let mut k4 = Router::builder()
        .shards(4)
        .storage(Box::new(journaled.clone()))
        .build();
    k4.submit(TxId(0), &[]).unwrap();
    k4.flush_journal().unwrap();
    drop(k4);
    let err = PlacementServer::builder()
        .router(Router::builder().shards(8).storage(Box::new(journaled)))
        .start()
        .expect_err("a k = 4 journal reopened with shards(8)");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("another configuration"), "{err}");

    let mut garbage = SharedStorage::new(MemStorage::new());
    garbage.put_meta(b"not a router spec").unwrap();
    let err = PlacementServer::builder()
        .router(Router::builder().shards(4).storage(Box::new(garbage)))
        .start()
        .expect_err("garbage meta blob");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let mut headless = SharedStorage::new(MemStorage::new());
    headless.append(b"a record").unwrap();
    let err = PlacementServer::builder()
        .router(Router::builder().shards(4).storage(Box::new(headless)))
        .start()
        .expect_err("records without a meta blob");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
}

/// A node whose journal dies answers instead of wedging. Killed at each
/// of its first 40 mutating storage operations (and at points spread
/// over the rest of the stream, the first fsync batch among them),
/// every pipelined request gets exactly one response — acked until the
/// failure, `Failed` from it on, queries too — shutdown returns, and the
/// journal recovers a prefix of the stream in which every acked id
/// holds its acked shard.
#[test]
fn a_placement_failure_is_answered_and_the_node_still_shuts_down() {
    const BATCH: usize = 64;
    let txs = workload(1_024, 17);
    let batches: Vec<&[(TxId, Vec<TxId>)]> = txs.chunks(BATCH).collect();
    let kills = (0..40u64).chain((40..1_000).step_by(29)).chain([512]);
    for kill in kills {
        let idle = FailpointStorage::new(MemStorage::new(), u64::MAX, 0, TailDamage::None);
        let disk = SharedStorage::new(idle);
        let server = PlacementServer::builder()
            .router(Router::builder().shards(4).storage(Box::new(disk.clone())))
            .start()
            .expect("start server");
        // Counted from after the meta blob; of the records buffered at
        // the kill, half reach the disk.
        disk.with(|fp| fp.arm(kill, kill as usize / 2, TailDamage::None));
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let sent: Vec<u64> = batches
            .iter()
            .map(|batch| client.send_batch(1, batch).expect("send"))
            .collect();
        client.flush().expect("flush");

        // Rejections of requests admitted after the failure may overtake
        // those of requests queued before it: match answers by req_id.
        let mut answers = std::collections::HashMap::new();
        for _ in &sent {
            let (req_id, shards) = match client.recv_event().expect("one response per request") {
                Event::AckBatch { req_id, shards } => (req_id, Some(shards)),
                Event::Reject {
                    req_id,
                    reason: RejectReason::Failed,
                } => (req_id, None),
                other => panic!("kill {kill}: unexpected {other:?}"),
            };
            assert!(
                answers.insert(req_id, shards).is_none(),
                "kill {kill}: twice"
            );
        }
        let outcomes: Vec<Option<Vec<u32>>> = sent.iter().map(|id| answers[id].clone()).collect();
        // Acked up to the failure, `Failed` from it on.
        let acked_batches = outcomes.iter().take_while(|o| o.is_some()).count();
        let failed = (outcomes.len() - acked_batches) as u64;
        assert!(failed > 0, "kill {kill}: the journal died mid-stream");
        assert!(
            outcomes[acked_batches..].iter().all(Option::is_none),
            "kill {kill}"
        );
        let acked: std::collections::HashMap<TxId, u32> = batches
            .iter()
            .zip(outcomes.into_iter().flatten())
            .flat_map(|(batch, shards)| batch.iter().map(|(txid, _)| *txid).zip(shards))
            .collect();
        match client.query(txs[0].0) {
            Err(ClientError::Rejected { reason, .. }) => assert_eq!(reason, RejectReason::Failed),
            other => panic!("kill {kill}: expected a Failed query, got {other:?}"),
        }
        let text = client.metrics_text().expect("metrics");
        let line = format!("optchain_shed_total{{reason=\"failed\"}} {}", failed + 1);
        assert!(text.contains(&line), "kill {kill}: {text}");

        let stop = std::thread::spawn(move || server.shutdown());
        let deadline = Instant::now() + Duration::from_secs(30);
        while !stop.is_finished() {
            assert!(Instant::now() < deadline, "kill {kill}: shutdown hangs");
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.join().expect("shutdown returns");

        disk.with(|fp| fp.disarm());
        let recovered = Router::recover(Box::new(disk))
            .unwrap_or_else(|e| panic!("kill {kill}: recovery failed: {e}"));
        let prefix = recovered.assignments().len();
        for (i, (txid, _)) in txs.iter().enumerate() {
            let shard = recovered.shard_of(*txid).map(|s| s.0);
            assert_eq!(shard.is_some(), i < prefix, "kill {kill}: no prefix at {i}");
            if let (Some(held), Some(&ack)) = (shard, acked.get(txid)) {
                assert_eq!(held, ack, "kill {kill}: {txid:?} moved");
            }
        }
    }
}

/// A server fronting a rebalancer-enabled router surfaces migration
/// progress through `/metrics`: driving a hub-heavy stream past several
/// epoch boundaries must show committed epochs and re-homed nodes.
#[test]
fn metrics_text_reports_rebalance_progress() {
    use optchain_core::RebalancePolicy;
    use optchain_workload::HotSpotConfig;

    let txs: Vec<(TxId, Vec<TxId>)> = generate(
        WorkloadConfig::small()
            .with_seed(13)
            .with_hotspot(HotSpotConfig {
                hubs: 2,
                p_hot: 0.7,
                start: 300,
            }),
        3_000,
    )
    .into_iter()
    .map(|tx| (tx.id(), tx.input_txids()))
    .collect();
    let server = PlacementServer::builder()
        .router(
            Router::builder().shards(4).rebalancer(
                RebalancePolicy::default()
                    .with_epoch_interval(250)
                    .with_min_in_degree(2),
            ),
        )
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for chunk in txs.chunks(128) {
        client.submit_batch(1, chunk).expect("batch placed");
    }

    // Every placement is acked, so the drain-time stats poll observes
    // the final counters; wait for the dispatcher to take it.
    server.begin_shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let rb = loop {
        let rb = server.metrics().rebalance_stats();
        if rb.epochs_committed > 0 || Instant::now() > deadline {
            break rb;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(rb.epochs_committed > 0, "no epoch committed: {rb:?}");
    assert!(rb.nodes_moved > 0, "no hub re-homed: {rb:?}");
    let m = server.metrics();
    let text = server.metrics_text();
    assert!(
        text.contains(&format!(
            "optchain_rebalance_epochs_committed_total {}",
            rb.epochs_committed
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "optchain_rebalance_nodes_moved_total {}",
            rb.nodes_moved
        )),
        "{text}"
    );
    assert!(m.cross_placed() > 0, "hub workload must cross shards");
    assert!(m.cross_ratio() > 0.0 && m.cross_ratio() < 1.0);
    server.shutdown();
}

/// Fees reorder service: under a throttled dispatcher, a high-fee
/// submission admitted later overtakes queued low-fee work.
#[test]
fn higher_fee_work_is_served_first() {
    // The dispatcher pops work in rounds of up to 256 transactions; a
    // later high-fee arrival overtakes whatever is still queued behind
    // the in-flight round. 400 queued low-fee txs
    // at 2000/s guarantee the high-fee submit lands while well over a
    // chunk's worth is still waiting.
    let server = PlacementServer::builder()
        .router(Router::builder().shards(4))
        .queue_capacity(1_024)
        .credit_window(512)
        .max_placements_per_sec(2_000)
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Fill the queue with low-fee work, then one high-fee submit.
    let mut low_ids = Vec::new();
    for i in 0..400u64 {
        low_ids.push(client.send_submit(1, TxId(i), &[]).expect("send"));
    }
    let high_id = client.send_submit(1_000, TxId(9_999), &[]).expect("send");
    client.flush().expect("flush");

    // The high-fee ack must arrive before the last low-fee ack.
    let mut order = Vec::new();
    for _ in 0..=low_ids.len() {
        match client.recv_event().expect("event") {
            Event::Ack { req_id, .. } => order.push(req_id),
            other => panic!("unexpected event {other:?}"),
        }
    }
    let high_pos = order.iter().position(|&id| id == high_id).unwrap();
    let last_low_pos = order
        .iter()
        .position(|&id| id == *low_ids.last().unwrap())
        .unwrap();
    assert!(
        high_pos < last_low_pos,
        "high-fee ack at {high_pos}, after last low-fee at {last_low_pos}"
    );
    server.shutdown();
}
