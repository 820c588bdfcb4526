//! End-to-end service tests: the TCP placement node must behave
//! exactly like the in-process engine it fronts — same placements,
//! typed shedding under overload, zero lost acks through drain and
//! across a WAL-backed restart.

use std::time::{Duration, Instant};

use optchain_client::{Client, ClientError, RejectReason};
use optchain_core::{RetentionPolicy, Router, RouterFleet, SegmentWal, Storage};
use optchain_server::PlacementServer;
use optchain_utxo::TxId;
use optchain_workload::{generate, WorkloadConfig};

fn workload(n: usize, seed: u64) -> Vec<(TxId, Vec<TxId>)> {
    generate(WorkloadConfig::small().with_seed(seed), n)
        .into_iter()
        .map(|tx| (tx.id(), tx.input_txids()))
        .collect()
}

/// The value of gauge `name` in a `Metrics` scrape.
fn gauge(text: &str, name: &str) -> u64 {
    (text.lines())
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in the metrics text"))
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
        .fleet(RouterFleet::builder().shards(8).workers(1))
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
/// pipelined single `Submit` frames (one dispatcher round, one fleet
/// message per frame either way).
#[test]
fn batch_placements_match_singles() {
    let txs = workload(600, 21);
    for as_batch_frames in [true, false] {
        let server = PlacementServer::builder()
            .fleet(RouterFleet::builder().shards(4).workers(1))
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
                        optchain_client::Event::Ack { req_id, shard } => {
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

/// A served fleet hands each `SubmitBatch` frame to its placement
/// thread as one message, whichever connection sent it: two
/// connections alternating 64-tx frames that spend each other's
/// outputs must be acked exactly the shards one `Router` yields from
/// the same transactions in the same order.
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
        .fleet(RouterFleet::builder().shards(4))
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
/// the queue-derived bound, answer every request exactly once, and
/// keep the duplicate guard at two generations of ids while it rotates.
#[test]
fn overload_sheds_typed_with_bounded_latency_and_zero_lost_acks() {
    const RATE: u64 = 2_000; // placements/sec, dispatcher-throttled
    const QUEUE: usize = 64;
    const N: u64 = 1_000;

    // A window this small puts the guard through several generations
    // within the ~500 transactions the run admits.
    let fleet = RouterFleet::builder()
        .shards(4)
        .workers(1)
        .retention(RetentionPolicy::WindowTxs(16));
    let server = PlacementServer::builder()
        .fleet(fleet)
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
            optchain_client::Event::Ack { req_id, .. } => {
                acks += 1;
                assert!(answered.insert(req_id), "double answer for {req_id}");
            }
            optchain_client::Event::Reject { req_id, reason } => {
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

    // The guard forgot: more ids were admitted than two generations
    // hold, and the final scrape shows no more than that remembered.
    let text = client.metrics_text().expect("metrics");
    let horizon = gauge(&text, "optchain_dedup_horizon ");
    let tracked = gauge(&text, "optchain_dedup_tracked_ids ");
    assert!(
        acks > 2 * horizon,
        "{acks} admissions never filled the guard"
    );
    assert!(
        tracked <= 2 * horizon,
        "guard tracks {tracked} ids, horizon {horizon}"
    );
    server.shutdown();
}

/// After `begin_shutdown`, new work sheds with `Shutdown` while
/// everything already admitted still places and acks; after
/// `shutdown`, the socket reports a clean close.
#[test]
fn drain_sheds_new_work_and_acks_admitted_work() {
    let txs = workload(200, 5);
    let server = PlacementServer::builder()
        .fleet(RouterFleet::builder().shards(4))
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
            .fleet(RouterFleet::builder().shards(4).storage(storage(&dir)))
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
        .fleet(RouterFleet::builder().shards(4).storage(storage(&dir)))
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

/// Re-submitting an id the node already placed is shed as `Duplicate`
/// (the underlying graph treats resubmission as corruption, the
/// service turns it into a typed, recoverable rejection).
#[test]
fn duplicate_submission_is_shed_typed() {
    let server = PlacementServer::builder()
        .fleet(RouterFleet::builder().shards(4).workers(1))
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.submit(1, TxId(42), &[]).expect("first admit");
    match client.submit(1, TxId(42), &[]) {
        Err(ClientError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Duplicate)
        }
        other => panic!("expected Duplicate rejection, got {other:?}"),
    }
    // An intra-batch duplicate is refused atomically: nothing from the
    // batch is admitted...
    match client.submit_batch(1, &[(TxId(50), vec![]), (TxId(50), vec![])]) {
        Err(ClientError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::Duplicate)
        }
        other => panic!("expected Duplicate rejection, got {other:?}"),
    }
    // ...so the id is still submittable afterwards.
    client.submit(1, TxId(50), &[]).expect("still admittable");
    // The connection survived every rejection.
    client.submit(1, TxId(43), &[TxId(42)]).expect("still live");
    server.shutdown();
}

/// What "duplicate" means follows the fleet's retention policy. Under
/// `WindowTxs` an id is refused for as long as the graph can still hold
/// it and admitted again — placed as a fresh node, no panic on the
/// placement thread — once two generations of the guard have passed; a
/// fleet that never evicts never forgets.
#[test]
fn resubmission_past_the_horizon_is_a_fresh_placement() {
    const WINDOW: usize = 16;
    const QUEUE: usize = 32;
    /// Fresh ids placed after the resubmissions.
    const TAIL: u64 = 32;
    let expect_duplicate = |outcome: Result<u32, ClientError>| match outcome {
        Err(ClientError::Rejected { reason, .. }) => assert_eq!(reason, RejectReason::Duplicate),
        other => panic!("expected Duplicate rejection, got {other:?}"),
    };
    let server = PlacementServer::builder()
        .fleet(
            RouterFleet::builder()
                .shards(4)
                .retention(RetentionPolicy::WindowTxs(WINDOW)),
        )
        .queue_capacity(QUEUE)
        .start()
        .expect("start server");
    // Two connections alternate, so the resubmissions below arrive on
    // the connection that did not send the original.
    let mut clients = [
        Client::connect(server.local_addr()).expect("connect"),
        Client::connect(server.local_addr()).expect("connect"),
    ];
    for client in &mut clients {
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
    }
    let clients = &mut clients;
    fn submit(clients: &mut [Client; 2], id: u64) -> Result<u32, ClientError> {
        let parents: Vec<TxId> = id.checked_sub(1).map(TxId).into_iter().collect();
        clients[(id % 2) as usize].submit(1, TxId(id), &parents)
    }
    // One generation of the guard: the fleet's eviction horizon (the
    // window plus one) and a queueful of overtaking.
    let horizon = WINDOW as u64 + 1;
    let span = horizon + QUEUE as u64;
    // Synchronous submits leave nothing queued at a rotation, so
    // generations are exact: id 0 is remembered through the first
    // 2 * span admissions...
    for id in 0..2 * span - 1 {
        submit(clients, id).expect("placed");
    }
    expect_duplicate(submit(clients, 0));
    submit(clients, 2 * span - 1).expect("placed");
    // ...and forgotten by the next, with its whole generation.
    for id in 0..span {
        clients[((id + 1) % 2) as usize]
            .submit(1, TxId(id), &[])
            .expect("a fresh placement past the horizon");
    }
    // The placement thread survived: fresh ids still place and resolve.
    for id in 3 * span..3 * span + TAIL {
        submit(clients, id).expect("placed");
    }
    let last = TxId(3 * span + TAIL - 1);
    assert!(clients[0].query(last).expect("query").is_some());
    let text = clients[0].metrics_text().expect("metrics");
    let generation = span + QUEUE as u64;
    assert!(
        text.contains(&format!("optchain_dedup_horizon {generation}")),
        "{text}"
    );
    let tracked = gauge(&text, "optchain_dedup_tracked_ids ");
    let admitted = server.metrics().admitted();
    assert_eq!(admitted, 3 * span + TAIL);
    // The guard holds the current generation and the one before.
    assert_eq!(tracked, span + admitted % span, "{text}");
    server.shutdown();

    // The same traffic against a fleet that never evicts: three
    // horizons on, its very first id is still refused.
    let server = PlacementServer::builder()
        .fleet(RouterFleet::builder().shards(4).workers(1))
        .queue_capacity(QUEUE)
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let span = WINDOW as u64 + 1 + QUEUE as u64;
    for id in 0..3 * span {
        client.submit(1, TxId(id), &[]).expect("placed");
    }
    expect_duplicate(client.submit(1, TxId(0), &[]));
    server.shutdown();
}

/// The metrics endpoint reports the counters the protocol promises.
#[test]
fn metrics_text_reports_service_counters() {
    let server = PlacementServer::builder()
        .fleet(RouterFleet::builder().shards(4).workers(1))
        .start()
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..32u64 {
        client.submit(1, TxId(1000 + i), &[]).expect("placed");
    }
    let _ = client.submit(1, TxId(1000), &[]); // one duplicate shed
    let text = client.metrics_text().expect("metrics");
    assert!(text.contains("optchain_admitted_total 32"), "{text}");
    assert!(text.contains("optchain_acked_total 32"), "{text}");
    assert!(
        text.contains("optchain_shed_total{reason=\"duplicate\"} 1"),
        "{text}"
    );
    assert!(text.contains("optchain_queue_capacity"), "{text}");
    // The duplicate guard holds exactly the ids the client got
    // admitted (the shed duplicate registered nothing), and a fleet
    // that never evicts has no horizon.
    assert!(text.contains("optchain_dedup_tracked_ids 32"), "{text}");
    assert!(text.contains("optchain_dedup_horizon 0"), "{text}");
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
    server.shutdown();
}

/// A server fronting a rebalancer-enabled fleet surfaces migration
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
        .fleet(
            RouterFleet::builder().shards(4).workers(1).rebalancer(
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
    // The dispatcher hands work to the fleet in chunks of up to 256
    // transactions; a later high-fee arrival overtakes whatever is
    // still queued behind the in-flight chunk. 400 queued low-fee txs
    // at 2000/s guarantee the high-fee submit lands while well over a
    // chunk's worth is still waiting.
    let server = PlacementServer::builder()
        .fleet(RouterFleet::builder().shards(4).workers(1))
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
            optchain_client::Event::Ack { req_id, .. } => order.push(req_id),
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
