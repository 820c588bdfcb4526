//! Loopback load driver for the placement service.
//!
//! Three arms, all in one process so the numbers are directly
//! comparable and the server's own histograms are readable:
//!
//! 1. **fleet_reference** — the same transaction stream through the
//!    in-process `RouterFleet` detached-batch path at the same worker
//!    and sync configuration. This is the ceiling: what the placement
//!    engine does with no network, no framing, no admission control.
//! 2. **sustained** — the stream over loopback TCP through
//!    `optchain-server`, several pipelined client connections keeping
//!    the credit window full. Records placements/sec and the server's
//!    admission→ack p50/p99. `service_ratio` = sustained / reference.
//! 3. **overload** — a rate-capped server driven at 2x its capacity.
//!    Demonstrates the overload contract: typed `QueueFull` shedding,
//!    admitted-request p99 within the queue-derived bound, and one
//!    response per request (zero lost acks). Under `--smoke` its fleet
//!    runs a small `WindowTxs` window, so the duplicate guard rotates
//!    several times and the final `Metrics` scrape shows it bounded.
//!
//! Writes `BENCH_service.json` (diffed against the committed baseline
//! by `scripts/bench_compare.py --mode service`).
//!
//! ```sh
//! cargo run --release -p optchain-bench --bin loadgen -- \
//!     [--txs N] [--k K] [--workers W] [--conns C] [--seed S] \
//!     [--smoke] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optchain_client::{Client, Event};
use optchain_core::{RetentionPolicy, RouterFleet, RouterFleetBuilder};
use optchain_server::{PlacementServer, RejectReason};
use optchain_utxo::{Transaction, TxId};
use optchain_workload::{generate, WorkloadConfig};

struct Args {
    txs: usize,
    k: u32,
    workers: usize,
    conns: usize,
    batch: usize,
    seed: u64,
    sync_interval: u64,
    smoke: bool,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            txs: 200_000,
            k: 16,
            workers: 4,
            conns: 4,
            batch: 64,
            seed: 0xB17C04,
            sync_interval: 50_000,
            smoke: false,
            out: "BENCH_service.json".to_string(),
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--txs" => args.txs = next("--txs").parse().expect("--txs N"),
            "--k" => args.k = next("--k").parse().expect("--k K"),
            "--workers" => args.workers = next("--workers").parse().expect("--workers W"),
            "--conns" => args.conns = next("--conns").parse().expect("--conns C"),
            "--batch" => args.batch = next("--batch").parse().expect("--batch B"),
            "--seed" => args.seed = next("--seed").parse().expect("--seed S"),
            "--sync-interval" => {
                args.sync_interval = next("--sync-interval").parse().expect("--sync-interval T")
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = next("--out"),
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!(
                    "usage: loadgen [--txs N] [--k K] [--workers W] [--conns C] \
                     [--seed S] [--sync-interval T] [--smoke] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.smoke {
        args.txs = args.txs.min(20_000);
    }
    assert!(args.conns > 0, "--conns must be positive");
    assert!(args.batch > 0, "--batch must be positive");
    args
}

fn fleet_builder(args: &Args) -> RouterFleetBuilder {
    RouterFleet::builder()
        .shards(args.k)
        .workers(args.workers)
        .sync_interval(args.sync_interval)
}

/// Fails the run if the server's final `Metrics` scrape shows the
/// duplicate guard tracking more than two generations of ids.
fn assert_dedup_bounded(server: &PlacementServer, arm: &str) {
    let text = server.metrics_text();
    let gauge = |name: &str| -> u64 {
        (text.lines())
            .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{arm}: no {name} in the metrics text"))
    };
    let horizon = gauge("optchain_dedup_horizon ");
    let tracked = gauge("optchain_dedup_tracked_ids ");
    eprintln!("{arm}: dedup guard tracks {tracked} ids, horizon {horizon}");
    assert!(
        horizon == 0 || tracked <= 2 * horizon,
        "{arm}: duplicate guard tracks {tracked} ids, over twice its horizon {horizon}"
    );
}

/// Chunk size of the reference's detached bulk submission (same as
/// the perf_baseline fleet arm: channel traffic negligible, clients
/// still interleaved).
const FLEET_CHUNK: usize = 4_096;

/// Arm 1: the in-process ceiling at matching fleet configuration —
/// one handle per worker, chunks round-robined, zero-copy detached
/// batches. Matches `perf_baseline`'s fleet arm.
fn run_fleet_reference(args: &Args, stream: &Arc<[Transaction]>) -> f64 {
    let fleet = fleet_builder(args).build();
    let handles: Vec<_> = (0..args.workers as u64).map(|c| fleet.handle(c)).collect();
    let started = Instant::now();
    for (i, start) in (0..stream.len()).step_by(FLEET_CHUNK).enumerate() {
        let end = (start + FLEET_CHUNK).min(stream.len());
        let _ = handles[i % args.workers].submit_batch_detached(stream, start..end);
    }
    let placed: usize = handles.iter().map(|h| h.drain().len()).sum();
    let seconds = started.elapsed().as_secs_f64();
    assert_eq!(placed, stream.len(), "reference lost placements");
    seconds
}

struct ConnOutcome {
    sent: u64,
    acks: u64,
    rejects: u64,
    queue_full: u64,
}

/// Drives one connection: pipelined submits (single, or batches of
/// `batch` transactions) keeping the credit window full, optionally
/// paced to `rate_per_conn` offered tx/sec.
fn drive_conn(
    addr: std::net::SocketAddr,
    items: &[(TxId, Vec<TxId>)],
    rate_per_conn: Option<f64>,
    batch: usize,
) -> ConnOutcome {
    let mut client = Client::connect(addr).expect("connect");
    let window = client.credit_window() as u64;
    let mut out = ConnOutcome {
        sent: 0,
        acks: 0,
        rejects: 0,
        queue_full: 0,
    };
    let mut outstanding = 0u64;
    let started = Instant::now();
    fn recv(client: &mut Client, out: &mut ConnOutcome) {
        match client.recv_event().expect("event") {
            Event::Ack { .. } | Event::AckBatch { .. } => out.acks += 1,
            Event::Reject { reason, .. } => {
                out.rejects += 1;
                if reason == RejectReason::QueueFull {
                    out.queue_full += 1;
                }
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    let mut offered = 0usize;
    for chunk in items.chunks(batch) {
        if let Some(rate) = rate_per_conn {
            let target = Duration::from_secs_f64(offered as f64 / rate);
            let elapsed = started.elapsed();
            if target > elapsed {
                client.flush().expect("flush");
                std::thread::sleep(target - elapsed);
            }
        }
        if outstanding >= window {
            client.flush().expect("flush");
            recv(&mut client, &mut out);
            outstanding -= 1;
        }
        if batch == 1 {
            let (txid, inputs) = &chunk[0];
            client.send_submit(1, *txid, inputs).expect("send");
        } else {
            client.send_batch(1, chunk).expect("send");
        }
        offered += chunk.len();
        out.sent += 1;
        outstanding += 1;
    }
    client.flush().expect("flush");
    while outstanding > 0 {
        recv(&mut client, &mut out);
        outstanding -= 1;
    }
    out
}

/// Partitions `items` round-robin across `conns` and drives them from
/// one thread per connection; returns wall seconds + merged outcomes.
fn drive(
    addr: std::net::SocketAddr,
    items: &[(TxId, Vec<TxId>)],
    conns: usize,
    rate_per_conn: Option<f64>,
    batch: usize,
) -> (f64, ConnOutcome) {
    let partitions: Vec<Vec<(TxId, Vec<TxId>)>> = (0..conns)
        .map(|c| {
            items
                .iter()
                .skip(c)
                .step_by(conns)
                .cloned()
                .collect::<Vec<_>>()
        })
        .collect();
    let started = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .map(|part| scope.spawn(move || drive_conn(addr, part, rate_per_conn, batch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conn thread"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    let merged = outcomes.into_iter().fold(
        ConnOutcome {
            sent: 0,
            acks: 0,
            rejects: 0,
            queue_full: 0,
        },
        |mut acc, o| {
            acc.sent += o.sent;
            acc.acks += o.acks;
            acc.rejects += o.rejects;
            acc.queue_full += o.queue_full;
            acc
        },
    );
    (seconds, merged)
}

fn main() {
    let args = parse_args();
    eprintln!(
        "loadgen: txs={} k={} workers={} conns={} batch={} seed={:#x}{}",
        args.txs,
        args.k,
        args.workers,
        args.conns,
        args.batch,
        args.seed,
        if args.smoke { " (smoke)" } else { "" }
    );

    let stream: Arc<[Transaction]> = generate(
        WorkloadConfig::bitcoin_like().with_seed(args.seed),
        args.txs,
    )
    .into();
    let items: Vec<(TxId, Vec<TxId>)> = stream
        .iter()
        .map(|tx| (tx.id(), tx.input_txids()))
        .collect();

    // Arm 1: in-process ceiling.
    let ref_seconds = run_fleet_reference(&args, &stream);
    let ref_tps = args.txs as f64 / ref_seconds;
    eprintln!("fleet_reference: {ref_tps:.0} tx/s ({ref_seconds:.3}s)");

    // Arm 2: sustained loopback service throughput. The queue must
    // hold everything the clients can have outstanding at once
    // (conns x credit window x batch transactions), so the arm's
    // no-shedding invariant is structural — clients momentarily
    // outrunning the dispatcher cannot trip QueueFull.
    let credit_window: u32 = 256;
    let sus_queue = args
        .txs
        .max(args.conns * credit_window as usize * args.batch)
        .max(1024);
    let server = PlacementServer::builder()
        .fleet(fleet_builder(&args))
        .queue_capacity(sus_queue)
        .credit_window(credit_window)
        .start()
        .expect("start server");
    let (sus_seconds, sus) = drive(server.local_addr(), &items, args.conns, None, args.batch);
    let sus_tps = args.txs as f64 / sus_seconds;
    let sus_p50 = server.metrics().latency_usec_quantile(0.5).unwrap_or(0);
    let sus_p99 = server.metrics().latency_usec_quantile(0.99).unwrap_or(0);
    let sus_admitted = server.metrics().admitted();
    let sus_acked = server.metrics().acked();
    let sus_shed = server.metrics().shed_total();
    let sus_lost = sus.sent - sus.acks - sus.rejects;
    assert_dedup_bounded(&server, "sustained");
    server.shutdown();
    eprintln!(
        "sustained: {sus_tps:.0} tx/s ({sus_seconds:.3}s), p50={sus_p50}us p99={sus_p99}us, \
         acks={} rejects={} lost={sus_lost}",
        sus.acks, sus.rejects
    );

    // Arm 3: 2x overload against a rate-capped node. The p99 bound for
    // admitted work is queue_capacity / rate (full-queue residence)
    // plus one dispatch chunk; x2 for scheduling slop.
    // The queue must be smaller than the total outstanding credit
    // (conns x window), otherwise per-connection backpressure alone
    // absorbs the 2x overload and nothing is ever shed.
    let rate: u64 = if args.smoke { 10_000 } else { 20_000 };
    let over_queue: usize = 256;
    let duration_s: f64 = if args.smoke { 1.5 } else { 4.0 };
    let offered = (2.0 * rate as f64 * duration_s) as usize;
    let over_stream = generate(
        WorkloadConfig::bitcoin_like().with_seed(args.seed ^ 0x5eed),
        offered,
    );
    let over_items: Vec<(TxId, Vec<TxId>)> = over_stream
        .iter()
        .map(|tx| (tx.id(), tx.input_txids()))
        .collect();
    // Admitted-request residence is bounded by a full queue plus one
    // in-flight dispatch chunk, both served at `rate`; x2 for slop.
    let p99_bound_usec = (over_queue as u64 + 256) * 1_000_000 / rate * 2;

    // A smoke run admits ~15k transactions: a window this small puts
    // the guard through several generations, so the bound is checked
    // on a guard that has actually forgotten something.
    let over_fleet = match args.smoke {
        true => fleet_builder(&args)
            .retention(RetentionPolicy::WindowTxs(1_024))
            .sync_interval(512),
        false => fleet_builder(&args),
    };
    let server = PlacementServer::builder()
        .fleet(over_fleet)
        .queue_capacity(over_queue)
        .credit_window(256)
        .max_placements_per_sec(rate)
        .start()
        .expect("start overload server");
    let rate_per_conn = 2.0 * rate as f64 / args.conns as f64;
    let (over_seconds, over) = drive(
        server.local_addr(),
        &over_items,
        args.conns,
        Some(rate_per_conn),
        1,
    );
    let over_p99 = server.metrics().latency_usec_quantile(0.99).unwrap_or(0);
    let over_admitted = server.metrics().admitted();
    let over_acked = server.metrics().acked();
    let over_shed_qf = server.metrics().shed(RejectReason::QueueFull);
    let over_shed = server.metrics().shed_total();
    let over_lost = over.sent - over.acks - over.rejects;
    let p99_within_bound = over_p99 <= p99_bound_usec;
    assert_dedup_bounded(&server, "overload");
    server.shutdown();
    eprintln!(
        "overload: offered {:.0} tx/s for {over_seconds:.3}s, admitted={over_admitted} \
         shed={over_shed} p99={over_p99}us (bound {p99_bound_usec}us) lost={over_lost}",
        over.sent as f64 / over_seconds
    );

    let service_ratio = sus_tps / ref_tps;
    let acks_complete = sus_lost == 0 && over_lost == 0 && sus_admitted == sus_acked;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"service_loadgen\",");
    let _ = writeln!(json, "  \"txs\": {},", args.txs);
    let _ = writeln!(json, "  \"k\": {},", args.k);
    let _ = writeln!(json, "  \"workers\": {},", args.workers);
    let _ = writeln!(json, "  \"conns\": {},", args.conns);
    let _ = writeln!(json, "  \"batch\": {},", args.batch);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"credit_window\": 256,");
    let _ = writeln!(
        json,
        "  \"fleet_reference\": {{\"seconds\": {ref_seconds:.4}, \"txs_per_sec\": {ref_tps:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"sustained\": {{\"seconds\": {sus_seconds:.4}, \"txs_per_sec\": {sus_tps:.1}, \
         \"p50_usec\": {sus_p50}, \"p99_usec\": {sus_p99}, \"admitted\": {sus_admitted}, \
         \"acked\": {sus_acked}, \"shed\": {sus_shed}, \"lost_acks\": {sus_lost}}},"
    );
    let _ = writeln!(
        json,
        "  \"overload\": {{\"rate_cap\": {rate}, \"queue_capacity\": {over_queue}, \
         \"duration_seconds\": {over_seconds:.4}, \"offered\": {offered}, \
         \"admitted\": {over_admitted}, \"acked\": {over_acked}, \
         \"shed_queue_full\": {over_shed_qf}, \"shed_total\": {over_shed}, \
         \"p99_usec\": {over_p99}, \"p99_bound_usec\": {p99_bound_usec}, \
         \"p99_within_bound\": {p99_within_bound}, \"lost_acks\": {over_lost}}},"
    );
    let _ = writeln!(json, "  \"service_ratio\": {service_ratio:.3},");
    let _ = writeln!(json, "  \"acks_complete\": {acks_complete}");
    let _ = writeln!(json, "}}");

    std::fs::write(&args.out, &json).expect("write BENCH_service.json");
    eprintln!(
        "service_ratio={service_ratio:.3} acks_complete={acks_complete} -> {}",
        args.out
    );

    assert_eq!(sus_lost, 0, "sustained arm lost acks");
    assert_eq!(over_lost, 0, "overload arm lost acks");
    assert!(over_shed > 0, "2x overload produced no shedding");
}
