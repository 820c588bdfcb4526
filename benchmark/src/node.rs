//! The node under test, behind one request/reply surface: an in-process
//! `Router` (three workloads) or a `PlacementServer` reached through one
//! `optchain_client::Client` on loopback. Every call into the program
//! goes through here, with a harness-side span around it.

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optchain_client::{Client, Event};
use optchain_core::replay::QueueProxy;
use optchain_core::{
    RebalancePolicy, RetentionPolicy, Router, RouterFleet, SegmentWal, ShardId, Strategy,
};
use optchain_server::PlacementServer;
use optchain_utxo::{Transaction, TxId};

use crate::catalog::{BATCH, K, WINDOW};
use crate::trace::{self, TracedStorage};

/// Placed transactions between two `feed_telemetry` calls
/// (`hotspot_feedback`).
const FEED_EVERY: usize = 2_048;
/// Placed transactions between two `journal_bytes` samples
/// (`durable_window`).
const DISK_SAMPLE_EVERY: usize = 4_096;
/// `durable_window` runs the committed WAL-arm settings of
/// `BENCH_placement.json`.
const CHECKPOINT_EVERY: u64 = 25_000;
const FLUSH_EVERY: u64 = 8_192;
const FULL_EVERY: u64 = 8;
/// Hub threshold of `hotspot_feedback`'s retention policy.
const HUB_MIN_DEGREE: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EmbedUnbounded,
    DurableWindow,
    ServiceLoopback,
    HotspotFeedback,
}

impl Kind {
    /// The retention window placement state is visible through, as the
    /// harness's cross-ratio model needs it (`None`: every parent
    /// stays visible; hub retention has no closed form).
    pub fn window(self) -> Option<usize> {
        match self {
            Kind::EmbedUnbounded | Kind::HotspotFeedback => None,
            Kind::DurableWindow | Kind::ServiceLoopback => Some(WINDOW),
        }
    }
}

/// The generated input: the program sees nothing else of the workload.
pub struct Stream {
    pub txs: Arc<[Transaction]>,
    /// `(txid, distinct input ids)` per transaction — the form
    /// `Client::send_batch` takes. Built for `service_loopback` only.
    pub items: Vec<(TxId, Vec<TxId>)>,
}

impl Stream {
    pub fn requests(&self) -> usize {
        self.txs.len().div_ceil(BATCH)
    }

    pub fn req_range(&self, req: usize) -> Range<usize> {
        req * BATCH..((req + 1) * BATCH).min(self.txs.len())
    }
}

/// Every reply the node gave, by stream position, and the failure tally.
pub struct Acks {
    /// Shard per transaction; `u32::MAX` until acked.
    pub shards: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

impl Acks {
    pub fn new(txs: usize) -> Self {
        Acks {
            shards: vec![u32::MAX; txs],
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAILED: {what}");
        }
    }

    /// Counts one check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if ok {
            eprintln!("  check ok: {what}");
        } else {
            self.fail(&format!("check: {what}"));
        }
    }

    /// Stores the reply to request `range`: one shard `< k` per
    /// transaction, each position answered exactly once.
    fn record(&mut self, range: Range<usize>, shards: impl ExactSizeIterator<Item = u32>) {
        if shards.len() != range.len() {
            self.fail("reply length differs from request length");
            return;
        }
        let mut ok = true;
        for (slot, shard) in self.shards[range].iter_mut().zip(shards) {
            ok &= *slot == u32::MAX && shard < K;
            *slot = shard;
        }
        if !ok {
            self.fail("request answered twice or with a shard out of range");
        }
    }
}

struct Feedback {
    proxy: QueueProxy,
    since_feed: usize,
}

struct DiskWatch {
    since_sample: usize,
    peak_bytes: u64,
}

/// An in-process `Router` with the harness-side loops its workload
/// prescribes (telemetry feedback, disk sampling).
pub struct Embedded {
    pub router: Router,
    out: Vec<ShardId>,
    /// The request `submit_batch` completed, until `recv` hands it out.
    done: Option<usize>,
    feedback: Option<Feedback>,
    disk: Option<DiskWatch>,
}

pub struct Service {
    pub server: PlacementServer,
    client: Client,
    /// Request id → request index, for replies in flight.
    in_flight: HashMap<u64, usize>,
    sends: usize,
    pub queue_depth_max: usize,
    pub sheds_seen: u64,
}

pub enum Node {
    Embedded(Box<Embedded>),
    Service(Box<Service>),
}

/// How one node differs from the workload's default build.
#[derive(Clone, Copy, Default)]
pub struct NodeOptions {
    /// Wrap the WAL in a [`TracedStorage`].
    pub traced: bool,
    /// Keep the rebalancer wired but never triggering (the comparator
    /// of `core.rebalance.tax_ns_per_tx`).
    pub rebalance_disabled: bool,
}

fn windowed_router() -> optchain_core::RouterBuilder {
    Router::builder()
        .shards(K)
        .strategy(Strategy::OptChain)
        .retention(RetentionPolicy::WindowTxs(WINDOW))
}

/// The in-RAM windowed `Router` both windowed workloads must agree
/// with bit for bit (1-worker service ≡ router ≡ WAL-backed router).
pub fn oracle_router() -> Router {
    windowed_router().build()
}

impl Node {
    /// Builds a fresh node for `kind`. `wal_dir` is where a durable
    /// node journals; it is emptied here and left for the caller to
    /// recover from or remove.
    pub fn build(kind: Kind, wal_dir: &Path, options: NodeOptions) -> Node {
        let embedded = |router: Router| Embedded {
            router,
            out: Vec::with_capacity(BATCH),
            done: None,
            feedback: None,
            disk: None,
        };
        match kind {
            Kind::EmbedUnbounded => Node::Embedded(Box::new(embedded(
                Router::builder()
                    .shards(K)
                    .strategy(Strategy::OptChain)
                    .build(),
            ))),
            Kind::DurableWindow => {
                let _ = std::fs::remove_dir_all(wal_dir);
                let wal = SegmentWal::open(wal_dir).expect("open a fresh WAL directory");
                let builder = windowed_router()
                    .checkpoint_every(CHECKPOINT_EVERY)
                    .flush_every(FLUSH_EVERY)
                    .full_every(FULL_EVERY);
                let router = if options.traced {
                    builder.storage(Box::new(TracedStorage::new(wal))).build()
                } else {
                    builder.storage(Box::new(wal)).build()
                };
                let mut node = embedded(router);
                node.disk = Some(DiskWatch {
                    since_sample: 0,
                    peak_bytes: 0,
                });
                Node::Embedded(Box::new(node))
            }
            Kind::HotspotFeedback => {
                let mut policy = RebalancePolicy::default();
                if options.rebalance_disabled {
                    policy = policy.with_utilization_trigger(f64::INFINITY);
                }
                let mut node = embedded(
                    Router::builder()
                        .shards(K)
                        .strategy(Strategy::OptChain)
                        .retention(RetentionPolicy::KeepUnspentAndHubs {
                            min_degree: HUB_MIN_DEGREE,
                        })
                        .rebalancer(policy)
                        .build(),
                );
                node.feedback = Some(Feedback {
                    proxy: QueueProxy::new(K),
                    since_feed: 0,
                });
                Node::Embedded(Box::new(node))
            }
            Kind::ServiceLoopback => {
                // Default queue capacity and credit window: 256 requests
                // of 64 txs fill the 16384-tx queue exactly, so a client
                // that respects its credits is never shed.
                let server = PlacementServer::builder()
                    .fleet(
                        RouterFleet::builder()
                            .shards(K)
                            .strategy(Strategy::OptChain)
                            .workers(1)
                            .retention(RetentionPolicy::WindowTxs(WINDOW)),
                    )
                    .bind("127.0.0.1:0")
                    .start()
                    .expect("start the placement server on loopback");
                let client = Client::connect(server.local_addr()).expect("connect to the server");
                Node::Service(Box::new(Service {
                    server,
                    client,
                    in_flight: HashMap::new(),
                    sends: 0,
                    queue_depth_max: 0,
                    sheds_seen: 0,
                }))
            }
        }
    }

    /// Most requests that may be in flight: one blocking caller in
    /// process, the server's credit window on the connection.
    pub fn window(&self) -> usize {
        match self {
            Node::Embedded(_) => 1,
            Node::Service(s) => s.client.credit_window() as usize,
        }
    }

    /// Issues request `req`. In process this *is* the work; over TCP it
    /// queues the frame (see [`Node::flush`]).
    pub fn send(&mut self, stream: &Stream, req: usize) -> Result<(), String> {
        trace::set_request(req as u32);
        let range = stream.req_range(req);
        match self {
            Node::Embedded(node) => {
                {
                    let _span = trace::span("router.submit_batch");
                    node.router.submit_batch(&stream.txs[range], &mut node.out);
                }
                if let Some(fb) = &mut node.feedback {
                    for shard in &node.out {
                        fb.proxy.on_place(shard.0);
                    }
                    fb.since_feed += node.out.len();
                    if fb.since_feed >= FEED_EVERY {
                        fb.since_feed -= FEED_EVERY;
                        let (telemetry, _epoch) = fb.proxy.telemetry();
                        let _span = trace::span("router.feed_telemetry");
                        node.router.feed_telemetry(telemetry);
                    }
                }
                if let Some(disk) = &mut node.disk {
                    disk.since_sample += node.out.len();
                    if disk.since_sample >= DISK_SAMPLE_EVERY {
                        disk.since_sample -= DISK_SAMPLE_EVERY;
                        disk.peak_bytes = disk
                            .peak_bytes
                            .max(node.router.journal_bytes().unwrap_or(0));
                    }
                }
                node.done = Some(req);
                Ok(())
            }
            Node::Service(node) => {
                let req_id = {
                    let _span = trace::span("client.send_batch");
                    node.client
                        .send_batch(1, &stream.items[range])
                        .map_err(|e| format!("send_batch: {e}"))?
                };
                node.in_flight.insert(req_id, req);
                node.sends += 1;
                if trace::enabled() && node.sends % 16 == 0 {
                    node.queue_depth_max = node.queue_depth_max.max(node.server.queue_depth());
                }
                Ok(())
            }
        }
    }

    /// Pushes queued frames to the socket (a no-op in process).
    pub fn flush(&mut self) -> Result<(), String> {
        match self {
            Node::Embedded(_) => Ok(()),
            Node::Service(node) => {
                let _span = trace::span("client.flush");
                node.client.flush().map_err(|e| format!("flush: {e}"))
            }
        }
    }

    /// Waits for the next reply, stores it in `acks`, and returns the
    /// request it answers. A reject is a failed operation, not an error.
    pub fn recv(&mut self, acks: &mut Acks) -> Result<usize, String> {
        match self {
            Node::Embedded(node) => {
                let req = node.done.take().expect("recv without a request in flight");
                let start = req * BATCH;
                acks.record(start..start + node.out.len(), node.out.iter().map(|s| s.0));
                Ok(req)
            }
            Node::Service(node) => {
                let event = {
                    let _span = trace::span("client.recv_event");
                    node.client
                        .recv_event()
                        .map_err(|e| format!("recv_event: {e}"))?
                };
                match event {
                    Event::AckBatch { req_id, shards } => {
                        let req = node
                            .in_flight
                            .remove(&req_id)
                            .ok_or_else(|| format!("ack for unknown request id {req_id}"))?;
                        let start = req * BATCH;
                        acks.record(start..start + shards.len(), shards.into_iter());
                        Ok(req)
                    }
                    Event::Reject { req_id, reason } => {
                        node.sheds_seen += 1;
                        acks.fail(&format!("request {req_id} rejected: {reason}"));
                        node.in_flight
                            .remove(&req_id)
                            .ok_or_else(|| format!("reject for unknown request id {req_id}"))
                    }
                    other => Err(format!("unexpected event {other:?}")),
                }
            }
        }
    }

    /// Makes everything acked so far durable (durable nodes; the
    /// closing step of a timed pass, as in `perf_baseline --wal`).
    pub fn sync(&mut self) {
        if let Node::Embedded(node) = self {
            if node.router.is_durable() {
                let _span = trace::span("router.flush_journal");
                node.router.flush_journal().expect("final WAL fsync");
            }
        }
    }

    /// The program's own count of cross-shard placements so far. The
    /// server publishes its count from a periodic fleet poll, and takes
    /// a last one as it drains — so over TCP this starts the drain and
    /// waits (bounded) for the poll to show `expected`. Call it last.
    pub fn cross_placed(&mut self, expected: u64) -> u64 {
        match self {
            Node::Embedded(node) => node.router.cross_placed(),
            Node::Service(node) => {
                node.server.begin_shutdown();
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let seen = node.server.metrics().cross_placed();
                    if seen == expected || Instant::now() >= deadline {
                        return seen;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Peak `Router::journal_bytes` seen by the sampler, in bytes.
    pub fn disk_peak_bytes(&self) -> u64 {
        match self {
            Node::Embedded(node) => node.disk.as_ref().map_or(0, |d| d.peak_bytes),
            Node::Service(_) => 0,
        }
    }

    /// Tears the node down: drops the router (its WAL directory stays),
    /// or drains the server and joins its threads.
    pub fn finish(self) {
        if let Node::Service(node) = self {
            let Service { server, client, .. } = *node;
            drop(client);
            server.shutdown();
        }
    }
}
