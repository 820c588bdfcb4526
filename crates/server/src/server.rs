//! The placement server: a std-TCP front-end over a
//! [`RouterFleet`].
//!
//! # Threading model
//!
//! ```text
//!                    ┌──────────────┐
//!   accept loop ───▶ │ per-conn     │──▶ bounded admission queue ──▶ dispatcher ──▶ RouterFleet
//!   (1 thread)       │ reader thread│    (fee-ordered, capacity-     (1 thread,     (1 placement
//!                    └──────────────┘     bounded, shed on full)      one message    thread, one
//!                    ┌──────────────┐                                 per request,   sequence)
//!   responses ◀───── │ per-conn     │◀─── outbox channel ◀─────────── then drain)
//!                    │ writer thread│
//!                    └──────────────┘
//! ```
//!
//! * The **reader** parses frames — a submission's transactions
//!   straight into the one flat [`TxRows`] that travels, unchanged, to
//!   the placement thread — enforces the per-connection credit
//!   window (by *pausing reads* — a client over its window stalls in
//!   TCP backpressure, it is never disconnected or silently dropped),
//!   and admits work into the bounded fee-ordered queue. Admission
//!   failures are shed with a typed rejection immediately.
//! * The **dispatcher** pops admitted work highest-fee-first and hands
//!   each request to the fleet as one detached placement message
//!   ([`optchain_core::FleetHandle::submit_detached`]) with a drain
//!   marker behind it ([`optchain_core::FleetHandle::drain_later`]),
//!   then collects the *previous* round's results and routes its acks
//!   back to each connection's outbox — so the placement thread finds
//!   the next round queued instead of idling while acks are routed.
//!   A wire `Submit` is a request of one
//!   transaction; it differs from a `SubmitBatch` only in the ack it
//!   gets.
//! * The **writer** drains the outbox to the socket and returns credit.
//!
//! # Overload behavior
//!
//! Every request gets **exactly one response**. When the admission
//! queue is full, new work is rejected with
//! [`RejectReason::QueueFull`]; because the queue is bounded, the
//! latency of *admitted* work is bounded by `queue_capacity` over the
//! placement rate — overload degrades by shedding, never by collapse.
//! During shutdown the server **drains**: everything admitted is still
//! placed and acknowledged (and journaled, under `.storage(...)`),
//! new work is rejected with [`RejectReason::Shutdown`], and the fleet
//! is shut down through [`RouterFleet::shutdown`], which flushes the
//! WAL tail before the server returns.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use optchain_core::{RouterFleet, RouterFleetBuilder, TxRows};
use optchain_utxo::TxId;

use crate::metrics::{AdmissionGauges, ServerMetrics};
use crate::protocol::{
    self, Decoded, FrameRead, RejectReason, Response, DEFAULT_MAX_FRAME_BYTES,
    MAX_FRAME_BYTES_CEILING,
};
use crate::queue::AdmissionQueue;

/// Default admission queue capacity, in transactions.
pub const DEFAULT_QUEUE_CAPACITY: usize = 16_384;

/// Default per-connection credit window, in requests.
pub const DEFAULT_CREDIT_WINDOW: u32 = 256;

/// How many transactions the dispatcher pulls per round. Larger chunks
/// amortize the drain round trip; smaller chunks re-consult the fee
/// order sooner (a high-fee arrival can only jump work that is still
/// queued, not the at most two rounds already handed to the fleet).
/// 256 keeps the drain overhead under a few percent at fleet
/// throughput while bounding priority inversion.
const DISPATCH_CHUNK: usize = 256;

// ---------------------------------------------------------------------------
// Admission state
// ---------------------------------------------------------------------------

/// One unit of dispatcher work.
enum Work {
    /// A `Submit` (one row, answered with `Ack`) or a `SubmitBatch`
    /// (answered with `AckBatch`).
    Place {
        conn: u64,
        req_id: u64,
        txs: TxRows,
        batch: bool,
        admitted_at: Instant,
    },
    Query {
        conn: u64,
        req_id: u64,
        txid: TxId,
    },
}

struct AdmissionState {
    queue: AdmissionQueue<Work>,
    /// Shutdown has begun: admitted work still drains, new work is
    /// shed with [`RejectReason::Shutdown`].
    draining: bool,
}

struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

impl Admission {
    /// What the `/metrics` text reports of the admission state.
    fn gauges(&self) -> AdmissionGauges {
        let s = self.state.lock().expect("admission mutex");
        AdmissionGauges {
            queue_depth: s.queue.depth(),
            queue_capacity: s.queue.capacity(),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection plumbing
// ---------------------------------------------------------------------------

/// Credit-window accounting for one connection. The reader blocks in
/// [`Window::acquire`] while the window is exhausted; the writer
/// releases one credit per response written.
struct Window {
    state: Mutex<(u32, bool)>, // (in_flight, closed)
    cv: Condvar,
}

impl Window {
    fn new() -> Self {
        Window {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a credit is free, then takes it. Returns `false`
    /// if the connection closed while waiting.
    fn acquire(&self, max: u32) -> bool {
        let mut s = self.state.lock().expect("window mutex");
        while s.0 >= max && !s.1 {
            s = self.cv.wait(s).expect("window mutex");
        }
        if s.1 {
            return false;
        }
        s.0 += 1;
        true
    }

    fn release(&self) {
        let mut s = self.state.lock().expect("window mutex");
        s.0 = s.0.saturating_sub(1);
        self.cv.notify_all();
    }

    /// Blocks until every acquired credit has been released (every
    /// in-flight request has had its response written), or the
    /// connection closed. The reader calls this before tearing a
    /// connection down so a protocol violation never drops acks for
    /// work admitted before it.
    fn wait_idle(&self) {
        let mut s = self.state.lock().expect("window mutex");
        while s.0 > 0 && !s.1 {
            s = self.cv.wait(s).expect("window mutex");
        }
    }

    fn close(&self) {
        self.state.lock().expect("window mutex").1 = true;
        self.cv.notify_all();
    }
}

/// A response on its way to a connection's writer, tagged with whether
/// writing it settles a credit the reader acquired. The tag travels
/// with the response — credit accounting is never inferred from wire
/// fields like `req_id`, which is client-chosen (0 is legal).
enum Outgoing {
    /// Settles one credit when written: the answer to a request the
    /// reader admitted through [`Window::acquire`].
    Credited(Response),
    /// No credit attached: the hello and connection-level rejects
    /// (malformed/oversized frames, which never acquired a credit).
    Uncredited(Response),
}

struct ConnEntry {
    outbox: SyncSender<Outgoing>,
    /// A cloned stream handle used only to `shutdown()` the socket
    /// from the server side (unblocking the reader).
    shutdown_handle: TcpStream,
}

type Registry = Arc<Mutex<HashMap<u64, ConnEntry>>>;

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builder for [`PlacementServer`]. The one required input is the
/// [`RouterFleetBuilder`] describing the placement fleet the server
/// fronts — every fleet knob (strategy, retention, `.storage(...)`
/// durability) composes unchanged.
pub struct PlacementServerBuilder {
    fleet: Option<RouterFleetBuilder>,
    addr: String,
    queue_capacity: usize,
    credit_window: u32,
    max_frame_bytes: u32,
    max_placements_per_sec: Option<u64>,
}

impl PlacementServerBuilder {
    fn new() -> Self {
        PlacementServerBuilder {
            fleet: None,
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            credit_window: DEFAULT_CREDIT_WINDOW,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_placements_per_sec: None,
        }
    }

    /// The placement fleet to serve (required). The builder is built —
    /// and its placement thread spawned — inside [`Self::start`].
    pub fn fleet(mut self, fleet: RouterFleetBuilder) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Listen address (default `127.0.0.1:0` — an ephemeral loopback
    /// port; read the bound address back with
    /// [`PlacementServer::local_addr`]).
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Admission queue capacity in transactions (default 16384). This
    /// is the overload knob: it bounds both memory and the latency of
    /// admitted requests; anything beyond it is shed with
    /// [`RejectReason::QueueFull`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Per-connection credit window in requests (default 256): how
    /// many requests a client may have in flight. Enforced by pausing
    /// reads, i.e. TCP backpressure — never by disconnecting.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn credit_window(mut self, window: u32) -> Self {
        assert!(window > 0, "credit window must be positive");
        self.credit_window = window;
        self
    }

    /// Largest accepted frame payload in bytes (default 1 MiB, capped
    /// at [`MAX_FRAME_BYTES_CEILING`]). Larger frames are shed with
    /// [`RejectReason::TooLarge`] and the connection is closed (the
    /// unread payload makes the stream unframable).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or above the ceiling.
    pub fn max_frame_bytes(mut self, bytes: u32) -> Self {
        assert!(
            bytes > 0 && bytes <= MAX_FRAME_BYTES_CEILING,
            "max_frame_bytes must be in 1..={MAX_FRAME_BYTES_CEILING}"
        );
        self.max_frame_bytes = bytes;
        self
    }

    /// Caps the dispatcher's placement rate (transactions per second).
    /// An operations knob — useful to bound a node's resource share —
    /// and the deterministic way to drive the server into overload in
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if `rate == 0`.
    pub fn max_placements_per_sec(mut self, rate: u64) -> Self {
        assert!(rate > 0, "placement rate cap must be positive");
        self.max_placements_per_sec = Some(rate);
        self
    }

    /// Binds the listener, builds the fleet, and spawns the accept
    /// loop and dispatcher.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    ///
    /// # Panics
    ///
    /// Panics if no fleet was configured, or on any condition
    /// [`RouterFleetBuilder::build`] rejects.
    pub fn start(self) -> io::Result<PlacementServer> {
        let fleet = self
            .fleet
            .expect("PlacementServerBuilder::fleet is required")
            .build();
        let shards = fleet.k();
        let listener =
            TcpListener::bind(self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let local_addr = listener.local_addr()?;

        let admission = Arc::new(Admission {
            state: Mutex::new(AdmissionState {
                queue: AdmissionQueue::new(self.queue_capacity),
                draining: false,
            }),
            cv: Condvar::new(),
        });
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let metrics = Arc::new(ServerMetrics::new());
        metrics.init_shards(shards);
        let stop_accept = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let dispatcher = {
            let admission = admission.clone();
            let registry = registry.clone();
            let metrics = metrics.clone();
            let rate = self.max_placements_per_sec;
            std::thread::Builder::new()
                .name("optchain-dispatch".into())
                .spawn(move || dispatcher_loop(fleet, admission, registry, metrics, rate))
                .expect("spawn dispatcher")
        };

        let acceptor = {
            let admission = admission.clone();
            let registry = registry.clone();
            let metrics = metrics.clone();
            let stop_accept = stop_accept.clone();
            let conn_threads = conn_threads.clone();
            let credit_window = self.credit_window;
            let max_frame_bytes = self.max_frame_bytes;
            std::thread::Builder::new()
                .name("optchain-accept".into())
                .spawn(move || {
                    accept_loop(
                        listener,
                        admission,
                        registry,
                        metrics,
                        stop_accept,
                        conn_threads,
                        credit_window,
                        max_frame_bytes,
                        shards,
                    )
                })
                .expect("spawn acceptor")
        };

        Ok(PlacementServer {
            local_addr,
            admission,
            registry,
            metrics,
            stop_accept,
            conn_threads,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }
}

// ---------------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: TcpListener,
    admission: Arc<Admission>,
    registry: Registry,
    metrics: Arc<ServerMetrics>,
    stop_accept: Arc<AtomicBool>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    credit_window: u32,
    max_frame_bytes: u32,
    shards: u32,
) {
    let mut next_conn_id = 0u64;
    loop {
        let accepted = listener.accept();
        // Shutdown wakes a blocked `accept` by connecting to it.
        if stop_accept.load(Ordering::Relaxed) {
            return;
        }
        reap_finished(&conn_threads);
        match accepted {
            Ok((stream, _peer)) => {
                let conn_id = next_conn_id;
                next_conn_id += 1;
                // A connection that died during setup is not a server
                // error; drop it and keep accepting.
                let _ = setup_connection(
                    conn_id,
                    stream,
                    &admission,
                    &registry,
                    &metrics,
                    &conn_threads,
                    credit_window,
                    max_frame_bytes,
                    shards,
                );
            }
            // Transient (ECONNABORTED) or lasting (EMFILE): back off
            // rather than spin on an error that returns at once.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Joins connection threads that have already finished, so
/// `conn_threads` tracks live connections instead of growing without
/// bound under connection churn (shutdown joins whatever remains).
fn reap_finished(conn_threads: &Mutex<Vec<JoinHandle<()>>>) {
    let mut threads = conn_threads.lock().expect("threads mutex");
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            let _ = threads.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn setup_connection(
    conn_id: u64,
    stream: TcpStream,
    admission: &Arc<Admission>,
    registry: &Registry,
    metrics: &Arc<ServerMetrics>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    credit_window: u32,
    max_frame_bytes: u32,
    shards: u32,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let write_stream = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    // Sized so the dispatcher can never block on a full outbox: at
    // most `credit_window` responses are ever outstanding (the reader
    // stops admitting beyond the window), plus the hello and a
    // connection-level rejection.
    let (outbox, outbox_rx) = mpsc::sync_channel::<Outgoing>(credit_window as usize + 8);
    let window = Arc::new(Window::new());

    outbox
        .send(Outgoing::Uncredited(Response::Hello {
            credit_window,
            max_frame_bytes,
            shards,
        }))
        .expect("fresh outbox has room");

    registry.lock().expect("registry mutex").insert(
        conn_id,
        ConnEntry {
            outbox: outbox.clone(),
            shutdown_handle,
        },
    );
    metrics.on_connection_opened();

    let writer = {
        let window = window.clone();
        let metrics = metrics.clone();
        std::thread::Builder::new()
            .name(format!("optchain-conn-{conn_id}-w"))
            .spawn(move || writer_loop(write_stream, outbox_rx, window, metrics))
            .expect("spawn conn writer")
    };
    let reader = {
        let admission = admission.clone();
        let registry = registry.clone();
        let metrics = metrics.clone();
        let window = window.clone();
        std::thread::Builder::new()
            .name(format!("optchain-conn-{conn_id}-r"))
            .spawn(move || {
                reader_loop(
                    conn_id,
                    stream,
                    outbox,
                    window,
                    admission,
                    metrics.clone(),
                    credit_window,
                    max_frame_bytes,
                );
                // The reader owns teardown: deregister (dropping the
                // registry's outbox sender) so the writer can finish.
                registry.lock().expect("registry mutex").remove(&conn_id);
                metrics.on_connection_closed();
            })
            .expect("spawn conn reader")
    };
    let mut threads = conn_threads.lock().expect("threads mutex");
    threads.push(writer);
    threads.push(reader);
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-connection reader
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    conn_id: u64,
    stream: TcpStream,
    outbox: SyncSender<Outgoing>,
    window: Arc<Window>,
    admission: Arc<Admission>,
    metrics: Arc<ServerMetrics>,
    credit_window: u32,
    max_frame_bytes: u32,
) {
    // A client pipelines up to its credit window of frames: read them
    // a socket buffer at a time, not a prefix and a payload at a time.
    let mut stream = BufReader::with_capacity(64 << 10, stream);
    let mut frame = Vec::new();
    loop {
        let payload = match protocol::read_frame(&mut stream, max_frame_bytes, &mut frame) {
            Ok(FrameRead::Payload) => &frame[..],
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::TooLarge { .. }) => {
                // The oversized payload was never read, so the stream
                // cannot be re-framed: reject, then close. req_id 0 on
                // the wire means "no particular request" here — no
                // credit was acquired for the unreadable frame.
                metrics.on_shed(RejectReason::TooLarge, 1);
                let _ = outbox.send(Outgoing::Uncredited(Response::Reject {
                    req_id: 0,
                    reason: RejectReason::TooLarge,
                }));
                break;
            }
            Err(_) => break,
        };
        let request = match protocol::decode_rows(payload) {
            Ok(request) => request,
            Err(_) => {
                metrics.on_shed(RejectReason::Malformed, 1);
                let _ = outbox.send(Outgoing::Uncredited(Response::Reject {
                    req_id: 0,
                    reason: RejectReason::Malformed,
                }));
                break;
            }
        };
        // One credit per request; blocking here (not buffering) is the
        // per-connection backpressure. The writer returns the credit
        // when the response hits the socket.
        if !window.acquire(credit_window) {
            break;
        }
        let response = handle_request(conn_id, request, &admission, &metrics);
        if let Some(response) = response {
            if outbox.send(Outgoing::Credited(response)).is_err() {
                break;
            }
        }
    }
    // Whatever ended the read loop — clean EOF, a malformed frame, an
    // oversized frame — requests already admitted still get their
    // responses: hold the registry entry (deregistration happens after
    // this returns) until the writer has returned every credit.
    window.wait_idle();
    window.close();
    let _ = stream.get_ref().shutdown(Shutdown::Read);
}

/// Admits, sheds, or directly answers one request. `None` means the
/// request was queued and the dispatcher will answer it.
fn handle_request(
    conn_id: u64,
    request: Decoded<TxRows>,
    admission: &Admission,
    metrics: &ServerMetrics,
) -> Option<Response> {
    match request {
        Decoded::Metrics { req_id } => Some(Response::MetricsText {
            req_id,
            text: metrics.render(admission.gauges()),
        }),
        Decoded::Query { req_id, txid } => {
            let mut s = admission.state.lock().expect("admission mutex");
            if s.draining {
                metrics.on_shed(RejectReason::Shutdown, 1);
                return Some(Response::Reject {
                    req_id,
                    reason: RejectReason::Shutdown,
                });
            }
            // Queries ride the queue at maximum priority: they answer
            // from placed state, so they should not wait behind bulk
            // submissions — but they still occupy one bounded slot.
            let push = s.queue.try_push(
                u64::MAX,
                1,
                Work::Query {
                    conn: conn_id,
                    req_id,
                    txid,
                },
            );
            match push {
                Ok(()) => {
                    admission.cv.notify_all();
                    None
                }
                Err(_) => {
                    metrics.on_shed(RejectReason::QueueFull, 1);
                    Some(Response::Reject {
                        req_id,
                        reason: RejectReason::QueueFull,
                    })
                }
            }
        }
        // An empty batch is trivially placed.
        Decoded::Place { req_id, txs, .. } if txs.is_empty() => Some(Response::AckBatch {
            req_id,
            shards: Vec::new(),
        }),
        Decoded::Place {
            req_id,
            fee,
            batch,
            txs,
        } => admit(conn_id, req_id, fee, txs, batch, admission, metrics),
    }
}

/// Admission decision for a submit request, atomic under the admission
/// mutex: shutdown, then capacity. A request is admitted or refused
/// whole; an id the fleet's graph still holds is no refusal — the fleet
/// acks it with the shard it holds. `None` means admitted (the
/// dispatcher answers); otherwise the typed rejection to send back.
fn admit(
    conn: u64,
    req_id: u64,
    fee: u64,
    txs: TxRows,
    batch: bool,
    admission: &Admission,
    metrics: &ServerMetrics,
) -> Option<Response> {
    let ntxs = txs.len();
    let mut s = admission.state.lock().expect("admission mutex");
    let refused = if s.draining {
        Some(RejectReason::Shutdown)
    } else {
        let admitted_at = Instant::now();
        let work = Work::Place {
            conn,
            req_id,
            txs,
            batch,
            admitted_at,
        };
        let full = s.queue.try_push(fee, ntxs, work).is_err();
        full.then_some(RejectReason::QueueFull)
    };
    drop(s);
    if let Some(reason) = refused {
        metrics.on_shed(reason, 1);
        return Some(Response::Reject { req_id, reason });
    }
    metrics.on_admitted(ntxs as u64);
    admission.cv.notify_all();
    None
}

// ---------------------------------------------------------------------------
// Per-connection writer
// ---------------------------------------------------------------------------

fn writer_loop(
    stream: TcpStream,
    rx: Receiver<Outgoing>,
    window: Arc<Window>,
    metrics: Arc<ServerMetrics>,
) {
    let mut w = BufWriter::new(stream);
    let mut payload = Vec::new();
    let mut dead = false;
    // Drain until every sender (registry + reader + transient
    // dispatcher clones) is gone, releasing credits even when the
    // socket has failed — otherwise a reader blocked on the window
    // would never observe the close.
    while let Ok(first) = rx.recv() {
        let mut pending = Some(first);
        while let Some(outgoing) = pending.take() {
            // Only Credited responses release a credit — the teardown
            // wait_idle relies on acquires and releases matching, and
            // the sender tagged each response explicitly.
            let (response, consumes_credit) = match outgoing {
                Outgoing::Credited(response) => (response, true),
                Outgoing::Uncredited(response) => (response, false),
            };
            let is_ack = matches!(response, Response::Ack { .. } | Response::AckBatch { .. });
            if !dead {
                protocol::encode_response(&response, &mut payload);
                if protocol::write_frame(&mut w, &payload).is_err() {
                    dead = true;
                }
            }
            if dead && is_ack {
                metrics.on_ack_to_closed_conn();
            }
            if consumes_credit {
                window.release();
            }
            // Keep the socket saturated while the outbox has more;
            // flush once it momentarily runs dry.
            pending = match rx.try_recv() {
                Ok(next) => Some(next),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
            };
        }
        if !dead && w.flush().is_err() {
            dead = true;
        }
    }
    let _ = w.flush();
    if let Ok(stream) = w.into_inner() {
        let _ = stream.shutdown(Shutdown::Write);
    }
    window.close();
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

fn dispatcher_loop(
    fleet: RouterFleet,
    admission: Arc<Admission>,
    registry: Registry,
    metrics: Arc<ServerMetrics>,
    rate: Option<u64>,
) {
    let mut handles: HashMap<u64, optchain_core::FleetHandle> = HashMap::new();
    let mut placed_total = 0u64;
    let started = Instant::now();
    let mut batch: Vec<crate::queue::Admitted<Work>> = Vec::new();
    // The round handed to the fleet whose acks are not yet routed. The
    // next round is submitted before this one's results are collected,
    // so the placement thread always has work queued behind the drain
    // marker instead of idling while the dispatcher routes acks.
    let mut in_flight: Vec<Pending> = Vec::new();
    // Fleet-counter snapshots (cross-shard ratio, rebalancer progress)
    // cost a fleet round trip, so they are taken at most every
    // FLEET_POLL_INTERVAL instead of per ack.
    let mut polled_at = 0u64;
    // Backdated so the first placements are snapshotted promptly.
    let mut last_poll = Instant::now()
        .checked_sub(FLEET_POLL_INTERVAL)
        .unwrap_or_else(Instant::now);

    loop {
        batch.clear();
        {
            let mut s = admission.state.lock().expect("admission mutex");
            loop {
                let mut pulled = 0usize;
                while pulled < DISPATCH_CHUNK {
                    let Some(entry) = s.queue.pop() else { break };
                    pulled += entry.txs;
                    batch.push(entry);
                }
                // Nothing new: finish the round in flight before waiting.
                if !batch.is_empty() || !in_flight.is_empty() {
                    break;
                }
                if s.draining {
                    // Queue fully drained and no more admissions can
                    // arrive: the server is done. Take a final counter
                    // snapshot while the fleet still answers.
                    drop(s);
                    poll_fleet_stats(&fleet, &metrics);
                    fleet.shutdown();
                    return;
                }
                s = admission.cv.wait(s).expect("admission mutex");
            }
        }

        // Phase 1: hand each request to the fleet as one detached
        // (fire-and-forget) message — placements for many connections
        // pipeline through the fleet's queue without a round trip.
        let mut per_conn: HashMap<u64, Vec<PendingAck>> = HashMap::new();
        for entry in batch.drain(..) {
            match entry.work {
                Work::Query { conn, req_id, txid } => {
                    let shard = fleet.shard_of(txid).map(|s| s.0);
                    send_to_conn(
                        &registry,
                        conn,
                        Response::QueryResult { req_id, shard },
                        &metrics,
                    );
                }
                Work::Place {
                    conn,
                    req_id,
                    txs,
                    batch: is_batch,
                    admitted_at,
                } => {
                    pace(rate, started, placed_total, &admission);
                    let ntxs = txs.len();
                    handles
                        .entry(conn)
                        .or_insert_with(|| fleet.handle(conn))
                        .submit_detached(txs);
                    placed_total += ntxs as u64;
                    per_conn.entry(conn).or_default().push(PendingAck {
                        req_id,
                        ntxs,
                        batch: is_batch,
                        admitted_at,
                    });
                }
            }
        }
        // Each touched connection's drain marker goes right behind its
        // requests; the results are collected a round later.
        let round: Vec<Pending> = per_conn
            .into_iter()
            .map(|(conn, acks)| Pending {
                conn,
                acks,
                results: handles
                    .get(&conn)
                    .expect("handle created in phase 1")
                    .drain_later(),
            })
            .collect();

        // Phase 2: collect the previous round's results and route its
        // acks, each connection's in the order its requests were
        // submitted (global sequence numbers are monotone per
        // connection, and a drain returns them sorted).
        for pending in std::mem::replace(&mut in_flight, round) {
            route_acks(pending, &registry, &metrics);
        }

        // Drop FleetHandles for connections that have deregistered so
        // churn doesn't accumulate them. Safe at this point: a
        // connection cannot deregister while it has queued work (the
        // reader holds its credits until the acks are written), so a
        // connection with a round still in flight is registered; conn
        // ids are never reused, and detached results live fleet-side
        // keyed by conn id — so a handle can always be recreated if
        // ever needed.
        if !handles.is_empty() {
            let registry = registry.lock().expect("registry mutex");
            handles.retain(|conn, _| registry.contains_key(conn));
        }

        if placed_total > polled_at && last_poll.elapsed() >= FLEET_POLL_INTERVAL {
            poll_fleet_stats(&fleet, &metrics);
            polled_at = placed_total;
            last_poll = Instant::now();
        }
    }
}

/// One connection's requests of one dispatcher round, and the drain
/// that collects their shards.
struct Pending {
    conn: u64,
    acks: Vec<PendingAck>,
    results: optchain_core::PendingDrain,
}

/// A request handed to the fleet whose shards its round's drain returns.
struct PendingAck {
    req_id: u64,
    ntxs: usize,
    /// `SubmitBatch` (answered with `AckBatch`) rather than `Submit`.
    batch: bool,
    admitted_at: Instant,
}

/// Waits for `pending`'s drain and sends one ack per request to its
/// connection.
fn route_acks(pending: Pending, registry: &Registry, metrics: &ServerMetrics) {
    let Pending {
        conn,
        acks,
        results,
    } = pending;
    let mut shards = results.wait().into_iter().map(|(_, shard)| shard.0);
    for ack in acks {
        let response = if ack.batch {
            let placed: Vec<u32> = (&mut shards).take(ack.ntxs).collect();
            assert_eq!(placed.len(), ack.ntxs, "one shard per submitted tx");
            for &shard in &placed {
                metrics.on_placed_to(shard);
            }
            Response::AckBatch {
                req_id: ack.req_id,
                shards: placed,
            }
        } else {
            let shard = shards.next().expect("one shard per submitted tx");
            metrics.on_placed_to(shard);
            Response::Ack {
                req_id: ack.req_id,
                shard,
            }
        };
        metrics.on_acked(
            ack.ntxs as u64,
            ack.admitted_at.elapsed().as_micros() as u64,
        );
        send_to_conn(registry, conn, response, metrics);
    }
    assert!(
        shards.next().is_none(),
        "drained more results than submitted this round"
    );
}

/// How often the dispatcher refreshes the fleet-counter snapshot in
/// the metrics (each refresh is a blocking fleet round trip).
const FLEET_POLL_INTERVAL: Duration = Duration::from_millis(100);

/// One fleet-counter snapshot into the shared metrics.
fn poll_fleet_stats(fleet: &RouterFleet, metrics: &ServerMetrics) {
    let stats = fleet.stats();
    metrics.record_fleet(stats.placed, stats.cross_placed, stats.rebalance);
}

/// Paces the dispatcher to `rate` placements per second (no-op when
/// uncapped): waits until the virtual schedule catches up, or shutdown
/// begins — a draining server places what it admitted at full speed.
fn pace(rate: Option<u64>, started: Instant, placed_total: u64, admission: &Admission) {
    let Some(rate) = rate else { return };
    let target = Duration::from_secs_f64(placed_total as f64 / rate as f64);
    let mut s = admission.state.lock().expect("admission mutex");
    while !s.draining {
        let Some(wait) = target.checked_sub(started.elapsed()) else {
            return;
        };
        s = admission
            .cv
            .wait_timeout(s, wait)
            .expect("admission mutex")
            .0;
    }
}

fn send_to_conn(registry: &Registry, conn: u64, response: Response, metrics: &ServerMetrics) {
    let outbox = registry
        .lock()
        .expect("registry mutex")
        .get(&conn)
        .map(|e| e.outbox.clone());
    let is_ack = matches!(response, Response::Ack { .. } | Response::AckBatch { .. });
    match outbox {
        Some(outbox) => {
            if outbox.send(Outgoing::Credited(response)).is_err() && is_ack {
                metrics.on_ack_to_closed_conn();
            }
        }
        None => {
            if is_ack {
                metrics.on_ack_to_closed_conn();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A running placement node: a TCP server fronting a [`RouterFleet`]
/// with bounded fee-ordered admission, per-connection credit
/// backpressure, explicit overload shedding, a `/metrics`-style text
/// endpoint, and graceful drain-then-shutdown. See the
/// [crate docs](crate) for the design.
pub struct PlacementServer {
    local_addr: SocketAddr,
    admission: Arc<Admission>,
    registry: Registry,
    metrics: Arc<ServerMetrics>,
    stop_accept: Arc<AtomicBool>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl PlacementServer {
    /// Starts configuring a server.
    pub fn builder() -> PlacementServerBuilder {
        PlacementServerBuilder::new()
    }

    /// The bound listen address (resolves the ephemeral port when the
    /// builder bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live server counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Renders the `/metrics` text exposition (the same body the wire
    /// protocol's `Metrics` request returns).
    pub fn metrics_text(&self) -> String {
        self.metrics.render(self.admission.gauges())
    }

    /// Transactions currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.admission
            .state
            .lock()
            .expect("admission mutex")
            .queue
            .depth()
    }

    /// Begins a graceful drain without blocking: new submissions are
    /// shed with [`RejectReason::Shutdown`] from this point on, while
    /// everything already admitted continues to place and ack. Call
    /// [`PlacementServer::shutdown`] to finish.
    pub fn begin_shutdown(&self) {
        if !self.stop_accept.swap(true, Ordering::Relaxed) {
            // The accept loop blocks in `accept`; a connection to
            // ourselves is what wakes it to see the flag.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
        }
        let mut s = self.admission.state.lock().expect("admission mutex");
        s.draining = true;
        drop(s);
        self.admission.cv.notify_all();
    }

    /// Gracefully drains and shuts the node down: stops accepting,
    /// sheds new work with [`RejectReason::Shutdown`], places and acks
    /// **everything already admitted** (zero lost acks), shuts the
    /// fleet down — flushing its WAL tail under
    /// `.storage(...)` — and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The dispatcher drains the admission queue, acks everything
        // admitted, then shuts the fleet down (WAL tails flushed).
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // Unblock readers parked on their sockets; they deregister
        // themselves, which lets the writers drain and exit.
        let handles: Vec<TcpStream> = {
            let registry = self.registry.lock().expect("registry mutex");
            registry
                .values()
                .filter_map(|e| e.shutdown_handle.try_clone().ok())
                .collect()
        };
        for handle in handles {
            let _ = handle.shutdown(Shutdown::Read);
        }
        loop {
            let thread = self.conn_threads.lock().expect("threads mutex").pop();
            match thread {
                Some(thread) => {
                    let _ = thread.join();
                }
                None => break,
            }
        }
    }
}

impl std::fmt::Debug for PlacementServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Drop for PlacementServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
