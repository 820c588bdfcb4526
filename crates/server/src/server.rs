//! The placement server: a std-TCP front-end whose dispatcher thread
//! owns the node's one [`Router`].
//!
//! # Threading model
//!
//! ```text
//!                    ┌──────────────┐
//!   accept loop ───▶ │ per-conn     │──▶ bounded admission queue ──▶ dispatcher
//!   (1 thread)       │ reader thread│    (fee-ordered, capacity-     (1 thread, owns the
//!                    └──────────────┘     bounded, shed on full)      one Router, places
//!                    ┌──────────────┐                                 each request inline)
//!   responses ◀───── │ per-conn     │◀─── outbox channel ◀──────────────────┘
//!                    │ writer thread│
//!                    └──────────────┘
//! ```
//!
//! * The **reader** parses frames — a submission's transactions
//!   straight into the one flat [`TxRows`] the dispatcher places row by
//!   row — enforces the per-connection credit window (by *pausing
//!   reads* — a client over its window stalls in TCP backpressure, it
//!   is never disconnected or silently dropped), and admits work into
//!   the bounded fee-ordered queue. Admission failures are shed with a
//!   typed rejection immediately.
//! * The **dispatcher** owns the router [`RouterBuilder::open`] built
//!   (or recovered) from its builder and is its placement thread:
//!   OptChain places one sequence, so one thread both places and routes
//!   acks. It pops admitted work highest-fee-first, a round at a time,
//!   places each request inline — an id the graph still holds is acked
//!   with the shard it holds — and sends its ack straight to the
//!   connection's outbox; a query is answered from the router. A wire
//!   `Submit` is a request of one transaction; it differs from a
//!   `SubmitBatch` only in the ack it gets.
//! * The **writer** drains the outbox to the socket and returns credit.
//!
//! # Overload and failure behavior
//!
//! Every request gets **exactly one response**. When the admission
//! queue is full, new work is rejected with
//! [`RejectReason::QueueFull`]; because the queue is bounded, the
//! latency of *admitted* work is bounded by `queue_capacity` over the
//! placement rate — overload degrades by shedding, never by collapse.
//! During shutdown the server **drains**: everything admitted is still
//! placed and acknowledged (and journaled, under `.storage(...)`), new
//! work is rejected with [`RejectReason::Shutdown`], and the router's
//! journal tail is flushed ([`Router::flush_journal`]) before the
//! server returns. When placing fails — a journal write error under
//! `.storage(...)` — the request is rejected with
//! [`RejectReason::Failed`] (its placements were never acked), and so
//! is every request the dispatcher pops after it, because the router
//! refuses from then on ([`Router::failure`]): the node stays
//! answerable, and shutdown still returns.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use optchain_core::{Router, RouterBuilder, RouterFleetBuilder};
use optchain_utxo::TxId;

use crate::metrics::{AdmissionGauges, ServerMetrics};
use crate::protocol::{
    self, Decoded, FrameRead, RejectReason, Response, TxRows, DEFAULT_MAX_FRAME_BYTES,
    MAX_FRAME_BYTES_CEILING,
};
use crate::queue::AdmissionQueue;

/// Default admission queue capacity, in transactions.
pub const DEFAULT_QUEUE_CAPACITY: usize = 16_384;

/// Default per-connection credit window, in requests.
pub const DEFAULT_CREDIT_WINDOW: u32 = 256;

/// How many transactions the dispatcher pulls per round. Larger rounds
/// take the admission lock less often; smaller rounds re-consult the
/// fee order sooner (a high-fee arrival can only jump work that is
/// still queued, not the at most one round being placed).
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
/// [`RouterBuilder`] describing the router the server places with —
/// every knob (strategy, retention, `.storage(...)` durability and its
/// cadences) composes unchanged.
pub struct PlacementServerBuilder {
    router: Option<RouterBuilder>,
    addr: String,
    queue_capacity: usize,
    credit_window: u32,
    max_frame_bytes: u32,
    max_placements_per_sec: Option<u64>,
}

impl PlacementServerBuilder {
    fn new() -> Self {
        PlacementServerBuilder {
            router: None,
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            credit_window: DEFAULT_CREDIT_WINDOW,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_placements_per_sec: None,
        }
    }

    /// The router to serve (required): the one [`Router`] the dispatcher
    /// owns, opened by [`Self::start`] — built, or recovered from
    /// storage that already holds a journal.
    pub fn router(mut self, router: RouterBuilder) -> Self {
        self.router = Some(router);
        self
    }

    /// [`Self::router`], from the fleet builder's knobs.
    pub fn fleet(self, fleet: RouterFleetBuilder) -> Self {
        self.router(fleet.into())
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

    /// Opens the router, binds the listener, and spawns the accept loop
    /// and the dispatcher that owns the router.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when no router was configured or
    /// [`RouterBuilder::open`] rejects its configuration, what else
    /// opening it reports, and listener bind failures.
    pub fn start(self) -> io::Result<PlacementServer> {
        let router = (self.router)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no router to serve"))?
            .open()?;
        let shards = router.k();
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
        publish(&router, &metrics);
        let stop_accept = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let dispatcher = {
            let admission = admission.clone();
            let registry = registry.clone();
            let metrics = metrics.clone();
            let rate = self.max_placements_per_sec;
            std::thread::Builder::new()
                .name("optchain-dispatch".into())
                .spawn(move || dispatcher_loop(router, admission, registry, metrics, rate))
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
/// mutex: shutdown, then capacity. A request is admitted or
/// refused whole; an id the graph still holds is no refusal — the
/// dispatcher acks it with the shard it holds. `None` means admitted
/// (the dispatcher answers); otherwise the typed rejection to send back.
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
    let refused = s.draining.then_some(RejectReason::Shutdown).or_else(|| {
        let work = Work::Place {
            conn,
            req_id,
            txs,
            batch,
            admitted_at: Instant::now(),
        };
        let full = s.queue.try_push(fee, ntxs, work).is_err();
        full.then_some(RejectReason::QueueFull)
    });
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
    mut router: Router,
    admission: Arc<Admission>,
    registry: Registry,
    metrics: Arc<ServerMetrics>,
    rate: Option<u64>,
) {
    let mut placed_total = 0u64;
    let started = Instant::now();
    let mut round: Vec<crate::queue::Admitted<Work>> = Vec::new();

    loop {
        {
            let mut s = admission.state.lock().expect("admission mutex");
            loop {
                let mut pulled = 0usize;
                while pulled < DISPATCH_CHUNK {
                    let Some(entry) = s.queue.pop() else { break };
                    pulled += entry.txs;
                    round.push(entry);
                }
                if !round.is_empty() {
                    break;
                }
                if s.draining {
                    // Queue fully drained and no more admissions can
                    // arrive: make the whole acked stream durable, then
                    // drop the router. Best-effort — a dead disk leaves
                    // the crash-recovery path to do its job on the
                    // flushed prefix.
                    drop(s);
                    let _ = router.flush_journal();
                    return;
                }
                s = admission.cv.wait(s).expect("admission mutex");
            }
        }

        for entry in round.drain(..) {
            let (conn, req_id) = match entry.work {
                Work::Place { conn, req_id, .. } | Work::Query { conn, req_id, .. } => {
                    (conn, req_id)
                }
            };
            // A failed router answers nothing: its failure is the
            // answer to this and every later request.
            let answer = match entry.work {
                _ if router.failure().is_some() => None,
                Work::Query { txid, .. } => Some(Response::QueryResult {
                    req_id,
                    shard: router.shard_of(txid).map(|s| s.0),
                }),
                Work::Place {
                    txs,
                    batch,
                    admitted_at,
                    ..
                } => {
                    pace(rate, started, placed_total, &admission);
                    placed_total += txs.len() as u64;
                    place(&mut router, &txs).ok().map(|shards| {
                        // The counters a client may read once acked.
                        publish(&router, &metrics);
                        ack(req_id, batch, shards, admitted_at, &metrics)
                    })
                }
            };
            let response = answer.unwrap_or_else(|| {
                metrics.on_shed(RejectReason::Failed, 1);
                Response::Reject {
                    req_id,
                    reason: RejectReason::Failed,
                }
            });
            send_to_conn(&registry, conn, response, &metrics);
        }
    }
}

/// Places `txs` in order and returns one shard per row: the one it was
/// placed into, or — for an id the graph still holds — the one that id
/// holds. Fails with the router's failure; the rows placed before it
/// stay placed in RAM, unacked.
fn place(router: &mut Router, txs: &TxRows) -> io::Result<Vec<u32>> {
    let mut shards = Vec::with_capacity(txs.len());
    for (txid, inputs) in txs.iter() {
        let shard = match router.submit(txid, inputs) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => router.shard_of(txid).ok_or(e)?,
            placed => placed?,
        };
        shards.push(shard.0);
    }
    Ok(shards)
}

/// The ack of a placed request, counted into the metrics.
fn ack(
    req_id: u64,
    batch: bool,
    shards: Vec<u32>,
    admitted_at: Instant,
    metrics: &ServerMetrics,
) -> Response {
    for &shard in &shards {
        metrics.on_placed_to(shard);
    }
    let latency_usec = admitted_at.elapsed().as_micros() as u64;
    metrics.on_acked(shards.len() as u64, latency_usec);
    match batch {
        true => Response::AckBatch { req_id, shards },
        false => Response::Ack {
            req_id,
            shard: shards[0],
        },
    }
}

/// The router's counters into the metrics — O(1) reads, so taken
/// before every ack and never stale.
fn publish(router: &Router, metrics: &ServerMetrics) {
    let placed = router.assignments().len() as u64 - router.adopted_total();
    metrics.record_fleet(placed, router.cross_placed(), router.rebalance_stats());
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

/// A running placement node: a TCP server placing with one [`Router`]
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
    /// **everything already admitted** (zero lost acks; after a
    /// placement failure, answers it with [`RejectReason::Failed`]),
    /// flushes the router's journal tail under `.storage(...)`, drops
    /// the router, and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The dispatcher drains the admission queue, acks everything
        // admitted, then flushes the journal and drops the router.
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
