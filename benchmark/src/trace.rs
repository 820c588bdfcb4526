//! Harness-side tracing: in-memory spans around every call into the
//! program, a [`TracedStorage`] decorator that puts spans around the
//! `Storage` calls a durable router makes, and a counting allocator.
//!
//! All of it is off unless [`start`] was called, so the end-to-end
//! metrics are measured with tracing off: an untraced run never wraps
//! the storage and pays one thread-local flag read per harness call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use optchain_storage::Storage;

/// "No parent" / "no request" marker in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// One timed call. Spans of one request share `request`; `parent` is
/// the id of the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1, except aggregated appends).
    pub count: u32,
    /// Payload bytes the call moved (storage spans; 0 elsewhere).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// `Storage::append` runs once per transaction; one span each would be
/// millions of spans, so appends are summed per enclosing span and
/// written as one child (`count` = appends, `end − start` = their
/// summed duration, `start` = the first append's start).
#[derive(Default)]
struct AppendAcc {
    first_start_ns: u64,
    dur_ns: u64,
    count: u32,
    bytes: u64,
}

/// Journal positions the traced storage saw its writer reach — what a
/// recovery of that journal has to re-apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalMarks {
    /// `upto_seq` of the last full checkpoint installed.
    pub full_upto: u64,
    /// `upto_seq` of the last delta stacked on it (0: none).
    pub delta_upto: u64,
    /// Sequence number the next append would get.
    pub next_seq: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Ids of the currently open spans, innermost last.
    open: Vec<u32>,
    request: u32,
    appends: AppendAcc,
    marks: JournalMarks,
}

fn with_tracer(f: impl FnOnce(&mut Tracer)) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            f(t);
        }
    });
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: NONE,
            appends: AppendAcc::default(),
            marks: JournalMarks::default(),
        })
    });
}

/// Stops recording and returns every span, in order of opening, with
/// the journal positions last seen.
pub fn stop() -> (Vec<Span>, JournalMarks) {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|t| (t.spans, t.marks))
            .unwrap_or_default()
    })
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Tags the spans opened from now on with request `id`.
pub fn set_request(id: u32) {
    with_tracer(|t| t.request = id);
}

/// An open span; closes when dropped. Inert while tracing is off.
pub struct Guard {
    id: u32,
    bytes: u64,
}

impl Guard {
    /// Records the payload bytes this call moved.
    pub fn bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else { return NONE };
        let id = t.spans.len() as u32;
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            id,
            parent: t.open.last().copied().unwrap_or(NONE),
            request: t.request,
            name,
            start_ns: now,
            end_ns: now,
            count: 1,
            bytes: 0,
        });
        t.open.push(id);
        id
    });
    Guard { id, bytes: 0 }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == NONE {
            return;
        }
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(t) = t.as_mut() else { return };
            let now = t.epoch.elapsed().as_nanos() as u64;
            let popped = t.open.pop();
            debug_assert_eq!(popped, Some(self.id), "spans close innermost first");
            let span = &mut t.spans[self.id as usize];
            span.end_ns = now;
            span.bytes = self.bytes;
            let request = span.request;
            // Appends happen directly under a harness span (the router
            // is not instrumented), so the outermost close collects them.
            if t.open.is_empty() && t.appends.count > 0 {
                let acc = std::mem::take(&mut t.appends);
                let id = t.spans.len() as u32;
                t.spans.push(Span {
                    id,
                    parent: self.id,
                    request,
                    name: "storage.append",
                    start_ns: acc.first_start_ns,
                    end_ns: acc.first_start_ns + acc.dur_ns,
                    count: acc.count,
                    bytes: acc.bytes,
                });
            }
        });
    }
}

/// A `Storage` decorator, handed to `RouterBuilder::storage` by the
/// traced run only: every call is forwarded unchanged with a span
/// around it (appends aggregated, see [`AppendAcc`]).
#[derive(Debug)]
pub struct TracedStorage<S: Storage> {
    inner: S,
}

impl<S: Storage> TracedStorage<S> {
    pub fn new(inner: S) -> Self {
        TracedStorage { inner }
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn put_meta(&mut self, payload: &[u8]) -> io::Result<()> {
        self.inner.put_meta(payload)
    }

    fn meta(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.meta()
    }

    fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let started = Instant::now();
        let result = self.inner.append(payload);
        let dur_ns = started.elapsed().as_nanos() as u64;
        with_tracer(|t| {
            if t.appends.count == 0 {
                t.appends.first_start_ns =
                    started.saturating_duration_since(t.epoch).as_nanos() as u64;
            }
            t.appends.dur_ns += dur_ns;
            t.appends.count += 1;
            t.appends.bytes += payload.len() as u64;
            if let Ok(seq) = &result {
                t.marks.next_seq = seq + 1;
            }
        });
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        let _span = span("storage.flush");
        self.inner.flush()
    }

    fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    fn put_checkpoint(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        let mut span = span("storage.put_checkpoint");
        span.bytes(blob.len() as u64);
        with_tracer(|t| {
            t.marks.full_upto = upto_seq;
            t.marks.delta_upto = 0;
        });
        self.inner.put_checkpoint(upto_seq, blob)
    }

    fn checkpoint(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.inner.checkpoint()
    }

    fn put_checkpoint_delta(&mut self, upto_seq: u64, blob: &[u8]) -> io::Result<()> {
        let mut span = span("storage.put_checkpoint_delta");
        span.bytes(blob.len() as u64);
        with_tracer(|t| t.marks.delta_upto = upto_seq);
        self.inner.put_checkpoint_delta(upto_seq, blob)
    }

    fn checkpoint_chain(&self) -> io::Result<Vec<(u64, Vec<u8>)>> {
        self.inner.checkpoint_chain()
    }

    fn replay(&self, from_seq: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.inner.replay(from_seq, visit)
    }

    fn gc(&mut self) -> io::Result<u64> {
        let mut span = span("storage.gc");
        let reclaimed = self.inner.gc()?;
        span.bytes(reclaimed);
        Ok(reclaimed)
    }

    fn bytes_on_disk(&self) -> u64 {
        self.inner.bytes_on_disk()
    }
}

/// Writes the spans as one JSON document.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since trace start\", \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"count\": {}, \"bytes\": {}}}{comma}",
            s.id,
            opt(s.parent),
            opt(s.request),
            s.name,
            s.start_ns,
            s.end_ns,
            s.count,
            s.bytes
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

// ---------------------------------------------------------------------
// Counting allocator (this binary only)
// ---------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to `System`; while [`count_allocs`] runs it also counts
/// every `alloc`/`alloc_zeroed`/`realloc`. Off, it costs one relaxed
/// load of a flag nobody writes, so untraced runs are not perturbed.
pub struct CountingAlloc;

// SAFETY: every operation is delegated to `System` with its arguments
// unchanged; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` through this
        // allocator with `layout`; both are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this
        // allocator with `layout`; both are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and returns its result with the heap allocations (of every
/// thread) made meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    (value, ALLOCS.load(Ordering::Relaxed) - before)
}
