//! Eviction retires rows in place: once the window has warmed up, a
//! stream under a retention policy never rebuilds, and allocates only
//! for the survivors it keeps; and an unbounded graph holds a bounded
//! number of heap bytes a node. Counted with a counting allocator, so
//! every claim is a count, not a timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use optchain_tan::hash::{splitmix64, TxIdBuildHasher};
use optchain_tan::{NodeId, RetentionPolicy, TanGraph, TxIndex};
use optchain_utxo::{Transaction, TxId, TxOutput, WalletId};
use optchain_workload::{generate, WorkloadConfig};

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation and `grown` net bytes.
fn count(grown: i64) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    LIVE.with(|n| n.set(n.get() + grown));
}

struct CountingAlloc;

// SAFETY: every operation is delegated to `System` with its arguments
// unchanged; the counters are thread-local statistics with no
// destructor, so touching them inside the allocator cannot allocate or
// re-enter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by `System` through this
        // allocator with `layout`; both are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` through this
        // allocator with `layout`; both are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Net heap bytes `build` leaves allocated on this thread, with what it
/// built.
fn live_bytes<T>(build: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let built = build();
    (built, LIVE.with(Cell::get) - before)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARM_UP: usize = 60_000;
const MEASURED: usize = 200_000;

/// A UTXO stream: every transaction creates one to four outputs
/// (`payout_outputs` of them on every thousandth, when set) and spends
/// one to three unspent ones — a dozen on one in twenty, none on
/// another — mostly young, one in ten from anywhere in history, each
/// output once. Without payouts no transaction is spent more than four
/// times, so no spender list outgrows its first chunk.
fn stream(n: usize, payout_outputs: Option<u32>) -> Vec<Transaction> {
    let mut state = 0x5eed_0f57_ead1_e550u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (splitmix64(state) % bound as u64) as usize
    };
    let mut unspent = Vec::new();
    (0..n)
        .map(|i| {
            let id = TxId(i as u64);
            let inputs = match next(20) {
                0 => 0,
                1 => 12,
                _ => 1 + next(3),
            };
            let mut tx = Transaction::builder(id);
            for _ in 0..inputs.min(unspent.len()) {
                let young = unspent.len().min(60);
                let pick = match next(10) {
                    0 => next(unspent.len()),
                    _ => unspent.len() - 1 - next(young),
                };
                tx = tx.input(unspent.swap_remove(pick));
            }
            let outputs = match payout_outputs {
                Some(fanout) if i % 1_000 == 0 => fanout,
                _ => 1 + next(4) as u32,
            };
            for vout in 0..outputs {
                unspent.push(id.outpoint(vout));
                tx = tx.output(TxOutput::new(1, WalletId(0)));
            }
            tx.build()
        })
        .collect()
}

/// Feeds `txs` the way a router does: insert, then hold the horizon
/// `window` behind the stream. Returns (allocations, peak arena bytes).
fn feed(g: &mut TanGraph, txs: &[Transaction], window: usize) -> (u64, usize) {
    let before = ALLOCS.with(Cell::get);
    let mut peak = 0;
    for tx in txs {
        g.insert_tx(tx);
        g.evict_before(g.len().saturating_sub(window) as u32);
        peak = peak.max(g.arena_bytes());
    }
    (ALLOCS.with(Cell::get) - before, peak)
}

#[test]
fn a_warm_window_never_allocates_or_resizes() {
    let txs = stream(WARM_UP + MEASURED, None);
    let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(10_000));
    feed(&mut g, &txs[..WARM_UP], 10_000);
    let arena = g.arena_bytes();
    let (allocs, peak) = feed(&mut g, &txs[WARM_UP..], 10_000);
    assert_eq!(g.live_len(), 10_000);
    assert_eq!(allocs, 0, "steady-state insert + evict must not allocate");
    assert_eq!(peak, arena, "the arenas must not be resized or rebuilt");
    assert_eq!(g.arena_bytes(), arena);
}

#[test]
fn hub_retention_allocates_only_for_survivors() {
    let window = RetentionPolicy::HUB_WINDOW;
    let txs = stream(WARM_UP + MEASURED, Some(200));
    let mut g = TanGraph::with_retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 8 });
    feed(&mut g, &txs[..WARM_UP], window);
    let (allocs, peak) = feed(&mut g, &txs[WARM_UP..], window);
    assert!(
        g.retained_nodes() > MEASURED / 20,
        "the stream must keep survivors"
    );
    assert!(
        allocs as f64 <= 0.01 * MEASURED as f64,
        "{allocs} allocations over {MEASURED} txs: only survivor-table growth may allocate"
    );
    // What one resident row costs: an unbounded graph over a prefix.
    let mut reference = TanGraph::new();
    feed(&mut reference, &txs[..WARM_UP], usize::MAX);
    let per_row = reference.arena_bytes() as f64 / WARM_UP as f64;
    let resident = (window + g.retained_nodes()) as f64;
    assert!(
        (peak as f64) <= 2.0 * per_row * resident,
        "peak arena {peak} B for {resident} resident rows of ~{per_row:.0} B"
    );
}

/// Transactions of the heap-bytes gate.
const UNBOUNDED_TXS: usize = 500_000;

/// Net heap bytes a node of an unbounded graph over [`UNBOUNDED_TXS`] of
/// the Bitcoin-like workload (seed 7), `TxId` index included, measured
/// when the graph kept every spender in six-slot chunks and indexed ids
/// in a `HashMap<TxId, NodeId>`: 104.41 B. With two spenders in the row
/// and the 8-byte-slot `TxIndex` it is 60.24 B (0.58×): rows 29.4 B
/// (28 B a row, capacity past the last doubling), inputs 8.4 B, overflow
/// chunks 4.2 B, index 16.8 B. Fixed like a golden; the gate is the
/// ratio to it.
const CHUNKED_HASHMAP_BYTES_PER_NODE: f64 = 104.41;

#[test]
fn an_unbounded_graph_holds_two_thirds_of_its_chunked_bytes() {
    let txs = generate(WorkloadConfig::bitcoin_like().with_seed(7), UNBOUNDED_TXS);
    let (g, graph) = live_bytes(|| {
        let mut g = TanGraph::new();
        for tx in &txs {
            g.insert_tx(tx);
        }
        g
    });
    assert_eq!(g.len(), UNBOUNDED_TXS);
    let per_node = graph as f64 / UNBOUNDED_TXS as f64;
    assert!(
        per_node <= 0.65 * CHUNKED_HASHMAP_BYTES_PER_NODE,
        "{per_node:.2} B a node, against {CHUNKED_HASHMAP_BYTES_PER_NODE} B"
    );
    // Where the index stands: 8 bytes a slot against a hash map's 17 a
    // bucket, over the same ids.
    let (_, index) = live_bytes(|| {
        let mut index = TxIndex::new();
        for (i, tx) in txs.iter().enumerate() {
            let fresh = index.insert(tx.id(), NodeId(i as u32), |n| {
                txs[n.index()].id() == tx.id()
            });
            assert!(fresh.is_ok(), "stream ids are distinct");
        }
        index
    });
    let (_, map) = live_bytes(|| {
        let mut map = HashMap::with_hasher(TxIdBuildHasher);
        for (i, tx) in txs.iter().enumerate() {
            map.insert(tx.id(), NodeId(i as u32));
        }
        map
    });
    assert!(
        2 * index <= map,
        "index {index} B against a hash map's {map} B for {UNBOUNDED_TXS} ids"
    );
}
