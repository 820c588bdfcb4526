//! The bulk paths stay amortized allocation-free: fewer than 0.1 heap
//! allocations per placed transaction, however many client handles feed
//! a fleet, and however often a router's telemetry board changes. Each
//! call places on the caller's thread into the only graph, so only
//! arena growth and the per-client result buffers remain. Counted with
//! a counting allocator, so the claim is a count, not a timing. (The
//! decision and router rungs are gated by `scripts/bench_gate.py` on
//! the benchmark's `core.placer.allocs_per_tx` /
//! `core.router.allocs_per_tx`, over static boards only.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use optchain::prelude::*;

/// Allocations made by every thread, so each test holds `COUNTING`
/// from its first allocation to its last count.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: Mutex<()> = Mutex::new(());

struct CountingAlloc;

// SAFETY: every operation is delegated to `System` with its arguments
// unchanged; the counter is a relaxed statistic that publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TXS: usize = 50_000;
/// Big enough that the per-call lock is negligible, small enough to
/// interleave the clients.
const CHUNK: usize = 4_096;

#[test]
fn fleet_ingest_allocates_under_a_tenth_per_worker_ingested_tx() {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let stream: Arc<[Transaction]> =
        optchain::workload::generate(WorkloadConfig::bitcoin_like().with_seed(0xB17C04), TXS)
            .into();
    for clients in [1u64, 2] {
        let fleet = RouterFleet::builder().shards(16).build();
        let handles: Vec<_> = (0..clients).map(|c| fleet.handle(c)).collect();
        let before = ALLOCS.load(Ordering::Relaxed);
        for (i, start) in (0..TXS).step_by(CHUNK).enumerate() {
            let end = (start + CHUNK).min(TXS);
            let _ = handles[i % handles.len()].submit_batch_detached(&stream, start..end);
        }
        let placed: usize = handles.iter().map(|h| h.drain().len()).sum();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(placed, TXS, "every submission must place");
        let per_tx = allocs as f64 / placed as f64;
        assert!(
            per_tx < 0.1,
            "{clients} clients: {allocs} allocations, {per_tx:.4} per placed tx"
        );
    }
}

/// Every 2,048 placements the board changes, to one of 1, 2, 4 or 16
/// distinct values: each change rebuilds the L2S memo's classes and
/// empties its table, and placements with more than 10 input shards
/// take the numeric integral, all inside the memo's own buffers. The
/// same stream over a board that never changes (its 16-value board,
/// the one with the most classes) is the baseline: what the changes
/// add must stay far below one allocation per memo miss.
#[test]
fn router_under_changing_telemetry_allocates_under_a_tenth_per_placed_tx() {
    const K: usize = 16;
    const FEED: usize = 2_048;
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let stream =
        optchain::workload::generate(WorkloadConfig::bitcoin_like().with_seed(0xB17C04), TXS);
    let boards: Vec<Vec<ShardTelemetry>> = (0..TXS.div_ceil(FEED))
        .map(|b| {
            let distinct = [1, 2, 4, 16][b % 4];
            (0..K)
                .map(|s| {
                    let level = ((s * 7 + b) % distinct) as f64;
                    ShardTelemetry::new(0.05 + 0.01 * level, 0.5 + 0.25 * (level + b as f64))
                })
                .collect()
        })
        .collect();
    // Allocations and memo misses of the stream fed
    // `boards[board_of(i)]` before its i-th chunk.
    let run = |board_of: fn(usize) -> usize| {
        let mut router = Router::builder().shards(K as u32).build();
        let mut out = Vec::with_capacity(FEED);
        let before = ALLOCS.load(Ordering::Relaxed);
        for (i, chunk) in stream.chunks(FEED).enumerate() {
            router.feed_telemetry(&boards[board_of(i)]);
            router.submit_batch(chunk, &mut out);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let (hits, misses) = router.l2s_memo_stats();
        assert_eq!(hits + misses, TXS as u64, "every placement reads the memo");
        (allocs, misses)
    };
    let (allocs, misses) = run(|i| i);
    let (allocs_static, _) = run(|_| 3);
    assert!(
        misses >= boards.len() as u64,
        "every board change must rebuild"
    );
    let per_tx = allocs as f64 / TXS as f64;
    assert!(
        per_tx < 0.1,
        "{allocs} allocations, {per_tx:.4} per placed tx"
    );
    let added = allocs.saturating_sub(allocs_static);
    assert!(
        added < misses / 10,
        "board changes added {added} allocations ({allocs} against {allocs_static} \
         on a static board) over {misses} memo misses"
    );
}
