//! The fleet's bulk path stays amortized allocation-free: fewer than
//! 0.1 heap allocations per placed transaction, however many client
//! handles feed it. Each call places its range on the caller's thread
//! under the fleet's one lock, into the only graph, so only arena
//! growth and the per-client result buffers remain. Counted with a
//! counting allocator, so the claim is a count, not a timing. (The
//! decision and router rungs are gated by `scripts/bench_gate.py` on
//! the benchmark's `core.placer.allocs_per_tx` /
//! `core.router.allocs_per_tx`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use optchain::prelude::*;

/// Allocations made by every thread, so this file holds exactly one
/// test.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

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
