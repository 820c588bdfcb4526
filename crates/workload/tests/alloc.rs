//! The generator allocates about two heap blocks per transaction: the
//! transaction's own inputs and outputs. The input scratch is reused,
//! the outputs are moved into the transaction, and the stream's `Vec`
//! is sized once from `size_hint`; what remains above 2.0 is wallet
//! pools growing. Counted with a counting allocator, so the claim is a
//! count, not a timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use optchain_utxo::Transaction;
use optchain_workload::{WorkloadConfig, WorkloadGenerator};

/// Allocations made by every thread; this file holds exactly one test,
/// so no other test's work lands in the count.
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

const TXS: usize = 200_000;

#[test]
fn generator_allocates_at_most_2_1_per_tx() {
    // Building the wallets is a one-off; the stream is what is counted.
    let generator = WorkloadGenerator::new(WorkloadConfig::bitcoin_like().with_seed(0xB17C04));
    let before = ALLOCS.load(Ordering::Relaxed);
    let txs: Vec<Transaction> = generator.take(TXS).collect();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(txs.len(), TXS);
    let per_tx = allocs as f64 / TXS as f64;
    assert!(
        per_tx <= 2.1,
        "{allocs} allocations for {TXS} transactions, {per_tx:.3} per tx"
    );
}
