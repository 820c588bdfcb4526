//! Perf baseline for the placement hot path: replays one large synthetic
//! Bitcoin-like stream through the seed-equivalent allocating OptChain
//! path and through the optimized zero-allocation path, verifies the
//! assignments are identical, then drives the same stream through
//! `Router::submit_batch` against a direct `place_into` loop to prove
//! the router adds no measurable overhead. Records throughput to
//! `BENCH_placement.json` (the repo's perf trajectory file).
//!
//! With `--features alloc-count` a counting global allocator
//! additionally pins the "(amortized) zero allocations per placement /
//! submit" property: the optimized and router paths must stay under
//! 0.01 heap allocations per transaction (only arena/pool growth), while
//! the naive path allocates several vectors per decision.
//!
//! ```sh
//! cargo run --release -p optchain-bench --bin perf_baseline -- \
//!     [--txs N] [--k K] [--seed S] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use std::sync::Arc;

use optchain_bench::naive::NaiveOptChainPlacer;
use optchain_core::replay::{replay, ReplayOutcome};
use optchain_core::{
    DecisionBuf, OptChainPlacer, PlacementContext, Placer, RetentionPolicy, Router, RouterFleet,
    SegmentWal, ShardId, SpvWallet, DEFAULT_TELEMETRY,
};
use optchain_tan::TanGraph;
use optchain_utxo::Transaction;
use optchain_workload::{WorkloadConfig, WorkloadGenerator};

/// Counting global allocator: every `alloc`/`realloc`/`alloc_zeroed`
/// bumps one relaxed counter, so a timed section can report its
/// allocations-per-transaction. Compiled in only under `alloc-count`
/// (counting costs a few percent of throughput).
#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: delegates every operation to `System` unchanged; the
    // counter is a side effect with no aliasing or layout implications.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "alloc-count")]
fn allocations() -> Option<u64> {
    Some(alloc_count::allocations())
}

#[cfg(not(feature = "alloc-count"))]
fn allocations() -> Option<u64> {
    None
}

/// Ceiling for the placement-decision allocation rate (graph already
/// built): the decision path reuses every buffer, so only one-time
/// warm-up allocations remain and anything per-transaction shows up
/// orders of magnitude above this.
const MAX_DECISION_ALLOCS_PER_TX: f64 = 0.01;

/// Ceiling for end-to-end ingest+place paths: TaN arena/pool doubling
/// plus one small directory entry per multi-chunk hub cost a bounded,
/// amortized sub-0.1 allocations per transaction (the naive path sits
/// near 60/tx for contrast).
const MAX_E2E_ALLOCS_PER_TX: f64 = 0.1;

struct Args {
    txs: u64,
    k: u32,
    seed: u64,
    out: String,
    /// Exit nonzero below this speedup ratio. Wall-clock ratios on shared
    /// CI runners are noisy at small stream sizes — pass `--min-speedup 0`
    /// to record without gating.
    min_speedup: f64,
    /// Exit nonzero when router-batch throughput falls below this
    /// fraction of the direct `place_into` throughput (the "router adds
    /// no overhead" gate; `--min-router-ratio 0` disables).
    min_router_ratio: f64,
    /// Worker count for the fleet arm.
    fleet_workers: usize,
    /// TaN cross-sync cadence for the fleet arm, in transactions.
    sync_interval: u64,
    /// Exit nonzero when fleet throughput falls below this multiple of
    /// the router `submit_batch` throughput. The target is ≥ 2.0 on a
    /// ≥ 4-core machine; the default 0 records without gating because
    /// CI containers may expose a single core (the fleet then measures
    /// pure coordination overhead).
    min_fleet_ratio: f64,
    /// `RetentionPolicy::WindowTxs` size for the retention arm
    /// (default `txs / 10`; `0` skips the arm).
    retention_window: usize,
    /// Run the durability arm: the same windowed stream through a
    /// `SegmentWal`-backed router, gated on throughput, disk footprint,
    /// and crash recovery.
    wal: bool,
    /// Exit nonzero when WAL-on throughput falls below this fraction of
    /// the in-RAM windowed router's (`0` records without gating).
    min_wal_ratio: f64,
    /// Full-snapshot cadence for the WAL arm: every `full_every`-th
    /// checkpoint is a full snapshot, the rest persist only the delta
    /// since the previous one (`1` = every checkpoint full, the
    /// pre-delta behavior).
    full_every: u64,
}

/// The retention arm's memory gate: a windowed full-stream run must
/// hold its **peak** TaN arena bytes within this factor of a run over
/// just one window's worth of transactions — i.e. graph memory is
/// O(window), not O(stream).
const RETENTION_PEAK_FACTOR: f64 = 2.0;

/// Windows below this skip the memory gate: fixed costs (the ring's
/// power-of-two rounding, `Vec` growth steps) dominate tiny windows.
const MIN_GATED_RETENTION_WINDOW: usize = 10_000;

fn parse_args() -> Args {
    let mut args = Args {
        txs: 1_000_000,
        k: 16,
        seed: 0xB17C04,
        out: "BENCH_placement.json".to_string(),
        min_speedup: 2.0,
        min_router_ratio: 0.95,
        fleet_workers: 4,
        sync_interval: 50_000,
        min_fleet_ratio: 0.0,
        retention_window: usize::MAX, // resolved to txs / 10 below
        wal: false,
        min_wal_ratio: 0.5,
        full_every: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut next = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--txs" => args.txs = next("--txs").parse().expect("--txs: number"),
            "--k" => args.k = next("--k").parse().expect("--k: number"),
            "--seed" => args.seed = next("--seed").parse().expect("--seed: number"),
            "--out" => args.out = next("--out"),
            "--min-speedup" => {
                args.min_speedup = next("--min-speedup")
                    .parse()
                    .expect("--min-speedup: number")
            }
            "--min-router-ratio" => {
                args.min_router_ratio = next("--min-router-ratio")
                    .parse()
                    .expect("--min-router-ratio: number")
            }
            "--fleet-workers" => {
                args.fleet_workers = next("--fleet-workers")
                    .parse()
                    .expect("--fleet-workers: number")
            }
            "--sync-interval" => {
                args.sync_interval = next("--sync-interval")
                    .parse()
                    .expect("--sync-interval: number")
            }
            "--min-fleet-ratio" => {
                args.min_fleet_ratio = next("--min-fleet-ratio")
                    .parse()
                    .expect("--min-fleet-ratio: number")
            }
            "--retention-window" => {
                args.retention_window = next("--retention-window")
                    .parse()
                    .expect("--retention-window: number")
            }
            "--wal" => args.wal = true,
            "--min-wal-ratio" => {
                args.min_wal_ratio = next("--min-wal-ratio")
                    .parse()
                    .expect("--min-wal-ratio: number")
            }
            "--full-every" => {
                args.full_every = next("--full-every").parse().expect("--full-every: number");
                assert!(args.full_every > 0, "--full-every must be > 0");
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!(
                    "usage: perf_baseline [--txs N] [--k K] [--seed S] [--out PATH] \
                     [--min-speedup X] [--min-router-ratio X] [--fleet-workers N] \
                     [--sync-interval N] [--min-fleet-ratio X] [--retention-window N] \
                     [--wal] [--min-wal-ratio X] [--full-every N]"
                );
                std::process::exit(2)
            }
        }
    }
    if args.retention_window == usize::MAX {
        args.retention_window = (args.txs / 10) as usize;
    }
    args
}

/// Peak resident set size of this process in kilobytes (Linux `VmHWM`);
/// `None` where `/proc` is unavailable.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Timing + allocation delta of one measured section.
struct Measured<T> {
    value: T,
    seconds: f64,
    allocs: Option<u64>,
}

fn measured<T>(f: impl FnOnce() -> T) -> Measured<T> {
    let allocs_before = allocations();
    let start = Instant::now();
    let value = f();
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocations().map(|after| after - allocs_before.unwrap_or(0));
    Measured {
        value,
        seconds,
        allocs,
    }
}

/// Below this stream length the fixed warm-up allocations dominate the
/// per-transaction averages and the gates would reject correct behavior.
const MIN_GATED_TXS: u64 = 10_000;

fn report_allocs(label: &str, allocs: Option<u64>, txs: u64, limit: Option<f64>) {
    let Some(count) = allocs else { return };
    let per_tx = count as f64 / txs as f64;
    println!("  {label}: {count} heap allocations ({per_tx:.5} per tx)");
    if txs < MIN_GATED_TXS {
        println!("  (allocation gate skipped below {MIN_GATED_TXS} txs: warm-up dominates)");
        return;
    }
    if let Some(limit) = limit {
        assert!(
            per_tx < limit,
            "{label} must stay amortized allocation-free: {per_tx:.5} allocs/tx (limit {limit})"
        );
    }
}

/// Chunk size of the fleet's detached bulk submission: big enough that
/// channel traffic is negligible, small enough to interleave clients.
const FLEET_CHUNK: usize = 4_096;

/// Drives the whole shared stream through a fleet of `workers` (one
/// client handle per worker, chunks round-robined across them), waits
/// for completion, and returns the measured section plus the
/// seq-ordered assignments.
fn run_fleet(
    stream: &Arc<[Transaction]>,
    k: u32,
    workers: usize,
    sync_interval: u64,
) -> Measured<Vec<u32>> {
    // `expected_total` pre-sizes each worker's TaN arenas (every worker
    // eventually holds the full stream: its own placements plus every
    // adoption), keeping the steady-state path free of doubling
    // reallocations; OptChain decisions ignore the value.
    let fleet = RouterFleet::builder()
        .shards(k)
        .workers(workers)
        .partitioner(|client| client as usize)
        .sync_interval(sync_interval)
        .expected_total(stream.len() as u64)
        .build();
    let handles: Vec<_> = (0..workers as u64).map(|c| fleet.handle(c)).collect();
    let run = measured(|| {
        for (i, start) in (0..stream.len()).step_by(FLEET_CHUNK).enumerate() {
            let end = (start + FLEET_CHUNK).min(stream.len());
            let _ = handles[i % workers].submit_batch_detached(stream, start..end);
        }
        fleet.flush();
    });
    let mut results: Vec<(u64, ShardId)> = handles.iter().flat_map(|h| h.drain()).collect();
    results.sort_by_key(|(seq, _)| *seq);
    assert_eq!(results.len(), stream.len(), "every submission must place");
    Measured {
        value: results.into_iter().map(|(_, s)| s.0).collect(),
        seconds: run.seconds,
        allocs: run.allocs,
    }
}

/// Everything the retention arm measures (recorded in the BENCH json).
struct RetentionReport {
    window: usize,
    seconds: f64,
    /// Peak TaN arena bytes over the windowed full-stream run.
    peak_arena_bytes: usize,
    /// Peak TaN arena bytes of the reference run over one window's
    /// worth of transactions (unbounded policy).
    reference_peak_arena_bytes: usize,
    /// Arena bytes after the checkpoint-time `Router::compact()`.
    compacted_arena_bytes: usize,
    /// Peak assignment-store bytes over the windowed full-stream run
    /// (the `AssignmentStore` ring; O(window) is the gate).
    peak_assignment_bytes: usize,
    /// Peak assignment-store bytes of the window-sized reference run.
    reference_peak_assignment_bytes: usize,
    /// Transactions proven bit-identical to the unbounded baseline
    /// (every tx before the first out-of-window parent reference).
    in_window_identical: usize,
    /// First transaction with a parent farther than the window back
    /// (`None`: the whole stream is in-window).
    first_out_of_window: Option<usize>,
    live_nodes: usize,
    evicted_nodes: u64,
    /// KeepUnspentAndHubs companion run (same stream).
    hubs_min_degree: u32,
    hubs_arena_bytes: usize,
    hubs_assignment_bytes: usize,
    hubs_live_nodes: usize,
    hubs_retained_nodes: usize,
    hubs_seconds: f64,
    /// Retention-aware SPV wallet over the same stream (WindowTxs):
    /// peak retained-state bytes vs a window-sized reference run.
    spv_peak_state_bytes: usize,
    spv_reference_peak_state_bytes: usize,
    spv_entries: usize,
    spv_seconds: f64,
}

/// Sampling stride of the peak-arena tracker, in transactions.
const RETENTION_SAMPLE: usize = 4_096;

/// One windowed run's sampled measurements.
struct WindowedRun {
    assignments: Vec<u32>,
    peak_arena: usize,
    peak_assignment: usize,
    seconds: f64,
}

/// Drives `stream` through a retention-policy router in sampled
/// chunks, tracking peak arena and assignment-store bytes.
fn run_windowed(stream: &[Transaction], router: &mut Router) -> WindowedRun {
    let mut assignments = Vec::with_capacity(stream.len());
    let mut chunk_out: Vec<ShardId> = Vec::new();
    let mut peak_arena = router.tan().arena_bytes();
    let mut peak_assignment = router.assignments().state_bytes();
    let start = Instant::now();
    for chunk in stream.chunks(RETENTION_SAMPLE) {
        router.submit_batch(chunk, &mut chunk_out);
        assignments.extend(chunk_out.iter().map(|s| s.0));
        peak_arena = peak_arena.max(router.tan().arena_bytes());
        peak_assignment = peak_assignment.max(router.assignments().state_bytes());
    }
    WindowedRun {
        assignments,
        peak_arena,
        peak_assignment,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Drives the stream's (txid, inputs) pairs through a retention-aware
/// [`SpvWallet`], returning (peak state bytes, final entries, seconds).
fn run_spv(stream: &[Transaction], k: u32, window: usize) -> (usize, usize, f64) {
    let telemetry = vec![DEFAULT_TELEMETRY; k as usize];
    let mut wallet = SpvWallet::with_retention(k, RetentionPolicy::WindowTxs(window));
    let mut inputs: Vec<optchain_utxo::TxId> = Vec::new();
    let mut peak = 0usize;
    let start = Instant::now();
    for (i, tx) in stream.iter().enumerate() {
        inputs.clear();
        inputs.extend(tx.inputs().iter().map(|op| op.txid));
        wallet.place(tx.id(), &inputs, &telemetry);
        if i % RETENTION_SAMPLE == 0 {
            peak = peak.max(wallet.state_bytes());
        }
    }
    peak = peak.max(wallet.state_bytes());
    (peak, wallet.len(), start.elapsed().as_secs_f64())
}

/// The `--retention` arm (see `main`): memory gate + in-window
/// bit-identity against the unbounded static-telemetry baseline, plus
/// the KeepUnspentAndHubs companion measurement.
fn run_retention_arm(
    stream: &Arc<[Transaction]>,
    k: u32,
    window: usize,
    unbounded_assignments: &[u32],
    unbounded_router: &Router,
) -> RetentionReport {
    println!("placing through a windowed router (WindowTxs({window}))...");
    let mut windowed = Router::builder()
        .shards(k)
        .retention(RetentionPolicy::WindowTxs(window))
        .build();
    let run = run_windowed(stream, &mut windowed);
    let (assignments, peak, seconds) = (run.assignments, run.peak_arena, run.seconds);
    println!(
        "  {seconds:.2}s — {:.0} txs/sec, peak arena {:.1} MiB, \
         peak assignment store {:.1} KiB, {} evicted",
        stream.len() as f64 / seconds,
        peak as f64 / (1024.0 * 1024.0),
        run.peak_assignment as f64 / 1024.0,
        windowed.tan().evicted_nodes(),
    );

    // Reference: one window's worth of stream, unbounded.
    let mut reference = Router::builder().shards(k).build();
    let reference_run = run_windowed(&stream[..window], &mut reference);
    let reference_peak = reference_run.peak_arena;

    // In-window identity. A parent farther than `window` back cannot
    // resolve in the windowed graph, and from the first such reference
    // on, decisions may legitimately diverge (and the divergence
    // propagates through shard sizes). Before it, every decision must
    // be bit-identical to the unbounded baseline.
    let tan = unbounded_router.tan();
    let first_far = tan
        .nodes()
        .position(|u| tan.inputs(u).iter().any(|v| u.index() - v.index() > window));
    let guaranteed = first_far.unwrap_or(stream.len());
    assert_eq!(
        &assignments[..guaranteed],
        &unbounded_assignments[..guaranteed],
        "windowed placement must match unbounded for every tx whose \
         ancestry lies inside the window"
    );
    let identical_total = assignments
        .iter()
        .zip(unbounded_assignments)
        .filter(|(a, b)| a == b)
        .count();
    println!(
        "  in-window identity: {guaranteed} txs guaranteed ({} of {} identical overall{})",
        identical_total,
        assignments.len(),
        match first_far {
            Some(i) => format!(", first out-of-window parent at tx {i}"),
            None => String::from(", whole stream in-window"),
        }
    );

    // Checkpoint-time shrink.
    windowed.compact();
    let compacted = windowed.tan().arena_bytes();

    // KeepUnspentAndHubs companion: measured, not gated (its footprint
    // is O(window + unspent set + hubs), workload-dependent).
    let hubs_min_degree = 8u32;
    println!("placing through a KeepUnspentAndHubs(min_degree {hubs_min_degree}) router...");
    let mut hubs = Router::builder()
        .shards(k)
        .retention(RetentionPolicy::KeepUnspentAndHubs {
            min_degree: hubs_min_degree,
        })
        .build();
    let hubs_run = run_windowed(stream, &mut hubs);
    let hubs_seconds = hubs_run.seconds;
    hubs.compact();
    println!(
        "  {hubs_seconds:.2}s — {:.0} txs/sec, {} live ({} retained), arena {:.1} MiB, \
         assignment store {:.1} KiB",
        stream.len() as f64 / hubs_seconds,
        hubs.tan().live_len(),
        hubs.tan().retained_nodes(),
        hubs.tan().arena_bytes() as f64 / (1024.0 * 1024.0),
        hubs.assignments().state_bytes() as f64 / 1024.0,
    );

    // Retention-aware SPV wallet: the client-side deployment of the
    // same window, proven bounded over the full stream (hard-gated
    // against a window-sized reference, like the node-side stores).
    println!("placing through a retention-aware SpvWallet (WindowTxs({window}))...");
    let (spv_peak, spv_entries, spv_seconds) = run_spv(stream, k, window);
    let (spv_reference_peak, _, _) = run_spv(&stream[..window], k, window);
    println!(
        "  {spv_seconds:.2}s — {:.0} txs/sec, {} entries, peak state {:.1} MiB \
         ({:.2}x of a window-sized run)",
        stream.len() as f64 / spv_seconds,
        spv_entries,
        spv_peak as f64 / (1024.0 * 1024.0),
        spv_peak as f64 / spv_reference_peak.max(1) as f64,
    );

    RetentionReport {
        window,
        seconds,
        peak_arena_bytes: peak,
        reference_peak_arena_bytes: reference_peak,
        compacted_arena_bytes: compacted,
        peak_assignment_bytes: run.peak_assignment,
        reference_peak_assignment_bytes: reference_run.peak_assignment,
        in_window_identical: guaranteed,
        first_out_of_window: first_far,
        live_nodes: windowed.tan().live_len(),
        evicted_nodes: windowed.tan().evicted_nodes(),
        hubs_min_degree,
        hubs_arena_bytes: hubs.tan().arena_bytes(),
        hubs_assignment_bytes: hubs.assignments().state_bytes(),
        hubs_live_nodes: hubs.tan().live_len(),
        hubs_retained_nodes: hubs.tan().retained_nodes(),
        hubs_seconds,
        spv_peak_state_bytes: spv_peak,
        spv_reference_peak_state_bytes: spv_reference_peak,
        spv_entries,
        spv_seconds,
    }
}

/// Everything the durability arm measures (recorded in the BENCH json).
struct WalReport {
    window: usize,
    checkpoint_every: u64,
    flush_every: u64,
    full_every: u64,
    /// WAL-backed windowed run over the full stream.
    seconds: f64,
    /// In-RAM windowed comparator over the same stream.
    ram_seconds: f64,
    /// Peak `bytes_on_disk` over the full-stream run (sampled per
    /// chunk, so segment GC has to keep the journal O(window)).
    peak_disk_bytes: u64,
    /// Peak `bytes_on_disk` of a 2x-window reference run (long enough
    /// to reach checkpoint-chain + GC steady state; see run_wal_arm).
    reference_peak_disk_bytes: u64,
    final_disk_bytes: u64,
    /// `Router::recover` wall time from the on-disk journal.
    recovery_seconds: f64,
    /// Checkpoint-writer breakdown over the full-stream run: how many
    /// full snapshots vs deltas were persisted, and their total bytes.
    full_checkpoints: u64,
    delta_checkpoints: u64,
    full_checkpoint_bytes: u64,
    delta_checkpoint_bytes: u64,
}

/// Ceiling for the WAL disk gate: the full-stream journal's peak disk
/// footprint within this factor of a steady-state (2x-window)
/// reference run — segment GC keeps disk O(window), not O(stream).
const WAL_DISK_PEAK_FACTOR: f64 = 3.0;

/// The `--wal` arm: the windowed stream through a `SegmentWal`-backed
/// router — bit-identity against the in-RAM windowed router, the
/// throughput tax, the segment-GC disk bound, and a full
/// close-and-recover cycle from the journal left on disk.
fn run_wal_arm(
    stream: &Arc<[Transaction]>,
    k: u32,
    window: usize,
    full_every: u64,
    scratch: &str,
) -> WalReport {
    let window = window.max(1);
    // Checkpoint four times per window: with delta checkpoints only
    // every `full_every`-th one pays the full encode+compress+write
    // cost (the rest persist just the records since the previous
    // checkpoint), so a denser cadence now buys a ~4× shorter replay
    // tail at recovery without re-inflating the durability tax. The
    // GC-able journal suffix stays O(window), inside the disk gate.
    let checkpoint_every = (window as u64 / 4).max(1_024);
    // The fsync batching policy under measurement: ack in batches of
    // 8192 records, one fdatasync per batch. Against a multi-million
    // txs/sec in-RAM path, ~1 ms of fsync per batch is the entire
    // per-record durability tax, so the batch size is what buys the
    // ≥ 50% gate.
    let flush_every = 8_192u64;
    // Segment roll size scaled to the window: GC can only drop whole
    // sealed segments, so its granularity must be finer than the
    // retention horizon or small runs keep the entire journal in one
    // never-sealed active segment and the O(window) disk gate is
    // meaningless. ~8 sealed segments per window of records (a Submit
    // record frames to ~48 B), clamped to [64 KiB, 4 MiB].
    let segment_bytes = (window as u64 * 6).clamp(64 << 10, 4 << 20);

    println!("placing through an in-RAM windowed router (WAL comparator)...");
    let mut ram = Router::builder()
        .shards(k)
        .retention(RetentionPolicy::WindowTxs(window))
        .build();
    let ram_run = run_windowed(stream, &mut ram);
    println!(
        "  {:.2}s — {:.0} txs/sec",
        ram_run.seconds,
        stream.len() as f64 / ram_run.seconds
    );
    drop(ram);

    let dir = format!("{scratch}.wal-tmp");
    let ref_dir = format!("{scratch}.wal-ref-tmp");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);

    println!(
        "placing through a SegmentWal-backed windowed router \
         (checkpoint every {checkpoint_every}, full snapshot every {full_every} checkpoints, \
         fsync every {flush_every} records)..."
    );
    let wal_router = |path: &str| {
        Router::builder()
            .shards(k)
            .retention(RetentionPolicy::WindowTxs(window))
            .checkpoint_every(checkpoint_every)
            .flush_every(flush_every)
            .full_every(full_every)
            .storage(Box::new(
                SegmentWal::open_with(path, segment_bytes).expect("open WAL dir"),
            ))
            .build()
    };
    let mut durable = wal_router(&dir);
    let mut assignments: Vec<u32> = Vec::with_capacity(stream.len());
    let mut chunk_out: Vec<ShardId> = Vec::new();
    let mut peak_disk = 0u64;
    let start = Instant::now();
    for chunk in stream.chunks(RETENTION_SAMPLE) {
        durable.submit_batch(chunk, &mut chunk_out);
        assignments.extend(chunk_out.iter().map(|s| s.0));
        peak_disk = peak_disk.max(durable.journal_bytes().unwrap_or(0));
    }
    durable.flush_journal().expect("final WAL fsync");
    let seconds = start.elapsed().as_secs_f64();
    let final_disk = durable.journal_bytes().unwrap_or(0);
    peak_disk = peak_disk.max(final_disk);
    let ckpt = durable.checkpoint_stats();
    println!(
        "  {seconds:.2}s — {:.0} txs/sec, peak journal {:.1} MiB ({:.1} MiB after GC)",
        stream.len() as f64 / seconds,
        peak_disk as f64 / (1024.0 * 1024.0),
        final_disk as f64 / (1024.0 * 1024.0),
    );
    let ckpt_count = ckpt.full_checkpoints + ckpt.delta_checkpoints;
    println!(
        "  checkpoints: {} full ({:.1} MiB) + {} delta ({:.1} MiB) — {:.0} KiB/checkpoint",
        ckpt.full_checkpoints,
        ckpt.full_bytes as f64 / (1024.0 * 1024.0),
        ckpt.delta_checkpoints,
        ckpt.delta_bytes as f64 / (1024.0 * 1024.0),
        (ckpt.full_bytes + ckpt.delta_bytes) as f64 / ckpt_count.max(1) as f64 / 1024.0,
    );
    assert_eq!(
        assignments, ram_run.assignments,
        "WAL-backed placement must be bit-identical to the in-RAM router"
    );

    // Reference run for the disk gate: 2x window txs, not one window.
    // A run of exactly `window` records never reaches steady state —
    // its base snapshot lands a quarter-window in (tiny state) and GC
    // never completes a cycle, so it systematically underestimates the
    // steady-state disk floor. Two windows is still O(window) and lets
    // the reference finish a full checkpoint chain + GC cycle; the
    // gate in main() only fires when txs >= 2 * window anyway.
    let ref_len = (2 * window).min(stream.len());
    let reference_peak_disk = if stream.len() > window {
        let mut reference = wal_router(&ref_dir);
        let mut peak = 0u64;
        for chunk in stream[..ref_len].chunks(RETENTION_SAMPLE) {
            reference.submit_batch(chunk, &mut chunk_out);
            peak = peak.max(reference.journal_bytes().unwrap_or(0));
        }
        reference.flush_journal().expect("reference WAL fsync");
        peak.max(reference.journal_bytes().unwrap_or(0))
    } else {
        peak_disk
    };

    // Crash-and-recover: drop the router (the OS files survive), reopen
    // the directory, rebuild. Recovery itself cross-checks every
    // replayed record against a recomputed decision.
    drop(durable);
    let recover_start = Instant::now();
    let recovered = Router::recover(Box::new(
        SegmentWal::open_with(&dir, segment_bytes).expect("reopen WAL dir"),
    ))
    .expect("recover from the on-disk journal");
    let recovery_seconds = recover_start.elapsed().as_secs_f64();
    assert_eq!(
        recovered.assignments().len(),
        stream.len(),
        "recovered router must cover the whole submitted stream"
    );
    let view = recovered.assignments();
    for (id, &expected) in assignments
        .iter()
        .enumerate()
        .take(view.len())
        .skip(view.horizon())
    {
        assert_eq!(
            view.get_index(id),
            Some(expected),
            "recovered live assignment differs at tx {id}"
        );
    }
    println!(
        "  recovered {} txs in {recovery_seconds:.2}s (live assignments verified)",
        stream.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);

    WalReport {
        window,
        checkpoint_every,
        flush_every,
        full_every,
        seconds,
        ram_seconds: ram_run.seconds,
        peak_disk_bytes: peak_disk,
        reference_peak_disk_bytes: reference_peak_disk,
        final_disk_bytes: final_disk,
        recovery_seconds,
        full_checkpoints: ckpt.full_checkpoints,
        delta_checkpoints: ckpt.delta_checkpoints,
        full_checkpoint_bytes: ckpt.full_bytes,
        delta_checkpoint_bytes: ckpt.delta_bytes,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "perf_baseline: {} txs, k = {}, seed = {:#x}{}",
        args.txs,
        args.k,
        args.seed,
        if allocations().is_some() {
            " [alloc-count]"
        } else {
            ""
        }
    );

    println!("generating workload...");
    let gen_start = Instant::now();
    let txs: Vec<_> = WorkloadGenerator::new(WorkloadConfig::bitcoin_like().with_seed(args.seed))
        .take(args.txs as usize)
        .collect();
    println!("  generated in {:.2}s", gen_start.elapsed().as_secs_f64());

    println!("replaying through the naive (seed-equivalent allocating) path...");
    let mut naive_placer = NaiveOptChainPlacer::new(args.k);
    let naive_run: Measured<ReplayOutcome> = measured(|| replay(&txs, &mut naive_placer));
    let naive_tps = args.txs as f64 / naive_run.seconds;
    println!("  {:.2}s — {naive_tps:.0} txs/sec", naive_run.seconds);
    report_allocs("naive path", naive_run.allocs, args.txs, None);

    println!("replaying through the optimized zero-allocation path...");
    let mut opt_placer = OptChainPlacer::new(args.k);
    let opt_run: Measured<ReplayOutcome> = measured(|| replay(&txs, &mut opt_placer));
    let opt_tps = args.txs as f64 / opt_run.seconds;
    println!("  {:.2}s — {opt_tps:.0} txs/sec", opt_run.seconds);
    report_allocs(
        "optimized path",
        opt_run.allocs,
        args.txs,
        Some(MAX_E2E_ALLOCS_PER_TX),
    );

    assert_eq!(
        naive_run.value.assignments, opt_run.value.assignments,
        "optimized and naive paths must place every transaction identically"
    );
    assert_eq!(naive_run.value.cross, opt_run.value.cross);

    // Router parity: the owned submit_batch path against a hand-driven
    // place_into loop under the same (static) telemetry.
    println!("placing through a direct place_into loop (static telemetry)...");
    let telemetry = vec![DEFAULT_TELEMETRY; args.k as usize];
    let direct_run = measured(|| {
        let mut tan = TanGraph::new();
        let mut placer = OptChainPlacer::new(args.k);
        let mut buf = DecisionBuf::new();
        for tx in &txs {
            let node = tan.insert_tx(tx);
            let ctx = PlacementContext::with_epoch(&tan, &telemetry, 0);
            placer.place_into(&ctx, node, &mut buf);
        }
        placer
    });
    let direct_tps = args.txs as f64 / direct_run.seconds;
    println!("  {:.2}s — {direct_tps:.0} txs/sec", direct_run.seconds);
    report_allocs(
        "direct place_into",
        direct_run.allocs,
        args.txs,
        Some(MAX_E2E_ALLOCS_PER_TX),
    );

    // The decision path in isolation: the TaN graph is prebuilt outside
    // the measured section, so the loop is pure register/score/place —
    // this is the "zero allocations per placement" property, pinned
    // strictly. (`register` over a prebuilt graph takes the historical
    // `in_degree_at` route, exercising the hub chunk-directory search.)
    println!("placing over a prebuilt TaN graph (decision path only)...");
    let prebuilt = TanGraph::from_transactions(txs.iter());
    let decision_run = measured(|| {
        let mut placer = OptChainPlacer::new(args.k);
        let mut buf = DecisionBuf::new();
        for node in prebuilt.nodes() {
            let ctx = PlacementContext::with_epoch(&prebuilt, &telemetry, 0);
            placer.place_into(&ctx, node, &mut buf);
        }
        placer
    });
    let decision_tps = args.txs as f64 / decision_run.seconds;
    println!("  {:.2}s — {decision_tps:.0} txs/sec", decision_run.seconds);
    report_allocs(
        "decision path",
        decision_run.allocs,
        args.txs,
        Some(MAX_DECISION_ALLOCS_PER_TX),
    );
    assert_eq!(
        decision_run.value.assignments(),
        direct_run.value.assignments(),
        "prebuilt-graph placement must match online placement"
    );
    drop(prebuilt);

    println!("placing through Router::submit_batch...");
    // The router's initial board is DEFAULT_TELEMETRY — the same values
    // the direct loop pins — so decisions must agree bit for bit.
    let mut router = Router::builder().shards(args.k).build();
    let mut batch_out: Vec<ShardId> = Vec::new();
    let batch_run = measured(|| router.submit_batch(&txs, &mut batch_out));
    let router_tps = args.txs as f64 / batch_run.seconds;
    println!("  {:.2}s — {router_tps:.0} txs/sec", batch_run.seconds);
    report_allocs(
        "router submit_batch",
        batch_run.allocs,
        args.txs,
        Some(MAX_E2E_ALLOCS_PER_TX),
    );

    let direct_assignments: Vec<u32> = direct_run
        .value
        .assignments()
        .to_vec()
        .expect("an unbounded placer retains the full stream");
    let batch_assignments: Vec<u32> = batch_out.iter().map(|s| s.0).collect();
    assert_eq!(
        direct_assignments, batch_assignments,
        "router batch path must place identically to the direct place_into loop"
    );
    assert_eq!(
        router.assignments().to_vec().as_deref(),
        Some(direct_assignments.as_slice())
    );

    // Fleet arm: the sharded front-end over the same stream, driven
    // through the zero-copy detached bulk path. First prove a 1-worker
    // fleet is bit-identical to the router, then measure (and
    // determinism-check) the N-worker configuration.
    println!("placing through a 1-worker RouterFleet (equivalence check)...");
    // `txs` has no further readers: move it into the Arc instead of
    // deep-cloning a second copy of the whole stream.
    let stream: Arc<[Transaction]> = txs.into();
    let single = run_fleet(&stream, args.k, 1, args.sync_interval);
    assert_eq!(
        single.value, batch_assignments,
        "a 1-worker fleet must place identically to Router::submit_batch"
    );
    println!(
        "  {:.2}s — {:.0} txs/sec (assignments bit-identical to the router)",
        single.seconds,
        args.txs as f64 / single.seconds
    );

    println!(
        "placing through a {}-worker RouterFleet (sync every {} txs)...",
        args.fleet_workers, args.sync_interval
    );
    let fleet_run = run_fleet(&stream, args.k, args.fleet_workers, args.sync_interval);
    let fleet_tps = args.txs as f64 / fleet_run.seconds;
    println!("  {:.2}s — {fleet_tps:.0} txs/sec", fleet_run.seconds);
    // Every worker ingests the whole stream (its own placements plus
    // every other worker's, adopted at sync points), so the steady-state
    // allocation budget is per worker-ingested transaction: the same
    // < 0.1 amortized bound as the single-router end-to-end path, paid
    // once per graph replica. Channel buffers are excluded by
    // construction — the bulk path ships `Arc` ranges, not clones.
    report_allocs(
        "fleet steady state (per worker-ingested tx)",
        fleet_run.allocs,
        args.txs * args.fleet_workers as u64,
        Some(MAX_E2E_ALLOCS_PER_TX),
    );
    let fleet_repeat = run_fleet(&stream, args.k, args.fleet_workers, args.sync_interval);
    assert_eq!(
        fleet_run.value, fleet_repeat.value,
        "fleet placement must be deterministic for a fixed partitioner and sync schedule"
    );

    // Retention arm: the bounded-memory lifecycle. A windowed router
    // over the whole stream must (a) hold its peak TaN arena bytes
    // within RETENTION_PEAK_FACTOR of a run over one window's worth of
    // transactions — O(window), not O(stream) — and (b) place every
    // transaction whose parents all sit inside the window exactly like
    // the unbounded router (static-telemetry baseline: the router
    // submit_batch arm above).
    let retention = (args.retention_window > 0 && (args.txs as usize) > args.retention_window)
        .then(|| {
            run_retention_arm(
                &stream,
                args.k,
                args.retention_window,
                &batch_assignments,
                &router,
            )
        });

    // Durability arm: the WAL-backed windowed router (see run_wal_arm).
    let wal = args.wal.then(|| {
        let window = if args.retention_window > 0 {
            args.retention_window
        } else {
            (args.txs as usize / 10).max(1)
        };
        run_wal_arm(&stream, args.k, window, args.full_every, &args.out)
    });
    drop(stream);

    let speedup = naive_run.seconds / opt_run.seconds;
    let router_ratio = router_tps / direct_tps;
    let fleet_ratio = fleet_tps / router_tps;
    let (memo_hits, memo_misses) = opt_placer.l2s_memo_stats();
    let (router_hits, router_misses) = router.l2s_memo_stats();
    let hwm = vm_hwm_kb();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"placement_throughput\",");
    let _ = writeln!(json, "  \"txs\": {},", args.txs);
    let _ = writeln!(json, "  \"k\": {},", args.k);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(
        json,
        "  \"naive\": {{\"seconds\": {:.4}, \"txs_per_sec\": {naive_tps:.1}}},",
        naive_run.seconds
    );
    let _ = writeln!(
        json,
        "  \"optimized\": {{\"seconds\": {:.4}, \"txs_per_sec\": {opt_tps:.1}}},",
        opt_run.seconds
    );
    let _ = writeln!(
        json,
        "  \"direct_place_into\": {{\"seconds\": {:.4}, \"txs_per_sec\": {direct_tps:.1}}},",
        direct_run.seconds
    );
    let _ = writeln!(
        json,
        "  \"decision_only\": {{\"seconds\": {:.4}, \"txs_per_sec\": {decision_tps:.1}}},",
        decision_run.seconds
    );
    let _ = writeln!(
        json,
        "  \"router_batch\": {{\"seconds\": {:.4}, \"txs_per_sec\": {router_tps:.1}}},",
        batch_run.seconds
    );
    let _ = writeln!(
        json,
        "  \"fleet\": {{\"workers\": {}, \"sync_interval\": {}, \"seconds\": {:.4}, \
         \"txs_per_sec\": {fleet_tps:.1}, \"one_worker_identical\": true, \
         \"deterministic\": true}},",
        args.fleet_workers, args.sync_interval, fleet_run.seconds
    );
    match &retention {
        Some(r) => {
            let _ = writeln!(
                json,
                "  \"retention\": {{\"window\": {}, \"seconds\": {:.4}, \
                 \"txs_per_sec\": {:.1}, \"peak_arena_bytes\": {}, \
                 \"reference_peak_arena_bytes\": {}, \"compacted_arena_bytes\": {}, \
                 \"peak_factor\": {:.3}, \"bytes_per_live_tx\": {:.1}, \
                 \"peak_assignment_bytes\": {}, \"reference_peak_assignment_bytes\": {}, \
                 \"assignment_factor\": {:.3}, \
                 \"in_window_identical_txs\": {}, \"first_out_of_window_tx\": {}, \
                 \"live_nodes\": {}, \"evicted_nodes\": {}}},",
                r.window,
                r.seconds,
                args.txs as f64 / r.seconds,
                r.peak_arena_bytes,
                r.reference_peak_arena_bytes,
                r.compacted_arena_bytes,
                r.peak_arena_bytes as f64 / r.reference_peak_arena_bytes.max(1) as f64,
                r.peak_arena_bytes as f64 / r.window.max(1) as f64,
                r.peak_assignment_bytes,
                r.reference_peak_assignment_bytes,
                r.peak_assignment_bytes as f64 / r.reference_peak_assignment_bytes.max(1) as f64,
                r.in_window_identical,
                match r.first_out_of_window {
                    Some(i) => i.to_string(),
                    None => "null".to_string(),
                },
                r.live_nodes,
                r.evicted_nodes,
            );
            let _ = writeln!(
                json,
                "  \"retention_hubs\": {{\"min_degree\": {}, \"seconds\": {:.4}, \
                 \"arena_bytes\": {}, \"assignment_bytes\": {}, \"live_nodes\": {}, \
                 \"retained_nodes\": {}}},",
                r.hubs_min_degree,
                r.hubs_seconds,
                r.hubs_arena_bytes,
                r.hubs_assignment_bytes,
                r.hubs_live_nodes,
                r.hubs_retained_nodes,
            );
            let _ = writeln!(
                json,
                "  \"retention_spv\": {{\"window\": {}, \"seconds\": {:.4}, \
                 \"peak_state_bytes\": {}, \"reference_peak_state_bytes\": {}, \
                 \"spv_factor\": {:.3}, \"entries\": {}}},",
                r.window,
                r.spv_seconds,
                r.spv_peak_state_bytes,
                r.spv_reference_peak_state_bytes,
                r.spv_peak_state_bytes as f64 / r.spv_reference_peak_state_bytes.max(1) as f64,
                r.spv_entries,
            );
        }
        None => {
            let _ = writeln!(json, "  \"retention\": null,");
        }
    }
    match &wal {
        Some(w) => {
            let _ = writeln!(
                json,
                "  \"wal\": {{\"window\": {}, \"checkpoint_every\": {}, \
                 \"flush_every\": {}, \"full_every\": {}, \
                 \"seconds\": {:.4}, \"txs_per_sec\": {:.1}, \
                 \"ram_seconds\": {:.4}, \"wal_ratio\": {:.3}, \
                 \"peak_disk_bytes\": {}, \"reference_peak_disk_bytes\": {}, \
                 \"disk_factor\": {:.3}, \"final_disk_bytes\": {}, \
                 \"recovery_seconds\": {:.4}, \
                 \"full_checkpoints\": {}, \"delta_checkpoints\": {}, \
                 \"full_checkpoint_bytes\": {}, \"delta_checkpoint_bytes\": {}, \
                 \"bytes_per_checkpoint\": {:.1}, \
                 \"recovered_identical\": true}},",
                w.window,
                w.checkpoint_every,
                w.flush_every,
                w.full_every,
                w.seconds,
                args.txs as f64 / w.seconds,
                w.ram_seconds,
                w.ram_seconds / w.seconds,
                w.peak_disk_bytes,
                w.reference_peak_disk_bytes,
                w.peak_disk_bytes as f64 / w.reference_peak_disk_bytes.max(1) as f64,
                w.final_disk_bytes,
                w.recovery_seconds,
                w.full_checkpoints,
                w.delta_checkpoints,
                w.full_checkpoint_bytes,
                w.delta_checkpoint_bytes,
                (w.full_checkpoint_bytes + w.delta_checkpoint_bytes) as f64
                    / (w.full_checkpoints + w.delta_checkpoints).max(1) as f64,
            );
        }
        None => {
            let _ = writeln!(json, "  \"wal\": null,");
        }
    }
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"router_ratio\": {router_ratio:.3},");
    let _ = writeln!(json, "  \"fleet_ratio\": {fleet_ratio:.3},");
    let _ = writeln!(json, "  \"assignments_identical\": true,");
    let _ = writeln!(json, "  \"cross_txs\": {},", opt_run.value.cross);
    let _ = writeln!(
        json,
        "  \"l2s_memo\": {{\"hits\": {memo_hits}, \"misses\": {memo_misses}}},"
    );
    let _ = writeln!(
        json,
        "  \"router_l2s_memo\": {{\"hits\": {router_hits}, \"misses\": {router_misses}}},"
    );
    match (opt_run.allocs, batch_run.allocs, decision_run.allocs) {
        (Some(opt_allocs), Some(router_allocs), Some(decision_allocs)) => {
            let _ = writeln!(
                json,
                "  \"allocs\": {{\"optimized\": {opt_allocs}, \"router_batch\": {router_allocs}, \
                 \"decision_only\": {decision_allocs}, \"naive\": {}}},",
                naive_run.allocs.unwrap_or(0)
            );
        }
        _ => {
            let _ = writeln!(json, "  \"allocs\": null,");
        }
    }
    match hwm {
        Some(kb) => {
            let _ = writeln!(json, "  \"peak_rss_kb\": {kb}");
        }
        None => {
            let _ = writeln!(json, "  \"peak_rss_kb\": null");
        }
    }
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write BENCH json");

    println!();
    println!(
        "speedup: {speedup:.2}x (assignments bit-identical, {} cross-TXs)",
        opt_run.value.cross
    );
    println!(
        "router batch: {:.1}% of direct place_into throughput",
        100.0 * router_ratio
    );
    println!(
        "fleet ({} workers): {:.2}x router submit_batch throughput \
         (1-worker bit-identical, N-worker deterministic)",
        args.fleet_workers, fleet_ratio
    );
    println!(
        "l2s memo: {memo_hits} hits / {memo_misses} misses ({:.1}% hit rate)",
        100.0 * memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64
    );
    if let Some(r) = &retention {
        println!(
            "retention WindowTxs({}): peak arena {:.2}x, peak assignment store {:.2}x, \
             SPV wallet {:.2}x of a window-sized run \
             ({} of {} txs bit-identical to unbounded)",
            r.window,
            r.peak_arena_bytes as f64 / r.reference_peak_arena_bytes.max(1) as f64,
            r.peak_assignment_bytes as f64 / r.reference_peak_assignment_bytes.max(1) as f64,
            r.spv_peak_state_bytes as f64 / r.spv_reference_peak_state_bytes.max(1) as f64,
            r.in_window_identical,
            args.txs,
        );
    }
    if let Some(w) = &wal {
        println!(
            "wal (window {}): {:.1}% of in-RAM windowed throughput, \
             peak journal {:.2}x of a 2x-window reference run, recovery {:.2}s, \
             {} full + {} delta checkpoints ({:.0} KiB avg)",
            w.window,
            100.0 * w.ram_seconds / w.seconds,
            w.peak_disk_bytes as f64 / w.reference_peak_disk_bytes.max(1) as f64,
            w.recovery_seconds,
            w.full_checkpoints,
            w.delta_checkpoints,
            (w.full_checkpoint_bytes + w.delta_checkpoint_bytes) as f64
                / (w.full_checkpoints + w.delta_checkpoints).max(1) as f64
                / 1024.0,
        );
    }
    if let Some(kb) = hwm {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    println!("wrote {}", args.out);
    let mut failed = false;
    if let Some(w) = &wal {
        let ratio = w.ram_seconds / w.seconds;
        if args.txs < MIN_GATED_TXS {
            println!("(WAL gates skipped below {MIN_GATED_TXS} txs: warm-up dominates)");
        } else {
            if ratio < args.min_wal_ratio {
                eprintln!(
                    "error: WAL-on throughput {:.1}% of the in-RAM windowed router \
                     (limit {:.0}%)",
                    100.0 * ratio,
                    100.0 * args.min_wal_ratio
                );
                failed = true;
            }
            let disk_factor = w.peak_disk_bytes as f64 / w.reference_peak_disk_bytes.max(1) as f64;
            if w.window >= MIN_GATED_RETENTION_WINDOW
                && args.txs as usize >= 2 * w.window
                && disk_factor > WAL_DISK_PEAK_FACTOR
            {
                eprintln!(
                    "error: WAL peak disk bytes {disk_factor:.2}x of a 2x-window reference run \
                     (limit {WAL_DISK_PEAK_FACTOR}x) — segment GC is not holding disk O(window)"
                );
                failed = true;
            }
        }
    }
    if let Some(r) = &retention {
        // The memory gates: graph, assignment-store, and SPV-wallet
        // bytes must all be O(window), not O(stream). Gated only when
        // the window is big enough that fixed costs are noise
        // and the stream is long enough to prove growth would have
        // happened.
        if r.window >= MIN_GATED_RETENTION_WINDOW && args.txs as usize >= 2 * r.window {
            let factor = r.peak_arena_bytes as f64 / r.reference_peak_arena_bytes.max(1) as f64;
            if factor > RETENTION_PEAK_FACTOR {
                eprintln!(
                    "error: windowed peak arena bytes {:.2}x of a window-sized run \
                     (limit {RETENTION_PEAK_FACTOR}x) — graph memory is not O(window)",
                    factor
                );
                failed = true;
            }
            let assignment_factor =
                r.peak_assignment_bytes as f64 / r.reference_peak_assignment_bytes.max(1) as f64;
            if assignment_factor > RETENTION_PEAK_FACTOR {
                eprintln!(
                    "error: windowed peak assignment-store bytes {:.2}x of a window-sized \
                     run (limit {RETENTION_PEAK_FACTOR}x) — assignment memory is not O(window)",
                    assignment_factor
                );
                failed = true;
            }
            let spv_factor =
                r.spv_peak_state_bytes as f64 / r.spv_reference_peak_state_bytes.max(1) as f64;
            if spv_factor > RETENTION_PEAK_FACTOR {
                eprintln!(
                    "error: SPV wallet peak state bytes {:.2}x of a window-sized run \
                     (limit {RETENTION_PEAK_FACTOR}x) — wallet memory is not O(window)",
                    spv_factor
                );
                failed = true;
            }
        } else {
            println!(
                "(retention memory gates skipped: window {} below {MIN_GATED_RETENTION_WINDOW} \
                 or stream shorter than 2 windows)",
                r.window
            );
        }
    }
    if speedup < args.min_speedup {
        eprintln!("warning: speedup below the {}x target", args.min_speedup);
        failed = true;
    }
    if router_ratio < args.min_router_ratio {
        eprintln!(
            "warning: router batch path below {:.0}% of direct place_into throughput",
            100.0 * args.min_router_ratio
        );
        failed = true;
    }
    if fleet_ratio < args.min_fleet_ratio {
        eprintln!(
            "warning: fleet throughput below {:.1}x of router submit_batch",
            args.min_fleet_ratio
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
