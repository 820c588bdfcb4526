//! Quickstart: place a Bitcoin-like stream two ways —
//!
//! 1. through a single [`Router`] (one decision stream, bit-exact
//!    replays — how the paper's tables are produced), comparing
//!    OptChain against OmniLedger's random placement;
//! 2. through a [`RouterFleet`] (N worker routers partitioned by
//!    client, with periodic TaN cross-sync — the concurrent placement
//!    *service*), showing what sharded ingestion costs in placement
//!    quality at different sync cadences;
//! 3. with a [`RetentionPolicy`] — the streaming deployment, where
//!    placement state must stay O(window) instead of growing with the
//!    stream.
//!
//! Rule of thumb: reach for `Router` when one thread can carry the
//! load or when you need bit-exact reproducibility against the golden
//! tests; reach for `RouterFleet` when ingestion itself must scale
//! across cores and a bounded sync staleness is acceptable; add a
//! `RetentionPolicy` whenever the stream outlives the memory you are
//! willing to give it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use optchain::prelude::*;

fn main() -> std::io::Result<()> {
    let shards = 8;
    let n = 50_000usize;
    println!("generating {n} Bitcoin-like transactions...");
    let txs = optchain::workload::generate(WorkloadConfig::bitcoin_like().with_seed(42), n);

    // --- 1. single Router: the paper's client-side algorithm ---------
    println!(
        "placing with OptChain and with random (OmniLedger) placement over {shards} shards..."
    );
    let optchain = replay_router(&txs, &mut Router::builder().shards(shards).build());
    let random = replay_router(
        &txs,
        &mut Router::builder()
            .shards(shards)
            .strategy(Strategy::OmniLedger)
            .build(),
    );
    println!();
    println!(
        "OptChain:   {:6} cross-shard txs ({:.1} %), shard-size ratio {:.2}",
        optchain.cross,
        100.0 * optchain.cross_fraction(),
        optchain.size_ratio(),
    );
    println!(
        "OmniLedger: {:6} cross-shard txs ({:.1} %), shard-size ratio {:.2}",
        random.cross,
        100.0 * random.cross_fraction(),
        random.size_ratio(),
    );
    println!(
        "\nOptChain reduced cross-shard transactions by {:.1}x while staying balanced.",
        random.cross as f64 / optchain.cross.max(1) as f64,
    );

    // --- 2. RouterFleet: the concurrent placement service ------------
    let workers = 4usize;
    println!("\nnow through a {workers}-worker RouterFleet (clients sharded across workers):");
    let stream: Arc<[Transaction]> = txs.into();
    for sync_interval in [1_000u64, 10_000, 0] {
        let fleet = RouterFleet::builder()
            .shards(shards)
            .workers(workers)
            .partitioner(|client| client as usize)
            .sync_interval(sync_interval)
            .expected_total(n as u64)
            .build();
        // Four clients feed chunks concurrently-shaped but
        // deterministically ordered; results come back via drain.
        let handles: Vec<FleetHandle> = (0..workers as u64).map(|c| fleet.handle(c)).collect();
        for (i, start) in (0..n).step_by(1_024).enumerate() {
            let _ =
                handles[i % workers].submit_batch_detached(&stream, start..(start + 1_024).min(n));
        }
        fleet.flush();
        let placed: u64 = handles.iter().map(|h| h.drain().len() as u64).sum();
        let stats = fleet.stats();
        let label = if sync_interval == 0 {
            "sync off        ".to_string()
        } else {
            format!("sync every {sync_interval:>5}")
        };
        println!(
            "  {label}: {placed} placed, {} foreign parents unresolved at placement, {} adoptions",
            stats.missing_parent_refs, stats.adopted,
        );
    }
    println!(
        "\nTighter sync intervals resolve more cross-worker spends (fewer unresolved \
         parents) at the cost of more synchronization — a 1-worker fleet is bit-identical \
         to the Router above."
    );

    // --- 3. RetentionPolicy: bounded-memory streaming ----------------
    println!("\nnow with a bounded-memory lifecycle (streaming deployment):");
    let window = 5_000usize;
    let mut unbounded = Router::builder().shards(shards).build();
    let mut windowed = Router::builder()
        .shards(shards)
        .retention(RetentionPolicy::WindowTxs(window))
        .build();
    let mut hubs = Router::builder()
        .shards(shards)
        .retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 8 })
        .build();
    for tx in stream.iter() {
        unbounded.submit_tx(tx)?;
        windowed.submit_tx(tx)?;
        hubs.submit_tx(tx)?;
    }
    windowed.compact(); // checkpoint-time shrink
    hubs.compact();
    for (label, router) in [
        ("Unbounded        ", &unbounded),
        ("WindowTxs(5000)  ", &windowed),
        ("KeepUnspentAndHubs", &hubs),
    ] {
        println!(
            "  {label}: {:>6} live nodes, {:>7} evicted, TaN arena {:>8} bytes",
            router.tan().live_len(),
            router.tan().evicted_nodes(),
            router.tan().arena_bytes(),
        );
    }
    println!(
        "\nA windowed router holds O(window) graph state no matter how long the stream \
         runs; KeepUnspentAndHubs additionally keeps old unspent outputs and hubs \
         resolvable. Every tx whose parents sit inside the window places exactly as \
         the unbounded router placed it."
    );
    Ok(())
}
