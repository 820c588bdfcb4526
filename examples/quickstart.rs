//! Quickstart: place a Bitcoin-like stream two ways —
//!
//! 1. through a single [`Router`] (one decision stream, bit-exact
//!    replays — how the paper's tables are produced), comparing
//!    OptChain against OmniLedger's random placement;
//! 2. through a [`RouterFleet`] (one router on its own thread behind a
//!    bounded queue, fed by many client handles — the concurrent
//!    placement *service*), showing that it places exactly like the
//!    single router;
//! 3. with a [`RetentionPolicy`] — the streaming deployment, where
//!    placement state must stay O(window) instead of growing with the
//!    stream.
//!
//! Rule of thumb: reach for `Router` when the caller owns the one
//! decision stream; reach for `RouterFleet` when many clients on many
//! threads submit into it — placement stays one sequence either way,
//! because every OptChain decision reads every earlier one; add a
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
    let clients = 4u64;
    println!("\nnow through a RouterFleet fed by {clients} clients:");
    let stream: Arc<[Transaction]> = txs.into();
    let fleet = RouterFleet::builder().shards(shards).build();
    // Four clients feed chunks round-robin; results come back via drain.
    let handles: Vec<FleetHandle> = (0..clients).map(|c| fleet.handle(c)).collect();
    for (i, start) in (0..n).step_by(1_024).enumerate() {
        let range = start..(start + 1_024).min(n);
        let _ = handles[i % handles.len()].submit_batch_detached(&stream, range);
    }
    let mut placed: Vec<(u64, ShardId)> = handles.iter().flat_map(|h| h.drain()).collect();
    placed.sort_by_key(|(seq, _)| *seq);
    // The same stream through one `Router`, in the same order.
    let mut expected = Vec::new();
    Router::builder()
        .shards(shards)
        .build()
        .submit_batch(&stream, &mut expected);
    let same = placed.iter().map(|(_, shard)| *shard).eq(expected);
    let stats = fleet.stats();
    println!(
        "  {} placed, {} cross-shard, {} parents unresolved; identical to the Router: {same}",
        stats.placed, stats.cross_placed, stats.missing_parent_refs,
    );
    println!(
        "\nOne router behind one lock keeps OptChain's decisions one sequence: each \
         client's spends see every other client's outputs at once."
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
