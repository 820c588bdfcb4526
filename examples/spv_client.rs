//! The SPV deployment: a wallet that runs OptChain with bounded memory
//! and no access to the global chain — only the input ids of its own
//! transactions and published shard telemetry, exactly as the paper
//! proposes ("users do not need to download the complete transaction
//! history"). A wallet is a [`Router`] under a retention window: the
//! same placement state as a node, bounded to recent history.
//!
//! ```sh
//! cargo run --release --example spv_client
//! ```

use optchain::prelude::*;

fn main() -> std::io::Result<()> {
    let k = 8;
    let telemetry = vec![ShardTelemetry::new(0.1, 2.5); k as usize];

    // A wallet remembering at most 1000 transactions.
    let mut wallet = Router::builder()
        .shards(k)
        .retention(RetentionPolicy::WindowTxs(1_000))
        .telemetry(&telemetry)
        .build();

    // The wallet learns where two incoming payments were placed (from
    // SPV proofs attached to the payments).
    wallet.adopt_remote(TxId(100), &[], 3)?;
    wallet.adopt_remote(TxId(200), &[], 5)?;

    // Spending the first payment: follows it into shard 3.
    let s1 = wallet.submit(TxId(300), &[TxId(100)])?;
    println!("spend of tx#100            -> {s1}");

    // A consolidation spending both: picks the better-scoring parent
    // shard (both inputs' shards are involved either way).
    let s2 = wallet.submit(TxId(301), &[TxId(300), TxId(200)])?;
    println!("consolidation of 300+200   -> {s2}");

    // A long change chain stays put...
    let mut prev = TxId(301);
    for i in 0..5u64 {
        let id = TxId(310 + i);
        let s = wallet.submit(id, &[prev])?;
        println!("change chain hop {i}         -> {s}");
        prev = id;
    }

    // ...until that shard backs up, and the wallet diverts.
    let mut congested = telemetry.clone();
    congested[wallet.shard_of(prev).expect("just placed").index()] = ShardTelemetry::new(0.1, 60.0);
    wallet.feed_telemetry(&congested);
    let diverted = wallet.submit(TxId(400), &[prev])?;
    println!("after shard backlog        -> {diverted} (diverted)");

    println!(
        "\nwallet state: {} txs remembered, ~{} bytes of graph and assignments",
        wallet.tan().live_len(),
        wallet.tan().arena_bytes() + wallet.assignments().state_bytes(),
    );
    Ok(())
}
