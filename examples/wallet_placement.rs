//! Wallet-side placement: what the paper's modified wallet software does
//! for each new transaction — compute T2S scores from the transaction's
//! inputs, estimate per-shard confirmation latency from observed
//! telemetry, and submit to the shard with the best temporal fitness.
//!
//! The wallet owns a [`Router`]: it feeds telemetry in as shards publish
//! it and submits transactions out, with no graph bookkeeping of its own.
//!
//! ```sh
//! cargo run --release --example wallet_placement
//! ```

use optchain::prelude::*;
use optchain_utxo::Transaction;

fn main() -> std::io::Result<()> {
    let k = 4;
    let mut wallet = Router::builder().shards(k).build();

    // The wallet has observed this telemetry from the shards: shard 2 is
    // backlogged (its verification estimate reflects a long queue).
    wallet.feed_telemetry(&[
        ShardTelemetry::new(0.10, 2.5),
        ShardTelemetry::new(0.12, 2.5),
        ShardTelemetry::new(0.10, 25.0), // backlogged
        ShardTelemetry::new(0.11, 2.5),
    ]);

    // History: a coinbase and a spend.
    let history = [
        Transaction::coinbase(TxId(0), 100_000, WalletId(1)),
        Transaction::builder(TxId(1))
            .input(TxId(0).outpoint(0))
            .output(TxOutput::new(60_000, WalletId(2)))
            .output(TxOutput::new(39_000, WalletId(1)))
            .build(),
    ];
    for tx in &history {
        let shard = wallet.submit_tx(tx)?;
        println!("{tx} -> {shard}");
    }

    // A new payment spending both outputs of tx#1 arrives. Show the full
    // decision breakdown the wallet computes.
    let payment = Transaction::builder(TxId(2))
        .input(TxId(1).outpoint(0))
        .input(TxId(1).outpoint(1))
        .output(TxOutput::new(98_000, WalletId(3)))
        .build();
    wallet.submit_tx(&payment)?;
    let decision = wallet.last_decision();

    println!("\ndecision for {payment}:");
    println!("  shard   T2S        L2S (s)   fitness");
    for j in 0..k as usize {
        let marker = if j == decision.shard().index() {
            " <- chosen"
        } else {
            ""
        };
        println!(
            "  {:<7} {:<10.6} {:<9.2} {:.6}{marker}",
            j,
            decision.t2s()[j],
            decision.l2s()[j],
            decision.fitness()[j],
        );
    }
    println!(
        "\nthe transaction follows its parents' shard unless that shard is backlogged \
         (the wallet would divert it if {} backed up).",
        decision.shard(),
    );
    Ok(())
}
