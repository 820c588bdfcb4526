//! The transaction-stream generators the golden and property tests
//! share. Every stream is random but valid: transaction `i` has one
//! output and spends output 0 of earlier transactions that are still
//! unspent, so nothing is ever double-spent.
#![allow(dead_code)]

use optchain_core::{MemStorage, RebalancePolicy, Router, RouterBuilder, SharedStorage};
use optchain_tan::hash::splitmix64;
use optchain_utxo::{Transaction, TxId, TxOutput, WalletId};

/// Builds `builder` as a durable router over a clonable in-RAM backend,
/// so a test can take it through [`restart`].
pub fn in_ram(builder: RouterBuilder) -> (Router, SharedStorage<MemStorage>) {
    let storage = SharedStorage::new(MemStorage::new());
    (builder.storage(Box::new(storage.clone())).build(), storage)
}

/// An aggressive rebalancer: an epoch boundary every `interval`
/// placements, staging whenever a shard is above the mean, so short
/// streams still cross several epochs.
pub fn aggressive(interval: u64) -> RebalancePolicy {
    RebalancePolicy::default()
        .with_epoch_interval(interval)
        .with_min_in_degree(1)
        .with_utilization_trigger(1.0)
}

/// A clean restart: snapshot, drop, `Router::recover` — the one way a
/// router's state comes back.
pub fn restart(mut router: Router, storage: &SharedStorage<MemStorage>) -> Router {
    router.checkpoint_now().unwrap();
    drop(router);
    Router::recover(Box::new(storage.clone())).unwrap()
}

/// A proptest recipe for [`build_stream`], up to `max_len` transactions:
/// per transaction, how far back each of its (up to three) inputs
/// reaches.
pub fn stream_strategy(max_len: usize) -> impl proptest::strategy::Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(1u8..30, 0..4), 1..max_len)
}

/// `len` transactions where transaction `i` tries to spend
/// `i − offset` for each offset `reach(i)` yields (skipping offsets
/// past the stream's start, spent outputs and repeats).
fn stream_from<I: IntoIterator<Item = usize>>(
    len: usize,
    reach: impl Fn(usize) -> I,
) -> Vec<Transaction> {
    let mut spent = vec![false; len];
    let mut txs = Vec::with_capacity(len);
    for i in 0..len {
        let mut builder = Transaction::builder(TxId(i as u64));
        let mut used = Vec::new();
        for p in reach(i).into_iter().filter_map(|off| i.checked_sub(off)) {
            if !spent[p] && !used.contains(&p) {
                used.push(p);
            }
        }
        for &p in &used {
            spent[p] = true;
            builder = builder.input(TxId(p as u64).outpoint(0));
        }
        txs.push(builder.output(TxOutput::new(1, WalletId(0))).build());
    }
    txs
}

/// Materializes a [`stream_strategy`] recipe.
pub fn build_stream(recipe: &[Vec<u8>]) -> Vec<Transaction> {
    stream_from(recipe.len(), |i| recipe[i].iter().map(|off| *off as usize))
}

/// A deterministic stream from `seed`: up to three inputs per
/// transaction, none farther than `max_offset` back.
pub fn seeded_stream(len: usize, max_offset: u8, seed: u64) -> Vec<Transaction> {
    stream_from(len, |i| {
        let n_inputs = splitmix64(seed ^ (i as u64)) % 4;
        (0..n_inputs)
            .map(move |j| 1 + (splitmix64(seed ^ (i as u64) << 3 ^ j) % max_offset as u64) as usize)
    })
}
