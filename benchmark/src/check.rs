//! Output checks computed by the harness from the stream and the acked
//! shards alone — independent of the program's own counters, which they
//! are then compared against.

use std::ops::Range;

use optchain_utxo::Transaction;

use crate::catalog::K;

/// The generator numbers transactions by stream position, which is how
/// [`cross_placements`] finds a parent; a stream that does not is refused
/// here rather than silently miscounted.
pub fn assert_ids_are_positions(stream: &[Transaction]) {
    assert!(
        stream
            .iter()
            .enumerate()
            .all(|(i, tx)| tx.id().0 == i as u64),
        "the generated stream no longer numbers transactions by position"
    );
}

/// Placements in `range` with at least one *visible* parent on another
/// shard. Under `WindowTxs(w)` a parent is visible to the decision for
/// position `i` iff it sits at most `w` positions back (the horizon
/// advances after each placement); unbounded, every earlier parent is.
pub fn cross_placements(
    stream: &[Transaction],
    shards: &[u32],
    window: Option<usize>,
    range: Range<usize>,
) -> u64 {
    let mut cross = 0u64;
    for i in range {
        let own = shards[i];
        let is_cross = stream[i].inputs().iter().any(|outpoint| {
            let parent = outpoint.txid.0 as usize;
            parent < i && window.is_none_or(|w| i - parent <= w) && shards[parent] != own
        });
        cross += u64::from(is_cross);
    }
    cross
}

/// Max per-shard count of `shards` ÷ mean per-shard count. Entries
/// that are no shard (unanswered, out of range) were already counted as
/// failures where they arrived and are skipped here.
pub fn shard_imbalance(shards: &[u32]) -> f64 {
    let mut counts = [0u64; K as usize];
    for &shard in shards {
        if let Some(count) = counts.get_mut(shard as usize) {
            *count += 1;
        }
    }
    let max = *counts.iter().max().expect("k > 0") as f64;
    max / (shards.len() as f64 / K as f64)
}
