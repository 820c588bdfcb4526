//! The [`AssignmentStore`]: per-node shard assignment history, windowed
//! under a [`RetentionPolicy`].
//!
//! Every placer records the shard of every node it has placed, indexed
//! by **stable node id** — the raw `Vec<u32>` the seed used costs 4
//! bytes per transaction *forever*, which was the last O(stream) state
//! on the placement path after PR 4 bounded the TaN graph and the T2S
//! score matrix. The store finishes the O(window) story in a
//! [`WindowedRows`], the container the T2S score rows age in too:
//!
//! * **Unbounded** (the default) — a plain dense vector; `get` always
//!   resolves. Bit-for-bit the old behavior.
//! * **`WindowTxs(n)`** — a ring that grows to `n` entries, then
//!   recycles its slots. An assignment is resolvable exactly while its
//!   node is live in the graph (the graph eviction horizon and the ring
//!   trail the stream by the same `n`, in lockstep with the T2S score
//!   ring), then reads degrade to `None` — the same graceful
//!   degradation as a spend of an evicted output.
//! * **`KeepUnspentAndHubs { min_degree }`** — the
//!   [`RetentionPolicy::HUB_WINDOW`]-sized ring plus a sparse
//!   **retained-survivor side table**: at the moment a ring slot wraps,
//!   the assignment of an aged node the graph keeps alive (unspent
//!   frontier / hub — the exact predicate, at the exact stream position,
//!   the graph's own eviction applies) is copied aside, so a spend of a
//!   month-old hub still resolves its input shard.
//!
//! Readers go through an [`AssignmentView`]: `get(node)` returns
//! `Option<ShardId>` (`None` = evicted), `len()` counts the whole
//! stream (stable ids never disappear), `live_len()` counts resident
//! entries, and `iter_live()` walks the resident range in id order.

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_tan::{NodeId, RetentionPolicy, TanGraph, WindowedRows};

use crate::placer::ShardId;

/// Windowed per-node shard assignment history (see the module docs):
/// one `u32` per node in a [`WindowedRows`], which owns the ring, the
/// survivor table and the rule filling it.
///
/// Writers push in strict arrival order — the store is always owned by
/// exactly one placer, which enforces the ordering. Under
/// [`RetentionPolicy::KeepUnspentAndHubs`] pushes must go through
/// [`AssignmentStore::push_in`] (the wrap decision consults the graph).
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentStore {
    rows: WindowedRows<u32>,
}

impl Default for AssignmentStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AssignmentStore {
    /// An unbounded store — every entry stays resolvable forever (the
    /// experiment/replay configuration, and the right default for a
    /// [`crate::Placer`] implemented outside this crate).
    pub fn new() -> Self {
        Self::with_retention(RetentionPolicy::Unbounded)
    }

    /// A store whose memory follows `retention` — the same policy the
    /// owning router threads into its graph and T2S engine, so edge
    /// resolution, score retention, and assignment retention stay in
    /// lockstep.
    pub fn with_retention(retention: RetentionPolicy) -> Self {
        AssignmentStore {
            rows: WindowedRows::new(retention, 1),
        }
    }

    /// `true` iff `other` windows its history the same way (the restore
    /// check: a checkpointed store must follow the restoring router's
    /// retention policy).
    pub(crate) fn same_shape(&self, other: &AssignmentStore) -> bool {
        self.rows.same_shape(&other.rows)
    }

    /// Total entries ever pushed — the stream length in stable-id
    /// space. Eviction never shrinks this (see
    /// [`AssignmentStore::live_len`]).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Entries currently resolvable: the live window plus retained
    /// survivors.
    pub fn live_len(&self) -> usize {
        self.rows.live_len()
    }

    /// First id of the guaranteed-live dense range: every id at or
    /// above this resolves; ids below resolve only through the
    /// retained-survivor table. Zero on unbounded stores.
    pub fn horizon(&self) -> usize {
        self.rows.horizon()
    }

    /// The shard recorded for stable id `id`, or `None` when the entry
    /// was evicted (or never pushed).
    #[inline]
    pub fn get_index(&self, id: usize) -> Option<u32> {
        self.rows.row(id).map(|row| row[0])
    }

    /// [`AssignmentStore::get_index`] in node/shard vocabulary.
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<ShardId> {
        self.get_index(node.index()).map(ShardId)
    }

    /// Rewrites the shard recorded for stable id `id` — the migration
    /// epoch's commit primitive. Returns `false` (store untouched) when
    /// the entry is not resolvable (never pushed, or evicted), which is
    /// exactly the "move validated against the live window at commit
    /// time" contract: a staged move whose node aged out between epoch
    /// open and commit is dropped, never applied to a recycled ring
    /// slot.
    pub(crate) fn reassign(&mut self, id: usize, shard: u32) -> bool {
        self.rows.row_mut(id).map(|row| row[0] = shard).is_some()
    }

    /// Records the shard of the next node. For
    /// [`RetentionPolicy::KeepUnspentAndHubs`] stores use
    /// [`AssignmentStore::push_in`] — the wrap decision needs the graph.
    ///
    /// # Panics
    ///
    /// Panics on a `KeepUnspentAndHubs` store (the entry a full ring
    /// would overwrite may belong to a retained survivor).
    pub fn push(&mut self, shard: u32) {
        self.rows.push()[0] = shard;
    }

    /// [`AssignmentStore::push`] with graph access: before the ring
    /// slot of the aged-out node is overwritten, a `KeepUnspentAndHubs`
    /// store keeps its assignment when the graph retains the node (see
    /// [`WindowedRows::push_in`]). Identical to `push` for every other
    /// configuration.
    pub fn push_in(&mut self, tan: &TanGraph, shard: u32) {
        self.rows.push_in(tan)[0] = shard;
    }

    /// Releases excess capacity (checkpoint-time shrink; a full ring has
    /// none, a warming ring, the unbounded vector and the survivor table
    /// may).
    pub fn compact(&mut self) {
        self.rows.compact();
    }

    /// Bytes of heap owned by the store (O(window) under a window).
    pub fn state_bytes(&self) -> usize {
        self.rows.state_bytes()
    }

    /// A read-only view (the shape the [`crate::Placer`] trait exposes).
    pub fn view(&self) -> AssignmentView<'_> {
        AssignmentView(self)
    }

    /// Serializes the store for a durable checkpoint: the stream
    /// length, then the rows' shape and cells.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.rows.len() as u64);
        self.rows.encode_shape_into(w);
        self.rows.encode_rows_into(w);
    }

    /// Decodes a store previously written by
    /// [`AssignmentStore::encode_into`].
    pub(crate) fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_u64()? as usize;
        let shape = WindowedRows::<u32>::decode_shape(r)?;
        let rows = WindowedRows::decode_rows(r, shape, 1, len)?;
        Ok(AssignmentStore { rows })
    }
}

/// Read-only window into an [`AssignmentStore`] — what
/// [`crate::Placer::assignments`] and [`crate::Router::assignments`]
/// hand out. Copy-cheap; comparisons check the full logical content
/// (two stores over the same stream under the same policy compare
/// equal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentView<'a>(&'a AssignmentStore);

impl<'a> AssignmentView<'a> {
    /// Total entries ever recorded — the stream length in stable-id
    /// space (eviction never shrinks it; see
    /// [`AssignmentView::live_len`]).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Entries currently resolvable (live window + retained survivors).
    pub fn live_len(&self) -> usize {
        self.0.live_len()
    }

    /// First id of the guaranteed-live dense range (see
    /// [`AssignmentStore::horizon`]).
    pub fn horizon(&self) -> usize {
        self.0.horizon()
    }

    /// The shard of `node`, or `None` when its entry was evicted (or
    /// never recorded).
    #[inline]
    pub fn get(&self, node: NodeId) -> Option<ShardId> {
        self.0.get(node)
    }

    /// [`AssignmentView::get`] by raw index, returning the raw shard.
    #[inline]
    pub fn get_index(&self, id: usize) -> Option<u32> {
        self.0.get_index(id)
    }

    /// Iterates the resolvable entries in stable-id order: retained
    /// survivors first (they sit below the horizon), then the live
    /// dense range.
    pub fn iter_live(self) -> impl Iterator<Item = (NodeId, ShardId)> + 'a {
        let store = self.0;
        let survivors = store.rows.survivors().iter().map(|&id| id as usize);
        survivors
            .chain(store.horizon()..store.len())
            .map(move |id| {
                let shard = store
                    .get_index(id)
                    .expect("survivors and the window are live");
                (NodeId(id as u32), ShardId(shard))
            })
    }

    /// Materializes the **full** history, or `None` when any entry has
    /// been evicted — a windowed store cannot reconstruct its dropped
    /// prefix: record shards at submission time, or read live entries
    /// through [`AssignmentView::get`] / [`AssignmentView::iter_live`].
    pub fn to_vec(&self) -> Option<Vec<u32>> {
        (0..self.0.len()).map(|id| self.0.get_index(id)).collect()
    }

    /// Heap bytes owned by the underlying store (see
    /// [`AssignmentStore::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optchain_utxo::TxId;

    #[test]
    fn unbounded_store_is_a_plain_vector() {
        let mut store = AssignmentStore::new();
        for s in [3u32, 1, 2] {
            store.push(s);
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.live_len(), 3);
        assert_eq!(store.horizon(), 0);
        assert_eq!(store.get(NodeId(0)), Some(ShardId(3)));
        assert_eq!(store.view().to_vec(), Some(vec![3, 1, 2]));
        assert_eq!(store.get_index(3), None);
    }

    #[test]
    fn windowed_store_forgets_aged_entries() {
        let mut store = AssignmentStore::with_retention(RetentionPolicy::WindowTxs(4));
        for s in 0..10u32 {
            store.push(s);
        }
        assert_eq!(store.len(), 10);
        assert_eq!(store.live_len(), 4);
        assert_eq!(store.horizon(), 6);
        for id in 0..6usize {
            assert_eq!(store.get_index(id), None, "id {id}");
        }
        for id in 6..10usize {
            assert_eq!(store.get_index(id), Some(id as u32), "id {id}");
        }
        let live: Vec<u32> = store.view().iter_live().map(|(n, _)| n.0).collect();
        assert_eq!(live, vec![6, 7, 8, 9]);
    }

    #[test]
    fn keep_hubs_saves_graph_retained_survivors() {
        let policy = RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 };
        let mut tan = TanGraph::with_retention(policy);
        // The store window is driven by hand (HUB_WINDOW is too big for
        // a unit test): window 3 via a custom store.
        let mut store = AssignmentStore {
            rows: WindowedRows::with_ring(policy, Some(3), 1),
        };
        // id 0: hub (spent twice before it ages); id 1: spent once
        // (evicted at its wrap); id 2: unspent (retained).
        let shards = [7u32, 5, 4, 0, 1, 2, 3];
        let parents: [&[TxId]; 7] = [&[], &[TxId(0)], &[TxId(0), TxId(1)], &[], &[], &[], &[]];
        for (i, ps) in parents.iter().enumerate() {
            tan.insert(TxId(i as u64), ps);
            store.push_in(&tan, shards[i]);
            let len = tan.len() as u32;
            tan.evict_before(len.saturating_sub(3));
        }
        // Hub 0 and the unspent 2 and 3 survive their wrap; spent
        // non-hub 1 is gone.
        assert_eq!(store.get(NodeId(0)), Some(ShardId(7)));
        assert_eq!(store.get(NodeId(1)), None);
        assert_eq!(store.get(NodeId(2)), Some(ShardId(4)));
        assert_eq!(store.get(NodeId(3)), Some(ShardId(0)));
        assert_eq!(store.live_len(), 3 + 3);
    }

    #[test]
    fn to_vec_degrades_to_none_on_evicted_history() {
        let mut store = AssignmentStore::with_retention(RetentionPolicy::WindowTxs(2));
        for s in 0..4u32 {
            store.push(s);
        }
        assert_eq!(store.view().to_vec(), None);
    }

    #[test]
    fn codec_roundtrips_every_store_shape() {
        let mut unbounded = AssignmentStore::new();
        let mut windowed = AssignmentStore::with_retention(RetentionPolicy::WindowTxs(3));
        let hub_policy = RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 };
        let mut hubs = AssignmentStore {
            rows: WindowedRows::with_ring(hub_policy, Some(3), 1),
        };
        let tan = TanGraph::new();
        for s in 0..7u32 {
            unbounded.push(s);
            windowed.push(s);
            hubs.push_in(&tan, s);
        }
        for store in [&unbounded, &windowed, &hubs] {
            let mut w = ByteWriter::new();
            store.encode_into(&mut w);
            let buf = w.into_vec();
            let mut r = ByteReader::new(&buf);
            let back = AssignmentStore::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(&back, store);
        }
    }

    #[test]
    fn codec_rejects_dense_length_mismatch() {
        let mut store = AssignmentStore::with_retention(RetentionPolicy::WindowTxs(4));
        (0..4).for_each(|shard| store.push(shard));
        let mut w = ByteWriter::new();
        store.encode_into(&mut w);
        let mut buf = w.into_vec();
        // Shrink a full ring's claimed window without touching its cells.
        buf[8] = 3;
        let mut r = ByteReader::new(&buf);
        assert!(AssignmentStore::decode_from(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "push_in")]
    fn keep_hubs_rejects_graph_blind_push() {
        let mut store =
            AssignmentStore::with_retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 4 });
        store.push(0);
    }
}
