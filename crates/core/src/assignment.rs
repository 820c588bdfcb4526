//! The [`AssignmentStore`]: per-node shard assignment history, windowed
//! under a [`RetentionPolicy`].
//!
//! Every placer records the shard of every node it has placed, indexed
//! by **stable node id** — the raw `Vec<u32>` the seed used costs 4
//! bytes per transaction *forever*, which was the last O(stream) state
//! on the placement path after PR 4 bounded the TaN graph and the T2S
//! score matrix. The store finishes the O(window) story with the same
//! machinery those use:
//!
//! * **Unbounded** (the default) — a plain dense vector; `get` always
//!   resolves. Bit-for-bit the old behavior.
//! * **`WindowTxs(n)`** — a fixed ring of `n` entries. An assignment is
//!   resolvable exactly while its node is live in the graph (the graph
//!   eviction horizon and the ring trail the stream by the same `n`, in
//!   lockstep with the T2S score ring), then reads degrade to `None` —
//!   the same graceful degradation as a spend of an evicted output.
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

use std::collections::HashMap;

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_tan::hash::TxIdBuildHasher;
use optchain_tan::{NodeId, RetentionPolicy, TanGraph};

use crate::placer::ShardId;

/// Windowed per-node shard assignment history (see the module docs).
///
/// Writers push in strict arrival order — the store is always owned by
/// exactly one placer, which enforces the ordering. Under
/// [`RetentionPolicy::KeepUnspentAndHubs`] pushes must go through
/// [`AssignmentStore::push_in`] (the wrap decision consults the graph).
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentStore {
    /// The dense history (unbounded) or a ring of `window` slots
    /// addressed by `id % window`.
    dense: Vec<u32>,
    /// Total entries ever pushed — the next stable id.
    len: usize,
    /// Ring capacity in entries (`usize::MAX` = unbounded).
    window: usize,
    /// `Some(min_degree)` under [`RetentionPolicy::KeepUnspentAndHubs`]:
    /// wrapped-over entries of graph-retained survivors move to the
    /// side table instead of vanishing.
    keep_hubs: Option<u32>,
    /// Saved assignments of retained survivors, keyed by stable id.
    retained: HashMap<u32, u32, TxIdBuildHasher>,
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
        AssignmentStore {
            dense: Vec::new(),
            len: 0,
            window: usize::MAX,
            keep_hubs: None,
            retained: HashMap::with_hasher(TxIdBuildHasher),
        }
    }

    /// A store whose memory follows `retention` — the same policy the
    /// owning router threads into its graph and T2S engine, so edge
    /// resolution, score retention, and assignment retention stay in
    /// lockstep.
    pub fn with_retention(retention: RetentionPolicy) -> Self {
        let mut store = Self::new();
        if let Some(window) = retention.graph_window() {
            assert!(window > 0, "retention window must be positive");
            store.window = window;
            store.dense = vec![0; window];
        }
        if let RetentionPolicy::KeepUnspentAndHubs { min_degree } = retention {
            store.keep_hubs = Some(min_degree);
        }
        store
    }

    /// `true` iff `other` windows its history the same way (the restore
    /// check: a checkpointed store must follow the restoring router's
    /// retention policy).
    pub(crate) fn same_shape(&self, other: &AssignmentStore) -> bool {
        (self.window, self.keep_hubs) == (other.window, other.keep_hubs)
    }

    /// Total entries ever pushed — the stream length in stable-id
    /// space. Eviction never shrinks this (see
    /// [`AssignmentStore::live_len`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently resolvable: the live window plus retained
    /// survivors.
    pub fn live_len(&self) -> usize {
        self.len.min(self.window) + self.retained.len()
    }

    /// First id of the guaranteed-live dense range: every id at or
    /// above this resolves; ids below resolve only through the
    /// retained-survivor table. Zero on unbounded stores.
    pub fn horizon(&self) -> usize {
        if self.window == usize::MAX {
            0
        } else {
            self.len.saturating_sub(self.window)
        }
    }

    /// The shard recorded for stable id `id`, or `None` when the entry
    /// was evicted (or never pushed).
    #[inline]
    pub fn get_index(&self, id: usize) -> Option<u32> {
        if id >= self.len {
            return None;
        }
        if self.window == usize::MAX {
            Some(self.dense[id])
        } else if id + self.window >= self.len {
            Some(self.dense[id % self.window])
        } else {
            self.retained.get(&(id as u32)).copied()
        }
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
        if id >= self.len {
            return false;
        }
        if self.window == usize::MAX {
            self.dense[id] = shard;
            true
        } else if id + self.window >= self.len {
            self.dense[id % self.window] = shard;
            true
        } else if let Some(entry) = self.retained.get_mut(&(id as u32)) {
            *entry = shard;
            true
        } else {
            false
        }
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
        assert!(
            self.keep_hubs.is_none(),
            "KeepUnspentAndHubs stores must push through push_in \
             (the wrapped ring slot may hold a retained survivor)"
        );
        self.push_raw(shard);
    }

    /// [`AssignmentStore::push`] with graph access: before the ring
    /// slot of the aged-out node is overwritten, a `KeepUnspentAndHubs`
    /// store copies its assignment into the side table when the graph
    /// retains the node (unspent or hub **at this point of the stream**
    /// — the same predicate and position as the graph's own eviction
    /// and the T2S engine's row retention). Identical to `push` for
    /// every other configuration.
    pub fn push_in(&mut self, tan: &TanGraph, shard: u32) {
        if let Some(min_degree) = self.keep_hubs {
            if self.window != usize::MAX && self.len >= self.window {
                let evictee = (self.len - self.window) as u32;
                let node = NodeId(evictee);
                if tan.is_live(node) {
                    let d = tan.in_degree(node) as u32;
                    if d == 0 || d >= min_degree {
                        self.retained
                            .insert(evictee, self.dense[evictee as usize % self.window]);
                    }
                }
            }
        }
        self.push_raw(shard);
    }

    fn push_raw(&mut self, shard: u32) {
        if self.window == usize::MAX {
            self.dense.push(shard);
        } else {
            self.dense[self.len % self.window] = shard;
        }
        self.len += 1;
    }

    /// Releases excess capacity (checkpoint-time shrink; the ring is
    /// fixed-size, so only the unbounded vector and the side table have
    /// slack to give back).
    pub fn compact(&mut self) {
        if self.window == usize::MAX {
            self.dense.shrink_to_fit();
        }
        self.retained.shrink_to_fit();
    }

    /// Bytes of heap owned by the store (O(window) under a window).
    pub fn state_bytes(&self) -> usize {
        // A HashMap entry costs the (key, value) pair plus control
        // bytes; 2× the payload is the usual accounting approximation.
        self.dense.capacity() * std::mem::size_of::<u32>() + self.retained.len() * 16
    }

    /// A read-only view (the shape the [`crate::Placer`] trait exposes).
    pub fn view(&self) -> AssignmentView<'_> {
        AssignmentView(self)
    }

    /// Serializes the store for a durable checkpoint. Deterministic:
    /// the retained-survivor table is written in ascending id order.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.len as u64);
        w.put_u64(if self.window == usize::MAX {
            u64::MAX
        } else {
            self.window as u64
        });
        match self.keep_hubs {
            None => w.put_u8(0),
            Some(min_degree) => {
                w.put_u8(1);
                w.put_u32(min_degree);
            }
        }
        w.put_u64(self.dense.len() as u64);
        for &shard in &self.dense {
            w.put_u32(shard);
        }
        let mut keys: Vec<u32> = self.retained.keys().copied().collect();
        keys.sort_unstable();
        w.put_u64(keys.len() as u64);
        for id in keys {
            w.put_u32(id);
            w.put_u32(self.retained[&id]);
        }
    }

    /// Decodes a store previously written by
    /// [`AssignmentStore::encode_into`], validating that the dense
    /// length matches the window/stream state.
    pub(crate) fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.get_u64()? as usize;
        let window_raw = r.get_u64()?;
        let window = if window_raw == u64::MAX {
            usize::MAX
        } else {
            window_raw as usize
        };
        if window == 0 {
            return Err(CodecError("assignment window must be positive"));
        }
        let keep_hubs = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u32()?),
            _ => return Err(CodecError("bad keep_hubs tag")),
        };
        let dlen = r.get_count(4)?;
        let expected = if window == usize::MAX { len } else { window };
        if dlen != expected {
            return Err(CodecError("assignment dense length mismatch"));
        }
        let mut dense = Vec::with_capacity(dlen);
        for _ in 0..dlen {
            dense.push(r.get_u32()?);
        }
        let rcount = r.get_count(8)?;
        let mut retained = HashMap::with_capacity_and_hasher(rcount, TxIdBuildHasher);
        let mut prev = None;
        for _ in 0..rcount {
            let id = r.get_u32()?;
            if prev.is_some_and(|p: u32| p >= id) {
                return Err(CodecError("retained assignments out of order"));
            }
            prev = Some(id);
            let shard = r.get_u32()?;
            retained.insert(id, shard);
        }
        Ok(AssignmentStore {
            dense,
            len,
            window,
            keep_hubs,
            retained,
        })
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
        let mut retained: Vec<u32> = store.retained.keys().copied().collect();
        retained.sort_unstable();
        let horizon = store.horizon();
        retained
            .into_iter()
            .map(move |id| (NodeId(id), ShardId(store.retained[&id])))
            .chain((horizon..store.len).map(move |id| {
                (
                    NodeId(id as u32),
                    ShardId(store.get_index(id).expect("dense range is live")),
                )
            }))
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
        let mut store = AssignmentStore::with_retention(RetentionPolicy::WindowTxs(3));
        store.keep_hubs = Some(2);
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
        let mut hubs = AssignmentStore::with_retention(RetentionPolicy::WindowTxs(3));
        hubs.keep_hubs = Some(2);
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
        store.push(9);
        let mut w = ByteWriter::new();
        store.encode_into(&mut w);
        let mut buf = w.into_vec();
        // Shrink the claimed window without touching the dense run.
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
