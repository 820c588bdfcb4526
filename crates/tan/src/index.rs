//! The `TxId → NodeId` index of a [`TanGraph`](crate::TanGraph).
//!
//! Open addressing over a power-of-two table of `u64` slots. A slot packs
//! the high 32 bits of the id's [`splitmix64`] hash — its **tag** — above
//! `node + 1`; zero marks an empty slot, so a fresh table is zeroed
//! memory. The tag's top bits are also the slot the id hashes to (its
//! *home*), so doubling the table re-places every entry without reading a
//! key. Probing is linear from the home slot and the table is at most
//! half full, so probe runs stay short and always end at an empty slot.
//! Deletion shifts the rest of the probe cluster back into the hole:
//! eviction leaves no tombstones and the table never rehashes in place.
//!
//! The index does not hold the `TxId`. A tag hit is handed to the
//! caller, who confirms it against the id the node's row already stores —
//! and, in the graph, answers with where that row is, so the lookup that
//! resolves a parent also locates it. At 8 bytes a slot that is 16–32 B
//! an entry, below a std `HashMap` from ids to nodes at every size: 17 B
//! a bucket (the 16-byte pair plus a control byte) at up to 7/8 load,
//! 19.4–38.9 B an entry.

use optchain_utxo::TxId;

use crate::graph::NodeId;
use crate::hash::splitmix64;

/// An unused slot.
const EMPTY: u64 = 0;

/// The smallest table allocated.
const MIN_SLOTS: usize = 8;

/// The hash tag of `txid`: the high half of its [`splitmix64`] mix.
#[inline]
fn tag_of(txid: TxId) -> u32 {
    (splitmix64(txid.0) >> 32) as u32
}

/// The slot word of `node` under `tag`.
#[inline]
fn pack(tag: u32, node: NodeId) -> u64 {
    debug_assert!(node.0 < u32::MAX, "node ids stay below u32::MAX");
    (tag as u64) << 32 | (node.0 as u64 + 1)
}

/// Table size holding `entries` at most half full.
fn slots_for(entries: usize) -> usize {
    (entries * 2).next_power_of_two().max(MIN_SLOTS)
}

/// Open-addressed `TxId → NodeId` map whose keys live with the caller
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct TxIndex {
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: a tag's home is its top bits.
    shift: u32,
    len: usize,
}

impl TxIndex {
    /// An empty index; allocates nothing until the first insertion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the index holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the table owns.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((tag as u64) << 32 >> self.shift) as usize
    }

    /// Walks `txid`'s probe sequence and returns the first `hit(node)`
    /// that is `Some` — `hit` is asked about every node whose tag
    /// matches, and answers whether that node's key is `txid`. `None`
    /// once the sequence reaches an empty slot.
    #[inline]
    pub fn find<T>(&self, txid: TxId, mut hit: impl FnMut(NodeId) -> Option<T>) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let tag = tag_of(txid);
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if (slot >> 32) as u32 == tag {
                if let Some(found) = hit(NodeId(slot as u32 - 1)) {
                    return Some(found);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Maps `txid` to `node` unless it is mapped already, in which case
    /// the node it maps to comes back and nothing changes. As in
    /// [`TxIndex::find`], `is_key` is asked about every node whose tag
    /// matches on the way to the free slot, so one probe both checks and
    /// inserts. Doubles the table when the entry would fill more than
    /// half of it.
    pub fn insert(
        &mut self,
        txid: TxId,
        node: NodeId,
        mut is_key: impl FnMut(NodeId) -> bool,
    ) -> Result<(), NodeId> {
        let tag = tag_of(txid);
        let mut i = 0;
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            i = self.home(tag);
            loop {
                let slot = self.slots[i];
                if slot == EMPTY {
                    break;
                }
                if (slot >> 32) as u32 == tag && is_key(NodeId(slot as u32 - 1)) {
                    return Err(NodeId(slot as u32 - 1));
                }
                i = (i + 1) & mask;
            }
        }
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize(slots_for(self.len + 1));
            self.place(pack(tag, node));
        } else {
            self.slots[i] = pack(tag, node);
        }
        self.len += 1;
        Ok(())
    }

    /// Removes the entry mapping `txid` to `node`, shifting the rest of
    /// its probe cluster back so no tombstone remains. `false` if there
    /// was none.
    pub fn remove(&mut self, txid: TxId, node: NodeId) -> bool {
        if self.len == 0 {
            return false;
        }
        let tag = tag_of(txid);
        let target = pack(tag, node);
        let mask = self.slots.len() - 1;
        let mut hole = self.home(tag);
        while self.slots[hole] != target {
            if self.slots[hole] == EMPTY {
                return false;
            }
            hole = (hole + 1) & mask;
        }
        // An entry may fill the hole iff the hole lies on its probe path:
        // its home is no later (cyclically) than the hole.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot == EMPTY {
                break;
            }
            let home = self.home((slot >> 32) as u32);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        true
    }

    /// Sizes the table for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        let want = slots_for(self.len + additional);
        if want > self.slots.len() {
            self.resize(want);
        }
    }

    /// Shrinks the table to the smallest that holds its entries.
    pub fn shrink_to_fit(&mut self) {
        let want = slots_for(self.len);
        if want < self.slots.len() {
            self.resize(want);
        }
    }

    /// Moves every entry into a fresh table of `slots` slots.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        self.shift = 64 - slots.trailing_zeros();
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            self.place(slot);
        }
    }

    /// Writes `slot` at the first empty slot from its home.
    #[inline]
    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home((slot >> 32) as u32);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }
}
