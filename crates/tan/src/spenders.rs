//! Spender lists — the paper's `Nout(v)`, in arrival order.
//!
//! Spenders arrive after their parent, so a node's list grows for as
//! long as the node lives. A row holds its [`SpenderList`] itself: the
//! count and the first [`INLINE`] spenders, which is all 92.5 % of the
//! nodes of a Bitcoin-like stream ever have. The rest overflow into
//! [`CHUNK`]-slot chunks of one shared arena ([`Overflow`]), linked per
//! node; a node spanning several chunks (a hub) also has a **chunk
//! directory** entry listing them, so a historical degree is a binary
//! search instead of a walk. An evicted node's chunks go on a free
//! list, so chunk ids never move.

use std::collections::HashMap;

use crate::graph::NodeId;
use crate::hash::TxIdBuildHasher;

/// Sentinel for "no chunk".
const NONE: u32 = u32::MAX;

/// Spenders a row holds itself. The TaN average degree is ≈ 2.3 (Fig 2)
/// and most nodes are spent once or twice, so the inline slots cover the
/// overwhelming majority of spender lists.
const INLINE: usize = 2;

/// Overflow chunk capacity: spenders past the inline slots fill chunks
/// of this size; heavy fan-out nodes chain several.
pub(crate) const CHUNK: usize = 6;

/// A row's spender list (16 bytes): `|Nout(v)|` so far, the first
/// [`INLINE`] spenders, and the last overflow chunk. The first overflow
/// chunk is the last until a second one opens, and from then on the
/// first entry of the node's chunk directory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpenderList {
    /// Spenders so far (O(1) in-degree).
    count: u32,
    /// The first `min(count, INLINE)` spenders.
    inline: [NodeId; INLINE],
    /// Last overflow chunk, or [`NONE`] (append fast path).
    tail: u32,
}

impl SpenderList {
    /// The list of a node nobody has spent.
    pub(crate) const UNSPENT: SpenderList = SpenderList {
        count: 0,
        inline: [NodeId(0); INLINE],
        tail: NONE,
    };

    /// `|Nout(v)|` so far.
    #[inline]
    pub(crate) fn count(&self) -> u32 {
        self.count
    }

    /// The occupied inline slots.
    #[inline]
    fn inline(&self) -> &[NodeId] {
        &self.inline[..(self.count as usize).min(INLINE)]
    }

    /// `true` iff the list spans more than one overflow chunk, so its
    /// node has a chunk directory entry.
    #[inline]
    fn has_dir(&self) -> bool {
        self.count as usize > INLINE + CHUNK
    }
}

/// One overflow chunk of a node's spender list.
#[derive(Debug, Clone)]
struct SpenderChunk {
    /// Next chunk of the same node, or [`NONE`].
    next: u32,
    /// Occupied slots in this chunk.
    len: u32,
    slots: [NodeId; CHUNK],
}

impl SpenderChunk {
    fn entries(&self) -> &[NodeId] {
        &self.slots[..self.len as usize]
    }
}

/// The overflow chunks behind every [`SpenderList`] of a graph, the
/// chunks evicted nodes gave back, and the hub chunk directory. Lists
/// are named by their node's **stable id**, the directory's key.
#[derive(Debug, Clone)]
pub(crate) struct Overflow {
    chunks: Vec<SpenderChunk>,
    /// Head of the list of chunks evicted nodes gave back (linked
    /// through [`SpenderChunk::next`]), or [`NONE`].
    free: u32,
    /// Chunk directory for nodes whose overflow spans **multiple**
    /// chunks (high-fanout hubs only — nodes with at most one overflow
    /// chunk, the common case, never appear here): the node's chunk ids
    /// in list order. Because a new chunk is only opened when the tail
    /// is full, every chunk but the last holds exactly [`CHUNK`]
    /// spenders, and spender ids grow monotonically — so
    /// [`Overflow::seen_by`] can binary search the directory by each
    /// chunk's first id instead of walking the chunk list.
    dir: HashMap<u32, Vec<u32>, TxIdBuildHasher>,
}

impl Overflow {
    pub(crate) fn new() -> Self {
        Overflow {
            chunks: Vec::new(),
            free: NONE,
            dir: HashMap::with_hasher(TxIdBuildHasher),
        }
    }

    /// Room for the overflow of `nodes` nodes without reallocating.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        // Roughly one node in eight outgrows its inline slots.
        self.chunks.reserve(nodes / 8);
    }

    /// Appends `spender` to node `id`'s `list`: into an inline slot
    /// while one is free, else into its tail chunk, else into a fresh
    /// chunk — one an evicted node gave back if there is one.
    #[inline]
    pub(crate) fn push(&mut self, id: u32, list: &mut SpenderList, spender: NodeId) {
        let n = list.count as usize;
        list.count += 1;
        if n < INLINE {
            list.inline[n] = spender;
            return;
        }
        let tail = list.tail;
        if tail != NONE {
            let chunk = &mut self.chunks[tail as usize];
            if (chunk.len as usize) < CHUNK {
                chunk.slots[chunk.len as usize] = spender;
                chunk.len += 1;
                return;
            }
        }
        let mut chunk = SpenderChunk {
            next: NONE,
            len: 1,
            slots: [NodeId(0); CHUNK],
        };
        chunk.slots[0] = spender;
        let idx = match self.free {
            NONE => {
                self.chunks.push(chunk);
                self.chunks.len() as u32 - 1
            }
            free => {
                self.free = std::mem::replace(&mut self.chunks[free as usize], chunk).next;
                free
            }
        };
        list.tail = idx;
        if tail != NONE {
            self.chunks[tail as usize].next = idx;
            // The node now spans multiple chunks: index them for the
            // historical binary search (amortized — once per CHUNK
            // spenders on hubs, never for single-chunk nodes). The
            // first time, the old tail is the head.
            self.dir
                .entry(id)
                .or_insert_with(|| {
                    let mut dir = Vec::with_capacity(4);
                    dir.push(tail);
                    dir
                })
                .push(idx);
        }
    }

    /// Takes back the chunks of evicted node `id`, whose list was `list`.
    pub(crate) fn release(&mut self, id: u32, list: &SpenderList) {
        if list.tail == NONE {
            return;
        }
        let head = if list.has_dir() {
            self.dir.remove(&id).expect("multi-chunk nodes are indexed")[0]
        } else {
            list.tail
        };
        self.chunks[list.tail as usize].next = self.free;
        self.free = head;
    }

    /// The spenders of node `id`, whose list is `list`: its inline
    /// slots, then its overflow chain.
    pub(crate) fn iter<'a>(&'a self, id: u32, list: &'a SpenderList) -> Spenders<'a> {
        let chunk = if list.has_dir() {
            self.dir[&id][0]
        } else {
            list.tail
        };
        Spenders {
            inline: list.inline().iter(),
            chunks: &self.chunks,
            chunk,
            slot: 0,
        }
    }

    /// How many of node `id`'s spenders have ids `<= observer`. O(1)
    /// when all of them do (the streaming case) or the node has at most
    /// one overflow chunk; otherwise a binary search of its chunk
    /// directory and then of the straddling chunk — `O(log d)` on a hub
    /// of in-degree `d`.
    pub(crate) fn seen_by(&self, id: u32, list: &SpenderList, observer: NodeId) -> usize {
        let count = list.count as usize;
        let seen = |spenders: &[NodeId], before: usize| {
            before + spenders.partition_point(|&s| s <= observer)
        };
        // Spent at most twice — the common case: the row says it all.
        if count <= INLINE {
            return seen(list.inline(), 0);
        }
        // Fast path: spender lists grow in id order, so if the most
        // recently appended spender is within view, all of them are.
        let tail = &self.chunks[list.tail as usize];
        if tail.slots[tail.len as usize - 1] <= observer {
            return count;
        }
        if list.inline[INLINE - 1] > observer {
            return seen(list.inline(), 0);
        }
        // One overflow chunk: the count alone proves there is no
        // directory entry to look up.
        if !list.has_dir() {
            return seen(tail.entries(), INLINE);
        }
        let dir = &self.dir[&id];
        // Every chunk but the last is full (a new chunk is only opened
        // when the tail fills), so the chunk at directory position `i`
        // covers spenders `INLINE + i * CHUNK ..`. Find the last chunk
        // whose first spender is within view; everything before it is
        // fully visible.
        let pos = dir.partition_point(|&c| self.chunks[c as usize].slots[0] <= observer);
        if pos == 0 {
            return INLINE;
        }
        let chunk = &self.chunks[dir[pos - 1] as usize];
        seen(chunk.entries(), INLINE + (pos - 1) * CHUNK)
    }

    /// Heap bytes of the chunk arena, free chunks included (the
    /// directory is not counted).
    pub(crate) fn bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<SpenderChunk>()
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.chunks.shrink_to_fit();
    }
}

/// Iterator over a node's spenders (see [`TanGraph::spenders`]).
///
/// [`TanGraph::spenders`]: crate::TanGraph::spenders
#[derive(Debug, Clone)]
pub struct Spenders<'a> {
    inline: std::slice::Iter<'a, NodeId>,
    chunks: &'a [SpenderChunk],
    chunk: u32,
    slot: u32,
}

impl Iterator for Spenders<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if let Some(&s) = self.inline.next() {
            return Some(s);
        }
        while self.chunk != NONE {
            let chunk = &self.chunks[self.chunk as usize];
            if self.slot < chunk.len {
                let item = chunk.slots[self.slot as usize];
                self.slot += 1;
                return Some(item);
            }
            self.chunk = chunk.next;
            self.slot = 0;
        }
        None
    }
}
