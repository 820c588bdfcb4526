//! Who survives the window: the [`RetentionPolicy`] and the one
//! container, [`WindowedRows`], that applies it to per-node state kept
//! outside the graph.
//!
//! Everything a placement node holds is one row per node — a shard, a
//! `k`-float score vector — indexed by **stable node id**. Under a
//! policy those rows age out exactly when the graph's own nodes do, and
//! the rows of the nodes the graph retains past its window (unspent
//! outputs, hubs) are kept aside. The rule deciding that is written
//! once, [`RetentionPolicy::keeps`]; [`crate::TanGraph::evict_before`]
//! and [`WindowedRows::push_in`] both call it, at the same stream
//! position, so their survivor sets are the same set.

use optchain_storage::{ByteReader, ByteWriter, CodecError};

use crate::graph::{NodeId, TanGraph};

/// How a streaming graph (and the state built on it) bounds its memory.
///
/// Configured once on `RouterBuilder`/`RouterFleetBuilder` and threaded
/// down through the T2S engine into the [`TanGraph`]; the graph itself
/// only consumes the policy through [`TanGraph::evict_before`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Keep everything — state grows with the stream (the offline
    /// replay/experiment default).
    #[default]
    Unbounded,
    /// Keep the most recent `n` transactions; everything older is
    /// evicted as the stream advances. Spends of evicted outputs count
    /// as missing parent references, the same degradation as pre-history
    /// spends. Memory is `O(n)`.
    WindowTxs(usize),
    /// Window the stream at [`RetentionPolicy::HUB_WINDOW`] transactions
    /// but retain, indefinitely, every aged node that is still
    /// **unspent** (in-degree 0 — its outputs may yet be spent) or is a
    /// **hub** (in-degree `>= min_degree`). Retained nodes stay
    /// resolvable — spends of them link edges and pull spenders toward
    /// their shard — while ordinary spent nodes are reclaimed. Memory is
    /// `O(window + unspent set + hubs)`.
    KeepUnspentAndHubs {
        /// In-degree (spender count) at or above which an aged node is
        /// retained as a hub.
        min_degree: u32,
    },
}

impl RetentionPolicy {
    /// The sliding window [`RetentionPolicy::KeepUnspentAndHubs`] ages
    /// nodes out of before the unspent/hub filter applies.
    pub const HUB_WINDOW: usize = 8_192;

    /// The number of most-recent transactions unconditionally kept live,
    /// or `None` when the policy never evicts. This is both the graph
    /// eviction lag and the ring size of every [`WindowedRows`], so edge
    /// resolution and row retention stay in lockstep.
    pub fn graph_window(&self) -> Option<usize> {
        match self {
            RetentionPolicy::Unbounded => None,
            RetentionPolicy::WindowTxs(n) => Some(*n),
            RetentionPolicy::KeepUnspentAndHubs { .. } => Some(Self::HUB_WINDOW),
        }
    }

    /// The survivor rule: `true` iff a node leaving the window with
    /// `in_degree` spenders stays resolvable — under
    /// [`RetentionPolicy::KeepUnspentAndHubs`], when it is unspent or a
    /// hub; never otherwise. Evaluated once per node, as it crosses the
    /// horizon.
    pub fn keeps(&self, in_degree: u32) -> bool {
        matches!(self, RetentionPolicy::KeepUnspentAndHubs { min_degree }
            if in_degree == 0 || in_degree >= *min_degree)
    }

    /// Serializes the policy (tag + parameters) into `w` — the shared
    /// wire form used by WAL headers and checkpoint blobs.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            RetentionPolicy::Unbounded => w.put_u8(0),
            RetentionPolicy::WindowTxs(n) => {
                w.put_u8(1);
                w.put_u64(*n as u64);
            }
            RetentionPolicy::KeepUnspentAndHubs { min_degree } => {
                w.put_u8(2);
                w.put_u32(*min_degree);
            }
        }
    }

    /// Decodes a policy written by [`RetentionPolicy::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => RetentionPolicy::Unbounded,
            1 => RetentionPolicy::WindowTxs(r.get_u64()? as usize),
            2 => RetentionPolicy::KeepUnspentAndHubs {
                min_degree: r.get_u32()?,
            },
            _ => return Err(CodecError("unknown retention policy tag")),
        })
    }
}

/// A fixed-width value a [`WindowedRows`] holds and persists.
pub trait Cell: Copy + Default {
    /// Encoded width in bytes.
    const BYTES: usize;
    /// Writes `cells` back to back, [`Cell::BYTES`] each.
    fn put_all(cells: &[Self], w: &mut ByteWriter);
    /// Reads one cell written by [`Cell::put_all`].
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

impl Cell for u32 {
    const BYTES: usize = 4;
    fn put_all(cells: &[Self], w: &mut ByteWriter) {
        w.put_u32s(cells);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u32()
    }
}

impl Cell for f32 {
    const BYTES: usize = 4;
    fn put_all(cells: &[Self], w: &mut ByteWriter) {
        w.put_f32s(cells);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_f32()
    }
}

/// `stride` cells per stable node id, windowed under a
/// [`RetentionPolicy`]: dense (row `id` at `id`) when the policy never
/// evicts, otherwise a ring of `window` rows addressed by `id % window`
/// plus an append-only table of the rows the policy kept past it. A
/// ring grows by appending, like the dense history, until it holds
/// `window` rows, and only then recycles slots, so `cells` is always
/// exactly the live rows in slot order.
///
/// Rows are pushed in arrival order, one per node, *after* the node is
/// inserted into the graph and *before* the graph's horizon advances
/// over the row the push ages out — [`WindowedRows::push_in`] reads that
/// node's fate off the graph at exactly the position
/// [`TanGraph::evict_before`] will, so `row(id)` resolves precisely
/// while [`TanGraph::is_live`] holds.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedRows<T> {
    policy: RetentionPolicy,
    /// Ring size in rows (`usize::MAX` = dense).
    window: usize,
    stride: usize,
    /// Rows ever pushed — the next stable id.
    len: usize,
    /// The dense history, or the ring: `min(len, window)` rows.
    cells: Vec<T>,
    /// Ascending stable ids below the horizon whose rows were kept;
    /// `kept_ids[i]` owns row `i` of `kept`.
    kept_ids: Vec<u32>,
    kept: Vec<T>,
}

/// Where a resolvable row sits: its first cell in the ring (or dense
/// history), or in the survivor table.
enum Slot {
    Ring(usize),
    Kept(usize),
}

impl<T: Cell> WindowedRows<T> {
    /// Empty rows of `stride` cells whose ring is `policy`'s
    /// [`RetentionPolicy::graph_window`].
    ///
    /// # Panics
    ///
    /// Panics if `stride` or the policy's window is 0.
    pub fn new(policy: RetentionPolicy, stride: usize) -> Self {
        Self::with_ring(policy, policy.graph_window(), stride)
    }

    /// [`WindowedRows::new`] with an explicit ring size (`None` =
    /// dense), for a graph its driver ages at another lag than the
    /// policy's own — a hub filter over a window small enough to test.
    ///
    /// # Panics
    ///
    /// Panics if `stride` or `window` is 0.
    pub fn with_ring(policy: RetentionPolicy, window: Option<usize>, stride: usize) -> Self {
        assert!(stride > 0, "rows hold at least one cell");
        assert!(window != Some(0), "retention window must be positive");
        WindowedRows {
            policy,
            window: window.unwrap_or(usize::MAX),
            stride,
            len: 0,
            cells: Vec::new(),
            kept_ids: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// `true` iff `other` ages and keeps rows the same way (the restore
    /// check: checkpointed rows must follow the restoring router's
    /// retention policy).
    pub fn same_shape(&self, other: &Self) -> bool {
        (self.policy, self.window, self.stride) == (other.policy, other.window, other.stride)
    }

    /// Rows ever pushed — the stream length in stable-id space.
    /// Eviction never shrinks this (see [`WindowedRows::live_len`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First id of the guaranteed-resolvable range: every id at or above
    /// it has a row, ids below only through the survivor table. Zero on
    /// dense rows.
    pub fn horizon(&self) -> usize {
        if self.window == usize::MAX {
            0
        } else {
            self.len.saturating_sub(self.window)
        }
    }

    /// Rows currently resolvable: the live window plus the survivors.
    pub fn live_len(&self) -> usize {
        self.len.min(self.window) + self.kept_ids.len()
    }

    /// Ascending stable ids of the rows kept below the horizon.
    pub fn survivors(&self) -> &[u32] {
        &self.kept_ids
    }

    /// Dense → ring → survivor table → `None`.
    #[inline]
    fn slot(&self, id: usize) -> Option<Slot> {
        if id >= self.len {
            None
        } else if self.window == usize::MAX {
            Some(Slot::Ring(id * self.stride))
        } else if id + self.window >= self.len {
            Some(Slot::Ring(id % self.window * self.stride))
        } else {
            let at = self.kept_ids.binary_search(&(id as u32)).ok()?;
            Some(Slot::Kept(at * self.stride))
        }
    }

    /// The row of stable id `id`, or `None` once it was evicted (or
    /// before it was pushed).
    #[inline]
    pub fn row(&self, id: usize) -> Option<&[T]> {
        Some(match self.slot(id)? {
            Slot::Ring(at) => &self.cells[at..at + self.stride],
            Slot::Kept(at) => &self.kept[at..at + self.stride],
        })
    }

    /// [`WindowedRows::row`], writable. A row that aged out between a
    /// caller's decision and its write reads `None` here, never a
    /// recycled ring slot.
    #[inline]
    pub fn row_mut(&mut self, id: usize) -> Option<&mut [T]> {
        Some(match self.slot(id)? {
            Slot::Ring(at) => &mut self.cells[at..at + self.stride],
            Slot::Kept(at) => &mut self.kept[at..at + self.stride],
        })
    }

    /// Makes room for the next node's row and returns it (its cells hold
    /// the default, or whatever the recycled ring slot held — the caller
    /// writes all of them). Before a full ring's oldest row is given
    /// away, it is copied to the survivor table when the graph retains
    /// its node: live, and kept by the policy at its in-degree **at this
    /// point of the stream** — the predicate and the position of the
    /// graph's own eviction.
    pub fn push_in(&mut self, tan: &TanGraph) -> &mut [T] {
        if self.len >= self.window
            && matches!(self.policy, RetentionPolicy::KeepUnspentAndHubs { .. })
        {
            let aged = self.len - self.window;
            let node = NodeId(aged as u32);
            if tan.is_live(node) && self.policy.keeps(tan.in_degree(node) as u32) {
                let at = aged % self.window * self.stride;
                self.kept_ids.push(aged as u32);
                self.kept
                    .extend_from_slice(&self.cells[at..at + self.stride]);
            }
        }
        self.next_row()
    }

    /// [`WindowedRows::push_in`] without a graph, for policies that keep
    /// no aged row.
    ///
    /// # Panics
    ///
    /// Panics under [`RetentionPolicy::KeepUnspentAndHubs`] (the row a
    /// full ring gives away may belong to a retained survivor).
    pub fn push(&mut self) -> &mut [T] {
        assert!(
            !matches!(self.policy, RetentionPolicy::KeepUnspentAndHubs { .. }),
            "KeepUnspentAndHubs rows must push through push_in \
             (the wrapped ring slot may hold a retained survivor)"
        );
        self.next_row()
    }

    fn next_row(&mut self) -> &mut [T] {
        let at = if self.len < self.window {
            let at = self.cells.len();
            if at == self.cells.capacity() {
                self.grow();
            }
            self.cells.resize(at + self.stride, T::default());
            at
        } else {
            self.len % self.window * self.stride
        };
        self.len += 1;
        &mut self.cells[at..at + self.stride]
    }

    /// Doubles the cells' capacity, but never past the window's rows.
    #[cold]
    fn grow(&mut self) {
        let at = self.cells.len();
        let cap = self.window.saturating_mul(self.stride);
        self.cells.reserve_exact(at.max(self.stride).min(cap - at));
    }

    /// Releases excess capacity (checkpoint-time shrink: a dense
    /// history, a ring still warming up and the survivor table have
    /// slack to give back; a full ring has none).
    pub fn compact(&mut self) {
        self.cells.shrink_to_fit();
        self.kept_ids.shrink_to_fit();
        self.kept.shrink_to_fit();
    }

    /// Bytes of heap owned (`O(window + survivors)` under a window; a
    /// ring's cells never exceed `window` rows).
    pub fn state_bytes(&self) -> usize {
        // The survivor table only appends: a doubling vector holds at
        // most twice its payload, an id and a row per survivor.
        let cell = std::mem::size_of::<T>();
        self.cells.capacity() * cell + self.kept_ids.len() * 2 * (4 + self.stride * cell)
    }

    /// Writes how the rows age — ring size and keep filter — the header
    /// [`WindowedRows::decode_shape`] reads.
    pub fn encode_shape_into(&self, w: &mut ByteWriter) {
        w.put_u64(if self.window == usize::MAX {
            u64::MAX
        } else {
            self.window as u64
        });
        match self.policy {
            RetentionPolicy::KeepUnspentAndHubs { min_degree } => {
                w.put_u8(1);
                w.put_u32(min_degree);
            }
            _ => w.put_u8(0),
        }
    }

    /// Writes the rows: cell count, the dense history or the ring's
    /// live rows in slot order, then the survivors in ascending id
    /// order. The owner writes [`WindowedRows::len`] itself, wherever
    /// its header has it.
    pub fn encode_rows_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.cells.len() as u64);
        T::put_all(&self.cells, w);
        w.put_u64(self.kept_ids.len() as u64);
        for (id, row) in self
            .kept_ids
            .iter()
            .zip(self.kept.chunks_exact(self.stride))
        {
            w.put_u32(*id);
            T::put_all(row, w);
        }
    }

    /// Reads a header written by [`WindowedRows::encode_shape_into`]:
    /// the policy whose rule the rows apply and the ring size
    /// (`usize::MAX` = dense).
    pub fn decode_shape(r: &mut ByteReader<'_>) -> Result<(RetentionPolicy, usize), CodecError> {
        let window = match r.get_u64()? {
            0 => return Err(CodecError("retention window must be positive")),
            u64::MAX => usize::MAX,
            n => n as usize,
        };
        let policy = match (r.get_u8()?, window) {
            (0, usize::MAX) => RetentionPolicy::Unbounded,
            (0, n) => RetentionPolicy::WindowTxs(n),
            (1, _) => RetentionPolicy::KeepUnspentAndHubs {
                min_degree: r.get_u32()?,
            },
            _ => return Err(CodecError("bad keep_hubs tag")),
        };
        Ok((policy, window))
    }

    /// Reads rows written by [`WindowedRows::encode_rows_into`] for a
    /// stream of `len` nodes, validating that the cell count is what
    /// `shape` and `len` imply and that the survivors ascend below the
    /// horizon, so corrupt bytes fail instead of producing silently
    /// wrong rows.
    pub fn decode_rows(
        r: &mut ByteReader<'_>,
        (policy, window): (RetentionPolicy, usize),
        stride: usize,
        len: usize,
    ) -> Result<Self, CodecError> {
        let count = r.get_count(T::BYTES)?;
        if len.min(window).checked_mul(stride) != Some(count) {
            return Err(CodecError("windowed rows cell count mismatch"));
        }
        let cells = (0..count).map(|_| T::get(r)).collect::<Result<_, _>>()?;
        let mut decoded = WindowedRows {
            policy,
            window,
            stride,
            len,
            cells,
            kept_ids: Vec::new(),
            kept: Vec::new(),
        };
        let survivors = r.get_count(4 + T::BYTES * stride)?;
        decoded.kept_ids.reserve(survivors);
        decoded.kept.reserve(survivors * stride);
        for _ in 0..survivors {
            let id = r.get_u32()?;
            if decoded.kept_ids.last().is_some_and(|&prev| prev >= id) {
                return Err(CodecError("retained rows out of order"));
            }
            if id as usize >= decoded.horizon() {
                return Err(CodecError("retained row above the horizon"));
            }
            decoded.kept_ids.push(id);
            for _ in 0..stride {
                decoded.kept.push(T::get(r)?);
            }
        }
        Ok(decoded)
    }
}
