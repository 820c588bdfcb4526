//! The online TaN DAG, stored in flattened, **evictable** arenas.
//!
//! Layout (see PERF.md):
//!
//! * **inputs** are CSR-flattened: one contiguous [`NodeId`] pool plus a
//!   per-row offset array. A node's input set is immutable once
//!   inserted, so the pool is append-only and `inputs(u)` is a single
//!   contiguous slice — no per-node heap allocation, no pointer chase.
//! * **spenders** grow over time (children arrive after the parent). A
//!   row holds its spender count and its first two spenders itself —
//!   92.5 % of the nodes of a Bitcoin-like stream never have more — and
//!   only the rest overflow into an append-friendly arena of fixed-size
//!   chunks linked per node (`crate::spenders`). Nodes spent at most
//!   twice allocate nothing.
//! * the `TxId → NodeId` index is a [`TxIndex`]: 8-byte slots of a hash
//!   tag and a node id, each hit confirmed against the `TxId` the row
//!   already stores, so a lookup resolves straight to the row.
//!
//! # Retention and eviction
//!
//! The graph is *streaming*: with a [`RetentionPolicy`] configured,
//! [`TanGraph::evict_before`] advances an eviction **horizon** — every
//! node below it is either dropped (its `TxId` leaves the index, so
//! later spends count as [`TanGraph::missing_parent_refs`], exactly like
//! pre-history spends) or, under
//! [`RetentionPolicy::KeepUnspentAndHubs`], **retained** (unspent
//! frontier nodes and high-fanout hubs stay resolvable). Node ids are
//! **stable across eviction**: `NodeId(i)` names the `i`-th transaction
//! of the stream forever, callers keep indexing external per-node state
//! (assignments, score rings) by raw id, and spender lists / historical
//! [`TanGraph::in_degree_at`] views stay correct.
//!
//! Rows are *retired*, never re-packed — the same shape as the
//! assignment store and the T2S score ring. Until the first eviction a
//! node's row is simply `row = id`. From then on the rows of
//! `[horizon, total)` are a **ring** (`row = id & mask`, power-of-two
//! capacity) with an input pool of the same lifetime, in which a row's
//! inputs never straddle the wrap, so `inputs(u)` stays one slice. When
//! a node crosses the horizon its slot is simply reused by a later
//! insertion; a retained node's row and inputs are first copied — once,
//! in id order — to an append-only **survivor table** (found by binary
//! search over the sorted survivor ids), and an evicted node's overflow
//! chunks go on a **free list**, so chunk ids never move and the hub
//! chunk directory is edited, not rebuilt; the index drops the node by
//! shifting its probe cluster back, leaving no tombstone. Eviction is
//! `O(1)` per node; the ring and pool double while the window warms up
//! and then stop, so a steady stream allocates only for survivors and
//! graph memory is `O(live window + retained survivors)`, not
//! `O(stream)`.
//!
//! [`TanGraph::insert`] is amortized allocation-free: the dedup scratch
//! buffers are owned by the graph and reused across insertions.

use std::fmt;

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_utxo::{Transaction, TxId};

use crate::index::TxIndex;
use crate::retain::RetentionPolicy;
use crate::spenders::{Overflow, SpenderList, Spenders};

/// Dense index of a node (transaction) inside a [`TanGraph`].
///
/// Node ids are assigned sequentially at insertion; because edges only ever
/// point to already-inserted nodes, `NodeId` order is a topological order
/// of the DAG. Ids are **stable across eviction**: evicting old nodes
/// never renumbers the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Row table of ids `[horizon, total)`.
const WINDOW: usize = 0;
/// Row table of the survivors the policy retained below the horizon.
const KEPT: usize = 1;

/// `v[i] = x`, appending when `i` is the next unused slot.
fn set<T>(v: &mut Vec<T>, i: usize, x: T) {
    if i < v.len() {
        v[i] = x;
    } else {
        v.push(x);
    }
}

/// A row's transaction id beside its spender list (24 bytes): the read
/// that confirms an index hit on a parent brings in the cache line the
/// spend edge then writes.
#[derive(Debug, Clone, Copy)]
struct Entry {
    txid: TxId,
    spent: SpenderList,
}

const VACANT: Entry = Entry {
    txid: TxId(0),
    spent: SpenderList::UNSPENT,
};

/// One table of node rows: an [`Entry`] array and the input CSR.
#[derive(Debug, Clone)]
struct Rows {
    /// Ring mask: the row of stable id `i` is `i & mask`. `u32::MAX`
    /// (row = id, append-only) for the survivor table, and for the
    /// window until the first eviction.
    mask: u32,
    /// Per-row transaction id and spender list (count and first
    /// spenders; the rest in [`TanGraph::overflow`]).
    entries: Vec<Entry>,
    /// Input range per row — `in_offsets[row]..in_offsets[row + 1]` of
    /// [`Rows::in_pool`], so a row's start is its predecessor's end;
    /// length `rows + 1`, and in a ring entry 0 mirrors the last. A
    /// start past the end marks a row whose inputs did not fit before
    /// the pool's end and sit at its start instead.
    in_offsets: Vec<u32>,
    /// Flattened input adjacency (deduplicated, insertion order).
    in_pool: Vec<NodeId>,
}

impl Rows {
    /// An empty ring of `rows` slots (a power of two) over `pool` pool
    /// entries; zero slots is the append-only table (`mask` all ones).
    fn ring(rows: usize, pool: usize) -> Self {
        Rows {
            mask: (rows as u32).wrapping_sub(1),
            entries: vec![VACANT; rows],
            in_offsets: vec![0; rows + 1],
            in_pool: vec![NodeId(0); pool],
        }
    }

    /// Where `row`'s inputs sit in the pool.
    #[inline]
    fn span(&self, row: usize) -> (usize, usize) {
        let (lo, hi) = (self.in_offsets[row], self.in_offsets[row + 1]);
        (if lo > hi { 0 } else { lo as usize }, hi as usize)
    }

    #[inline]
    fn inputs(&self, row: usize) -> &[NodeId] {
        let (lo, hi) = self.span(row);
        &self.in_pool[lo..hi]
    }

    /// Writes `row` — the next unused slot, or a ring slot to reuse —
    /// with its inputs at pool position `lo`.
    fn put(&mut self, row: usize, txid: TxId, lo: usize, inputs: &[NodeId], spent: SpenderList) {
        let hi = lo + inputs.len();
        if lo == self.in_pool.len() {
            self.in_pool.extend_from_slice(inputs);
        } else {
            self.in_pool[lo..hi].copy_from_slice(inputs);
        }
        set(&mut self.entries, row, Entry { txid, spent });
        set(&mut self.in_offsets, row + 1, hi as u32);
        if row as u32 == self.mask {
            self.in_offsets[0] = hi as u32;
        }
    }

    fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.in_offsets.shrink_to_fit();
        self.in_pool.shrink_to_fit();
    }

    fn bytes(&self) -> usize {
        self.in_pool.capacity() * std::mem::size_of::<NodeId>()
            + self.in_offsets.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
    }
}

/// The Transactions-as-Nodes network (Definition 1 of the paper).
///
/// The graph is *online*: nodes are appended with [`TanGraph::insert`] and
/// edges are created from the new node to the (already present) nodes whose
/// outputs it spends. Parallel edges are collapsed — `Nin(u)` and `Nout(v)`
/// are **sets** of transactions, matching the paper's wording — so a
/// transaction spending two outputs of the same parent contributes one
/// edge.
///
/// Orientation reminder (matches Fig 2's reading of the Bitcoin data):
///
/// * a node with **no outgoing edges** spends nothing — a coinbase;
/// * a node with **no incoming edges** has not been spent — the frontier.
///
/// With a [`RetentionPolicy`] configured the graph is additionally
/// *streaming*: [`TanGraph::evict_before`] drives the eviction
/// lifecycle. Accessors on evicted nodes degrade gracefully — `inputs`/`spenders`
/// empty, degrees zero, [`TanGraph::node`] misses — and
/// [`TanGraph::len`]/[`TanGraph::nodes`] keep counting the whole stream
/// (ids are stable), with [`TanGraph::live_len`] for the resident count.
#[derive(Debug, Clone)]
pub struct TanGraph {
    retention: RetentionPolicy,
    /// Total nodes ever inserted — the next stable id; [`TanGraph::len`].
    total: u32,
    /// Eviction frontier: every id `< horizon` has had its retention
    /// decision made (`horizon <= total`).
    horizon: u32,
    /// Sorted stable ids `< horizon` retained by the policy; id
    /// `retained[i]` is row `i` of `rows[KEPT]`.
    retained: Vec<u32>,
    /// The [`WINDOW`] rows and the [`KEPT`] rows.
    rows: [Rows; 2],
    index: TxIndex,
    /// Spenders past the ones a row holds, for every spender list.
    overflow: Overflow,
    /// Directed edges ever inserted (cumulative over the stream —
    /// eviction does not subtract).
    edge_count: u64,
    /// Inputs referencing transactions unknown to this graph (spends of
    /// outputs created before a warm-start window, **or of evicted
    /// nodes**). They create no edge.
    missing_parent_refs: u64,
    /// Reusable dedup buffer for parent [`NodeId`]s (kept empty between
    /// insertions).
    node_scratch: Vec<NodeId>,
    /// Reusable dedup buffer for parent [`TxId`]s (kept empty between
    /// insertions).
    txid_scratch: Vec<TxId>,
}

impl Default for TanGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl TanGraph {
    /// Creates an empty graph (unbounded retention).
    pub fn new() -> Self {
        TanGraph {
            retention: RetentionPolicy::Unbounded,
            total: 0,
            horizon: 0,
            retained: Vec::new(),
            rows: [Rows::ring(0, 0), Rows::ring(0, 0)],
            index: TxIndex::new(),
            overflow: Overflow::new(),
            edge_count: 0,
            missing_parent_refs: 0,
            node_scratch: Vec::new(),
            txid_scratch: Vec::new(),
        }
    }

    /// Creates an empty graph pre-sized for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut g = TanGraph::new();
        let window = &mut g.rows[WINDOW];
        window.entries.reserve(capacity);
        window.in_offsets.reserve(capacity);
        // Average TaN degree ≈ 2.3 ⇒ ~2.5 pool slots per node.
        window.in_pool.reserve(capacity.saturating_mul(5) / 2);
        g.index.reserve(capacity);
        g.overflow.reserve(capacity);
        g
    }

    /// Creates an empty graph with a [`RetentionPolicy`] (the filter
    /// [`TanGraph::evict_before`] applies).
    pub fn with_retention(retention: RetentionPolicy) -> Self {
        let mut g = TanGraph::new();
        g.retention = retention;
        g
    }

    /// The configured retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Installs a retention policy. Allowed until the first eviction
    /// (the policy is consulted only when a node crosses the horizon,
    /// so swapping it on a never-evicted graph — e.g. an external
    /// history a router adopts under its own policy — is well-defined).
    ///
    /// # Panics
    ///
    /// Panics if the horizon has already advanced.
    pub fn set_retention(&mut self, retention: RetentionPolicy) {
        assert!(
            self.horizon == 0,
            "retention must be configured before the first eviction"
        );
        self.retention = retention;
    }

    /// Builds a graph from transactions in arrival order.
    pub fn from_transactions<'a, I>(txs: I) -> Self
    where
        I: IntoIterator<Item = &'a Transaction>,
    {
        let mut g = TanGraph::new();
        for tx in txs {
            g.insert_tx(tx);
        }
        g
    }

    /// `(table, row)` of a **live** stable id, or `None` when the id was
    /// evicted (or never inserted): the window slot at or above the
    /// horizon, binary search over the retained survivors below it.
    #[inline]
    fn row_of(&self, id: u32) -> Option<(usize, usize)> {
        if id >= self.horizon {
            (id < self.total).then(|| (WINDOW, (id & self.rows[WINDOW].mask) as usize))
        } else {
            self.retained.binary_search(&id).ok().map(|i| (KEPT, i))
        }
    }

    /// `(table, row)` of `node` if it is live and stores `txid` — how an
    /// index tag hit is confirmed.
    #[inline]
    fn holding(&self, node: NodeId, txid: TxId) -> Option<(usize, usize)> {
        let (table, row) = self.row_of(node.0)?;
        (self.rows[table].entries[row].txid == txid).then_some((table, row))
    }

    /// The live node of `txid` and its `(table, row)`.
    #[inline]
    fn find(&self, txid: TxId) -> Option<(NodeId, usize, usize)> {
        self.index.find(txid, |node| {
            let (table, row) = self.holding(node, txid)?;
            Some((node, table, row))
        })
    }

    /// Indexes `txid` as `node`, whose row is not written yet; the live
    /// node already holding `txid`, indexing nothing, if there is one.
    fn index_new(&mut self, txid: TxId, node: NodeId) -> Result<(), NodeId> {
        let mut index = std::mem::take(&mut self.index);
        let fresh = index.insert(txid, node, |n| self.holding(n, txid).is_some());
        self.index = index;
        fresh
    }

    /// `true` iff `node` was inserted and has not been evicted.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.row_of(node.0).is_some()
    }

    /// Inserts a node for `txid` spending from the transactions in
    /// `parents`, returning its [`NodeId`] — or, if `txid` is already
    /// live, the node holding it, found by the probe that would have
    /// indexed it; a refused call changes nothing.
    ///
    /// Duplicate entries in `parents` are collapsed. Parents not present
    /// in the graph — never inserted, or **evicted** by the retention
    /// policy — are counted in [`TanGraph::missing_parent_refs`] and
    /// otherwise ignored. An evicted `txid` is inserted afresh.
    pub fn try_insert(&mut self, txid: TxId, parents: &[TxId]) -> Result<NodeId, NodeId> {
        let node = NodeId(self.total);
        self.index_new(txid, node)?;
        let mut dedup = std::mem::take(&mut self.node_scratch);
        dedup.clear();
        for parent in parents {
            if *parent == txid {
                continue; // a self-reference links nothing and is not missing
            }
            match self.find(*parent) {
                Some((p, table, row)) => {
                    if !dedup.contains(&p) {
                        dedup.push(p);
                        let list = &mut self.rows[table].entries[row].spent;
                        self.overflow.push(p.0, list, node);
                    }
                }
                None => self.missing_parent_refs += 1,
            }
        }
        let lo = self.make_room(dedup.len());
        self.edge_count += dedup.len() as u64;
        let window = &mut self.rows[WINDOW];
        let row = (node.0 & window.mask) as usize;
        window.put(row, txid, lo, &dedup, SpenderList::UNSPENT);
        self.total += 1;
        dedup.clear();
        self.node_scratch = dedup;
        Ok(node)
    }

    /// [`TanGraph::try_insert`] for ids the caller knows are not live.
    ///
    /// # Panics
    ///
    /// Panics if `txid` is already live in the graph.
    pub fn insert(&mut self, txid: TxId, parents: &[TxId]) -> NodeId {
        self.try_insert(txid, parents)
            .unwrap_or_else(|_| panic!("transaction {txid} inserted twice into TaN graph"))
    }

    /// Makes room for the next window row and returns where its `n`
    /// inputs go in the window's pool. Until the first eviction both
    /// only ever append. Afterwards they are rings that double when
    /// short, so a window that has stopped growing stops allocating. The
    /// row ring keeps the slot after the newest row free: its start
    /// entry is the newest row's end. The pool is live from the oldest
    /// window row's inputs to the newest's, with at least one entry free
    /// so the two ends never meet; the inputs go after the newest's,
    /// else at the pool's start.
    fn make_room(&mut self, n: usize) -> usize {
        let live = self.total - self.horizon;
        if live >= self.rows[WINDOW].mask {
            self.rebuild_window(self.rows[WINDOW].in_pool.len());
        }
        loop {
            let window = &self.rows[WINDOW];
            let head = window.in_offsets[(self.total & window.mask) as usize] as usize;
            if self.horizon == 0 {
                return head;
            }
            let cap = window.in_pool.len();
            let tail = match live {
                0 => head,
                _ => window.span((self.horizon & window.mask) as usize).0,
            };
            if tail <= head {
                if head + n <= cap {
                    return head;
                } else if n < tail {
                    return 0;
                }
            } else if head + n < tail {
                return head;
            }
            self.rebuild_window((2 * cap).max(cap + n));
        }
    }

    /// Moves the window into the smallest ring that holds it, the next
    /// row and the free slot, over a `pool`-entry input pool packed from
    /// its start. `O(window)`; only capacity changes come here, eviction
    /// never does.
    fn rebuild_window(&mut self, pool: usize) {
        let rows = (self.total - self.horizon) as usize + 2;
        let fresh = Rows::ring(rows.next_power_of_two(), pool);
        let old = std::mem::replace(&mut self.rows[WINDOW], fresh);
        let new = &mut self.rows[WINDOW];
        let mut lo = 0;
        for id in self.horizon..self.total {
            let (from, to) = ((id & old.mask) as usize, (id & new.mask) as usize);
            let Entry { txid, spent } = old.entries[from];
            new.put(to, txid, lo, old.inputs(from), spent);
            lo += old.inputs(from).len();
        }
    }

    /// [`TanGraph::insert`] of a full [`Transaction`], linked to its
    /// distinct input transactions without any intermediate allocation:
    /// an unknown parent spent through several outputs counts one
    /// missing reference, as in `insert(tx.id(), &tx.input_txids())`.
    pub fn insert_tx(&mut self, tx: &Transaction) -> NodeId {
        let mut tids = std::mem::take(&mut self.txid_scratch);
        tids.clear();
        for op in tx.inputs() {
            if !tids.contains(&op.txid) {
                tids.push(op.txid);
            }
        }
        let node = self.insert(tx.id(), &tids);
        tids.clear();
        self.txid_scratch = tids;
        node
    }

    /// Advances the eviction horizon: every node with id `< horizon`
    /// that has not yet been decided is either **retained** (under
    /// [`RetentionPolicy::KeepUnspentAndHubs`], when it is unspent or a
    /// hub at this point of the stream) or **evicted** — its `TxId`
    /// leaves the index immediately, so later spends of it count as
    /// missing parent references. The retention decision is made exactly
    /// once per node, at the moment it crosses the horizon.
    ///
    /// `O(1)` per node crossing, with nothing deferred: a retained
    /// node's row and inputs are copied to the survivor table, an
    /// evicted node's overflow chunks go back on the free list, and the
    /// window slot either way is free for a later insertion. No other
    /// row is read or moved.
    ///
    /// The horizon only moves forward; calls with a smaller value are
    /// no-ops. Ids stay stable throughout.
    pub fn evict_before(&mut self, horizon: u32) {
        let target = horizon.min(self.total);
        if self.horizon == 0 && target > 0 {
            // First eviction: from here on the window is a ring. Every
            // row so far already sits at `id & mask`, and the pool ring
            // is the pool as it stands.
            let window = &mut self.rows[WINDOW];
            let cap = self.total.checked_next_power_of_two();
            window.mask = cap.map_or(u32::MAX, |cap| cap - 1);
            let next = (self.total & window.mask) as usize;
            window.in_offsets[next] = window.in_offsets[self.total as usize];
        }
        let [window, kept] = &mut self.rows;
        while self.horizon < target {
            let id = self.horizon;
            let row = (id & window.mask) as usize;
            let Entry { txid, spent } = window.entries[row];
            if self.retention.keeps(spent.count()) {
                let (at, lo) = (self.retained.len(), kept.in_pool.len());
                kept.put(at, txid, lo, window.inputs(row), spent);
                self.retained.push(id);
            } else {
                let removed = self.index.remove(txid, NodeId(id));
                debug_assert!(removed, "every live node is indexed");
                self.overflow.release(id, &spent);
            }
            self.horizon += 1;
        }
    }

    /// Releases excess capacity (checkpoint-time shrink): the window
    /// ring and its pool are re-fitted to the rows they hold, every
    /// other arena drops its growth headroom. Nothing observable
    /// changes.
    pub fn compact(&mut self) {
        if self.horizon > 0 {
            self.rebuild_window(self.rows[WINDOW].in_pool.len());
            let window = &mut self.rows[WINDOW];
            let used = window.in_offsets[(self.total & window.mask) as usize];
            window.in_pool.truncate(used as usize);
        }
        self.rows.iter_mut().for_each(Rows::shrink_to_fit);
        self.retained.shrink_to_fit();
        self.overflow.shrink_to_fit();
        self.index.shrink_to_fit();
    }

    /// Number of nodes ever inserted (ids are stable, so this keeps
    /// counting the whole stream even after eviction — see
    /// [`TanGraph::live_len`]).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Number of nodes currently resident (live window + retained
    /// survivors).
    pub fn live_len(&self) -> usize {
        self.retained.len() + (self.total - self.horizon) as usize
    }

    /// Number of nodes evicted by the retention policy so far.
    pub fn evicted_nodes(&self) -> u64 {
        self.total as u64 - self.live_len() as u64
    }

    /// Number of aged nodes the retention policy kept past the horizon
    /// (unspent frontier / hubs under
    /// [`RetentionPolicy::KeepUnspentAndHubs`]).
    pub fn retained_nodes(&self) -> usize {
        self.retained.len()
    }

    /// The eviction horizon: every node with a smaller id has had its
    /// retention decision made (0 on graphs that never evicted).
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// `true` iff the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of (collapsed) directed edges ever inserted (cumulative —
    /// eviction does not subtract).
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Count of input references whose parent transaction was unknown
    /// (never inserted, or evicted by the retention policy).
    pub fn missing_parent_refs(&self) -> u64 {
        self.missing_parent_refs
    }

    /// The transaction id of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or evicted.
    pub fn txid(&self, node: NodeId) -> TxId {
        let (table, row) = self
            .row_of(node.0)
            .unwrap_or_else(|| panic!("node {node} is out of range or evicted"));
        self.rows[table].entries[row].txid
    }

    /// The node for `txid`, if present and live.
    pub fn node(&self, txid: TxId) -> Option<NodeId> {
        self.find(txid).map(|(node, ..)| node)
    }

    /// The distinct transactions `u` spends from — the paper's `Nin(u)` —
    /// as one contiguous slice of the CSR pool. Empty for evicted nodes.
    pub fn inputs(&self, u: NodeId) -> &[NodeId] {
        match self.row_of(u.0) {
            Some((table, row)) => self.rows[table].inputs(row),
            None => &[],
        }
    }

    /// The transactions spending `v`'s outputs so far — the paper's
    /// `Nout(v)` at the current point of the stream — in arrival order.
    /// Empty for evicted nodes.
    pub fn spenders(&self, v: NodeId) -> Spenders<'_> {
        match self.row_of(v.0) {
            Some((table, row)) => self
                .overflow
                .iter(v.0, &self.rows[table].entries[row].spent),
            None => self.overflow.iter(v.0, &SpenderList::UNSPENT),
        }
    }

    /// Out-degree of `u` in the paper's orientation (`|Nin(u)|`): how many
    /// distinct transactions it spends from. Zero for coinbase (and for
    /// evicted nodes).
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.inputs(u).len()
    }

    /// In-degree of `v` (`|Nout(v)|`): how many transactions spend from it
    /// so far. Zero while unspent (and for evicted nodes). O(1).
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.row_of(v.0).map_or(0, |(table, row)| {
            self.rows[table].entries[row].spent.count() as usize
        })
    }

    /// In-degree of `v` as it was when `observer` arrived: the number of
    /// spenders with node id `<= observer`.
    ///
    /// This is the `|Nout(v)|` an *online* algorithm saw at `observer`'s
    /// arrival — the quantity the T2S streaming update divides by — and it
    /// lets warm-started replays reproduce live-streamed state exactly.
    ///
    /// The streaming case (`observer` is the newest node, so every spender
    /// qualifies) is O(1); historical observers binary search the node's
    /// chunk directory by first spender id, then binary search inside the
    /// straddling chunk — `O(log d)` on a hub of in-degree `d`. Zero for
    /// evicted nodes.
    pub fn in_degree_at(&self, v: NodeId, observer: NodeId) -> usize {
        self.row_of(v.0).map_or(0, |(table, row)| {
            let list = &self.rows[table].entries[row].spent;
            self.overflow.seen_by(v.0, list, observer)
        })
    }

    /// Iterates over all node ids ever inserted, in insertion
    /// (topological) order — including evicted ids, whose accessors
    /// return empty/zero (see [`TanGraph::live_nodes`]).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.total).map(NodeId)
    }

    /// Iterates over the live node ids (window + retained survivors) in
    /// insertion order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let retained = self.retained.iter().copied();
        retained.chain(self.horizon..self.total).map(NodeId)
    }

    /// Iterates over all directed edges `(u, v)` meaning "`u` spends `v`"
    /// among live nodes.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.inputs(u).iter().map(move |&v| (u, v)))
    }

    /// Bytes of heap owned by the adjacency arenas — the window rows and
    /// their input pool, the survivor table, and the overflow spender
    /// chunks, free ones included (the benchmark's
    /// `tan.arena_bytes_per_live_tx`; excludes the `TxId` index and the
    /// hub chunk directory).
    pub fn arena_bytes(&self) -> usize {
        self.rows.iter().map(Rows::bytes).sum::<usize>()
            + self.overflow.bytes()
            + self.retained.capacity() * std::mem::size_of::<u32>()
    }

    /// Estimated bytes of graph state attributable to one live node: a
    /// fixed per-row share of the arenas (id, txid, offsets, spender
    /// head/tail/count) plus its input edges and spender-list entries.
    /// Zero for evicted nodes. This is the migration-cost input of the
    /// rebalancer's cost model — what moving the node's placement state
    /// between shards would ship — so it only needs to be a stable,
    /// deterministic estimate, not an exact heap measurement.
    pub fn node_state_bytes(&self, u: NodeId) -> usize {
        if !self.is_live(u) {
            return 0;
        }
        // Per-row fixed share, as the rows were first laid out: txid +
        // input offset + spender head, tail and count + a 16-byte index
        // entry. Rows have since grown inline spender slots and an index
        // slot shrank to 8 bytes; the figures stay because the
        // rebalancer's migration counts (`core.rebalance.bytes_migrated`,
        // `rebalance_golden`) are pinned to them.
        const NODE_BASE: usize = 8 + 4 + 4 + 4 + 4 + 16;
        NODE_BASE
            + self.out_degree(u) * std::mem::size_of::<NodeId>()
            + self.in_degree(u) * std::mem::size_of::<u32>()
    }

    /// Serializes the live graph into `w` in its canonical form:
    /// retention, stream counters, and one entry per live row in
    /// stable-id order (id, txid, input set, spender list). Evicted
    /// nodes never hit the wire, so the encoding is O(live window +
    /// retained survivors) — the checkpoint-friendly shape — and says
    /// nothing about where a row is stored.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(TAN_CODEC_VERSION);
        self.retention.encode_into(w);
        w.put_u32(self.total);
        w.put_u32(self.horizon);
        w.put_u64(self.edge_count);
        w.put_u64(self.missing_parent_refs);
        w.put_u64(self.live_len() as u64);
        let mask = self.rows[WINDOW].mask;
        let kept = (0..self.retained.len()).map(|i| (self.retained[i], KEPT, i));
        let window = (self.horizon..self.total).map(|id| (id, WINDOW, (id & mask) as usize));
        for (id, table, row) in kept.chain(window) {
            let rows = &self.rows[table];
            let entry = &rows.entries[row];
            w.put_u32(id);
            w.put_u64(entry.txid.0);
            let inputs = rows.inputs(row);
            w.put_u32(inputs.len() as u32);
            for p in inputs {
                w.put_u32(p.0);
            }
            w.put_u32(entry.spent.count());
            for s in self.overflow.iter(id, &entry.spent) {
                w.put_u32(s.0);
            }
        }
    }

    /// Decodes a graph written by [`TanGraph::encode_into`]: survivors
    /// into the survivor table, the window into a ring sized for it
    /// (or, on a never-evicted graph, `row = id`), spender lists
    /// re-appended one by one so that the inline slots and every chunk
    /// but a node's last are full — the invariant
    /// [`TanGraph::in_degree_at`]'s fast path relies on.
    ///
    /// Besides framing, a typed error rejects rows out of id order, a
    /// duplicate txid, a live window with gaps, an input that is not an
    /// earlier node, and a spender list that is not strictly increasing
    /// over later nodes below the stream length — each of which would
    /// otherwise install a graph whose historical degrees or `txid`
    /// lookups are silently wrong or panic later.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        if r.get_u8()? != TAN_CODEC_VERSION {
            return Err(CodecError("unsupported TaN codec version"));
        }
        let mut g = TanGraph::with_retention(RetentionPolicy::decode_from(r)?);
        g.total = r.get_u32()?;
        g.horizon = r.get_u32()?;
        let (total, horizon) = (g.total, g.horizon);
        if horizon > total {
            return Err(CodecError("TaN horizon past the stream length"));
        }
        g.edge_count = r.get_u64()?;
        g.missing_parent_refs = r.get_u64()?;
        // Minimum encoded row: id + txid + two empty-list counts.
        let rows = r.get_count(20)?;
        let window = (total - horizon) as usize;
        if rows < window {
            return Err(CodecError("TaN live window not fully present"));
        }
        g.index.reserve(rows);
        if horizon > 0 {
            g.rows[WINDOW] = Rows::ring((window + 2).next_power_of_two(), 0);
        }

        let mut prev_id: Option<u32> = None;
        let mut expected_dense = horizon;
        let mut inputs = Vec::new();
        for _ in 0..rows {
            let id = r.get_u32()?;
            if id >= total || prev_id.is_some_and(|p| id <= p) {
                return Err(CodecError("TaN row ids must be strictly increasing"));
            }
            prev_id = Some(id);
            let (table, row) = if id < horizon {
                if expected_dense != horizon {
                    return Err(CodecError("retained TaN row after the live window"));
                }
                g.retained.push(id);
                (KEPT, g.retained.len() - 1)
            } else {
                if id != expected_dense {
                    return Err(CodecError("gap in the live TaN window"));
                }
                expected_dense += 1;
                (WINDOW, (id & g.rows[WINDOW].mask) as usize)
            };
            let txid = TxId(r.get_u64()?);
            if g.index_new(txid, NodeId(id)).is_err() {
                return Err(CodecError("duplicate txid in TaN rows"));
            }
            inputs.clear();
            for _ in 0..r.get_u32()? {
                let input = r.get_u32()?;
                if input >= id {
                    return Err(CodecError("TaN input is not an earlier node"));
                }
                inputs.push(NodeId(input));
            }
            let lo = g.rows[table].in_pool.len();
            g.rows[table].put(row, txid, lo, &inputs, SpenderList::UNSPENT);
            let mut prev = id;
            for _ in 0..r.get_u32()? {
                let spender = r.get_u32()?;
                if spender <= prev || spender >= total {
                    return Err(CodecError("TaN spenders must be increasing later nodes"));
                }
                prev = spender;
                let list = &mut g.rows[table].entries[row].spent;
                g.overflow.push(id, list, NodeId(spender));
            }
        }
        if expected_dense != total {
            return Err(CodecError("TaN live window not fully present"));
        }
        Ok(g)
    }
}

/// Wire-format version of [`TanGraph::encode_into`].
const TAN_CODEC_VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spenders::CHUNK;

    fn spenders_vec(g: &TanGraph, v: NodeId) -> Vec<NodeId> {
        g.spenders(v).collect()
    }

    #[test]
    fn node_state_bytes_tracks_degrees() {
        let mut g = TanGraph::new();
        let a = g.insert(TxId(0), &[]);
        let b = g.insert(TxId(1), &[TxId(0)]);
        let c = g.insert(TxId(2), &[TxId(0), TxId(1)]);
        let base = g.node_state_bytes(c) - 2 * std::mem::size_of::<NodeId>();
        assert_eq!(g.node_state_bytes(a), base + 2 * 4); // two spenders
        assert_eq!(
            g.node_state_bytes(b),
            base + std::mem::size_of::<NodeId>() + 4
        );
        // Eviction zeroes the estimate along with the state it measures.
        let mut windowed = TanGraph::with_retention(RetentionPolicy::WindowTxs(1));
        let first = windowed.insert(TxId(10), &[]);
        windowed.insert(TxId(11), &[]);
        windowed.evict_before(1);
        assert_eq!(windowed.node_state_bytes(first), 0);
    }

    #[test]
    fn insert_builds_both_directions() {
        let mut g = TanGraph::new();
        let a = g.insert(TxId(0), &[]);
        let b = g.insert(TxId(1), &[]);
        let c = g.insert(TxId(2), &[TxId(0), TxId(1)]);
        assert_eq!(g.inputs(c), &[a, b]);
        assert_eq!(spenders_vec(&g, a), &[c]);
        assert_eq!(spenders_vec(&g, b), &[c]);
        assert_eq!(g.out_degree(c), 2);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut g = TanGraph::new();
        g.insert(TxId(0), &[]);
        let b = g.insert(TxId(1), &[TxId(0), TxId(0), TxId(0)]);
        assert_eq!(g.out_degree(b), 1);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn missing_parents_are_counted_not_linked() {
        let mut g = TanGraph::new();
        let a = g.insert(TxId(10), &[TxId(3), TxId(4)]);
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.missing_parent_refs(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_txid_panics() {
        let mut g = TanGraph::new();
        g.insert(TxId(0), &[]);
        g.insert(TxId(0), &[]);
    }

    #[test]
    fn edges_iterator_lists_all() {
        let mut g = TanGraph::new();
        g.insert(TxId(0), &[]);
        g.insert(TxId(1), &[TxId(0)]);
        g.insert(TxId(2), &[TxId(0), TxId(1)]);
        let edges: Vec<_> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(edges, vec![(1, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn node_lookup_roundtrip() {
        let mut g = TanGraph::new();
        let n = g.insert(TxId(99), &[]);
        assert_eq!(g.node(TxId(99)), Some(n));
        assert_eq!(g.txid(n), TxId(99));
        assert_eq!(g.node(TxId(1)), None);
    }

    #[test]
    fn from_transactions_links_inputs() {
        use optchain_utxo::{Transaction, TxOutput, WalletId};
        let cb = Transaction::coinbase(TxId(0), 10, WalletId(0));
        let spend = Transaction::builder(TxId(1))
            .input(TxId(0).outpoint(0))
            .output(TxOutput::new(10, WalletId(1)))
            .build();
        let g = TanGraph::from_transactions([&cb, &spend]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(NodeId(1)), 1);
    }

    #[test]
    fn edges_point_backwards_in_insertion_order() {
        // The DAG/topological-order invariant.
        let mut g = TanGraph::new();
        g.insert(TxId(0), &[]);
        g.insert(TxId(1), &[TxId(0)]);
        g.insert(TxId(2), &[TxId(1), TxId(0)]);
        for (u, v) in g.edges() {
            assert!(v < u, "edge ({u}, {v}) must point to an earlier node");
        }
    }

    #[test]
    fn spender_chunks_chain_past_one_chunk() {
        // A hub spent by far more children than one chunk holds.
        let mut g = TanGraph::new();
        let hub = g.insert(TxId(0), &[]);
        let n = (CHUNK * 3 + 2) as u64;
        for i in 1..=n {
            g.insert(TxId(i), &[TxId(0)]);
        }
        assert_eq!(g.in_degree(hub), n as usize);
        let spenders = spenders_vec(&g, hub);
        assert_eq!(spenders.len(), n as usize);
        // Arrival order, strictly increasing.
        for w in spenders.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Historical views at every cut point.
        for obs in 0..=n {
            assert_eq!(
                g.in_degree_at(hub, NodeId(obs as u32)),
                obs as usize,
                "observer {obs}"
            );
        }
    }

    #[test]
    fn in_degree_at_binary_search_on_interleaved_hubs() {
        // Two hubs spent alternately, so their chunk ids interleave in the
        // arena (the directory must not assume contiguity), plus enough
        // spenders per hub to span many chunks.
        let mut g = TanGraph::new();
        let h0 = g.insert(TxId(0), &[]);
        let h1 = g.insert(TxId(1), &[]);
        let rounds = (CHUNK * 40) as u64;
        let mut spenders0 = Vec::new();
        let mut spenders1 = Vec::new();
        for i in 0..rounds {
            let hub = if i % 2 == 0 { 0 } else { 1 };
            let n = g.insert(TxId(2 + i), &[TxId(hub)]);
            if hub == 0 {
                spenders0.push(n);
            } else {
                spenders1.push(n);
            }
        }
        for (hub, spenders) in [(h0, &spenders0), (h1, &spenders1)] {
            // Every cut point, including before the first spender and the
            // streaming fast path at the end.
            for obs in 0..g.len() as u32 {
                let expected = spenders.iter().filter(|s| s.0 <= obs).count();
                assert_eq!(
                    g.in_degree_at(hub, NodeId(obs)),
                    expected,
                    "hub {hub} observer {obs}"
                );
            }
        }
    }

    #[test]
    fn in_degree_at_streaming_fast_path() {
        let mut g = TanGraph::new();
        g.insert(TxId(0), &[]);
        g.insert(TxId(1), &[TxId(0)]);
        let latest = g.insert(TxId(2), &[TxId(0)]);
        // The newest node sees every spender inserted so far.
        assert_eq!(g.in_degree_at(NodeId(0), latest), 2);
        assert_eq!(g.in_degree_at(NodeId(0), NodeId(1)), 1);
        assert_eq!(g.in_degree_at(NodeId(0), NodeId(0)), 0);
    }

    // -----------------------------------------------------------------
    // Retention / eviction
    // -----------------------------------------------------------------

    /// Inserts a simple chain of `n` nodes: `i` spends `i - 1`.
    fn chain(g: &mut TanGraph, n: u64) {
        for i in 0..n {
            if i == 0 {
                g.insert(TxId(0), &[]);
            } else {
                g.insert(TxId(i), &[TxId(i - 1)]);
            }
        }
    }

    #[test]
    fn window_eviction_unlinks_old_parents() {
        let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(4));
        chain(&mut g, 10);
        g.evict_before(6);
        assert_eq!(g.len(), 10);
        assert_eq!(g.live_len(), 4);
        assert_eq!(g.evicted_nodes(), 6);
        assert_eq!(g.horizon(), 6);
        // Evicted ids degrade gracefully.
        for i in 0..6u32 {
            let n = NodeId(i);
            assert!(!g.is_live(n));
            assert!(g.node(TxId(i as u64)).is_none(), "id {i}");
            assert!(g.inputs(n).is_empty());
            assert_eq!(g.in_degree(n), 0);
            assert_eq!(g.in_degree_at(n, NodeId(9)), 0);
            assert_eq!(g.spenders(n).count(), 0);
        }
        // Live ids keep full state under stable ids.
        assert_eq!(g.inputs(NodeId(7)), &[NodeId(6)]);
        assert_eq!(g.in_degree(NodeId(7)), 1);
        // A spend of an evicted output is a missing reference.
        let before = g.missing_parent_refs();
        g.insert(TxId(100), &[TxId(2)]);
        assert_eq!(g.missing_parent_refs(), before + 1);
    }

    #[test]
    fn horizon_only_moves_forward() {
        let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(2));
        chain(&mut g, 6);
        g.evict_before(4);
        g.evict_before(1); // no-op
        assert_eq!(g.horizon(), 4);
        assert_eq!(g.live_len(), 2);
    }

    #[test]
    fn compaction_preserves_live_state_and_stable_ids() {
        let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(8));
        chain(&mut g, 24);
        g.evict_before(24 - 8);
        g.compact();
        assert_eq!(g.live_len(), 8);
        // The live tail keeps its adjacency under stable ids (an input
        // edge lives in the child's row, so it survives even if the
        // parent is evicted later).
        for i in 17..24u32 {
            assert!(g.is_live(NodeId(i)));
            assert_eq!(g.inputs(NodeId(i)), &[NodeId(i - 1)], "id {i}");
        }
        // Spender lists of live nodes survive the arena rebuild.
        assert_eq!(spenders_vec(&g, NodeId(20)), &[NodeId(21)]);
        assert_eq!(g.in_degree_at(NodeId(20), NodeId(20)), 0);
        assert_eq!(g.in_degree_at(NodeId(20), NodeId(21)), 1);
        // Inserting continues with stable, monotone ids.
        let next = g.insert(TxId(999), &[TxId(23)]);
        assert_eq!(next, NodeId(24));
        assert_eq!(g.inputs(next), &[NodeId(23)]);
    }

    #[test]
    fn keep_unspent_and_hubs_retains_survivors() {
        let mut g = TanGraph::with_retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 });
        // id 0: a hub spent 3 times; id 1: unspent; id 2: spent once.
        g.insert(TxId(0), &[]);
        g.insert(TxId(1), &[]);
        g.insert(TxId(2), &[]);
        g.insert(TxId(3), &[TxId(0)]);
        g.insert(TxId(4), &[TxId(0)]);
        g.insert(TxId(5), &[TxId(0)]);
        g.insert(TxId(6), &[TxId(2)]);
        g.evict_before(3);
        // Hub (id 0) and unspent (id 1) survive; spent non-hub (id 2) dies.
        assert!(g.is_live(NodeId(0)));
        assert!(g.is_live(NodeId(1)));
        assert!(!g.is_live(NodeId(2)));
        assert_eq!(g.retained_nodes(), 2);
        assert_eq!(g.evicted_nodes(), 1);
        // Retained nodes stay resolvable and spendable.
        let n = g.insert(TxId(7), &[TxId(0), TxId(2)]);
        assert_eq!(g.inputs(n), &[NodeId(0)]);
        assert_eq!(g.in_degree(NodeId(0)), 4);
        // Compaction keeps the survivors addressable by stable id.
        g.compact();
        assert!(g.is_live(NodeId(0)));
        assert!(g.is_live(NodeId(1)));
        assert_eq!(g.node(TxId(1)), Some(NodeId(1)));
        assert_eq!(spenders_vec(&g, NodeId(0)).len(), 4);
        assert_eq!(g.in_degree_at(NodeId(0), NodeId(4)), 2);
    }

    #[test]
    fn retained_hub_chunk_directory_survives_compaction() {
        let mut g = TanGraph::with_retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 });
        let hub = g.insert(TxId(0), &[]);
        let fanout = (CHUNK * 5 + 3) as u64;
        for i in 0..fanout {
            g.insert(TxId(1 + i), &[TxId(0)]);
        }
        g.evict_before(g.len() as u32);
        g.compact();
        assert!(g.is_live(hub));
        // The multi-chunk historical search works on the rebuilt arena.
        for obs in 0..g.len() as u32 {
            assert_eq!(g.in_degree_at(hub, NodeId(obs)), obs as usize);
        }
        // And keeps growing.
        g.insert(TxId(1000), &[TxId(0)]);
        assert_eq!(g.in_degree(hub), fanout as usize + 1);
    }

    #[test]
    fn windowed_eviction_bounds_arena_memory() {
        let window = 2_000u32;
        let mut windowed = TanGraph::with_retention(RetentionPolicy::WindowTxs(window as usize));
        let mut peak = 0usize;
        for i in 0..40_000u64 {
            if i == 0 {
                windowed.insert(TxId(0), &[]);
            } else {
                windowed.insert(TxId(i), &[TxId(i - 1)]);
            }
            let len = windowed.len() as u32;
            if len > window {
                windowed.evict_before(len - window);
            }
            peak = peak.max(windowed.arena_bytes());
        }
        assert!(windowed.live_len() <= window as usize);
        // An unbounded graph over the same stream.
        let mut full = TanGraph::new();
        chain(&mut full, 40_000);
        assert!(
            peak * 4 < full.arena_bytes(),
            "windowed peak {peak} vs unbounded {}",
            full.arena_bytes()
        );
        // Checkpoint-time shrink releases the growth headroom.
        let before = windowed.arena_bytes();
        windowed.compact();
        assert!(windowed.arena_bytes() <= before);
    }

    #[test]
    fn live_nodes_iterates_survivors_in_order() {
        let mut g =
            TanGraph::with_retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 10 });
        // ids 0..4; 0 and 2 stay unspent, 1 and 3 get spent.
        g.insert(TxId(0), &[]);
        g.insert(TxId(1), &[]);
        g.insert(TxId(2), &[]);
        g.insert(TxId(3), &[]);
        g.insert(TxId(4), &[TxId(1), TxId(3)]);
        g.evict_before(4);
        let live: Vec<u32> = g.live_nodes().map(|n| n.0).collect();
        assert_eq!(live, vec![0, 2, 4]);
        g.compact();
        let live: Vec<u32> = g.live_nodes().map(|n| n.0).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "before the first eviction")]
    fn set_retention_after_eviction_panics() {
        let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(1));
        g.insert(TxId(0), &[]);
        g.insert(TxId(1), &[]);
        g.evict_before(1);
        g.set_retention(RetentionPolicy::WindowTxs(2));
    }

    // -----------------------------------------------------------------
    // Checkpoint codec
    // -----------------------------------------------------------------

    fn roundtrip(g: &TanGraph) -> TanGraph {
        let mut w = ByteWriter::new();
        g.encode_into(&mut w);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        let out = TanGraph::decode_from(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        out
    }

    /// Observational equality of two graphs over the whole id space.
    fn assert_same_graph(a: &TanGraph, b: &TanGraph) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.live_len(), b.live_len());
        assert_eq!(a.horizon(), b.horizon());
        assert_eq!(a.retention(), b.retention());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.missing_parent_refs(), b.missing_parent_refs());
        for id in 0..a.len() as u32 {
            let n = NodeId(id);
            assert_eq!(a.is_live(n), b.is_live(n), "liveness of {n}");
            assert_eq!(a.inputs(n), b.inputs(n), "inputs of {n}");
            assert_eq!(spenders_vec(a, n), spenders_vec(b, n), "spenders of {n}");
            for obs in [id, id.saturating_sub(3), a.len() as u32 - 1] {
                assert_eq!(
                    a.in_degree_at(n, NodeId(obs)),
                    b.in_degree_at(n, NodeId(obs)),
                    "in_degree_at({n}, {obs})"
                );
            }
            if a.is_live(n) {
                assert_eq!(b.node(a.txid(n)), Some(n));
            }
        }
    }

    #[test]
    fn codec_roundtrips_an_unbounded_graph() {
        let mut g = TanGraph::new();
        chain(&mut g, 50);
        g.insert(TxId(100), &[TxId(3), TxId(7), TxId(999)]); // one missing ref
        let back = roundtrip(&g);
        assert_same_graph(&g, &back);
    }

    #[test]
    fn codec_roundtrips_mid_eviction_without_forcing_compaction() {
        // Retired rows still sit in their window slots: the encoder
        // must skip them without mutating the source.
        let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(8));
        chain(&mut g, 40);
        g.evict_before(32);
        assert!(g.live_len() < g.rows[WINDOW].entries.len());
        let back = roundtrip(&g);
        assert_same_graph(&g, &back);
        // The decoded window is a ring sized for the live rows alone.
        assert_eq!(back.rows[WINDOW].entries.len(), 16);
    }

    #[test]
    fn codec_roundtrips_retained_hubs_and_their_chunk_directories() {
        let mut g = TanGraph::with_retention(RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 });
        let hub = g.insert(TxId(0), &[]);
        let fanout = (CHUNK * 4 + 3) as u64;
        for i in 0..fanout {
            g.insert(TxId(1 + i), &[TxId(0)]);
        }
        g.insert(TxId(900), &[]); // stays unspent
        g.evict_before(g.len() as u32 - 1);
        let back = roundtrip(&g);
        assert_same_graph(&g, &back);
        // The rebuilt multi-chunk directory answers historical queries.
        for obs in 0..back.len() as u32 {
            assert_eq!(
                back.in_degree_at(hub, NodeId(obs)),
                g.in_degree_at(hub, NodeId(obs))
            );
        }
    }

    #[test]
    fn decoded_graph_continues_identically_to_the_source() {
        let mut g = TanGraph::with_retention(RetentionPolicy::WindowTxs(16));
        chain(&mut g, 64);
        g.evict_before(48);
        let mut back = roundtrip(&g);
        for i in 64..128u64 {
            let a = g.insert(TxId(i), &[TxId(i - 1), TxId(i / 2)]);
            let b = back.insert(TxId(i), &[TxId(i - 1), TxId(i / 2)]);
            assert_eq!(a, b);
            g.evict_before(i as u32 + 1 - 16);
            back.evict_before(i as u32 + 1 - 16);
        }
        assert_same_graph(&g, &back);
    }

    #[test]
    fn codec_rejects_corrupt_streams() {
        let mut g = TanGraph::new();
        chain(&mut g, 10);
        let mut w = ByteWriter::new();
        g.encode_into(&mut w);
        let good = w.into_vec();
        // Truncations at every point must fail cleanly, never panic.
        for cut in 0..good.len() {
            let mut r = ByteReader::new(&good[..cut]);
            let decoded = TanGraph::decode_from(&mut r);
            let fully_consumed = decoded.is_ok() && r.finish().is_ok();
            assert!(
                !fully_consumed,
                "truncation at {cut} must not decode cleanly"
            );
        }
        // A wrong version byte fails fast.
        let mut bad = good.clone();
        bad[0] = 0xEE;
        assert!(TanGraph::decode_from(&mut ByteReader::new(&bad)).is_err());
    }
}
