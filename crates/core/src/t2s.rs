//! The Transaction-to-Shard (T2S) score engine.
//!
//! Section IV.B of the paper. Each transaction `u` carries an unnormalized
//! fitness vector `p'(u) ∈ R^k` computed once on arrival:
//!
//! ```text
//! p'(u) = (1 − α) · Σ_{v ∈ Nin(u)} p'(v) / |Nout(v)|
//! ```
//!
//! and bumped by `α` at its shard entry after placement. The normalized
//! T2S score is `p(u)[i] = p'(u)[i] / |S_i|`. Because the TaN network is
//! an online DAG whose insertion order is topological, each vector is
//! final when computed — the whole stream costs `O(|Nin(u)|·k)` per
//! transaction, `O(k)` on average in a scale-free graph (the paper's
//! "lightweight, executed at the user side" claim).

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_tan::{NodeId, RetentionPolicy, TanGraph, WindowedRows};

/// Incremental T2S score engine.
///
/// Call [`T2sEngine::register`] for every node **in arrival order**
/// (immediately after inserting it into the [`TanGraph`]), then
/// [`T2sEngine::place`] once a shard is chosen. [`T2sEngine::scores`]
/// returns the normalized `p(u)` used by the placement decision.
///
/// # Memory
///
/// The engine stores `k` floats per transaction, in a [`WindowedRows`].
/// [`T2sEngine::with_retention`] bounds them under a
/// [`RetentionPolicy`]: ancestors older than the window contribute
/// zero, mirroring a wallet that only retains recent history — except,
/// under [`RetentionPolicy::KeepUnspentAndHubs`], the rows of the aged
/// nodes the graph retains (unspent frontier / hubs), which are kept so
/// a spend of a retained survivor still inherits its T2S mass.
#[derive(Debug, Clone)]
pub struct T2sEngine {
    alpha: f64,
    /// `p'(u)`, one row of `k` cells per node.
    rows: WindowedRows<f32>,
    shard_sizes: Vec<u64>,
    /// Reusable accumulator row for [`T2sEngine::register`] (kept empty
    /// between calls; avoids one heap allocation per transaction).
    scratch: Vec<f64>,
}

/// The paper's damping constant (`α = 0.5` in Section IV.B's evaluation).
pub const DEFAULT_ALPHA: f64 = 0.5;

impl T2sEngine {
    /// Creates an engine for `k` shards with the paper's `α = 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        Self::with_alpha(k, DEFAULT_ALPHA)
    }

    /// Creates an engine with a custom damping factor `α ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `alpha` is outside `(0, 1]`.
    pub fn with_alpha(k: u32, alpha: f64) -> Self {
        Self::with_retention(k, alpha, RetentionPolicy::Unbounded)
    }

    /// Creates an engine whose score memory follows a
    /// [`RetentionPolicy`] — the lifecycle knob `RouterBuilder::
    /// retention` threads down here (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `alpha` is outside `(0, 1]`, or the policy's
    /// window is 0.
    pub fn with_retention(k: u32, alpha: f64, retention: RetentionPolicy) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} outside (0, 1]");
        T2sEngine {
            alpha,
            rows: WindowedRows::new(retention, k as usize),
            shard_sizes: vec![0; k as usize],
            scratch: Vec::new(),
        }
    }

    /// Number of nodes registered so far.
    pub fn registered(&self) -> usize {
        self.rows.len()
    }

    /// Number of score rows retained past the ring for aged unspent/hub
    /// survivors (0 outside `KeepUnspentAndHubs`).
    pub fn retained_rows(&self) -> usize {
        self.rows.survivors().len()
    }

    /// Number of shards.
    pub fn k(&self) -> u32 {
        self.shard_sizes.len() as u32
    }

    /// The damping factor α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Transactions placed per shard so far (`|S_i|`).
    pub fn shard_sizes(&self) -> &[u64] {
        &self.shard_sizes
    }

    /// `true` iff `other` was configured with the same shard count, α
    /// and score-retention window (the restore check: a checkpointed
    /// engine must be the one the restoring router would have built).
    pub(crate) fn same_config(&self, other: &T2sEngine) -> bool {
        self.alpha == other.alpha && self.rows.same_shape(&other.rows)
    }

    /// Serializes the engine for a durable checkpoint: `k`, α, the
    /// rows' shape, the registration count, the rows, `|S_i|`.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.k());
        w.put_f64(self.alpha);
        self.rows.encode_shape_into(w);
        w.put_u64(self.rows.len() as u64);
        self.rows.encode_rows_into(w);
        for &n in &self.shard_sizes {
            w.put_u64(n);
        }
    }

    /// Decodes an engine previously written by
    /// [`T2sEngine::encode_into`], validating structural invariants so
    /// corrupt checkpoint bytes fail instead of producing a silently
    /// wrong engine.
    pub(crate) fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let k = r.get_u32()? as usize;
        if k == 0 {
            return Err(CodecError("T2S engine k must be positive"));
        }
        let alpha = r.get_f64()?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CodecError("T2S alpha outside (0, 1]"));
        }
        let shape = WindowedRows::<f32>::decode_shape(r)?;
        let registered = r.get_u64()? as usize;
        let rows = WindowedRows::decode_rows(r, shape, k, registered)?;
        let shard_sizes = (0..k).map(|_| r.get_u64()).collect::<Result<_, _>>()?;
        Ok(T2sEngine {
            alpha,
            rows,
            shard_sizes,
            scratch: Vec::new(),
        })
    }

    /// The raw `p'(u)` row of a node, or `None` once evicted — read by
    /// the rebalancer's cost model (the α mass at a shard entry measures
    /// how hard the node pulls its future spenders there).
    pub(crate) fn row(&self, node: usize) -> Option<&[f32]> {
        self.rows.row(node)
    }

    /// Computes and stores `p'(u)` for `node` from its TaN inputs.
    ///
    /// Must be called exactly once per node, in arrival order, *after*
    /// inserting the node into `tan` (so `|Nout(v)|` counts the new edge,
    /// matching the online definition).
    ///
    /// # Panics
    ///
    /// Panics if nodes are registered out of order.
    pub fn register(&mut self, tan: &TanGraph, node: NodeId) {
        // |Nout(v)| as of this node's arrival, so a warm-started engine
        // over a finished graph reproduces streaming state. In live
        // streaming `node` is the newest node, so this hits the graph's
        // O(1) current-count fast path.
        self.register_impl(tan, node, |v| tan.in_degree_at(v, node).max(1) as f64);
    }

    fn register_impl(
        &mut self,
        tan: &TanGraph,
        node: NodeId,
        mut nout_of: impl FnMut(NodeId) -> f64,
    ) {
        assert_eq!(
            node.index(),
            self.rows.len(),
            "nodes must be registered in arrival order"
        );
        let mut row = std::mem::take(&mut self.scratch);
        row.clear();
        row.resize(self.shard_sizes.len(), 0.0);
        // Parents are read before the push: the node exactly one window
        // back is still a resolvable parent, and its row is the one the
        // push recycles.
        for &v in tan.inputs(node) {
            let nout = nout_of(v);
            if let Some(vrow) = self.rows.row(v.index()) {
                for (acc, value) in row.iter_mut().zip(vrow) {
                    *acc += *value as f64 / nout;
                }
            }
        }
        let damp = 1.0 - self.alpha;
        for (cell, s) in self.rows.push_in(tan).iter_mut().zip(&row) {
            *cell = (s * damp) as f32;
        }
        row.clear();
        self.scratch = row;
    }

    /// The normalized T2S scores `p(u)[i] = p'(u)[i] / |S_i|` for a
    /// registered node. Empty shards divide by 1, so scores stay finite.
    ///
    /// # Panics
    ///
    /// Panics if the node has not been registered or was evicted from a
    /// windowed engine.
    pub fn scores(&self, node: NodeId) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.shard_sizes.len());
        self.scores_into(node, &mut out);
        out
    }

    /// [`T2sEngine::scores`] into a caller-owned buffer (cleared first) —
    /// the allocation-free variant used by the placement hot path.
    ///
    /// # Panics
    ///
    /// Same conditions as [`T2sEngine::scores`].
    pub fn scores_into(&self, node: NodeId, out: &mut Vec<f64>) {
        assert!(node.index() < self.rows.len(), "node not registered");
        let row = self
            .row(node.index())
            .expect("node evicted from T2S window");
        out.clear();
        out.extend(
            row.iter()
                .zip(&self.shard_sizes)
                .map(|(p, size)| *p as f64 / (*size).max(1) as f64),
        );
    }

    /// Raw unnormalized `p'(u)` (exposed for diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Same conditions as [`T2sEngine::scores`].
    pub fn pprime(&self, node: NodeId) -> Vec<f64> {
        assert!(node.index() < self.rows.len(), "node not registered");
        self.row(node.index())
            .expect("node evicted from T2S window")
            .iter()
            .map(|p| *p as f64)
            .collect()
    }

    /// Records the placement of `node` into `shard`: bumps
    /// `p'(u)[shard] += α` and the shard size.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= k` or the node is unknown/evicted.
    pub fn place(&mut self, node: NodeId, shard: u32) {
        assert!(shard < self.k(), "shard {shard} out of range");
        assert!(node.index() < self.rows.len(), "node not registered");
        let row = self
            .rows
            .row_mut(node.index())
            .expect("node evicted from T2S window");
        row[shard as usize] += self.alpha as f32;
        self.shard_sizes[shard as usize] += 1;
    }

    /// Re-homes an already-placed node from shard `from` to shard `to` —
    /// the migration epoch's commit primitive. The placement-time α bump
    /// moves with the node (`p'(u)[from] -= α; p'(u)[to] += α`), so
    /// future spenders of `u` are pulled toward its **new** shard by
    /// exactly the mass that used to pull them toward the old one, and
    /// `|S_i|` follows. Returns `false` (engine untouched) when the
    /// node's row was evicted — the staged-move-validated-at-commit
    /// contract shared with [`crate::AssignmentStore`]'s `reassign`.
    ///
    /// # Panics
    ///
    /// Panics if either shard is out of range.
    pub(crate) fn rehome(&mut self, node: usize, from: u32, to: u32) -> bool {
        assert!(from < self.k(), "shard {from} out of range");
        assert!(to < self.k(), "shard {to} out of range");
        let alpha = self.alpha as f32;
        let Some(row) = self.rows.row_mut(node) else {
            return false;
        };
        row[from as usize] -= alpha;
        row[to as usize] += alpha;
        self.shard_sizes[from as usize] -= 1;
        self.shard_sizes[to as usize] += 1;
        true
    }

    /// Adopts a node whose placement was decided elsewhere
    /// ([`crate::Router::adopt_remote`]): stores a **zero** `p'` row —
    /// the adopting engine never saw the node's true score vector — and
    /// then records the imposed placement, so the node contributes to
    /// local T2S exactly like a parentless transaction placed into
    /// `shard` (the α bump at its shard entry, and one unit of `|S_i|`).
    /// Graph access lets a [`RetentionPolicy::KeepUnspentAndHubs`]
    /// engine save the row its ring slot overwrites (see
    /// [`T2sEngine::with_retention`]).
    ///
    /// # Panics
    ///
    /// Panics if nodes arrive out of order or `shard >= k`.
    pub fn adopt_in(&mut self, tan: &TanGraph, node: NodeId, shard: u32) {
        assert_eq!(
            node.index(),
            self.rows.len(),
            "nodes must be registered in arrival order"
        );
        self.rows.push_in(tan).fill(0.0);
        self.place(node, shard);
    }

    /// Boots the engine from an already-placed prefix: registers and
    /// places every node of `tan` according to `assignments` (used by the
    /// warm-start experiment of Table II).
    ///
    /// # Panics
    ///
    /// Panics if the engine is not fresh, `assignments` is shorter than
    /// the graph, or the graph has evicted nodes.
    pub fn warm_start(&mut self, tan: &TanGraph, assignments: &[u32]) {
        assert!(self.rows.is_empty(), "warm_start requires a fresh engine");
        assert!(
            assignments.len() >= tan.len(),
            "assignment for every node required"
        );
        assert_eq!(
            tan.evicted_nodes(),
            0,
            "warm_start replays the full edge history, which an evicted \
             graph no longer holds; restore retention-policy routers from \
             an engine-state snapshot (Router::recover) instead"
        );
        // A forward sweep sees each edge exactly once, so the observed
        // |Nout(v)| can be maintained incrementally instead of queried
        // historically per edge (which walks spender chunks and would be
        // quadratic on high-fanout hubs): bumping the count for v while
        // processing spender `node` yields exactly the number of spenders
        // with id ≤ node — the same value `in_degree_at(v, node)` returns.
        let mut seen_spends: Vec<u32> = vec![0; tan.len()];
        for node in tan.nodes() {
            self.register_impl(tan, node, |v| {
                seen_spends[v.index()] += 1;
                seen_spends[v.index()] as f64
            });
            self.place(node, assignments[node.index()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optchain_utxo::TxId;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn coinbase_has_zero_scores() {
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(4);
        let n = tan.insert(TxId(0), &[]);
        engine.register(&tan, n);
        assert!(engine.scores(n).iter().all(|s| *s == 0.0));
    }

    #[test]
    fn child_inherits_parent_shard_mass() {
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(2);
        let p = tan.insert(TxId(0), &[]);
        engine.register(&tan, p);
        engine.place(p, 1);
        let c = tan.insert(TxId(1), &[TxId(0)]);
        engine.register(&tan, c);
        // p'(c) = (1-α)·p'(p)/|Nout(p)| = 0.5 · [0, 0.5] / 1 = [0, 0.25]
        let pp = engine.pprime(c);
        assert!(approx(pp[0], 0.0));
        assert!(approx(pp[1], 0.25));
        let s = engine.scores(c);
        assert!(s[1] > s[0]);
    }

    #[test]
    fn mass_splits_across_spenders() {
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(2);
        let p = tan.insert(TxId(0), &[]);
        engine.register(&tan, p);
        engine.place(p, 0);
        // Two children spending the same parent: by the time each child
        // computes, |Nout(p)| counts the edges inserted so far.
        let c1 = tan.insert(TxId(1), &[TxId(0)]);
        engine.register(&tan, c1); // |Nout(p)| = 1 here
        engine.place(c1, 0);
        let c2 = tan.insert(TxId(2), &[TxId(0)]);
        engine.register(&tan, c2); // |Nout(p)| = 2 here
        let pp1 = engine.pprime(c1);
        let pp2 = engine.pprime(c2);
        // c1 saw |Nout(p)| = 1 and was then placed: 0.5·0.5/1 + α.
        assert!(approx(pp1[0], 0.25 + 0.5));
        // c2 saw |Nout(p)| = 2 and is not placed yet: 0.5·0.5/2.
        assert!(approx(pp2[0], 0.125));
    }

    #[test]
    fn normalization_divides_by_shard_size() {
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(2);
        let p = tan.insert(TxId(0), &[]);
        engine.register(&tan, p);
        engine.place(p, 0);
        // Grow shard 0's size and watch the normalized score shrink.
        let c = tan.insert(TxId(1), &[TxId(0)]);
        engine.register(&tan, c);
        let before = engine.scores(c)[0];
        for i in 2..6u64 {
            let n = tan.insert(TxId(i), &[]);
            engine.register(&tan, n);
            engine.place(n, 0);
        }
        let after = engine.scores(c)[0];
        assert!(approx(before / 5.0, after), "{before} {after}");
    }

    #[test]
    fn multi_input_sums_contributions() {
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(2);
        for (i, shard) in [(0u64, 0u32), (1, 1)] {
            let n = tan.insert(TxId(i), &[]);
            engine.register(&tan, n);
            engine.place(n, shard);
        }
        let c = tan.insert(TxId(2), &[TxId(0), TxId(1)]);
        engine.register(&tan, c);
        let pp = engine.pprime(c);
        assert!(approx(pp[0], 0.25));
        assert!(approx(pp[1], 0.25));
    }

    #[test]
    fn deep_chain_decays_geometrically() {
        let mut tan = TanGraph::new();
        let mut engine = T2sEngine::new(1);
        let mut prev = tan.insert(TxId(0), &[]);
        engine.register(&tan, prev);
        engine.place(prev, 0);
        let mut expected = 0.5f64; // p' of the coinbase after placement
        for i in 1..8u64 {
            let n = tan.insert(TxId(i), &[tan.txid(prev)]);
            engine.register(&tan, n);
            let got = engine.pprime(n)[0];
            expected *= 0.5; // (1-α)·p'(prev) with single spender
            assert!(approx(got, expected), "step {i}: {got} vs {expected}");
            engine.place(n, 0);
            expected += 0.5; // the α bump joins the chain for the next hop
            prev = n;
        }
    }

    #[test]
    #[should_panic(expected = "registered in arrival order")]
    fn out_of_order_registration_panics() {
        let mut tan = TanGraph::new();
        tan.insert(TxId(0), &[]);
        let n1 = tan.insert(TxId(1), &[]);
        let mut engine = T2sEngine::new(2);
        engine.register(&tan, n1);
    }

    #[test]
    fn windowed_engine_forgets_old_ancestors() {
        let mut tan = TanGraph::new();
        let mut full = T2sEngine::new(2);
        let mut windowed = T2sEngine::with_retention(2, 0.5, RetentionPolicy::WindowTxs(2));
        let a = tan.insert(TxId(0), &[]);
        for e in [&mut full, &mut windowed] {
            e.register(&tan, a);
            e.place(a, 0);
        }
        let b = tan.insert(TxId(1), &[]);
        let c = tan.insert(TxId(2), &[]);
        for e in [&mut full, &mut windowed] {
            e.register(&tan, b);
            e.place(b, 0);
            e.register(&tan, c);
            e.place(c, 0);
        }
        // d spends a, which is now outside the window of 2.
        let d = tan.insert(TxId(3), &[TxId(0)]);
        full.register(&tan, d);
        windowed.register(&tan, d);
        assert!(full.pprime(d)[0] > 0.0);
        assert_eq!(windowed.pprime(d)[0], 0.0);
    }

    #[test]
    fn warm_start_matches_incremental() {
        let mut tan = TanGraph::new();
        let mut inc = T2sEngine::new(3);
        let assignments = [0u32, 1, 2, 0, 1];
        let parents: [&[TxId]; 5] = [&[], &[TxId(0)], &[TxId(0)], &[TxId(1), TxId(2)], &[TxId(3)]];
        for (i, ps) in parents.iter().enumerate() {
            let n = tan.insert(TxId(i as u64), ps);
            inc.register(&tan, n);
            inc.place(n, assignments[i]);
        }
        let mut warm = T2sEngine::new(3);
        warm.warm_start(&tan, &assignments);
        for node in tan.nodes() {
            assert_eq!(inc.pprime(node), warm.pprime(node));
        }
        assert_eq!(inc.shard_sizes(), warm.shard_sizes());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        T2sEngine::with_alpha(2, 1.5);
    }

    #[test]
    fn adopt_acts_like_a_placed_coinbase() {
        let mut tan = TanGraph::new();
        let mut adopted = T2sEngine::new(2);
        let mut placed = T2sEngine::new(2);
        // Engine A adopts node 0 into shard 1; engine B registers a
        // coinbase and places it there. Identical state from then on.
        let p = tan.insert(TxId(0), &[]);
        adopted.adopt_in(&tan, p, 1);
        placed.register(&tan, p);
        placed.place(p, 1);
        assert_eq!(adopted.pprime(p), placed.pprime(p));
        assert_eq!(adopted.shard_sizes(), placed.shard_sizes());
        let c = tan.insert(TxId(1), &[TxId(0)]);
        adopted.register(&tan, c);
        placed.register(&tan, c);
        assert_eq!(adopted.pprime(c), placed.pprime(c));
    }

    #[test]
    fn keep_hubs_engine_saves_rows_the_graph_retains() {
        // A tiny hand-driven stream: HUB_WINDOW is too big to exercise
        // here, so the hub filter runs over a ring of 4 (the
        // with_retention construction is covered by the router goldens).
        let policy = RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 };
        let mut tan = TanGraph::with_retention(policy);
        let mut engine = T2sEngine::with_retention(2, 0.5, policy);
        engine.rows = WindowedRows::with_ring(policy, Some(4), 2);
        // Node 0: a hub (spent twice). Node 1: unspent. Node 2: spent
        // once (evicted when aged).
        let submit = |tan: &mut TanGraph, engine: &mut T2sEngine, id: u64, ps: &[TxId], s| {
            let n = tan.insert(TxId(id), ps);
            engine.register(tan, n);
            engine.place(n, s);
            let len = tan.len() as u32;
            tan.evict_before(len.saturating_sub(4));
            n
        };
        submit(&mut tan, &mut engine, 0, &[], 1);
        submit(&mut tan, &mut engine, 1, &[], 0);
        submit(&mut tan, &mut engine, 2, &[], 0);
        submit(&mut tan, &mut engine, 3, &[TxId(0)], 1);
        submit(&mut tan, &mut engine, 4, &[TxId(0)], 1);
        submit(&mut tan, &mut engine, 5, &[TxId(2)], 0);
        // Ages 0..5 past the window: 0 (hub) and the unspent 1, 3, 4
        // keep rows; 2 (spent once, below the threshold) must not.
        for id in 6..9u64 {
            submit(&mut tan, &mut engine, id, &[], 0);
        }
        assert_eq!(engine.retained_rows(), 4);
        assert!(tan.is_live(NodeId(0)) && tan.is_live(NodeId(1)));
        assert!(!tan.is_live(NodeId(2)));
        // The hub's retained row still feeds its spenders: p'(0) after
        // one placement at shard 1 and two spends is [0, 0.5]; a new
        // spender inherits (1-α)·p'(0)/|Nout(0)| = 0.5 · 0.5 / 3 and
        // then its own α bump at shard 1.
        let n = submit(&mut tan, &mut engine, 9, &[TxId(0)], 1);
        let pp = engine.pprime(n);
        assert!(approx(pp[0], 0.0), "{pp:?}");
        assert!(approx(pp[1], 0.5 * 0.5 / 3.0 + 0.5), "{pp:?}");
        // An evicted, unretained ancestor contributes nothing: the new
        // spender's row holds only its own α bump.
        let n = submit(&mut tan, &mut engine, 10, &[TxId(2)], 0);
        let pp = engine.pprime(n);
        assert!(approx(pp[0], 0.5) && approx(pp[1], 0.0), "{pp:?}");
    }

    #[test]
    #[should_panic(expected = "engine-state snapshot")]
    fn warm_start_rejects_evicted_graphs() {
        let mut tan = TanGraph::with_retention(RetentionPolicy::WindowTxs(1));
        tan.insert(TxId(0), &[]);
        tan.insert(TxId(1), &[]);
        tan.evict_before(1);
        let mut engine = T2sEngine::new(2);
        engine.warm_start(&tan, &[0, 0]);
    }
}
