//! Placement strategies: OptChain (Algorithm 1) and the paper's
//! comparison baselines behind one [`Placer`] trait.

use std::fmt;

use optchain_tan::hash::splitmix64;
use optchain_tan::{NodeId, RetentionPolicy, TanGraph};

use crate::assignment::{AssignmentStore, AssignmentView};
use crate::fitness::TemporalFitness;
use crate::l2s::{L2sEstimator, L2sMemo, ShardTelemetry};
use crate::t2s::T2sEngine;

/// Identifier of a shard (`0..k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard#{}", self.0)
    }
}

/// Everything a placement strategy may observe when deciding: the TaN
/// graph (with the new node already inserted) and the current per-shard
/// telemetry.
#[derive(Debug, Clone, Copy)]
pub struct PlacementContext<'a> {
    /// The TaN network including the arriving node.
    pub tan: &'a TanGraph,
    /// Current telemetry per shard (length `k`).
    pub telemetry: &'a [ShardTelemetry],
    /// Telemetry generation counter, when the driver tracks one. The
    /// contract: the epoch **must** change whenever the telemetry values
    /// change. `None` (the [`PlacementContext::new`] default) disables
    /// cross-transaction L2S memoization — always safe.
    pub epoch: Option<u64>,
}

impl<'a> PlacementContext<'a> {
    /// Bundles a TaN graph and telemetry slice (no epoch: cross-tx L2S
    /// memoization stays off).
    pub fn new(tan: &'a TanGraph, telemetry: &'a [ShardTelemetry]) -> Self {
        PlacementContext {
            tan,
            telemetry,
            epoch: None,
        }
    }

    /// Like [`PlacementContext::new`], with a telemetry epoch enabling
    /// cross-transaction L2S memo reuse (see [`L2sMemo`]).
    pub fn with_epoch(tan: &'a TanGraph, telemetry: &'a [ShardTelemetry], epoch: u64) -> Self {
        PlacementContext {
            tan,
            telemetry,
            epoch: Some(epoch),
        }
    }
}

/// A transaction-to-shard placement strategy.
///
/// Implementations must be driven with **every** node of the stream in
/// arrival order — they maintain internal state (assignments, T2S
/// vectors, shard sizes) keyed by node index.
pub trait Placer {
    /// Short lowercase name used in experiment tables (e.g. `"optchain"`).
    fn name(&self) -> &'static str;

    /// Number of shards this placer distributes over.
    fn k(&self) -> u32;

    /// Decides the shard for `node` (which must be the
    /// `assignments().len()`-th node of the stream) and records the
    /// decision.
    ///
    /// # Panics
    ///
    /// Implementations panic if nodes arrive out of order.
    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId;

    /// A view over the shard of every node placed so far, indexed by
    /// stable node id. Under a [`RetentionPolicy`] aged entries are
    /// evicted in lockstep with the TaN graph ([`AssignmentView::get`]
    /// returns `None` for them); `len()` keeps counting the whole
    /// stream.
    fn assignments(&self) -> AssignmentView<'_>;
}

/// Distinct shards of `node`'s input transactions under `assignments`,
/// written into a caller-owned buffer (cleared first) in
/// first-appearance order — allocation-free for hot loops.
///
/// Parents whose assignment has been evicted by a retention policy are
/// skipped — the same graceful degradation as a missing TaN edge. On
/// the placement path itself this never happens (a just-inserted node's
/// parents are live by construction, and the store's window equals the
/// graph's); it can only surface when revisiting an old node after the
/// horizon moved past one of its parents.
pub fn input_shards_into(
    tan: &TanGraph,
    assignments: AssignmentView<'_>,
    node: NodeId,
    out: &mut Vec<u32>,
) {
    out.clear();
    for &v in tan.inputs(node) {
        let Some(s) = assignments.get_index(v.index()) else {
            continue;
        };
        if !out.contains(&s) {
            out.push(s);
        }
    }
}

fn check_order(placed: usize, node: NodeId) {
    assert_eq!(
        node.index(),
        placed,
        "placers must see every node in arrival order"
    );
}

/// The k-way argmax of Algorithm 1 with exact ties broken toward the
/// least-loaded shard (then the lowest index): coinbases and other
/// zero-history transactions score identically everywhere, and always
/// sending them to shard 0 would build block-scale skew before L2S
/// could notice.
///
/// The scan is manually chunked 8 lanes wide — the fitness/size slices
/// are pinned per chunk so the compiler unrolls the fixed-bound inner
/// loop and hoists its bounds checks (the first step toward the SIMD
/// fitness scan; `std::simd` is not yet stable). The update rule is the
/// exact sequential comparator, so the result is bit-identical to the
/// scalar loop for any `k` — the golden placement tests pin this.
#[inline]
pub(crate) fn argmax_fitness(fitness: &[f64], sizes: &[u64]) -> u32 {
    debug_assert_eq!(fitness.len(), sizes.len());
    debug_assert!(!fitness.is_empty());
    let mut best = 0u32;
    let mut best_f = fitness[0];
    let mut best_s = sizes[0];
    let mut j = 1usize;
    while j + 8 <= fitness.len() {
        let fs = &fitness[j..j + 8];
        let ss = &sizes[j..j + 8];
        for lane in 0..8 {
            let (f, s) = (fs[lane], ss[lane]);
            if f > best_f || (f == best_f && s < best_s) {
                best = (j + lane) as u32;
                best_f = f;
                best_s = s;
            }
        }
        j += 8;
    }
    while j < fitness.len() {
        let (f, s) = (fitness[j], sizes[j]);
        if f > best_f || (f == best_f && s < best_s) {
            best = j as u32;
            best_f = f;
            best_s = s;
        }
        j += 1;
    }
    best
}

// ---------------------------------------------------------------------------
// OptChain (Algorithm 1)
// ---------------------------------------------------------------------------

/// Detailed outcome of one OptChain decision, for diagnostics and the
/// wallet example.
#[derive(Debug, Clone, Default)]
pub struct Decision {
    /// The chosen shard.
    pub shard: ShardId,
    /// Normalized T2S score per shard.
    pub t2s: Vec<f64>,
    /// L2S latency estimate per shard (seconds).
    pub l2s: Vec<f64>,
    /// Combined temporal fitness per shard.
    pub fitness: Vec<f64>,
}

/// Caller-owned scratch for [`OptChainPlacer::place_into`]: the score
/// vectors of one decision, reused across transactions so the placement
/// hot path performs no heap allocation.
///
/// After a `place_into` call the buffer holds the full score breakdown of
/// that decision (same data as [`Decision`], without the copies).
#[derive(Debug, Clone, Default)]
pub struct DecisionBuf {
    shard: ShardId,
    t2s: Vec<f64>,
    l2s: Vec<f64>,
    fitness: Vec<f64>,
    input_shards: Vec<u32>,
}

impl DecisionBuf {
    /// An empty buffer (vectors size themselves on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard chosen by the last decision written into this buffer.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Normalized T2S score per shard.
    pub fn t2s(&self) -> &[f64] {
        &self.t2s
    }

    /// L2S latency estimate per shard (seconds).
    pub fn l2s(&self) -> &[f64] {
        &self.l2s
    }

    /// Combined temporal fitness per shard.
    pub fn fitness(&self) -> &[f64] {
        &self.fitness
    }

    /// Distinct shards of the placed node's inputs (first-appearance
    /// order).
    pub fn input_shards(&self) -> &[u32] {
        &self.input_shards
    }

    /// Copies the buffer out into an owned [`Decision`].
    pub fn to_decision(&self) -> Decision {
        Decision {
            shard: self.shard,
            t2s: self.t2s.clone(),
            l2s: self.l2s.clone(),
            fitness: self.fitness.clone(),
        }
    }

    /// Records a decision made by a strategy that produces no score
    /// breakdown (everything but OptChain): clears the score vectors and
    /// stores the shard. The router fills `input_shards` separately.
    pub(crate) fn record_plain(&mut self, shard: ShardId) {
        self.t2s.clear();
        self.l2s.clear();
        self.fitness.clear();
        self.shard = shard;
    }

    /// The input-shard scratch vector (router internals).
    pub(crate) fn input_shards_mut(&mut self) -> &mut Vec<u32> {
        &mut self.input_shards
    }
}

/// The paper's placement algorithm: temporal fitness = T2S − 0.01·L2S.
#[derive(Debug, Clone)]
pub struct OptChainPlacer {
    engine: T2sEngine,
    estimator: L2sEstimator,
    fitness: TemporalFitness,
    assignments: AssignmentStore,
    memo: L2sMemo,
    /// Internal buffer backing the [`Placer::place`] fast path.
    buf: DecisionBuf,
}

impl OptChainPlacer {
    /// OptChain with the paper's parameters (α = 0.5, weight 0.01) and
    /// the default verify-plus-commit L2S.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        Self::from_parts(
            T2sEngine::new(k),
            L2sEstimator::new(),
            TemporalFitness::paper(),
        )
    }

    /// OptChain from explicitly configured components (ablations).
    pub fn from_parts(
        engine: T2sEngine,
        estimator: L2sEstimator,
        fitness: TemporalFitness,
    ) -> Self {
        OptChainPlacer {
            engine,
            estimator,
            fitness,
            assignments: AssignmentStore::new(),
            memo: L2sMemo::new(),
            buf: DecisionBuf::new(),
        }
    }

    /// Hit/miss counters of the internal L2S memo (diagnostics).
    pub fn l2s_memo_stats(&self) -> (u64, u64) {
        (self.memo.hits(), self.memo.misses())
    }

    /// Commits one staged migration move: swings the node's assignment
    /// from `from` to `to` and re-homes its T2S score row in lockstep,
    /// so future spenders are pulled toward the new shard. Returns
    /// `false` (state untouched) when the node's assignment no longer
    /// resolves to `from` — it aged out of the window between epoch
    /// open and commit, or was never placed — which is how a staged
    /// move batch validates itself against the live window at commit
    /// time.
    pub(crate) fn apply_move(&mut self, node: NodeId, from: ShardId, to: ShardId) -> bool {
        if from == to || self.assignments.get(node) != Some(from) {
            return false;
        }
        // Store-live implies row-live: the assignment store and the T2S
        // ring share one retention window, advanced in lockstep by the
        // router, so a resolvable assignment guarantees a resolvable
        // score row.
        let rehomed = self.engine.rehome(node.index(), from.0, to.0);
        debug_assert!(rehomed, "assignment live but T2S row evicted");
        if !rehomed {
            return false;
        }
        let reassigned = self.assignments.reassign(node.index(), to.0);
        debug_assert!(reassigned, "assignment resolved but reassign failed");
        reassigned
    }

    /// Runs Algorithm 1 for `node`, writing the full score breakdown into
    /// the caller-owned `buf` — the allocation-free hot path. Returns the
    /// chosen shard.
    ///
    /// Produces bit-identical decisions to the seed's allocating path
    /// (`optchain_bench::naive`); the golden placement test enforces
    /// this.
    ///
    /// # Panics
    ///
    /// Panics if nodes arrive out of order or telemetry length ≠ k.
    pub fn place_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        node: NodeId,
        buf: &mut DecisionBuf,
    ) -> ShardId {
        let mut memo = std::mem::take(&mut self.memo);
        let shard = self.place_into_with_memo(ctx, node, buf, &mut memo);
        self.memo = memo;
        shard
    }

    /// [`OptChainPlacer::place_into`] with a **caller-owned** [`L2sMemo`]
    /// instead of the placer's internal one — the primitive behind
    /// per-client placement sessions (see [`crate::PlacementSession`]),
    /// where each client keys its own memo by the telemetry version it
    /// observes. Decisions are bit-identical regardless of which memo is
    /// supplied; only the hit/miss accounting differs.
    ///
    /// # Panics
    ///
    /// Panics if nodes arrive out of order or telemetry length ≠ k.
    pub fn place_into_with_memo(
        &mut self,
        ctx: &PlacementContext<'_>,
        node: NodeId,
        buf: &mut DecisionBuf,
        memo: &mut L2sMemo,
    ) -> ShardId {
        check_order(self.assignments.len(), node);
        assert_eq!(
            ctx.telemetry.len(),
            self.engine.k() as usize,
            "telemetry must cover every shard"
        );
        self.engine.register(ctx.tan, node);
        self.engine.scores_into(node, &mut buf.t2s);
        input_shards_into(
            ctx.tan,
            self.assignments.view(),
            node,
            &mut buf.input_shards,
        );
        self.estimator.scores_into(
            memo,
            ctx.telemetry,
            ctx.epoch,
            &buf.input_shards,
            &mut buf.l2s,
        );
        buf.fitness.clear();
        buf.fitness.extend(
            buf.t2s
                .iter()
                .zip(&buf.l2s)
                .map(|(p, e)| self.fitness.combine(*p, *e)),
        );
        let shard = argmax_fitness(&buf.fitness, self.engine.shard_sizes());
        self.engine.place(node, shard);
        self.assignments.push_in(ctx.tan, shard);
        buf.shard = ShardId(shard);
        buf.shard
    }
}

impl Placer for OptChainPlacer {
    fn name(&self) -> &'static str {
        "optchain"
    }

    fn k(&self) -> u32 {
        self.engine.k()
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        let mut buf = std::mem::take(&mut self.buf);
        let shard = self.place_into(ctx, node, &mut buf);
        self.buf = buf;
        shard
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }
}

// ---------------------------------------------------------------------------
// OmniLedger random (hash) placement
// ---------------------------------------------------------------------------

/// OmniLedger's default strategy: "the hashed value of a transaction is
/// used to determine which shards the transaction will be placed into"
/// (Section III.C). Deterministic in the transaction id.
#[derive(Debug, Clone)]
pub struct RandomPlacer {
    k: u32,
    assignments: AssignmentStore,
}

impl RandomPlacer {
    /// Creates the hash placer over `k` shards.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        RandomPlacer {
            k,
            assignments: AssignmentStore::new(),
        }
    }

    /// Records an externally imposed placement for the next node (a
    /// decision made elsewhere), with graph access so a
    /// [`RetentionPolicy::KeepUnspentAndHubs`] store can save the
    /// assignment its ring slot overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= k`.
    pub fn adopt_in(&mut self, tan: &TanGraph, shard: u32) {
        assert!(shard < self.k, "shard {shard} out of range");
        self.assignments.push_in(tan, shard);
    }

    /// Installs a checkpointed assignment store (hash placement keeps
    /// no other state). [`crate::Router::recover`] has already run the
    /// snapshot's restore check.
    pub(crate) fn restore(&mut self, assignments: AssignmentStore) {
        self.assignments = assignments;
    }
}

impl Placer for RandomPlacer {
    fn name(&self) -> &'static str {
        "omniledger"
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        check_order(self.assignments.len(), node);
        let txid = ctx.tan.txid(node);
        let shard = (splitmix64(txid.index()) % self.k as u64) as u32;
        self.assignments.push_in(ctx.tan, shard);
        ShardId(shard)
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }
}

// ---------------------------------------------------------------------------
// Greedy one-hop placement
// ---------------------------------------------------------------------------

/// The Greedy heuristic of Section IV.B: place `u` into the shard already
/// holding the most of `u`'s input transactions, subject to the capacity
/// cap `(1 + ε)⌊n/k⌋`.
///
/// The paper's text says to *maximize* `f(u,j) = |Sin(u) \ S_j|`, which
/// would maximize cross-shard placements; we implement the evident intent
/// (equivalently, minimize `f`): the literal reading scatters inputs.
#[derive(Debug, Clone)]
pub struct GreedyPlacer {
    k: u32,
    epsilon: f64,
    /// Total stream length `n` if known up front (the paper fixes `n`);
    /// otherwise the cap tracks the running count.
    expected_total: Option<u64>,
    shard_sizes: Vec<u64>,
    assignments: AssignmentStore,
}

impl GreedyPlacer {
    /// Greedy with the paper's ε = 0.1 and a running-count cap.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        Self::with_epsilon(k, 0.1, None)
    }

    /// Greedy with explicit ε and (optionally) the known stream length.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or ε is negative.
    pub fn with_epsilon(k: u32, epsilon: f64, expected_total: Option<u64>) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(epsilon >= 0.0, "epsilon must be >= 0");
        GreedyPlacer {
            k,
            epsilon,
            expected_total,
            shard_sizes: vec![0; k as usize],
            assignments: AssignmentStore::new(),
        }
    }

    fn cap(&self) -> u64 {
        cap_for(
            self.expected_total,
            self.assignments.len(),
            self.k,
            self.epsilon,
        )
    }

    /// The capacity-cap counters (`|S_j|` so far), checkpointed next
    /// to the assignment store.
    pub(crate) fn shard_sizes(&self) -> &[u64] {
        &self.shard_sizes
    }

    /// Records an externally imposed placement for the next node,
    /// counting it toward the shard's size (see
    /// [`RandomPlacer::adopt_in`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= k`.
    pub fn adopt_in(&mut self, tan: &TanGraph, shard: u32) {
        assert!(shard < self.k, "shard {shard} out of range");
        self.shard_sizes[shard as usize] += 1;
        self.assignments.push_in(tan, shard);
    }

    /// Installs a checkpointed assignment store and capacity counters
    /// (see [`RandomPlacer::restore`]).
    pub(crate) fn restore(&mut self, assignments: AssignmentStore, shard_sizes: Vec<u64>) {
        self.assignments = assignments;
        self.shard_sizes = shard_sizes;
    }
}

/// The `(1 + ε)⌊n/k⌋` capacity cap. With an unknown stream length the cap
/// tracks the running count with one slot of slack, so the very first
/// transactions are not forced to scatter.
fn cap_for(expected_total: Option<u64>, placed: usize, k: u32, epsilon: f64) -> u64 {
    match expected_total {
        Some(n) => (((n / k as u64) as f64) * (1.0 + epsilon)) as u64,
        None => ((placed as f64 + 1.0) / k as f64 * (1.0 + epsilon)).ceil() as u64 + 1,
    }
    .max(1)
}

impl Placer for GreedyPlacer {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        check_order(self.assignments.len(), node);
        let cap = self.cap();
        // Count inputs per shard (a just-inserted node's parents are
        // live, so the lookups always resolve).
        let mut overlap = vec![0u64; self.k as usize];
        for &v in ctx.tan.inputs(node) {
            if let Some(s) = self.assignments.get_index(v.index()) {
                overlap[s as usize] += 1;
            }
        }
        let mut best: Option<u32> = None;
        for j in 0..self.k {
            if self.shard_sizes[j as usize] >= cap {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    overlap[j as usize] > overlap[b as usize]
                        || (overlap[j as usize] == overlap[b as usize]
                            && self.shard_sizes[j as usize] < self.shard_sizes[b as usize])
                }
            };
            if better {
                best = Some(j);
            }
        }
        // All shards at cap (cap is approximate for running counts):
        // least-loaded fallback.
        let shard = best.unwrap_or_else(|| {
            (0..self.k)
                .min_by_key(|j| self.shard_sizes[*j as usize])
                .expect("k > 0")
        });
        self.shard_sizes[shard as usize] += 1;
        self.assignments.push_in(ctx.tan, shard);
        ShardId(shard)
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }
}

// ---------------------------------------------------------------------------
// T2S-based placement (Table I/II's "T2S-based" column)
// ---------------------------------------------------------------------------

/// T2S-score placement without load awareness: `argmax_i p(u)[i]`,
/// subject to the same `(1 + ε)⌊n/k⌋` cap as Greedy (Section IV.B sets
/// ε = 0.1 for both).
#[derive(Debug, Clone)]
pub struct T2sPlacer {
    engine: T2sEngine,
    epsilon: f64,
    expected_total: Option<u64>,
    assignments: AssignmentStore,
}

impl T2sPlacer {
    /// T2S placement with the paper's α = 0.5 and ε = 0.1.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32) -> Self {
        Self::with_engine(T2sEngine::new(k), 0.1, None)
    }

    /// T2S placement from an explicit engine and cap parameters.
    ///
    /// # Panics
    ///
    /// Panics if ε is negative.
    pub fn with_engine(engine: T2sEngine, epsilon: f64, expected_total: Option<u64>) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be >= 0");
        T2sPlacer {
            engine,
            epsilon,
            expected_total,
            assignments: AssignmentStore::new(),
        }
    }

    fn cap(&self) -> u64 {
        cap_for(
            self.expected_total,
            self.assignments.len(),
            self.engine.k(),
            self.epsilon,
        )
    }
}

impl Placer for T2sPlacer {
    fn name(&self) -> &'static str {
        "t2s"
    }

    fn k(&self) -> u32 {
        self.engine.k()
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        check_order(self.assignments.len(), node);
        self.engine.register(ctx.tan, node);
        let scores = self.engine.scores(node);
        let cap = self.cap();
        let sizes = self.engine.shard_sizes();
        let mut best: Option<u32> = None;
        for j in 0..self.k() {
            if sizes[j as usize] >= cap {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    scores[j as usize] > scores[b as usize]
                        || (scores[j as usize] == scores[b as usize]
                            && sizes[j as usize] < sizes[b as usize])
                }
            };
            if better {
                best = Some(j);
            }
        }
        let shard = best.unwrap_or_else(|| {
            (0..self.k())
                .min_by_key(|j| sizes[*j as usize])
                .expect("k > 0")
        });
        self.engine.place(node, shard);
        self.assignments.push_in(ctx.tan, shard);
        ShardId(shard)
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }
}

// ---------------------------------------------------------------------------
// Oracle (Metis) placement
// ---------------------------------------------------------------------------

/// Replays a fixed offline assignment (e.g. from
/// `optchain_partition::partition_kway`) — the paper's "Metis k-way"
/// baseline, which sees the whole TaN network in advance.
#[derive(Debug, Clone)]
pub struct OraclePlacer {
    k: u32,
    oracle: Vec<u32>,
    assignments: AssignmentStore,
}

impl OraclePlacer {
    /// Wraps a precomputed assignment of every future node.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or any oracle entry is `>= k`.
    pub fn new(k: u32, oracle: Vec<u32>) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(
            oracle.iter().all(|s| *s < k),
            "oracle assignment out of range"
        );
        OraclePlacer {
            k,
            oracle,
            assignments: AssignmentStore::new(),
        }
    }

    /// `true` iff the oracle holds a shard for node `node`.
    pub(crate) fn covers(&self, node: usize) -> bool {
        node < self.oracle.len()
    }

    /// `true` iff every live entry of `assignments` is the oracle's.
    pub(crate) fn agrees_with(&self, assignments: &AssignmentStore) -> bool {
        let mut live = assignments.view().iter_live();
        live.all(|(node, shard)| self.oracle.get(node.index()) == Some(&shard.0))
    }

    /// Records an externally imposed placement for the next node (see
    /// [`RandomPlacer::adopt_in`]); an oracle only accepts its own.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not the oracle's shard for the next node.
    pub fn adopt_in(&mut self, tan: &TanGraph, shard: u32) {
        assert_eq!(
            self.oracle.get(self.assignments.len()),
            Some(&shard),
            "imposed placement disagrees with the oracle assignment"
        );
        self.assignments.push_in(tan, shard);
    }

    /// Installs a checkpointed assignment store (see
    /// [`RandomPlacer::restore`]).
    pub(crate) fn restore(&mut self, assignments: AssignmentStore) {
        self.assignments = assignments;
    }
}

impl Placer for OraclePlacer {
    fn name(&self) -> &'static str {
        "metis"
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        check_order(self.assignments.len(), node);
        let shard = *self
            .oracle
            .get(node.index())
            .expect("oracle must cover the whole stream");
        self.assignments.push_in(ctx.tan, shard);
        ShardId(shard)
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }
}

// ---------------------------------------------------------------------------
// Shared assignment-store plumbing
// ---------------------------------------------------------------------------

/// Every built-in placer owns an [`AssignmentStore`] and carries the
/// same three pieces of plumbing around it; one macro keeps the
/// retention-install contract (fresh-placer assert, window lockstep) in
/// a single place.
macro_rules! impl_assignment_store_plumbing {
    ($($placer:ty),+ $(,)?) => {$(
        impl $placer {
            /// Bounds the assignment history under `retention`
            /// (builder-time only — the router applies the same policy
            /// it threads into the graph and the T2S engine, keeping
            /// every window in lockstep).
            ///
            /// # Panics
            ///
            /// Panics if anything was already placed.
            pub(crate) fn retain(mut self, retention: RetentionPolicy) -> Self {
                assert!(
                    self.assignments.is_empty(),
                    "retain requires a fresh placer"
                );
                self.assignments = AssignmentStore::with_retention(retention);
                self
            }

            /// Releases excess assignment-store capacity
            /// (checkpoint-time shrink, driven by
            /// [`crate::Router::compact`]).
            pub(crate) fn compact_assignments(&mut self) {
                self.assignments.compact();
            }

            /// The owned assignment store (snapshots carry it verbatim).
            pub(crate) fn assignments_store(&self) -> &AssignmentStore {
                &self.assignments
            }
        }
    )+};
}

impl_assignment_store_plumbing!(
    OptChainPlacer,
    RandomPlacer,
    GreedyPlacer,
    T2sPlacer,
    OraclePlacer,
);

/// The two T2S-bearing placers wrap a [`T2sEngine`] next to their
/// store and warm-start, adopt and restore it identically.
macro_rules! impl_t2s_engine_plumbing {
    ($($placer:ty),+ $(,)?) => {$(
        impl $placer {
            /// Warm-starts the internal T2S engine from an
            /// already-placed prefix (Table II's experiment). All
            /// prefix nodes count as placed.
            ///
            /// # Panics
            ///
            /// Panics if any placement already happened.
            pub fn warm_start(&mut self, tan: &TanGraph, assignments: &[u32]) {
                assert!(
                    self.assignments.is_empty(),
                    "warm_start requires a fresh placer"
                );
                self.engine.warm_start(tan, assignments);
                for &s in &assignments[..tan.len()] {
                    self.assignments.push_in(tan, s);
                }
            }

            /// Records a node whose placement was decided elsewhere
            /// ([`crate::Router::adopt_remote`]): the imposed shard
            /// enters the T2S state as if the node were a parentless
            /// transaction placed there, so future local spenders are
            /// pulled toward it. Graph access lets a
            /// retention engine save the score row (and assignment)
            /// its ring slot overwrites ([`T2sEngine::adopt_in`]).
            ///
            /// # Panics
            ///
            /// Panics if nodes arrive out of order or `shard >= k`.
            pub fn adopt_in(&mut self, tan: &TanGraph, node: NodeId, shard: u32) {
                check_order(self.assignments.len(), node);
                self.engine.adopt_in(tan, node, shard);
                self.assignments.push_in(tan, shard);
            }

            /// The internal T2S engine (snapshots carry it verbatim).
            pub(crate) fn engine(&self) -> &T2sEngine {
                &self.engine
            }

            /// Installs a checkpointed engine and assignment store
            /// (see [`RandomPlacer::restore`]).
            pub(crate) fn restore(&mut self, engine: T2sEngine, assignments: AssignmentStore) {
                self.engine = engine;
                self.assignments = assignments;
            }
        }
    )+};
}

impl_t2s_engine_plumbing!(OptChainPlacer, T2sPlacer);

#[cfg(test)]
mod tests {
    use super::*;
    use optchain_utxo::TxId;

    fn uniform_telemetry(k: usize) -> Vec<ShardTelemetry> {
        vec![ShardTelemetry::new(0.1, 0.5); k]
    }

    #[test]
    fn optchain_groups_related_txs() {
        let k = 4u32;
        let telemetry = uniform_telemetry(k as usize);
        let mut tan = TanGraph::new();
        let mut placer = OptChainPlacer::new(k);
        let ctx_shard = |tan: &TanGraph, placer: &mut OptChainPlacer, node| {
            placer.place(&PlacementContext::new(tan, &telemetry), node)
        };
        let a = tan.insert(TxId(0), &[]);
        let sa = ctx_shard(&tan, &mut placer, a);
        let b = tan.insert(TxId(1), &[TxId(0)]);
        let sb = ctx_shard(&tan, &mut placer, b);
        let c = tan.insert(TxId(2), &[TxId(1)]);
        let sc = ctx_shard(&tan, &mut placer, c);
        assert_eq!(sa, sb);
        assert_eq!(sb, sc);
    }

    #[test]
    fn optchain_diverts_from_backlogged_shard() {
        let k = 2u32;
        let mut tan = TanGraph::new();
        let mut placer = OptChainPlacer::new(k);
        // Parent chain in shard s under uniform telemetry.
        let telemetry = uniform_telemetry(2);
        let a = tan.insert(TxId(0), &[]);
        let sa = placer.place(&PlacementContext::new(&tan, &telemetry), a);
        // Now the parent's shard backs up massively; the child should be
        // diverted despite T2S preferring the parent's shard.
        let mut busy = uniform_telemetry(2);
        busy[sa.index()] = ShardTelemetry::new(0.1, 500.0);
        let b = tan.insert(TxId(1), &[TxId(0)]);
        let sb = placer.place(&PlacementContext::new(&tan, &busy), b);
        assert_ne!(sa, sb, "L2S must override T2S under heavy backlog");
    }

    #[test]
    fn random_placer_is_deterministic_and_spread() {
        let telemetry = uniform_telemetry(8);
        let mut tan = TanGraph::new();
        let mut p1 = RandomPlacer::new(8);
        let mut p2 = RandomPlacer::new(8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u64 {
            let n = tan.insert(TxId(i), &[]);
            let s1 = p1.place(&PlacementContext::new(&tan, &telemetry), n);
            let s2 = p2.place(&PlacementContext::new(&tan, &telemetry), n);
            assert_eq!(s1, s2);
            seen.insert(s1);
        }
        assert_eq!(seen.len(), 8, "hash placement should hit every shard");
    }

    #[test]
    fn greedy_follows_majority_of_inputs() {
        let telemetry = uniform_telemetry(4);
        let mut tan = TanGraph::new();
        let mut greedy = GreedyPlacer::new(4);
        // Three coinbases; greedy spreads them (zero overlap, least load).
        let mut nodes = Vec::new();
        for i in 0..3u64 {
            let n = tan.insert(TxId(i), &[]);
            greedy.place(&PlacementContext::new(&tan, &telemetry), n);
            nodes.push(n);
        }
        let a0 = greedy.assignments().get_index(0).unwrap();
        // A tx spending nodes 0 and... 0 only: must land with node 0.
        let n = tan.insert(TxId(3), &[TxId(0)]);
        let s = greedy.place(&PlacementContext::new(&tan, &telemetry), n);
        assert_eq!(s.0, a0);
    }

    #[test]
    fn greedy_cap_forces_spread() {
        let telemetry = uniform_telemetry(2);
        let mut tan = TanGraph::new();
        // Known total of 10, ε = 0: cap = 5 per shard.
        let mut greedy = GreedyPlacer::with_epsilon(2, 0.0, Some(10));
        let mut sizes = [0u64; 2];
        // A long chain wants one shard; the cap must split it.
        tan.insert(TxId(0), &[]);
        greedy.place(&PlacementContext::new(&tan, &telemetry), NodeId(0));
        for i in 1..10u64 {
            tan.insert(TxId(i), &[TxId(i - 1)]);
            let s = greedy.place(&PlacementContext::new(&tan, &telemetry), NodeId(i as u32));
            sizes[s.index()] += 1;
        }
        assert!(sizes[0] <= 5 && sizes[1] <= 5, "{sizes:?}");
    }

    #[test]
    fn t2s_placer_follows_score() {
        let telemetry = uniform_telemetry(4);
        let mut tan = TanGraph::new();
        let mut placer = T2sPlacer::new(4);
        let a = tan.insert(TxId(0), &[]);
        let sa = placer.place(&PlacementContext::new(&tan, &telemetry), a);
        let b = tan.insert(TxId(1), &[TxId(0)]);
        let sb = placer.place(&PlacementContext::new(&tan, &telemetry), b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn oracle_replays_fixed_assignment() {
        let telemetry = uniform_telemetry(3);
        let mut tan = TanGraph::new();
        let oracle = vec![2u32, 0, 1];
        let mut placer = OraclePlacer::new(3, oracle.clone());
        for i in 0..3u64 {
            let n = tan.insert(TxId(i), &[]);
            let s = placer.place(&PlacementContext::new(&tan, &telemetry), n);
            assert_eq!(s.0, oracle[i as usize]);
        }
        assert_eq!(placer.assignments().to_vec(), Some(oracle));
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn skipping_a_node_panics() {
        let telemetry = uniform_telemetry(2);
        let mut tan = TanGraph::new();
        tan.insert(TxId(0), &[]);
        let n1 = tan.insert(TxId(1), &[]);
        let mut placer = RandomPlacer::new(2);
        placer.place(&PlacementContext::new(&tan, &telemetry), n1);
    }

    #[test]
    fn chunked_argmax_matches_scalar_loop() {
        use optchain_tan::hash::splitmix64;
        // Every k across the chunk boundaries, with engineered exact
        // ties (quantized fitness, clashing sizes) so the tie-break
        // paths are exercised, against the seed's scalar loop.
        for k in 1..70usize {
            for trial in 0..8u64 {
                let fitness: Vec<f64> = (0..k)
                    .map(|j| (splitmix64(trial * 1000 + j as u64) % 5) as f64 / 4.0)
                    .collect();
                let sizes: Vec<u64> = (0..k)
                    .map(|j| splitmix64(trial * 7777 + j as u64) % 3)
                    .collect();
                let mut expect = 0u32;
                for j in 1..k {
                    let (fj, fb) = (fitness[j], fitness[expect as usize]);
                    if fj > fb || (fj == fb && sizes[j] < sizes[expect as usize]) {
                        expect = j as u32;
                    }
                }
                assert_eq!(
                    argmax_fitness(&fitness, &sizes),
                    expect,
                    "k={k} trial={trial} {fitness:?} {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn decision_detail_is_consistent() {
        let telemetry = uniform_telemetry(4);
        let mut tan = TanGraph::new();
        let mut placer = OptChainPlacer::new(4);
        let n = tan.insert(TxId(0), &[]);
        let mut buf = DecisionBuf::new();
        placer.place_into(&PlacementContext::new(&tan, &telemetry), n, &mut buf);
        let d = buf.to_decision();
        assert_eq!(d.t2s.len(), 4);
        assert_eq!(d.l2s.len(), 4);
        // The chosen shard's fitness is maximal (ties break low-index).
        let best = d.fitness[d.shard.index()];
        assert!(d.fitness.iter().all(|f| *f <= best + 1e-15));
        assert!(d.fitness[..d.shard.index()].iter().all(|f| *f < best));
    }
}
