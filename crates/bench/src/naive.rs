//! The seed's original allocating implementation of Algorithm 1, kept
//! verbatim (over `optchain_core`'s public API only) as the oracle the
//! optimized [`optchain_core::OptChainPlacer`] path is held against:
//! `optchain-core`'s `golden_place` equivalence test is its only
//! importer.

use optchain_core::{
    input_shards_into, AssignmentStore, AssignmentView, Decision, L2sEstimator, PlacementContext,
    Placer, ShardId, T2sEngine, TemporalFitness,
};
use optchain_tan::{NodeId, TanGraph};

/// Algorithm 1 exactly as the seed wrote it: three fresh `Vec<f64>`s per
/// call, one input-shard `Vec`, and one full L2S exponential expansion
/// **per candidate shard**.
#[derive(Debug, Clone)]
pub struct NaiveOptChainPlacer {
    engine: T2sEngine,
    estimator: L2sEstimator,
    fitness: TemporalFitness,
    assignments: AssignmentStore,
}

/// The seed's allocating input-shard lookup.
fn input_shards(tan: &TanGraph, assignments: AssignmentView<'_>, node: NodeId) -> Vec<u32> {
    let mut shards = Vec::new();
    input_shards_into(tan, assignments, node, &mut shards);
    shards
}

impl NaiveOptChainPlacer {
    /// Naive-path OptChain from explicit components (mirrors
    /// [`optchain_core::OptChainPlacer::from_parts`]).
    pub fn from_parts(
        engine: T2sEngine,
        estimator: L2sEstimator,
        fitness: TemporalFitness,
    ) -> Self {
        NaiveOptChainPlacer {
            engine,
            estimator,
            fitness,
            assignments: AssignmentStore::new(),
        }
    }

    /// The seed's allocating decision procedure.
    ///
    /// # Panics
    ///
    /// Panics if nodes arrive out of order or telemetry length ≠ k.
    pub fn place_with_detail_naive(
        &mut self,
        ctx: &PlacementContext<'_>,
        node: NodeId,
    ) -> Decision {
        assert_eq!(
            node.index(),
            self.assignments.len(),
            "placers must see every node in arrival order"
        );
        assert_eq!(
            ctx.telemetry.len(),
            self.engine.k() as usize,
            "telemetry must cover every shard"
        );
        self.engine.register(ctx.tan, node);
        let t2s = self.engine.scores(node);
        let inputs = input_shards(ctx.tan, self.assignments.view(), node);
        let l2s: Vec<f64> = (0..self.engine.k())
            .map(|j| self.estimator.score(ctx.telemetry, &inputs, j))
            .collect();
        let fitness: Vec<f64> = t2s
            .iter()
            .zip(&l2s)
            .map(|(p, e)| self.fitness.combine(*p, *e))
            .collect();
        let sizes = self.engine.shard_sizes();
        let mut shard = 0u32;
        for j in 1..self.engine.k() {
            let (fj, fb) = (fitness[j as usize], fitness[shard as usize]);
            if fj > fb || (fj == fb && sizes[j as usize] < sizes[shard as usize]) {
                shard = j;
            }
        }
        self.engine.place(node, shard);
        self.assignments.push_in(ctx.tan, shard);
        Decision {
            shard: ShardId(shard),
            t2s,
            l2s,
            fitness,
        }
    }
}

impl Placer for NaiveOptChainPlacer {
    fn name(&self) -> &'static str {
        "optchain-naive"
    }

    fn k(&self) -> u32 {
        self.engine.k()
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        self.place_with_detail_naive(ctx, node).shard
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }
}
