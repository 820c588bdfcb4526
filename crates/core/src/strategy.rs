//! Runtime-selectable placement strategies.
//!
//! The paper's evaluation (Section V.A) compares OptChain against four
//! baselines; [`Strategy`] names them and [`DynPlacer`] dispatches over
//! the concrete placer structs at **runtime**, so one binary can sweep
//! every strategy without monomorphizing a duplicate driver per placer
//! type. [`crate::Router`] builds a `DynPlacer` from a `Strategy`.

use std::fmt;

use optchain_tan::NodeId;

use crate::assignment::{AssignmentStore, AssignmentView};
use crate::placer::{
    GreedyPlacer, OptChainPlacer, OraclePlacer, PlacementContext, Placer, RandomPlacer, ShardId,
    T2sPlacer,
};
use crate::t2s::T2sEngine;

/// The placement strategies of the paper's evaluation (Section V.A).
///
/// The placement layer itself is configured by name (the simulator
/// re-exports it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full OptChain (T2S + L2S temporal fitness).
    OptChain,
    /// T2S score only, with the ε-capacity cap.
    T2s,
    /// OmniLedger's random (hash) placement.
    OmniLedger,
    /// The one-hop Greedy heuristic.
    Greedy,
    /// Offline Metis-style partitioning of the whole TaN network,
    /// computed before the run (requires the full stream up front — the
    /// router needs [`crate::RouterBuilder::oracle`]).
    Metis,
}

impl Strategy {
    /// Table/figure label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::OptChain => "OptChain",
            Strategy::T2s => "T2S",
            Strategy::OmniLedger => "OmniLedger",
            Strategy::Greedy => "Greedy",
            Strategy::Metis => "Metis",
        }
    }

    /// All strategies the paper compares in its figures.
    pub fn figure_set() -> [Strategy; 4] {
        [
            Strategy::OptChain,
            Strategy::OmniLedger,
            Strategy::Metis,
            Strategy::Greedy,
        ]
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Enum dispatch over every built-in [`Placer`].
///
/// One `DynPlacer`-driven loop serves every strategy — the alternative,
/// a generic driver monomorphized per placer type, duplicates the whole
/// simulator/replay machinery five times in the binary for no measurable
/// gain (placement is dominated by the score math, not the dispatch).
// One DynPlacer exists per router (never collections of them), and
// boxing the largest variant would put an indirection on the hottest
// placement path for no memory win.
#[allow(clippy::large_enum_variant)]
pub enum DynPlacer {
    /// Algorithm 1 ([`OptChainPlacer`]).
    OptChain(OptChainPlacer),
    /// T2S-only placement ([`T2sPlacer`]).
    T2s(T2sPlacer),
    /// OmniLedger hash placement ([`RandomPlacer`]).
    Random(RandomPlacer),
    /// One-hop Greedy ([`GreedyPlacer`]).
    Greedy(GreedyPlacer),
    /// Offline oracle replay ([`OraclePlacer`]).
    Oracle(OraclePlacer),
}

impl DynPlacer {
    /// The [`Strategy`] this placer corresponds to.
    pub fn strategy(&self) -> Strategy {
        match self {
            DynPlacer::OptChain(_) => Strategy::OptChain,
            DynPlacer::T2s(_) => Strategy::T2s,
            DynPlacer::Random(_) => Strategy::OmniLedger,
            DynPlacer::Greedy(_) => Strategy::Greedy,
            DynPlacer::Oracle(_) => Strategy::Metis,
        }
    }

    fn inner(&self) -> &dyn Placer {
        match self {
            DynPlacer::OptChain(p) => p,
            DynPlacer::T2s(p) => p,
            DynPlacer::Random(p) => p,
            DynPlacer::Greedy(p) => p,
            DynPlacer::Oracle(p) => p,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn Placer {
        match self {
            DynPlacer::OptChain(p) => p,
            DynPlacer::T2s(p) => p,
            DynPlacer::Random(p) => p,
            DynPlacer::Greedy(p) => p,
            DynPlacer::Oracle(p) => p,
        }
    }

    /// The strategy state a snapshot carries: the assignment store,
    /// the T2S engine (OptChain, T2S) and Greedy's capacity counters.
    pub(crate) fn state(&self) -> (&AssignmentStore, Option<&T2sEngine>, Option<&[u64]>) {
        match self {
            DynPlacer::OptChain(p) => (p.assignments_store(), Some(p.engine()), None),
            DynPlacer::T2s(p) => (p.assignments_store(), Some(p.engine()), None),
            DynPlacer::Random(p) => (p.assignments_store(), None, None),
            DynPlacer::Greedy(p) => (p.assignments_store(), None, Some(p.shard_sizes())),
            DynPlacer::Oracle(p) => (p.assignments_store(), None, None),
        }
    }

    /// Releases excess assignment-store capacity.
    pub(crate) fn compact_assignments(&mut self) {
        match self {
            DynPlacer::OptChain(p) => p.compact_assignments(),
            DynPlacer::T2s(p) => p.compact_assignments(),
            DynPlacer::Random(p) => p.compact_assignments(),
            DynPlacer::Greedy(p) => p.compact_assignments(),
            DynPlacer::Oracle(p) => p.compact_assignments(),
        }
    }
}

impl fmt::Debug for DynPlacer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DynPlacer").field(&self.name()).finish()
    }
}

impl Placer for DynPlacer {
    fn name(&self) -> &'static str {
        self.inner().name()
    }

    fn k(&self) -> u32 {
        self.inner().k()
    }

    fn place(&mut self, ctx: &PlacementContext<'_>, node: NodeId) -> ShardId {
        self.inner_mut().place(ctx, node)
    }

    fn assignments(&self) -> AssignmentView<'_> {
        self.inner().assignments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardTelemetry;
    use optchain_tan::TanGraph;
    use optchain_utxo::TxId;

    #[test]
    fn strategy_labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            Strategy::OptChain,
            Strategy::T2s,
            Strategy::OmniLedger,
            Strategy::Greedy,
            Strategy::Metis,
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn dyn_placer_dispatches_like_the_concrete_placer() {
        let telemetry = vec![ShardTelemetry::new(0.1, 0.5); 4];
        let mut tan = TanGraph::new();
        let mut concrete = RandomPlacer::new(4);
        let mut boxed = DynPlacer::Random(RandomPlacer::new(4));
        assert_eq!(boxed.strategy(), Strategy::OmniLedger);
        assert_eq!(boxed.name(), "omniledger");
        assert_eq!(boxed.k(), 4);
        for i in 0..50u64 {
            let n = tan.insert(TxId(i), &[]);
            let ctx = PlacementContext::new(&tan, &telemetry);
            assert_eq!(concrete.place(&ctx, n), boxed.place(&ctx, n));
        }
        assert_eq!(concrete.assignments(), boxed.assignments());
    }
}
