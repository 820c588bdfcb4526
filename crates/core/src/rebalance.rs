//! Dynamic re-sharding: the `Rebalancer` and its migration-epoch
//! protocol.
//!
//! OptChain (the paper) places every transaction once, forever. Under a
//! hot-spot or flash-crowd workload a few hub outputs pin load onto one
//! shard: every spender of a hub is pulled toward the hub's shard by
//! T2S, the shard's queue grows, and the static placement can neither
//! re-home the hubs nor drain the backlog (L2S diverts *new* chains
//! away, at the price of making them cross-shard). Migration systems —
//! Shard Scheduler, "Transaction Placement in Sharded Blockchains" —
//! show that moving state with an explicit cost model beats any
//! one-shot placement on skewed load. This module adds that capability
//! behind [`crate::RouterBuilder::rebalancer`]:
//!
//! * a **cost model** scoring candidate [`Move`]s: estimated migration
//!   bytes ([`optchain_tan::TanGraph::node_state_bytes`] — what shipping
//!   the node's placement state between shards costs) against the
//!   future cross-transaction pull saved (the node's T2S `p'` mass at
//!   its current shard, weighted by its observed spender count — the
//!   mass that keeps attracting future spenders there);
//! * a two-phase **migration epoch** protocol: at each epoch boundary
//!   (every [`RebalancePolicy::epoch_interval`] local placements —
//!   the router's placement count, adoptions excluded) the moves
//!   staged at the *previous* boundary are committed — assignment
//!   entries swung, T2S rows re-homed in lockstep, each move validated
//!   against the live retention window — and a fresh batch is staged
//!   from the post-commit state. Between boundaries staged moves touch
//!   nothing, so in-flight placements resolve against the pre-epoch
//!   assignment;
//! * **determinism**: planning reads only the router's own state and
//!   its placement count, so the same stream (and the same epoch
//!   boundaries) produces the same moves and the same final
//!   assignments — golden-pinned, like every other placement path.
//!
//! A durable router needs no record of its own for any of this. The
//! staged batch and the counters ride every snapshot
//! (`RebalanceState`), and recovery replays the journal tail through
//! the same placement path, which re-derives every epoch boundary the
//! tail crosses (`docs/DURABILITY.md` §4).
//!
//! With the rebalancer disabled (not configured, or configured with a
//! trigger that never fires) the placement path is bit-identical to a
//! plain router — the existing goldens pin this.

use optchain_tan::{NodeId, TanGraph};
use optchain_utxo::TxId;

use crate::placer::{OptChainPlacer, ShardId};

/// Configuration of the `Rebalancer`. Construct with
/// [`RebalancePolicy::default`] and customize with the `with_*`
/// builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalancePolicy {
    /// Local placements between migration-epoch boundaries. At every
    /// boundary the previously staged batch commits and a new one is
    /// staged.
    pub epoch_interval: u64,
    /// Most moves staged per epoch.
    pub max_moves_per_epoch: usize,
    /// Most estimated migration bytes staged per epoch — the cost-model
    /// budget. The `rebalance_curve` bin sweeps this (PERF.md §9).
    pub byte_budget_per_epoch: u64,
    /// Stage an epoch only while `max shard load / mean shard load`
    /// exceeds this. `f64::INFINITY` never triggers — the
    /// "wired but disabled" configuration the bit-identity golden uses.
    pub utilization_trigger: f64,
    /// Only nodes with at least this many observed spenders are move
    /// candidates (hubs — the nodes whose T2S mass keeps attracting
    /// spenders).
    pub min_in_degree: u32,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            epoch_interval: 2_000,
            max_moves_per_epoch: 64,
            byte_budget_per_epoch: 64 * 1024,
            utilization_trigger: 1.15,
            min_in_degree: 4,
        }
    }
}

impl RebalancePolicy {
    /// Sets the epoch interval (placements between boundaries).
    pub fn with_epoch_interval(mut self, interval: u64) -> Self {
        self.epoch_interval = interval;
        self
    }

    /// Sets the per-epoch migration byte budget.
    pub fn with_byte_budget(mut self, bytes: u64) -> Self {
        self.byte_budget_per_epoch = bytes;
        self
    }

    /// Sets the utilization trigger (max/mean shard load ratio).
    pub fn with_utilization_trigger(mut self, ratio: f64) -> Self {
        self.utilization_trigger = ratio;
        self
    }

    /// Sets the hub candidate threshold (minimum observed spenders).
    pub fn with_min_in_degree(mut self, degree: u32) -> Self {
        self.min_in_degree = degree;
        self
    }
}

/// One staged migration: re-home `node` (transaction `txid`) from shard
/// `from` to shard `to`, shipping an estimated `bytes` of placement
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The node being re-homed (a hub).
    pub node: NodeId,
    /// Its transaction id — recorded at staging time so consumers
    /// (the sim's lock table, dashboards) need no graph lookup.
    pub txid: TxId,
    /// The shard the node is assigned to when the move is staged.
    pub from: ShardId,
    /// The destination shard (the least projected-load shard at
    /// staging time).
    pub to: ShardId,
    /// Estimated migration cost in bytes
    /// ([`optchain_tan::TanGraph::node_state_bytes`]).
    pub bytes: u64,
}

/// Lifetime counters of a `Rebalancer` (all zero while disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Epochs staged with at least one move.
    pub epochs_opened: u64,
    /// Epoch boundaries at which a staged batch was committed.
    pub epochs_committed: u64,
    /// Moves successfully applied.
    pub nodes_moved: u64,
    /// Estimated bytes migrated by the applied moves.
    pub bytes_migrated: u64,
    /// Staged moves dropped at commit because the node's assignment no
    /// longer resolved to the staged source shard (aged out of the
    /// retention window between epoch open and commit).
    pub moves_dropped: u64,
}

/// Everything a rebalancer carries from one epoch boundary to the
/// next: the batch staged at the previous boundary (empty = nothing
/// staged) and the lifetime counters. It is all a checkpoint needs of
/// the rebalancer — the policy is in the meta blob and the epoch clock
/// is the router's own placement count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RebalanceState {
    pub(crate) staged: Vec<Move>,
    pub(crate) stats: RebalanceStats,
}

/// The dynamic re-sharding engine a router runs when built with
/// [`crate::RouterBuilder::rebalancer`] (see the module docs for the
/// protocol).
#[derive(Debug, Clone)]
pub(crate) struct Rebalancer {
    policy: RebalancePolicy,
    pub(crate) state: RebalanceState,
}

impl Rebalancer {
    /// A rebalancer under a policy [`crate::RouterBuilder::build`]
    /// checked.
    pub(crate) fn new(policy: RebalancePolicy) -> Rebalancer {
        Rebalancer {
            policy,
            state: RebalanceState::default(),
        }
    }

    /// Runs the epoch clock after the router's `placed`-th local
    /// placement (adoptions excluded): at a boundary, commits the staged
    /// batch into `placer` (appending the applied moves to `applied`,
    /// the router's drain buffer) and stages the next batch from the
    /// post-commit state.
    pub(crate) fn on_placement(
        &mut self,
        placed: u64,
        tan: &TanGraph,
        placer: &mut OptChainPlacer,
        applied: &mut Vec<Move>,
    ) {
        if !placed.is_multiple_of(self.policy.epoch_interval) {
            return;
        }
        let RebalanceState { staged, stats } = &mut self.state;
        // Phase two of the previous epoch: commit. Every staged move is
        // re-validated against the live window — `apply_move` refuses
        // moves whose node aged out since staging.
        if !staged.is_empty() {
            for mv in staged.drain(..) {
                if placer.apply_move(mv.node, mv.from, mv.to) {
                    stats.nodes_moved += 1;
                    stats.bytes_migrated += mv.bytes;
                    applied.push(mv);
                } else {
                    stats.moves_dropped += 1;
                }
            }
            stats.epochs_committed += 1;
        }
        // Phase one of the next epoch: stage against post-commit state.
        let moves = self.plan(tan, placer);
        if !moves.is_empty() {
            self.state.stats.epochs_opened += 1;
            self.state.staged = moves;
        }
    }

    /// Plans one epoch's move batch: if the most loaded shard exceeds
    /// the utilization trigger, select the hub nodes assigned to it
    /// with the best saved-pull-per-migrated-byte ratio, within the
    /// byte budget and move cap, each directed at the least
    /// projected-load shard. Deterministic: reads only router-owned
    /// state, iterates nodes in the graph's stable live order, and
    /// breaks ties toward the lower node id.
    fn plan(&self, tan: &TanGraph, placer: &OptChainPlacer) -> Vec<Move> {
        let engine = placer.engine();
        let loads = engine.shard_sizes();
        let k = loads.len();
        let total: u64 = loads.iter().sum();
        if k < 2 || total == 0 {
            return Vec::new();
        }
        let mean = total as f64 / k as f64;
        let (from, &max_load) = loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .expect("k >= 2");
        if max_load as f64 <= self.policy.utilization_trigger * mean {
            return Vec::new();
        }
        let from = ShardId(from as u32);

        // Candidates: live hubs currently assigned to the hot shard,
        // scored by pull saved per byte shipped. `p'(u)[from]` is the α
        // mass attracting `u`'s future spenders to the hot shard; the
        // observed spender count scales it by how actively the hub is
        // being spent from.
        let store = placer.assignments_store();
        let mut candidates: Vec<(f64, u64, NodeId)> = Vec::new();
        for node in tan.live_nodes() {
            let in_degree = tan.in_degree(node) as u32;
            if in_degree < self.policy.min_in_degree {
                continue;
            }
            if store.get(node) != Some(from) {
                continue;
            }
            let Some(row) = engine.row(node.index()) else {
                continue;
            };
            let bytes = tan.node_state_bytes(node) as u64;
            if bytes == 0 || bytes > self.policy.byte_budget_per_epoch {
                continue;
            }
            let pull = f64::from(row[from.index()]) * (1.0 + in_degree as f64);
            if pull <= 0.0 {
                continue;
            }
            candidates.push((pull / bytes as f64, bytes, node));
        }
        // Best ratio first; exact ties (same ratio) go to the lower
        // node id so the plan is a pure function of router state.
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));

        // Greedy selection under the budget, each move directed at the
        // currently least projected-load shard. The projection shifts
        // `1 + in_degree` units per move — the hub plus the spender
        // mass expected to follow it — so a large batch spreads across
        // several cold shards instead of dogpiling one.
        let mut projected: Vec<u64> = loads.to_vec();
        let mut moves = Vec::new();
        let mut budget = self.policy.byte_budget_per_epoch;
        for (_, bytes, node) in candidates {
            if moves.len() >= self.policy.max_moves_per_epoch {
                break;
            }
            if bytes > budget {
                continue;
            }
            let (to, _) = projected
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                .expect("k >= 2");
            let to = ShardId(to as u32);
            if to == from {
                break; // the hot shard is the emptiest: nothing to drain
            }
            let weight = 1 + tan.in_degree(node) as u64;
            projected[from.index()] = projected[from.index()].saturating_sub(weight);
            projected[to.index()] += weight;
            budget -= bytes;
            moves.push(Move {
                node,
                txid: tan.txid(node),
                from,
                to,
                bytes,
            });
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2s::ShardTelemetry;
    use crate::placer::PlacementContext;

    fn hub_heavy_placer(k: u32, txs: u64, spenders_per_hub: u64) -> (TanGraph, OptChainPlacer) {
        let telemetry = vec![ShardTelemetry::new(0.1, 1.0); k as usize];
        let mut tan = TanGraph::new();
        let mut placer = OptChainPlacer::new(k);
        let mut buf = crate::placer::DecisionBuf::new();
        let mut next = 0u64;
        while next < txs {
            let hub = TxId(next);
            let node = tan.insert(hub, &[]);
            let ctx = PlacementContext::new(&tan, &telemetry);
            placer.place_into(&ctx, node, &mut buf);
            next += 1;
            for _ in 0..spenders_per_hub {
                if next >= txs {
                    break;
                }
                let node = tan.insert(TxId(next), &[hub]);
                let ctx = PlacementContext::new(&tan, &telemetry);
                placer.place_into(&ctx, node, &mut buf);
                next += 1;
            }
        }
        (tan, placer)
    }

    #[test]
    fn disabled_trigger_stages_nothing() {
        let (tan, mut placer) = hub_heavy_placer(4, 200, 9);
        let mut rb = Rebalancer::new(
            RebalancePolicy::default()
                .with_epoch_interval(1)
                .with_utilization_trigger(f64::INFINITY),
        );
        let mut applied = Vec::new();
        let before = placer.engine().shard_sizes().to_vec();
        for placed in 1..=10 {
            rb.on_placement(placed, &tan, &mut placer, &mut applied);
        }
        assert!(applied.is_empty());
        assert_eq!(rb.state.stats, RebalanceStats::default());
        assert_eq!(placer.engine().shard_sizes(), &before[..]);
    }

    #[test]
    fn two_phase_epochs_stage_then_commit() {
        // One family per hub keeps everything on one shard → max/mean
        // is k, far over any sane trigger.
        let (tan, mut placer) = hub_heavy_placer(4, 400, 399);
        let mut rb = Rebalancer::new(
            RebalancePolicy::default()
                .with_epoch_interval(2)
                .with_min_in_degree(8),
        );
        let mut applied = Vec::new();
        // First boundary: stage only (nothing to commit yet).
        rb.on_placement(1, &tan, &mut placer, &mut applied);
        rb.on_placement(2, &tan, &mut placer, &mut applied);
        assert_eq!(rb.state.stats.epochs_opened, 1);
        assert_eq!(rb.state.stats.epochs_committed, 0);
        assert!(applied.is_empty(), "staged moves must not commit early");
        // Second boundary: the staged batch commits.
        rb.on_placement(3, &tan, &mut placer, &mut applied);
        rb.on_placement(4, &tan, &mut placer, &mut applied);
        assert_eq!(rb.state.stats.epochs_committed, 1);
        assert_eq!(applied.len() as u64, rb.state.stats.nodes_moved);
        assert!(!applied.is_empty(), "hot hub must move");
        for mv in &applied {
            assert_ne!(mv.from, mv.to);
            assert_eq!(placer.assignments_store().get(mv.node), Some(mv.to));
            assert_eq!(tan.txid(mv.node), mv.txid);
        }
        assert_eq!(
            rb.state.stats.bytes_migrated,
            applied.iter().map(|m| m.bytes).sum::<u64>()
        );
    }

    #[test]
    fn planning_is_deterministic() {
        let (tan, placer) = hub_heavy_placer(4, 400, 399);
        let rb = Rebalancer::new(RebalancePolicy::default().with_min_in_degree(8));
        assert_eq!(rb.plan(&tan, &placer), rb.plan(&tan, &placer));
    }

    /// A root with `hubs` spenders, each of which is itself spent by
    /// `spenders_per_hub` children — T2S chains the whole tree onto one
    /// shard, yielding several hub candidates there.
    fn family_tree(k: u32, hubs: u64, spenders_per_hub: u64) -> (TanGraph, OptChainPlacer) {
        let telemetry = vec![ShardTelemetry::new(0.1, 1.0); k as usize];
        let mut tan = TanGraph::new();
        let mut placer = OptChainPlacer::new(k);
        let mut buf = crate::placer::DecisionBuf::new();
        let mut place = |tan: &TanGraph, placer: &mut OptChainPlacer, node| {
            let ctx = PlacementContext::new(tan, &telemetry);
            placer.place_into(&ctx, node, &mut buf);
        };
        let root = TxId(0);
        let node = tan.insert(root, &[]);
        place(&tan, &mut placer, node);
        let mut next = 1u64;
        for _ in 0..hubs {
            let hub = TxId(next);
            let node = tan.insert(hub, &[root]);
            place(&tan, &mut placer, node);
            next += 1;
            for _ in 0..spenders_per_hub {
                let node = tan.insert(TxId(next), &[hub]);
                place(&tan, &mut placer, node);
                next += 1;
            }
        }
        (tan, placer)
    }

    #[test]
    fn byte_budget_caps_the_batch() {
        let (tan, placer) = family_tree(4, 8, 6);
        let loose = Rebalancer::new(RebalancePolicy::default().with_min_in_degree(4));
        let tight = Rebalancer::new(
            RebalancePolicy::default()
                .with_min_in_degree(4)
                .with_byte_budget(160),
        );
        let loose_bytes: u64 = loose.plan(&tan, &placer).iter().map(|m| m.bytes).sum();
        let tight_bytes: u64 = tight.plan(&tan, &placer).iter().map(|m| m.bytes).sum();
        assert!(tight_bytes <= 160, "budget exceeded: {tight_bytes}");
        assert!(loose_bytes > tight_bytes);
    }

    #[test]
    #[should_panic(expected = "epoch_interval must be positive")]
    fn zero_interval_rejected() {
        let policy = RebalancePolicy::default().with_epoch_interval(0);
        crate::Router::builder()
            .shards(4)
            .rebalancer(policy)
            .build();
    }
}
