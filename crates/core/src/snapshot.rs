//! The snapshot body: what a checkpoint of a [`Router`](crate::Router)
//! holds, its one wire format, and the one check a restore runs.
//!
//! A snapshot *is* the placement state — TaN graph, assignment store,
//! T2S engine or Greedy counters, telemetry board — carried verbatim
//! under every [`RetentionPolicy`]; nothing is re-derived at restore
//! time. [`SnapshotParts`] is the borrowed view both producers encode
//! through ([`crate::Router::snapshot`] clones it into a
//! [`RouterSnapshot`], the durable checkpoint writer serializes it
//! straight from the live structures), [`RouterSnapshot::decode_from`]
//! is the only reader, and [`RouterSnapshot::check`] states every rule
//! a snapshot must satisfy against the router restoring it.

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_tan::{RetentionPolicy, TanGraph};

use crate::assignment::{AssignmentStore, AssignmentView};
use crate::durable;
use crate::l2s::ShardTelemetry;
use crate::placer::Placer;
use crate::strategy::DynPlacer;
use crate::t2s::T2sEngine;

/// Borrowed view over everything a snapshot carries.
pub(crate) struct SnapshotParts<'a> {
    pub(crate) tan: &'a TanGraph,
    pub(crate) assignments: &'a AssignmentStore,
    /// The T2S engine (OptChain and T2S strategies).
    pub(crate) engine: Option<&'a T2sEngine>,
    /// The capacity-cap counters Greedy keeps outside its store.
    pub(crate) greedy_sizes: Option<&'a [u64]>,
    pub(crate) adopted_total: u64,
    pub(crate) telemetry: &'a [ShardTelemetry],
    pub(crate) version: u64,
}

impl SnapshotParts<'_> {
    /// Serializes the snapshot body (`docs/DURABILITY.md` §5.4).
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(durable::CHECKPOINT_VERSION);
        self.tan.encode_into(w);
        self.assignments.encode_into(w);
        match self.engine {
            None => w.put_u8(0),
            Some(engine) => {
                w.put_u8(1);
                engine.encode_into(w);
            }
        }
        match self.greedy_sizes {
            None => w.put_u8(0),
            Some(sizes) => {
                w.put_u8(1);
                w.put_u64(sizes.len() as u64);
                for &n in sizes {
                    w.put_u64(n);
                }
            }
        }
        w.put_u64(self.adopted_total);
        durable::put_telemetry(w, self.telemetry);
        w.put_u64(self.version);
    }

    /// Clones the viewed state into an owned snapshot.
    pub(crate) fn to_snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            tan: self.tan.clone(),
            assignments: self.assignments.clone(),
            engine: self.engine.cloned(),
            greedy_sizes: self.greedy_sizes.map(<[u64]>::to_vec),
            adopted_total: self.adopted_total,
            telemetry: self.telemetry.to_vec(),
            version: self.version,
        }
    }
}

/// A checkpoint of a router's placement state, produced by
/// [`crate::Router::snapshot`] and restored with
/// [`crate::Router::warm_start`] into a fresh router of the same
/// configuration: the (possibly evicted) TaN graph with its horizon and
/// stable-id remap, the assignment store, the strategy's own state (T2S
/// engine or Greedy counters), the lifetime adoption count, and the
/// telemetry board with its version — all verbatim, so the restored
/// router is bit-exact under every [`RetentionPolicy`], after
/// adoptions and after rebalance epochs alike.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    pub(crate) tan: TanGraph,
    pub(crate) assignments: AssignmentStore,
    pub(crate) engine: Option<T2sEngine>,
    pub(crate) greedy_sizes: Option<Vec<u64>>,
    pub(crate) adopted_total: u64,
    pub(crate) telemetry: Vec<ShardTelemetry>,
    pub(crate) version: u64,
}

impl RouterSnapshot {
    /// The retention policy the checkpointed router ran under.
    pub fn retention(&self) -> RetentionPolicy {
        self.tan.retention()
    }

    /// The checkpointed TaN graph.
    pub fn tan(&self) -> &TanGraph {
        &self.tan
    }

    /// A view over the checkpointed per-node shard assignment (evicted
    /// entries of a windowed snapshot read as `None`).
    pub fn assignments(&self) -> AssignmentView<'_> {
        self.assignments.view()
    }

    /// The borrowed view of an owned snapshot (tests re-encode tampered
    /// snapshots through it).
    #[cfg(test)]
    pub(crate) fn parts(&self) -> SnapshotParts<'_> {
        SnapshotParts {
            tan: &self.tan,
            assignments: &self.assignments,
            engine: self.engine.as_ref(),
            greedy_sizes: self.greedy_sizes.as_deref(),
            adopted_total: self.adopted_total,
            telemetry: &self.telemetry,
            version: self.version,
        }
    }

    /// Decodes a body written by [`SnapshotParts::encode_into`]. Each
    /// part validates its own structure; [`RouterSnapshot::check`]
    /// validates the parts against each other and the router.
    pub(crate) fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        if r.get_u8()? != durable::CHECKPOINT_VERSION {
            return Err(CodecError("unknown checkpoint body version"));
        }
        let tan = TanGraph::decode_from(r)?;
        let assignments = AssignmentStore::decode_from(r)?;
        let engine = match r.get_u8()? {
            0 => None,
            1 => Some(T2sEngine::decode_from(r)?),
            _ => return Err(CodecError("bad engine tag")),
        };
        let greedy_sizes = match r.get_u8()? {
            0 => None,
            1 => {
                let count = r.get_count(8)?;
                let mut sizes = Vec::with_capacity(count);
                for _ in 0..count {
                    sizes.push(r.get_u64()?);
                }
                Some(sizes)
            }
            _ => return Err(CodecError("bad greedy sizes tag")),
        };
        Ok(RouterSnapshot {
            tan,
            assignments,
            engine,
            greedy_sizes,
            adopted_total: r.get_u64()?,
            telemetry: durable::get_telemetry(r)?,
            version: r.get_u64()?,
        })
    }

    /// Every rule the parts of a snapshot obey against each other and
    /// the fresh router (its `retention` and `placer`, both built from
    /// the spec) restoring it, stated once — which *kind* of strategy
    /// state a placer takes is stated by `Router::restore`'s install
    /// match: [`crate::Router::warm_start`] panics with the
    /// message (a caller's configuration bug), [`crate::Router::recover`]
    /// maps it to `InvalidData` (a checkpoint that disagrees with its
    /// meta blob must never panic).
    pub(crate) fn check(
        &self,
        retention: RetentionPolicy,
        placer: &DynPlacer,
    ) -> Result<(), &'static str> {
        let k = placer.k() as usize;
        if self.tan.retention() != retention {
            return Err("snapshot retention policy disagrees with the router's");
        }
        let (store, engine, _) = placer.state();
        if let (Some(ours), Some(theirs)) = (engine, &self.engine) {
            if !theirs.same_config(ours) {
                return Err("snapshot T2S engine shard count, alpha or window \
                     disagrees with the router's");
            }
        }
        if !self.assignments.same_shape(store) {
            return Err("snapshot assignment store window disagrees with the router's");
        }
        let len = self.tan.len();
        let registered = self.engine.as_ref().map_or(len, T2sEngine::registered);
        if self.assignments.len() != len || registered != len {
            return Err("snapshot graph, assignment store and T2S engine disagree \
                 on the stream length");
        }
        let mut live = self.assignments.view().iter_live();
        if live.any(|(_, shard)| shard.index() >= k) {
            return Err("snapshot assignment out of range");
        }
        if let DynPlacer::Oracle(p) = placer {
            if !p.agrees_with(&self.assignments) {
                return Err("snapshot assignments disagree with the oracle");
            }
        }
        let sizes = self.greedy_sizes.as_ref().map_or(k, Vec::len);
        if self.telemetry.len() != k || sizes != k {
            return Err("snapshot telemetry and capacity counters must cover every shard");
        }
        Ok(())
    }
}
