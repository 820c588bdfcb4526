//! The durable-router wire vocabulary: the three persisted artifacts,
//! each with its one format and its one accepted version — the meta
//! blob describing a journaled router's configuration, the WAL records,
//! and the snapshot body a checkpoint holds.
//!
//! A durable [`crate::Router`] journals every state mutation —
//! placements (one record per `submit_batch` call, one entry each),
//! adoptions and telemetry changes — to an
//! [`optchain_storage::Storage`] backend, and periodically installs a
//! snapshot covering a prefix of the journal. A snapshot *is* every
//! decision input the journal does not carry ([`RouterSnapshot`]),
//! carried verbatim under every [`RetentionPolicy`]: nothing is
//! re-derived at restore time. [`crate::Router::recover`] is the one
//! way state comes back: it reads the meta blob to rebuild the exact
//! builder configuration, checks the snapshot against it
//! ([`RouterSnapshot::check`]), installs it, and replays the journal
//! tail above it. Because placement is deterministic — the
//! rebalancer's epochs included — replaying the surviving records
//! reproduces the crashed router bit-identically. Every journaled byte
//! is written once: the tail is the only delta there is.
//!
//! Every encoding here is deterministic (fixed-width little-endian via
//! [`ByteWriter`]) and self-validating on decode — corrupt bytes that
//! survive the storage layer's CRC fail structurally instead of
//! producing a silently wrong router.

use std::borrow::Cow;

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_tan::{NodeId, RetentionPolicy, TanGraph};
use optchain_utxo::TxId;

use crate::assignment::AssignmentStore;
use crate::l2s::{L2sMode, ShardTelemetry};
use crate::placer::{Placer, ShardId};
use crate::rebalance::{Move, RebalancePolicy, RebalanceState, RebalanceStats};
use crate::router::RouterSpec;
use crate::strategy::{DynPlacer, Strategy};
use crate::t2s::T2sEngine;

/// Meta blob format version (the first byte of the blob). Every
/// persisted artifact has exactly one accepted version: any other
/// leading byte fails recovery with a typed `InvalidData`.
pub(crate) const META_VERSION: u8 = 4;

/// Checkpoint format version: the first byte of `checkpoint.bin`, which
/// is the snapshot body itself ([`RouterSnapshot`]).
pub(crate) const CHECKPOINT_VERSION: u8 = 4;

/// Default journaled entries before a journal's first snapshot (flush
/// + snapshot + segment GC).
pub(crate) const DEFAULT_CHECKPOINT_EVERY: u64 = 32_768;

/// Default snapshot-interval multiplier: once a journal has a snapshot
/// the next one is due `checkpoint_every × full_every` entries later,
/// which bounds both the tail recovery replays and the disk it holds.
pub(crate) const DEFAULT_FULL_EVERY: u64 = 8;

/// Default entries between fsync batches (the ack granularity).
pub(crate) const DEFAULT_FLUSH_EVERY: u64 = 512;

// Tag 1 was the per-transaction Submit record, tag 4 the fleet's
// cross-sync boundary. Both are retired and never reused: a journal
// holding one fails recovery as an unknown tag.

/// A placement decided elsewhere ([`crate::Router::adopt_remote`]).
pub(crate) const TAG_ADOPT: u8 = 2;
/// A telemetry board change (recorded only when the version bumps).
pub(crate) const TAG_TELEMETRY: u8 = 3;

/// The local placements of one `submit_batch` call (or one single-door
/// submission): `count: u32`, then `count` placement bodies. A record
/// never spans a flush or snapshot boundary.
pub(crate) const TAG_SUBMIT_BATCH: u8 = 5;

/// Offset of a SubmitBatch record's `count`, which its writer sets when
/// it closes the record.
pub(crate) const BATCH_COUNT_AT: usize = 1;

/// Smallest placement body: txid, shard and an empty input list.
const MIN_PLACEMENT_BYTES: usize = 8 + 4 + 8;

/// A journaled placement: `(txid, distinct input ids in link order,
/// shard)`.
pub(crate) type Placement = (TxId, Vec<TxId>, u32);

/// One decoded WAL record (see the tag constants for the vocabulary).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// Local placements, in decision order: each is replayed by
    /// re-running the deterministic decision and cross-checking the
    /// shard the crashed router chose.
    SubmitBatch(Vec<Placement>),
    /// A placement decided elsewhere: replayed through
    /// [`crate::Router::adopt_remote`] with the recorded shard.
    Adopt(Placement),
    /// A telemetry board change.
    Telemetry(Vec<ShardTelemetry>),
}

/// Opens a SubmitBatch record with a zero `count` (see
/// [`BATCH_COUNT_AT`]); [`put_placement`] adds its entries.
pub(crate) fn begin_submit_batch(w: &mut ByteWriter) {
    w.put_u8(TAG_SUBMIT_BATCH);
    w.put_u32(0);
}

/// Encodes one placement body: a SubmitBatch entry, or what follows an
/// Adopt record's tag.
pub(crate) fn put_placement(w: &mut ByteWriter, txid: TxId, inputs: &[TxId], shard: u32) {
    w.put_u64(txid.0);
    w.put_u32(shard);
    w.put_u64(inputs.len() as u64);
    for input in inputs {
        w.put_u64(input.0);
    }
}

fn get_placement(r: &mut ByteReader<'_>) -> Result<Placement, CodecError> {
    let txid = TxId(r.get_u64()?);
    let shard = r.get_u32()?;
    let count = r.get_count(8)?;
    let mut inputs = Vec::with_capacity(count);
    for _ in 0..count {
        inputs.push(TxId(r.get_u64()?));
    }
    Ok((txid, inputs, shard))
}

/// Encodes an Adopt record.
pub(crate) fn encode_adopt(w: &mut ByteWriter, txid: TxId, inputs: &[TxId], shard: u32) {
    w.put_u8(TAG_ADOPT);
    put_placement(w, txid, inputs, shard);
}

/// Encodes a Telemetry record.
pub(crate) fn encode_telemetry_record(w: &mut ByteWriter, telemetry: &[ShardTelemetry]) {
    w.put_u8(TAG_TELEMETRY);
    put_telemetry(w, telemetry);
}

/// Decodes one WAL record payload.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut r = ByteReader::new(payload);
    let record = match r.get_u8()? {
        TAG_SUBMIT_BATCH => {
            let count = r.get_u32()? as usize;
            // Bounded by the bytes present before anything is sized by
            // it; the writer never closes an empty record.
            if count == 0 || count.saturating_mul(MIN_PLACEMENT_BYTES) > r.remaining() {
                return Err(CodecError("batch count disagrees with the record length"));
            }
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(get_placement(&mut r)?);
            }
            WalRecord::SubmitBatch(entries)
        }
        TAG_ADOPT => WalRecord::Adopt(get_placement(&mut r)?),
        TAG_TELEMETRY => WalRecord::Telemetry(get_telemetry(&mut r)?),
        _ => return Err(CodecError("unknown WAL record tag")),
    };
    r.finish()?;
    Ok(record)
}

pub(crate) fn put_telemetry(w: &mut ByteWriter, telemetry: &[ShardTelemetry]) {
    w.put_u64(telemetry.len() as u64);
    for t in telemetry {
        w.put_f64(t.expected_comm);
        w.put_f64(t.expected_verify);
    }
}

pub(crate) fn get_telemetry(r: &mut ByteReader<'_>) -> Result<Vec<ShardTelemetry>, CodecError> {
    let count = r.get_count(16)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let expected_comm = r.get_f64()?;
        let expected_verify = r.get_f64()?;
        out.push(ShardTelemetry {
            expected_comm,
            expected_verify,
        });
    }
    Ok(out)
}

/// The meta blob's strategy tags: a strategy's tag is its index here.
const STRATEGY_TAGS: [Strategy; 5] = [
    Strategy::OptChain,
    Strategy::T2s,
    Strategy::OmniLedger,
    Strategy::Greedy,
    Strategy::Metis,
];

/// Encodes the self-describing meta blob: the full [`RouterSpec`]
/// (including the durability knobs), written once before the first
/// append so [`crate::Router::recover`] needs no builder.
pub(crate) fn encode_spec(spec: &RouterSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(META_VERSION);
    w.put_u32(spec.k());
    let tag = STRATEGY_TAGS.iter().position(|&s| s == spec.strategy);
    w.put_u8(tag.expect("every strategy has a tag") as u8);
    w.put_f64(spec.alpha);
    spec.retention.encode_into(&mut w);
    w.put_u8(match spec.l2s_mode {
        L2sMode::PaperSelfConvolution => 0,
        L2sMode::VerifyPlusCommit => 1,
    });
    w.put_f64(spec.l2s_weight);
    w.put_f64(spec.epsilon);
    match spec.expected_total {
        None => w.put_u8(0),
        Some(total) => {
            w.put_u8(1);
            w.put_u64(total);
        }
    }
    match &spec.oracle {
        None => w.put_u8(0),
        Some(oracle) => {
            w.put_u8(1);
            w.put_u64(oracle.len() as u64);
            for &s in oracle {
                w.put_u32(s);
            }
        }
    }
    match &spec.telemetry {
        None => w.put_u8(0),
        Some(telemetry) => {
            w.put_u8(1);
            put_telemetry(&mut w, telemetry);
        }
    }
    match &spec.rebalance {
        None => w.put_u8(0),
        Some(policy) => {
            w.put_u8(1);
            w.put_u64(policy.epoch_interval);
            w.put_u64(policy.max_moves_per_epoch as u64);
            w.put_u64(policy.byte_budget_per_epoch);
            w.put_f64(policy.utilization_trigger);
            w.put_u32(policy.min_in_degree);
        }
    }
    w.put_u64(spec.checkpoint_every);
    w.put_u64(spec.flush_every);
    w.put_u64(spec.full_every);
    w.into_vec()
}

/// Decodes a meta blob back into the spec that wrote it.
pub(crate) fn decode_spec(bytes: &[u8]) -> Result<RouterSpec, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.get_u8()? != META_VERSION {
        return Err(CodecError("unknown meta blob version"));
    }
    // Struct fields initialize in the order written: the wire order.
    let spec = RouterSpec {
        shards: Some(r.get_u32()?),
        strategy: *STRATEGY_TAGS
            .get(usize::from(r.get_u8()?))
            .ok_or(CodecError("unknown strategy tag"))?,
        alpha: r.get_f64()?,
        retention: RetentionPolicy::decode_from(&mut r)?,
        l2s_mode: match r.get_u8()? {
            0 => L2sMode::PaperSelfConvolution,
            1 => L2sMode::VerifyPlusCommit,
            _ => return Err(CodecError("unknown L2S mode tag")),
        },
        l2s_weight: r.get_f64()?,
        epsilon: r.get_f64()?,
        expected_total: match r.get_u8()? {
            0 => None,
            1 => Some(r.get_u64()?),
            _ => return Err(CodecError("bad expected_total option tag")),
        },
        oracle: match r.get_u8()? {
            0 => None,
            1 => {
                let count = r.get_count(4)?;
                let mut oracle = Vec::with_capacity(count);
                for _ in 0..count {
                    oracle.push(r.get_u32()?);
                }
                Some(oracle)
            }
            _ => return Err(CodecError("bad oracle option tag")),
        },
        telemetry: match r.get_u8()? {
            0 => None,
            1 => Some(get_telemetry(&mut r)?),
            _ => return Err(CodecError("bad telemetry option tag")),
        },
        rebalance: match r.get_u8()? {
            0 => None,
            1 => Some(RebalancePolicy {
                epoch_interval: r.get_u64()?,
                max_moves_per_epoch: r.get_u64()? as usize,
                byte_budget_per_epoch: r.get_u64()?,
                utilization_trigger: r.get_f64()?,
                min_in_degree: r.get_u32()?,
            }),
            _ => return Err(CodecError("bad rebalancer option tag")),
        },
        checkpoint_every: r.get_u64()?,
        flush_every: r.get_u64()?,
        full_every: r.get_u64()?,
    };
    r.finish()?;
    // The encoder writes whatever the builder held and `RouterSpec::build`
    // panics on a spec that fails its check: bytes from disk must fail
    // typed instead.
    spec.check().map_err(CodecError)?;
    Ok(spec)
}

/// A router's placement state as one snapshot body: the (possibly
/// evicted) TaN graph with its horizon and stable-id remap, the
/// assignment store, the strategy's own state (T2S engine or Greedy
/// counters), the lifetime adoption count, the telemetry board with
/// its version, the rebalancer's state and the cross-placement count —
/// all verbatim, so the recovered router is bit-exact under every
/// [`RetentionPolicy`], after adoptions and across rebalance epochs
/// alike. The checkpoint writer borrows it from the live router;
/// [`RouterSnapshot::decode_from`] owns what it reads back, which
/// [`crate::Router::recover`] installs into a fresh router built from
/// the journal's meta blob.
pub(crate) struct RouterSnapshot<'a> {
    pub(crate) tan: Cow<'a, TanGraph>,
    pub(crate) assignments: Cow<'a, AssignmentStore>,
    /// The T2S engine (OptChain and T2S strategies).
    pub(crate) engine: Option<Cow<'a, T2sEngine>>,
    /// The capacity-cap counters Greedy keeps outside its store.
    pub(crate) greedy_sizes: Option<Cow<'a, [u64]>>,
    pub(crate) adopted_total: u64,
    pub(crate) telemetry: Cow<'a, [ShardTelemetry]>,
    pub(crate) version: u64,
    /// The rebalancer's staged batch and counters, iff it has one.
    pub(crate) rebalance: Option<Cow<'a, RebalanceState>>,
    pub(crate) cross_placed: u64,
}

impl RouterSnapshot<'_> {
    /// Serializes the snapshot body (`docs/DURABILITY.md` §5.4).
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u8(CHECKPOINT_VERSION);
        self.tan.encode_into(w);
        self.assignments.encode_into(w);
        match &self.engine {
            None => w.put_u8(0),
            Some(engine) => {
                w.put_u8(1);
                engine.encode_into(w);
            }
        }
        match &self.greedy_sizes {
            None => w.put_u8(0),
            Some(sizes) => {
                w.put_u8(1);
                w.put_u64(sizes.len() as u64);
                for &n in sizes.iter() {
                    w.put_u64(n);
                }
            }
        }
        w.put_u64(self.adopted_total);
        put_telemetry(w, &self.telemetry);
        w.put_u64(self.version);
        match &self.rebalance {
            None => w.put_u8(0),
            Some(state) => {
                w.put_u8(1);
                w.put_u64(state.staged.len() as u64);
                for mv in &state.staged {
                    w.put_u32(mv.node.0);
                    w.put_u64(mv.txid.0);
                    w.put_u32(mv.from.0);
                    w.put_u32(mv.to.0);
                    w.put_u64(mv.bytes);
                }
                let s = &state.stats;
                w.put_u64(s.epochs_opened);
                w.put_u64(s.epochs_committed);
                w.put_u64(s.nodes_moved);
                w.put_u64(s.bytes_migrated);
                w.put_u64(s.moves_dropped);
            }
        }
        w.put_u64(self.cross_placed);
    }

    /// Decodes a body written by [`RouterSnapshot::encode_into`]. Each
    /// part validates its own structure; [`RouterSnapshot::check`]
    /// validates the parts against each other and the router.
    pub(crate) fn decode_from(
        r: &mut ByteReader<'_>,
    ) -> Result<RouterSnapshot<'static>, CodecError> {
        if r.get_u8()? != CHECKPOINT_VERSION {
            return Err(CodecError("unknown checkpoint body version"));
        }
        let tan = Cow::Owned(TanGraph::decode_from(r)?);
        let assignments = Cow::Owned(AssignmentStore::decode_from(r)?);
        let engine = match r.get_u8()? {
            0 => None,
            1 => Some(Cow::Owned(T2sEngine::decode_from(r)?)),
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
                Some(Cow::Owned(sizes))
            }
            _ => return Err(CodecError("bad greedy sizes tag")),
        };
        Ok(RouterSnapshot {
            tan,
            assignments,
            engine,
            greedy_sizes,
            adopted_total: r.get_u64()?,
            telemetry: Cow::Owned(get_telemetry(r)?),
            version: r.get_u64()?,
            rebalance: match r.get_u8()? {
                0 => None,
                1 => Some(Cow::Owned(get_rebalance_state(r)?)),
                _ => return Err(CodecError("bad rebalancer tag")),
            },
            cross_placed: r.get_u64()?,
        })
    }

    /// Every rule the parts of a snapshot obey against each other and
    /// the fresh router (its `retention` and `placer`, both built from
    /// the meta blob's spec) restoring it, stated once — which *kind*
    /// of strategy and rebalancer state a router takes is stated by
    /// [`crate::Router::recover`]'s install match. Recovery maps a
    /// broken rule to `InvalidData`: a checkpoint that disagrees with
    /// its meta blob must never panic.
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
        let registered = self.engine.as_ref().map_or(len, |e| e.registered());
        if self.assignments.len() != len || registered != len {
            return Err("snapshot graph, assignment store and T2S engine disagree \
                 on the stream length");
        }
        // Adoptions are part of the stream; the rest is the rebalancer's
        // epoch clock.
        if self.adopted_total > len as u64 {
            return Err("snapshot adoption count exceeds the stream length");
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
        let sizes = self.greedy_sizes.as_ref().map_or(k, |s| s.len());
        if self.telemetry.len() != k || sizes != k {
            return Err("snapshot telemetry and capacity counters must cover every shard");
        }
        // A staged node may have aged out of the window since staging
        // (its commit drops it, as it would have uncrashed); a live one
        // is the transaction it was staged as.
        let staged = self.rebalance.iter().flat_map(|state| &state.staged);
        for mv in staged {
            let node_ok = mv.node.index() < len
                && (!self.tan.is_live(mv.node) || self.tan.txid(mv.node) == mv.txid);
            if !node_ok || mv.from.index() >= k || mv.to.index() >= k || mv.from == mv.to {
                return Err("snapshot staged move disagrees with the graph or the shard count");
            }
        }
        Ok(())
    }
}

/// The rebalancer's staged batch and counters; the moves are checked
/// against the graph by [`RouterSnapshot::check`].
fn get_rebalance_state(r: &mut ByteReader<'_>) -> Result<RebalanceState, CodecError> {
    // A move is node, txid, from, to, bytes: 28 bytes.
    let count = r.get_count(4 + 8 + 4 + 4 + 8)?;
    let mut staged = Vec::with_capacity(count);
    for _ in 0..count {
        staged.push(Move {
            node: NodeId(r.get_u32()?),
            txid: TxId(r.get_u64()?),
            from: ShardId(r.get_u32()?),
            to: ShardId(r.get_u32()?),
            bytes: r.get_u64()?,
        });
    }
    let stats = RebalanceStats {
        epochs_opened: r.get_u64()?,
        epochs_committed: r.get_u64()?,
        nodes_moved: r.get_u64()?,
        bytes_migrated: r.get_u64()?,
        moves_dropped: r.get_u64()?,
    };
    Ok(RebalanceState { staged, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_records_roundtrip() {
        let batch = vec![(TxId(42), vec![TxId(7), TxId(9)], 3), (TxId(43), vec![], 0)];
        let records = [
            WalRecord::SubmitBatch(batch),
            WalRecord::Adopt((TxId(1000), vec![TxId(42)], 1)),
            WalRecord::Telemetry(vec![ShardTelemetry::new(0.1, 0.5); 2]),
        ];
        for record in &records {
            let mut w = ByteWriter::new();
            match record {
                WalRecord::SubmitBatch(entries) => {
                    begin_submit_batch(&mut w);
                    for (txid, inputs, shard) in entries {
                        put_placement(&mut w, *txid, inputs, *shard);
                    }
                    w.set_u32(BATCH_COUNT_AT, entries.len() as u32);
                }
                WalRecord::Adopt((txid, inputs, shard)) => {
                    encode_adopt(&mut w, *txid, inputs, *shard)
                }
                WalRecord::Telemetry(t) => encode_telemetry_record(&mut w, t),
            }
            assert_eq!(&decode_record(w.as_slice()).unwrap(), record);
        }
    }

    #[test]
    fn decode_rejects_unknown_tags_and_trailing_bytes() {
        assert!(decode_record(&[99]).is_err());
        let mut w = ByteWriter::new();
        encode_telemetry_record(&mut w, &[ShardTelemetry::new(0.1, 0.5)]);
        w.put_u8(0);
        assert!(decode_record(w.as_slice()).is_err());
        // The retired fleet sync-mark tag, alone as it was written.
        assert!(decode_record(&[4]).is_err());
        // The retired per-transaction Submit tag, over a body that was
        // valid under it.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        put_placement(&mut w, TxId(1), &[], 0);
        assert!(decode_record(w.as_slice()).is_err());
        // A batch whose count was never set.
        let mut w = ByteWriter::new();
        begin_submit_batch(&mut w);
        assert!(decode_record(w.as_slice()).is_err());
    }

    #[test]
    fn spec_meta_roundtrips_every_knob() {
        let mut spec = RouterSpec::new();
        spec.shards = Some(8);
        spec.strategy = Strategy::Metis;
        spec.alpha = 0.75;
        spec.retention = RetentionPolicy::KeepUnspentAndHubs { min_degree: 5 };
        spec.l2s_mode = L2sMode::PaperSelfConvolution;
        spec.l2s_weight = 0.02;
        spec.epsilon = 0.2;
        spec.expected_total = Some(1_000_000);
        spec.oracle = Some(vec![1, 2, 3]);
        spec.telemetry = Some(vec![ShardTelemetry::new(0.3, 0.9); 8]);
        spec.checkpoint_every = 1024;
        spec.flush_every = 64;
        spec.full_every = 4;
        let mut rebalancing = RouterSpec::new();
        rebalancing.shards = Some(8);
        rebalancing.rebalance = Some(RebalancePolicy::default().with_byte_budget(1 << 40));
        for spec in [spec, rebalancing] {
            assert_eq!(decode_spec(&encode_spec(&spec)).unwrap(), spec);
        }
    }

    #[test]
    fn inconsistent_spec_meta_fails_typed_never_panics() {
        use optchain_storage::{MemStorage, Storage};
        let spec = |edit: fn(&mut RouterSpec)| {
            let mut spec = RouterSpec::new();
            spec.shards = Some(4);
            edit(&mut spec);
            spec
        };
        // Structurally valid blobs (the encoder does not validate) whose
        // fields `RouterSpec::build` would assert on.
        let bad = [
            spec(|s| s.strategy = Strategy::Metis),
            spec(|s| {
                s.strategy = Strategy::Metis;
                s.oracle = Some(vec![0, 4]);
            }),
            spec(|s| s.retention = RetentionPolicy::WindowTxs(0)),
            spec(|s| s.telemetry = Some(vec![ShardTelemetry::new(0.1, 0.5); 3])),
            spec(|s| s.alpha = 0.0),
            spec(|s| s.alpha = f64::NAN),
            spec(|s| s.l2s_weight = -1.0),
            spec(|s| s.epsilon = -0.5),
            spec(|s| s.epsilon = f64::INFINITY),
            spec(|s| s.expected_total = Some(1 << 60)),
            spec(|s| s.retention = RetentionPolicy::WindowTxs(1 << 62)),
            spec(|s| s.shards = Some(0)),
            spec(|s| s.flush_every = 0),
        ];
        for spec in &bad {
            let meta = encode_spec(spec);
            assert!(decode_spec(&meta).is_err(), "{spec:?}");
            let mut storage = MemStorage::new();
            storage.put_meta(&meta).unwrap();
            let err = crate::Router::recover(Box::new(storage)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{spec:?}");
        }
        assert!(decode_spec(&encode_spec(&spec(|_| {}))).is_ok());
        // The largest stream length the check admits sizes no
        // allocation on recovery: `reserve` is a hint the builder
        // applies, never the journal.
        let mut storage = MemStorage::new();
        let meta = encode_spec(&spec(|s| s.expected_total = Some(u64::from(u32::MAX))));
        storage.put_meta(&meta).unwrap();
        let recovered = crate::Router::recover(Box::new(storage)).unwrap();
        assert!(recovered.tan().arena_bytes() < 1 << 20);
        // Nor does the largest window, built or restored: rings grow.
        let storage = optchain_storage::SharedStorage::new(MemStorage::new());
        let mut router = crate::Router::builder()
            .shards(4)
            .retention(RetentionPolicy::WindowTxs(u32::MAX as usize))
            .storage(Box::new(storage.clone()))
            .build();
        router.submit(TxId(1), &[]).unwrap();
        router.checkpoint_now().unwrap();
        let recovered = crate::Router::recover(Box::new(storage)).unwrap();
        assert_eq!(recovered.assignments(), router.assignments());
        assert!(recovered.assignments().state_bytes() < 1 << 10);
    }
}
