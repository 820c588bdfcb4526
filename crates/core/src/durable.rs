//! The durable-router wire vocabulary: WAL record codecs and the meta
//! blob describing a journaled router's configuration.
//!
//! A durable [`crate::Router`] journals every state mutation —
//! placements (one record per `submit_batch` call, one entry each),
//! adoptions and telemetry changes — to an
//! [`optchain_storage::Storage`] backend, and periodically installs a
//! snapshot (an encoded [`crate::RouterSnapshot`]) covering a prefix
//! of the journal. Recovery reads the meta blob to rebuild the exact
//! builder configuration, restores the snapshot verbatim, and replays
//! the journal tail above it; because placement is deterministic,
//! replaying the surviving records reproduces the crashed router
//! bit-identically. Every journaled byte is written once: the tail
//! is the only delta there is.
//!
//! Every encoding here is deterministic (fixed-width little-endian via
//! [`ByteWriter`]) and self-validating on decode — corrupt bytes that
//! survive the storage layer's CRC fail structurally instead of
//! producing a silently wrong router.

use optchain_storage::{ByteReader, ByteWriter, CodecError};
use optchain_utxo::TxId;

use crate::l2s::{L2sMode, ShardTelemetry};
use crate::router::RouterSpec;
use crate::strategy::Strategy;
use optchain_tan::RetentionPolicy;

/// Meta blob format version (the first byte of the blob). Every
/// persisted artifact has exactly one accepted version: any other
/// leading byte fails recovery with a typed `InvalidData`.
pub(crate) const META_VERSION: u8 = 3;

/// Checkpoint format version: the first byte of `checkpoint.bin`, which
/// is the snapshot body itself (`crate::snapshot`).
pub(crate) const CHECKPOINT_VERSION: u8 = 3;

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

pub(crate) fn put_telemetry_opt(w: &mut ByteWriter, telemetry: &Option<Vec<ShardTelemetry>>) {
    match telemetry {
        None => w.put_u8(0),
        Some(t) => {
            w.put_u8(1);
            put_telemetry(w, t);
        }
    }
}

pub(crate) fn get_telemetry_opt(
    r: &mut ByteReader<'_>,
) -> Result<Option<Vec<ShardTelemetry>>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_telemetry(r)?)),
        _ => Err(CodecError("bad telemetry option tag")),
    }
}

fn strategy_tag(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::OptChain => 0,
        Strategy::T2s => 1,
        Strategy::OmniLedger => 2,
        Strategy::Greedy => 3,
        Strategy::Metis => 4,
    }
}

fn strategy_from_tag(tag: u8) -> Result<Strategy, CodecError> {
    Ok(match tag {
        0 => Strategy::OptChain,
        1 => Strategy::T2s,
        2 => Strategy::OmniLedger,
        3 => Strategy::Greedy,
        4 => Strategy::Metis,
        _ => return Err(CodecError("unknown strategy tag")),
    })
}

/// Encodes the self-describing meta blob: the full [`RouterSpec`]
/// (including the durability knobs), written once before the first
/// append so [`crate::Router::recover`] needs no builder.
pub(crate) fn encode_spec(spec: &RouterSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(META_VERSION);
    w.put_u32(spec.k());
    w.put_u8(strategy_tag(spec.strategy));
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
    put_telemetry_opt(&mut w, &spec.telemetry);
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
    let shards = r.get_u32()?;
    let strategy = strategy_from_tag(r.get_u8()?)?;
    let alpha = r.get_f64()?;
    let retention = RetentionPolicy::decode_from(&mut r)?;
    let l2s_mode = match r.get_u8()? {
        0 => L2sMode::PaperSelfConvolution,
        1 => L2sMode::VerifyPlusCommit,
        _ => return Err(CodecError("unknown L2S mode tag")),
    };
    let l2s_weight = r.get_f64()?;
    let epsilon = r.get_f64()?;
    let expected_total = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_u64()?),
        _ => return Err(CodecError("bad expected_total option tag")),
    };
    let oracle = match r.get_u8()? {
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
    };
    let telemetry = get_telemetry_opt(&mut r)?;
    let checkpoint_every = r.get_u64()?;
    let flush_every = r.get_u64()?;
    let full_every = r.get_u64()?;
    r.finish()?;
    let mut spec = RouterSpec::new();
    spec.shards = Some(shards);
    spec.strategy = strategy;
    spec.alpha = alpha;
    spec.retention = retention;
    spec.l2s_mode = l2s_mode;
    spec.l2s_weight = l2s_weight;
    spec.epsilon = epsilon;
    spec.expected_total = expected_total;
    spec.oracle = oracle;
    spec.telemetry = telemetry;
    spec.checkpoint_every = checkpoint_every;
    spec.flush_every = flush_every;
    spec.full_every = full_every;
    // The encoder writes whatever the builder held and `RouterSpec::build`
    // panics on a spec that fails its check: bytes from disk must fail
    // typed instead.
    spec.check().map_err(CodecError)?;
    Ok(spec)
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
        let bytes = encode_spec(&spec);
        assert_eq!(decode_spec(&bytes).unwrap(), spec);
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

    #[test]
    fn spec_meta_rejects_foreign_versions() {
        use optchain_storage::{MemStorage, Storage};
        let mut spec = RouterSpec::new();
        spec.shards = Some(2);
        let mut bytes = encode_spec(&spec);
        bytes[0] = 0xEE;
        assert!(decode_spec(&bytes).is_err());
        // The previous version, byte for byte: it carried the score-only
        // window option (here `None`) between α and the retention policy.
        let mut v2 = encode_spec(&spec);
        v2[0] = 2;
        v2.insert(1 + 4 + 1 + 8, 0);
        assert!(decode_spec(&v2).is_err());
        let mut storage = MemStorage::new();
        storage.put_meta(&v2).unwrap();
        let err = crate::Router::recover(Box::new(storage)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
