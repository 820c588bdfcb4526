//! Golden properties of the durable placement node: WAL + crash
//! recovery under deterministic fault injection.
//!
//! 1. **Crash-point sweep, in-memory backend** (proptest): a durable
//!    router over a `FailpointStorage` is killed at a random mutating
//!    operation — mid-batch, mid-flush, or mid-checkpoint, with a
//!    clean, torn, or CRC-corrupted tail frame — under each
//!    `RetentionPolicy` and a swept full-snapshot cadence
//!    (`full_every`), so the kill can land mid-delta-checkpoint too.
//!    `Router::recover` must rebuild a router **bit-identical** to an
//!    uncrashed reference driven over exactly the surviving record
//!    prefix: same assignments, same telemetry epoch, and the same
//!    full score breakdown on a shared continuation stream.
//! 2. **Crash-point sweep, on-disk `SegmentWal`**: the same property
//!    through real segment files with rotation and GC in play —
//!    recovery reopens the directory exactly as a restarted process
//!    would.
//! 3. **Delta-chain equivalence, four doors, one record** (proptest):
//!    a clean-shutdown journal checkpointed as base + deltas
//!    (`full_every > 1`) recovers bit-identically to one checkpointed
//!    with full snapshots only (`full_every = 1`), under every
//!    retention policy — and driving the delta arm through `submit`,
//!    `submit_tx`, `submit_tx_in` or `submit_batch` yields the same
//!    shards, the same journal bytes and the same recovered router.
//! 4. **Damaged intermediate delta**: tearing or CRC-corrupting a
//!    delta-checkpoint file must surface as a typed
//!    `InvalidData` error — never a silently wrong router — because
//!    the WAL records the delta absorbed are already GC'd.
//! 5. **Fleet restart**: a 1-worker durable `RouterFleet` shut down
//!    mid-window recovers bit-identically to a `Router` over the same
//!    stream (including its unpublished pending delta); a 2-worker
//!    fleet restarts with every per-worker counter intact and keeps
//!    placing.
//!
//! The surviving-prefix property is the heart of it: the journal acks
//! batches only after fsync, torn tails truncate on reopen, so
//! whatever survives is always the first N records in journal order —
//! and deterministic placement turns that prefix back into the exact
//! pre-crash state.

mod common;
use common::seeded_stream;

use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{
    CheckpointStats, FailpointStorage, MemStorage, RetentionPolicy, Router, RouterFleet,
    SegmentWal, ShardId, ShardTelemetry, SharedStorage, Storage, TailDamage,
};
use optchain_utxo::{Transaction, TxId};

/// One journaled action: a submission or a telemetry update.
enum Step {
    Submit(usize),
    Feed(Vec<ShardTelemetry>),
}

/// Interleaves the stream with an always-changing telemetry feed every
/// `feed_every` submissions — both record kinds land in the WAL, so a
/// crash can split between them.
fn event_schedule(txs: &[Transaction], k: usize, feed_every: usize, seed: u64) -> Vec<Step> {
    let mut steps = Vec::with_capacity(txs.len() + txs.len() / feed_every + 1);
    let mut feeds = 0u64;
    for i in 0..txs.len() {
        if i > 0 && i % feed_every == 0 {
            feeds += 1;
            let telemetry: Vec<ShardTelemetry> = (0..k as u64)
                .map(|j| {
                    ShardTelemetry::new(
                        0.05 + ((seed + feeds + j) % 7) as f64 / 100.0,
                        0.5 + ((feeds * 31 + j * 7 + seed) % 100) as f64 / 10.0,
                    )
                })
                .collect();
            steps.push(Step::Feed(telemetry));
        }
        steps.push(Step::Submit(i));
    }
    steps
}

/// Drives `steps` until the journal reports the (injected) crash.
/// Returns how many steps were *attempted* — the crashing step and
/// everything after it are unacked.
fn drive_until_crash(router: &mut Router, txs: &[Transaction], steps: &[Step]) -> usize {
    for (i, step) in steps.iter().enumerate() {
        let outcome = match step {
            Step::Submit(idx) => router.submit_tx(&txs[*idx]).map(|_| ()),
            Step::Feed(telemetry) => router.try_feed_telemetry(telemetry),
        };
        if outcome.is_err() {
            return i;
        }
    }
    steps.len()
}

/// Applies the first `count` steps to an in-RAM reference, returning
/// `(submits, feeds)` applied.
fn apply_prefix(
    router: &mut Router,
    txs: &[Transaction],
    steps: &[Step],
    count: usize,
) -> (u64, u64) {
    let submits = drive_through(router, txs, &steps[..count], Door::Tx).len() as u64;
    (submits, count as u64 - submits)
}

/// Submits `tx` and returns the full score breakdown of the decision.
fn decide(router: &mut Router, tx: &Transaction) -> (ShardId, Vec<f64>, Vec<f64>) {
    router.submit_tx(tx).unwrap();
    let buf = router.last_decision();
    (buf.shard(), buf.t2s().to_vec(), buf.fitness().to_vec())
}

/// The four public ways into `Router`'s one submission path.
#[derive(Debug, Clone, Copy)]
enum Door {
    /// `submit` with the distinct input-id list.
    Raw,
    /// `submit_tx`.
    Tx,
    /// `submit_tx_in` through one (view-less) session.
    Session,
    /// `submit_batch` in chunks of at most this many transactions.
    Batch(usize),
}

/// Drives every step through `door`, returning the acked shards.
fn drive_through(
    router: &mut Router,
    txs: &[Transaction],
    steps: &[Step],
    door: Door,
) -> Vec<ShardId> {
    let mut session = router.session();
    let mut shards = Vec::new();
    let mut chunk = Vec::new();
    let mut i = 0;
    while i < steps.len() {
        let idx = match &steps[i] {
            Step::Feed(telemetry) => {
                router.feed_telemetry(telemetry);
                i += 1;
                continue;
            }
            Step::Submit(idx) => *idx,
        };
        let tx = &txs[idx];
        // Consecutive `Submit` steps carry consecutive stream indices.
        let mut run = 1;
        match door {
            Door::Raw => shards.push(router.submit(tx.id(), &tx.input_txids()).unwrap()),
            Door::Tx => shards.push(router.submit_tx(tx).unwrap()),
            Door::Session => shards.push(router.submit_tx_in(&mut session, tx).unwrap()),
            Door::Batch(n) => {
                run = steps[i..]
                    .iter()
                    .take(n)
                    .take_while(|s| matches!(s, Step::Submit(_)))
                    .count();
                router.submit_batch(&txs[idx..idx + run], &mut chunk);
                shards.extend_from_slice(&chunk);
            }
        }
        i += run;
    }
    shards
}

/// Submits every remaining transaction to both routers, comparing the
/// full score breakdown per decision — the recovered router must keep
/// deciding bit-identically, not just hold the same history.
fn assert_identical_continuation(
    recovered: &mut Router,
    reference: &mut Router,
    txs: &[Transaction],
    steps: &[Step],
    from_step: usize,
) {
    for step in &steps[from_step..] {
        match step {
            Step::Submit(idx) => {
                let tx = &txs[*idx];
                let (a, b) = (decide(recovered, tx), decide(reference, tx));
                assert_eq!(a, b, "continuation diverged at tx {idx}");
            }
            Step::Feed(telemetry) => {
                recovered.feed_telemetry(telemetry);
                reference.feed_telemetry(telemetry);
            }
        }
    }
    assert_eq!(recovered.assignments(), reference.assignments());
    assert_eq!(recovered.telemetry_version(), reference.telemetry_version());
}

fn policy_for(selector: u8) -> RetentionPolicy {
    match selector {
        0 => RetentionPolicy::Unbounded,
        1 => RetentionPolicy::WindowTxs(64),
        _ => RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 },
    }
}

fn damage_for(selector: u8, keep_bytes: usize) -> TailDamage {
    match selector {
        0 => TailDamage::None,
        1 => TailDamage::Torn { keep_bytes },
        _ => TailDamage::BadCrc,
    }
}

/// The crashed backend's surviving state, replayed into a recovered
/// router and cross-checked against an uncrashed reference over the
/// surviving prefix.
fn check_crash_recovery(
    storage: Box<dyn Storage>,
    policy: RetentionPolicy,
    txs: &[Transaction],
    steps: &[Step],
    attempted: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut recovered = Router::recover(storage).expect("recovery must succeed after a crash");
    let survived_submits = recovered.assignments().len() as u64;
    let survived_feeds = recovered.telemetry_version();
    let survived = (survived_submits + survived_feeds) as usize;
    // The ack contract is batch-level: a crash forgets an arbitrary
    // suffix of the unflushed buffer, so survivors never exceed the
    // attempted steps — plus one when the crash landed on the flush
    // *inside* the failing step, after its own append was buffered.
    prop_assert!(
        survived <= attempted + 1,
        "survivors {survived} vs attempted {attempted}"
    );

    let mut reference = Router::builder().shards(4).retention(policy).build();
    let (submits, feeds) = apply_prefix(&mut reference, txs, steps, survived);
    // Survivors are a *prefix* of the journal, so the per-kind counts
    // must land exactly.
    prop_assert_eq!(submits, survived_submits);
    prop_assert_eq!(feeds, survived_feeds);
    prop_assert_eq!(recovered.assignments(), reference.assignments());
    prop_assert_eq!(recovered.telemetry(), reference.telemetry());

    assert_identical_continuation(&mut recovered, &mut reference, txs, steps, survived);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill -9 at an arbitrary operation boundary, in-memory backend:
    /// recovery is bit-identical under every retention policy and
    /// every tail-damage mode.
    #[test]
    fn crash_recovery_is_bit_identical(
        seed in 0u64..1_000,
        after_ops in 1u64..260,
        policy_sel in 0u8..3,
        damage_sel in 0u8..3,
        survive in 0usize..8,
        keep_bytes in 0usize..24,
        full_every in 1u64..6,
    ) {
        let policy = policy_for(policy_sel);
        let txs = seeded_stream(300, 30, seed);
        let steps = event_schedule(&txs, 4, 50, seed);
        let shared = SharedStorage::new(FailpointStorage::new(
            MemStorage::new(),
            after_ops,
            survive,
            damage_for(damage_sel, keep_bytes),
        ));
        let mut router = Router::builder()
            .shards(4)
            .retention(policy)
            .checkpoint_every(32)
            .flush_every(8)
            .full_every(full_every)
            .storage(Box::new(shared.clone()))
            .build();
        let attempted = drive_until_crash(&mut router, &txs, &steps);
        prop_assert!(attempted < steps.len(), "the failpoint must fire");
        prop_assert!(shared.with(|fp| fp.crashed()));
        drop(router);

        // The "new process": same surviving bytes, failpoint disarmed.
        shared.with(|fp| fp.disarm());
        check_crash_recovery(Box::new(shared.clone()), policy, &txs, &steps, attempted)?;
    }

    /// The same sweep through a real on-disk `SegmentWal` with small
    /// segments, so rotation and GC happen around the crash; recovery
    /// reopens the directory like a restarted process.
    #[test]
    fn segment_wal_crash_recovery_on_disk(
        seed in 0u64..1_000,
        after_ops in 1u64..260,
        policy_sel in 0u8..3,
        damage_sel in 0u8..3,
        survive in 0usize..8,
        full_every in 1u64..6,
    ) {
        let policy = policy_for(policy_sel);
        let txs = seeded_stream(300, 30, seed);
        let steps = event_schedule(&txs, 4, 50, seed);
        let dir = std::env::temp_dir().join(format!(
            "optchain-wal-golden-{seed}-{after_ops}-{policy_sel}-{damage_sel}-{survive}-{full_every}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = SegmentWal::open_with(&dir, 4_096).expect("open wal dir");
        let failpoint = FailpointStorage::new(
            wal,
            after_ops,
            survive,
            damage_for(damage_sel, 7),
        );
        let mut router = Router::builder()
            .shards(4)
            .retention(policy)
            .checkpoint_every(32)
            .flush_every(8)
            .full_every(full_every)
            .storage(Box::new(failpoint))
            .build();
        let attempted = drive_until_crash(&mut router, &txs, &steps);
        prop_assert!(attempted < steps.len(), "the failpoint must fire");
        drop(router);

        // A restarted process reopens the directory from scratch.
        let reopened = SegmentWal::open_with(&dir, 4_096).expect("reopen wal dir");
        let outcome =
            check_crash_recovery(Box::new(reopened), policy, &txs, &steps, attempted);
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }

    /// Clean-shutdown sweep: recovering through a base + delta chain
    /// (`full_every > 1`) is bit-identical to recovering through full
    /// snapshots only (`full_every = 1`) over the same stream, under
    /// every retention policy — same history *and* the same full score
    /// breakdown on a shared continuation. The delta arm runs once per
    /// public submit door: all four must ack the same shards, leave
    /// the same journal bytes, and recover to the same router.
    #[test]
    fn delta_chain_recovery_matches_full_snapshot_recovery(
        seed in 0u64..1_000,
        policy_sel in 0u8..3,
        full_every in 2u64..6,
        checkpoint_every in 16u64..48,
        batch in 1usize..24,
    ) {
        let policy = policy_for(policy_sel);
        let txs = seeded_stream(360, 30, seed);
        let steps = event_schedule(&txs[..300], 4, 50, seed);
        let arms = [
            (1u64, Door::Tx),
            (full_every, Door::Tx),
            (full_every, Door::Raw),
            (full_every, Door::Session),
            (full_every, Door::Batch(batch)),
        ];
        let mut backends = Vec::new();
        let mut acked = Vec::new();
        for (fe, door) in arms {
            let shared = SharedStorage::new(MemStorage::new());
            let mut router = Router::builder()
                .shards(4)
                .retention(policy)
                .checkpoint_every(checkpoint_every)
                .flush_every(8)
                .full_every(fe)
                .storage(Box::new(shared.clone()))
                .build();
            let shards = drive_through(&mut router, &txs, &steps, door);
            router.flush_journal().unwrap();
            let stats = router.checkpoint_stats();
            if fe == 1 {
                prop_assert_eq!(stats.delta_checkpoints, 0);
            } else {
                // ~306 records at a <=48 cadence: deltas must have
                // been written, or the sweep is vacuous.
                prop_assert!(stats.delta_checkpoints > 0);
            }
            acked.push((shards, router.journal_bytes()));
            drop(router);
            backends.push(shared);
        }
        prop_assert_eq!(&acked[0].0, &acked[1].0);
        for (arm, outcome) in arms.iter().zip(&acked).skip(2) {
            prop_assert_eq!(outcome, &acked[1], "{:?} journaled differently", arm.1);
        }
        let mut recovered: Vec<Router> = backends
            .iter()
            .map(|b| Router::recover(Box::new(b.clone())).expect("recovery"))
            .collect();
        for router in &recovered[1..] {
            prop_assert_eq!(router.assignments(), recovered[0].assignments());
            prop_assert_eq!(router.telemetry(), recovered[0].telemetry());
            prop_assert_eq!(router.telemetry_version(), recovered[0].telemetry_version());
        }
        let (full, delta) = recovered.split_first_mut().expect("five arms");
        for tx in &txs[300..] {
            let (a, b) = (decide(&mut delta[0], tx), decide(full, tx));
            prop_assert_eq!(a, b, "continuation diverged after recovery");
        }
    }
}

/// Crash-matrix arm for the delta chain itself: damaging an
/// *intermediate* delta-checkpoint file (torn write, flipped byte,
/// or a well-formed delta pointing at the wrong predecessor) must
/// surface as a typed `InvalidData` error — never a silently wrong
/// router. The WAL records a delta absorbed are already GC'd, so
/// there is no correct state to fall back to.
#[test]
fn damaged_intermediate_delta_fails_typed_never_wrong() {
    let dir = std::env::temp_dir().join(format!(
        "optchain-wal-golden-delta-damage-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let txs = seeded_stream(300, 30, 3);
    {
        let wal = SegmentWal::open_with(&dir, 4_096).expect("open wal dir");
        let mut router = Router::builder()
            .shards(4)
            .retention(RetentionPolicy::WindowTxs(64))
            .checkpoint_every(32)
            .flush_every(8)
            .full_every(64) // never compact: keep every delta file alive
            .storage(Box::new(wal))
            .build();
        for tx in &txs {
            router.submit_tx(tx).unwrap();
        }
        router.flush_journal().unwrap();
        let stats = router.checkpoint_stats();
        assert_eq!(stats.full_checkpoints, 1, "one base snapshot");
        assert!(
            stats.delta_checkpoints >= 2,
            "need an intermediate delta to damage, got {}",
            stats.delta_checkpoints
        );
    }

    // Sanity: the undamaged chain recovers to the reference state.
    {
        let wal = SegmentWal::open_with(&dir, 4_096).expect("reopen wal dir");
        let recovered = Router::recover(Box::new(wal)).expect("clean chain recovers");
        let mut reference = Router::builder()
            .shards(4)
            .retention(RetentionPolicy::WindowTxs(64))
            .build();
        for tx in &txs {
            reference.submit_tx(tx).unwrap();
        }
        assert_eq!(recovered.assignments(), reference.assignments());
    }

    let intermediate = dir.join("ckpt-delta-000000.bin");
    let good = std::fs::read(&intermediate).expect("first delta file exists");

    // Torn write: the file ends mid-frame.
    std::fs::write(&intermediate, &good[..good.len() / 2]).unwrap();
    let err = SegmentWal::open_with(&dir, 4_096).expect_err("torn delta must fail open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Bit rot: one flipped byte breaks the frame CRC.
    let mut rotted = good.clone();
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0xFF;
    std::fs::write(&intermediate, &rotted).unwrap();
    let err = SegmentWal::open_with(&dir, 4_096).expect_err("corrupt delta must fail open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // A structurally valid delta whose recorded predecessor does not
    // match the chain position: the file-level open succeeds, but
    // recovery must reject the discontinuity rather than replay the
    // delta's records at the wrong sequence positions.
    let payload_len = u32::from_le_bytes(good[0..4].try_into().unwrap()) as usize;
    let payload = &good[8..8 + payload_len];
    let upto = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let blob = &payload[8..];
    assert_eq!(blob[0], 3, "delta envelope version");
    let mut body = optchain_storage::zrle::decompress(&blob[1..]).expect("zrle body");
    body[..8].copy_from_slice(&(upto - 1).to_le_bytes());
    let mut forged_blob = vec![3u8];
    optchain_storage::zrle::compress_into(&body, &mut forged_blob);
    let mut forged_payload = Vec::with_capacity(8 + forged_blob.len());
    forged_payload.extend_from_slice(&upto.to_le_bytes());
    forged_payload.extend_from_slice(&forged_blob);
    let mut forged = Vec::new();
    optchain_storage::frame_into(&mut forged, &forged_payload);
    std::fs::write(&intermediate, &forged).unwrap();
    let wal = SegmentWal::open_with(&dir, 4_096).expect("forged delta is structurally valid");
    let err = Router::recover(Box::new(wal)).expect_err("discontinuity must fail recovery");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // Restoring the original bytes restores the chain end to end.
    std::fs::write(&intermediate, &good).unwrap();
    let wal = SegmentWal::open_with(&dir, 4_096).expect("restored chain reopens");
    Router::recover(Box::new(wal)).expect("restored chain recovers");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scale soak for the CI `wal-soak` job: a 100k-tx stream killed at
/// three pseudo-random operation points with varying tail damage and
/// recovered after each, the forgotten suffix resubmitted. Every
/// resubmitted decision must match the original ack; the final state
/// must be bit-identical (assignments plus the full score breakdown on
/// a continuation) to an uninterrupted in-RAM run; and the journal must
/// stay O(window), on deltas smaller than full snapshots.
/// `OPTCHAIN_SOAK_SEED` varies the stream and the crash plan.
#[test]
#[ignore = "scale soak (~100k txs, 3 kill points); run with --ignored in the wal-soak CI job"]
fn wal_soak_three_crashes_end_bit_identical() {
    use optchain_tan::hash::splitmix64;
    let seed: u64 = std::env::var("OPTCHAIN_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let (len, tail, window) = (100_000usize, 200usize, 10_000usize);
    let txs = seeded_stream(len + tail, 60, seed);

    let shared = SharedStorage::new(FailpointStorage::new(
        MemStorage::new(),
        u64::MAX,
        0,
        TailDamage::None,
    ));
    let durable = |storage: Box<dyn Storage>| {
        Router::builder()
            .shards(8)
            .retention(RetentionPolicy::WindowTxs(window))
            .checkpoint_every(5_000)
            .flush_every(512)
            .storage(storage)
            .build()
    };
    let mut router = durable(Box::new(shared.clone()));
    let (mut peak_disk, mut lifetimes) = (0u64, Vec::new());

    // Shard acked for each stream index the first time it is accepted;
    // a resubmission after a crash replays from a bit-identical state,
    // so it must re-derive exactly the shard that was acked before.
    let mut acked: Vec<u32> = Vec::with_capacity(len);
    let (mut next_tx, mut crashes) = (0usize, 0u32);
    while next_tx < len {
        if crashes < 3 {
            // Three kill points spread over the stream: 5k–30k mutating
            // ops apart, with rotating tail damage. Ops track records
            // closely (one append per tx plus sparse flush/checkpoint
            // ops), so 3 × 30k max stays inside the 100k stream.
            let gap = 5_000 + splitmix64(seed ^ (0xFA11 + crashes as u64)) % 25_000;
            let survive = (splitmix64(seed ^ (0x5117 + crashes as u64)) % 6) as usize;
            let damage = damage_for((crashes % 3) as u8, 11);
            shared.with(|fp| fp.arm(gap, survive, damage));
        }
        while next_tx < len {
            let Ok(shard) = router.submit_tx(&txs[next_tx]) else {
                break;
            };
            match acked.get(next_tx) {
                Some(&first) => assert_eq!(
                    shard.0, first,
                    "resubmission after crash {crashes} diverged at tx {next_tx}"
                ),
                None => acked.push(shard.0),
            }
            next_tx += 1;
            peak_disk = peak_disk.max(router.journal_bytes().unwrap_or(0));
        }
        if next_tx >= len {
            break;
        }
        assert!(
            shared.with(|fp| fp.crashed()),
            "submission failed without the failpoint firing"
        );
        crashes += 1;
        lifetimes.push(router.checkpoint_stats());
        drop(router);
        shared.with(|fp| fp.disarm());
        router = Router::recover(Box::new(shared.clone())).expect("recovery after soak crash");
        let survived = router.assignments().len();
        assert!(
            survived <= next_tx + 1,
            "crash {crashes}: survivors {survived} exceed acked {next_tx} + 1"
        );
        // Resubmit the forgotten suffix from the surviving prefix.
        next_tx = survived;
    }
    assert_eq!(crashes, 3, "the crash plan must fire all three kills");
    lifetimes.push(router.checkpoint_stats());
    // Segment GC holds the journal O(window): its peak stays within 3x
    // of a 2x-window run's (the shortest that completes a checkpoint
    // chain and a GC cycle), on deltas smaller than full snapshots.
    let (mut short, mut short_peak) = (durable(Box::new(MemStorage::new())), 0u64);
    for tx in &txs[..2 * window] {
        short.submit_tx(tx).unwrap();
        short_peak = short_peak.max(short.journal_bytes().unwrap_or(0));
    }
    assert!(peak_disk <= 3 * short_peak, "{peak_disk} vs {short_peak}");
    let sum = |f: fn(&CheckpointStats) -> u64| lifetimes.iter().map(f).sum::<u64>();
    let (fulls, deltas) = (sum(|s| s.full_checkpoints), sum(|s| s.delta_checkpoints));
    let smaller = sum(|s| s.delta_bytes) * fulls < sum(|s| s.full_bytes) * deltas;
    assert!(deltas > 0 && smaller, "{lifetimes:?}");

    let mut reference = Router::builder()
        .shards(8)
        .retention(RetentionPolicy::WindowTxs(window))
        .build();
    for tx in &txs[..len] {
        reference.submit_tx(tx).unwrap();
    }
    assert_eq!(router.assignments(), reference.assignments());
    // Bit-identical state keeps making bit-identical decisions: the
    // continuation tail must match the full score breakdown.
    for tx in &txs[len..] {
        let (a, b) = (decide(&mut router, tx), decide(&mut reference, tx));
        assert_eq!(a, b, "post-soak continuation diverged at {:?}", tx.id());
    }
}

/// A durable 1-worker fleet shut down mid-window (pending delta
/// unpublished) restarts from its journal bit-identical to a `Router`
/// over the same stream.
#[test]
fn one_worker_fleet_recovers_and_continues_like_a_router() {
    let txs = seeded_stream(500, 30, 7);
    let mut router = Router::builder().shards(4).build();
    let router_shards: Vec<u32> = txs
        .iter()
        .map(|tx| router.submit_tx(tx).unwrap().0)
        .collect();

    let shared = SharedStorage::new(MemStorage::new());
    let fleet = RouterFleet::builder()
        .shards(4)
        .workers(1)
        .sync_interval(64)
        .storage(vec![Box::new(shared.clone())])
        .build();
    let handle = fleet.handle(0);
    // 300 is off the sync cadence, so the tail past the last sync mark
    // is exactly the pending delta recovery must rebuild.
    let first: Vec<u32> = txs[..300].iter().map(|tx| handle.submit_tx(tx).0).collect();
    assert_eq!(first, router_shards[..300]);
    drop(fleet);

    let fleet = RouterFleet::builder()
        .shards(4)
        .workers(1)
        .sync_interval(64)
        .storage(vec![Box::new(shared.clone())])
        .build();
    let stats = fleet.stats();
    assert_eq!(stats.placed, 300, "recovery must restore the placed count");
    assert_eq!(fleet.submitted(), 300);
    let handle = fleet.handle(0);
    let rest: Vec<u32> = txs[300..].iter().map(|tx| handle.submit_tx(tx).0).collect();
    assert_eq!(rest, router_shards[300..]);
    assert_eq!(fleet.submitted(), 500);
}

/// A durable 2-worker fleet synced and shut down cleanly restarts with
/// every per-worker counter intact and keeps placing.
#[test]
fn two_worker_fleet_restarts_with_counters_intact() {
    let txs = seeded_stream(400, 30, 11);
    let storages = [
        SharedStorage::new(MemStorage::new()),
        SharedStorage::new(MemStorage::new()),
    ];
    let fleet = RouterFleet::builder()
        .shards(4)
        .workers(2)
        .sync_interval(50)
        .storage(vec![
            Box::new(storages[0].clone()),
            Box::new(storages[1].clone()),
        ])
        .build();
    for (i, tx) in txs.iter().enumerate() {
        fleet.handle(i as u64).submit_tx(tx);
    }
    fleet.sync_now();
    fleet.flush();
    let before = fleet.stats();
    drop(fleet);

    let fleet = RouterFleet::builder()
        .shards(4)
        .workers(2)
        .sync_interval(50)
        .storage(vec![
            Box::new(storages[0].clone()),
            Box::new(storages[1].clone()),
        ])
        .build();
    let after = fleet.stats();
    assert_eq!(after.placed, before.placed);
    assert_eq!(after.adopted, before.adopted);
    assert_eq!(after.telemetry_versions, before.telemetry_versions);
    assert_eq!(fleet.submitted(), before.placed);
    // And the restarted fleet keeps placing across both workers.
    for i in 0..100u64 {
        let inputs = if i == 0 {
            vec![]
        } else {
            vec![TxId(10_000 + i - 1)]
        };
        let shard = fleet.handle(i).submit(TxId(10_000 + i), &inputs);
        assert!(shard.0 < 4);
    }
    assert_eq!(fleet.stats().placed, before.placed + 100);
}
