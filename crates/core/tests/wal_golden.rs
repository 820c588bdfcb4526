//! Golden properties of the durable placement node: WAL + crash
//! recovery under deterministic fault injection.
//!
//! 1. **Crash-point sweep, in-memory backend** (proptest): a durable
//!    router over a `FailpointStorage` is killed at a random mutating
//!    operation — mid-batch, mid-flush, or mid-snapshot, with a clean,
//!    torn, or CRC-corrupted tail frame — under each `RetentionPolicy`,
//!    a swept snapshot cadence (`full_every`), either the single-entry
//!    or the `submit_batch` door, so the damage can land inside a
//!    multi-entry record, and with or without a rebalancer committing
//!    epochs on both sides of the kill (a deterministic sweep kills it
//!    around every epoch boundary). `Router::recover` must rebuild a
//!    router **bit-identical** to an uncrashed reference driven over
//!    exactly the surviving prefix: same assignments and counters, and
//!    the same full score breakdown and committed moves on a shared
//!    continuation stream.
//! 2. **Crash-point sweep, on-disk `SegmentWal`**: the same property
//!    through real segment files with rotation and GC in play —
//!    recovery reopens the directory exactly as a restarted process
//!    would.
//! 3. **The tail is the delta; four doors, one journal** (proptest): a
//!    clean-shutdown journal that snapshots rarely (`full_every > 1`:
//!    one snapshot plus a long tail) recovers bit-identically to one
//!    that snapshots at every interval (`full_every = 1`), under every
//!    retention policy — and driving either through `submit`,
//!    `submit_tx`, `submit_tx_in` or `submit_batch` yields the same
//!    shards and the same recovered router (the single-entry doors
//!    also the same journal bytes; a batch record has fewer frames),
//!    with every submission through a session whose view is not the
//!    board refused and leaving no trace.
//! 4. **A torn batch record is lost whole**: damage inside a
//!    multi-entry record keeps every earlier record and none of that
//!    one's placements.
//! 5. **Fleet restart**: a durable `RouterFleet` shut down mid-window
//!    recovers bit-identically to a `Router` over the same stream, and
//!    restarts with its counters and telemetry epoch intact.
//!
//! The surviving-prefix property is the heart of it: the journal acks
//! batches only after fsync, torn tails truncate on reopen, so
//! whatever survives is always the first N records in journal order —
//! and deterministic placement turns that prefix back into the exact
//! pre-crash state.

mod common;
use common::{aggressive, seeded_stream};

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{
    Crashable, FailpointStorage, MemStorage, RetentionPolicy, Router, RouterBuilder, RouterFleet,
    SegmentWal, ShardId, ShardTelemetry, SharedStorage, Storage, TailDamage,
};
use optchain_utxo::Transaction;

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

/// The router every crash case builds (and its reference): 4 shards
/// under `policy`, rebalancing with an epoch every 12 placements iff
/// `rebalance`.
fn node(policy: RetentionPolicy, rebalance: bool) -> RouterBuilder {
    let builder = Router::builder().shards(4).retention(policy);
    if rebalance {
        return builder.rebalancer(aggressive(12));
    }
    builder
}

/// A decision's shard and the bits of its T2S, L2S and fitness scores.
type Scored = (ShardId, [Vec<u64>; 3]);

/// Submits `tx` and returns the full score breakdown of the decision.
fn decide(router: &mut Router, tx: &Transaction) -> Scored {
    router.submit_tx(tx).unwrap();
    let buf = router.last_decision();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (
        buf.shard(),
        [bits(buf.t2s()), bits(buf.l2s()), bits(buf.fitness())],
    )
}

/// What a restart must carry besides the assignments: rebalance
/// counters, cross-placement count, telemetry epoch.
fn counters(router: &Router) -> (optchain_core::RebalanceStats, u64, u64) {
    let stats = router.rebalance_stats();
    (stats, router.cross_placed(), router.telemetry_version())
}

/// The moves committed since the last drain.
fn drained(router: &mut Router) -> Vec<optchain_core::Move> {
    let mut moves = Vec::new();
    router.drain_rebalance_moves(&mut moves);
    moves
}

/// The four public ways into `Router`'s one submission path.
#[derive(Debug, Clone, Copy)]
enum Door {
    /// `submit` with the distinct input-id list.
    Raw,
    /// `submit_tx`.
    Tx,
    /// `submit_tx_in` through a session viewing the router's own board,
    /// after a session with any other view is refused: the journal
    /// cannot replay a view, so a durable router journals none.
    Session,
    /// `submit_batch` in chunks of at most this many transactions.
    Batch(usize),
}

/// Drives `steps` through `door` until the journal reports the
/// (injected) crash. Returns the acked shards and how many steps were
/// acked — the failing call and everything after it are unacked.
fn drive_until_crash(
    router: &mut Router,
    txs: &[Transaction],
    steps: &[Step],
    door: Door,
) -> (Vec<ShardId>, usize) {
    let (mut session, mut foreign) = (router.session(), router.session());
    foreign.set_view(&vec![ShardTelemetry::new(9.0, 9.0); router.k() as usize], 0);
    let mut shards = Vec::new();
    let mut chunk = Vec::new();
    let mut i = 0;
    while i < steps.len() {
        let idx = match &steps[i] {
            Step::Feed(telemetry) => {
                if router.try_feed_telemetry(telemetry).is_err() {
                    break;
                }
                i += 1;
                continue;
            }
            Step::Submit(idx) => *idx,
        };
        let tx = &txs[idx];
        // Consecutive `Submit` steps carry consecutive stream indices.
        let mut run = 1;
        let ok = match door {
            Door::Raw => router
                .submit(tx.id(), &tx.input_txids())
                .map(|s| shards.push(s))
                .is_ok(),
            Door::Tx => router.submit_tx(tx).map(|s| shards.push(s)).is_ok(),
            Door::Session => {
                let refused = router.submit_tx_in(&mut foreign, tx).unwrap_err();
                assert_eq!(refused.kind(), std::io::ErrorKind::Unsupported);
                let board = router.telemetry().to_vec();
                session.set_view(&board, router.telemetry_version());
                let placed = router.submit_tx_in(&mut session, tx);
                placed.map(|s| shards.push(s)).is_ok()
            }
            Door::Batch(n) => {
                run = steps[i..]
                    .iter()
                    .take(n)
                    .take_while(|s| matches!(s, Step::Submit(_)))
                    .count();
                // The bulk door has no fallible twin: a journal failure
                // is its documented panic.
                let batch = &txs[idx..idx + run];
                let placed = catch_unwind(AssertUnwindSafe(|| {
                    router.submit_batch(batch, &mut chunk);
                }));
                shards.extend_from_slice(&chunk);
                placed.is_ok()
            }
        };
        if !ok {
            break;
        }
        i += run;
    }
    (shards, i)
}

/// Drives every step through `door`, returning the acked shards.
fn drive_through(
    router: &mut Router,
    txs: &[Transaction],
    steps: &[Step],
    door: Door,
) -> Vec<ShardId> {
    let (shards, acked) = drive_until_crash(router, txs, steps, door);
    assert_eq!(acked, steps.len(), "the journal failed at step {acked}");
    shards
}

/// Compares a recovered router with its uncrashed reference, then
/// submits every remaining transaction to both, comparing the full
/// score breakdown per decision and the moves committed on the way —
/// the recovered router must keep deciding bit-identically, not just
/// hold the same history.
fn assert_identical_continuation(
    recovered: &mut Router,
    reference: &mut Router,
    txs: &[Transaction],
    steps: &[Step],
    from_step: usize,
) {
    assert_eq!(recovered.assignments(), reference.assignments());
    assert_eq!(counters(recovered), counters(reference));
    // The drain buffer is process-local: a recovered one starts empty.
    drained(reference);
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
    assert_eq!(counters(recovered), counters(reference));
    assert_eq!(drained(recovered), drained(reference));
}

fn policy_for(selector: u8) -> RetentionPolicy {
    match selector {
        0 => RetentionPolicy::Unbounded,
        1 => RetentionPolicy::WindowTxs(64),
        _ => RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 },
    }
}

/// `0` is the single-entry door; `n` is `submit_batch` in chunks of
/// `n`, so a kill can land inside a multi-entry record.
fn door_for(batch: usize) -> Door {
    match batch {
        0 => Door::Tx,
        n => Door::Batch(n),
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
    mut reference: Router,
    txs: &[Transaction],
    steps: &[Step],
    acked: usize,
    door: Door,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut recovered = Router::recover(storage).expect("recovery must succeed after a crash");
    let survived_submits = recovered.assignments().len() as u64;
    let survived_feeds = recovered.telemetry_version();
    let survived = (survived_submits + survived_feeds) as usize;
    // The ack contract is batch-level: a crash forgets an arbitrary
    // suffix of the unflushed buffer, so survivors never exceed the
    // acked steps — plus the failing call's own, when the crash landed
    // on a flush *inside* it, after its records were buffered.
    let reach = if let Door::Batch(n) = door { n } else { 1 };
    prop_assert!(
        survived <= acked + reach,
        "survivors {survived} vs acked {acked}"
    );

    let prefix = &steps[..survived];
    let submits = drive_through(&mut reference, txs, prefix, Door::Tx).len() as u64;
    // Survivors are a *prefix* of the journal, so the per-kind counts
    // must land exactly (the feeds are the rest of `survived`).
    prop_assert_eq!(submits, survived_submits);
    prop_assert_eq!(recovered.assignments(), reference.assignments());
    prop_assert_eq!(recovered.telemetry(), reference.telemetry());

    assert_identical_continuation(&mut recovered, &mut reference, txs, steps, survived);
    Ok(())
}

/// Where and how a sweep case kills its router: after the first `cut`
/// steps ran clean, `gap` mutating operations later, with `survive`
/// buffered records landing and the next one damaged.
type Kill = (usize, u64, usize, TailDamage);

/// Drives a durable `node` over `backend` (a snapshot due after 32
/// entries, then every 32 × `full_every`; fsync every 8) through
/// `door` into the kill. Returns the dead backend and the steps acked.
fn drive_into_kill<S: Storage + Crashable + 'static>(
    backend: S,
    (node, full_every): (RouterBuilder, u64),
    (txs, steps): (&[Transaction], &[Step]),
    door: Door,
    (cut, gap, survive, damage): Kill,
) -> (SharedStorage<FailpointStorage<S>>, usize) {
    let idle = FailpointStorage::new(backend, u64::MAX, 0, TailDamage::None);
    let shared = SharedStorage::new(idle);
    let mut router = node
        .checkpoint_every(32)
        .flush_every(8)
        .full_every(full_every)
        .storage(Box::new(shared.clone()))
        .build();
    drive_through(&mut router, txs, &steps[..cut], door);
    shared.with(|fp| fp.arm(gap, survive, damage));
    let (_, acked) = drive_until_crash(&mut router, txs, &steps[cut..], door);
    assert!(shared.with(|fp| fp.crashed()), "the failpoint must fire");
    (shared, cut + acked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill -9 at an arbitrary operation boundary, in-memory backend:
    /// recovery is bit-identical under every retention policy, every
    /// tail-damage mode, both record shapes, with and without a
    /// rebalancer.
    #[test]
    fn crash_recovery_is_bit_identical(
        seed in 0u64..1_000,
        cut in 0usize..200,
        gap in 0u64..8,
        policy_sel in 0u8..3,
        damage_sel in 0u8..3,
        survive in 0usize..8,
        keep_bytes in 0usize..64,
        full_every in 1u64..6,
        batch in 0usize..12,
        rebalance in any::<bool>(),
    ) {
        let door = door_for(batch);
        let node = || node(policy_for(policy_sel), rebalance);
        let txs = seeded_stream(300, 30, seed);
        let steps = event_schedule(&txs, 4, 50, seed);
        let kill = (cut, gap, survive, damage_for(damage_sel, keep_bytes));
        let (shared, acked) =
            drive_into_kill(MemStorage::new(), (node(), full_every), (&txs, &steps), door, kill);

        // The "new process": same surviving bytes, failpoint disarmed.
        shared.with(|fp| fp.disarm());
        check_crash_recovery(Box::new(shared), node().build(), &txs, &steps, acked, door)?;
    }

    /// The same sweep through a real on-disk `SegmentWal` with small
    /// segments, so rotation and GC happen around the crash; recovery
    /// reopens the directory like a restarted process.
    #[test]
    fn segment_wal_crash_recovery_on_disk(
        seed in 0u64..1_000,
        cut in 0usize..200,
        gap in 0u64..8,
        policy_sel in 0u8..3,
        damage_sel in 0u8..3,
        survive in 0usize..8,
        full_every in 1u64..6,
        batch in 0usize..12,
        rebalance in any::<bool>(),
    ) {
        let door = door_for(batch);
        let node = || node(policy_for(policy_sel), rebalance);
        let txs = seeded_stream(300, 30, seed);
        let steps = event_schedule(&txs, 4, 50, seed);
        let dir = std::env::temp_dir().join(format!(
            "optchain-wal-golden-{seed}-{cut}-{gap}-{policy_sel}-{damage_sel}-{survive}-{full_every}-{batch}-{rebalance}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = SegmentWal::open_with(&dir, 4_096).expect("open wal dir");
        let kill = (cut, gap, survive, damage_for(damage_sel, 27));
        let (dead, acked) =
            drive_into_kill(wal, (node(), full_every), (&txs, &steps), door, kill);
        drop(dead);

        // A restarted process reopens the directory from scratch.
        let reopened = SegmentWal::open_with(&dir, 4_096).expect("reopen wal dir");
        let outcome =
            check_crash_recovery(Box::new(reopened), node().build(), &txs, &steps, acked, door);
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }

    /// Clean-shutdown sweep, snapshot cadence × door: a journal that
    /// snapshots once per `full_every` intervals — one snapshot and a
    /// long tail, the only delta there is — recovers bit-identically
    /// to one that snapshots at every interval (`full_every = 1`),
    /// under every retention policy: same history *and* the same full
    /// score breakdown on a shared continuation. Each cadence runs
    /// once per public submit door: all eight arms must ack the same
    /// shards, write their snapshots at the documented positions and
    /// recover to the same router; the single-entry doors also leave
    /// the same journal bytes, the batch door no more (one frame
    /// header per record, not per entry).
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
        let doors = [Door::Tx, Door::Raw, Door::Session, Door::Batch(batch)];
        let mut acked = Vec::new();
        let mut recovered = Vec::new();
        for (fe, door) in [1, full_every].into_iter().flat_map(|fe| doors.map(|d| (fe, d))) {
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
            // The first snapshot after `checkpoint_every` entries, then
            // one every `checkpoint_every × full_every`.
            let past_first = steps.len() as u64 - checkpoint_every;
            prop_assert_eq!(
                router.checkpoint_stats().full_checkpoints,
                1 + past_first / (checkpoint_every * fe),
                "{:?} full_every {}", door, fe
            );
            acked.push((shards, router.journal_bytes()));
            drop(router);
            recovered.push(Router::recover(Box::new(shared)).expect("recovery"));
        }
        for (arm, (shards, bytes)) in acked.iter().enumerate() {
            prop_assert_eq!(shards, &acked[0].0, "arm {} acked differently", arm);
            // Tx is each cadence's reference arm.
            let tx_bytes = acked[arm / 4 * 4].1;
            if arm % 4 == 3 {
                prop_assert!(*bytes <= tx_bytes, "batch records outweigh single ones");
            } else {
                prop_assert_eq!(*bytes, tx_bytes, "arm {} journaled differently", arm);
            }
        }
        let (first, rest) = recovered.split_first_mut().expect("eight arms");
        for router in rest.iter() {
            prop_assert_eq!(router.assignments(), first.assignments());
            prop_assert_eq!(router.telemetry(), first.telemetry());
            prop_assert_eq!(router.telemetry_version(), first.telemetry_version());
        }
        for tx in &txs[300..] {
            let want = decide(first, tx);
            for router in rest.iter_mut() {
                prop_assert_eq!(decide(router, tx), want.clone(), "continuation diverged");
            }
        }
    }
}

/// Kills a rebalancing node on, one record before and one record after
/// every epoch boundary of a run, under every retention policy: the kill
/// fires on the record after the cut and every buffered record lands,
/// so exactly the cut survives. Snapshots every 32 records fall at
/// every phase of the 12-record epoch, so recovery both restores staged
/// batches and replays tails across boundaries.
#[test]
fn rebalancer_recovers_from_a_kill_around_every_epoch_boundary() {
    let txs = seeded_stream(200, 30, 3);
    let steps: Vec<Step> = (0..txs.len()).map(Step::Submit).collect();
    for policy in [0, 1, 2].map(policy_for) {
        let mut uncrashed = node(policy, true).build();
        drive_through(&mut uncrashed, &txs, &steps, Door::Tx);
        assert!(uncrashed.rebalance_stats().nodes_moved > 0, "{policy:?}");
        for cut in (12..190).step_by(12).flat_map(|b| [b - 1, b, b + 1]) {
            let kill = (cut, 0, 8, TailDamage::None);
            let run = (&txs[..], &steps[..]);
            let (dead, acked) = drive_into_kill(
                MemStorage::new(),
                (node(policy, true), 1),
                run,
                Door::Tx,
                kill,
            );
            assert_eq!(acked, cut, "the kill lands on the record after the cut");
            dead.with(|fp| fp.disarm());
            check_crash_recovery(
                Box::new(dead),
                node(policy, true).build(),
                &txs,
                &steps,
                cut,
                Door::Tx,
            )
            .unwrap();
        }
    }
}

/// Damage inside a multi-entry record loses exactly that record: the
/// frame CRC covers the whole batch, so recovery keeps every earlier
/// record and none of the damaged one's placements — all of which were
/// still unacked as durable.
#[test]
fn damage_inside_a_batch_record_loses_exactly_that_record() {
    let txs = seeded_stream(24, 6, 5);
    for damage in [TailDamage::Torn { keep_bytes: 60 }, TailDamage::BadCrc] {
        // Ops: meta, three appends; the fourth (the flush) is the kill.
        // Of the three buffered records the first two land; the third
        // is cut 60 bytes into its eight entries, or bit-flipped.
        let shared = SharedStorage::new(FailpointStorage::new(MemStorage::new(), 4, 2, damage));
        let mut router = Router::builder()
            .shards(4)
            .flush_every(1_000)
            .storage(Box::new(shared.clone()))
            .build();
        let steps: Vec<Step> = (0..txs.len()).map(Step::Submit).collect();
        let acked = drive_through(&mut router, &txs, &steps, Door::Batch(8));
        assert!(router.flush_journal().is_err(), "the flush is the kill");
        drop(router);
        shared.with(|fp| fp.disarm());
        let recovered = Router::recover(Box::new(shared)).expect("recovery");
        let shards: Vec<u32> = acked[..16].iter().map(|s| s.0).collect();
        assert_eq!(recovered.assignments().to_vec(), Some(shards), "{damage:?}");
    }
}

/// Scale soak for the CI `wal-soak` job: a 100k-tx stream killed at
/// three pseudo-random operation points with varying tail damage and
/// recovered after each, the forgotten suffix resubmitted. Every
/// resubmitted decision must match the original ack; the final state
/// must be bit-identical (assignments plus the full score breakdown on
/// a continuation) to an uninterrupted in-RAM run; and the journal must
/// stay O(window), on snapshots written at the documented positions.
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
    // Stream positions at which a snapshot was installed.
    let (mut peak_disk, mut snapshots) = (0u64, Vec::new());

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
            let installed = router.checkpoint_stats().full_checkpoints;
            let outcome = router.submit_tx(&txs[next_tx]);
            if router.checkpoint_stats().full_checkpoints > installed {
                snapshots.push(next_tx + 1);
            }
            let Ok(shard) = outcome else {
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
    // Segment GC holds the journal O(window): its peak stays within 3x
    // of a 2x-window run's (the shortest that completes a snapshot and
    // a GC cycle).
    let (mut short, mut short_peak) = (durable(Box::new(MemStorage::new())), 0u64);
    for tx in &txs[..2 * window] {
        short.submit_tx(tx).unwrap();
        short_peak = short_peak.max(short.journal_bytes().unwrap_or(0));
    }
    assert!(peak_disk <= 3 * short_peak, "{peak_disk} vs {short_peak}");
    // The first snapshot after `checkpoint_every` entries, then one per
    // `checkpoint_every × full_every` (8, the default) — crashes or
    // not, since recovery resumes the count from the replayed tail.
    // (A kill on the install itself, every entry already durable,
    // moves that snapshot to the next entry.)
    let documented = [5_000usize, 45_000, 85_000];
    let on_time = |(at, want): (&usize, &usize)| at == want || *at == want + 1;
    assert!(
        snapshots.len() == 3 && snapshots.iter().zip(&documented).all(on_time),
        "{snapshots:?}"
    );

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

/// A durable fleet fed by many clients, shut down mid-window, restarts
/// from its journal with its counters and telemetry epoch intact and
/// keeps placing bit-identically to a `Router` over the same stream.
#[test]
fn one_worker_fleet_recovers_and_continues_like_a_router() {
    let txs = seeded_stream(500, 30, 7);
    let hot = [ShardTelemetry::new(0.1, 2.0); 4];
    let mut router = Router::builder().shards(4).build();
    router.feed_telemetry(&hot);
    let router_shards: Vec<u32> = txs
        .iter()
        .map(|tx| router.submit_tx(tx).unwrap().0)
        .collect();

    let shared = SharedStorage::new(MemStorage::new());
    let fleet = || {
        let builder = RouterFleet::builder().shards(4).workers(2);
        builder.storage(Box::new(shared.clone())).build()
    };
    // Every transaction from its own client handle.
    let submit = |fleet: &RouterFleet, range: std::ops::Range<usize>| -> Vec<u32> {
        let placed = range.map(|i| fleet.handle(i as u64).submit_tx(&txs[i]).unwrap().0);
        placed.collect()
    };
    let first = fleet();
    first.feed_telemetry(&hot).unwrap();
    assert_eq!(submit(&first, 0..300), router_shards[..300]);
    let (before, version) = (first.stats(), first.telemetry_version());
    drop(first);

    let fleet = fleet();
    let after = fleet.stats();
    assert_eq!(after.placed, 300, "recovery must restore the placed count");
    assert_eq!(after.missing_parent_refs, before.missing_parent_refs);
    assert_eq!(after.cross_placed, before.cross_placed);
    assert_eq!(fleet.telemetry_version(), version);
    assert_eq!(fleet.submitted(), 300);
    assert_eq!(submit(&fleet, 300..500), router_shards[300..]);
    assert_eq!(fleet.submitted(), 500);
}
