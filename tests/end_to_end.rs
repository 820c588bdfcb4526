//! End-to-end integration: workload → ledger validation → TaN → placement
//! → simulation, across crates; what every placement door does with an
//! id the graph still holds, in RAM, on a journal and in a fleet, and
//! once its journal has died; and which journal a builder reopens.

use std::io::ErrorKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

use optchain::prelude::*;

fn stream(n: usize, seed: u64) -> Vec<Transaction> {
    optchain::workload::generate(WorkloadConfig::small().with_seed(seed), n)
}

#[test]
fn generated_stream_flows_through_the_whole_stack() {
    let txs = stream(5_000, 3);

    // 1. It is a valid UTXO history.
    let mut ledger = Ledger::new();
    for tx in &txs {
        ledger.apply(tx.clone()).expect("workload is valid");
    }

    // 2. The TaN network reflects it: one node per tx, DAG order.
    let tan = TanGraph::from_transactions(txs.iter());
    assert_eq!(tan.len(), txs.len());
    for (u, v) in tan.edges() {
        assert!(v < u, "TaN edges must point to the past");
    }

    // 3. Placement over the stream is total and in range.
    let outcome = replay(&txs, &mut OptChainPlacer::new(6));
    assert_eq!(outcome.assignments.len(), txs.len());
    assert!(outcome.assignments.iter().all(|s| *s < 6));

    // 4. The simulator commits everything at a sustainable rate.
    let mut config = SimConfig::small();
    config.total_txs = txs.len() as u64;
    config.tx_rate = 400.0;
    config.n_shards = 6;
    let metrics = Simulation::run_on(config, Strategy::OptChain, &txs).unwrap();
    assert_eq!(metrics.committed, txs.len() as u64);
    assert_eq!(metrics.aborted, 0);
}

#[test]
fn all_five_strategies_run_on_the_same_stream() {
    let txs = stream(4_000, 9);
    let mut config = SimConfig::small();
    config.total_txs = txs.len() as u64;
    config.tx_rate = 500.0;
    for strategy in [
        Strategy::OptChain,
        Strategy::T2s,
        Strategy::OmniLedger,
        Strategy::Greedy,
        Strategy::Metis,
    ] {
        let metrics = Simulation::run_on(config.clone(), strategy, &txs)
            .unwrap_or_else(|e| panic!("{} failed: {e}", strategy.label()));
        assert_eq!(
            metrics.committed + metrics.aborted,
            txs.len() as u64,
            "{} must process the full stream",
            strategy.label()
        );
        assert!(metrics.mean_latency() > 0.0);
    }
}

#[test]
fn metis_oracle_outperforms_random_on_cross_txs() {
    let txs = stream(8_000, 11);
    let tan = TanGraph::from_transactions(txs.iter());
    let csr = CsrGraph::from_tan(&tan);
    let assignment = partition_kway(&csr, 4, 0.1, 1);
    let metis = replay(&txs, &mut OraclePlacer::new(4, assignment));
    let random = replay(&txs, &mut RandomPlacer::new(4));
    assert!(
        metis.cross < random.cross / 2,
        "offline partitioning should at least halve cross-TXs: {} vs {}",
        metis.cross,
        random.cross
    );
}

/// A durable router whose WAL writer fails reports it as an error:
/// with its directory gone the snapshot install fails on the writer
/// thread, and `flush_journal` — a barrier — returns that error's kind
/// instead of panicking.
#[test]
fn a_failed_wal_writer_surfaces_from_flush_journal() {
    let dir = std::env::temp_dir().join(format!("optchain-e2e-wal-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = SegmentWal::open(&dir).expect("open a fresh WAL directory");
    let mut router = Router::builder().shards(4).storage(Box::new(wal)).build();
    for i in 0..1_000u64 {
        router.submit(TxId(i), &[]).expect("journaled");
    }
    router
        .flush_journal()
        .expect("the directory is still there");
    std::fs::remove_dir_all(&dir).unwrap();
    // Whether this call or a later one reports it depends on the writer.
    let _ = router.checkpoint_now();
    let err = router.flush_journal().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    let err = router.submit(TxId(1_000), &[]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
}

/// The bits of a router's last decision: shard, T2S, L2S and fitness.
fn scores(router: &Router) -> Vec<u64> {
    let d = router.last_decision();
    let bits = d.t2s().iter().chain(d.l2s()).chain(d.fitness());
    bits.map(|x| x.to_bits())
        .chain([d.shard().0 as u64])
        .collect()
}

/// A resubmitted live id is refused with `AlreadyExists` by every
/// fallible `Router` door before anything is decided, ticked or
/// journaled: with a duplicate after every transaction, a router in RAM
/// or on a journal, under every retention policy, decides, counts and
/// journals bit-identically to a twin that never saw one.
#[test]
fn a_duplicate_at_every_position_changes_nothing() {
    let txs = stream(300, 8);
    let policies = [
        RetentionPolicy::Unbounded,
        RetentionPolicy::WindowTxs(64),
        RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 },
    ];
    for (policy, durable) in policies.into_iter().flat_map(|p| [(p, false), (p, true)]) {
        let build = || {
            let rebalance = RebalancePolicy::default().with_epoch_interval(16);
            let builder = Router::builder()
                .shards(4)
                .retention(policy)
                .rebalancer(rebalance);
            let storage = Box::new(SharedStorage::new(MemStorage::new()));
            match durable {
                true => builder.checkpoint_every(32).flush_every(8).storage(storage),
                false => builder,
            }
            .build()
        };
        let (mut router, mut twin) = (build(), build());
        let mut session = router.session();
        for (i, tx) in txs.iter().enumerate() {
            let shard = router.submit_tx(tx).unwrap();
            assert_eq!(shard, twin.submit_tx(tx).unwrap());
            assert_eq!(scores(&router), scores(&twin), "{policy:?} tx {i}");
            let again = &txs[if i % 2 == 0 { i } else { i / 2 }];
            let refused = match i % 4 {
                _ if router.tan().node(again.id()).is_none() => continue, // evicted
                0 => router.submit(again.id(), &[]),
                1 => router.submit_tx(again),
                2 => router.submit_tx_in(&mut session, again),
                _ => router.adopt_remote(again.id(), &[], 0).map(|()| shard),
            };
            assert_eq!(refused.unwrap_err().kind(), ErrorKind::AlreadyExists);
        }
        assert_eq!(router.assignments(), twin.assignments());
        assert_eq!(router.cross_placed(), twin.cross_placed());
        assert_eq!(router.rebalance_stats(), twin.rebalance_stats());
        assert_eq!(router.journal_bytes(), twin.journal_bytes());
    }
}

/// Two fleet handles submitting one id — in RAM and over a journal —
/// both get the shard it holds, through the synchronous doors (a full
/// transaction or raw ids) and the shared-stream door; the fleet places
/// it once, and its journal
/// recovers to a router fed the stream without the duplicates.
#[test]
fn two_fleet_handles_submitting_one_id_share_its_shard() {
    let txs: Arc<[Transaction]> = stream(200, 3).into();
    let mut router = Router::builder().shards(4).build();
    let shards: Vec<ShardId> = txs.iter().map(|tx| router.submit_tx(tx).unwrap()).collect();
    for durable in [false, true] {
        let storage = SharedStorage::new(MemStorage::new());
        let fleet = match durable {
            true => RouterFleet::builder().storage(Box::new(storage.clone())),
            false => RouterFleet::builder(),
        }
        .shards(4)
        .build();
        let (a, b) = (fleet.handle(0), fleet.handle(1));
        for (tx, &shard) in txs.iter().zip(&shards) {
            let answers = (a.submit_tx(tx).unwrap(), b.submit(tx.id(), &[]).unwrap());
            assert_eq!(answers, (shard, shard));
        }
        // A held shard has no score breakdown.
        let (shard, detail) = a.submit_with_detail(txs[0].id(), &[]).unwrap();
        assert_eq!((shard, detail.fitness.len()), (shards[0], 0));
        let half = txs.len() / 2;
        b.submit_batch_detached(&txs, 0..half);
        b.submit_batch_detached(&txs, half..txs.len());
        b.submit_batch_detached(&txs, 0..txs.len());
        let drained: Vec<ShardId> = b.drain().into_iter().map(|(_, s)| s).collect();
        assert_eq!(drained, [&shards[..], &shards[..]].concat());
        assert_eq!(fleet.stats().placed, txs.len() as u64);
        fleet.shutdown();
        if durable {
            let recovered = Router::recover(Box::new(storage)).unwrap();
            assert_eq!(recovered.assignments(), router.assignments());
        }
    }
}

/// Every call of a fleet that has failed gets the failure's kind back.
type Answer = Result<(), ErrorKind>;

/// Two handles feed `txs` to `fleet` through the synchronous doors in
/// turn, with a telemetry change and a lookup every 50 transactions,
/// then shut it down. Returns every call's answer and the shard each
/// acked transaction got, in stream order.
fn drive_to_failure(fleet: RouterFleet, txs: &[Transaction]) -> (Vec<Answer>, Vec<ShardId>) {
    let handles = [fleet.handle(0), fleet.handle(1)];
    let (mut answers, mut acked) = (Vec::new(), Vec::new());
    for (i, tx) in txs.iter().enumerate() {
        let handle = &handles[i % 2];
        let placed = match i % 3 {
            0 => handle.submit_tx(tx),
            1 => handle.submit(tx.id(), &tx.input_txids()),
            _ => handle
                .submit_with_detail(tx.id(), &tx.input_txids())
                .map(|(shard, _)| shard),
        };
        answers.push(placed.as_ref().map(|_| ()).map_err(|e| e.kind()));
        acked.extend(placed.ok());
        if i % 50 == 49 {
            let mut board = vec![optchain::core::DEFAULT_TELEMETRY; 4];
            board[i / 50 % 4] = ShardTelemetry::new(0.1, i as f64);
            answers.push(fleet.feed_telemetry(&board).map_err(|e| e.kind()));
            let looked_up = fleet.shard_of(txs[i - 10].id());
            if let (Ok(Some(held)), Some(&ack)) = (&looked_up, acked.get(i - 10)) {
                assert_eq!(
                    *held,
                    ack,
                    "tx {}: the lookup disagrees with the ack",
                    i - 10
                );
            }
            answers.push(looked_up.map(|_| ()).map_err(|e| e.kind()));
        }
    }
    fleet.shutdown();
    let after = handles[1].submit(TxId(u64::MAX), &[]);
    assert_eq!(after.map_err(|e| e.kind()), Err(ErrorKind::NotConnected));
    (answers, acked)
}

/// A fleet whose journal dies answers every call instead of panicking
/// or hanging its callers. Killed at each of its first 200 mutating
/// storage operations (and at points spread over the rest of the
/// stream, the first fsync batch among them), under each retention
/// policy, every call returns `Ok` until the failure and that failure's
/// kind from it on, within a watchdog; the journal recovers a prefix of
/// the stream in which every acked id holds its acked shard.
#[test]
fn a_failed_fleet_journal_is_a_sticky_typed_answer() {
    let txs: Arc<[Transaction]> = stream(600, 5).into();
    let policies = [
        RetentionPolicy::Unbounded,
        RetentionPolicy::WindowTxs(64),
        RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 },
    ];
    let kills = (0..200u64).chain((200..700).step_by(37)).chain([512]);
    for retention in policies {
        for kill in kills.clone() {
            let at = format!("{retention:?}, kill {kill}");
            let idle = FailpointStorage::new(MemStorage::new(), u64::MAX, 0, TailDamage::None);
            let disk = SharedStorage::new(idle);
            let fleet = RouterFleet::builder()
                .shards(4)
                .retention(retention)
                .storage(Box::new(disk.clone()))
                .build();
            // Counted from after the meta blob; of the records buffered
            // at the kill, half reach the disk.
            disk.with(|fp| fp.arm(kill, kill as usize / 2, TailDamage::None));
            let caller = {
                let txs = txs.clone();
                std::thread::spawn(move || drive_to_failure(fleet, &txs))
            };
            let deadline = Instant::now() + Duration::from_secs(30);
            while !caller.is_finished() {
                assert!(Instant::now() < deadline, "{at}: a call hangs");
                std::thread::sleep(Duration::from_millis(1));
            }
            let (answers, acked) = caller.join().expect("no call panics");
            let failed = answers.iter().position(Result::is_err);
            assert_eq!(failed.is_some(), disk.with(|fp| fp.crashed()), "{at}");
            if let Some(first) = failed {
                let sticky = Err(ErrorKind::BrokenPipe);
                assert!(answers[first..].iter().all(|a| *a == sticky), "{at}");
            }

            disk.with(|fp| fp.disarm());
            let recovered = Router::recover(Box::new(disk))
                .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            let prefix = recovered.assignments().len();
            assert!(
                prefix <= acked.len() + 1,
                "{at}: {prefix} of {}",
                acked.len()
            );
            for (i, tx) in txs.iter().enumerate() {
                let held = recovered.shard_of(tx.id());
                if i >= prefix || retention == RetentionPolicy::Unbounded {
                    assert_eq!(held.is_some(), i < prefix, "{at}: no prefix at {i}");
                }
                if let (Some(held), Some(&ack)) = (held, acked.get(i)) {
                    assert_eq!(held, ack, "{at}: tx {i} moved");
                }
            }
        }
    }
}

/// Takes `door` of a bare router, 0–3 placing `tx` (`submit`,
/// `submit_tx`, `submit_tx_in`, `adopt_remote`), 4–6 changing no
/// placement (a telemetry change, `flush_journal`, `checkpoint_now`).
/// Returns the shard a placing door acked.
fn through_door(
    router: &mut Router,
    session: &mut PlacementSession,
    door: usize,
    tx: &Transaction,
) -> std::io::Result<Option<ShardId>> {
    let (txid, inputs) = (tx.id(), tx.input_txids());
    let shard = (txid.0 % 4) as u32;
    match door {
        0 => router.submit(txid, &inputs).map(Some),
        1 => router.submit_tx(tx).map(Some),
        2 => router.submit_tx_in(session, tx).map(Some),
        3 => router
            .adopt_remote(txid, &inputs, shard)
            .map(|()| Some(ShardId(shard))),
        4 => {
            let mut board = vec![optchain::core::DEFAULT_TELEMETRY; 4];
            board[shard as usize] = ShardTelemetry::new(0.1, 1.0 + txid.0 as f64);
            router.try_feed_telemetry(&board).map(|()| None)
        }
        5 => router.flush_journal().map(|()| None),
        _ => router.checkpoint_now().map(|()| None),
    }
}

/// A bare durable router whose journal dies refuses from then on. Warm
/// started, then driven through every mutating door in turn and killed
/// at each of its first 200 mutating storage operations, under each
/// retention policy: every later call of every door (resubmissions of
/// the failing and of an acked id included) returns the first error's
/// kind, the placements and the journal stop changing, reads keep
/// working, and the journal recovers a prefix of the stream that holds
/// every acked id on its acked shard.
#[test]
fn a_failed_router_refuses_every_mutating_door() {
    let txs = stream(160, 6);
    let (history, live) = txs.split_at(40);
    let tan = TanGraph::from_transactions(history.iter());
    let warm: Vec<u32> = (0..40).map(|i| i % 4).collect();
    let policies = [
        RetentionPolicy::Unbounded,
        RetentionPolicy::WindowTxs(64),
        RetentionPolicy::KeepUnspentAndHubs { min_degree: 2 },
    ];
    for retention in policies {
        for kill in 0..200u64 {
            let at = format!("{retention:?}, kill {kill}");
            let idle = FailpointStorage::new(MemStorage::new(), u64::MAX, 0, TailDamage::None);
            let disk = SharedStorage::new(idle);
            let mut router = Router::builder()
                .shards(4)
                .retention(retention)
                .checkpoint_every(16)
                .flush_every(1)
                .storage(Box::new(disk.clone()))
                .build();
            // Counted from after the meta blob. Every ack is flushed, so
            // at most the failing call's record is buffered at the kill;
            // every other run it reaches the disk.
            disk.with(|fp| fp.arm(kill, kill as usize % 2, TailDamage::None));
            let mut session = router.session();
            // The shard of each acked transaction, in stream order.
            let mut acked: Vec<ShardId> = Vec::new();
            let mut failure = router.warm_start_history(&tan, &warm).err();
            if failure.is_none() {
                acked.extend(warm.iter().map(|&shard| ShardId(shard)));
            }
            let (mut next, mut doors) = (0, (0..7).cycle());
            while let (None, Some(tx)) = (&failure, live.get(next)) {
                let door = doors.next().expect("cycles");
                match through_door(&mut router, &mut session, door, tx) {
                    Ok(placed) => {
                        acked.extend(placed);
                        next += usize::from(door < 4);
                    }
                    Err(e) => failure = Some(e),
                }
            }
            let kind = failure
                .unwrap_or_else(|| panic!("{at}: the kill fires"))
                .kind();
            assert_eq!(kind, ErrorKind::BrokenPipe, "{at}");
            assert_eq!(router.failure(), Some(kind), "{at}");

            // The failing transaction, the one after it and an acked id,
            // at every door: the failure's kind, never `AlreadyExists`.
            let placed = router.assignments().len();
            let bytes = router.journal_bytes();
            for tx in [&live[next], &live[next + 1], &txs[0]] {
                for door in 0..7 {
                    let answer = through_door(&mut router, &mut session, door, tx);
                    assert_eq!(answer.map_err(|e| e.kind()), Err(kind), "{at}");
                }
            }
            let warmed = router.warm_start_history(&tan, &warm);
            assert_eq!(warmed.map_err(|e| e.kind()), Err(kind), "{at}");
            let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                router.submit_batch(&live[next..next + 2], &mut Vec::new())
            }));
            assert!(
                batch.is_err(),
                "{at}: the bulk door panics with the failure"
            );
            assert_eq!(router.assignments().len(), placed, "{at}");
            assert_eq!(router.journal_bytes(), bytes, "{at}");
            for (tx, &shard) in txs.iter().zip(&acked) {
                if let Some(held) = router.shard_of(tx.id()) {
                    assert_eq!(held, shard, "{at}: a read moved {:?}", tx.id());
                }
            }
            // What the router answered, and then the failing call's own
            // placement, which only a bare router's read can name.
            let answered: Vec<ShardId> = acked
                .iter()
                .copied()
                .chain(router.shard_of(live[next].id()))
                .collect();

            drop(router);
            disk.with(|fp| fp.disarm());
            let recovered = Router::recover(Box::new(disk))
                .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            let prefix = recovered.assignments().len();
            assert!(
                acked.len() <= prefix && prefix <= placed,
                "{at}: {prefix} recovered, {} acked, {placed} placed",
                acked.len()
            );
            for (i, tx) in txs.iter().enumerate() {
                let held = recovered.shard_of(tx.id());
                if retention == RetentionPolicy::Unbounded {
                    assert_eq!(held.is_some(), i < prefix, "{at}: no prefix at {i}");
                }
                if let (Some(held), Some(&was)) = (held, answered.get(i)) {
                    assert_eq!(held, was, "{at}: tx {i} moved");
                }
            }
        }
    }
}

/// A durable warm start ends in a snapshot at journal position 0:
/// killed at every record after it, recovery equals the uncrashed
/// router over the surviving prefix and keeps deciding like it.
#[test]
fn a_warm_started_router_recovers_at_every_kill_point() {
    let txs = stream(400, 4);
    let (history, live) = txs.split_at(200);
    let tan = TanGraph::from_transactions(history.iter());
    let warm: Vec<u32> = (0..200).map(|i| i % 4).collect();
    let warmed = |builder: RouterBuilder| {
        let mut router = builder.shards(4).build();
        router.warm_start_history(&tan, &warm).unwrap();
        router
    };
    for kill in 0u64.. {
        let idle = FailpointStorage::new(MemStorage::new(), u64::MAX, 0, TailDamage::None);
        let disk = SharedStorage::new(idle);
        let builder = Router::builder().checkpoint_every(64).flush_every(8);
        let mut router = warmed(builder.storage(Box::new(disk.clone())));
        disk.with(|fp| fp.arm(kill, 0, TailDamage::None));
        let acked = live
            .iter()
            .take_while(|tx| router.submit_tx(tx).is_ok())
            .count();
        if !disk.with(|fp| fp.crashed()) {
            assert!(kill > live.len() as u64, "a kill after every record");
            break;
        }
        disk.with(|fp| fp.disarm());
        let recovered = Router::recover(Box::new(disk));
        let mut recovered = recovered.unwrap_or_else(|e| panic!("kill {kill}: {e}"));
        let survived = recovered.assignments().len() - history.len();
        assert!(survived <= acked + 1, "kill {kill}: {survived} of {acked}");
        let mut reference = warmed(Router::builder());
        for tx in &live[..survived] {
            reference.submit_tx(tx).unwrap();
        }
        for tx in &live[survived..] {
            assert_eq!(
                recovered.submit_tx(tx).unwrap(),
                reference.submit_tx(tx).unwrap()
            );
            assert_eq!(scores(&recovered), scores(&reference), "kill {kill}");
        }
    }
}

/// `RouterBuilder::open` is the one door that builds or reopens a
/// router. Over a journal written by the same configuration, `build`
/// recovers exactly what `Router::recover` does, and both keep deciding
/// alike; over a journal written by another configuration, `open`
/// returns `InvalidInput` before recovering anything, and a fleet
/// builder's `build` panics with that message.
#[test]
fn the_builder_reopens_only_the_journal_its_configuration_wrote() {
    let txs = stream(600, 9);
    let (first, rest) = txs.split_at(400);
    let spec = || {
        Router::builder()
            .shards(4)
            .retention(RetentionPolicy::WindowTxs(256))
            .checkpoint_every(64)
            .flush_every(8)
    };
    let disk = SharedStorage::new(MemStorage::new());
    let mut writer = spec().storage(Box::new(disk.clone())).build();
    for tx in first {
        writer.submit_tx(tx).unwrap();
    }
    writer.flush_journal().unwrap();
    drop(writer);
    let copy = || Box::new(SharedStorage::new(disk.with(|m| m.clone())));

    let mut reopened = spec().storage(copy()).build();
    let mut recovered = Router::recover(copy()).unwrap();
    assert_eq!(reopened.assignments().len(), first.len());
    for tx in first {
        assert_eq!(reopened.shard_of(tx.id()), recovered.shard_of(tx.id()));
    }
    for tx in rest {
        assert_eq!(
            reopened.submit_tx(tx).unwrap(),
            recovered.submit_tx(tx).unwrap()
        );
        assert_eq!(scores(&reopened), scores(&recovered));
    }

    let others: [fn(RouterBuilder) -> RouterBuilder; 4] = [
        |b| b.shards(8),
        |b| b.retention(RetentionPolicy::Unbounded),
        |b| b.flush_every(16),
        |b| b.strategy(Strategy::T2s),
    ];
    let untouched = disk.with(|m| m.clone());
    for other in others {
        let err = other(spec())
            .storage(Box::new(disk.clone()))
            .open()
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("another configuration"), "{err}");
    }
    assert_eq!(disk.next_seq(), untouched.next_seq());
    assert_eq!(disk.meta().unwrap(), untouched.meta().unwrap());

    let fleet =
        std::panic::catch_unwind(|| RouterFleet::builder().shards(8).storage(copy()).build());
    let panic = fleet.expect_err("a k = 4 journal opened by a k = 8 fleet");
    let message = panic.downcast_ref::<String>().unwrap();
    assert!(message.contains("another configuration"), "{message}");
}
