//! Snapshot round-trip property: snapshot → drop → `Router::recover` →
//! continued stream is **bit-identical** to the uninterrupted stream —
//! for a single [`Router`] driven through per-client
//! [`PlacementSession`]s under a changing telemetry feed (session L2S
//! memo state included: the restored board version keeps the memo
//! epochs aligned), and for a [`RouterFleet`] driving the detached bulk
//! path: drop → rebuild over the same [`SharedStorage`] handle.

mod common;
use common::{build_stream, in_ram, restart, seeded_stream, stream_strategy};

use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

use optchain_core::{
    MemStorage, PlacementSession, RetentionPolicy, Router, RouterFleet, ShardTelemetry,
    SharedStorage, Storage,
};
use optchain_utxo::Transaction;

/// Telemetry for epoch `e`: a rolling hotspot, always distinct from the
/// previous epoch's values.
fn telemetry_at(e: u64, k: u32) -> Vec<ShardTelemetry> {
    (0..k)
        .map(|j| {
            if u64::from(j) == e % u64::from(k) {
                ShardTelemetry::new(0.1, 1.0 + e as f64)
            } else {
                ShardTelemetry::new(0.1, 0.5)
            }
        })
        .collect()
}

/// Drives `txs[offset..][..]` into `router` through round-robin client
/// sessions, feeding fresh telemetry every 13 transactions and
/// refreshing each session's view lazily (the simulator's discipline),
/// so every view equals the board — what a durable router can replay.
/// Returns the chosen shards.
fn drive_sessions(
    router: &mut Router,
    sessions: &mut [PlacementSession],
    txs: &[Transaction],
    offset: usize,
    k: u32,
) -> Vec<u32> {
    txs.iter()
        .enumerate()
        .map(|(i, tx)| {
            let at = offset + i;
            if at.is_multiple_of(13) {
                router.feed_telemetry(&telemetry_at(at as u64 / 13, k));
            }
            let session = &mut sessions[at % sessions.len()];
            if session.view_version() != Some(router.telemetry_version()) {
                let view = router.telemetry().to_vec();
                session.set_view(&view, router.telemetry_version());
            }
            router.submit_tx_in(session, tx).unwrap().0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Router: the continued stream and the session memo accounting are
    /// bit-identical across a checkpoint. Sessions are owned by the
    /// clients, so the *same* session objects (memo state and all) keep
    /// serving the restored router — the restored telemetry board and
    /// version are what keep their memo epochs truthful.
    #[test]
    fn router_roundtrip_preserves_stream_and_session_memos(
        recipe in stream_strategy(200),
        k in 1u32..9,
        clients in 1usize..4,
        cut_pct in 0u32..100,
    ) {
        let txs = build_stream(&recipe);
        let cut = txs.len() * cut_pct as usize / 100;

        let mut continuous = Router::builder().shards(k).build();
        let mut continuous_sessions: Vec<_> =
            (0..clients).map(|_| continuous.session()).collect();
        let expected = drive_sessions(&mut continuous, &mut continuous_sessions, &txs, 0, k);

        let (mut prefix_router, storage) = in_ram(Router::builder().shards(k));
        let mut sessions: Vec<_> = (0..clients).map(|_| prefix_router.session()).collect();
        let mut got = drive_sessions(&mut prefix_router, &mut sessions, &txs[..cut], 0, k);
        let mut resumed = restart(prefix_router, &storage);
        got.extend(drive_sessions(&mut resumed, &mut sessions, &txs[cut..], cut, k));

        prop_assert_eq!(expected, got, "cut {}", cut);
        prop_assert_eq!(resumed.assignments(), continuous.assignments());
        for (a, b) in continuous_sessions.iter().zip(&sessions) {
            prop_assert_eq!(a.l2s_memo_stats(), b.l2s_memo_stats());
        }
    }

    /// Fleet: the detached bulk path round-trips through a drop and a
    /// rebuild over the same in-RAM storage backend bit-identically,
    /// resuming the global sequence numbering.
    #[test]
    fn fleet_roundtrip_preserves_detached_stream(
        recipe in stream_strategy(200),
        k in 1u32..9,
        cut_pct in 0u32..100,
    ) {
        let txs: std::sync::Arc<[Transaction]> = build_stream(&recipe).into();
        let cut = txs.len() * cut_pct as usize / 100;
        let builder = || RouterFleet::builder().shards(k);
        // Chunks of 5 round-robin across two client handles; chunk
        // boundaries are *global* stream positions so the prefix and
        // suffix runs partition transactions exactly like the
        // uninterrupted run.
        let drive = |fleet: &RouterFleet, range: std::ops::Range<usize>| {
            let handles = [fleet.handle(0), fleet.handle(1)];
            if !range.is_empty() {
                for chunk in (range.start / 5)..=((range.end - 1) / 5) {
                    let lo = (chunk * 5).max(range.start);
                    let hi = (chunk * 5 + 5).min(range.end);
                    let _ = handles[chunk % 2].submit_batch_detached(&txs, lo..hi);
                }
            }
            let mut results: Vec<(u64, u32)> = handles
                .iter()
                .flat_map(|h| h.drain())
                .map(|(seq, s)| (seq, s.0))
                .collect();
            results.sort_by_key(|(seq, _)| *seq);
            results
        };

        let continuous = builder().build();
        let expected = drive(&continuous, 0..txs.len());

        let storage = SharedStorage::new(MemStorage::new());
        let prefix_fleet = builder().storage(Box::new(storage.clone())).build();
        let mut got = drive(&prefix_fleet, 0..cut);
        drop(prefix_fleet);

        let resumed = builder().storage(Box::new(storage)).build();
        prop_assert_eq!(resumed.submitted(), cut as u64);
        got.extend(drive(&resumed, cut..txs.len()));

        prop_assert_eq!(expected, got, "cut {}", cut);
    }
}

/// The snapshot body is a persisted format: its bytes over one seeded
/// stream are pinned per retention policy (length and CRC32 of the
/// checkpoint blob a durable router installs, which is the body), so a
/// change to how the windowed state is held cannot move a byte
/// unnoticed. The last arm's ring is still warming: it holds live rows
/// only. Version 4 appended nine bytes to version 3's body (an absent
/// rebalancer tag and the cross-placement count); stripping them and
/// writing byte 0 back to 3 gives version 3's pins.
#[test]
fn snapshot_body_bytes_are_pinned_per_policy() {
    let txs = seeded_stream(12_000, 30, 7);
    let body_of = |policy: RetentionPolicy| {
        let storage = SharedStorage::new(MemStorage::new());
        let mut router = Router::builder()
            .shards(4)
            .retention(policy)
            .storage(Box::new(storage.clone()))
            .build();
        router.submit_batch(&txs, &mut Vec::new());
        router.checkpoint_now().unwrap();
        let (_, body) = storage.checkpoint().unwrap().expect("just installed");
        (body.len(), optchain_storage::crc32(&body))
    };
    let policies = [
        RetentionPolicy::Unbounded,
        RetentionPolicy::WindowTxs(1_000),
        RetentionPolicy::KeepUnspentAndHubs { min_degree: 3 },
        RetentionPolicy::WindowTxs(20_000),
    ];
    assert_eq!(
        policies.map(body_of),
        [
            (555_196, 0xCA9D_3A78),
            (46_472, 0x4E23_882B),
            (421_752, 0x416D_E8F4),
            (555_204, 0xC36E_7E85)
        ]
    );
}
