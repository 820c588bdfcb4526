#!/usr/bin/env bash
# Deletion ratchet (CI `lint` job and scripts/ci_check.sh): what PRs
# 12–14 removed must not grow back. Fails on any deprecation shim under
# crates/, on the seed's naive oracle reappearing in optchain_core's
# root or the facade prelude, on the custom-placer arm reappearing in
# optchain_core, on RouterFleetBuilder growing past its ten pub fns,
# on a second way for state to come back (fleet snapshots, adopted-id
# replay, a second checkpoint encoder, the simulator's fleet arm), on
# the TaN graph's compacting rebuild reappearing beside row retirement,
# on the service path's remember-everything dedup set or its
# Vec-per-transaction rows reappearing beside `TxRows`, on a second
# duplicate check beside the graph's own index (the server's duplicate
# guard, the fleet's eviction horizon, the `Duplicate` reject or its
# `dedup_` gauges), on a second placement hop in the server (its
# per-connection fleet handles, or the detached row door and pipelined
# drain only that hop used: the dispatcher owns the one Router), on the
# second measuring system (perf_baseline, loadgen,
# bench_compare.py, the BENCH_*.json baselines, the alloc-count feature)
# reappearing beside benchmark/ and scripts/bench_gate.py, on the
# delta-checkpoint writer, its staging buffer or the per-transaction
# Submit tag reappearing beside the snapshot + WAL-tail recovery, on a
# second window (the wallet type, the score-only engine constructor and
# builder knob) or a second statement of the survivor rule reappearing
# beside RetentionPolicy / WindowedRows, on a second TxId index (a
# `HashMap<TxId, ...>`) beside TxIndex under crates/tan/src, on a
# per-figure binary beside `reproduce` (a table or figure is a row of
# optchain_bench::figures::FIGURES), on a checkpoint envelope or its
# zero-run codec reappearing beside the snapshot body (a checkpoint is
# its body), on the fleet's cross-sync replication (its message,
# barrier, sync marks, pending-delta recovery or deferred checkpoints)
# reappearing beside the one router, on a thread, channel or spawn
# reappearing in crates/core/src/fleet.rs or an `optchain-fleet` thread
# anywhere under crates/ (a fleet is one Router behind one lock), on a
# copy of the router's failure (a `failed` flag or an `ErrorKind` kept
# in the fleet, the server's dispatcher or its admission state: a failed
# Router refuses by itself), on a
# second restore door
# or its special cases (an in-RAM snapshot/restore pair, a second
# snapshot producer, the public snapshot type, the storage × rebalancer
# builder panic) beside Router::recover, on a second door that builds a
# router beside RouterBuilder::open (the fleet builder's TryFrom, or a
# panic on a backend that holds a journal), on the no-op serde shims coming
# back into a manifest, on a second write path beside SegmentWal's
# writer thread (more durable calls in wal.rs than the writer, open_with
# and crash make, or a synchronous mode), on a binary search in the
# workload's samplers beside their one guided inverse CDF
# (crates/workload/src/dist.rs), on a second numeric integrator in
# crates/core/src/l2s.rs beside the per-class one, and on crates/core,
# crates/core/src/fleet.rs, crates/bench or crates/tan/src/graph.rs
# outgrowing its ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lower this when a PR shrinks crates/core; never raise it to fit one.
core_ceiling=10282
# One Router behind one lock: the shared state, the builder wrapping a
# RouterBuilder, the handles and their tests.
fleet_ceiling=691
# New graph tests live under crates/tan/tests/; the TxId index lives in
# crates/tan/src/index.rs, spender storage in crates/tan/src/spenders.rs.
graph_ceiling=1345
# The `reproduce` driver and its renderers, `rebalance_curve`, the naive
# oracle and the four criterion benches; what measures the system lives
# under benchmark/.
bench_ceiling=1785

# `sync_data(` / `sync_all(` / `fs::rename(` in crates/storage/src/wal.rs:
# the writer's batch fdatasync, segment creation, blob install and
# directory fsync; open_with's torn-tail truncation; crash's last write.
wal_sync_ceiling=7

rust_lines() { find "$1" -name '*.rs' -print0 | xargs -0 cat | wc -l; }

fail=0
if grep -rnE '#\[deprecated|allow\(deprecated\)' crates/ --include='*.rs'; then
    echo "ratchet: deprecated items or allow(deprecated) under crates/" >&2
    fail=1
fi
if grep -ni naive crates/core/src/lib.rs; then
    echo "ratchet: 'naive' in crates/core/src/lib.rs" >&2
    fail=1
fi
if sed -n '/^pub mod prelude {/,/^}/p' crates/optchain/src/lib.rs | grep -i naive; then
    echo "ratchet: 'naive' in optchain::prelude" >&2
    fail=1
fi
if grep -rnE 'DynPlacer::Custom|fn custom\(' crates/core/src; then
    echo "ratchet: the custom-placer arm is back under crates/core/src" >&2
    fail=1
fi
if grep -rnE 'FleetSnapshot|warm_start_adopted|encode_checkpoint_into|run_with_fleet' crates/ --include='*.rs'; then
    echo "ratchet: a deleted way of restoring state is back under crates/" >&2
    fail=1
fi
if grep -rnE 'compact_rows|kept_above_base|dead_rows' crates/tan/; then
    echo "ratchet: the TaN graph's compacting rebuild is back under crates/tan/" >&2
    fail=1
fi
if grep -nE 'HashSet<u64>|Vec<\(TxId, Vec<TxId>\)>' crates/server/src/server.rs crates/core/src/fleet.rs; then
    echo "ratchet: an unbounded dedup set or per-transaction Vec rows are back on the service path" >&2
    fail=1
fi
# The graph's index is the one duplicate check: a resubmitted live id is
# acked with the shard it holds, so nothing else tracks which ids exist.
if [ -e crates/server/src/guard.rs ] || grep -rnE 'eviction_horizon|dedup_' crates/ ||
    sed -n '/^pub enum RejectReason {/,/^}/p' crates/server/src/protocol.rs | grep -n 'Duplicate'; then
    echo "ratchet: a second duplicate check is back; the graph's index is the one" >&2
    fail=1
fi
# The server's dispatcher is its placement thread: it owns the one Router
# (opened by `RouterBuilder::open`), so nothing there names the fleet,
# and the doors only that hop used stay deleted.
if grep -rnE 'FleetHandle|RouterFleet::|PendingDrain' crates/server/src/; then
    echo "ratchet: the server names the fleet again; its dispatcher owns the one Router" >&2
    fail=1
fi
# `RouterBuilder::open` is the one door that builds or reopens a router:
# no second build door beside it, and no panic on a backend that holds
# a journal (open recovers it, or refuses one another configuration
# wrote).
if grep -rnE 'TryFrom<RouterFleetBuilder>|Router::try_from\(' crates/ ||
    grep -rn 'already holds a journal' crates/core/src; then
    echo "ratchet: a second door builds a router; RouterBuilder::open is the one" >&2
    fail=1
fi
if grep -rnE 'drain_later|submit_detached|PendingDrain' crates/; then
    echo "ratchet: the detached row door or the pipelined drain is back under crates/" >&2
    fail=1
fi
if grep -rnE 'perf_baseline|loadgen|bench_compare|BENCH_(placement|service|rebalance)|alloc-count' \
    crates/ scripts/ .github/ docs/ tests/ examples/ PERF.md --exclude=ratchet.sh; then
    echo "ratchet: the old measuring system is named again; benchmark/ is the one instrument" >&2
    fail=1
fi
if grep -rnE 'put_checkpoint_delta|CHECKPOINT_DELTA_VERSION|staged_records|TAG_SUBMIT\b' \
    crates/core/src crates/storage/src/{wal,mem,failpoint,shared}.rs; then
    echo "ratchet: a second copy of journaled bytes (delta checkpoints, their staging, the per-tx Submit tag) is back" >&2
    fail=1
fi
if grep -rnE 'SpvWallet|pub fn with_window' crates/ || grep -nE 'fn window\(' crates/core/src/router.rs; then
    echo "ratchet: a second window is back beside RouterBuilder::retention" >&2
    fail=1
fi
# The differential models under crates/*/tests restate the rule on purpose.
rule='== 0 \|\| .* >= \*?min_degree'
if grep -rnE "$rule" crates/*/src | grep -v '^crates/tan/src/retain.rs:' ||
    [ "$(grep -cE "$rule" crates/tan/src/retain.rs)" -ne 1 ]; then
    echo "ratchet: the survivor rule is written somewhere other than RetentionPolicy::keeps" >&2
    fail=1
fi
if grep -rnE 'zrle|CHECKPOINT_ZRLE_VERSION' crates/ docs/ PERF.md; then
    echo "ratchet: the checkpoint envelope or its codec is back; a checkpoint is its snapshot body" >&2
    fail=1
fi
if grep -rnE 'Msg::Sync\b|struct Exchange|fn sync_now|journal_sync_mark|recover_with_pending|PendingDelta|TAG_SYNC_MARK|auto_checkpoint' \
    crates/core/src; then
    echo "ratchet: TaN cross-sync is back; a fleet is one router (its decisions are one sequence)" >&2
    fail=1
fi
# Every fleet call places on its caller's thread under the one lock:
# there is no placement thread to queue to, join or lose.
if grep -nE 'std::thread|mpsc|JoinHandle|spawn\(' crates/core/src/fleet.rs ||
    grep -rn 'optchain-fleet' crates/; then
    echo "ratchet: a fleet thread or channel is back; a fleet is one Router behind one lock" >&2
    fail=1
fi
# A journal error is the Router's own sticky state (`Router::failure`):
# the fleet and the server read it and keep no copy.
if grep -nE '^ *failed:|let (mut )?failed\b|Option<(io::)?ErrorKind>' \
    crates/core/src/fleet.rs crates/server/src/server.rs ||
    sed -n '/^fn dispatcher_loop(/,/^}/p' crates/server/src/server.rs | grep -nE 'failed *=[^=]' ||
    sed -n '/^struct AdmissionState {/,/^}/p' crates/server/src/server.rs | grep -n 'failed'; then
    echo "ratchet: a copy of the router's failure outside it; Router::failure is the one" >&2
    fail=1
fi
if grep -rnE 'fn snapshot\(&self\)|to_snapshot|assert_journalable|pub use snapshot::RouterSnapshot' crates/core/src ||
    grep -rn 'RouterSnapshot' crates/optchain/src; then
    echo "ratchet: a second way for a router's state to come back; Router::recover is the one door" >&2
    fail=1
fi
if find . -name Cargo.toml -not -path '*/target/*' -print0 | xargs -0 grep -n serde; then
    echo "ratchet: serde is named in a manifest; the no-op derive shims are gone" >&2
    fail=1
fi
if grep -rn 'HashMap<TxId' crates/tan/src; then
    echo "ratchet: a second TxId index under crates/tan/src; TxIndex is the one" >&2
    fail=1
fi
extra_bins=$(find crates/bench/src/bin -type f ! -path crates/bench/src/bin/reproduce.rs \
    ! -path crates/bench/src/bin/rebalance_curve.rs)
if [ -n "$extra_bins" ]; then
    echo "$extra_bins"
    echo "ratchet: a binary beside reproduce and rebalance_curve; add a row to figures::FIGURES instead" >&2
    fail=1
fi
graph_lines=$(wc -l < crates/tan/src/graph.rs)
if [ "$graph_lines" -gt "$graph_ceiling" ]; then
    echo "ratchet: crates/tan/src/graph.rs is $graph_lines lines, ceiling $graph_ceiling" >&2
    fail=1
fi
fleet_lines=$(wc -l < crates/core/src/fleet.rs)
if [ "$fleet_lines" -gt "$fleet_ceiling" ]; then
    echo "ratchet: crates/core/src/fleet.rs is $fleet_lines lines, ceiling $fleet_ceiling" >&2
    fail=1
fi
# shards, strategy, retention, expected_total, rebalancer, workers,
# sync_interval, partitioner, storage + build.
fleet_builder_fns=$(sed -n '/^impl RouterFleetBuilder {/,/^}/p' crates/core/src/fleet.rs | grep -c '^    pub fn ')
if [ "$fleet_builder_fns" -gt 10 ]; then
    echo "ratchet: RouterFleetBuilder has $fleet_builder_fns pub fns, ceiling 10" >&2
    fail=1
fi
core_lines=$(rust_lines crates/core)
if [ "$core_lines" -gt "$core_ceiling" ]; then
    echo "ratchet: crates/core is $core_lines lines of Rust, ceiling $core_ceiling" >&2
    fail=1
fi
wal_syncs=$(grep -cE 'sync_data\(|sync_all\(|fs::rename\(' crates/storage/src/wal.rs)
if [ "$wal_syncs" -gt "$wal_sync_ceiling" ]; then
    grep -nE 'sync_data\(|sync_all\(|fs::rename\(' crates/storage/src/wal.rs
    echo "ratchet: crates/storage/src/wal.rs makes $wal_syncs durable calls, ceiling $wal_sync_ceiling; the writer thread is the one write path" >&2
    fail=1
fi
if grep -rnE 'open_sync|sync_mode|SyncMode|synchronous: bool' crates/storage/src; then
    echo "ratchet: a synchronous mode beside SegmentWal's writer thread" >&2
    fail=1
fi
if grep -n binary_search crates/workload/src/dist.rs; then
    echo "ratchet: a binary search in crates/workload/src/dist.rs; the guided walk is the one inverse CDF" >&2
    fail=1
fi
# `E[max]` has one numeric integral, `Scratch::numeric`, which evaluates
# each distinct telemetry class once per Simpson sample.
if [ "$(grep -cE 'let steps = ' crates/core/src/l2s.rs)" -gt 1 ]; then
    grep -nE 'let steps = ' crates/core/src/l2s.rs
    echo "ratchet: a second numeric integrator in crates/core/src/l2s.rs; Scratch::numeric is the one" >&2
    fail=1
fi
bench_lines=$(rust_lines crates/bench)
if [ "$bench_lines" -gt "$bench_ceiling" ]; then
    echo "ratchet: crates/bench is $bench_lines lines of Rust, ceiling $bench_ceiling" >&2
    fail=1
fi
exit "$fail"
