#!/usr/bin/env bash
# Local mirror of the CI `lint`, `test`, `wal-soak`, `service-gates`,
# and `rebalance-gates` jobs — one command to run before pushing (see
# .github/workflows/ci.yml; the `perf-gates` smoke is covered by
# `scripts/bench.sh` + `scripts/bench_compare.py`).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings -D deprecated"
cargo clippy --all-targets -- -D warnings -D deprecated

echo "==> scripts/ratchet.sh (no deprecated shims, no naive re-exports, crates/core size ceiling)"
scripts/ratchet.sh

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo build --release --all-targets"
cargo build --release --all-targets

echo "==> cargo test -q"
cargo test -q

# The crash matrix (proptest kill-point sweep) already ran inside
# `cargo test -q`; the ignored scale soak chains three kill/recover
# cycles over 100k txs and needs release mode to stay fast.
echo "==> cargo test --release -p optchain-core --test wal_golden -- --ignored (WAL soak)"
cargo test --release -p optchain-core --test wal_golden -- --ignored

# Delta-checkpoint smoke (mirrors the wal-soak job's final step): the
# durability arm alone at a delta-heavy cadence, gated by the wal-mode
# bench_compare checks — disk_factor <= 3.0, recovery bit-identity,
# and deltas measurably smaller than full snapshots.
echo "==> perf_baseline --wal --full-every 8 + bench_compare --mode wal (delta smoke)"
wal_smoke="$(mktemp /tmp/wal_smoke.XXXXXX.json)"
./target/release/perf_baseline --txs 50000 --k 16 \
  --min-speedup 0 --min-router-ratio 0 \
  --retention-window 10000 \
  --wal --min-wal-ratio 0 --full-every 8 --out "$wal_smoke"
python3 scripts/bench_compare.py --mode wal \
  --baseline BENCH_placement.json --smoke "$wal_smoke"
rm -f "$wal_smoke"

# Serving-path smoke (mirrors the CI `service-gates` job): loopback
# loadgen against the TCP placement server, then the service-mode
# bench_compare gates — zero lost acks, typed shedding under overload,
# p99 within the queue-derived bound.
echo "==> loadgen --smoke + bench_compare --mode service (service gates)"
service_smoke="$(mktemp /tmp/service_smoke.XXXXXX.json)"
./target/release/loadgen --smoke --out "$service_smoke"
python3 scripts/bench_compare.py --mode service \
  --baseline BENCH_service.json --smoke "$service_smoke"
rm -f "$service_smoke"

# Dynamic re-sharding smoke (mirrors the CI `rebalance-gates` job):
# hot-spot workload, static vs rebalanced arm, then the rebalance-mode
# bench_compare gates — the gated arm must beat static on both the
# cross-tx ratio and max-shard utilization, stay within its per-epoch
# byte budget, and replay deterministically.
echo "==> rebalance_curve --smoke + bench_compare --mode rebalance (rebalance gates)"
rebalance_smoke="$(mktemp /tmp/rebalance_smoke.XXXXXX.json)"
./target/release/rebalance_curve --smoke --out "$rebalance_smoke"
python3 scripts/bench_compare.py --mode rebalance \
  --baseline BENCH_rebalance.json --smoke "$rebalance_smoke"
rm -f "$rebalance_smoke"

echo "ci_check: all lint + test + crash-soak + delta-smoke + service + rebalance gates passed"
