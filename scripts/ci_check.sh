#!/usr/bin/env bash
# Local mirror of the CI `lint`, `test`, `wal-soak` and `bench-gates`
# jobs — one command to run before pushing (see
# .github/workflows/ci.yml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings -D deprecated"
cargo clippy --all-targets -- -D warnings -D deprecated

echo "==> scripts/ratchet.sh (what was deleted stays deleted; size ceilings)"
scripts/ratchet.sh

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> cargo build --release --all-targets"
cargo build --release --all-targets

echo "==> cargo test -q"
cargo test -q

# The crash matrix (proptest kill-point sweep) already ran inside
# `cargo test -q`; the ignored scale soak chains three kill/recover
# cycles over 100k txs (and holds the journal O(window), snapshots at
# the documented positions) and needs release mode to stay fast.
echo "==> cargo test --release -p optchain-core --test wal_golden -- --ignored (WAL soak)"
cargo test --release -p optchain-core --test wal_golden -- --ignored

# The storage crate's own tests (the WAL writer's hand-off, Drop and
# sticky-failure tests) in the build mode the benchmark runs.
echo "==> cargo test --release -p optchain-storage"
cargo test --release -p optchain-storage

# The frozen benchmark's smoke run: builds benchmark/, every output
# check, the pinned exact counts, the allocation limits. No timing.
echo "==> scripts/bench_gate.py (benchmark/run.sh --smoke, untraced + traced)"
python3 scripts/bench_gate.py

# Dynamic re-sharding smoke: exits 1 unless the rebalanced arm beats
# static on both axes, within its byte budget, deterministically.
echo "==> rebalance_curve --smoke"
./target/release/rebalance_curve --smoke

echo "ci_check: lint + test + WAL soak + bench gates + rebalance smoke passed"
