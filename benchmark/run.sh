#!/usr/bin/env bash
# The repo benchmark's one command (README.md).
#
#   benchmark/run.sh                     four workloads, end-to-end metrics
#   benchmark/run.sh --trace             the traced run: per-layer metrics
#   benchmark/run.sh --selfcheck         two sets back to back, against the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one run; last stdout line is the result
#   benchmark/run.sh --catalog           print BENCHMARK.json
#
# Flags: --workload NAME|all  --seed N  --seconds S  --repeats N  --trace [0|1]
#        --smoke  --out DIR  --selfcheck
#
# Builds the harness from source (offline, release) and exits non-zero on a
# failed build, a failed operation or a failed output check.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's own output goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/optchain-benchmark"

# One named workload without --repeats/--selfcheck is one run of the
# binary; everything else is a set of runs, aggregated by report.py.
single=0
repeated=0
prev=""
for arg in "$@"; do
    case "$arg" in
        --catalog) exec "$bin" --catalog ;;
        --selfcheck | --repeats) repeated=1 ;;
    esac
    if [ "$prev" = "--workload" ] && [ "$arg" != "all" ]; then
        single=1
    fi
    prev="$arg"
done
if [ "$single" = 1 ] && [ "$repeated" = 0 ]; then
    exec "$bin" "$@"
fi
exec python3 benchmark/report.py --bin "$bin" "$@"
