#!/usr/bin/env python3
"""CI gate on the frozen benchmark's smoke run (the `bench-gates` job).

Builds `benchmark/` and runs `benchmark/run.sh --smoke --workload all`,
untraced and with `--trace`, at the seed recorded in
`scripts/bench_smoke_counts.json`. Fails on:

* a failed build, operation or output check (run.sh's exit code);
* any exact-count metric differing from `bench_smoke_counts.json`. The
  stream, the node and every decision are deterministic per seed, so a
  changed count is a changed behaviour: re-record it on purpose and say
  why, exactly like re-pinning a golden. On a mismatch the observed
  object is printed, ready to paste;
* an allocation rate above its limit.

It gates no timing: wall-clock is defended by the alternating-pair
protocol in benchmark/README.md ("Comparing two commits").
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "scripts" / "bench_smoke_counts.json"
EXACT = """cross_ratio shard_imbalance tan.edges_per_tx storage.append_count
    storage.flush_count storage.ckpt_full_count storage.ckpt_delta_count
    storage.append_bytes_per_tx core.fleet.w2_sync_rounds
    core.fleet.w2_missing_parent_refs core.fleet.w2_cross_ratio
    core.rebalance.epochs_committed core.rebalance.nodes_moved
    core.rebalance.bytes_migrated core.rebalance.moves_dropped server.shed_total
    server.protocol.wire_bytes_per_tx""".split()
ALLOC_LIMITS = {"core.placer.allocs_per_tx": 0.01, "core.router.allocs_per_tx": 0.1}


def smoke(seed, report, *flags):
    """One smoke set -> {workload: {metric: value}}, or None if run.sh failed."""
    cmd = [ROOT / "benchmark" / "run.sh", "--smoke", "--workload", "all", "--seed", seed, *flags]
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        return None
    table = json.loads((ROOT / "benchmark" / "out" / report).read_text())
    return {w: {name: m["median"] for name, m in ms.items()} for w, ms in table.items()}


def main():
    pinned = json.loads(PINNED.read_text())
    plain = smoke(pinned["seed"], "report.json")
    traced = smoke(pinned["seed"], "report.trace.json", "--trace")
    if plain is None or traced is None:
        print("bench_gate: FAIL  benchmark/run.sh --smoke reported a failed build, "
              "operation or output check (see above)")
        return 1
    observed = {w: {**plain[w], **traced[w]} for w in plain}
    counts = {w: {name: m.get(name) for name in EXACT} for w, m in observed.items()}
    rows = [(w, name, pinned["counts"].get(w, {}).get(name), counts.get(w, {}).get(name))
            for w in sorted(set(counts) | set(pinned["counts"])) for name in EXACT]
    failures = 0
    for w, name, want, got in rows:
        if want != got:
            print(f"bench_gate: FAIL  {w:<17} {name:<34} pinned {want}  observed {got}")
            failures += 1
    if failures:
        print("bench_gate: a count is behaviour. If the change is intended, say why and "
              f"replace \"counts\" in {PINNED.relative_to(ROOT)} with:")
        print(json.dumps(counts, indent=1))
    for w, metrics in observed.items():
        for name, limit in ALLOC_LIMITS.items():
            rate = metrics.get(name, float("inf"))  # a missing metric fails readably
            verdict = "ok" if rate <= limit else "FAIL"
            print(f"bench_gate: {verdict:<5} {w:<17} {name:<34} {rate:.4f}  limit {limit}")
            failures += verdict == "FAIL"
    if not failures:
        print(f"bench_gate: ok    {len(rows)} exact counts match, 0 failed operations, "
              "every output check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
