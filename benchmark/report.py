#!/usr/bin/env python3
"""Runs the benchmark binary over workloads, seeds and repeats, and reports
each metric as a median with quartiles and n.

Each workload and each repeat is its own child process, so memory and
allocator state never leak between them. Repeat r runs with seed + r, the
way the driver varies seeds; the spread of a metric is the distance between
the first and third quartile of its values (statistics.quantiles(n=4)) as a
share of their median.

--selfcheck runs two such sets back to back and holds every end-to-end
metric x workload against its bound in BENCHMARK.json: the spread of each
set, and how much worse the second median is than the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(args, workload, seed, traced):
    cmd = [
        args.bin,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0",
        "--out", args.out,
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr)
        print(f"FAILED: {workload} seed {seed}: exit code {proc.returncode}")
        return None
    return result


def quartiles(values):
    """(q1, median, q3); all equal to the value itself for n < 2."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 for n < 2)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def run_set(args, workloads, traced, label):
    """-> {workload: {metric: {"unit", "values"}}}, failures"""
    table, failures, ops = {}, 0, {}
    for workload in workloads:
        metrics = table.setdefault(workload, {})
        for r in range(args.repeats):
            seed = args.seed + r
            print(f"[{label}] {workload} seed {seed:#x} ({r + 1}/{args.repeats})",
                  file=sys.stderr, flush=True)
            result = run_once(args, workload, seed, traced)
            if result is None:
                failures += 1
                continue
            attempted, failed = ops.get(workload, (0, 0))
            ops[workload] = (attempted + result["attempted"], failed + result["failed"])
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    return table, failures, ops


def print_set(table, ops):
    for workload, metrics in table.items():
        print(f"\n== {workload}")
        print(f"{'metric':<40} {'median':>16} {'q1':>16} {'q3':>16} {'n':>3}  unit")
        for name, m in metrics.items():
            q1, median, q3 = quartiles(m["values"])
            print(f"{name:<40} {median:>16.4f} {q1:>16.4f} {q3:>16.4f} {len(m['values']):>3}  {m['unit']}")
        attempted, failed = ops.get(workload, (0, 0))
        print(f"{'ops_attempted':<40} {attempted:>16}")
        print(f"{'ops_failed':<40} {failed:>16}")


def summary(table):
    out = {}
    for workload, metrics in table.items():
        out[workload] = {}
        for name, m in metrics.items():
            q1, median, q3 = quartiles(m["values"])
            out[workload][name] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "n": len(m["values"]), "values": m["values"],
            }
    return out


def selfcheck(args, workloads):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, fail_a, _ = run_set(args, workloads, False, "set 1")
    second, fail_b, _ = run_set(args, workloads, False, "set 2")
    bad = fail_a + fail_b
    print(f"\n{'workload':<18} {'metric':<16} {'median 1':>14} {'median 2':>14} "
          f"{'spread 1':>9} {'spread 2':>9} {'drift':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = first[workload].get(name, {}).get("values", [])
            b = second[workload].get(name, {}).get("values", [])
            if not a or not b:
                print(f"{workload:<18} {name:<16} missing")
                bad += 1
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) if m["better"] == "lower" else (med_a - med_b)
            drift = worse / abs(med_a) if med_a else 0.0
            spreads = (spread(a), spread(b))
            # The driver does not hold the spread of setup_s to its bound.
            steady = name == "setup_s" or max(spreads) <= bound
            ok = steady and drift <= bound
            note = "" if max(spreads) <= bound / 3 else "  (spread above a third of the bound)"
            print(f"{workload:<18} {name:<16} {med_a:>14.4f} {med_b:>14.4f} "
                  f"{spreads[0]:>9.4f} {spreads[1]:>9.4f} {drift:>8.4f} {bound:>6}  "
                  f"{'pass' if ok else 'FAIL'}{note}")
            bad += 0 if ok else 1
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / "selfcheck.json").write_text(
        json.dumps({"set1": summary(first), "set2": summary(second)}, indent=1) + "\n")
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--bin", required=True)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0xB17C04)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default="benchmark/out")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    if args.repeats is None:
        args.repeats = 10 if args.selfcheck else 1
    names = [w["name"] for w in manifest["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        p.error(f"unknown workload {args.workload}; one of {', '.join(names)} or all")

    if args.selfcheck:
        sys.exit(1 if selfcheck(args, workloads) else 0)

    traced = args.trace == "1"
    table, failures, ops = run_set(args, workloads, traced, "trace" if traced else "run")
    print_set(table, ops)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / ("report.trace.json" if traced else "report.json")).write_text(
        json.dumps(summary(table), indent=1) + "\n")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
