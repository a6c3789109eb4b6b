#!/usr/bin/env python3
"""Run workloads repeatedly and print each metric's median, quartiles and spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workload service-abr --runs 10
    python3 perfbench/steadiness.py --runs 10              # every workload
    python3 perfbench/steadiness.py --runs 5 --trace 1     # per-layer metrics

Run *k* uses seed ``--first-seed + k``, so every run sees other inputs.
The spread is ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``; for end-to-end metrics it is
printed next to the bound in ``BENCHMARK.json`` and a third of it, the
target the bounds were chosen against.  Runs that fail, print an
incorrect result or differ in their share of failed operations are
reported and make the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import benchlib


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(benchlib.ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(
        command, cwd=benchlib.ROOT, capture_output=True, text=True, timeout=900
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def main(argv: list[str] | None = None) -> int:
    spec = benchlib.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workload or names:
        results = []
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, args.seconds, args.trace)
            results.append(result)
            print(
                f"  {workload} seed {args.first_seed + k}: {result['wall_s']:.1f}s wall, "
                f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
        shares = {r["failed"] / r["attempted"] for r in results}
        if not all(r["correct"] for r in results) or len(shares) != 1:
            ok = False
            print(f"{workload}: incorrect runs or unequal failed shares {sorted(shares)}")
        walls = [r["wall_s"] for r in results]
        print(
            f"{workload}: {args.runs} runs, run wall median {benchlib.median(walls):.1f}s "
            f"(max {max(walls):.1f}s)"
        )
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>7s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = benchlib.quartiles(values) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name) if not args.trace else None
            bound_text = f"{bound:6.2f} {bound / 3:7.3f}" if bound is not None else ""
            print(f"  {name:36s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound_text}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
