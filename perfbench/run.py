#!/usr/bin/env python3
"""The benchmark of the monitored-decision path: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kernel-abr --seed 1 --seconds 10 --trace 0

Workloads: ``kernel-abr`` and ``kernel-cc`` drive the continuous-batching
serve kernel in this process; ``service-abr`` boots ``python -m repro
serve-api`` and drives it with a closed-loop asyncio load generator.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's public calls and prints the per-layer
metrics instead.  Timings are in reference seconds: wall time scaled by
a calibration probe run next to every timed section (see the README).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` shrinks
every input (for the benchmark's own tests).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import benchlib

WORKLOADS = ("kernel-abr", "kernel-cc", "service-abr")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        benchlib.enter_checkout()
    except benchlib.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = benchlib.load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}

    benchlib.WORK.mkdir(exist_ok=True)
    if args.workload == "service-abr":
        import service

        result = service.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    else:
        import kernels

        result = kernels.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )

    measured = result.pop("metrics")
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer the workload never calls reads 0 (see the README's map).
    result["metrics"] = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    shutil.rmtree(benchlib.WORK / "tmp", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
