#!/usr/bin/env python3
"""Run ``repro serve-api`` with the server-side layers wrapped for tracing.

Usage: ``python3 perfbench/launcher.py serve-api [serve-api options]``.
The server is the unchanged CLI entry point; before it starts, the
launcher wraps the server's public calls (request dispatch, wire
decode/encode, store checkout/evict, monitor observe, signal measure,
policy act).  When the server stops, one line ``PERFBENCH_TRACE {json}``
on standard output carries per-layer self times, call counts, the
server's CPU seconds from its first request to its ``stats`` request,
and the total time spent dispatching ``step`` requests.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import benchlib


def main(argv: list[str]) -> int:
    benchlib.enter_checkout()
    from repro import cli
    from repro.core.ensemble_signals import PolicyEnsembleSignal
    from repro.core.monitor import SafetyMonitor
    from repro.domains.base import LinearSoftmaxPolicy
    from repro.policies.base import DeterministicPolicy
    from repro.service import protocol
    from repro.service.server import SafetyService
    from repro.service.store import SessionStore
    from tracer import Tracer

    cpu = {}
    original = SafetyService.dispatch

    @functools.wraps(original)
    async def dispatch(self, message):
        now = time.process_time()
        cpu.setdefault("first", now)
        if message.get("op") == "stats":
            cpu["stats"] = now
        return await original(self, message)

    SafetyService.dispatch = dispatch
    tracer = Tracer()
    tracer.wrap(
        SafetyService, "dispatch", "service.dispatch",
        pick=lambda a, r: "service.dispatch.step" if a[1].get("op") == "step" else "service.dispatch",
    )
    tracer.wrap(protocol, "decode_message", "service.protocol.decode")
    tracer.wrap(protocol, "encode_message", "service.protocol.encode")
    tracer.wrap(
        SessionStore, "checkout", "service.store.checkout",
        pick=lambda a, r: "service.store.resume" if r[1] else "service.store.checkout",
    )
    tracer.wrap(
        SessionStore, "evict_idle", "service.store.evict",
        count=lambda a, k, r: {"service.store.evictions": r},
    )
    tracer.wrap(SafetyMonitor, "observe", "core.observe")
    tracer.wrap(PolicyEnsembleSignal, "measure", "core.measure")
    tracer.wrap(LinearSoftmaxPolicy, "act", "service.act")
    tracer.wrap(DeterministicPolicy, "act", "service.act")

    code = cli.main(argv)
    tracer.uninstall()
    SafetyService.dispatch = original

    summary = tracer.summary()
    # Merge the step/other split of dispatch back into one layer.
    summary["self_s"]["service.dispatch"] = summary["self_s"].pop(
        "service.dispatch.step", 0.0
    ) + summary["self_s"].get("service.dispatch", 0.0)
    summary["step_dispatch_s"] = sum(
        end - start
        for _, _, layer, start, end in tracer.spans
        if layer == "service.dispatch.step"
    )
    summary["cpu_s"] = cpu.get("stats", 0.0) - cpu.get("first", 0.0)
    tracer.write_spans(benchlib.WORK / "spans-service-abr.jsonl")
    print(benchlib.TRACE_PREFIX + json.dumps(summary), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
