"""The ``service-abr`` workload: a real ``serve-api`` process under a closed loop.

The server is ``python -m repro serve-api`` with the ABR demo scheme and
a SQLite cold store.  One asyncio load generator (this process) drives
it over :data:`CONNECTIONS` connections.  Each round, every connection
attaches its sessions, replays their recorded observations as step
requests with a fixed window in flight (round-robin over its sessions),
and detaches them.  Twice per round both connections drain and meet at a
barrier, and one ``evict`` request (``max_idle_s=0``) snapshots every hot
session to SQLite, so the next step of each session resumes from cold.
Eviction follows this schedule, never a wall-clock TTL, so the number of
evictions and resumes is exact.

Every response is compared with a serial reference computed before the
server boots: :func:`repro.domains.runner.run_monitored_session` for the
trajectory, and a directly driven :class:`SafetyMonitor` for the
signal, trigger and hand-off fields.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import benchlib

#: Connections of the load generator (the box has 2 CPUs).
CONNECTIONS = 2
#: Step requests each connection keeps in flight.
WINDOW = 8
#: Sessions per connection per round.
SESSIONS_PER_CONNECTION = 8
#: Every this many rounds, one evict request halfway through the steps.
EVICT_EVERY_ROUNDS = 4
#: Size of the session pool the rounds cycle through.
IN_DISTRIBUTION = 16
SHIFTED = 48
#: Server boots per run; set-up time is their median.
BOOTS = 3
BOOT_TIMEOUT_S = 60.0

ANNOUNCE = re.compile(rb"service listening on ([^\s:]+):(\d+)")


# -- reference -----------------------------------------------------------------------


@dataclass
class SessionReference:
    """One session's replayable inputs and the answers the server must give."""

    seed: int
    lines: list[bytes] = field(default_factory=list)  # step request bodies (no key)
    expected: list[dict] = field(default_factory=list)


def build_references(seed: int, smoke: bool) -> list[SessionReference]:
    """Record observations with the serial runner, then derive each step's answer."""
    from repro.domains import SessionSpec, apply_scenario, get_domain, scenario_keys
    from repro.domains.runner import run_monitored_session
    from repro.traces.dataset import make_dataset
    from repro.util.rng import rng_from_seed

    scheme = get_domain("abr").demo_scheme()
    in_dist, shifted = (2, 2) if smoke else (IN_DISTRIBUTION, SHIFTED)
    traces = list(
        make_dataset("gamma_1_2", num_traces=in_dist, duration_s=200.0, seed=30_000).traces
    )
    keys = scenario_keys()
    traces += [
        apply_scenario(keys[i % len(keys)], traces[i % in_dist], seed=seed * 1_000 + i).trace
        for i in range(shifted)
    ]
    references = []
    rng_probe = np.random.default_rng(0)
    for index, trace in enumerate(traces):
        spec = SessionSpec(trace=trace, seed=seed * 1_000 + index, name=f"ref-{index}")
        result = run_monitored_session(
            scheme.factory, spec, scheme.learned, scheme.default, scheme.monitor().fork()
        )
        monitor = scheme.monitor().fork()
        monitor.reset()
        rng = rng_from_seed(spec.seed)
        reference = SessionReference(seed=spec.seed)
        for step, (observation, chunk) in enumerate(
            zip(result.observation_list, result.chunks)
        ):
            decision = monitor.observe(observation)
            policy = scheme.default if decision.defaulted else scheme.learned
            action = int(policy.act(observation, rng))
            if action != chunk.bitrate_index or decision.defaulted != chunk.defaulted:
                raise RuntimeError("monitor replay disagrees with the serial runner")
            if decision.defaulted and action != scheme.default.act(observation, rng_probe):
                raise RuntimeError("a defaulted decision is not the default's choice")
            value = decision.signal_value
            reference.expected.append(
                {
                    "action": action,
                    "step": step,
                    "defaulted": bool(decision.defaulted),
                    "fired": bool(decision.fired),
                    "handoff": bool(decision.handoff),
                    "signal_value": None if math.isnan(value) else float(value),
                }
            )
            reference.lines.append(
                json.dumps(observation.tolist(), separators=(",", ":")).encode()
            )
        references.append(reference)
    return references


# -- the request plan ----------------------------------------------------------------


@dataclass
class Request:
    kind: str  # attach | step | detach | evict
    line: bytes
    session: int = -1  # index into the connection's round sessions
    step: int = -1
    resumed: bool = False


def connection_plan(references, conn: int, round_index: int, smoke: bool):
    """One connection's round: attach phase, step phases split by evicts, detach phase."""
    per_conn = 2 if smoke else SESSIONS_PER_CONNECTION
    pool = len(references)
    sessions = []
    for i in range(per_conn):
        ref_index = (round_index * CONNECTIONS * per_conn + conn * per_conn + i) % pool
        tenant = f"tenant-{(conn * per_conn + i) % 4}"
        name = f"r{round_index}-c{conn}-s{i}"
        sessions.append((tenant, name, references[ref_index]))
    head = [
        '{"op":"step","tenant":"%s","session":"%s"' % (tenant, name)
        for tenant, name, _ in sessions
    ]
    attach = [
        Request(
            "attach",
            (
                '{"op":"attach","tenant":"%s","session":"%s","scheme":"demo","seed":%d}\n'
                % (tenant, name, ref.seed)
            ).encode(),
            session=i,
        )
        for i, (tenant, name, ref) in enumerate(sessions)
    ]
    steps = []
    length = len(sessions[0][2].lines)
    for step in range(length):
        for i, (_, _, ref) in enumerate(sessions):
            steps.append(
                Request(
                    "step",
                    head[i].encode() + b',"observation":' + ref.lines[step] + b"}\n",
                    session=i,
                    step=step,
                )
            )
    evicts = 1 if round_index % EVICT_EVERY_ROUNDS == 0 else 0
    cuts = [len(steps) * k // (evicts + 1) for k in range(evicts + 2)]
    phases = [steps[a:b] for a, b in zip(cuts, cuts[1:])]
    for phase in phases[1:]:
        first_seen = set()
        for request in phase:
            if request.session not in first_seen:
                request.resumed = True
                first_seen.add(request.session)
    detach = [
        Request(
            "detach",
            ('{"op":"detach","tenant":"%s","session":"%s"}\n' % (tenant, name)).encode(),
            session=i,
        )
        for i, (tenant, name, _) in enumerate(sessions)
    ]
    return sessions, attach, phases, detach


# -- checks -------------------------------------------------------------------------------


def check_step(response: dict, expected: dict, resumed: bool) -> str | None:
    """None when a step response matches the reference, else what differs."""
    if not response.get("ok"):
        return f"failed: {response.get('code')}"
    for key, want in expected.items():
        if response.get(key) != want:
            return f"{key} {response.get(key)!r} != {want!r}"
    if response.get("resumed") != resumed:
        return f"resumed {response.get('resumed')!r} != {resumed!r}"
    return None


def check_detach(response: dict, steps_sent: int) -> str | None:
    if not response.get("ok"):
        return f"failed: {response.get('code')}"
    if response.get("steps") != steps_sent:
        return f"detach reports {response.get('steps')} steps, {steps_sent} sent"
    return None


def check_stats(stats: dict, evictions: int, resumes: int) -> list[str]:
    problems = []
    for key, want in (("shed", 0), ("overloaded", 0), ("evictions", evictions), ("resumes", resumes)):
        if stats.get(key) != want:
            problems.append(f"stats {key} = {stats.get(key)!r}, schedule says {want}")
    return problems


# -- server process -----------------------------------------------------------------------


class Server:
    """One ``serve-api`` subprocess (optionally under the tracing launcher)."""

    def __init__(self, workdir: Path, traced: bool, cpu: int) -> None:
        self.cpu = cpu
        store = workdir / f"store-{time.monotonic_ns()}.db"
        cli = [
            "serve-api", "--domain", "abr", "--store", "sqlite",
            "--store-path", str(store), "--port", "0", "--evict-interval", "0",
            "--hot-ttl", "3600", "--max-sessions", "64", "--max-inflight", "64",
        ]
        if traced:
            command = [sys.executable, str(Path(__file__).parent / "launcher.py"), *cli]
        else:
            command = [sys.executable, "-m", "repro", *cli]
        self.log = open(workdir / "server.log", "ab")
        before = benchlib.probe(cpu)
        start = perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(benchlib.ROOT),
            env=benchlib.subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=lambda: benchlib.pin_thread(cpu),
        )
        self.host, self.port = self._await_announce()
        self.boot_wall_s = perf_counter() - start
        self.boot_s = self.boot_wall_s * benchlib.to_reference(before, benchlib.probe(cpu))

    def _await_announce(self) -> tuple[str, int]:
        fd = self.proc.stdout.fileno()
        buffer = b""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while b"\n" not in buffer:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.kill()
                raise RuntimeError(f"server did not announce; see {self.log.name}")
            ready, _, _ = select.select([fd], [], [], min(left, 1.0))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buffer += chunk
        match = ANNOUNCE.search(buffer)
        if match is None:
            self.kill()
            raise RuntimeError(f"unexpected announce line {buffer!r}")
        self.stdout_head = buffer
        return match.group(1).decode(), int(match.group(2))

    def stop(self) -> str:
        """Shut down through the protocol; returns everything the server printed."""
        blocking_request(self.host, self.port, "shutdown")
        out, _ = self.proc.communicate(timeout=60)
        self.log.close()
        return (self.stdout_head + out).decode()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.log.close()


def blocking_request(host: str, port: int, op: str, **fields) -> dict:
    import socket

    with socket.create_connection((host, port), timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write((json.dumps({"op": op, **fields}) + "\n").encode())
        handle.flush()
        line = handle.readline()
    return json.loads(line) if line else {}


# -- load generator ---------------------------------------------------------------------------


class Connection:
    """One pipelined connection: sends up to ``window`` requests ahead."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    async def pipeline(self, requests, window: int, sink: list) -> None:
        """Send *requests* keeping *window* in flight; append (request, rtt, line)."""
        sent: list[float] = []
        total = len(requests)
        next_send = 0
        for received in range(total):
            while next_send < total and next_send - received < window:
                self.writer.write(requests[next_send].line)
                sent.append(perf_counter())
                next_send += 1
            line = await self.reader.readline()
            sink.append((requests[received], perf_counter() - sent[received], line))


@dataclass
class Phase:
    """What one server lifetime measured."""

    rounds: int = 0
    step_rtts: list = field(default_factory=list)
    hot_rtts: list = field(default_factory=list)
    resume_rtts: list = field(default_factory=list)
    attach_rtts: list = field(default_factory=list)
    detach_rtts: list = field(default_factory=list)
    evict_rtts: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    evictions: int = 0
    resumes: int = 0
    wall: float = 0.0
    reference_wall: float = 0.0
    loadgen_cpu: float = 0.0
    server_cpu: float | None = None
    defaulted: int = 0
    peak_rss_mb: float | None = None
    trace: dict | None = None
    problems: list = field(default_factory=list)


def probe_both(server_cpu: int) -> float:
    """Mean probe of the load generator's CPU (this thread's) and the server's.

    A closed loop waits on both, so a round is scaled by both CPUs' speed.
    """
    return (benchlib.probe() + benchlib.probe(server_cpu)) / 2.0


async def drive(server: Server, references, seconds: float, smoke: bool, phase: Phase) -> None:
    connections = [
        Connection(*await asyncio.open_connection(server.host, server.port, limit=1 << 20))
        for _ in range(CONNECTIONS)
    ]
    barrier = asyncio.Barrier(CONNECTIONS)
    evict_line = b'{"op":"evict","max_idle_s":0}\n'

    async def one_connection(conn: int, plan, sink: list, evict_sink: list) -> None:
        link = connections[conn]
        _, attach, phases, detach = plan
        await link.pipeline(attach, WINDOW, sink)
        for index, steps in enumerate(phases):
            if index:
                await barrier.wait()
                if conn == 0:
                    await link.pipeline([Request("evict", evict_line)], 1, evict_sink)
                await barrier.wait()
            await link.pipeline(steps, WINDOW, sink)
        await link.pipeline(detach, WINDOW, sink)

    server_cpu_start = benchlib.proc_cpu_s(server.proc.pid)
    last_probe = probe_both(server.cpu)
    round_index = 0
    while phase.wall < seconds or phase.rounds == 0:
        plans = [connection_plan(references, conn, round_index, smoke) for conn in range(CONNECTIONS)]
        sinks = [[] for _ in range(CONNECTIONS)]
        evict_sink: list = []
        cpu0 = time.process_time()
        start = perf_counter()
        await asyncio.gather(
            *(one_connection(c, plans[c], sinks[c], evict_sink) for c in range(CONNECTIONS))
        )
        wall = perf_counter() - start
        phase.loadgen_cpu += time.process_time() - cpu0
        now = probe_both(server.cpu)
        factor = benchlib.to_reference(last_probe, now)
        last_probe = now
        validate_round(plans, sinks, evict_sink, phase, factor)
        phase.wall += wall
        phase.reference_wall += wall * factor
        phase.rounds += 1
        round_index += 1
    server_cpu_end = benchlib.proc_cpu_s(server.proc.pid)
    if server_cpu_start is not None and server_cpu_end is not None:
        phase.server_cpu = server_cpu_end - server_cpu_start
    for link in connections:
        link.writer.close()
        await link.writer.wait_closed()


def validate_round(plans, sinks, evict_sink, phase: Phase, factor: float) -> None:
    """Count and check every response of one round against the references.

    A failed request counts in ``failed``; the checks speak of the rest.
    Round trips are kept in reference seconds (*factor* converts them).
    """
    steps = 0
    for (sessions, _, _, _), sink in zip(plans, sinks):
        for request, rtt, line in sink:
            rtt *= factor
            phase.attempted += 1
            response = json.loads(line) if line else {"ok": False, "code": "closed"}
            if not response.get("ok"):
                phase.failed += 1
                continue
            if request.kind == "step":
                steps += 1
                phase.defaulted += bool(response.get("defaulted"))
                phase.step_rtts.append(rtt)
                (phase.resume_rtts if request.resumed else phase.hot_rtts).append(rtt)
                expected = sessions[request.session][2].expected[request.step]
                problem = check_step(response, expected, request.resumed)
            elif request.kind == "detach":
                phase.detach_rtts.append(rtt)
                problem = check_detach(response, len(sessions[request.session][2].lines))
            else:
                phase.attach_rtts.append(rtt)
                problem = None
            if problem is not None:
                phase.problems.append(f"{sessions[request.session][1]} {request.kind}: {problem}")
    hot_per_evict = sum(len(plan[0]) for plan in plans)
    for request, rtt, line in evict_sink:
        rtt *= factor
        phase.attempted += 1
        response = json.loads(line) if line else {"ok": False, "code": "closed"}
        phase.evict_rtts.append(rtt)
        if not response.get("ok"):
            phase.failed += 1
        elif response.get("evicted") != hot_per_evict:
            phase.problems.append(
                f"evict moved {response.get('evicted')} sessions, {hot_per_evict} were hot"
            )
    phase.evictions += hot_per_evict * len(evict_sink)
    phase.resumes += hot_per_evict * len(evict_sink)
    phase.steps += steps


def serve_phase(workdir: Path, references, seconds: float, smoke: bool, traced: bool, cpu: int):
    """Boot one server, drive it for *seconds*, check its stats, stop it."""
    server = Server(workdir, traced, cpu)
    phase = Phase()
    try:
        asyncio.run(drive(server, references, seconds, smoke, phase))
        stats = blocking_request(server.host, server.port, "stats")
        phase.problems += check_stats(stats, phase.evictions, phase.resumes)
        phase.peak_rss_mb = benchlib.proc_peak_rss_mb(server.proc.pid)
        output = server.stop()
    except BaseException:
        server.kill()
        raise
    for line in output.splitlines():
        if line.startswith(benchlib.TRACE_PREFIX):
            phase.trace = json.loads(line[len(benchlib.TRACE_PREFIX):])
    return phase, server


# -- the workload -------------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    # The load generator and the server each get a CPU of their own; the
    # server's CPU is probed next to every boot and every round.
    client_cpu, server_cpu = benchlib.cpu_pair()
    benchlib.pin_thread(client_cpu)
    references = build_references(seed, smoke)
    (benchlib.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=benchlib.WORK / "tmp"))
    servers = []
    if not trace:
        for _ in range(1 if smoke else BOOTS - 1):
            server = Server(workdir, traced=False, cpu=server_cpu)
            servers.append(server)
            server.stop()
        phase, server = serve_phase(workdir, references, seconds, smoke, False, server_cpu)
        servers.append(server)
        phases = [phase]
    else:
        plain, _ = serve_phase(workdir, references, seconds / 2, smoke, False, server_cpu)
        traced, _ = serve_phase(workdir, references, seconds / 2, smoke, True, server_cpu)
        phases = [plain, traced]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [problem for p in phases for problem in p.problems]
    measured = phases[-1]
    utilisation = measured.loadgen_cpu / measured.wall
    server_util = (measured.server_cpu or 0.0) / measured.wall
    print(
        f"service-abr: {sum(p.rounds for p in phases)} rounds, "
        f"{sum(p.steps for p in phases)} steps, "
        f"{sum(p.evictions for p in phases)} evictions, {sum(p.resumes for p in phases)} resumes; "
        f"attempted {attempted} requests, failed {failed}; "
        f"load generator CPU {utilisation:.0%} of wall, server {server_util:.0%}; "
        f"{measured.steps / measured.wall:.0f} steps per wall second, "
        f"wall-to-reference factor {measured.reference_wall / measured.wall:.3f}"
    )
    if servers:
        print(f"  server boots (wall s): {', '.join(f'{s.boot_wall_s:.3f}' for s in servers)}")
    if utilisation > 0.9 and utilisation >= server_util:
        print("  FLAG: the load generator, not the server, is saturated")
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {
            "setup_s": benchlib.median(server.boot_s for server in servers),
            "decisions_per_s": measured.steps / measured.reference_wall,
            "peak_rss_mb": measured.peak_rss_mb,
            "step_p50_ms": 1e3 * benchlib.percentile(measured.step_rtts, 50),
            "step_p99_ms": 1e3 * benchlib.percentile(measured.step_rtts, 99),
        }
        return result
    result["metrics"] = layer_metrics(plain, measured)
    return result


def layer_metrics(plain: Phase, traced: Phase) -> dict[str, float]:
    """Client-side and server-side layer metrics of the traced phase, per round.

    Server-side times are converted to reference seconds with the traced
    phase's mean factor; client-side round trips already are.
    """
    rounds = traced.rounds
    factor = traced.reference_wall / traced.wall
    server = traced.trace or {"self_s": {}, "calls": {}, "counts": {}, "cpu_s": 0.0}
    calls, counts = server["calls"], server["counts"]
    s = {layer: seconds * factor for layer, seconds in server["self_s"].items()}
    cpu_s = server["cpu_s"] * factor
    dispatch_total = sum(
        s.get(layer, 0.0)
        for layer in s
        if layer not in ("service.protocol.decode", "service.protocol.encode")
    )
    step_server = server.get("step_dispatch_s", 0.0) * factor

    def per_round(value: float) -> float:
        return value / rounds

    def p50_ms(values) -> float:
        return 1e3 * benchlib.median(values) if values else 0.0

    return {
        "service.step_hot_p50_ms": p50_ms(traced.hot_rtts),
        "service.step_resume_p50_ms": p50_ms(traced.resume_rtts),
        "service.attach_p50_ms": p50_ms(traced.attach_rtts),
        "service.detach_p50_ms": p50_ms(traced.detach_rtts),
        "service.evict_p50_ms": p50_ms(traced.evict_rtts),
        "service.dispatch_s": per_round(s.get("service.dispatch", 0.0)),
        "service.self_s": per_round(
            cpu_s
            - dispatch_total
            - s.get("service.protocol.decode", 0.0)
            - s.get("service.protocol.encode", 0.0)
        ),
        "service.protocol.decode_s": per_round(s.get("service.protocol.decode", 0.0)),
        "service.protocol.encode_s": per_round(s.get("service.protocol.encode", 0.0)),
        "service.store.checkout_s": per_round(s.get("service.store.checkout", 0.0)),
        "service.store.resume_s": per_round(s.get("service.store.resume", 0.0)),
        "service.store.resumes": per_round(calls.get("service.store.resume", 0)),
        "service.store.evict_s": per_round(s.get("service.store.evict", 0.0)),
        "service.store.evictions": per_round(counts.get("service.store.evictions", 0.0)),
        "service.act_s": per_round(s.get("service.act", 0.0)),
        "service.step_wait_s": per_round(sum(traced.step_rtts) - step_server),
        "service.server_cpu_per_decision_us": 1e6 * cpu_s / traced.steps,
        "core.observe_s": per_round(s.get("core.observe", 0.0)),
        "core.measure_s": per_round(s.get("core.measure", 0.0)),
        "core.measure_calls": per_round(calls.get("core.measure", 0)),
        "core.defaulted_decisions": per_round(traced.defaulted),
        "loadgen.cpu_s": per_round(traced.loadgen_cpu),
        "trace.overhead": (traced.steps / traced.reference_wall)
        / (plain.steps / plain.reference_wall),
    }
