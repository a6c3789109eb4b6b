"""The kernel workloads: ``ServeEngine.run_inprocess`` on ABR and CC.

Each round serves the workload's session set once per scheme through
the continuous-batching kernel (``ND`` through the sequential path);
sessions outnumber slots, so admission and slot reuse run every pass.
Every pass is checked against the serial reference runner
(:func:`repro.domains.runner.run_monitored_session`) computed before
timing starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import benchlib

#: Schemes served on the ABR kernel, in the paper's order.
ABR_SCHEMES = ("ND", "A-ensemble", "V-ensemble")


@dataclass(frozen=True)
class KernelSize:
    """Input sizes of one kernel workload."""

    in_distribution: int
    shifted: int
    slots: int


SIZES = {
    "kernel-abr": KernelSize(in_distribution=16, shifted=16, slots=16),
    "kernel-cc": KernelSize(in_distribution=16, shifted=48, slots=16),
}
SMOKE_SIZES = {
    "kernel-abr": KernelSize(in_distribution=3, shifted=3, slots=4),
    "kernel-cc": KernelSize(in_distribution=3, shifted=3, slots=4),
}


class StampedRecords(list):
    """A session's record list that notes when each decision lands."""

    def append(self, record) -> None:
        self.stamps.append(perf_counter())
        list.append(self, record)


def client_factory(inner):
    """Wrap a domain's session factory the way a client of the kernel sees it.

    Every call is delegated.  The one addition: each session's result
    collects its records in a :class:`StampedRecords`, so the interval
    between two consecutive decisions of one session (the first measured
    from admission) is observed from outside the kernel.
    """
    from repro.domains import SessionFactory

    class ClientFactory(SessionFactory):
        domain = inner.domain

        def __init__(self) -> None:
            self.inner = inner
            self.sessions: list[StampedRecords] = []

        def steps_per_session(self) -> int:
            return self.inner.steps_per_session()

        def new_env(self, spec):
            return self.inner.new_env(spec)

        def new_result(self, spec, policy_name: str):
            result = self.inner.new_result(spec, policy_name)
            records = StampedRecords()
            records.stamps = [perf_counter()]
            result.chunks = records
            self.sessions.append(records)
            return result

        def record(self, step, defaulted: bool):
            return self.inner.record(step, defaulted)

        def take_intervals(self) -> list[float]:
            """Every decision interval (s) of the sessions opened since the last call."""
            intervals = []
            for records in self.sessions:
                stamps = records.stamps
                intervals.extend(b - a for a, b in zip(stamps, stamps[1:]))
            self.sessions = []
            return intervals

    return ClientFactory()


def action_of(record) -> int:
    """The action a per-step record took (ABR rung or CC rate index)."""
    if hasattr(record, "bitrate_index"):
        return int(record.bitrate_index)
    return int(record.rate_index)


# -- program set-up ------------------------------------------------------------


def setup_abr(smoke: bool):
    """Traces, a trained Pensieve suite and one engine per scheme."""
    from repro.abr.suite import build_safety_suite
    from repro.core.osap import SafetyConfig
    from repro.domains import get_domain
    from repro.pensieve.training import TrainingConfig
    from repro.policies.buffer_based import BufferBasedPolicy
    from repro.serve import ServeEngine
    from repro.traces.dataset import make_dataset
    from repro.video.envivio import envivio_dash3_manifest

    if smoke:
        training = TrainingConfig(epochs=1, gamma=0.9, n_step=4, filters=4, hidden=12)
        safety = SafetyConfig(
            ensemble_size=3, trim=1, ocsvm_k_synthetic=5, ocsvm_nu=0.2,
            max_ocsvm_samples=200,
        )
        manifest = envivio_dash3_manifest(repeats=1)
        dataset = make_dataset("gamma_1_2", num_traces=4, duration_s=120.0, seed=1)
        value_epochs = 2
    else:
        training = TrainingConfig(epochs=2, gamma=0.9, n_step=4, filters=8, hidden=48)
        safety = SafetyConfig(
            ensemble_size=5, trim=2, ocsvm_k_synthetic=5, ocsvm_nu=0.2,
            max_ocsvm_samples=300,
        )
        manifest = envivio_dash3_manifest(repeats=2)
        dataset = make_dataset("gamma_1_2", num_traces=6, duration_s=200.0, seed=1)
        value_epochs = 4
    suite = build_safety_suite(
        manifest,
        dataset.split(),
        BufferBasedPolicy(manifest.bitrates_kbps),
        is_synthetic=dataset.is_synthetic,
        training_config=training,
        safety_config=safety,
        value_epochs=value_epochs,
        seed=0,
    )
    factory = client_factory(get_domain("abr").session_factory(manifest=manifest))
    slots = (SMOKE_SIZES if smoke else SIZES)["kernel-abr"].slots
    controllers = suite.controllers()
    return [
        (name, ServeEngine.from_controller(controllers[name], factory, max_slots=slots))
        for name in ABR_SCHEMES
    ]


def setup_cc(smoke: bool):
    """The congestion-control demo scheme (trains its Q tables) and an engine."""
    from repro.domains import cc as cc_domain
    from repro.domains import get_domain
    from repro.serve import ServeEngine

    # The demo tables are memoised per process; clear them so every
    # set-up pays the training a fresh worker pays.
    clear = getattr(getattr(cc_domain, "_demo_tables", None), "cache_clear", None)
    if clear is not None and not smoke:
        clear()
    scheme = get_domain("cc").demo_scheme()
    slots = (SMOKE_SIZES if smoke else SIZES)["kernel-cc"].slots
    engine = ServeEngine(
        factory=client_factory(scheme.factory),
        learned=scheme.learned,
        default=scheme.default,
        signal=scheme.signal,
        trigger=scheme.trigger,
        allow_revert=scheme.allow_revert,
        name=scheme.name,
        max_slots=slots,
    )
    return [("cc-demo", engine)]


SETUPS: dict[str, Callable] = {"kernel-abr": setup_abr, "kernel-cc": setup_cc}


# -- inputs from the seed --------------------------------------------------------


def make_specs(workload: str, seed: int, smoke: bool):
    """The session set: in-distribution traces plus scenario-shifted copies.

    The in-distribution traces are a fixed held-out corpus drawn from the
    training corpus's generator: the kernels' cost follows their default
    share, so a per-seed corpus would make the seed, not the program, move
    the figures.  The seed draws the shifts (each shifted session applies
    one registered scenario, cycled, with a seed-derived scenario seed)
    and every session's RNG seed.
    """
    from repro.domains import SessionSpec, apply_scenario, get_domain, scenario_keys
    from repro.traces.dataset import make_dataset

    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    if workload == "kernel-abr":
        traces = list(
            make_dataset(
                "gamma_1_2",
                num_traces=size.in_distribution,
                duration_s=200.0,
                seed=10_000,
            ).traces
        )
    else:
        split = get_domain("cc").load_split(
            "logistic",
            num_traces=size.in_distribution,
            duration_s=96.0,
            seed=20_000,
        )
        traces = list(split.train + split.validation + split.test)
    keys = scenario_keys()
    shifted = [
        apply_scenario(
            keys[index % len(keys)],
            traces[index % len(traces)],
            seed=seed * 1_000 + index,
        ).trace
        for index in range(size.shifted)
    ]
    return [
        SessionSpec(trace=trace, seed=seed * 1_000 + index, name=f"session-{index:03d}")
        for index, trace in enumerate(traces + shifted)
    ]


def reference_sessions(engine, specs):
    """The serial reference: one ``run_monitored_session`` per spec."""
    from repro.domains.runner import run_monitored_session

    monitor = engine.spawn_monitor()
    return [
        run_monitored_session(
            engine.factory.inner, spec, engine.learned, engine.default, monitor,
            policy_name=spec.name,
        )
        for spec in specs
    ]


# -- correctness checks -------------------------------------------------------------


def check_trajectories(results, references) -> list[str]:
    """Chunk-for-chunk and observation-for-observation equality."""
    if len(results) != len(references):
        return [f"{len(results)} sessions served, {len(references)} expected"]
    problems = []
    for index, (got, want) in enumerate(zip(results, references)):
        if got.trace_name != want.trace_name:
            problems.append(f"session {index}: trace {got.trace_name!r}")
        elif got.chunks != want.chunks:
            step = next(
                (j for j, (a, b) in enumerate(zip(got.chunks, want.chunks)) if a != b),
                min(len(got.chunks), len(want.chunks)),
            )
            problems.append(f"session {index}: trajectory differs at step {step}")
        elif len(got.observation_list) != len(want.observation_list) or any(
            a.tobytes() != b.tobytes()
            for a, b in zip(got.observation_list, want.observation_list)
        ):
            problems.append(f"session {index}: observations differ")
    return problems


def check_defaults(results, default) -> list[str]:
    """Every defaulted decision is the default policy's own choice."""
    rng = np.random.default_rng(0)
    problems = []
    for index, result in enumerate(results):
        for step, (record, observation) in enumerate(
            zip(result.chunks, result.observation_list)
        ):
            if record.defaulted and action_of(record) != default.act(observation, rng):
                problems.append(
                    f"session {index} step {step}: defaulted action is not the default's"
                )
    return problems


def check_sticky(results) -> list[str]:
    """With ``allow_revert`` off, no learned decision follows a default."""
    problems = []
    for index, result in enumerate(results):
        flags = [record.defaulted for record in result.chunks]
        if True in flags and not all(flags[flags.index(True):]):
            problems.append(f"session {index}: learned decision after a default")
    return problems


def check_pass(results, references, engine) -> list[str]:
    problems = check_trajectories(results, references)
    problems += check_defaults(results, engine.default)
    if not engine.allow_revert:
        problems += check_sticky(results)
    return problems


# -- tracing --------------------------------------------------------------------------


def install_wrappers(tracer, workload: str, engines) -> None:
    """Wrap every layer the kernels call into (see the README's map)."""
    from repro.abr.env import ABREnv
    from repro.core.monitor import MonitorTable, SafetyMonitor
    from repro.domains.abr import ABRSessionFactory
    from repro.domains.cc import CCEnv, CCSessionFactory, ConservativeRatePolicy
    from repro.mdp.qlearning import QLearningAgent
    from repro.serve import ServeEngine

    tracer.wrap(ServeEngine, "run_inprocess", "serve")
    tracer.wrap(
        MonitorTable, "observe_measured", "core.fold",
        count=lambda a, k, r: {"serve.waves": 1, "serve.wave_rows": len(a[1])},
    )
    tracer.wrap(
        MonitorTable, "observe_sticky", "core.fold",
        count=lambda a, k, r: {
            "serve.drained_decisions": len(a[1]) * k.get("waves", a[2] if len(a) > 2 else 1)
        },
    )
    tracer.wrap(SafetyMonitor, "observe", "core.observe")
    for _, engine in engines:
        signal_class = type(engine.signal)
        tracer.wrap(
            signal_class, "measure_batch", "core.measure_batch",
            count=lambda a, k, r: {"core.measure_rows": len(a[1])},
        )
        tracer.wrap(signal_class, "measure", "core.measure")
        if workload == "kernel-abr":
            tracer.wrap(ABRSessionFactory, "new_env", "abr.env_open")
            tracer.wrap(ABREnv, "reset", "abr.env_open")
            tracer.wrap(ABREnv, "step", "abr.env_step")
            tracer.wrap(ABRSessionFactory, "record", "domains.record")
            tracer.wrap(type(engine.learned), "act", "pensieve.act")
            tracer.wrap(type(engine.default), "act", "policies.act")
        else:
            tracer.wrap(CCEnv, "step", "domains.cc.env_step")
            tracer.wrap(CCSessionFactory, "record", "domains.record")
            tracer.wrap(QLearningAgent, "act", "mdp.act")
            tracer.wrap(ConservativeRatePolicy, "act", "domains.cc.default_act")


def layer_metrics(tracer, rounds: int, factor: float) -> dict[str, float]:
    """Per-layer metrics from the traced rounds, as totals per round.

    Times are in reference seconds (*factor* converts the traced rounds'
    wall seconds); counts are as counted.
    """
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def per_round(value: float) -> float:
        return value / rounds

    s = {layer: seconds * factor for layer, seconds in s.items()}

    waves = counts.get("serve.waves", 0.0)
    return {
        "serve.self_s": per_round(s.get("serve", 0.0)),
        "serve.waves": per_round(waves),
        "serve.rows_per_wave": counts.get("serve.wave_rows", 0.0) / waves if waves else 0.0,
        "serve.drained_decisions": per_round(counts.get("serve.drained_decisions", 0.0)),
        "core.fold_s": per_round(s.get("core.fold", 0.0)),
        "core.measure_batch_s": per_round(s.get("core.measure_batch", 0.0)),
        "core.measure_rows": per_round(counts.get("core.measure_rows", 0.0)),
        "core.measure_s": per_round(s.get("core.measure", 0.0)),
        "core.measure_calls": per_round(calls.get("core.measure", 0)),
        "core.observe_s": per_round(s.get("core.observe", 0.0)),
        "abr.env_step_s": per_round(s.get("abr.env_step", 0.0)),
        "abr.env_steps": per_round(calls.get("abr.env_step", 0)),
        "abr.env_open_s": per_round(s.get("abr.env_open", 0.0)),
        "pensieve.act_s": per_round(s.get("pensieve.act", 0.0)),
        "pensieve.act_calls": per_round(calls.get("pensieve.act", 0)),
        "policies.act_s": per_round(s.get("policies.act", 0.0)),
        "policies.act_calls": per_round(calls.get("policies.act", 0)),
        "domains.record_s": per_round(s.get("domains.record", 0.0)),
        "domains.cc.env_step_s": per_round(s.get("domains.cc.env_step", 0.0)),
        "domains.cc.default_act_s": per_round(s.get("domains.cc.default_act", 0.0)),
        "mdp.act_s": per_round(s.get("mdp.act", 0.0)),
    }


# -- the workload -------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, compute references, serve rounds for *seconds*, check."""
    from tracer import Tracer

    # One CPU for the whole run, probed next to every timed section.
    benchlib.pin_thread(benchlib.cpu_pair()[1])
    last_probe = benchlib.probe()

    def calibrate() -> float:
        nonlocal last_probe
        now = benchlib.probe()
        factor = benchlib.to_reference(last_probe, now)
        last_probe = now
        return factor

    setup = SETUPS[workload]
    setup_repeats = 1 if smoke else 3
    setup_walls = []
    for _ in range(setup_repeats):
        start = perf_counter()
        engines = setup(smoke)
        wall = perf_counter() - start
        setup_walls.append(wall * calibrate())

    specs = make_specs(workload, seed, smoke)
    references = {name: reference_sessions(engine, specs) for name, engine in engines}
    per_pass = {name: sum(len(r.chunks) for r in refs) for name, refs in references.items()}
    round_decisions = sum(per_pass.values())
    defaulted_per_round = sum(
        record.defaulted for refs in references.values() for r in refs for record in r.chunks
    )

    tracer = Tracer() if trace else None
    problems: list[str] = []
    # Per traced/untraced: rounds, wall seconds, reference seconds.
    rounds_of = {False: 0, True: 0}
    wall_of = {False: 0.0, True: 0.0}
    reference_of = {False: 0.0, True: 0.0}
    intervals: list[float] = []
    timed = 0.0
    rounds = 0
    while timed < seconds or (trace and rounds < 2):
        traced = trace and rounds % 2 == 1
        outputs = []
        for name, engine in engines:
            if traced:
                install_wrappers(tracer, workload, engines)
            try:
                start = perf_counter()
                results = engine.run_inprocess(specs)
                wall = perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            factor = calibrate()
            outputs.append((name, engine, results))
            wall_of[traced] += wall
            reference_of[traced] += wall * factor
            timed += wall
            intervals += [factor * dt for dt in engine.factory.take_intervals()]
        for name, engine, results in outputs:
            problems += [f"{name}: {p}" for p in check_pass(results, references[name], engine)]
        rounds_of[traced] += 1
        rounds += 1
    attempted = rounds * round_decisions

    print(
        f"{workload}: {rounds} rounds of {round_decisions} decisions "
        f"({', '.join(f'{n} {d}' for n, d in per_pass.items())}), "
        f"{defaulted_per_round} defaulted per round; "
        f"attempted {attempted}, failed 0; "
        f"{round_decisions * rounds_of[False] / wall_of[False]:.0f} decisions per wall second, "
        f"wall-to-reference factor {reference_of[False] / wall_of[False]:.3f}"
    )
    for problem in problems[:20]:
        print(f"  check failed: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": 0}
    if trace:
        traced_rounds = rounds_of[True]
        layers = layer_metrics(tracer, traced_rounds, reference_of[True] / wall_of[True])
        layers["core.defaulted_decisions"] = float(defaulted_per_round)
        layers["trace.overhead"] = (reference_of[False] / rounds_of[False]) / (
            reference_of[True] / traced_rounds
        )
        tracer.write_spans(benchlib.WORK / f"spans-{workload}.jsonl")
        print(f"  tracing overhead: traced/untraced decisions_per_s = {layers['trace.overhead']:.3f}")
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "setup_s": benchlib.median(setup_walls),
            "decisions_per_s": round_decisions * rounds_of[False] / reference_of[False],
            "peak_rss_mb": benchlib.self_peak_rss_mb(),
            "step_p50_ms": 1e3 * benchlib.percentile(intervals, 50),
            "step_p99_ms": 1e3 * benchlib.percentile(intervals, 99),
        }
    return result

