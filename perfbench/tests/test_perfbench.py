"""The benchmark's own tests: every workload at smoke size, every check non-vacuous.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402

benchlib.enter_checkout()

import kernels  # noqa: E402
import service  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = benchlib.load_spec()


def run_bench(*args: str, cwd: Path = benchlib.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# -- every workload runs to its end at smoke size -------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload: str, trace: str) -> None:
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead"]["value"] > 0
    assert any(f"attempted {result['attempted']}" in line for line in lines)


def test_refuses_a_checkout_without_the_program(tmp_path: Path) -> None:
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    start = time.monotonic()
    done = run_bench("--workload", "kernel-cc", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert time.monotonic() - start < 180
    assert "correct" not in done.stdout


# -- the kernel checks catch one-edit corruptions ---------------------------------------


@pytest.fixture(scope="module", params=["kernel-abr", "kernel-cc"])
def kernel_outputs(request):
    workload = request.param
    _, engine = kernels.SETUPS[workload](True)[-1]
    specs = kernels.make_specs(workload, 5, True)
    references = kernels.reference_sessions(engine, specs)
    results = engine.run_inprocess(specs)
    assert kernels.check_pass(results, references, engine) == []
    return engine, references, results


def _flip(record):
    if hasattr(record, "bitrate_index"):
        return dataclasses.replace(record, bitrate_index=(record.bitrate_index + 1) % 6)
    return dataclasses.replace(record, rate_index=(record.rate_index + 1) % 8)


def test_trajectory_check_catches_one_flipped_action(kernel_outputs) -> None:
    engine, references, results = kernel_outputs
    corrupted = copy.deepcopy(results)
    corrupted[0].chunks[-1] = _flip(corrupted[0].chunks[-1])
    assert kernels.check_trajectories(corrupted, references)


def test_trajectory_check_catches_a_dropped_session(kernel_outputs) -> None:
    engine, references, results = kernel_outputs
    assert kernels.check_trajectories(results[:-1], references)


def test_trajectory_check_catches_a_changed_observation(kernel_outputs) -> None:
    engine, references, results = kernel_outputs
    corrupted = copy.deepcopy(results)
    corrupted[0].observation_list[0] = corrupted[0].observation_list[0] + 1e-12
    assert kernels.check_trajectories(corrupted, references)


def test_default_check_catches_a_wrong_default_action(kernel_outputs) -> None:
    engine, references, results = kernel_outputs
    corrupted = copy.deepcopy(results)
    session, step = next(
        (i, j)
        for i, result in enumerate(corrupted)
        for j, record in enumerate(result.chunks)
        if record.defaulted
    )
    corrupted[session].chunks[step] = _flip(corrupted[session].chunks[step])
    assert kernels.check_defaults(corrupted, engine.default)


def test_sticky_check_catches_a_learned_decision_after_a_default(kernel_outputs) -> None:
    engine, references, results = kernel_outputs
    corrupted = copy.deepcopy(results)
    session, step = next(
        (i, j)
        for i, result in enumerate(corrupted)
        for j, record in enumerate(result.chunks[:-1])
        if record.defaulted
    )
    chunks = corrupted[session].chunks
    chunks[step + 1] = dataclasses.replace(chunks[step + 1], defaulted=False)
    assert kernels.check_sticky(corrupted)


# -- the service checks catch one altered response field --------------------------------


EXPECTED_STEP = {
    "action": 2, "step": 7, "defaulted": True, "fired": False,
    "handoff": False, "signal_value": None,
}


def test_step_check_accepts_the_reference_answer() -> None:
    response = {"ok": True, "op": "step", "resumed": False, **EXPECTED_STEP}
    assert service.check_step(response, EXPECTED_STEP, resumed=False) is None


@pytest.mark.parametrize(
    "field,value",
    [("action", 3), ("step", 8), ("defaulted", False), ("fired", True),
     ("handoff", True), ("signal_value", 0.5), ("resumed", True), ("ok", False)],
)
def test_step_check_catches_one_altered_field(field: str, value) -> None:
    response = {"ok": True, "op": "step", "resumed": False, **EXPECTED_STEP}
    response[field] = value
    assert service.check_step(response, EXPECTED_STEP, resumed=False) is not None


def test_detach_check_catches_a_wrong_step_count() -> None:
    assert service.check_detach({"ok": True, "steps": 47}, 47) is None
    assert service.check_detach({"ok": True, "steps": 46}, 47) is not None


def test_stats_check_catches_shed_overload_and_schedule_drift() -> None:
    good = {"shed": 0, "overloaded": 0, "evictions": 32, "resumes": 32}
    assert service.check_stats(good, 32, 32) == []
    for field, value in (("shed", 1), ("overloaded", 1), ("evictions", 31), ("resumes", 33)):
        assert service.check_stats({**good, field: value}, 32, 32)


def test_service_plan_marks_the_first_step_after_each_evict_as_resumed() -> None:
    references = service.build_references(2, smoke=True)
    sessions, attach, phases, detach = service.connection_plan(references, 0, 0, smoke=True)
    assert len(phases) == 2  # round 0 evicts once, halfway
    resumed = [r for phase in phases for r in phase if r.resumed]
    assert sorted(r.session for r in resumed) == list(range(len(sessions)))
    assert all(r in phases[1] for r in resumed)
    _, _, later, _ = service.connection_plan(references, 0, 1, smoke=True)
    assert len(later) == 1 and not any(r.resumed for r in later[0])


# -- the tracer charges nested calls to the innermost wrapper -----------------------------


class _Outer:
    def run(self, inner):
        time.sleep(0.02)
        inner.work()
        return "done"


class _Inner:
    def work(self):
        time.sleep(0.03)


def test_tracer_self_times_are_disjoint_and_restored() -> None:
    original = _Inner.work
    tracer = Tracer()
    tracer.wrap(_Outer, "run", "outer")
    tracer.wrap(_Inner, "work", "inner", count=lambda a, k, r: {"works": 1})
    assert _Outer().run(_Inner()) == "done"
    tracer.uninstall()
    assert _Inner.work is original
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.counts["works"] == 1
    assert 0.015 < tracer.self_s["outer"] < 0.028
    assert tracer.self_s["inner"] >= 0.03
    total = tracer.self_s["outer"] + tracer.self_s["inner"]
    assert total == pytest.approx(tracer.root_time(), abs=1e-9)
    (inner_span,) = [s for s in tracer.spans if s[2] == "inner"]
    (outer_span,) = [s for s in tracer.spans if s[2] == "outer"]
    assert inner_span[1] == outer_span[0]
