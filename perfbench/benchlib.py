"""Shared plumbing for the benchmark: paths, pinned threads, statistics.

Nothing here imports the program under test; :func:`enter_checkout`
makes ``src/`` importable and fails cleanly when the checkout holds only
the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

#: Root of the checkout the benchmark runs in (the parent of its directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (SQLite stores, span dumps).
WORK = ROOT / ".perfbench_work"

#: One BLAS thread and one pool worker, in this process and in every
#: subprocess it starts: the box has 2 CPUs and the load generator needs one.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_MAX_WORKERS": "1",
}


#: Prefix of the line on which the tracing launcher reports the server's layers.
TRACE_PREFIX = "PERFBENCH_TRACE "

#: What :func:`calibration_work` takes on a CPU of the reference machine
#: when no other tenant slows it (see the README's "Noise and calibration").
REFERENCE_PROBE_S = 0.012


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def enter_checkout() -> None:
    """Pin threads and put ``src/`` on the import path, or raise."""
    os.environ.update(PINNED_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def subprocess_env() -> dict[str, str]:
    """Environment for a program subprocess: pinned, with ``src`` importable."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def load_spec() -> dict:
    """The benchmark definition (metric names, units, workloads)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """The *q*-th percentile (1..99), interpolated between samples."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return float(q1), float(q2), float(q3)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float | None:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def proc_cpu_s(pid: int) -> float | None:
    """User plus system CPU seconds a live process has used so far."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    # Fields 14 and 15 of stat (utime, stime) sit at 11 and 12 after the
    # command name.
    return (int(fields[11]) + int(fields[12])) / ticks


# -- CPU placement and calibration ---------------------------------------------------


def cpu_pair() -> tuple[int, int]:
    """Two CPUs this process may use: one for the client, one for the server.

    Both are the same CPU when only one is available.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def pin_thread(cpu: int) -> None:
    """Pin the calling thread (and the threads it starts) to *cpu*."""
    os.sched_setaffinity(0, {cpu})


def calibration_work() -> None:
    """A fixed unit of interpreter and small-array work, like the program's."""
    import numpy as np

    total = 0
    for value in range(120_000):
        total += value
    state = np.arange(48.0).reshape(6, 8)
    weights = np.ones((8, 4))
    for _ in range(3_000):
        (state @ weights).max()


def probe(cpu: int | None = None) -> float:
    """Seconds :func:`calibration_work` takes now, here or on *cpu*."""
    if cpu is None:
        start = perf_counter()
        calibration_work()
        return perf_counter() - start
    elapsed = []

    def run() -> None:
        pin_thread(cpu)
        start = perf_counter()
        calibration_work()
        elapsed.append(perf_counter() - start)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    return elapsed[0]


def to_reference(before: float, after: float) -> float:
    """Factor turning wall seconds into reference seconds.

    *before* and *after* are probes taken next to the timed section; the
    factor is :data:`REFERENCE_PROBE_S` over their mean.
    """
    return REFERENCE_PROBE_S / ((before + after) / 2.0)
