"""Paths, child environment and order statistics shared by the benchmark files."""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every process the benchmark starts runs numpy's native code on one thread,
# so a workload's closed loop is one client on at most one core (the w2
# montecarlo probe adds the second thread itself).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

COMMANDS = (
    "snr-vs-uavs",
    "pd-vs-uavs",
    "capacity-vs-radius",
    "capacity-vs-frames",
    "capacity-vs-power",
    "validate",
)
WORKLOADS = ("cli-cold", "solver-grid", "mc-oracle")
# Outcome of one op: see workloads.py.
OK, FAILED, DEFECT = "ok", "failed", "known-defect"
# Per-layer counts that must repeat exactly across traced runs of one seed.
DETERMINISTIC = (
    "capacity.bisect_evals", "capacity.scan_evals", "capacity.bisect_evals_over_log2",
    "capacity.surrogate_fallback_ratio", "capacity.errors.RuntimeError",
    "capacity.errors.CapacityBracketError", "detection.q_inv_calls_per_solve",
    "montecarlo.chunks_per_call", "import.modules_loaded",
)

# Sampled values must lie within Z_MARGIN standard errors of their truth.
# A correct estimator misses that by chance with probability 2e-9 per
# estimate, so a run of a few hundred estimates stays below 1e-6.
Z_MARGIN = 6.0


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's
    own sources first on the path, native thread pools pinned to one."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(ordered: list[float]) -> tuple[float, float]:
    """(pct, value): the highest of p99 and p90 that leaves at least ten
    samples beyond it, or the median when there are fewer than 100 samples."""
    n = len(ordered)
    for pct in (99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, percentile(ordered, pct)
    return 50.0, statistics.median(ordered)
