"""Per-layer measurements for the traced run, taken from outside each layer
by timing calls into its public functions (tracing switched off)."""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Callable

import numpy as np

from uavcap import capacity, config, detection, geometry, link, montecarlo, sweeps, validation

from common import COMMANDS, ROOT, child_env
from tracer import ESTIMATORS, SOLVERS, Tracer
from workloads import MC_TRIALS, run_cold, warm_main


def per_call_us(fn: Callable[[], object], budget_s: float = 0.1, batches: int = 5) -> float:
    """Median over batches of the mean time per call, in microseconds."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    reps = max(1, int(budget_s / batches / once))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples) * 1e6


def median_ms(fn: Callable[[], object], reps: int = 3) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_layer() -> dict[str, float]:
    """`-X importtime` of `import uavcap` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sys, uavcap; print(len(sys.modules))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    cumulative: dict[str, int] = {}
    scipy_self = 0
    for match in _IMPORTTIME.finditer(proc.stderr):
        own, total, name = int(match[1]), int(match[2]), match[4]
        cumulative.setdefault(name, total)
        if name == "scipy" or name.startswith("scipy."):
            scipy_self += own
    return {
        "import.uavcap_ms": cumulative["uavcap"] / 1e3,
        "import.validation_ms": cumulative["uavcap.validation"] / 1e3,
        "import.detection_ms": cumulative["uavcap.detection"] / 1e3,
        "import.scipy_ms": scipy_self / 1e3,
        "import.modules_loaded": float(proc.stdout.split()[-1]),
    }


def cli_layer(seed: int, tmp, cold_s: dict[str, list[float]]) -> dict[str, float]:
    """Cold per-command medians (from the cli-cold loop's ops by kind, or one
    cold run of each command) and warm `main(argv)` times."""
    out: dict[str, float] = {}
    for i, command in enumerate(COMMANDS):
        if cold_s.get(command):
            out[f"cli.cold_s.{command}"] = statistics.median(cold_s[command])
        else:
            out[f"cli.cold_s.{command}"] = run_cold(command, seed + i, tmp / "cold.csv")[0]
        out[f"cli.main_warm_ms.{command}"] = median_ms(
            lambda command=command: warm_main(command, seed + i, tmp / "warm.csv")
        )
    return out


def library_layers(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    cfg = config.parse_config("", {"seed": str(seed)})
    out["config.parse_config_us"] = per_call_us(lambda: config.parse_config("", {"seed": str(seed)}))

    for kind in sweeps.SWEEP_KINDS:
        out[f"sweeps.run_sweep_ms.{kind}"] = median_ms(lambda kind=kind: sweeps.run_sweep(kind, cfg))
        rows = sweeps.run_sweep(kind, cfg)
        out[f"sweeps.render_csv_us.{kind}"] = per_call_us(
            lambda kind=kind, rows=rows: sweeps.render_sweep_csv(kind, cfg, rows)
        )
    out["validation.run_validation_ms"] = median_ms(lambda: validation.run_validation(cfg), reps=2)

    query = cfg.query()
    out["capacity.snr_us"] = per_call_us(lambda: capacity.capacity_under_snr(query))
    for mode in ("exact", "expanded", "fixed"):
        q_mode = replace(query, surrogate_mode=mode)
        out[f"capacity.bisect_us.{mode}"] = per_call_us(lambda q=q_mode: capacity.capacity_under_pd_bisect(q))
    out["capacity.scan_us"] = per_call_us(lambda: capacity.capacity_under_pd_scan(query))

    mean_one = capacity.mean_snr_at(query, 1)
    xi = detection.q_inv(cfg.pfa)
    count = max(capacity.capacity_under_pd_bisect(query).max_uavs, 1)
    out["detection.q_inv_us"] = per_call_us(lambda: detection.q_inv(cfg.pfa))
    out["detection.pd_single_us"] = per_call_us(lambda: detection.pd_single(mean_one / count, cfg.pfa))
    out["detection.joint_pd_us"] = per_call_us(lambda: detection.joint_pd(mean_one / count, count, cfg.pfa))
    out["detection.surrogate_us"] = per_call_us(
        lambda: detection.log_joint_pd_surrogate(2.0 * mean_one, xi, count, "expanded")
    )
    out["link.mean_multi_uav_snr_us"] = per_call_us(
        lambda: link.mean_multi_uav_snr(query.link, query.region, query.total_symbols, count, query.snr_mode)
    )

    rng = np.random.default_rng(seed)
    chunk = 4096
    out["geometry.sample_positions_per_s"] = chunk / (
        per_call_us(lambda: geometry.sample_positions(cfg.region(), rng, chunk)) / 1e6
    )
    out["montecarlo.substream_us"] = per_call_us(lambda: montecarlo.substream(seed, 1, 7, 0))

    lnk, region = cfg.link(), cfg.region()
    det_snr = (xi - detection.q_inv(0.9)) ** 2 / 2.0
    amplitude = np.sqrt(link.path_gain_squared(lnk, cfg.radius_km))
    kernels = {
        "snr": lambda plan, w: montecarlo.mc_mean_snr(lnk, region, plan, w),
        "detect": lambda plan, w: montecarlo.mc_detection_rates(det_snr, cfg.pfa, cfg.cpi_symbols, plan, w),
        "energy": lambda plan, w: montecarlo.mc_integration_energy(lnk, amplitude, plan, w),
    }
    for kind, kernel in kernels.items():
        plan = montecarlo.TrialPlan(MC_TRIALS[kind], seed)
        rates = {}
        for workers in (1, 2):
            rates[workers] = plan.trials / (median_ms(lambda: kernel(plan, workers)) / 1e3)
            out[f"montecarlo.{kind}.w{workers}_trials_per_s"] = rates[workers]
        out[f"montecarlo.{kind}.w2_scaling_eff"] = rates[2] / (2.0 * rates[1])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(tracer: Tracer) -> dict[str, float]:
    """Deterministic counts from the counting pass; 0 where the workload
    never reaches the layer."""
    bisect, scan = "capacity_under_pd_bisect", "capacity_under_pd_scan"
    surrogate = "capacity:log_joint_pd_surrogate"
    fallback = f"{surrogate}.raise.SurrogateDomainError"
    bisect_evals = (
        tracer.total("capacity:pd_single", bisect)
        + tracer.total(surrogate, bisect)
        - tracer.total(fallback, bisect)
    )
    bisect_calls = tracer.total_suffix(f":{bisect}")
    solves = sum(tracer.total_suffix(f":{s}") for s in SOLVERS)
    estimates = sum(tracer.total_suffix(f":{e}") for e in ESTIMATORS)
    out = {
        "capacity.bisect_evals": _ratio(bisect_evals, bisect_calls),
        "capacity.scan_evals": _ratio(tracer.total("capacity:joint_pd", scan), tracer.total_suffix(f":{scan}")),
        "capacity.bisect_evals_over_log2": _ratio(tracer.total_suffix(f":{bisect}.halvings"), bisect_evals),
        "capacity.surrogate_fallback_ratio": _ratio(tracer.total(fallback), tracer.total(surrogate)),
        "detection.q_inv_calls_per_solve": _ratio(tracer.total_suffix(":q_inv", False), solves),
        "montecarlo.chunks_per_call": _ratio(tracer.total("montecarlo:substream"), estimates),
    }
    for error in ("RuntimeError", "CapacityBracketError"):
        out[f"capacity.errors.{error}"] = float(
            sum(tracer.total_suffix(f":{s}.raise.{error}") for s in SOLVERS)
        )
    return out
