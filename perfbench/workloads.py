"""The three benchmark workloads.

Each is a closed loop with one client: the next op starts when the previous
one has returned. `setup` builds every input from the workload seed and
makes the first call of each op kind, so first-call costs land in set-up
time. `cycle` returns the ops of one pass over the inputs; an op returns
(work units, outcome, own latency or None) and raises CheckError when the
program's output is wrong. The outcome is OK, FAILED (an error the program
raised on an accepted input) or DEFECT (one of the ROADMAP's known solver
errors, on the inputs where it is known to occur). Both are counted, never
filtered out; DEFECT ops are reported apart, so that `failed` counts only
errors not already known.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from uavcap import capacity, cli, config, detection, link, montecarlo

from checks import CheckError, check_output, load_golden
from common import COMMANDS, DEFECT, FAILED, OK, ROOT, WORK, Z_MARGIN, child_env, tail

Op = tuple[str, Callable[[], tuple[float, str, float | None]]]

COLD_TIMEOUT_S = 60.0


def run_cold(command: str, seed: int, out: Path) -> tuple[float, int, str]:
    """One `python -m uavcap.cli` process: (seconds to exit, exit code, CSV)."""
    argv = [sys.executable, "-m", "uavcap.cli", command, "--seed", str(seed), "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    return elapsed, code, text


def warm_main(command: str, seed: int, out: Path) -> tuple[int, str]:
    """The CLI entry point in this process (through the module attribute, so
    the traced run's wrapper sees it): (exit code, CSV)."""
    code = cli.main([command, "--seed", str(seed), "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    return code, text


class Workload:
    name = ""
    # Layer of a span the traced loop opens around each op (None: the
    # tracer's entry-point wrappers already open one).
    op_layer: str | None = None
    warm_up = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=WORK))

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def count_ops(self) -> list[Op]:
        """A fixed, seed-determined op list for the deterministic counters."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def report(self, loop) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, by the names users know."""
        raise NotImplementedError

    def close(self) -> None:
        for path in self.tmp.iterdir():
            path.unlink()
        self.tmp.rmdir()


class ColdCli(Workload):
    """Fresh `python -m uavcap.cli` processes, all six commands in turn."""

    name = "cli-cold"
    op_layer = "cli"
    # Each op is a fresh process: nothing in this one to warm up.
    warm_up = False

    def setup(self) -> None:
        self.golden = load_golden()
        self.seeds = random.Random(self.seed)

    def _cold(self, command: str) -> tuple[float, str, float]:
        elapsed, code, text = run_cold(command, self.seeds.randrange(2**31), self.tmp / "out.csv")
        check_output(command, text, code, self.golden)
        return 1.0, OK, elapsed

    def cycle(self) -> list[Op]:
        return [(c, lambda c=c: self._cold(c)) for c in COMMANDS]

    def count_ops(self) -> list[Op]:
        def op(command: str, seed: int):
            code, text = warm_main(command, seed, self.tmp / "count.csv")
            check_output(command, text, code, self.golden)
            return 1.0, OK, None
        return [(c, lambda c=c, s=self.seed + i: op(c, s)) for i, c in enumerate(COMMANDS)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def report(self, loop) -> dict[str, tuple[float, str]]:
        ordered = sorted(loop.latencies)
        pct, value = tail(ordered)
        return {
            "cold_cmd_s_p50": (statistics.median(ordered), "s"),
            f"cold_cmd_s_tail(p{pct:g},n={len(ordered)})": (value, "s"),
        }


# The validate agreement domain (radius, ratio, elevation, power, floor,
# pfa, frames) and the wider accepted one used for a fixed share.
WIDE_SHARE = 0.2
SCENARIOS = 16000
# Ops at the head of the plan that the traced run counts calls over.
COUNTED_OPS = 3000
# A scan runs on one in SCAN_EVERY scenarios of the first domain, so scans
# are about a sixth of the ops: the median op is a bisect solve, the tail is
# the scan, and both move the throughput.
SCAN_EVERY = 4
# The ROADMAP's known solver defects, by solver, reached on the wide share
# only: the post-hoc check of capacity_under_snr rejects its own floor near
# large integers, and the bisect bracket stops at its cap when the budget
# allows no violation. Any other error, or one of these elsewhere, fails.
KNOWN_DEFECTS = {
    "capacity_under_snr": (RuntimeError, "internal error: constraint still satisfied at "),
    "capacity_under_pd_bisect": (
        capacity.CapacityBracketError, "joint-PD constraint not violated by any count"
    ),
}


def _latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, one in each of the n equal slices of every axis."""
    slices = np.argsort(rng.random((dims, n)), axis=1).T
    return (slices + rng.random((n, dims))) / n


class SolverGrid(Workload):
    """Warm capacity solves over seed-drawn scenarios."""

    name = "solver-grid"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        base = config.parse_config("")
        # Each scenario's group: scanned first-domain, other first-domain, or
        # wide. Within a group the draws are Latin-hypercube stratified, so
        # every seed gives nearly the same mix of easy and costly solves.
        n_wide = int(WIDE_SHARE * SCENARIOS)
        n_scan = (SCENARIOS - n_wide) // SCAN_EVERY
        group = np.repeat([0, 1, 2], [n_scan, SCENARIOS - n_wide - n_scan, n_wide])
        rng.shuffle(group)
        draws = [_latin_hypercube(rng, int(np.sum(group == g)), 9) for g in range(3)]
        taken = [0, 0, 0]
        self.queries = []
        self.wide = (group == 2).tolist()
        self.plan: list[tuple[str, int]] = []
        for i, g in enumerate(group):
            u, taken[g] = draws[g][taken[g]], taken[g] + 1
            is_wide = self.wide[i]
            frames = round(10.0 ** (8.0 * u[6])) if is_wide else 1 + int(10.0 * u[6])
            power = (50.0 + 100.0 * u[3]) if is_wide else (50.0 + 10.0 * u[3])
            scenario = config.with_overrides(
                base,
                radius_km=0.5 + 1.5 * u[0],
                radius_ratio=2.0 + 18.0 * u[1],
                max_elevation_rad=0.15 + (math.pi / 2.0 - 0.15) * u[2],
                tx_power_dbm=power,
                pd_threshold=0.8 + 0.19 * u[4],
                pfa=0.01 + 0.19 * u[5],
                frames=frames,
                snr_mode="normalized" if u[7] < 0.5 else "unnormalized",
                surrogate_mode=("exact", "expanded", "fixed")[int(3.0 * u[8])],
            )
            self.queries.append(scenario.query())
            self.plan.append(("bisect", i))
            if g == 0:
                self.plan.append(("scan", i))
        self.expected: dict[tuple[str, int], list] = {}
        for kind, i in self.plan:
            self._op(kind, i)
            if kind == "scan":
                break

    def _solve(self, solver: str, i: int):
        """The solver's result on scenario i, or the outcome and name of the
        error it raised on this accepted input."""
        try:
            return getattr(capacity, solver)(self.queries[i])
        except Exception as exc:
            kind, text = KNOWN_DEFECTS.get(solver, (None, ""))
            known = self.wide[i] and type(exc) is kind and str(exc).startswith(text)
            return (DEFECT if known else FAILED), type(exc).__name__

    def _op(self, kind: str, i: int) -> tuple[float, str, float]:
        query = self.queries[i]
        start = time.perf_counter()
        if kind == "bisect":
            outcome = (
                self._solve("capacity_under_snr", i),
                self._solve("capacity_under_pd_bisect", i),
            )
        else:
            outcome = (self._solve("capacity_under_pd_scan", i),)
        elapsed = time.perf_counter() - start
        key = [r[1] if isinstance(r, tuple) else r.max_uavs for r in outcome]
        if self.expected.setdefault((kind, i), key) != key:
            raise CheckError(f"{kind} on scenario {i}: {key}, earlier {self.expected[(kind, i)]}")
        if kind == "scan" and query.surrogate_mode == "exact":
            scan = outcome[0]
            bisect = self.expected.get(("bisect", i), [None, None])[1]
            both = not isinstance(scan, tuple) and isinstance(bisect, int)
            if both and not scan.cap_reached and bisect != scan.max_uavs:
                raise CheckError(f"scenario {i}: bisect {bisect} != scan {scan.max_uavs}")
        errors = {r[0] for r in outcome if isinstance(r, tuple)}
        return 1.0, FAILED if FAILED in errors else (DEFECT if errors else OK), elapsed

    def cycle(self) -> list[Op]:
        return [(kind, lambda kind=kind, i=i: self._op(kind, i)) for kind, i in self.plan]

    def count_ops(self) -> list[Op]:
        return self.cycle()[:COUNTED_OPS]

    def report(self, loop) -> dict[str, tuple[float, str]]:
        times = loop.by_kind()
        bisect, scan = times["bisect"], times.get("scan", [math.inf])
        failed, defects = loop.failed, loop.defects
        return {
            "bisect_solves_per_s": (len(bisect) / sum(bisect), "1/s"),
            "bisect_solve_us_p50": (statistics.median(bisect) * 1e6, "us"),
            "scan_solves_per_s": (len(scan) / sum(scan), "1/s"),
            f"fail_ratio({failed}/{loop.attempted})": (failed / loop.attempted, "ratio"),
            f"known_defect_ratio({defects}/{loop.attempted})": (defects / loop.attempted, "ratio"),
        }


# Trials per call, chosen so the kernels take distinct times (about 30, 55
# and 70 ms on a 2-core x86-64 container): the median op is then a detection
# call and the p90 a mean-SNR call, never the boundary between two kernels.
# A run then makes a few hundred calls, well clear of the 1000 at which the
# tail would switch from p90 to p99.
MC_TRIALS = {"snr": 2**20, "detect": 2**17, "energy": 2**17}


class McOracle(Workload):
    """Warm Monte Carlo oracles at the reference scenario, workers=1."""

    name = "mc-oracle"

    def setup(self) -> None:
        cfg = config.parse_config("", {"seed": str(self.seed)})
        self.link, self.region = cfg.link(), cfg.region()
        self.pfa, self.cpi = cfg.pfa, cfg.cpi_symbols
        self.det_snr = (detection.q_inv(cfg.pfa) - detection.q_inv(0.9)) ** 2 / 2.0
        self.amplitude = math.sqrt(link.path_gain_squared(self.link, cfg.radius_km))
        self.truth = {
            "snr": link.mean_single_uav_snr(self.link, self.region, "normalized"),
            "detect": (detection.pd_single(self.det_snr, self.pfa), self.pfa),
            "energy": self._energy_truth(),
        }
        self.salt = 0
        for kind in MC_TRIALS:
            self._op(kind)

    def _energy_truth(self) -> float:
        n = self.link.cpi_symbols
        signal = self.link.gain_amplitude * math.sqrt(
            self.link.tx_power_mw / self.link.uavs_per_symbol
        ) * self.amplitude
        return n * n * signal**2 + n * self.link.noise_power_mw

    def _op(self, kind: str) -> tuple[float, str, float]:
        self.salt += 1
        plan, salt = montecarlo.TrialPlan(MC_TRIALS[kind], self.seed), self.salt
        start = time.perf_counter()
        if kind == "snr":
            result = montecarlo.mc_mean_snr(self.link, self.region, plan, 1, salt)
        elif kind == "detect":
            result = montecarlo.mc_detection_rates(self.det_snr, self.pfa, self.cpi, plan, 1, salt)
        else:
            result = montecarlo.mc_integration_energy(self.link, self.amplitude, plan, 1, salt)
        elapsed = time.perf_counter() - start
        self._check(kind, result, plan)
        return float(plan.trials), OK, elapsed

    def _check(self, kind: str, result, plan) -> None:
        if kind == "detect":
            pairs = zip(result, self.truth["detect"], ("pd", "pfa"))
            for estimate, p, label in pairs:
                se = math.sqrt(p * (1.0 - p) / plan.trials)
                if abs(estimate.mean - p) > Z_MARGIN * se:
                    raise CheckError(f"detect {label}: {estimate.mean} vs {p} (SE {se:.3g})")
            return
        z = statistics.NormalDist().inv_cdf(0.5 + plan.confidence / 2.0)
        se = result.half_width / z
        truth = self.truth[kind]
        if abs(result.mean - truth) > Z_MARGIN * se:
            raise CheckError(f"{kind}: {result.mean} vs closed form {truth} (SE {se:.3g})")

    def cycle(self) -> list[Op]:
        return [(kind, lambda kind=kind: self._op(kind)) for kind in MC_TRIALS]

    def count_ops(self) -> list[Op]:
        return self.cycle()

    def report(self, loop) -> dict[str, tuple[float, str]]:
        out = {}
        for kind, times in loop.by_kind().items():
            out[f"mc_{kind}_trials_per_s"] = (MC_TRIALS[kind] * len(times) / sum(times), "1/s")
        return out


WORKLOAD_TYPES = {w.name: w for w in (ColdCli, SolverGrid, McOracle)}
