"""In-memory spans and call counts for the traced benchmark run.

Spans are opened by the benchmark around its own calls into a layer and by
wrappers that `install` puts on module attributes: every name one uavcap
module imports from another (a layer boundary), plus the entry points the
benchmark calls through their home module. A few hot names called inside
their own module (`detection.q_inv`, `detection.pd_single`,
`montecarlo.substream`) get a counting wrapper without a span.

Self time is accumulated as spans close (duration minus the time covered
by child spans), so it is exact however many spans there are; only the
first SPAN_CAP spans are kept for the file written at the end of the run.

Counts are keyed by (site:function, enclosing solver), where the site is
the module whose attribute was wrapped ("bench" for the benchmark's own
calls) and the enclosing solver is the innermost open capacity solver
span, so evaluations can be attributed to the solver that made them.
"""

from __future__ import annotations

import json
import math
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

SPAN_CAP = 50_000
LAYERS = (
    "cli", "config", "sweeps", "validation", "capacity",
    "detection", "link", "geometry", "montecarlo",
)
SOLVERS = ("capacity_under_snr", "capacity_under_pd_bisect", "capacity_under_pd_scan")
ESTIMATORS = ("mc_mean_snr", "mc_detection_rates", "mc_integration_energy")

# Entry points the benchmark calls through their home module.
_ENTRIES = {
    "cli": ("main",),
    "config": ("parse_config",),
    "sweeps": ("run_sweep", "render_sweep_csv"),
    "validation": ("run_validation",),
    "capacity": SOLVERS,
    "montecarlo": ESTIMATORS,
}
_COUNT_ONLY = {"detection": ("q_inv", "pd_single"), "montecarlo": ("substream",)}

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = 0
        self.solver: str | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, layer: str, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, layer, name, _now(), 0.0, self.solver])
        self._next_id += 1
        if name in SOLVERS:
            self.solver = name

    def end(self) -> None:
        span_id, parent, layer, name, start, child, outer_solver = self._stack.pop()
        end = _now()
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][5] += duration
        self.solver = outer_solver
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, f"{layer}.{name}", start, end, self.op))
        else:
            self.dropped += 1

    def add_span(self, layer: str, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. the package import)."""
        self.self_s[layer] += end - start
        self.spans.append((self._next_id, -1, f"{layer}.{name}", start, end, self.op))
        self._next_id += 1

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, site: str, layer: str):
        tracer = self
        name = fn.__name__
        key = f"{site}:{name}"

        def wrapper(*args, **kwargs):
            tracer.counts[(key, tracer.solver)] += 1
            tracer.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[(f"{key}.raise.{type(exc).__name__}", tracer.solver)] += 1
                raise
            finally:
                tracer.end()
            if name == "capacity_under_pd_bisect":
                # Halvings a perfect search needs to name the answer.
                tracer.counts[(f"{key}.halvings", tracer.solver)] += math.ceil(
                    math.log2(result.max_uavs + 1)
                )
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, site: str):
        tracer = self
        key = f"{site}:{fn.__name__}"

        def wrapper(*args, **kwargs):
            tracer.counts[(key, tracer.solver)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module, attr: str, wrapper) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap layer boundaries in the given {layer: module} map."""
        for site, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home != site and home in LAYERS:
                    self._patch(module, attr, self._span_wrapper(value, site, home))
            for attr in _ENTRIES.get(site, ()):
                self._patch(module, attr, self._span_wrapper(getattr(module, attr), "bench", site))
            for attr in _COUNT_ONLY.get(site, ()):
                self._patch(module, attr, self._count_wrapper(getattr(module, attr), site))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------
    def total(self, key: str, solver: str | None | bool = True) -> int:
        """Sum of counts for `key`; solver=True sums every context, False
        only calls made inside some solver, a name one solver."""
        return sum(
            n for (k, s), n in self.counts.items()
            if k == key and (solver is True or (solver is False and s is not None) or s == solver)
        )

    def total_suffix(self, suffix: str, solver: str | None | bool = True) -> int:
        keys = {k for k, _ in self.counts if k.endswith(suffix)}
        return sum(self.total(k, solver) for k in keys)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, op in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "end": end, "op": op}
                ) + "\n")
            out.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
