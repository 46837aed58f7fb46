"""One benchmark process: imports the package, sets up a workload and runs
its timed loop. Started by run.py; prints one JSON object as its last line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field

from checks import CheckError
from common import COMMANDS, DEFECT, FAILED, OK, SRC, THREAD_ENV, WORK, tail
from tracer import LAYERS, Tracer

# Untimed warm-up of the in-process loops before measuring.
WARMUP_S = 1.0


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    defects: int = 0
    errors: list[str] = field(default_factory=list)

    def e2e(self) -> dict[str, float]:
        ordered = sorted(self.latencies)
        return {
            "op_ms_p50": statistics.median(ordered) * 1e3,
            "op_ms_tail": tail(ordered)[1] * 1e3,
            "throughput_per_s": self.work / sum(ordered),
        }

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            out.setdefault(kind, []).append(latency)
        return out


def run_loop(workload, seconds: float, tracer: Tracer | None = None, ops=None) -> Loop:
    """Run ops back to back for `seconds` (or the fixed `ops` list once)."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while True:
        for kind, fn in ops if ops is not None else workload.cycle():
            if tracer is not None:
                tracer.op += 1
                if workload.op_layer:
                    tracer.begin(workload.op_layer, kind)
            start = time.perf_counter()
            try:
                work, outcome, own = fn()
            except CheckError as exc:
                loop.errors.append(str(exc))
                work, outcome, own = 0.0, OK, None
            finally:
                if tracer is not None and workload.op_layer:
                    tracer.end()
            loop.latencies.append(own if own is not None else time.perf_counter() - start)
            loop.kinds.append(kind)
            loop.work += work
            loop.attempted += 1
            loop.failed += outcome == FAILED
            loop.defects += outcome == DEFECT
            if ops is None and time.perf_counter() >= deadline:
                return loop
        if ops is not None:
            return loop


def environment() -> dict[str, str]:
    import numpy
    import scipy
    import uavcap

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "uavcap": uavcap.__version__,
        "nproc": str(len(os.sched_getaffinity(0))),
        "machine": platform.machine(),
        **{k: os.environ.get(k, "") for k in THREAD_ENV},
    }


def traced_part(workload, seconds: float, untraced: Loop) -> tuple[dict[str, float], Loop]:
    import layers
    from workloads import warm_main

    tracer = Tracer()
    tracer.install({name: importlib.import_module(f"uavcap.{name}") for name in LAYERS})
    try:
        counted = run_loop(workload, 0.0, tracer, ops=workload.count_ops())
        counts = layers.counters(tracer)
        traced = run_loop(workload, seconds, tracer)
        # Every layer gets spans in every workload: one warm pass of the CLI.
        for i, command in enumerate(COMMANDS):
            tracer.op += 1
            warm_main(command, workload.seed + 100 + i, workload.tmp / "cover.csv")
    finally:
        tracer.uninstall()
    tracer.add_span("import", "import uavcap", *workload.import_span)
    tracer.write(WORK / f"spans-{workload.name}-{workload.seed}.jsonl")
    traced.errors += counted.errors

    out = dict(counts)
    out.update(layers.import_layer())
    out.update(layers.cli_layer(workload.seed, workload.tmp, untraced.by_kind()))
    out.update(layers.library_layers(workload.seed))
    for layer in ("import",) + LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    plain, with_trace = untraced.e2e(), traced.e2e()
    out["trace.overhead_op_ms_p50"] = with_trace["op_ms_p50"] - plain["op_ms_p50"]
    out["trace.overhead_throughput_per_s"] = with_trace["throughput_per_s"] - plain["throughput_per_s"]
    return out, traced


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import uavcap

    import_span = (start, time.perf_counter())
    if not os.path.realpath(uavcap.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"uavcap imported from {uavcap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOAD_TYPES

    workload = WORKLOAD_TYPES[args.workload](args.seed)
    workload.import_span = import_span
    setup_errors = []
    try:
        try:
            workload.setup()
        except CheckError as exc:  # the first calls are checked like any op
            setup_errors.append(str(exc))
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if workload.warm_up:
            setup_errors += run_loop(workload, WARMUP_S).errors
        result = {"ready": ready, "env": environment()}
        if args.trace:
            untraced = run_loop(workload, args.seconds / 2.0)
            per_layer, loop = traced_part(workload, args.seconds / 2.0, untraced)
            loop.errors += untraced.errors
            loop.attempted += untraced.attempted
            loop.failed += untraced.failed
            loop.defects += untraced.defects
            result["per_layer"] = per_layer
        else:
            loop = run_loop(workload, args.seconds)
            result["e2e"] = dict(loop.e2e(), peak_rss_mb=workload.peak_rss_mb())
            result["report"] = workload.report(loop)
        loop.errors[:0] = setup_errors
        result.update(attempted=loop.attempted, failed=loop.failed,
                      known_defects=loop.defects, errors=loop.errors[:20])
        result["correct"] = not loop.errors
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
