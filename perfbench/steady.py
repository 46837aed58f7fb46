"""Check the benchmark's own steadiness, or its deterministic counters.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--write-baseline]
    python3 perfbench/steady.py --counters --seeds 7 [--seconds 4]

The first form runs run.py once per seed and workload (seed-major, so a
slow spell on the machine spreads over every workload) and prints, per
end-to-end metric, the median and the quartile spread as a share of the
median next to a third of the metric's bound in BENCHMARK.json. With
--write-baseline it stores those figures and the environment in
baseline.json, which run.py prints beside each result.

The second form makes two traced runs per workload with the same seed and
checks that every deterministic counter repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import DETERMINISTIC, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    print("\n".join(report), flush=True)
    return json.loads(last)


def counters(args) -> int:
    bad = 0
    for workload in args.workloads:
        first, second = (run(workload, args.seeds[0], args.seconds, 1)["metrics"] for _ in range(2))
        for name in DETERMINISTIC:
            a, b = first[name]["value"], second[name]["value"]
            bad += a != b
            print(f"{workload:<12} {name:<38} {a!r:>22} {b!r:>22} {'same' if a == b else 'DIFFERENT'}")
    return 1 if bad else 0


def steadiness(args, spec: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = run(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed or failed ops")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: failed={result['failed']}/{result['attempted']} " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    summary: dict = {}
    worst = 0
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name] / 3.0
            steady = name == "setup_s" or spread < limit
            worst += not steady
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
            print(f"{workload:<12} {name:<18} median {med:<14.6g} spread {spread:7.4f} "
                  f"(limit {limit:.4f}) {'ok' if steady else 'TOO WIDE'}")
    if args.write_baseline:
        env = json.loads((ROOT / ".perfbench_work" / f"result-{args.workloads[0]}-{args.seeds[-1]}-t0.json")
                         .read_text(encoding="utf-8"))["env"]
        (HERE / "baseline.json").write_text(json.dumps(
            {"seconds": args.seconds, "seeds": args.seeds, "env": env, "workloads": summary},
            indent=1) + "\n", encoding="utf-8")
    return 1 if worst else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=list(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--counters", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    return counters(args) if args.counters else steadiness(args, spec)


if __name__ == "__main__":
    sys.exit(main())
