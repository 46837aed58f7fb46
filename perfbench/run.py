"""uavcap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-cold,solver-grid,mc-oracle} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.

Workloads (closed loops, one client in one process):
  cli-cold     fresh `python -m uavcap.cli` processes for the six commands
               at the reference point, one after another, --seed drawn from
               the workload seed. Import dominates it; solvers and Monte
               Carlo barely show.
  solver-grid  warm capacity solves over scenarios drawn from the seed: a
               bisect op is capacity_under_snr + capacity_under_pd_bisect on
               one scenario, a scan op capacity_under_pd_scan. 80 % of the
               scenarios come from the validate agreement domain, 20 % from
               the wider accepted one (frames up to 1e8, power up to
               150 dBm), where only the bisect op runs. The ROADMAP's two
               known solver errors hit there are counted as known-defect
               ops (known_defect_ratio); any other error is a failed op.
  mc-oracle    warm mc_mean_snr, mc_detection_rates and mc_integration_energy
               at the reference scenario, workers=1, each sized to take
               about the same time.

With --trace 0 the last line carries the end-to-end metrics, measured with
tracing off:
  setup_s           median over three fresh interpreters of `import uavcap`
                    plus building the workload's inputs and making the first
                    call of each op kind
  op_ms_p50         median latency of one op (a cold command, a solve, an
                    estimator call)
  op_ms_tail        the highest of p99/p90/p50 with at least ten ops beyond it
  throughput_per_s  work per second of busy time: commands, solves, or
                    Monte Carlo trials
  peak_rss_mb       peak resident set (cli-cold: the largest child)
The lines above it also give each workload's own figures by name
(cold_cmd_s_p50, bisect_solves_per_s, scan_solves_per_s,
mc_*_trials_per_s, fail_ratio and known_defect_ratio with their base),
the environment and the baseline measured on the package as first
released (baseline.json).

With --trace 1 half the time runs untraced and half with call wrappers at
the layer boundaries; the last line carries the per-layer metrics and the
spans go to .perfbench_work/. Every output is checked (see checks.py and
workloads.py); the exit code is 1 when a check fails, 2 on a bad checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, SRC, WORK, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2
DEADLINE_S = 170.0


def worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run worker.py; returns its JSON result and its set-up seconds."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} worker passed the {DEADLINE_S:.0f} s deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def baseline(workload: str) -> dict:
    path = HERE / "baseline.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get("workloads", {}).get(workload, {})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "uavcap" / "__init__.py").is_file():
        print(f"perfbench: no uavcap package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        setups = [worker(args, deadline, setup_only=True)[1] for _ in range(SETUP_PROBES)]
    result, setup = worker(args, deadline, setup_only=False)
    setups.append(setup)

    print(f"# uavcap benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for error in result["errors"]:
        print(f"# CHECK FAILED: {error}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        units = {"op_ms_p50": "ms", "op_ms_tail": "ms", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
        for name, value in result["e2e"].items():
            metrics[name] = {"value": value, "unit": units[name]}
        base = baseline(args.workload)
        for name, metric in metrics.items():
            ref = base.get(name)
            note = f"   (baseline median {ref['median']:.6g})" if ref else ""
            print(f"{name:<34} {metric['value']:>14.6g} {metric['unit']}{note}")
        for name, (value, unit) in result["report"].items():
            print(f"{name:<34} {value:>14.6g} {unit}")
    print(f"{'attempted':<34} {result['attempted']:>14d} ops, {result['failed']} failed, "
          f"{result['known_defects']} known-defect")

    WORK.mkdir(exist_ok=True)
    record = dict(vars(args), env=result["env"], metrics=metrics,
                  report=result.get("report"), attempted=result["attempted"],
                  failed=result["failed"], known_defects=result["known_defects"],
                  errors=result["errors"])
    (WORK / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms") or "_ms." in name or name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s") or ".cold_s." in name:
        return "s"
    if name.endswith(("_ratio", "_eff", "_over_log2")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
