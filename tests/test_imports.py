"""scipy is never loaded, and numpy only by the commands that build arrays
(`validate` and `snr-vs-uavs` with trials): importing the package and
running a closed-form command must not pay for numpy. Checked in fresh
interpreters, which also run the past repros that each once failed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavcap

SRC = str(Path(uavcap.__file__).resolve().parent.parent)

# Runs `python -m uavcap.cli <argv>` in-process, then reports its exit code
# and which of numpy and scipy were imported on the way.
RUN_CLI = """
import runpy, sys
sys.argv = ["uavcap"] + sys.argv[1:]
try:
    runpy.run_module("uavcap.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print("exit", code, *[m for m in ("numpy", "scipy") if sys.modules.get(m)], file=sys.stderr)
"""

# The commands that need only scalar math.
CLOSED_FORM_COMMANDS = [
    ("pd-vs-uavs",),
    ("capacity-vs-radius",),
    ("capacity-vs-frames",),
    ("capacity-vs-power",),
    ("snr-vs-uavs", "--trials", "0"),
    # 7e7 frames: 776,189,494 UAVs, solved with no cap.
    ("capacity-vs-frames", "--set", "sweep_start=70000000", "--set", "sweep_stop=70000000"),
]

# validate at the reference and at past repros that each once exited 1.
VALIDATE_RUNS = [
    (),
    # One trial gives no spread estimate: inconclusive, not a fail.
    ("--trials", "1"),
    # A PD crossing past 60 UAVs: the joint-PD shape is read up to it.
    ("--set", "frames=4", "--set", "surrogate_mode=fixed", "--set", "pfa=0.01"),
    # A wide, large region: the mean-SNR oracle samples a log-uniform range.
    ("--set", "radius_km=1000", "--set", "radius_ratio=1000"),
    # A PD floor below 1/e: the joint-PD shape is read as convexity of -ln PD.
    ("--trials", "0", "--set", "pd_threshold=0.3"),
]


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def _run_cli(
    *argv: str, prelude: str = ""
) -> tuple[subprocess.CompletedProcess, int, set[str]]:
    """(process, the command's exit code, the heavy modules it loaded);
    prelude runs first in the same interpreter."""
    proc = _python("-c", prelude + RUN_CLI, *argv)
    _, code, *loaded = proc.stderr.splitlines()[-1].split()
    return proc, int(code), set(loaded)


def test_import_leaves_scipy_out() -> None:
    proc = _python("-c", "import sys, uavcap; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_import_leaves_numpy_out() -> None:
    proc = _python("-c", "import sys, uavcap; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_sweep_command_leaves_scipy_out() -> None:
    proc, code, loaded = _run_cli("capacity-vs-radius")
    assert code == 0 and "scipy" not in loaded, proc.stderr
    assert "radius_km,snr_capacity" in proc.stdout


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS, ids=" ".join)
def test_closed_form_command_leaves_numpy_out(argv: tuple[str, ...]) -> None:
    # `loaded` names numpy and scipy alike, so neither may appear.
    proc, code, loaded = _run_cli(*argv)
    assert (code, loaded) == (0, set()), proc.stderr
    assert proc.stdout.startswith("# uavcap sweep\n")
    assert proc.stdout.endswith(",ok\n")


def test_sampled_sweep_loads_numpy_and_passes() -> None:
    proc, code, loaded = _run_cli(
        "snr-vs-uavs", "--trials", "2000", "--set", "sweep_stop=3"
    )
    assert (code, loaded) == (0, {"numpy"}), proc.stderr
    assert "mc_snr_db" in proc.stdout


@pytest.mark.parametrize("argv", VALIDATE_RUNS, ids=lambda argv: " ".join(argv) or "reference")
def test_validate_loads_numpy_alone_and_passes(argv: tuple[str, ...]) -> None:
    proc, code, loaded = _run_cli("validate", *argv)
    assert (code, loaded) == (0, {"numpy"}), proc.stderr


def test_validate_runs_with_scipy_blocked() -> None:
    # A None entry in sys.modules makes `import scipy` raise ImportError, as
    # on an install without the test extra. The report must not change.
    blocked, code, loaded = _run_cli(
        "validate", prelude="import sys; sys.modules['scipy'] = None\n"
    )
    assert (code, loaded) == (0, {"numpy"}), blocked.stderr
    assert blocked.stdout == _run_cli("validate")[0].stdout
