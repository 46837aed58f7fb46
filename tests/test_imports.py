"""scipy is loaded by `validate` alone: importing the package and running a
sweep must not pay for it. Checked in fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import uavcap

SRC = str(Path(uavcap.__file__).resolve().parent.parent)

# Runs `python -m uavcap.cli <argv>` in-process, then reports whether scipy
# was imported on the way.
RUN_CLI = """
import runpy, sys
sys.argv = ["uavcap"] + sys.argv[1:]
try:
    runpy.run_module("uavcap.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print("exit", code, "scipy" in sys.modules, file=sys.stderr)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_import_leaves_scipy_out() -> None:
    proc = _python("-c", "import sys, uavcap; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_sweep_command_leaves_scipy_out() -> None:
    proc = _python("-c", RUN_CLI, "capacity-vs-radius")
    assert proc.stderr.splitlines()[-1] == "exit 0 False", proc.stderr
    assert "radius_km,snr_capacity" in proc.stdout


def test_validate_loads_scipy_and_passes() -> None:
    proc = _python("-c", RUN_CLI, "validate")
    assert proc.stderr.splitlines()[-1] == "exit 0 True", proc.stderr
