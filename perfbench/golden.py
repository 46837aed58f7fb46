"""Regenerate golden.json from the sources in this checkout.

    python3 perfbench/golden.py

Runs the six CLI commands at the reference point under two seeds, checks
that the deterministic columns do not depend on the seed and that every
validation check passes, and writes the sweep digests and the validation
check names. Run it only on a commit whose outputs are known good; the
committed file was made from the package as first released.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

from checks import GOLDEN, table, sweep_digest
from common import COMMANDS, ROOT, WORK, child_env

SEEDS = (20260816, 7)


def run(command: str, seed: int) -> str:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = f"{tmp}/out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "uavcap.cli", command, "--seed", str(seed), "--out", out],
            cwd=ROOT, env=child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{command} --seed {seed} exited {proc.returncode}")
        with open(out, encoding="utf-8") as handle:
            return handle.read()


def main() -> None:
    golden: dict = {"sweeps": {}, "validate_checks": None}
    for command in COMMANDS:
        for seed in SEEDS:
            header, rows = table(run(command, seed))
            if command == "validate":
                col = {name: i for i, name in enumerate(header)}
                bad = [r for r in rows if r[col["status"]] != "pass"]
                if bad:
                    raise SystemExit(f"validate --seed {seed}: {bad}")
                names = [r[col["check"]] for r in rows]
                if golden["validate_checks"] not in (None, names):
                    raise SystemExit("validate check names depend on the seed")
                golden["validate_checks"] = names
                continue
            entry = {"rows": len(rows), "sha256": sweep_digest(header, rows)}
            if golden["sweeps"].setdefault(command, entry) != entry:
                raise SystemExit(f"{command}: deterministic columns depend on the seed")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
