"""Output checks for the six CLI commands.

Sweep CSVs must match, row for row, the digests in golden.json in every
deterministic column. The `#` header is skipped, so provenance lines may
change. Sampled columns (the Monte Carlo SNR and its half-width) only need
to lie within Z_MARGIN standard errors of the closed form, so a declared
Monte Carlo stream change still passes. `validate` must list the same
checks as golden.json, every deterministic check must pass, and a
statistical check that failed at its own 3-sigma (or 1 % KS) tolerance is
accepted only while it stays within twice that tolerance (6 sigma).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from statistics import NormalDist

from common import Z_MARGIN

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SAMPLED_COLUMNS = ("mc_snr_db", "mc_snr_halfwidth_db")
# Checks whose verdict rests on sampled data; their tolerance is 3 standard
# errors or a 1 % KS critical value, so a correct program fails each one at
# a few random seeds in a thousand.
STATISTICAL_CHECKS = frozenset({
    "sampler_ks_range", "sampler_ks_elevation", "sampler_ks_azimuth",
    "mean_snr_mc_vs_closed_form", "mean_snr_mode_gap",
    "detection_pd_rate", "detection_pfa_rate",
    "integration_energy_n1", "integration_energy_n3", "integration_energy_n8",
    "integration_snr_slope",
})
# The CLI reports Monte Carlo half-widths at the default 0.99 confidence.
_Z_CONFIDENCE = NormalDist().inv_cdf(0.995)


class CheckError(Exception):
    """A command's output differs from what a correct program prints."""


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def table(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a uavcap CSV, `#` lines skipped."""
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    if not rows:
        raise CheckError("no CSV table in the output")
    return rows[0], rows[1:]


def sweep_digest(header: list[str], rows: list[list[str]]) -> str:
    keep = [i for i, name in enumerate(header) if name not in SAMPLED_COLUMNS]
    lines = [",".join(header[i] for i in keep)]
    lines += [",".join(row[i] for i in keep) for row in rows]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _check_sampled_snr(header: list[str], rows: list[list[str]]) -> None:
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        truth = 10.0 ** (float(row[col["snr_db"]]) / 10.0)
        mean = 10.0 ** (float(row[col["mc_snr_db"]]) / 10.0)
        half = mean * (10.0 ** (float(row[col["mc_snr_halfwidth_db"]]) / 10.0) - 1.0)
        if abs(mean - truth) > Z_MARGIN / _Z_CONFIDENCE * half:
            raise CheckError(
                f"snr-vs-uavs: sampled SNR {mean:.6g} is more than {Z_MARGIN} SE "
                f"from the closed form {truth:.6g} (row {row})"
            )


def check_sweep(command: str, text: str, golden: dict) -> None:
    header, rows = table(text)
    expected = golden["sweeps"][command]
    if len(rows) != expected["rows"]:
        raise CheckError(f"{command}: {len(rows)} rows, expected {expected['rows']}")
    if sweep_digest(header, rows) != expected["sha256"]:
        raise CheckError(f"{command}: deterministic columns differ from golden.json")
    if command == "snr-vs-uavs":
        _check_sampled_snr(header, rows)


def check_validate(text: str, exit_code: int, golden: dict) -> None:
    header, rows = table(text)
    col = {name: i for i, name in enumerate(header)}
    names = [row[col["check"]] for row in rows]
    if names != golden["validate_checks"]:
        raise CheckError(f"validate: check names {names} differ from golden.json")
    failed = 0
    for row in rows:
        name, status = row[col["check"]], row[col["status"]]
        if status == "pass":
            continue
        if status == "fail" and name in STATISTICAL_CHECKS:
            gap = abs(float(row[col["measured"]]) - float(row[col["expected"]]))
            if gap <= 2.0 * float(row[col["tolerance"]]):
                failed += 1
                continue
        raise CheckError(f"validate: {name} is {status}: {row}")
    if exit_code != (1 if failed else 0):
        raise CheckError(f"validate: exit code {exit_code} with {failed} fail rows")


def check_output(command: str, text: str, exit_code: int, golden: dict) -> None:
    if command == "validate":
        check_validate(text, exit_code, golden)
        return
    if exit_code != 0:
        raise CheckError(f"{command}: exit code {exit_code}")
    check_sweep(command, text, golden)
