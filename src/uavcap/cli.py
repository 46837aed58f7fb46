"""Command-line front end: sweeps and the validation report as CSV.

Exit status: 0 on success (sweep row errors are data, not failures),
1 when `validate` has at least one failed check, 2 on bad usage or config.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .sweeps import SWEEP_KINDS, render_sweep_csv, run_sweep
from .validation import failed_checks, render_validation_csv, run_validation


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", type=Path, default=None,
        help="scenario config file (key = value lines); defaults apply when omitted",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output CSV path (stdout when omitted)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument(
        "--trials", type=int, default=None, help="Monte Carlo trial count override"
    )
    parser.add_argument(
        "--set", dest="assignments", action="append", default=[],
        metavar="KEY=VALUE", help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcap",
        description="Sensing-capacity curves and self-validation for a UAV-detecting base station",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    briefs = {
        "snr-vs-uavs": "mean per-UAV SNR against UAV count (analytic + Monte Carlo)",
        "pd-vs-uavs": "joint detection probability against UAV count (exact + surrogate)",
        "capacity-vs-radius": "both capacities against the region's outer radius",
        "capacity-vs-frames": "both capacities against the frame budget",
        "capacity-vs-power": "both capacities against transmit power",
    }
    for kind in SWEEP_KINDS:
        _add_common(sub.add_parser(kind, help=briefs[kind]))
    _add_common(sub.add_parser("validate", help="run every closed-form cross-check"))
    return parser


def _resolve_config(args: argparse.Namespace):
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{args.config}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    overrides: dict[str, str] = {}
    for item in args.assignments:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.trials is not None:
        overrides["trials"] = str(args.trials)
    return parse_config(text, overrides)


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8", newline="\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "validate":
            results = run_validation(config)
            _emit(render_validation_csv(config, results), args.out)
            return 1 if failed_checks(results) else 0
        rows = run_sweep(args.command, config)
        _emit(render_sweep_csv(args.command, config, rows), args.out)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"uavcap: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
