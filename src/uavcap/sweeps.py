"""Parameter sweeps and their CSV serialization.

Each sweep kind has a fixed column set; one row per sweep point. A point
whose computation fails (e.g. a radius of 0) yields a row whose status
column carries the error text, and later points are still computed. Output
is deterministic: no timestamps, LF line endings, the resolved config
echoed as ``# key = value`` header lines (re-parsable by parse_config).
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass, replace

from .capacity import (
    CapacityBracketError,
    capacity_under_pd_bisect,
    capacity_under_snr,
    mean_snr_at,
)
from .config import ScenarioConfig, with_overrides
from .detection import SurrogateDomainError, joint_pd, log_joint_pd_surrogate, q_inv
from .link import linear_to_db
from .montecarlo import mc_mean_snr

SWEEP_KINDS = (
    "snr-vs-uavs",
    "pd-vs-uavs",
    "capacity-vs-radius",
    "capacity-vs-frames",
    "capacity-vs-power",
)

# start, stop, step defaults per kind (inclusive endpoints).
_DEFAULT_RANGES = {
    "snr-vs-uavs": (1.0, 50.0, 1.0),
    "pd-vs-uavs": (1.0, 50.0, 1.0),
    "capacity-vs-radius": (0.5, 2.0, 0.25),
    "capacity-vs-frames": (1.0, 10.0, 1.0),
    "capacity-vs-power": (50.0, 58.0, 2.0),
}

_INTEGER_KINDS = {"snr-vs-uavs", "pd-vs-uavs", "capacity-vs-frames"}

_COLUMNS = {
    "snr-vs-uavs": (
        "frames",
        "uav_count",
        "snr_db",
        "mc_snr_db",
        "mc_snr_halfwidth_db",
    ),
    "pd-vs-uavs": ("frames", "uav_count", "joint_pd_exact", "joint_pd_surrogate"),
    "capacity-vs-radius": (
        "radius_km",
        "snr_capacity",
        "pd_capacity",
        "snr_db_at_snr_capacity",
        "joint_pd_at_pd_capacity",
    ),
    "capacity-vs-frames": (
        "frames",
        "total_symbols",
        "snr_capacity",
        "pd_capacity",
        "snr_db_at_snr_capacity",
        "joint_pd_at_pd_capacity",
    ),
    "capacity-vs-power": (
        "tx_power_dbm",
        "snr_capacity",
        "pd_capacity",
        "snr_db_at_snr_capacity",
        "joint_pd_at_pd_capacity",
    ),
}

# Failures that should become an error row rather than abort the sweep.
_ROW_ERRORS = (ValueError, CapacityBracketError, ZeroDivisionError, OverflowError)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; unused columns stay None and render as empty cells."""

    swept_value: float
    frames: int | None = None
    total_symbols: int | None = None
    snr_db: float | None = None
    joint_pd_exact: float | None = None
    joint_pd_surrogate: float | None = None
    mc_snr_db: float | None = None
    mc_snr_halfwidth_db: float | None = None
    snr_capacity: int | None = None
    pd_capacity: int | None = None
    snr_db_at_snr_capacity: float | None = None
    joint_pd_at_pd_capacity: float | None = None
    error: str | None = None


def sweep_values(kind: str, config: ScenarioConfig) -> list[float]:
    """Inclusive sweep grid for `kind`, from config overrides or defaults."""
    if kind not in SWEEP_KINDS:
        raise ValueError(f"kind must be one of {SWEEP_KINDS}, got {kind!r}")
    start, stop, step = _DEFAULT_RANGES[kind]
    if config.sweep_start is not None:
        start = config.sweep_start
    if config.sweep_stop is not None:
        stop = config.sweep_stop
    if config.sweep_step is not None:
        step = config.sweep_step
    if stop < start:
        raise ValueError(f"sweep stop {stop:g} is below start {start:g}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = [start + i * step for i in range(count)]
    if kind in _INTEGER_KINDS:
        for value in values:
            if not float(value).is_integer():
                raise ValueError(
                    f"{kind} sweep needs integer points, got {value:g}"
                )
    return values


def _surrogate_column_mode(config: ScenarioConfig) -> str:
    # The surrogate column always shows a surrogate; an "exact" solver mode
    # falls back to the default expanded form for that column.
    return "fixed" if config.surrogate_mode == "fixed" else "expanded"


def _uav_count_rows(
    kind: str, config: ScenarioConfig, counts: list[float]
) -> list[SweepRow]:
    rows: list[SweepRow] = []
    xi = q_inv(config.pfa)
    surrogate_mode = _surrogate_column_mode(config)
    with_mc = kind == "snr-vs-uavs" and config.trials > 0
    # In unnormalized mode the sampled estimate (an expectation under the
    # normalized density) is scaled by sin(max_elevation) so the MC column
    # estimates the same quantity as the analytic column.
    mode_factor = (
        math.sin(config.max_elevation_rad)
        if config.snr_mode == "unnormalized"
        else 1.0
    )
    for ordinal, frames in enumerate(config.frame_curves):
        try:
            query = config.query(frames=frames)
            mean_one = mean_snr_at(query, 1)
            rho = 2.0 * mean_one
            mc_base = None
            if with_mc:
                # One independent substream per curve; the closed-form 1/L
                # split then scales the estimate row by row.
                estimate = mc_mean_snr(
                    config.link(), config.region(), config.plan(),
                    config.workers, salt=ordinal,
                )
                ratio = (
                    (query.total_symbols * config.uavs_per_symbol)
                    / (config.cpi_symbols * 1.0)
                )
                mc_base = (estimate.mean * ratio * mode_factor,
                           estimate.half_width * ratio * mode_factor)
        except _ROW_ERRORS as exc:
            # A curve whose mean SNR cannot be computed fails every row.
            rows.extend(
                SweepRow(swept_value=int(value), frames=frames, error=str(exc))
                for value in counts
            )
            continue
        for value in counts:
            count = int(value)
            try:
                if count < 1:
                    raise ValueError(f"uav count must be >= 1, got {count}")
                snr_l = mean_one / count
                if kind == "snr-vs-uavs":
                    mc_db = mc_hw_db = None
                    if mc_base is not None:
                        mc_mean, mc_hw = mc_base[0] / count, mc_base[1] / count
                        mc_db = linear_to_db(mc_mean)
                        mc_hw_db = 10.0 * math.log10(
                            (mc_mean + mc_hw) / mc_mean
                        )
                    rows.append(
                        SweepRow(
                            swept_value=count,
                            frames=frames,
                            snr_db=linear_to_db(snr_l),
                            mc_snr_db=mc_db,
                            mc_snr_halfwidth_db=mc_hw_db,
                        )
                    )
                else:
                    try:
                        approx = math.exp(
                            log_joint_pd_surrogate(rho, xi, count, surrogate_mode)
                        )
                    except SurrogateDomainError:
                        approx = None
                    rows.append(
                        SweepRow(
                            swept_value=count,
                            frames=frames,
                            joint_pd_exact=joint_pd(snr_l, count, config.pfa),
                            joint_pd_surrogate=approx,
                        )
                    )
            except _ROW_ERRORS as exc:
                rows.append(
                    SweepRow(swept_value=count, frames=frames, error=str(exc))
                )
    return rows


def _capacity_row(config: ScenarioConfig, frames: int | None = None) -> SweepRow:
    query = config.query(frames=frames)
    by_snr = capacity_under_snr(query)
    by_pd = capacity_under_pd_bisect(query)
    return SweepRow(
        swept_value=math.nan,  # caller fills
        snr_capacity=by_snr.max_uavs,
        pd_capacity=by_pd.max_uavs,
        snr_db_at_snr_capacity=linear_to_db(by_snr.achieved_snr),
        joint_pd_at_pd_capacity=by_pd.achieved_joint_pd,
    )


def run_sweep(kind: str, config: ScenarioConfig) -> list[SweepRow]:
    """Evaluate every sweep point; per-point failures become error rows."""
    values = sweep_values(kind, config)
    if kind in ("snr-vs-uavs", "pd-vs-uavs"):
        return _uav_count_rows(kind, config, values)

    rows: list[SweepRow] = []
    for value in values:
        try:
            if kind == "capacity-vs-radius":
                row = _capacity_row(with_overrides(config, radius_km=value))
            elif kind == "capacity-vs-power":
                row = _capacity_row(with_overrides(config, tx_power_dbm=value))
            else:
                frames = int(value)
                row = replace(
                    _capacity_row(config, frames=frames),
                    frames=frames,
                    total_symbols=frames * config.symbols_per_frame,
                )
            rows.append(replace(row, swept_value=value))
        except _ROW_ERRORS as exc:
            extra: dict[str, object] = {}
            if kind == "capacity-vs-frames":
                extra = {"frames": int(value)}
            rows.append(SweepRow(swept_value=value, error=str(exc), **extra))
    return rows


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _cell(row: SweepRow, column: str) -> str:
    if column in ("uav_count",):
        return _format_cell(int(row.swept_value))
    if column in ("radius_km", "tx_power_dbm"):
        return _format_cell(row.swept_value)
    if column == "frames":
        return _format_cell(row.frames)
    return _format_cell(getattr(row, column))


def render_sweep_csv(
    kind: str, config: ScenarioConfig, rows: list[SweepRow]
) -> str:
    """CSV text: `#` header with kind and resolved config, then the table."""
    out = io.StringIO()
    out.write("# uavcap sweep\n")
    out.write(f"# kind = {kind}\n")
    for key, value in config.document_items():
        out.write(f"# {key} = {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    columns = _COLUMNS[kind]
    writer.writerow(list(columns) + ["status"])
    for row in rows:
        status = "ok" if row.error is None else f"error: {row.error}"
        writer.writerow([_cell(row, c) for c in columns] + [status])
    return out.getvalue()
