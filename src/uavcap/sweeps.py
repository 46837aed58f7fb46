"""Parameter sweeps and their CSV serialization.

Each sweep kind has a fixed column set; one row per sweep point. A row is a
dict keyed by column name plus ``status`` ("ok" or "error: ..."); a column
missing from it renders as an empty cell. A point whose computation fails
(e.g. a radius of 0) yields a row whose status carries the error text, and
later points are still computed. Output is deterministic: no timestamps,
LF line endings, the resolved config echoed as ``# key = value`` header
lines (re-parsable by parse_config).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

from .capacity import capacity_under_pd_bisect, capacity_under_snr, mean_snr_at, one_uav_link
from .config import ConfigError, ScenarioConfig, render_csv
from .detection import SurrogateDomainError, joint_pd, log_joint_pd_surrogate, q_inv
from .geometry import density_mass
from .link import linear_to_db
from .montecarlo import mc_mean_snr


class _Kind(NamedTuple):
    grid: tuple[float, float, float]  # default start, stop, step (inclusive)
    integer: bool  # sweep points must be whole numbers
    columns: tuple[str, ...]  # capacity sweeps: the first is the swept key


_KINDS = {
    "snr-vs-uavs": _Kind(
        (1.0, 50.0, 1.0), True,
        ("frames", "uav_count", "snr_db", "mc_snr_db", "mc_snr_halfwidth_db"),
    ),
    "pd-vs-uavs": _Kind(
        (1.0, 50.0, 1.0), True,
        ("frames", "uav_count", "joint_pd_exact", "joint_pd_surrogate"),
    ),
    "capacity-vs-radius": _Kind(
        (0.5, 2.0, 0.25), False,
        ("radius_km", "snr_capacity", "pd_capacity", "snr_db_at_snr_capacity",
         "joint_pd_at_pd_capacity"),
    ),
    "capacity-vs-frames": _Kind(
        (1.0, 10.0, 1.0), True,
        ("frames", "total_symbols", "snr_capacity", "pd_capacity",
         "snr_db_at_snr_capacity", "joint_pd_at_pd_capacity"),
    ),
    "capacity-vs-power": _Kind(
        (50.0, 58.0, 2.0), False,
        ("tx_power_dbm", "snr_capacity", "pd_capacity", "snr_db_at_snr_capacity",
         "joint_pd_at_pd_capacity"),
    ),
}
SWEEP_KINDS = tuple(_KINDS)

# Failures that should become an error row rather than abort the sweep.
_ROW_ERRORS = (ValueError, ZeroDivisionError, OverflowError)

# The most points one sweep grid may have; larger grids are a ConfigError.
MAX_SWEEP_POINTS = 10**6


def sweep_values(kind: str, config: ScenarioConfig) -> list[float]:
    """Inclusive sweep grid for `kind`, from config overrides or defaults.

    A grid the kind cannot take raises ConfigError naming the key set,
    among them one of more than MAX_SWEEP_POINTS points, which is counted
    before any point is built.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"kind must be one of {SWEEP_KINDS}, got {kind!r}")
    start, stop, step = _KINDS[kind].grid
    if config.sweep_start is not None:
        start = config.sweep_start
    if config.sweep_stop is not None:
        stop = config.sweep_stop
    if config.sweep_step is not None:
        step = config.sweep_step
    if stop < start:
        key = "sweep_start" if config.sweep_stop is None else "sweep_stop"
        raise ConfigError(f"{key}: {kind} sweep stop {stop:g} is below start {start:g}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:
        # Name a key that was set, the step first. (The span may be inf.)
        key = next(
            key for key in ("sweep_step", "sweep_stop", "sweep_start")
            if getattr(config, key) is not None
        )
        raise ConfigError(
            f"{key}: {kind} sweep grid has more than {MAX_SWEEP_POINTS} points"
        )
    count = int(math.floor(span)) + 1
    values = [start + i * step for i in range(count)]
    if _KINDS[kind].integer:
        for value in values:
            if not float(value).is_integer():
                # The first point is the start; any later one is off by the step.
                key = "sweep_start" if value == start else "sweep_step"
                raise ConfigError(f"{key}: {kind} sweep needs integer points, got {value:g}")
    return values


def _surrogate_column_mode(config: ScenarioConfig) -> str:
    # The surrogate column always shows a surrogate; an "exact" solver mode
    # falls back to the default expanded form for that column.
    return "fixed" if config.surrogate_mode == "fixed" else "expanded"


def _uav_count_rows(
    kind: str, config: ScenarioConfig, counts: list[float]
) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    xi = q_inv(config.pfa)
    surrogate_mode = _surrogate_column_mode(config)
    with_mc = kind == "snr-vs-uavs" and config.trials > 0
    # The sampled estimate is an expectation under the normalized density;
    # scaling it by the mode's mass makes the MC column estimate the same
    # quantity as the analytic column.
    mode_factor = density_mass(config.region(), config.snr_mode)
    for ordinal, frames in enumerate(config.frame_curves):
        try:
            query = replace(config, frames=frames).query()
            mean_one = mean_snr_at(query, 1)
            rho = 2.0 * mean_one
            mc_base = None
            if with_mc:
                # The curve's own one-UAV mean SNR, on one independent
                # substream per curve; the closed-form 1/L split then scales
                # the estimate row by row.
                estimate = mc_mean_snr(
                    one_uav_link(query), query.region, config.plan(), salt=ordinal
                )
                mc_base = (estimate.mean * mode_factor, estimate.half_width * mode_factor)
        except _ROW_ERRORS as exc:
            # A curve whose mean SNR cannot be computed fails every row.
            rows.extend(
                {"frames": frames, "uav_count": int(value), "status": f"error: {exc}"}
                for value in counts
            )
            continue
        for value in counts:
            count = int(value)
            row: dict[str, object] = {"frames": frames, "uav_count": count}
            try:
                if count < 1:
                    raise ValueError(f"uav count must be >= 1, got {count}")
                snr_l = mean_one / count
                if kind == "snr-vs-uavs":
                    if mc_base is not None:
                        mc_mean, mc_hw = mc_base[0] / count, mc_base[1] / count
                        row["mc_snr_db"] = linear_to_db(mc_mean)
                        row["mc_snr_halfwidth_db"] = 10.0 * math.log10(
                            (mc_mean + mc_hw) / mc_mean
                        )
                    row["snr_db"] = linear_to_db(snr_l)
                else:
                    row["joint_pd_exact"] = joint_pd(snr_l, count, config.pfa)
                    try:
                        row["joint_pd_surrogate"] = math.exp(
                            log_joint_pd_surrogate(rho, xi, count, surrogate_mode)
                        )
                    except SurrogateDomainError:
                        pass  # outside the surrogate's domain: empty cell
                row["status"] = "ok"
            except _ROW_ERRORS as exc:
                row = {"frames": frames, "uav_count": count, "status": f"error: {exc}"}
            rows.append(row)
    return rows


def _capacity_row(kind: str, config: ScenarioConfig, value: float) -> dict[str, object]:
    swept = _KINDS[kind].columns[0]
    point = int(value) if _KINDS[kind].integer else value
    try:
        query = replace(config, **{swept: point}).query()
        by_snr = capacity_under_snr(query)
        by_pd = capacity_under_pd_bisect(query)
        return {
            swept: point,
            "total_symbols": query.total_symbols,
            "snr_capacity": by_snr.max_uavs,
            "pd_capacity": by_pd.max_uavs,
            "snr_db_at_snr_capacity": linear_to_db(by_snr.achieved_snr),
            "joint_pd_at_pd_capacity": by_pd.achieved_joint_pd,
            "status": "ok",
        }
    except _ROW_ERRORS as exc:
        return {swept: point, "status": f"error: {exc}"}


def run_sweep(kind: str, config: ScenarioConfig) -> list[dict[str, object]]:
    """Evaluate every sweep point as a row dict; failures become error rows."""
    values = sweep_values(kind, config)
    if kind in ("snr-vs-uavs", "pd-vs-uavs"):
        return _uav_count_rows(kind, config, values)
    return [_capacity_row(kind, config, value) for value in values]


def render_sweep_csv(
    kind: str, config: ScenarioConfig, rows: list[dict[str, object]]
) -> str:
    """CSV text: `#` header with kind and resolved config, then the table."""
    columns = _KINDS[kind].columns + ("status",)
    return render_csv(
        "uavcap sweep",
        [("kind", kind), *config.document_items()],
        columns,
        ([row.get(column) for column in columns] for row in rows),
    )
