import csv
import math

import pytest

from uavcap.capacity import mean_snr_at
from uavcap.config import ConfigError, parse_config, with_overrides
from uavcap.detection import joint_pd
from uavcap.sweeps import (
    MAX_SWEEP_POINTS,
    SWEEP_KINDS,
    render_sweep_csv,
    run_sweep,
    sweep_values,
)


def _csv_table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def test_default_grids() -> None:
    config = parse_config("")
    assert sweep_values("capacity-vs-radius", config) == pytest.approx(
        [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    )
    assert sweep_values("capacity-vs-power", config) == pytest.approx(
        [50.0, 52.0, 54.0, 56.0, 58.0]
    )
    assert sweep_values("capacity-vs-frames", config) == list(range(1, 11))
    assert sweep_values("snr-vs-uavs", config) == list(range(1, 51))


def test_grid_overrides_and_validation() -> None:
    config = parse_config("sweep_start = 2\nsweep_stop = 8\nsweep_step = 3\n")
    assert sweep_values("pd-vs-uavs", config) == pytest.approx([2.0, 5.0, 8.0])
    with pytest.raises(ValueError, match="integer points"):
        sweep_values("pd-vs-uavs", parse_config("sweep_step = 0.5\n"))
    with pytest.raises(ValueError, match="kind must be one of"):
        sweep_values("pd-vs-time", config)


@pytest.mark.parametrize(
    "document, key",
    [
        # One point past the limit; were it built, it would still be small.
        (f"sweep_stop = {MAX_SWEEP_POINTS + 1}\n", "sweep_stop"),
        (f"sweep_stop = 2\nsweep_step = {1.0 / MAX_SWEEP_POINTS}\n", "sweep_step"),
        # (stop - start) overflows to inf.
        ("sweep_start = -1e308\nsweep_stop = 1e308\n", "sweep_stop"),
    ],
)
def test_a_grid_past_the_point_limit_is_a_config_error(document: str, key: str) -> None:
    with pytest.raises(ConfigError, match=f"^{key}: .* more than {MAX_SWEEP_POINTS} points"):
        sweep_values("capacity-vs-radius", parse_config(document))


def test_a_grid_at_the_point_limit_is_counted_not_refused() -> None:
    values = sweep_values("capacity-vs-radius", parse_config(
        f"sweep_start = 1\nsweep_stop = {MAX_SWEEP_POINTS}\n"
        "sweep_step = 1\n"
    ))
    assert len(values) == MAX_SWEEP_POINTS


def test_error_rows_do_not_abort_sweep() -> None:
    config = parse_config("sweep_start = 0\nsweep_stop = 0.75\nsweep_step = 0.25\n")
    rows = run_sweep("capacity-vs-radius", config)
    assert len(rows) == 4
    assert rows[0]["status"].startswith("error: ")
    assert "max_range" in rows[0]["status"]
    assert all(row["status"] == "ok" for row in rows[1:])
    assert all(row["snr_capacity"] is not None for row in rows[1:])


def test_frames_curves_default_and_explicit() -> None:
    config = parse_config("trials = 0\nsweep_stop = 4\n")
    rows = run_sweep("pd-vs-uavs", config)
    assert [row["frames"] for row in rows] == [1] * 4 + [3] * 4 + [5] * 4
    single = run_sweep("pd-vs-uavs", with_overrides(config, frames=2))
    assert [row["frames"] for row in single] == [2] * 4


def test_snr_rows_analytic_column() -> None:
    config = parse_config("trials = 0\nframes = 1\nsweep_stop = 4\n")
    rows = run_sweep("snr-vs-uavs", config)
    mean_one = mean_snr_at(config.query(), 1)
    for row in rows:
        count = row["uav_count"]
        assert row["snr_db"] == pytest.approx(
            10.0 * math.log10(mean_one / count), rel=1e-12
        )
        assert "mc_snr_db" not in row  # trials = 0 disables sampling


def test_snr_rows_mc_columns_track_analytic() -> None:
    config = parse_config("trials = 20000\nframes = 1\nsweep_stop = 3\n")
    rows = run_sweep("snr-vs-uavs", config)
    for row in rows:
        assert row["mc_snr_db"] is not None
        assert row["mc_snr_halfwidth_db"] is not None
        assert abs(row["mc_snr_db"] - row["snr_db"]) < 1.0  # loose; MC is seeded
        # closed-form 1/L split: the dB offset is identical down the curve
        assert row["mc_snr_db"] - row["snr_db"] == pytest.approx(
            rows[0]["mc_snr_db"] - rows[0]["snr_db"], abs=1e-9
        )


def test_pd_rows_exact_and_surrogate() -> None:
    config = parse_config("trials = 0\nframes = 1\nsweep_stop = 30\n")
    rows = run_sweep("pd-vs-uavs", config)
    mean_one = mean_snr_at(config.query(), 1)
    for row in rows:
        count = row["uav_count"]
        assert row["joint_pd_exact"] == pytest.approx(
            joint_pd(mean_one / count, count, config.pfa), rel=1e-12
        )
    # the surrogate is only defined where its argument stays in-window;
    # small counts sit outside it and leave the column empty
    blank = [r["uav_count"] for r in rows if "joint_pd_surrogate" not in r]
    filled = [r["uav_count"] for r in rows if "joint_pd_surrogate" in r]
    assert blank and filled
    assert max(blank) < min(filled)
    for row in rows:
        if "joint_pd_surrogate" in row:
            assert row["joint_pd_surrogate"] == pytest.approx(
                row["joint_pd_exact"], rel=0.2
            )


def test_capacity_vs_frames_columns() -> None:
    config = parse_config("sweep_stop = 4\n")
    rows = run_sweep("capacity-vs-frames", config)
    assert [row["total_symbols"] for row in rows] == [14, 28, 42, 56]
    caps = [row["snr_capacity"] for row in rows]
    assert caps == sorted(caps)
    assert all(row["pd_capacity"] >= 1 for row in rows)
    assert all(row["joint_pd_at_pd_capacity"] >= config.pd_threshold for row in rows)


def test_csv_headers_reparse_to_config() -> None:
    config = parse_config("pfa = 0.02\nframes = 2\ntrials = 0\nsweep_stop = 3\n")
    text = render_sweep_csv("pd-vs-uavs", config, run_sweep("pd-vs-uavs", config))
    lines = text.splitlines()
    assert lines[0] == "# uavcap sweep"
    assert lines[1] == "# kind = pd-vs-uavs"
    config_lines = [line[2:] for line in lines[2:] if line.startswith("#")]
    assert parse_config("\n".join(config_lines)) == config


@pytest.mark.parametrize("kind", SWEEP_KINDS)
def test_csv_schema_and_determinism(kind: str) -> None:
    config = parse_config("trials = 2000\nsweep_start = 1\nsweep_stop = 2\n")
    if kind == "capacity-vs-power":
        config = parse_config("trials = 2000\nsweep_start = 56\nsweep_stop = 58\n")
    rows = run_sweep(kind, config)
    text = render_sweep_csv(kind, config, rows)
    header, table = _csv_table(text)
    assert header[-1] == "status"
    assert all(len(line) == len(header) for line in table)
    assert all(line[-1] == "ok" for line in table)
    again = render_sweep_csv(kind, config, run_sweep(kind, config))
    assert again == text
    assert "\r" not in text


def test_csv_error_row_rendering() -> None:
    config = parse_config("sweep_start = 0\nsweep_stop = 0.5\nsweep_step = 0.5\n")
    text = render_sweep_csv(
        "capacity-vs-radius", config, run_sweep("capacity-vs-radius", config)
    )
    _, table = _csv_table(text)
    assert table[0][0] == "0"
    assert table[0][-1].startswith("error: ")
    assert table[0][1] == ""  # failed point leaves value cells empty
    assert table[1][-1] == "ok"
