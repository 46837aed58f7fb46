import csv
from pathlib import Path

import pytest

import uavcap.cli
import uavcap.validation
from uavcap.cli import build_parser, main
from uavcap.config import parse_config
from uavcap.validation import CheckResult, render_validation_csv


def test_sweep_to_stdout(capsys: pytest.CaptureFixture[str]) -> None:
    code = main(["pd-vs-uavs", "--trials", "0", "--set", "sweep_stop=3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# uavcap sweep\n# kind = pd-vs-uavs\n")
    assert "frames,uav_count,joint_pd_exact,joint_pd_surrogate,status" in out


def test_sweep_to_file(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    target = tmp_path / "curve.csv"
    code = main(
        ["snr-vs-uavs", "--trials", "2000", "--set", "sweep_stop=3",
         "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("# uavcap sweep\n")


def test_seed_flag_changes_sampled_bytes(tmp_path: Path) -> None:
    def render(seed: int, path: Path) -> bytes:
        assert main(
            ["snr-vs-uavs", "--trials", "2000", "--set", "sweep_stop=3",
             "--seed", str(seed), "--out", str(path)]
        ) == 0
        return path.read_bytes()

    first = render(7, tmp_path / "a.csv")
    again = render(7, tmp_path / "b.csv")
    other = render(8, tmp_path / "c.csv")
    assert first == again
    assert first != other


def test_config_file_feeds_scenario(tmp_path: Path, capsys) -> None:
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("pfa = 0.02\ntrials = 0\nsweep_stop = 2\n", encoding="utf-8")
    assert main(["pd-vs-uavs", "--config", str(scenario)]) == 0
    assert "# pfa = 0.02" in capsys.readouterr().out


def test_set_overrides_config_file(tmp_path: Path, capsys) -> None:
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("pfa = 0.02\ntrials = 0\nsweep_stop = 2\n", encoding="utf-8")
    assert main(
        ["pd-vs-uavs", "--config", str(scenario), "--set", "pfa=0.01"]
    ) == 0
    assert "# pfa = 0.01" in capsys.readouterr().out


def test_bad_usage_exits_2(tmp_path: Path, capsys) -> None:
    assert main(["pd-vs-uavs", "--set", "power=58"]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert main(["pd-vs-uavs", "--set", "pfa:0.01"]) == 2
    assert "--set expects KEY=VALUE" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "uavcap:" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_validate_green_exits_0(capsys) -> None:
    code = main(["validate", "--trials", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# uavcap validation\n")
    assert "check,status,measured,expected,tolerance,detail" in out


def test_validate_failure_exits_1(
    monkeypatch: pytest.MonkeyPatch, capsys
) -> None:
    broken = [CheckResult(name="stub_check", status="fail", detail="forced")]
    monkeypatch.setattr(uavcap.cli, "run_validation", lambda config: broken)
    assert main(["validate"]) == 1
    assert "stub_check,fail" in capsys.readouterr().out


def test_parser_lists_all_commands() -> None:
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "snr-vs-uavs",
        "pd-vs-uavs",
        "capacity-vs-radius",
        "capacity-vs-frames",
        "capacity-vs-power",
        "validate",
    ):
        assert name in text


def _table(out: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))


def test_frames_budget_past_1e9_uavs_gives_rows(capsys) -> None:
    code = main(
        ["capacity-vs-frames", "--set", "sweep_start=70000000",
         "--set", "sweep_stop=1000000000", "--set", "sweep_step=930000000"]
    )
    rows = _table(capsys.readouterr().out)
    assert code == 0
    assert [(row["frames"], row["pd_capacity"]) for row in rows] == [
        ("70000000", "776189494"), ("1000000000", "10113966866"),
    ]
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["joint_pd_at_pd_capacity"]) >= 0.95
    code = main(
        ["capacity-vs-power", "--set", "sweep_start=120", "--set", "sweep_stop=150",
         "--set", "sweep_step=10"]
    )
    rows = _table(capsys.readouterr().out)
    assert code == 0
    assert [row["status"] for row in rows] == ["ok"] * 4


@pytest.mark.parametrize(
    "command, override",
    [("pd-vs-uavs", "sweep_step=0.5"), ("snr-vs-uavs", "sweep_start=0.5"),
     ("capacity-vs-power", "sweep_stop=5")],
)
def test_a_grid_the_sweep_cannot_take_is_a_config_error(
    command: str, override: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main([command, "--trials", "0", "--set", override])
    captured = capsys.readouterr()
    key = override.partition("=")[0]
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"uavcap: {key}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "override, error",
    [("radius_ratio=1e200", "OverflowError"), ("radius_km=1e-200", "ZeroDivisionError")],
)
def test_validate_reports_a_raising_group_as_a_fail_row(
    override: str, error: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["validate", "--trials", "1000", "--set", override])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    rows = {row[0]: row for row in table[1:]}
    assert code == 1
    assert rows["density_checks"][1] == "fail"
    assert rows["density_checks"][5].startswith(f"{error}: ")
    # The range sampler and the sampled mean SNR raise before they draw,
    # rather than report nan or inf under a numpy warning.
    for group in ("sampler_checks", "snr_checks"):
        assert rows[group][1] == "fail"
        assert rows[group][5].startswith(("ZeroDivisionError: ", "OverflowError: "))
    assert captured.err == ""
    # The groups after the one that raised still run.
    assert rows["beamforming_gain_k4"][1] == "pass"


@pytest.mark.parametrize("command", ["snr-vs-uavs", "pd-vs-uavs"])
@pytest.mark.parametrize(
    "override, message",
    [("radius_ratio=1e200", "out of range"), ("radius_km=1e-200", "division by zero")],
)
def test_uav_count_sweep_turns_a_failing_curve_into_error_rows(
    command: str, override: str, message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [command, "--trials", "1000", "--set", override, "--set", "sweep_stop=3"]
    )
    out = capsys.readouterr().out
    table = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert code == 0
    # Every curve (frames 1, 3 and 5) fails every row, and the command ends.
    assert [row[:2] for row in table[1:]] == [
        [frames, count] for frames in "135" for count in "123"
    ]
    for row in table[1:]:
        assert row[-1].startswith("error: ") and message in row[-1], row


def test_validate_reference_rows_match_the_groups_run_directly(
    capsys: pytest.CaptureFixture[str],
) -> None:
    assert main(["validate", "--trials", "2000"]) == 0
    config = parse_config("", {"trials": "2000"})
    direct = [
        result
        for group in uavcap.validation._CHECK_GROUPS
        for result in group(config)
    ]
    assert capsys.readouterr().out == render_validation_csv(config, direct)
