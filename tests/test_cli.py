import csv
import json
import os
import resource
import subprocess
import sys
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


@pytest.mark.parametrize(
    "key",
    ["workers", "noise_density_dbm_hz", "bandwidth_mhz", "cpi_symbols", "uavs_per_symbol"],
)
def test_a_removed_key_is_an_unknown_key(key: str, tmp_path: Path, capsys) -> None:
    assert main(["snr-vs-uavs", "--set", f"{key}=2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"uavcap: unknown key '{key}'\n")
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(f"{key} = 2\n", encoding="utf-8")
    assert main(["validate", "--config", str(scenario)]) == 2
    assert capsys.readouterr().err == f"uavcap: line 1: unknown key '{key}'\n"


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path: Path, capsys) -> None:
    scenario = tmp_path / "scenario.cfg"
    scenario.write_bytes(b"pfa = 0.1\n\xff\n")
    assert main(["pd-vs-uavs", "--config", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"uavcap: {scenario}: not UTF-8 text (byte 10: invalid start byte)\n"


def test_the_retired_confidence_key_is_an_unknown_key(tmp_path: Path, capsys) -> None:
    # Every Monte Carlo interval is drawn at one level; no key sets it.
    assert main(["snr-vs-uavs", "--set", "confidence=0.95"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "uavcap: unknown key 'confidence'\n")
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("pfa = 0.05\nconfidence = 0.99\n", encoding="utf-8")
    assert main(["validate", "--config", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "uavcap: line 2: unknown key 'confidence'\n")


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


def test_one_trial_gives_unbounded_intervals_not_false_fails(capsys) -> None:
    # One trial has no spread estimate. A zero half-width once held the
    # one-sample means to their closed forms exactly, and validate exited 1.
    def table() -> list[dict[str, str]]:
        lines = capsys.readouterr().out.splitlines()
        return list(csv.DictReader(line for line in lines if not line.startswith("#")))

    assert main(["validate", "--trials", "1"]) == 0
    rows = {row["check"]: row for row in table()}
    for name in (
        "mean_snr_mc_vs_closed_form", "mean_snr_mode_gap",
        "integration_energy_n1", "integration_energy_n3", "integration_energy_n8",
    ):
        assert (rows[name]["status"], rows[name]["tolerance"]) == ("inconclusive", "inf")
    assert main(["snr-vs-uavs", "--trials", "1", "--set", "sweep_stop=2"]) == 0
    sweep = table()
    assert sweep and all(row["mc_snr_halfwidth_db"] == "inf" for row in sweep)


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


def _run_in_capped_child(*argv: str) -> subprocess.CompletedProcess:
    """`python -m uavcap.cli` in a child process whose address space is
    capped at 1 GiB, so a grid that does get built fails fast there."""
    src = str(Path(uavcap.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "uavcap.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )


@pytest.mark.parametrize(
    "command, override",
    [("capacity-vs-radius", "sweep_step=1e-300"), ("pd-vs-uavs", "sweep_stop=1e300")],
)
def test_a_grid_too_large_to_build_exits_2_before_building_it(
    command: str, override: str
) -> None:
    proc = _run_in_capped_child(command, "--trials", "0", "--set", override)
    key = override.partition("=")[0]
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"uavcap: {key}: {command} sweep grid has more than")
    assert proc.stderr.count("\n") == 1


# The row names the check registry declares, in report order.
REGISTERED = [name for group in uavcap.validation._CHECK_GROUPS for name in group.names]
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def _validate_table(argv: list[str], capsys: pytest.CaptureFixture[str]):
    code = main(["validate", *argv])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    return code, captured.err, table


DENSITY = uavcap.validation._density_checks
SAMPLER = uavcap.validation._sampler_checks
MEAN_SNR = uavcap.validation._snr_checks


# Each repro overflows the region's geometry. The groups named here raise
# (the range sampler before it draws, the mean-SNR group from its
# sampler's weight or its closed form) rather than report nan or inf under
# a numpy warning. At radius_km=1e100 the sampler's R^3 = 1e300 is still
# finite, so only the density and mean-SNR groups raise there.
@pytest.mark.parametrize(
    "override, error, raising",
    [
        ("radius_ratio=1e200", "OverflowError", (DENSITY, SAMPLER, MEAN_SNR)),
        ("radius_km=1e-200", "ZeroDivisionError", (DENSITY, SAMPLER, MEAN_SNR)),
        ("radius_km=1e100", "OverflowError", (DENSITY, MEAN_SNR)),
    ],
    ids=["radius_ratio=1e200-OverflowError", "radius_km=1e-200-ZeroDivisionError",
         "radius_km=1e100-OverflowError"],
)
def test_validate_reports_a_raising_group_as_a_fail_row(
    override: str, error: str, raising: tuple,
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, err, table = _validate_table(["--trials", "1000", "--set", override], capsys)
    assert code == 1
    assert err == ""
    # A raising group fails each of its named rows, so all 23 rows appear.
    assert [row[0] for row in table[1:]] == REGISTERED
    assert len(REGISTERED) == 23
    rows = {row[0]: row for row in table[1:]}
    for group in raising:
        # One exception per group, repeated as each row's detail.
        assert len({rows[name][5] for name in group.names}) == 1
        for name in group.names:
            assert rows[name][1:5] == ["fail", "", "", ""]
            assert rows[name][5].startswith(("ZeroDivisionError: ", "OverflowError: "))
    assert all(rows[name][5].startswith(f"{error}: ") for name in DENSITY.names)
    # The groups after the one that raised still run.
    assert rows["beamforming_gain_k4"][1] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--trials", "0"],
        ["--trials", "1"],
        ["--trials", "1000", "--set", "radius_ratio=1e200"],
        ["--trials", "1000", "--set", "radius_km=1e-200"],
        ["--trials", "1000", "--set", "radius_km=1e100"],
    ],
    ids=["reference", "trials=0", "trials=1", "radius_ratio=1e200",
         "radius_km=1e-200", "radius_km=1e100"],
)
def test_validate_row_names_do_not_depend_on_the_input(
    argv: list[str], capsys: pytest.CaptureFixture[str]
) -> None:
    _, _, table = _validate_table(argv, capsys)
    names = [row[0] for row in table[1:]]
    assert names == REGISTERED
    assert names == json.loads(GOLDEN.read_text(encoding="utf-8"))["validate_checks"]


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
