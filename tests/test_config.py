import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavcap
from uavcap.config import (
    _KEYS,
    DEFAULT_SEED,
    ConfigError,
    ScenarioConfig,
    parse_config,
    with_overrides,
)
from uavcap.sweeps import render_sweep_csv
from uavcap.validation import render_validation_csv

README = Path(__file__).resolve().parents[1] / "README.md"

# The `#` echo of the reference config, line for line, as the first
# release printed it; golden CSV digests skip `#` lines, so this pins it.
REFERENCE_ECHO = """\
# tx_power_dbm = 58.0
# combined_gain_db = 22.5
# noise_power_dbm = -94.0
# carrier_freq_mhz = 4900.0
# rcs_m2 = 0.01
# uavs_per_symbol = 1
# cpi_symbols = 3
# radius_km = 1.0
# radius_ratio = 10.0
# max_elevation_rad = 0.6283185307179586
# pfa = 0.05
# pd_threshold = 0.95
# snr_threshold_db = 13.0
# symbols_per_frame = 14
# snr_mode = normalized
# surrogate_mode = exact
# trials = 100000
# seed = 20260816
# confidence = 0.99
"""


def test_empty_document_is_reference_scenario() -> None:
    config = parse_config("")
    assert config == ScenarioConfig()
    assert config.tx_power_dbm == 58.0
    assert config.noise_power_dbm == pytest.approx(-94.0)
    assert config.seed == DEFAULT_SEED
    assert config.total_symbols == 14
    assert config.frame_curves == (1, 3, 5)


def test_document_round_trip() -> None:
    config = parse_config(
        "tx_power_dbm = 56\nradius_km = 1.3\nsnr_mode = unnormalized\n"
        "frames = 4\nsweep_start = 1\nsweep_stop = 9\nsweep_step = 2\n"
    )
    dumped = "\n".join(f"{key} = {value}" for key, value in config.document_items())
    assert parse_config(dumped) == config


def test_comments_and_blank_lines_ignored() -> None:
    text = "# scenario notes\n\n  # indented comment\npfa = 0.01\n"
    assert parse_config(text).pfa == 0.01


def test_unknown_key_rejected() -> None:
    with pytest.raises(ConfigError, match="line 1: unknown key 'bogus'"):
        parse_config("bogus = 3\n")


def test_duplicate_key_rejected() -> None:
    with pytest.raises(ConfigError, match="line 2: duplicate key 'pfa'"):
        parse_config("pfa = 0.05\npfa = 0.01\n")


def test_malformed_line_rejected() -> None:
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("tx_power_dbm 58\n")


def test_out_of_range_value_names_key_and_bound() -> None:
    with pytest.raises(ConfigError, match=r"pfa: must be in \(0, 0.5\), got 1.5"):
        parse_config("pfa = 1.5\n")
    with pytest.raises(ConfigError, match=r"radius_ratio: must be in \(1, inf\]"):
        parse_config("radius_ratio = 1.0\n")
    with pytest.raises(ConfigError, match=r"frames: must be in \[1, inf\]"):
        parse_config("frames = 0\n")


def test_non_numeric_value_rejected() -> None:
    with pytest.raises(ConfigError, match="trials: expected an integer"):
        parse_config("trials = many\n")
    with pytest.raises(ConfigError, match="pfa: expected a number"):
        parse_config("pfa = tiny\n")
    with pytest.raises(ConfigError, match="pfa: must be finite"):
        parse_config("pfa = nan\n")


def test_mode_choices_validated() -> None:
    with pytest.raises(ConfigError, match="snr_mode: must be one of"):
        parse_config("snr_mode = literal\n")
    with pytest.raises(ConfigError, match="surrogate_mode: must be one of"):
        parse_config("surrogate_mode = taylor\n")


def test_noise_forms_mutually_exclusive() -> None:
    with pytest.raises(ConfigError, match="not both"):
        parse_config("noise_power_dbm = -90\nnoise_density_dbm_hz = -170\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config("noise_power_dbm = -90\nbandwidth_mhz = 50\n")


def test_noise_density_resolves_to_total_power() -> None:
    config = parse_config("noise_density_dbm_hz = -174\nbandwidth_mhz = 100\n")
    assert config.noise_power_dbm == pytest.approx(-94.0)
    # 10 MHz: 10*log10(1e7) = 70 dB over the density
    narrow = parse_config("noise_density_dbm_hz = -174\nbandwidth_mhz = 10\n")
    assert narrow.noise_power_dbm == pytest.approx(-104.0)


def test_explicit_frames_collapses_curves() -> None:
    config = parse_config("frames = 5\n")
    assert config.frames_explicit
    assert config.frame_curves == (5,)
    assert config.total_symbols == 70
    assert ("frames", "5") in config.document_items()


def test_default_frames_not_serialized() -> None:
    keys = [key for key, _ in parse_config("").document_items()]
    assert "frames" not in keys
    assert "noise_power_dbm" in keys
    assert "noise_density_dbm_hz" not in keys


def test_overrides_replace_document_values() -> None:
    config = parse_config("pfa = 0.05\n", overrides={"pfa": "0.02", "frames": "3"})
    assert config.pfa == 0.02
    assert config.frames == 3
    assert config.frames_explicit


def test_override_validation() -> None:
    with pytest.raises(ConfigError, match="unknown key 'power'"):
        parse_config("", overrides={"power": "58"})
    with pytest.raises(ConfigError, match="pd_threshold"):
        parse_config("", overrides={"pd_threshold": "1.0"})


def test_sweep_bounds_ordering() -> None:
    with pytest.raises(ConfigError, match="sweep_stop: must be >= sweep_start"):
        parse_config("sweep_start = 5\nsweep_stop = 2\n")
    config = parse_config("sweep_start = 2\nsweep_stop = 2\n")
    assert config.sweep_start == config.sweep_stop == 2.0


def test_with_overrides_tracks_explicit_frames() -> None:
    base = parse_config("")
    assert with_overrides(base, frames=2).frame_curves == (2,)
    assert with_overrides(base, trials=10).frame_curves == (1, 3, 5)


def test_scenario_factories_consistent() -> None:
    config = parse_config("radius_km = 1.5\nframes = 2\n")
    assert config.region().max_range == 1.5
    assert config.link().tx_power_dbm == 58.0
    assert config.detection().pfa == 0.05
    assert config.plan().master_seed == DEFAULT_SEED
    assert config.query().total_symbols == 28
    assert config.query(frames=1).total_symbols == 14
    assert config.max_elevation_rad == pytest.approx(math.pi / 5.0)


def test_sweep_header_is_pinned_at_the_reference_point() -> None:
    text = render_sweep_csv("capacity-vs-frames", parse_config(""), [])
    assert text == (
        "# uavcap sweep\n# kind = capacity-vs-frames\n" + REFERENCE_ECHO
        + "frames,total_symbols,snr_capacity,pd_capacity,"
        "snr_db_at_snr_capacity,joint_pd_at_pd_capacity,status\n"
    )


def test_header_is_pinned_with_frames_noise_pair_and_sweep_keys() -> None:
    config = parse_config(
        "frames = 4\nnoise_density_dbm_hz = -170\nbandwidth_mhz = 20\n"
        "sweep_start = 2\nsweep_stop = 6\nsweep_step = 2\n"
    )
    echo = REFERENCE_ECHO.replace(
        "# noise_power_dbm = -94.0\n", "# noise_power_dbm = -96.98970004336019\n"
    ) + (
        "# frames = 4\n# sweep_start = 2.0\n# sweep_stop = 6.0\n"
        "# sweep_step = 2.0\n"
    )
    assert render_sweep_csv("pd-vs-uavs", config, []) == (
        "# uavcap sweep\n# kind = pd-vs-uavs\n" + echo
        + "frames,uav_count,joint_pd_exact,joint_pd_surrogate,status\n"
    )
    assert render_validation_csv(config, []) == (
        "# uavcap validation\n" + echo
        + "check,status,measured,expected,tolerance,detail\n"
    )


def _accepted_values(kind: str, accepted) -> st.SearchStrategy:
    """Every in-range value of one key, straight from its field metadata."""
    if kind == "str":
        return st.sampled_from(accepted["choices"])
    low, high, low_open, high_open = accepted["bounds"]
    if kind == "int":
        return st.integers(
            min_value=None if math.isinf(low) else low + low_open,
            max_value=None if math.isinf(high) else high - high_open,
        )
    return st.floats(
        min_value=low,
        max_value=high,
        exclude_min=low_open,
        exclude_max=high_open,
        allow_nan=False,
        allow_infinity=False,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(
        {}, optional={key: _accepted_values(*entry) for key, entry in _KEYS.items()}
    )
)
def test_every_accepted_config_round_trips(values: dict) -> None:
    if "noise_power_dbm" in values:  # the two noise forms are exclusive
        values.pop("noise_density_dbm_hz", None)
        values.pop("bandwidth_mhz", None)
    if "sweep_start" in values and "sweep_stop" in values:
        low, high = sorted((values["sweep_start"], values["sweep_stop"]))
        values.update(sweep_start=low, sweep_stop=high)
    try:
        config = parse_config("", {key: str(value) for key, value in values.items()})
    except ConfigError as exc:
        # The one in-range value refused: a band so wide its noise overflows.
        assert str(exc).startswith("bandwidth_mhz: must give a finite noise power")
        return
    dumped = "\n".join(f"{key} = {value}" for key, value in config.document_items())
    assert parse_config(dumped) == config
    header = render_sweep_csv("pd-vs-uavs", config, []).splitlines()[2:]
    assert parse_config("\n".join(line[2:] for line in header[:-1])) == config


def test_band_too_wide_for_a_finite_noise_power_is_rejected() -> None:
    with pytest.raises(ConfigError, match="bandwidth_mhz: must give a finite noise"):
        parse_config("bandwidth_mhz = 1e303\n")


def test_readme_configuration_table_lists_exactly_the_keys() -> None:
    section = README.read_text(encoding="utf-8").split("## Configuration")[1]
    table = [line for line in section.split("\n## ")[0].splitlines() if line.startswith("| `")]
    documented = [key for line in table for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert sorted(documented) == sorted(_KEYS)
    assert len(documented) == len(set(documented)) == 25


def test_readme_library_section_names_only_exported_names() -> None:
    section = README.read_text(encoding="utf-8").split("## Library")[1]
    spans = re.findall(r"`([^`]+)`", section.split("\n## ")[0])
    # A span such as `run_sweep(kind, config)` names its leading identifier.
    names = {re.match(r"\w*", span).group() for span in spans}
    assert names <= set(uavcap.__all__), names - set(uavcap.__all__)
    assert "RadarLinkParams" in names and "parse_config" in names
