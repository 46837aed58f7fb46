"""Scenario configuration: parsing, validation, canonical serialization.

Config documents are plain ``key = value`` lines; blank lines and ``#``
comments are ignored. Every key has a default, so the empty document is a
valid scenario (the reference operating point). Unknown keys and
out-of-range values raise ConfigError naming the key and the bound.

Each key is defined once, as a ScenarioConfig field: its type is the
annotation, its default the field default, and its range or choices the
field metadata. The parse table is derived from those fields.

Noise can be given either directly (``noise_power_dbm``) or as a pair
(``noise_density_dbm_hz``, ``bandwidth_mhz``), not both; the resolved
config always stores the total noise power, and document_items() emits
that canonical form, so a dumped config re-parses to an equal one.
render_csv() echoes those items as the ``#`` header of every command's CSV.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

from .capacity import CapacityQuery
from .detection import DetectionSpec, SURROGATE_MODES
from .geometry import DENSITY_MODES, SensingRegion
from .link import RadarLinkParams, noise_power_dbm_from_density
from .montecarlo import TrialPlan

DEFAULT_SEED = 20260816


class ConfigError(ValueError):
    """Invalid config document, key, or value."""


def _key(
    default: object,
    low: float = -math.inf,
    high: float = math.inf,
    low_open: bool = False,
    high_open: bool = False,
    choices: tuple[str, ...] = (),
):
    """A settable key as a field: its default and the values it accepts."""
    return field(
        default=default,
        metadata={"bounds": (low, high, low_open, high_open), "choices": choices},
    )


# Accepted keys that are not fields: they resolve into noise_power_dbm.
_NOISE_KEYS = {
    "noise_density_dbm_hz": _key(-174.0),
    "bandwidth_mhz": _key(100.0, low=0.0, low_open=True),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; field defaults are the reference operating point.

    Every field but ``frames_explicit`` is a config key, in document order.
    """

    tx_power_dbm: float = _key(58.0)
    combined_gain_db: float = _key(22.5)
    noise_power_dbm: float = _key(
        noise_power_dbm_from_density(
            _NOISE_KEYS["noise_density_dbm_hz"].default,
            _NOISE_KEYS["bandwidth_mhz"].default,
        )
    )
    carrier_freq_mhz: float = _key(4900.0, low=0.0, low_open=True)
    rcs_m2: float = _key(0.01, low=0.0, low_open=True)
    uavs_per_symbol: int = _key(1, low=1)
    cpi_symbols: int = _key(3, low=1)
    radius_km: float = _key(1.0, low=0.0, low_open=True)
    radius_ratio: float = _key(10.0, low=1.0, low_open=True)
    max_elevation_rad: float = _key(
        math.pi / 5.0, low=0.0, high=math.pi / 2.0, low_open=True
    )
    pfa: float = _key(0.05, low=0.0, high=0.5, low_open=True, high_open=True)
    pd_threshold: float = _key(0.95, low=0.0, high=1.0, low_open=True, high_open=True)
    snr_threshold_db: float = _key(13.0)
    symbols_per_frame: int = _key(14, low=1)
    snr_mode: str = _key("normalized", choices=DENSITY_MODES)
    surrogate_mode: str = _key("exact", choices=SURROGATE_MODES)
    trials: int = _key(100_000, low=0)
    seed: int = _key(DEFAULT_SEED, low=0)
    confidence: float = _key(0.99, low=0.0, high=1.0, low_open=True, high_open=True)
    frames: int = _key(1, low=1)
    sweep_start: float | None = _key(None)
    sweep_stop: float | None = _key(None)
    sweep_step: float | None = _key(None, low=0.0, low_open=True)
    # True when `frames` appeared explicitly; uav-count sweeps then plot
    # that single frame count instead of the default {1, 3, 5} curves.
    frames_explicit: bool = False

    @property
    def total_symbols(self) -> int:
        return self.frames * self.symbols_per_frame

    @property
    def frame_curves(self) -> tuple[int, ...]:
        return (self.frames,) if self.frames_explicit else (1, 3, 5)

    def region(self) -> SensingRegion:
        return SensingRegion(self.radius_km, self.radius_ratio, self.max_elevation_rad)

    def link(self) -> RadarLinkParams:
        return RadarLinkParams(
            tx_power_dbm=self.tx_power_dbm,
            combined_gain_db=self.combined_gain_db,
            noise_power_dbm=self.noise_power_dbm,
            carrier_freq_mhz=self.carrier_freq_mhz,
            rcs_m2=self.rcs_m2,
            cpi_symbols=self.cpi_symbols,
            uavs_per_symbol=self.uavs_per_symbol,
        )

    def detection(self) -> DetectionSpec:
        return DetectionSpec(
            pfa=self.pfa,
            pd_threshold=self.pd_threshold,
            snr_threshold_db=self.snr_threshold_db,
        )

    def plan(self) -> TrialPlan:
        return TrialPlan(
            trials=self.trials, master_seed=self.seed, confidence=self.confidence
        )

    def query(self, frames: int | None = None) -> CapacityQuery:
        n_frames = self.frames if frames is None else frames
        return CapacityQuery(
            link=self.link(),
            region=self.region(),
            spec=self.detection(),
            total_symbols=n_frames * self.symbols_per_frame,
            snr_mode=self.snr_mode,
            surrogate_mode=self.surrogate_mode,
        )

    def document_items(self) -> list[tuple[str, str]]:
        """Canonical (key, value) pairs; parsing them back yields this config."""
        return [
            (f.name, str(value))
            for f in fields(self)
            if f.metadata
            and (value := getattr(self, f.name)) is not None
            and (f.name != "frames" or self.frames_explicit)
        ]


# key -> (type name from the annotation, accepted values); the parse table.
_KEYS: dict[str, tuple[str, Mapping[str, object]]] = {
    f.name: (f.type.partition(" ")[0], f.metadata)
    for f in fields(ScenarioConfig)
    if f.metadata
}
_KEYS.update((name, ("float", f.metadata)) for name, f in _NOISE_KEYS.items())


def _parse_value(key: str, raw: str) -> int | float | str:
    kind, accepted = _KEYS[key]
    if kind == "str":
        choices = accepted["choices"]
        if raw not in choices:
            raise ConfigError(f"{key}: must be one of {choices}, got {raw!r}")
        return raw
    if kind == "int":
        try:
            value: int | float = int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
    low, high, low_open, high_open = accepted["bounds"]
    above = value > low if low_open else value >= low
    below = value < high if high_open else value <= high
    if not (above and below):
        left = "(" if low_open else "["
        right = ")" if high_open else "]"
        raise ConfigError(
            f"{key}: must be in {left}{low:g}, {high:g}{right}, got {value:g}"
        )
    return value


def _parse_lines(lines: Iterable[str]) -> dict[str, int | float | str]:
    values: dict[str, int | float | str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw.strip())
    return values


def parse_config(
    text: str = "", overrides: Mapping[str, str] | None = None
) -> ScenarioConfig:
    """Build a ScenarioConfig from a document plus command-line overrides.

    Overrides (e.g. from repeated ``--set key=value``) go through the same
    per-key validation and replace document values.
    """
    values = _parse_lines(text.splitlines())
    for key, raw in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _parse_value(key, raw)

    direct_noise = "noise_power_dbm" in values
    if direct_noise and any(key in values for key in _NOISE_KEYS):
        raise ConfigError(
            "give either noise_power_dbm or noise_density_dbm_hz/bandwidth_mhz, not both"
        )
    if not direct_noise:
        density, bandwidth = (
            float(values.pop(key, _NOISE_KEYS[key].default)) for key in _NOISE_KEYS
        )
        values["noise_power_dbm"] = noise_power_dbm_from_density(density, bandwidth)
        # A finite bandwidth near the float limit overflows the log term.
        if not math.isfinite(values["noise_power_dbm"]):
            raise ConfigError(
                f"bandwidth_mhz: must give a finite noise power, got {bandwidth:g}"
            )

    frames_explicit = "frames" in values
    config = ScenarioConfig(**values, frames_explicit=frames_explicit)  # type: ignore[arg-type]

    # Cross-field checks that single-key ranges cannot express.
    if config.sweep_start is not None and config.sweep_stop is not None:
        if config.sweep_stop < config.sweep_start:
            raise ConfigError(
                f"sweep_stop: must be >= sweep_start, got {config.sweep_stop:g} < "
                f"{config.sweep_start:g}"
            )
    return config


def with_overrides(config: ScenarioConfig, **changes: object) -> ScenarioConfig:
    """dataclasses.replace with the frames-explicit bookkeeping applied."""
    if "frames" in changes:
        changes.setdefault("frames_explicit", True)
    return replace(config, **changes)  # type: ignore[arg-type]


def render_csv(
    title: str,
    items: Iterable[tuple[str, str]],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Every command's CSV: ``# title``, ``# key = value`` lines, then the table.

    None renders as an empty cell and a float as ``.10g``; output has LF
    line endings and nothing that varies between runs.
    """
    out = io.StringIO()
    out.write(f"# {title}\n")
    for key, value in items:
        out.write(f"# {key} = {value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format(cell, ".10g") if isinstance(cell, float) else cell for cell in row]
        )
    return out.getvalue()
