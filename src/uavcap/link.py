"""Radar link budget: path loss, pathloss constant, per-target and mean SNR.

Unit conventions (strict): frequency in MHz, distance in km, RCS in m^2,
powers in linear mW internally. dB and dBm appear only at the boundary of
this module (dataclass fields, conversion helpers). The monostatic path
loss model is

    PL_dB(d) = 103.4 + 20 log10(f_MHz) + 40 log10(d_km) - 10 log10(rcs_m2)

equivalently beta^2(d) = 1 / (eps_pl * d^4) with the pathloss constant
eps_pl = 10^10.34 * f_MHz^2 / rcs_m2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import SensingRegion, density_mass, expected_inverse_quartic_range


def db_to_linear(db: float) -> float:
    """Power ratio from dB."""
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    """dB from a positive power ratio."""
    if not value > 0.0:
        raise ValueError(f"value must be > 0, got {value}")
    return 10.0 * math.log10(value)


@dataclass(frozen=True, slots=True)
class RadarLinkParams:
    """Scenario-level link parameters.

    combined_gain_db is the lumped array plus beamforming gain kappa in dB;
    its linear amplitude value is 10^(dB/10) and kappa^2 multiplies SNR.
    cpi_symbols is the number of coherently integrated sensing symbols N;
    uavs_per_symbol is the number of targets K served per symbol (the
    per-target transmit power share is tx_power / K).
    """

    tx_power_dbm: float
    combined_gain_db: float
    noise_power_dbm: float
    carrier_freq_mhz: float
    rcs_m2: float
    cpi_symbols: int
    uavs_per_symbol: int

    def __post_init__(self) -> None:
        if not self.carrier_freq_mhz > 0.0:
            raise ValueError(f"carrier_freq_mhz must be > 0, got {self.carrier_freq_mhz}")
        if not self.rcs_m2 > 0.0:
            raise ValueError(f"rcs_m2 must be > 0, got {self.rcs_m2}")
        if self.cpi_symbols < 1:
            raise ValueError(f"cpi_symbols must be >= 1, got {self.cpi_symbols}")
        if self.uavs_per_symbol < 1:
            raise ValueError(f"uavs_per_symbol must be >= 1, got {self.uavs_per_symbol}")

    @property
    def tx_power_mw(self) -> float:
        return db_to_linear(self.tx_power_dbm)

    @property
    def noise_power_mw(self) -> float:
        return db_to_linear(self.noise_power_dbm)

    @property
    def gain_amplitude(self) -> float:
        """Linear amplitude kappa."""
        return db_to_linear(self.combined_gain_db)


def path_loss_db(freq_mhz: float, distance_km: float, rcs_m2: float) -> float:
    """Monostatic (two-way) path loss in dB; rejects non-positive arguments."""
    if not freq_mhz > 0.0:
        raise ValueError(f"freq_mhz must be > 0, got {freq_mhz}")
    if not distance_km > 0.0:
        raise ValueError(f"distance_km must be > 0, got {distance_km}")
    if not rcs_m2 > 0.0:
        raise ValueError(f"rcs_m2 must be > 0, got {rcs_m2}")
    return (
        103.4
        + 20.0 * math.log10(freq_mhz)
        + 40.0 * math.log10(distance_km)
        - 10.0 * math.log10(rcs_m2)
    )


def pathloss_constant(freq_mhz: float, rcs_m2: float) -> float:
    """eps_pl = 10^10.34 * f^2 / rcs (f in MHz, rcs in m^2, d in km) so that
    beta^2(d) = 1/(eps_pl d^4).

    Consistency with path_loss_db: 10 log10(value * d^4) == path_loss_db(f, d, rcs)
    for every d.
    """
    if not freq_mhz > 0.0:
        raise ValueError(f"freq_mhz must be > 0, got {freq_mhz}")
    if not rcs_m2 > 0.0:
        raise ValueError(f"rcs_m2 must be > 0, got {rcs_m2}")
    return 10.0**10.34 * freq_mhz**2 / rcs_m2


def path_gain_squared(params: RadarLinkParams, distance_km: float) -> float:
    """beta^2(d), the two-way linear power gain at range d."""
    eps_pl = pathloss_constant(params.carrier_freq_mhz, params.rcs_m2)
    if not distance_km > 0.0:
        raise ValueError(f"distance_km must be > 0, got {distance_km}")
    return 1.0 / (eps_pl * distance_km**4)


def per_uav_snr(params: RadarLinkParams, distance_km: float) -> float:
    """Post-integration SNR of one target at fixed range d (linear).

    kappa^2 N (P_T / K) beta^2(d) / sigma^2 with beta^2 from the pathloss
    constant; coherent integration over N symbols contributes the factor N.
    """
    kappa = params.gain_amplitude
    return (
        kappa
        * kappa
        * params.cpi_symbols
        * (params.tx_power_mw / params.uavs_per_symbol)
        * path_gain_squared(params, distance_km)
        / params.noise_power_mw
    )


def mean_single_uav_snr(
    params: RadarLinkParams, region: SensingRegion, mode: str = "normalized"
) -> float:
    """Mean over the region of per_uav_snr for one target (linear): the
    mean_multi_uav_snr of the params' own split, cpi_symbols symbols across
    uavs_per_symbol targets."""
    return mean_multi_uav_snr(
        params, region, params.cpi_symbols, params.uavs_per_symbol, mode
    )


def mean_multi_uav_snr(
    params: RadarLinkParams,
    region: SensingRegion,
    total_symbols: int,
    num_uavs: int,
    mode: str = "normalized",
) -> float:
    """Mean per-target SNR when total_symbols sensing symbols are split evenly
    across num_uavs targets (linear).

    Each target gets N = total_symbols * K / num_uavs coherent symbols at
    power P_T / K, so K cancels and the value is
    kappa^2 T P_T E[d^-4] / (L eps_pl sigma^2), times the density_mass of
    the mode: in ``"unnormalized"`` mode the value carries the extra
    sin(max_elevation) of that density, i.e. it is the integral of
    per_uav_snr against it rather than a true expectation.

    eps_pl is written out inline rather than routed through
    pathloss_constant so that this closed form and the sampling route stay
    independent (a unit defect on either side shows up as a mismatch).
    """
    if total_symbols < 1:
        raise ValueError(f"total_symbols must be >= 1, got {total_symbols}")
    if num_uavs < 1:
        raise ValueError(f"num_uavs must be >= 1, got {num_uavs}")
    kappa = params.gain_amplitude
    eps_pl = 10.0**10.34 * params.carrier_freq_mhz**2 / params.rcs_m2
    return (
        kappa
        * kappa
        * (total_symbols / num_uavs)
        * params.tx_power_mw
        * expected_inverse_quartic_range(region)
        / (eps_pl * params.noise_power_mw)
        * density_mass(region, mode)
    )
