"""Li-ion degradation math: calendar aging, cycle aging, SEI fade, DIF.

The fade pipeline is

    dC_cal   = k1 * exp(-Ea/(R*T)) * SoC^b * t_days
    dC_cycle = k2 * DoD^d * C^c * exp(-Ea/(R*T)) * N
    D_L      = dC_cal + dC_cycle
    fade     = 1 - alpha_sei*exp(-k_sei*D_L) - (1-alpha_sei)*exp(-D_L)

All dC values are fractions of rated capacity, so D_L is dimensionless and
fade is bounded in [0, 1).  The aging functions are pure.  The pack is
described once, by the scenario's `BatteryScenario` (rated energy, thermal
profile, reference DoD, C-rate and SoC); a `BatteryState` holds only what
aging changes.  `age` is the one step that runs the pipeline: it ages a
state over one span of calendar time and a list of (DoD, cycles)
observations.  A node ages its own pack through it an orbit at a time
(`step_battery_per_orbit`), the gateway folds each node's reports through
it (`report.gateway_compute_fleet_degradation`), and
`run_degradation_curve` steps a quiet pack through many orbits.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .exceptions import ConfigError, bounded, check_bounds

if TYPE_CHECKING:
    from .config import BatteryScenario
    from .energy import PowerProfile
    from .orbit import OrbitConfig

# Universal gas constant (J/(mol*K))
R_GAS = 8.314

# Pack cells are only rated for -20C..+40C; outside that we warn, not fail.
OPERABLE_TEMP_MIN_K = 253.0
OPERABLE_TEMP_MAX_K = 313.0

# `run_degradation_curve` steps each orbit in Python and walks every row
# mark, so it refuses spans past these: 1e6 orbits is about 171 years of a
# 5,400 s orbit, and each bound keeps a curve to seconds.
MAX_CURVE_ORBITS = 1_000_000
MAX_CURVE_MARKS = 10_000_000


@dataclass(frozen=True)
class DegradationParams:
    """Calibration constants and exponents of the fade pipeline.

    k1, k2 are dimensionless calibration constants scaling per-day and
    per-cycle fractional fade.  alpha_sei is the capacity share lost to SEI
    film formation, k_sei the film formation constant.
    """

    k1: float = bounded(gt=0.0)
    k2: float = bounded(gt=0.0)
    ea_j_per_mol: float = bounded(gt=0.0)
    b: float = bounded(ge=0.0)              # SoC exponent
    c: float = bounded(ge=0.0)              # C-rate exponent
    d: float = bounded(ge=0.0)              # DoD exponent
    alpha_sei: float = bounded(ge=0.0, le=1.0)
    k_sei: float = bounded(gt=0.0)

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class ThermalProfile:
    """Internal pack temperature in each orbital phase (K)."""

    t_sun_k: float = bounded(gt=0.0)
    t_eclipse_k: float = bounded(gt=0.0)

    def __post_init__(self):
        check_bounds(self)
        for name, t in (("t_sun_k", self.t_sun_k), ("t_eclipse_k", self.t_eclipse_k)):
            if not OPERABLE_TEMP_MIN_K <= t <= OPERABLE_TEMP_MAX_K:
                warnings.warn(
                    f"{name}={t} K is outside the pack's operable range "
                    f"[{OPERABLE_TEMP_MIN_K}, {OPERABLE_TEMP_MAX_K}] K",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class CycleStress:
    """Stress descriptor of one charge-discharge cycle."""

    dod: float              # depth of discharge, fraction of capacity
    c_rate: float           # discharge rate, current / rated capacity
    temperature_k: float

    def __post_init__(self):
        if not 0.0 <= self.dod <= 1.0:
            raise ValueError(f"dod must be in [0, 1], got {self.dod}")
        if self.c_rate < 0:
            raise ValueError(f"c_rate must be >= 0, got {self.c_rate}")
        if self.temperature_k <= 0:
            raise ValueError(f"temperature must be > 0 K, got {self.temperature_k}")


@dataclass
class BatteryState:
    """Mutable per-pack bookkeeping that `age` advances: by a node orbit by
    orbit, and by the gateway report by report.

    Only what aging changes lives here; the pack itself (rated energy and
    reference stress) is the scenario's `BatteryScenario`.  fade_fraction
    is the nonlinear (SEI) total fade; d_linear the accumulated linear
    degradation feeding it, the sum of dc_cal and dc_cycle.  Both are
    non-decreasing over a run, so effective capacity is non-increasing.
    """

    fade_fraction: float = 0.0
    d_linear: float = 0.0
    cycles_completed: float = 0.0
    calendar_days: float = 0.0
    dc_cal: float = 0.0
    dc_cycle: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.fade_fraction <= 1.0:
            raise ValueError(f"fade_fraction must be in [0, 1], got {self.fade_fraction}")
        if self.d_linear < 0 or self.cycles_completed < 0 or self.calendar_days < 0:
            raise ValueError("d_linear, cycles_completed, calendar_days must be >= 0")


def arrhenius_factor(ea_j_per_mol: float, temperature_k: float) -> float:
    """Temperature scaling exp(-Ea/(R*T)) of the degradation rate.

    Strictly increasing in temperature for Ea > 0; equals 1 at Ea = 0.
    """
    if temperature_k <= 0:
        raise ValueError(f"temperature must be > 0 K, got {temperature_k}")
    if ea_j_per_mol < 0:
        raise ValueError(f"activation energy must be >= 0, got {ea_j_per_mol}")
    return math.exp(-ea_j_per_mol / (R_GAS * temperature_k))


def calendar_aging(
    params: DegradationParams, temperature_k: float, soc: float, t_days: float
) -> float:
    """Fractional capacity loss from resting t_days at the given T and SoC.

    Linear in t_days, monotone non-decreasing in SoC and temperature.
    """
    if t_days < 0:
        raise ValueError(f"t_days must be >= 0, got {t_days}")
    if not 0.0 <= soc <= 1.0:
        raise ValueError(f"soc must be in [0, 1], got {soc}")
    arr = arrhenius_factor(params.ea_j_per_mol, temperature_k)
    return params.k1 * arr * soc**params.b * t_days


def cycle_aging(params: DegradationParams, stress: CycleStress, n_cycles: float) -> float:
    """Fractional capacity loss from n_cycles at the given cycle stress.

    Zero when dod == 0 or n_cycles == 0; linear in n_cycles.
    """
    if n_cycles < 0:
        raise ValueError(f"n_cycles must be >= 0, got {n_cycles}")
    arr = arrhenius_factor(params.ea_j_per_mol, stress.temperature_k)
    return params.k2 * stress.dod**params.d * stress.c_rate**params.c * arr * n_cycles


def linear_degradation(dc_cal: float, dc_cycle: float) -> float:
    """Total linear degradation D_L: the sum of the two aging contributions."""
    if dc_cal < 0 or dc_cycle < 0:
        raise ValueError("degradation contributions must be >= 0")
    return dc_cal + dc_cycle


def sei_capacity_fade(params: DegradationParams, d_linear: float) -> float:
    """Nonlinear irreversible capacity fade from SEI film growth.

    Equals 0 at d_linear = 0, strictly increases with d_linear, and
    approaches 1 as d_linear grows without bound.
    """
    if d_linear < 0:
        raise ValueError(f"d_linear must be >= 0, got {d_linear}")
    a = params.alpha_sei
    return 1.0 - a * math.exp(-params.k_sei * d_linear) - (1.0 - a) * math.exp(-d_linear)


def degradation_impact_factor(
    params: DegradationParams,
    stress_if_tx: CycleStress,
    stress_if_idle: CycleStress,
    dif_ref: float,
) -> float:
    """Score in [0, 1] of the extra cycle fade one transmission would cause.

    The single-cycle fade difference between the transmit and idle stress
    is normalized by dif_ref and clamped.  0 means transmitting adds no
    cycle stress; 1 means it reaches the configured worst-case envelope.
    """
    if dif_ref <= 0:
        raise ConfigError(f"dif_ref must be > 0, got {dif_ref}")
    extra = cycle_aging(params, stress_if_tx, 1.0) - cycle_aging(params, stress_if_idle, 1.0)
    return min(max(extra / dif_ref, 0.0), 1.0)


def age(state: BatteryState, params: DegradationParams, days: float, t_sun_k: float,
        soc: float, c_rate: float, t_eclipse_k: float,
        cycles: Iterable[tuple[float, float]]) -> None:
    """Age a pack over one span: the one step of the fade pipeline.

    Calendar aging runs over `days` at the sunlit-phase temperature and
    `soc`.  Each (dod, n_cycles) observation adds its cycles, and cycle
    aging at the eclipse temperature when n_cycles > 0.  Then D_L and the
    SEI fade are set from the running totals.
    """
    state.calendar_days += days
    state.dc_cal += calendar_aging(params, t_sun_k, soc, days)
    for dod, n in cycles:
        state.cycles_completed += n
        if n > 0.0:
            state.dc_cycle += cycle_aging(params, CycleStress(dod, c_rate, t_eclipse_k), n)
    state.d_linear = linear_degradation(state.dc_cal, state.dc_cycle)
    state.fade_fraction = sei_capacity_fade(params, state.d_linear)


def step_battery_per_orbit(
    state: BatteryState, battery: BatteryScenario, duration_s: float, discharge_j: float
) -> float:
    """Advance the pack's degradation by one completed orbit.

    The orbit lasted `duration_s` and drew `discharge_j` from the battery.
    Equivalent cycles accrue as discharged energy over one reference
    cycle's energy (DoD_ref x rated pack energy); calendar time advances
    by the orbit duration at the sunlit-phase temperature and reference
    SoC.  Returns the orbit's observed depth of discharge.
    """
    capacity_j = battery.capacity_rated_j
    dod_observed = min(discharge_j / capacity_j, 1.0)
    age(state, battery.params, duration_s / 86400.0, battery.thermal.t_sun_k,
        battery.soc_reference, battery.c_rate_reference, battery.thermal.t_eclipse_k,
        [(dod_observed, discharge_j / (battery.dod_reference * capacity_j))])
    return dod_observed


def run_degradation_curve(
    battery: BatteryScenario,
    orbit: OrbitConfig,
    profile: PowerProfile,
    slot_s: float,
    days: float,
    resolution_days: float = 1.0,
) -> tuple[list[tuple[float, float, float]], BatteryState]:
    """Quiet per-orbit fade curve: the nominal orbit cycle, no traffic.

    Each orbit discharges the platform sleep draw across the eclipse span.
    Returns (day, d_linear, fade_fraction) rows at the requested
    resolution, plus the final battery state.  A span of more than
    MAX_CURVE_ORBITS orbits, or of more than MAX_CURVE_MARKS row marks
    (days / resolution_days), is refused before any step.
    """
    if not (0 <= days < math.inf and 0 < resolution_days < math.inf):   # NaN fails too
        raise ValueError("days must be finite and >= 0, and resolution finite and > 0")
    n_orbits = int(math.floor(days * 86400.0 / orbit.period_s))
    if n_orbits > MAX_CURVE_ORBITS:
        raise ValueError(f"a fade curve of {n_orbits:,} orbits exceeds the limit of "
                         f"{MAX_CURVE_ORBITS:,}")
    if days / resolution_days > MAX_CURVE_MARKS:
        raise ValueError(f"a fade curve of {days / resolution_days:.3g} row marks exceeds the "
                         f"limit of {MAX_CURVE_MARKS:,}")
    state = BatteryState()
    eclipse_s = orbit.period_s - orbit.sun_duration_s
    discharge_j = profile.e_sleep_j / slot_s * eclipse_s
    rows: list[tuple[float, float, float]] = []
    next_mark = resolution_days
    for k in range(1, n_orbits + 1):
        step_battery_per_orbit(state, battery, orbit.period_s, discharge_j)
        day = k * orbit.period_s / 86400.0
        if day >= next_mark or k == n_orbits:
            rows.append((day, state.d_linear, state.fade_fraction))
            while next_mark <= day:
                next_mark += resolution_days
    return rows, state
