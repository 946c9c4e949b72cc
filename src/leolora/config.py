"""Scenario ingestion: JSON parsing, total validation, derived defaults.

All physical quantities carry explicit SI units in their field names
(period_s, ea_j_per_mol, ...).  Validation is total: every violation in a
malformed scenario is collected and reported with its dotted path, and a
ValidationError is raised carrying the whole list.  Keys starting with an
underscore and the top-level "presets" block are documentation and are
ignored; any other unknown key produces a warning.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .airtime import RadioConfig, time_on_air, tx_energy
from .battery import CycleStress, DegradationParams, ThermalProfile, cycle_aging
from .energy import HarvestModel, PowerProfile
from .exceptions import ValidationError
from .mac import MacConfig, nominal_backoff_base, transmit_stress
from .orbit import MAX_SCHEDULE_SAMPLES, GroundStation, OrbitConfig, TWO_PI
from .report import MAX_DOD_OBSERVATIONS, MAX_NODE_ID

TRAFFIC_MODELS = ("poisson", "periodic", "none")
PROTOCOLS = ("battery_aware", "naive_aloha")

# A run keeps every report and metrics row (about 360 B a row, so 3.6 GB at
# the limit); the bound also keeps a report interval far above the clock's
# resolution, so each report comes strictly after the one before.
MAX_REPORT_ROWS = 10_000_000

_IGNORED_KEYS = ("presets",)


@dataclass(frozen=True)
class BatteryScenario:
    """Degradation parameters plus the pack's electrical identity."""

    params: DegradationParams
    thermal: ThermalProfile
    capacity_rated_ah: float
    voltage_nominal_v: float
    soc_initial: float
    soc_reference: float
    dod_reference: float
    c_rate_reference: float

    @property
    def capacity_rated_j(self) -> float:
        return self.capacity_rated_ah * self.voltage_nominal_v * 3600.0

    @property
    def base_stress(self) -> CycleStress:
        """Nominal per-orbit cycle stress: discharges happen in eclipse."""
        return CycleStress(
            dod=self.dod_reference,
            c_rate=self.c_rate_reference,
            temperature_k=self.thermal.t_eclipse_k,
        )


@dataclass(frozen=True)
class EnergyScenario:
    harvest: HarvestModel
    profile: PowerProfile
    psi_min_j: float
    e_critical_j: float
    ewma_initial_j: float


@dataclass(frozen=True)
class SimParams:
    duration_days: float
    slot_s: float
    node_count: int
    traffic_model: str
    traffic_rate_per_s: float
    seed: int
    protocol: str
    report_interval_s: float
    schedule_step_s: float
    schedule_override_path: str | None = None

    @property
    def duration_s(self) -> float:
        return self.duration_days * 86400.0


@dataclass(frozen=True)
class ScenarioConfig:
    orbit: OrbitConfig
    stations: tuple[GroundStation, ...]
    battery: BatteryScenario
    energy: EnergyScenario
    radio: RadioConfig
    mac: MacConfig
    sim: SimParams

    def node_orbit(self, node_id: int) -> OrbitConfig:
        """Per-node orbit: nodes share the plane, evenly spaced in phase."""
        n = max(self.sim.node_count, 1)
        spread = TWO_PI * node_id / n
        return replace(
            self.orbit,
            phase_offset_rad=(self.orbit.phase_offset_rad + spread) % TWO_PI,
        )

    def phi_max_j(self, fade_fraction: float = 0.0) -> float:
        return self.battery.capacity_rated_j * (1.0 - fade_fraction)

    def steady_state_phi_j(self, orbit: OrbitConfig) -> float:
        """Initial stored energy for a node at this orbit position.

        soc_initial anchors the steady-state charge cycle at sunrise; a
        node starting mid-orbit gets the energy that cycle would hold at
        its position, so staggered nodes all ride the same SoC band.
        """
        cap = self.phi_max_j()
        phi_dawn = self.battery.soc_initial * cap
        harvest_w = self.energy.harvest.slot_harvest(1.0) / self.sim.slot_s
        bus_w = self.energy.profile.e_sleep_j / self.sim.slot_s
        tau = orbit.phase_time_offset_s
        sun = orbit.sun_duration_s
        if tau <= sun:
            phi = phi_dawn + (harvest_w - bus_w) * tau
        else:
            phi = phi_dawn + (harvest_w - bus_w) * sun - bus_w * (tau - sun)
        return min(max(phi, 0.0), cap)


class _Reader:
    """Typed, path-tracking accessor over a parsed JSON object."""

    def __init__(self, data: dict, path: str, problems: list[str], notes: list[str]):
        self.data = data if isinstance(data, dict) else {}
        self.path = path
        self.problems = problems
        self.notes = notes
        self.seen: set[str] = set()
        if not isinstance(data, dict):
            problems.append(f"{path}: expected an object")

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def section(self, key: str) -> "_Reader":
        self.seen.add(key)
        if key not in self.data:
            self.problems.append(f"{self._at(key)}: missing required section")
            return _Reader({}, self._at(key), self.problems, self.notes)
        return _Reader(self.data[key], self._at(key), self.problems, self.notes)

    def number(
        self,
        key: str,
        default: float | None = None,
        required: bool = False,
        minimum: float | None = None,
        maximum: float | None = None,
        exclusive_minimum: float | None = None,
    ) -> float | None:
        self.seen.add(key)
        if key not in self.data or self.data[key] is None:
            if required:
                self.problems.append(f"{self._at(key)}: missing required value")
                return None
            return default
        value = self.data[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.problems.append(f"{self._at(key)}: expected a number, got {value!r}")
            return None
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            self.problems.append(f"{self._at(key)}: must be a finite number, got {value}")
            return None
        if minimum is not None and value < minimum:
            self.problems.append(f"{self._at(key)}: must be >= {minimum}, got {value}")
            return None
        if exclusive_minimum is not None and value <= exclusive_minimum:
            self.problems.append(f"{self._at(key)}: must be > {exclusive_minimum}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.problems.append(f"{self._at(key)}: must be <= {maximum}, got {value}")
            return None
        return value

    def integer(self, key: str, default: int | None = None, required: bool = False,
                minimum: int | None = None) -> int | None:
        value = self.number(key, default=default, required=required, minimum=minimum)
        if value is None:
            return None
        if value != int(value):
            self.problems.append(f"{self._at(key)}: expected an integer, got {value}")
            return None
        return int(value)

    def boolean(self, key: str, default: bool | None = None) -> bool | None:
        self.seen.add(key)
        if key not in self.data or self.data[key] is None:
            return default
        value = self.data[key]
        if not isinstance(value, bool):
            self.problems.append(f"{self._at(key)}: expected a boolean, got {value!r}")
            return default
        return value

    def string(self, key: str, default: str | None = None, required: bool = False,
               choices: tuple[str, ...] | None = None) -> str | None:
        self.seen.add(key)
        if key not in self.data or self.data[key] is None:
            if required:
                self.problems.append(f"{self._at(key)}: missing required value")
            return default
        value = self.data[key]
        if not isinstance(value, str):
            self.problems.append(f"{self._at(key)}: expected a string, got {value!r}")
            return default
        if choices and value not in choices:
            self.problems.append(f"{self._at(key)}: must be one of {choices}, got {value!r}")
            return default
        return value

    def warn_unknown(self):
        for key in self.data:
            if key in self.seen or key.startswith("_") or key in _IGNORED_KEYS:
                continue
            self.notes.append(f"{self._at(key)}: unknown key (ignored)")


def _build(cls, problems: list[str], path: str, allow_none: tuple[str, ...] = (), **kwargs):
    """Construct a validated dataclass, folding its errors into `problems`.

    A None value means the field already failed its own check (which is
    recorded), so construction is skipped - except for fields listed in
    allow_none, where None is a legitimate value.
    """
    if any(v is None and k not in allow_none for k, v in kwargs.items()):
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        problems.append(f"{path}: {exc}")
        return None


def parse_scenario(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario object and fill in derived defaults."""
    problems: list[str] = []
    notes: list[str] = []
    root = _Reader(data, "", problems, notes)

    orbit_r = root.section("orbit")
    orbit = _build(
        OrbitConfig, problems, "orbit",
        period_s=orbit_r.number("period_s", required=True, exclusive_minimum=0.0),
        sun_duration_s=orbit_r.number("sun_duration_s", required=True, exclusive_minimum=0.0),
        altitude_m=orbit_r.number("altitude_m", required=True, exclusive_minimum=0.0),
        inclination_rad=orbit_r.number("inclination_rad", required=True,
                                       minimum=0.0, maximum=math.pi),
        phase_offset_rad=orbit_r.number("phase_offset_rad", default=0.0),
        raan_rad=orbit_r.number("raan_rad", default=0.0),
    )
    orbit_r.warn_unknown()

    root.seen.add("stations")
    stations: list[GroundStation] = []
    raw_stations = data.get("stations", [])
    if not isinstance(raw_stations, list):
        problems.append("stations: expected an array")
        raw_stations = []
    for i, raw in enumerate(raw_stations):
        st_r = _Reader(raw, f"stations[{i}]", problems, notes)
        station = _build(
            GroundStation, problems, f"stations[{i}]",
            id=st_r.string("id", default=f"gs-{i}"),
            latitude_rad=st_r.number("latitude_rad", required=True,
                                     minimum=-math.pi / 2, maximum=math.pi / 2),
            longitude_rad=st_r.number("longitude_rad", required=True),
            min_elevation_rad=st_r.number("min_elevation_rad", default=0.0,
                                          minimum=0.0, maximum=math.pi / 2 - 1e-9),
        )
        st_r.warn_unknown()
        if station is not None:
            stations.append(station)

    bat_r = root.section("battery")
    deg = _build(
        DegradationParams, problems, "battery",
        k1=bat_r.number("k1", required=True, exclusive_minimum=0.0),
        k2=bat_r.number("k2", required=True, exclusive_minimum=0.0),
        ea_j_per_mol=bat_r.number("ea_j_per_mol", required=True, exclusive_minimum=0.0),
        b=bat_r.number("b", required=True, minimum=0.0),
        c=bat_r.number("c", required=True, minimum=0.0),
        d=bat_r.number("d", required=True, minimum=0.0),
        alpha_sei=bat_r.number("alpha_sei", required=True, minimum=0.0, maximum=1.0),
        k_sei=bat_r.number("k_sei", required=True, exclusive_minimum=0.0),
    )
    thermal = _build(
        ThermalProfile, problems, "battery",
        t_sun_k=bat_r.number("t_sun_k", required=True, exclusive_minimum=0.0),
        t_eclipse_k=bat_r.number("t_eclipse_k", required=True, exclusive_minimum=0.0),
    )
    capacity_ah = bat_r.number("capacity_rated_ah", required=True, exclusive_minimum=0.0)
    voltage_v = bat_r.number("voltage_nominal_v", required=True, exclusive_minimum=0.0)
    c_rate_ref = bat_r.number("c_rate_reference", minimum=0.0)
    discharge_a = bat_r.number("discharge_current_a", minimum=0.0)
    if c_rate_ref is not None and discharge_a is not None:
        problems.append(
            "battery: give either c_rate_reference or discharge_current_a, not both"
        )
    elif c_rate_ref is None and discharge_a is not None and capacity_ah:
        c_rate_ref = discharge_a / capacity_ah
    elif c_rate_ref is None and discharge_a is None:
        problems.append("battery: one of c_rate_reference or discharge_current_a is required")

    battery = None
    if None not in (deg, thermal, capacity_ah, voltage_v, c_rate_ref):
        battery = _build(
            BatteryScenario, problems, "battery",
            params=deg,
            thermal=thermal,
            capacity_rated_ah=capacity_ah,
            voltage_nominal_v=voltage_v,
            soc_initial=bat_r.number("soc_initial", default=0.5, minimum=0.0, maximum=1.0),
            soc_reference=bat_r.number("soc_reference", default=0.825,
                                       minimum=0.0, maximum=1.0),
            dod_reference=bat_r.number("dod_reference", required=True,
                                       exclusive_minimum=0.0, maximum=1.0),
            c_rate_reference=c_rate_ref,
        )
        if battery is not None:
            try:
                battery.base_stress
            except ValueError as exc:
                problems.append(f"battery: {exc}")
                battery = None
    bat_r.warn_unknown()

    radio_r = root.section("radio")
    radio = _build(
        RadioConfig, problems, "radio",
        allow_none=("low_data_rate_optimize",),
        spreading_factor=radio_r.integer("spreading_factor", required=True),
        bandwidth_hz=radio_r.integer("bandwidth_hz", default=125_000),
        coding_rate_denominator=radio_r.integer("coding_rate_denominator", default=5),
        preamble_symbols=radio_r.integer("preamble_symbols", default=8),
        explicit_header=radio_r.boolean("explicit_header", default=True),
        crc_on=radio_r.boolean("crc_on", default=True),
        low_data_rate_optimize=radio_r.boolean("low_data_rate_optimize", default=None),
        payload_bytes=radio_r.integer("payload_bytes", default=10),
        tx_power_w=radio_r.number("tx_power_w", required=True, exclusive_minimum=0.0),
    )
    radio_r.warn_unknown()

    en_r = root.section("energy")
    e_sleep = en_r.number("e_sleep_j", required=True, minimum=0.0)
    mac_r = root.section("mac")
    max_attempts = mac_r.integer("max_attempts", default=8, minimum=1)
    e_cons = en_r.number("e_cons_tx_j", exclusive_minimum=0.0)
    if e_cons is None and None not in (e_sleep, radio, max_attempts):
        e_cons = e_sleep + max_attempts * tx_energy(radio)
    harvest = _build(
        HarvestModel, problems, "energy",
        e_g_sun_j_per_slot=en_r.number("e_g_sun_j_per_slot", required=True, minimum=0.0),
        charge_rate_limit_j_per_slot=en_r.number(
            "charge_rate_limit_j_per_slot", required=True, minimum=0.0),
    )
    profile = _build(PowerProfile, problems, "energy", e_cons_tx_j=e_cons, e_sleep_j=e_sleep)
    ewma_initial = en_r.number("ewma_initial_j", minimum=0.0)
    energy = None
    if None not in (harvest, profile):
        energy = _build(
            EnergyScenario, problems, "energy",
            harvest=harvest,
            profile=profile,
            psi_min_j=en_r.number("psi_min_j", required=True, minimum=0.0),
            e_critical_j=en_r.number("e_critical_j", required=True, minimum=0.0),
            ewma_initial_j=profile.e_cons_tx_j if ewma_initial is None else ewma_initial,
        )
    en_r.warn_unknown()

    dif_ref = mac_r.number("dif_ref", exclusive_minimum=0.0)
    if dif_ref is None and None not in (battery, profile):
        dif_ref = default_dif_ref(battery, profile)
    backoff = mac_r.number("backoff_base_s", minimum=0.0)
    slot_budget = mac_r.number("slot_budget_s", default=40.0, exclusive_minimum=0.0)
    if backoff is None and None not in (radio, slot_budget, max_attempts):
        backoff = nominal_backoff_base(radio, slot_budget, max_attempts)
    deadline_orbits = mac_r.number("deadline_orbits", default=2.0, exclusive_minimum=0.0)
    mac = None
    if None not in (dif_ref, backoff, orbit, deadline_orbits):
        mac = _build(
            MacConfig, problems, "mac",
            beta=mac_r.number("beta", required=True, minimum=0.0, maximum=1.0),
            w_dif=mac_r.number("w_dif", required=True, minimum=0.0),
            w_energy=mac_r.number("w_energy", required=True, minimum=0.0),
            dif_ref=dif_ref,
            max_attempts=max_attempts,
            backoff_base_s=backoff,
            deadline_s=deadline_orbits * orbit.period_s,
        )
    mac_r.warn_unknown()

    sim_r = root.section("sim")
    sim = _build(
        SimParams, problems, "sim",
        allow_none=("schedule_override_path",),
        duration_days=sim_r.number("duration_days", required=True, exclusive_minimum=0.0),
        slot_s=sim_r.number("slot_s", default=40.0, exclusive_minimum=0.0),
        node_count=sim_r.integer("node_count", required=True, minimum=0),
        traffic_model=sim_r.string("traffic_model", default="poisson", choices=TRAFFIC_MODELS),
        traffic_rate_per_s=sim_r.number("traffic_rate_per_s", default=0.0, minimum=0.0),
        seed=sim_r.integer("seed", default=0, minimum=0),
        protocol=sim_r.string("protocol", default="battery_aware", choices=PROTOCOLS),
        report_interval_s=sim_r.number("report_interval_s", default=43200.0,
                                       exclusive_minimum=0.0),
        schedule_step_s=sim_r.number("schedule_step_s", default=1.0, exclusive_minimum=0.0),
        schedule_override_path=sim_r.string("schedule_override_path"),
    )
    sim_r.warn_unknown()
    root.warn_unknown()

    # cross-field checks need every section intact
    if None not in (sim, radio) and sim.slot_s < time_on_air(radio):
        problems.append(
            f"sim.slot_s: slot length {sim.slot_s} s is shorter than the packet "
            f"time-on-air {time_on_air(radio):.6f} s"
        )
    if None not in (sim, orbit):
        # one DoD observation per orbit, plus a trailing partial orbit
        max_report_s = (MAX_DOD_OBSERVATIONS - 1) * orbit.period_s
        if sim.report_interval_s > max_report_s:
            problems.append(
                f"sim.report_interval_s: must be <= {max_report_s} so a report's "
                f"DoD observations fit the uplink's {MAX_DOD_OBSERVATIONS}, "
                f"got {sim.report_interval_s}"
            )
    if sim is not None:
        rows = sim.node_count * sim.duration_s / sim.report_interval_s
        if rows > MAX_REPORT_ROWS:
            problems.append(
                f"sim.report_interval_s: {sim.node_count} nodes over {sim.duration_s} s "
                f"would report {rows:.3g} rows, over the limit of {MAX_REPORT_ROWS:,}; "
                f"got {sim.report_interval_s}"
            )
        if sim.duration_s / sim.schedule_step_s > MAX_SCHEDULE_SAMPLES:
            problems.append(
                f"sim.schedule_step_s: a schedule over {sim.duration_s} s would take "
                f"{sim.duration_s / sim.schedule_step_s:.3g} samples, over the limit of "
                f"{MAX_SCHEDULE_SAMPLES:,}; got {sim.schedule_step_s}"
            )
    if sim is not None and sim.node_count > MAX_NODE_ID:
        problems.append(
            f"sim.node_count: must be <= {MAX_NODE_ID} to fit the uplink's "
            f"uint16 node_id, got {sim.node_count}"
        )
    if None not in (battery, energy):
        phi_max = battery.capacity_rated_j
        if energy.psi_min_j >= phi_max:
            problems.append(
                f"energy.psi_min_j: reserve {energy.psi_min_j} J must be below the "
                f"pack capacity {phi_max} J"
            )

    if problems:
        raise ValidationError(problems)
    for note in notes:
        warnings.warn(note, stacklevel=2)
    return ScenarioConfig(
        orbit=orbit,
        stations=tuple(stations),
        battery=battery,
        energy=energy,
        radio=radio,
        mac=mac,
        sim=sim,
    )


def default_dif_ref(battery: BatteryScenario, profile: PowerProfile) -> float:
    """Worst-case per-window incremental cycle fade, used to normalize DIF.

    The envelope is a transmit slot whose full consumption difference is
    drawn from the battery (the eclipse case).
    """
    base = battery.base_stress
    stressed = transmit_stress(base, battery.capacity_rated_j, profile, slot_harvest_j=0.0)
    ref = cycle_aging(battery.params, stressed, 1.0) - cycle_aging(battery.params, base, 1.0)
    return max(ref, 1e-30)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    raw = Path(path).read_text()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"{path}: not valid JSON: {exc}"]) from exc
    return parse_scenario(data)


def default_scenario_dict() -> dict:
    """The bundled reference scenario as a plain dict."""
    text = resources.files("leolora").joinpath("scenarios/default.json").read_text()
    return json.loads(text)


def default_scenario() -> ScenarioConfig:
    """The bundled reference scenario, validated."""
    return parse_scenario(default_scenario_dict())
