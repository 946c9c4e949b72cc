"""Outside input: scenario files and schedule-override files, read by one reader.

All physical quantities carry explicit SI units in their field names
(period_s, ea_j_per_mol, ...).  Each scenario dataclass declares every
field's bounds and scenario default once, on the field (`bounded`); its
constructor enforces them, and the reader here (`_Reader`) reads each
section from the same declaration: a field's type, its default (none: the
key is required) and its bounds.  Validation is total: every violation in a
malformed scenario is collected and reported with its dotted path, and a
ValidationError is raised carrying the whole list.  A level that is missing
or is not an object is one problem, and nothing under it reports.  Keys
starting with an underscore and the top-level "presets" block are
documentation and are ignored; any other unknown key produces a warning.

The schedule-override file a scenario may name (`sim.schedule_override_path`)
is read by the same reader, a record at a time, when the schedules are
built (`load_schedule_override`); its first problem raises ValueError
naming the record.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .airtime import RadioConfig, time_on_air, tx_energy
from .battery import CycleStress, DegradationParams, ThermalProfile, cycle_aging
from .energy import HarvestModel, PowerProfile
from .exceptions import Bounds, ConfigError, ValidationError, bounded, check_bounds, shown
from .mac import MacConfig, nominal_backoff_base, transmit_stress
from .orbit import (TWO_PI, ForecastWindow, GroundStation, OrbitConfig, Schedule,
                    WindowOverlap, grid_problem)
from .report import MAX_DOD_OBSERVATIONS, MAX_NODE_ID, MAX_UINT32

TRAFFIC_MODELS = ("poisson", "periodic", "none")
PROTOCOLS = ("battery_aware", "naive_aloha")

# A run keeps every report and metrics row (about 360 B a row, so 3.6 GB at
# the limit); the bound also keeps a report interval far above the clock's
# resolution, so each report comes strictly after the one before.
MAX_REPORT_ROWS = 10_000_000
# A run decides each arrival as a packet, at several µs each: at the limit
# a run takes minutes, as one at the report-row limit does.
MAX_ARRIVALS = 30_000_000

_IGNORED_KEYS = ("presets",)


@dataclass(frozen=True, kw_only=True)
class BatteryScenario:
    """Degradation parameters plus the pack's electrical identity."""

    params: DegradationParams
    thermal: ThermalProfile
    capacity_rated_ah: float = bounded(gt=0.0)
    voltage_nominal_v: float = bounded(gt=0.0)
    soc_initial: float = bounded(0.5, ge=0.0, le=1.0)
    soc_reference: float = bounded(0.825, ge=0.0, le=1.0)
    dod_reference: float = bounded(gt=0.0, le=1.0)
    c_rate_reference: float = bounded(ge=0.0)

    def __post_init__(self):
        check_bounds(self)
        if not math.isfinite(self.capacity_rated_j):
            raise ConfigError(
                f"rated energy capacity_rated_ah * voltage_nominal_v * 3600 must be finite, "
                f"got {self.capacity_rated_j} J"
            )

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
    psi_min_j: float = bounded(ge=0.0)
    e_critical_j: float = bounded(ge=0.0)
    ewma_initial_j: float = bounded(ge=0.0)

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True, kw_only=True)
class SimParams:
    duration_days: float = bounded(gt=0.0)
    slot_s: float = bounded(40.0, gt=0.0)
    node_count: int = bounded(ge=0, le=MAX_NODE_ID)   # the uplink's node_id is a uint16
    traffic_model: str = bounded("poisson", choices=TRAFFIC_MODELS)
    traffic_rate_per_s: float = bounded(0.0, ge=0.0)
    seed: int = bounded(0, ge=0)
    protocol: str = bounded("battery_aware", choices=PROTOCOLS)
    report_interval_s: float = bounded(43200.0, gt=0.0)
    schedule_step_s: float = bounded(1.0, gt=0.0)
    schedule_override_path: str | None = bounded(None)

    def __post_init__(self):
        check_bounds(self)

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


@functools.cache
def _declared_type(annotation: str) -> tuple[str, bool]:
    """(type name, whether None is allowed) of a field annotated `name` or `name | None`."""
    names = [name.strip() for name in annotation.split("|")]
    return names[0], "None" in names


class _Reader:
    """Typed, path-tracking accessor over a parsed JSON object.

    A level that is missing or is not an object is one problem, `broken`;
    the reader over it builds nothing and records nothing more, so nothing
    under that level reports.
    """

    def __init__(self, data: dict, path: str, problems: list[str], notes: list[str],
                 broken: str | None = "expected an object"):
        self.ok = isinstance(data, dict)
        self.data = data if self.ok else {}
        self.path = path
        self.problems = problems
        self.notes = notes
        self.seen: set[str] = set()
        if not self.ok and broken is not None:
            problems.append(f"{path or 'scenario'}: {broken}")

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def section(self, key: str) -> "_Reader":
        self.seen.add(key)
        broken = (None if not self.ok else "missing required section" if key not in self.data
                  else "expected an object")
        return _Reader(self.data.get(key), self._at(key), self.problems, self.notes, broken)

    def items(self, key: str) -> list["_Reader"]:
        """A reader over each element of the array at key; none if the key is absent."""
        self.seen.add(key)
        items = self.data.get(key, [])
        if not isinstance(items, list):
            self.problems.append(f"{self._at(key)}: expected an array")
            return []
        return [_Reader(item, f"{self._at(key)}[{i}]", self.problems, self.notes)
                for i, item in enumerate(items)]

    def value(self, key: str, kind: str = "float", bounds: Bounds = Bounds(),
              default=None, required: bool = False):
        """The key's value, of kind float, int, bool or str, within bounds.

        A value that fails records its problem and reads None; a bool or
        str that fails reads the default instead.
        """
        self.seen.add(key)
        if key not in self.data or self.data[key] is None:
            if required and self.ok:
                self.problems.append(f"{self._at(key)}: missing required value")
            return default
        value = self.data[key]
        if kind in ("bool", "str"):
            if not isinstance(value, bool if kind == "bool" else str):
                expected = "a boolean" if kind == "bool" else "a string"
                self.problems.append(f"{self._at(key)}: expected {expected}, got {shown(value)}")
                return default
            problem = bounds.problem(value)
            if problem is not None:
                self.problems.append(f"{self._at(key)}: {problem}")
                return default
            return value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.problems.append(f"{self._at(key)}: expected a number, got {value!r}")
            return None
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if kind == "float" or not math.isfinite(number):
            value = number   # an int-kind value within float range is checked as itself
        problem = bounds.problem(value)
        if problem is not None:
            self.problems.append(f"{self._at(key)}: {problem}")
            return None
        if kind == "int":
            if value != int(value):
                self.problems.append(f"{self._at(key)}: expected an integer, got {value}")
                return None
            return int(value)
        return value

    def field(self, cls, name: str, derive: tuple | None = None):
        """The key named after a field of cls, read by its declaration.

        A derived field has no scenario default: absent, it reads
        `guarded(name, *derive)`, from a function and the values it takes.
        """
        f = cls.__dataclass_fields__[name]
        required = f.default is MISSING and derive is None
        default = None if derive is not None or required else f.default
        value = self.value(name, _declared_type(f.type)[0], f.metadata["bounds"], default, required)
        if derive is not None and self.data.get(name) is None:
            value = self.guarded(name, *derive)
        return value

    def guarded(self, key: str, compute, *inputs):
        """compute(*inputs); None if an input or this level failed, or with one problem
        of key if compute does."""
        if not self.ok or None in inputs:
            return None
        try:
            return compute(*inputs)
        except (ArithmeticError, ValueError) as exc:
            self.problems.append(f"{self._at(key)}: cannot derive its default: {exc}")
            return None

    def build(self, cls, **given):
        """cls from the given fields and this section's reads of the others, or None.

        Every field is read, even after one has failed.  A None value means
        the field failed its own check (which is recorded), so construction
        is skipped - except for fields declared optional, where None is a
        legitimate value.  A constructor's error is folded into the problems.
        A broken level builds nothing.
        """
        if not self.ok:
            return None
        values = {f.name: given[f.name] if f.name in given else self.field(cls, f.name)
                  for f in fields(cls)}
        if any(v is None and not _declared_type(cls.__dataclass_fields__[k].type)[1]
               for k, v in values.items()):
            return None
        try:
            return cls(**values)
        except ValueError as exc:
            self.problems.append(f"{self.path}: {exc}")
            return None

    def warn_unknown(self):
        for key in self.data:
            if key in self.seen or key.startswith("_") or key in _IGNORED_KEYS:
                continue
            self.notes.append(f"{self._at(key)}: unknown key (ignored)")


def parse_scenario(data: dict) -> ScenarioConfig:
    """Validate a parsed scenario object and fill in derived defaults."""
    problems: list[str] = []
    notes: list[str] = []
    root = _Reader(data, "", problems, notes)

    orbit_r = root.section("orbit")
    orbit = orbit_r.build(OrbitConfig)
    orbit_r.warn_unknown()

    stations: list[GroundStation] = []
    for i, st_r in enumerate(root.items("stations")):
        station_id = st_r.field(GroundStation, "id", derive=(lambda: f"gs-{i}",))
        station = st_r.build(GroundStation, id=station_id)
        st_r.warn_unknown()
        if station is not None:
            stations.append(station)

    bat_r = root.section("battery")
    deg = bat_r.build(DegradationParams)
    thermal = bat_r.build(ThermalProfile)
    capacity_ah = bat_r.field(BatteryScenario, "capacity_rated_ah")
    discharge_a = bat_r.value("discharge_current_a", bounds=Bounds(ge=0.0))
    c_rate_ref = bat_r.field(BatteryScenario, "c_rate_reference",
                             derive=(lambda amps, ah: amps / ah, discharge_a, capacity_ah))
    # both forms or neither: decided by the keys given, not by the values read
    given = [key for key in ("c_rate_reference", "discharge_current_a")
             if bat_r.data.get(key) is not None]
    if len(given) == 2:
        problems.append("battery: give either c_rate_reference or discharge_current_a, not both")
    elif not given and bat_r.ok:
        problems.append("battery: one of c_rate_reference or discharge_current_a is required")
    battery = bat_r.build(BatteryScenario, params=deg, thermal=thermal,
                          capacity_rated_ah=capacity_ah, c_rate_reference=c_rate_ref)
    bat_r.warn_unknown()

    radio_r = root.section("radio")
    radio = radio_r.build(RadioConfig)
    radio_r.warn_unknown()

    en_r = root.section("energy")
    e_sleep = en_r.field(PowerProfile, "e_sleep_j")
    mac_r = root.section("mac")
    max_attempts = mac_r.field(MacConfig, "max_attempts")
    e_cons = en_r.field(PowerProfile, "e_cons_tx_j", derive=(
        lambda sleep, n, radio: sleep + n * tx_energy(radio), e_sleep, max_attempts, radio))
    harvest = en_r.build(HarvestModel)
    profile = en_r.build(PowerProfile, e_cons_tx_j=e_cons, e_sleep_j=e_sleep)
    ewma_initial = en_r.field(EnergyScenario, "ewma_initial_j",
                              derive=(lambda profile: profile.e_cons_tx_j, profile))
    energy = en_r.build(EnergyScenario, harvest=harvest, profile=profile,
                        ewma_initial_j=ewma_initial)
    en_r.warn_unknown()

    dif_ref = mac_r.field(MacConfig, "dif_ref", derive=(default_dif_ref, battery, profile))
    if dif_ref is not None and mac_r.data.get("dif_ref") is not None:
        # given, its envelope must still compute: `phase_dif` evaluates no larger stress
        mac_r.guarded("dif_ref", default_dif_ref, battery, profile)
    slot_budget = mac_r.value("slot_budget_s", bounds=Bounds(gt=0.0), default=40.0)
    backoff = mac_r.field(MacConfig, "backoff_base_s",
                          derive=(nominal_backoff_base, radio, slot_budget, max_attempts))
    deadline_orbits = mac_r.value("deadline_orbits", bounds=Bounds(gt=0.0), default=2.0)
    deadline_s = None if None in (orbit, deadline_orbits) else deadline_orbits * orbit.period_s
    mac = mac_r.build(MacConfig, dif_ref=dif_ref, max_attempts=max_attempts,
                      backoff_base_s=backoff, deadline_s=deadline_s)
    mac_r.warn_unknown()

    sim_r = root.section("sim")
    sim = sim_r.build(SimParams)
    sim_r.warn_unknown()
    root.warn_unknown()

    # cross-field checks need every section intact
    if None not in (sim, radio) and sim.slot_s < time_on_air(radio):
        problems.append(
            f"sim.slot_s: slot length {sim.slot_s} s is shorter than the packet "
            f"time-on-air {time_on_air(radio):.6g} s"
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
        # the uplink sends period times in whole seconds and n_slots as uint32s:
        # round(duration_s) <= MAX_UINT32 (half to even, and MAX_UINT32 is odd),
        # and a period of L s holds at most floor(L / slot_s) + 1 slots
        if sim.duration_s >= MAX_UINT32 + 0.5:
            problems.append(
                f"sim.duration_days: the last report period would end at {sim.duration_s} s, "
                f"past the uplink's uint32 whole seconds ({MAX_UINT32:,}); "
                f"got {sim.duration_days}"
            )
        period = min(sim.report_interval_s, sim.duration_s)
        if period / sim.slot_s >= MAX_UINT32:
            problems.append(
                f"sim.report_interval_s: a report period of {period} s would hold up to "
                f"{period / sim.slot_s:.4g} slots of {sim.slot_s} s, past the uplink's uint32 "
                f"n_slots ({MAX_UINT32:,}); got {sim.report_interval_s}"
            )
        arrivals = sim.node_count * sim.duration_s * sim.traffic_rate_per_s
        if sim.traffic_model != "none" and arrivals > MAX_ARRIVALS:
            problems.append(
                f"sim.traffic_rate_per_s: {sim.node_count} nodes over {sim.duration_s} s "
                f"would generate {arrivals:.3g} arrivals, over the limit of {MAX_ARRIVALS:,}; "
                f"got {sim.traffic_rate_per_s}"
            )
        grid = grid_problem(sim.duration_s, sim.schedule_step_s)
        if grid is not None:
            problems.append(f"sim.schedule_step_s: {grid}; got {sim.schedule_step_s}")
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


def load_schedule_override(source: str | Path | list) -> dict[int, Schedule]:
    """Read a schedule-override file: a JSON array of window records, by node.

    Each record is read as a scenario section is: node a whole number in
    [0, MAX_NODE_ID] (the uplink's node_id is a uint16), start_s and end_s
    numbers, target a non-empty string and phase a string; a window_id
    given is taken as its str.  The windows and each node's schedule keep
    their own checks.  The first problem raises ValueError naming its
    record ("override record 3.node: ..."); two windows of a node that
    overlap on one target name the later one's record.
    """
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    records = source["windows"] if isinstance(source, dict) and "windows" in source else source
    if not isinstance(records, list):
        raise ValueError("schedule override must be a JSON array of window records")

    per_node: dict[int, list[ForecastWindow]] = {}
    record_of: dict[int, int] = {}   # a window's id() -> its record's index
    for i, rec in enumerate(records):
        problems: list[str] = []
        rec_r = _Reader(rec, f"override record {i}", problems, [])
        node = rec_r.value("node", "int", Bounds(ge=0, le=MAX_NODE_ID), required=True)
        target = rec_r.value("target", "str", required=True)
        if target == "":
            problems.append(f"{rec_r._at('target')}: must not be empty")
        window = rec_r.build(
            ForecastWindow, window_id=str(rec_r.data.get("window_id", f"{target}:override:{i}")),
            start=rec_r.value("start_s", required=True), end=rec_r.value("end_s", required=True),
            phase=rec_r.value("phase", "str", required=True), target=target)
        if problems:
            raise ValueError(problems[0])
        per_node.setdefault(node, []).append(window)
        record_of[id(window)] = i
    try:
        return {node: Schedule(windows=tuple(ws)) for node, ws in per_node.items()}
    except WindowOverlap as exc:   # named by the later of the two windows
        raise ValueError(f"override record {record_of[id(exc.window)]}: {exc}") from None


def default_scenario_dict() -> dict:
    """The bundled reference scenario as a plain dict."""
    text = resources.files("leolora").joinpath("scenarios/default.json").read_text()
    return json.loads(text)


def default_scenario() -> ScenarioConfig:
    """The bundled reference scenario, validated."""
    return parse_scenario(default_scenario_dict())
