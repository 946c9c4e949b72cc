import copy
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from leolora.config import default_scenario_dict, parse_scenario
from leolora.mac import DropReason
from leolora.orbit import SUN

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def default_dict():
    return default_scenario_dict()


@pytest.fixture
def scenario_dict(default_dict):
    return copy.deepcopy(default_dict)


@pytest.fixture(scope="session")
def default_scenario():
    return parse_scenario(default_scenario_dict())


@pytest.fixture
def energy_spy(monkeypatch):
    """Record every slot the engine settles, per node, in slot order.

    A slot settled through `energy_step` is recorded as it is.  A run of
    slots settled through `settle_slots` is replayed slot by slot through
    `energy_step` and `SlotTotals.add` on copies of the node's state and
    totals, which must end exactly where the batch did.

    Returns `slots(node)`: the node's (tx_phase, sun_s, slot_s, SlotEnergy)
    per settled slot.  Runs keep no per-slot history of their own.
    """
    from leolora import engine

    real_step, real_settle = engine.energy_step, engine.settle_slots
    # id(state) -> (state, rows); holding the state keeps its id from being reused
    calls: dict[int, tuple] = {}

    def rows_of(state):
        return calls.setdefault(id(state), (state, []))[1]

    def step(state, tx_phase, sun_s, slot_s, harvest, profile):
        out = real_step(state, tx_phase, sun_s, slot_s, harvest, profile)
        rows_of(state).append((tx_phase, sun_s, slot_s, out))
        return out

    def settle(state, totals, tx_phases, sun_s, slot_s, harvest, profile, memo):
        replay, replay_totals = copy.copy(state), copy.copy(totals)
        rows = []
        for tx_phase, s in zip(tx_phases, sun_s):
            out = real_step(replay, tx_phase, s, slot_s, harvest, profile)
            replay_totals.add(out.harvested_j, out.consumed_j, out.discharge_j, out.clamp_j,
                              slot_s)
            rows.append((tx_phase, s, slot_s, out))
        real_settle(state, totals, tx_phases, sun_s, slot_s, harvest, profile, memo)
        assert (replay, replay_totals) == (state, totals)
        rows_of(state).extend(rows)

    monkeypatch.setattr(engine, "energy_step", step)
    monkeypatch.setattr(engine, "settle_slots", settle)
    return lambda node: calls.get(id(node.energy), (None, []))[1]


class Decision(NamedTuple):
    """Selection-time values behind one battery-aware MAC decision."""

    node_id: int
    time: float
    transmit: bool
    phase: str | None
    psi_j: float
    psi_min_j: float
    estimate_j: float | None
    threshold_j: float | None
    reason: DropReason | None


@pytest.fixture
def decision_spy(monkeypatch):
    """Record every battery-aware MAC decision through `select_forecast_window`.

    Returns `decisions(result)`: one `Decision` per call the run made, in
    call order.  psi comes from the energy state the selection was given; a
    transmit adds the chosen window's estimate from the result and the
    threshold of the paper's phase rule (the reserve plus the eclipse
    budget in sunlight, the reserve alone in eclipse).
    """
    from leolora import engine

    real = engine.select_forecast_window
    calls: list[tuple] = []  # (energy state, Decision fields after node_id)

    def spy(windows, energy, *args, **kwargs):
        result = real(windows, energy, *args, **kwargs)
        decision, now = result.decision, kwargs["now"]
        psi = energy.phi_j - energy.reserved_j
        if decision.is_transmit:
            phase = decision.window.phase
            threshold = (energy.phi_min_j + energy.e_critical_j if phase == SUN
                         else energy.phi_min_j)
            row = (now, True, phase, psi, energy.phi_min_j, result.estimate_j, threshold, None)
        else:
            row = (now, False, None, psi, energy.phi_min_j, None, None, decision.reason)
        calls.append((energy, row))
        return result

    monkeypatch.setattr(engine, "select_forecast_window", spy)

    def decisions(result):
        node_of = {id(node.energy): node.node_id for node in result.nodes}
        return [Decision(node_of[id(energy)], *row)
                for energy, row in calls if id(energy) in node_of]

    return decisions


@pytest.fixture
def attempt_spy(monkeypatch):
    """Record every settled attempt that had a receiver, through `_on_attempt_end`.

    Returns `attempts(result)`: the run's (TxAttempt, delivered) pairs in
    settling order, where delivered is whether that attempt got through.
    """
    from leolora.engine import PacketState, Simulator

    real = Simulator._on_attempt_end
    logs: dict[int, tuple[list, list]] = {}  # id(sim.nodes) -> (sim.nodes, log)

    def spy(sim, now, payload):
        _, packet, _, attempt = payload
        settles = packet.state is PacketState.IN_FLIGHT
        real(sim, now, payload)
        if settles and attempt is not None:
            log = logs.setdefault(id(sim.nodes), (sim.nodes, []))[1]
            log.append((attempt, packet.state is PacketState.DELIVERED))

    monkeypatch.setattr(Simulator, "_on_attempt_end", spy)
    return lambda result: logs.get(id(result.nodes), (None, []))[1]


def make_scenario(base: dict, **overrides) -> "ScenarioConfig":
    """Deep-copy `base` and apply {'section.key': value} overrides."""
    d = copy.deepcopy(base)
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        d[section][key] = value
    return parse_scenario(d)
