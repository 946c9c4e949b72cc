import copy
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from leolora.config import default_scenario_dict, parse_scenario
from leolora.mac import DropReason

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
    """Record every slot the engine settles, per node, through `energy_step`.

    Returns `slots(node)`: the node's (tx_phase, sun_s, slot_s, SlotEnergy)
    per settled slot, in slot order.  Runs keep no per-slot history of
    their own.
    """
    from leolora import engine

    real = engine.energy_step
    calls: dict[int, list] = {}

    def spy(state, tx_phase, sun_s, slot_s, harvest, profile):
        out = real(state, tx_phase, sun_s, slot_s, harvest, profile)
        calls.setdefault(id(state), []).append((tx_phase, sun_s, slot_s, out))
        return out

    monkeypatch.setattr(engine, "energy_step", spy)
    return lambda node: calls.get(id(node.energy), [])


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
    call order.  A transmit reads the chosen window's evaluation; a drop
    reads the energy state the selection was given.
    """
    from leolora import engine

    real = engine.select_forecast_window
    calls: list[tuple] = []  # (energy state, Decision fields after node_id)

    def spy(windows, energy, *args, **kwargs):
        result = real(windows, energy, *args, **kwargs)
        decision, now = result.decision, kwargs["now"]
        if decision.is_transmit:
            ev = next(e for e in result.evaluations if e.window is decision.window)
            row = (now, True, ev.window.phase, ev.psi_j, energy.phi_min_j,
                   ev.estimate_j, ev.threshold_j, None)
        else:
            row = (now, False, None, energy.phi_j - energy.reserved_j, energy.phi_min_j,
                   None, None, decision.reason)
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
    from leolora.engine import PacketState, Simulator, TxAttempt

    real = Simulator._on_attempt_end
    logs: dict[int, tuple[list, list]] = {}  # id(sim.nodes) -> (sim.nodes, log)

    def spy(sim, now, payload):
        _, packet, k = payload
        settles = packet.state is PacketState.IN_FLIGHT
        real(sim, now, payload)
        start, receiver, _ = packet.attempts[k]
        if settles and receiver is not None:
            attempt = TxAttempt(start=start, airtime=sim.toa, channel=0,
                                sf=sim.sc.radio.spreading_factor, receiver=receiver)
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
