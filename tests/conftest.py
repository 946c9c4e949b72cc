import copy
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from leolora.config import default_scenario_dict, parse_scenario

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


def make_scenario(base: dict, **overrides) -> "ScenarioConfig":
    """Deep-copy `base` and apply {'section.key': value} overrides."""
    d = copy.deepcopy(base)
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        d[section][key] = value
    return parse_scenario(d)
