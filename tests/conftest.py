import contextlib
import copy
import dataclasses
import signal
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from leolora.config import default_scenario_dict, parse_scenario
from leolora.mac import DropReason
from leolora.orbit import SUN
from oracles import oracle_slot, oracle_sun_seconds

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


def bits(obj) -> tuple:
    """A dataclass's fields, floats by their exact bits (so 0.0 and -0.0 differ)."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(obj))


def table_bits(table: dict) -> dict:
    """A term table, (tx_phase, sun_s) -> terms, with the terms' floats by their exact bits."""
    return {key: tuple(t.hex() for t in terms) for key, terms in table.items()}


@pytest.fixture
def energy_spy(monkeypatch):
    """Record every slot the engine settles, per node, in slot order.

    Every walk, through `energy_step` (a real tick) or `settle_slots` (a
    batch), both patched in `energy` where `NodeLedger.settle_to` looks
    them up, has its sunlit iterator drawn out and the transmit phases of
    its slots copied before the real call, and is replayed slot by slot
    through `oracles.oracle_slot` on copies of the ledger's state and
    totals: the real walk must end bit for bit where the replay did, with
    the same brownout reported, having popped the phases of its own slots
    and no other key and moved the ledger's settled index past them.
    `energy_step`'s own call of `settle_slots` is part of its walk.

    Returns `slots(node)`: the node's (tx_phase, sun_s, slot_s, OracleSlot)
    per settled slot, after checking that the walks covered slots 0, 1, ...
    in order and that each slot's sunlit seconds are, bit for bit,
    `oracles.oracle_sun_seconds` over that slot on the node's grid.  Runs
    keep no per-slot history of their own.
    """
    from leolora import energy

    # id(ledger) -> (ledger, slot indices, rows); holding the ledger keeps its id from being reused
    calls: dict[int, tuple] = {}
    walking = []   # the ledger of the walk being recorded

    def spied(real):
        def walk(ledger, sun_s):
            if walking:
                return real(ledger, sun_s)
            state, totals, tx, first = ledger.energy, ledger.totals, ledger.tx, ledger.settled
            suns = list(sun_s)
            upto = first + len(suns)
            phases = [tx.get(k) for k in range(first, upto)]
            outside = {k: v for k, v in tx.items() if not first <= k < upto}
            replay, replay_totals = copy.copy(state), copy.copy(totals)
            rows = [(tx_phase, s, ledger.law.slot_s,
                     oracle_slot(replay, replay_totals, tx_phase, s, ledger.law.slot_s,
                                 ledger.law.harvest, ledger.law.profile))
                    for tx_phase, s in zip(phases, suns)]
            walking.append(ledger)
            try:
                brownout = real(ledger, iter(suns))
            finally:
                walking.clear()
            assert (bits(state), bits(totals)) == (bits(replay), bits(replay_totals))
            assert brownout == (bool(rows) and rows[-1][3].brownout)
            assert tx == outside and ledger.settled == upto
            _, slots, log = calls.setdefault(id(ledger), (ledger, [], []))
            slots.extend(range(first, upto))
            log.extend(rows)
            return brownout
        return walk

    monkeypatch.setattr(energy, "energy_step", spied(energy.energy_step))
    monkeypatch.setattr(energy, "settle_slots", spied(energy.settle_slots))

    def slots(node):
        _, indices, rows = calls.get(id(node.ledger), (None, [], []))
        assert indices == list(range(len(indices)))
        grid = node.ledger
        for k, (_, sun_s, _, _) in zip(indices, rows):
            want = oracle_sun_seconds(grid.orbit, grid.slot_time(k), grid.slot_time(k + 1))
            assert sun_s.hex() == want.hex()
        return rows

    return slots


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
        node_of = {id(node.ledger.energy): node.node_id for node in result.nodes}
        return [Decision(node_of[id(energy)], *row)
                for energy, row in calls if id(energy) in node_of]

    return decisions


@pytest.fixture
def attempt_spy(monkeypatch):
    """Record every settled attempt that had a receiver, through `_on_attempt_end`.

    Returns `attempts(result)`: the run's (record, delivered) pairs in
    settling order, where record is the packet's own `(start, receiver,
    seq)` entry in `_Packet.attempts` and delivered is whether that attempt
    got through.
    """
    from leolora.engine import Simulator

    real = Simulator._on_attempt_end
    logs: dict[int, tuple[list, list]] = {}  # id(sim.nodes) -> (sim.nodes, log)

    def spy(sim, now, payload):
        _, packet, k = payload
        settles = packet.outcome is None   # launched, so in flight until it ends
        real(sim, now, payload)
        record = packet.attempts[k]
        if settles and record[1] is not None:
            log = logs.setdefault(id(sim.nodes), (sim.nodes, []))[1]
            log.append((record, packet.outcome == "delivered"))

    monkeypatch.setattr(Simulator, "_on_attempt_end", spy)
    return lambda result: logs.get(id(result.nodes), (None, []))[1]


def make_scenario(base: dict, **overrides) -> "ScenarioConfig":
    """Deep-copy `base` and apply {'section.key': value} overrides."""
    d = copy.deepcopy(base)
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        d[section][key] = value
    return parse_scenario(d)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run `seconds`, so a hang fails a test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
