"""Per-node stored-energy balance, solar harvest, and the EWMA estimator.

`settle_slots` owns the slot law

    phi[t] = phi[t-1] + y[t]*E_g[t] - x[t]*E_cons - (1 - x[t])*E_sleep

with phi clamped to [0, phi_max]: it settles a run of slots in one walk,
taking each slot's sunlit seconds, in slot order, from an iterable (the
engine passes slices of the node's 256-slot blocks, `_Node.block`) and
its transmit phase from the node's {slot: phase} map, and adds each slot
to the node's running `SlotTotals`.  `_slot_terms` gives the terms phi
does not enter (x, y, E_g and the slot's battery discharge for the orbit
ledger).  They depend only on (tx_phase, sun_s) and the run's constants,
so a run keeps those of whole slots in a memo of at most six keys, and a
walk holds an idle slot's terms across each run of equal sunlit seconds
without a lookup.  A clamp at zero is a brownout; every clamp is counted
so the run-level ledger can be audited exactly.  A real slot tick
settles its gap and its own slot through `energy_step`, one walk; a
settle before a read walks through `settle_slots` itself.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .exceptions import ConfigError, ContractError, bounded, check_bounds
from .orbit import ECLIPSE, SUN


@dataclass
class NodeEnergyState:
    """Stored energy, EWMA estimate and reservations for one node.

    reserved_j is energy provisionally debited for packets already
    scheduled but not yet transmitted; the window estimates of
    `mac.select_forecast_window` subtract it.
    """

    phi_j: float
    phi_max_j: float
    phi_min_j: float
    e_critical_j: float
    ewma_estimate_j: float = 0.0
    reserved_j: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phi_j <= self.phi_max_j:
            raise ValueError(
                f"phi must be in [0, phi_max], got {self.phi_j} with max {self.phi_max_j}"
            )
        if not self.phi_min_j < self.phi_max_j:
            raise ValueError(
                f"phi_min must be < phi_max, got {self.phi_min_j} >= {self.phi_max_j}"
            )
        if self.e_critical_j < 0:
            raise ValueError(f"e_critical must be >= 0, got {self.e_critical_j}")
        if self.ewma_estimate_j < 0 or self.reserved_j < 0:
            raise ValueError("ewma estimate and reservation must be >= 0")

    @property
    def soc(self) -> float:
        """phi over phi_max; a pack faded to no capacity holds nothing, so 0.0."""
        return self.phi_j / self.phi_max_j if self.phi_max_j else 0.0


@dataclass(frozen=True)
class HarvestModel:
    """Solar input per slot: nonzero in sunlight, exactly zero in eclipse."""

    e_g_sun_j_per_slot: float = bounded(ge=0.0)
    charge_rate_limit_j_per_slot: float = bounded(ge=0.0)

    def __post_init__(self):
        check_bounds(self)

    def slot_harvest(self, sun_fraction: float) -> float:
        """Usable harvest for a slot with the given sunlit fraction."""
        if not 0.0 <= sun_fraction <= 1.0:
            raise ValueError(f"sun fraction must be in [0, 1], got {sun_fraction}")
        return min(self.e_g_sun_j_per_slot * sun_fraction, self.charge_rate_limit_j_per_slot)


@dataclass(frozen=True)
class PowerProfile:
    """Energy drawn per slot in each operating mode."""

    e_cons_tx_j: float = bounded(gt=0.0)
    e_sleep_j: float = bounded(ge=0.0)

    def __post_init__(self):
        check_bounds(self)
        if not self.e_cons_tx_j > self.e_sleep_j:
            raise ValueError(
                f"need e_cons_tx > e_sleep >= 0, got {self.e_cons_tx_j}, {self.e_sleep_j}"
            )


def _slot_terms(tx_phase, sun_s, slot_s, harvest, profile) -> tuple[float, float, float]:
    """(harvested, consumed, discharge) of a slot: the part of the slot law phi does not enter.

    x and y follow from tx_phase and sun_s, E_g from the slot's sunlit
    share.  The battery discharges wherever the bus draw beats harvest: the
    sleep draw through the slot's eclipse seconds, the shortfall below it
    in sunlight, and a transmit's extra draw in an eclipse window.  A sun
    window's transmit is taken as covered by harvest.
    """
    if tx_phase not in (None, SUN, ECLIPSE):
        raise ValueError(f"transmit phase must be None, {SUN} or {ECLIPSE}, got {tx_phase!r}")
    x = 0 if tx_phase is None else 1
    y = 1 if sun_s > 0.0 else 0
    e_g = harvest.slot_harvest(min(max(sun_s / slot_s, 0.0), 1.0)) if y else 0.0
    harvested = y * e_g
    consumed = x * profile.e_cons_tx_j + (1 - x) * profile.e_sleep_j

    bus_rate = profile.e_sleep_j / slot_s
    discharge = bus_rate * (slot_s - sun_s)
    if y:
        harvest_rate = e_g / sun_s
        if bus_rate > harvest_rate:
            discharge += (bus_rate - harvest_rate) * sun_s
    if tx_phase == ECLIPSE:
        discharge += profile.e_cons_tx_j - profile.e_sleep_j
    return harvested, consumed, discharge


@dataclass
class SlotTotals:
    """A node's running sums over the run, its report period and its orbit.

    `settle_slots` adds each slot in slot order.  harvested_j, consumed_j
    and brownouts cover the run; the orbit sums restart at each orbit
    flush, and the clamp figures also take the fade clamps a flush makes.
    The period figures, finished transmissions and flushed orbits' DoDs
    among them, restart only in `close_period`.
    """

    harvested_j: float = 0.0
    consumed_j: float = 0.0
    period_consumed_j: float = 0.0
    period_slots: int = 0
    orbit_s: float = 0.0
    orbit_discharge_j: float = 0.0
    clamp_count: int = 0
    clamp_total_j: float = 0.0
    brownouts: int = 0
    period_txs: int = 0
    period_dods: list[float] = field(default_factory=list)

    def close_period(self) -> tuple[int, int, float, tuple[float, ...]]:
        """The period's (slots, transmissions, consumed J, DoDs); a new period starts."""
        closed = (self.period_slots, self.period_txs, self.period_consumed_j,
                  tuple(self.period_dods))
        self.period_slots = self.period_txs = 0
        self.period_consumed_j = 0.0
        self.period_dods.clear()
        return closed


def settle_slots(
    state: NodeEnergyState,
    totals: SlotTotals,
    tx: dict[int, str | None],
    first: int,
    sun_s: Iterable[float],
    slot_s: float,
    harvest: HarvestModel,
    profile: PowerProfile,
    memo: dict[tuple, tuple[float, float, float, float]],
) -> bool:
    """Settle slots first, first + 1, ... in one walk; return whether the last one browned out.

    The walk takes slot first + i's sunlit time as the i-th value of sun_s,
    which may be a lazy iterator, and pops its transmit phase from the
    node's {slot: phase} map tx (no key: the node slept); keys outside the
    walked slots stay.  Each slot advances phi by the slot law and adds its
    figures to the running sums.  A brownout must be acted on (the node
    sleeps through the next slot), so one before the last slot is a broken
    contract: it raises before state or totals change.

    The loop holds phi and the sums in locals and writes them back once.
    The clamp is spelled as the comparisons `max` and `min` make, which
    pick the same float (-0.0 and NaN included) without their call cost.

    memo maps (tx_phase, sun_s) to the slot's `_slot_terms` and their
    harvested - consumed.  It keeps whole slots only (sun_s 0.0 or slot_s),
    at most six keys, since a partly sunlit slot's sun_s rarely repeats.
    The terms also depend on slot_s, harvest and profile, so a run keeps
    its own memo.  Keys 0.0 and -0.0 are one key, and give the same terms.
    An idle slot whose sun_s equals the slot before's, also idle, reuses
    that slot's terms without a lookup, and the map is popped only while
    it holds a booking: so a long idle run costs only its arithmetic.
    """
    phi, phi_max = state.phi_j, state.phi_max_j
    harvested_j, consumed_j = totals.harvested_j, totals.consumed_j
    period_consumed_j, orbit_s = totals.period_consumed_j, totals.orbit_s
    orbit_discharge_j = totals.orbit_discharge_j
    clamp_count, clamp_total_j = totals.clamp_count, totals.clamp_total_j
    brownouts = 0
    raw = phi
    get, pop = memo.get, tx.pop
    held = None   # the sunlit seconds of the idle slot whose terms the locals hold
    k = first
    for s in sun_s:
        tx_phase = pop(k, None) if tx else None
        k += 1
        if tx_phase is not None or s != held:
            key = (tx_phase, s)
            terms = get(key)
            if terms is None:
                harvested, consumed, discharge = _slot_terms(*key, slot_s, harvest, profile)
                terms = (harvested, consumed, discharge, harvested - consumed)
                if s == 0.0 or s == slot_s:
                    memo[key] = terms
            harvested, consumed, discharge, delta = terms
            held = s if tx_phase is None else None
        raw = phi + delta
        # min(max(raw, 0.0), phi_max), by the comparisons max and min make
        phi = 0.0 if raw < 0.0 else raw
        if phi_max < phi:
            phi = phi_max
        harvested_j += harvested
        consumed_j += consumed
        period_consumed_j += consumed
        orbit_s += slot_s
        orbit_discharge_j += discharge
        clamp = phi - raw
        if clamp:   # a brownout (raw < 0) always clamps
            if raw < 0.0:
                brownouts += 1
            clamp_count += 1
            clamp_total_j += clamp
    brownout = raw < 0.0
    if brownouts > brownout:
        raise ContractError(f"a slot before the last of the walk {first} .. {k - 1} browns out")
    state.phi_j = phi
    totals.harvested_j, totals.consumed_j = harvested_j, consumed_j
    totals.period_consumed_j, totals.orbit_s = period_consumed_j, orbit_s
    totals.orbit_discharge_j = orbit_discharge_j
    totals.clamp_count, totals.clamp_total_j = clamp_count, clamp_total_j
    totals.brownouts += brownouts
    totals.period_slots += k - first
    return brownout


def energy_step(
    state: NodeEnergyState,
    totals: SlotTotals,
    tx: dict[int, str | None],
    first: int,
    sun_s: Iterable[float],
    slot_s: float,
    harvest: HarvestModel,
    profile: PowerProfile,
    memo: dict[tuple, tuple[float, float, float, float]],
) -> bool:
    """A real slot tick's one walk: its gap and its own slot; return the last one's brownout.

    It is `settle_slots` by another name, so that the real ticks, which
    alone call it, can be counted apart from batch settles.
    """
    return settle_slots(state, totals, tx, first, sun_s, slot_s, harvest, profile, memo)


def ewma_update(beta: float, e_cons_prev_j: float, ewma_prev_j: float) -> float:
    """Exponentially weighted estimate giving weight beta to the newest sample."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    if e_cons_prev_j < 0 or ewma_prev_j < 0:
        raise ValueError("energy inputs must be >= 0")
    return beta * e_cons_prev_j + (1.0 - beta) * ewma_prev_j

