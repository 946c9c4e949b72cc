"""Per-node stored-energy balance, solar harvest, and the EWMA estimator.

`NodeLedger` holds a node's energy timeline on its slot grid: its
`NodeEnergyState`, its running `SlotTotals`, its transmit bookings, the
sleep slot after its latest brownout, how far it is settled and the
sunlit seconds of the block its latest walk ended in.  Only its walks
and methods move phi, phi_max, the slot sums, the bookings and the
settled index; the engine decides only when to settle, book and refit
(it still adds a finished transmission and a flushed orbit to the
totals, and the MAC's reservation and estimate to the state).
`settle_slots` owns the slot law

    phi[t] = phi[t-1] + y[t]*E_g[t] - x[t]*E_cons - (1 - x[t])*E_sleep

with phi clamped to [0, phi_max]: it settles a run of slots in one walk,
taking each slot's sunlit seconds, in slot order, from an iterable (the
ledger passes slices of its `SLOTS_PER_BLOCK`-slot blocks) and its
transmit phase from the ledger's {slot: phase} map, and adds each slot
to the running `SlotTotals`.  `_slot_terms` gives the terms phi does not
enter (x, y, E_g and the slot's battery discharge for the orbit ledger).
They depend only on (tx_phase, sun_s) and the run's constants, its
`SlotLaw`, which makes those of its six whole-slot keys once, in one
table that every walk only reads, and a walk holds an idle slot's terms
across each run of equal sunlit seconds without a lookup.  A clamp at
zero is a brownout; every clamp is counted so the run-level ledger can
be audited exactly.  A real slot tick settles its gap and its own slot
through `energy_step`, one walk; a settle before a read walks through
`settle_slots` itself.

Accounting is retrospective: slot k of a node spans [T_k, T_{k+1}) on its
(randomly offset, unsynchronized) grid T_k = slot_offset + k * slot, and
tick k+1 at T_{k+1} settles it, by which point every transmission attempt
inside it has already happened.  `orbit.grid_floor` places a time on
this grid (`NodeLedger.last_tick`) and on the grid of sunrises alike, by
exact comparisons; only `NodeLedger.slot_time` places a slot edge.

Ticks are lazy (`NodeLedger.next_tick`).  A tick is a real event only
where the node has work: it drains the node's next arrival, it is the
first at or after the node's next sunrise, it is the node's last, or it
is the brownout guard, the first slot where a transmit in every slot
could empty the battery (phi drops by at most E_cons a slot).  After a
brownout phi is 0, so the guard is the very next tick; the arrivals a
brownout tick leaves undrained are created and decided there.  The
slots between real ticks cannot brown out.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, ContractError, bounded, check_bounds
from .orbit import ECLIPSE, SUN, OrbitConfig, grid_floor, sunlit_seconds

# Slots whose sunlit seconds one block holds, made in one `orbit.sunlit_seconds` call.
SLOTS_PER_BLOCK = 256


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


@dataclass(frozen=True)
class SlotLaw:
    """A run's slot constants, shared by its ledgers: slot length, harvest, power, term table.

    `table` maps (tx_phase, sun_s) to a slot's `_slot_terms` and their
    harvested - consumed for six keys: every phase with sun_s 0.0 (wholly
    in eclipse; -0.0 is the same key) or slot_s (wholly sunlit), about
    98.5% of all slots.  A walk only reads it.
    """

    slot_s: float
    harvest: HarvestModel
    profile: PowerProfile
    table: dict[tuple, tuple[float, float, float, float]]

    @classmethod
    def of(cls, slot_s: float, harvest: HarvestModel, profile: PowerProfile) -> SlotLaw:
        """The law of a run's constants, its six whole-slot terms made once."""
        table = {}
        for key in itertools.product((None, SUN, ECLIPSE), (0.0, slot_s)):
            harvested, consumed, discharge = _slot_terms(*key, slot_s, harvest, profile)
            table[key] = harvested, consumed, discharge, harvested - consumed
        return cls(slot_s, harvest, profile, table)


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


def settle_slots(ledger: NodeLedger, sun_s: Iterable[float]) -> bool:
    """Settle the ledger's next slots in one walk, one per sunlit value; return the last's brownout.

    The walk takes slot settled + i's sunlit time as the i-th value of
    sun_s, which may be a lazy iterator, and pops its transmit phase from
    the ledger's {slot: phase} map (no key: the node slept); keys outside
    the walked slots stay.  Each slot advances phi by the slot law and adds
    its figures to the running sums, and `settled` moves past the walk.  A
    brownout must be acted on (the node sleeps through the next slot), so
    one before the last slot is a broken contract: it raises before phi,
    the totals or `settled` change.

    The loop holds phi and the sums in locals and writes them back once.
    The clamp is spelled as the comparisons `max` and `min` make, which
    pick the same float (-0.0 and NaN included) without their call cost.

    A slot's terms come from the `SlotLaw`'s table, or afresh if it lacks
    them.  An idle slot whose sun_s equals the slot before's, also idle,
    reuses that slot's terms without a lookup, and the map is popped only
    while it holds a booking: so a long idle run costs only its arithmetic.
    """
    state, totals, tx, first = ledger.energy, ledger.totals, ledger.tx, ledger.settled
    slot_s, harvest, profile = ledger.law.slot_s, ledger.law.harvest, ledger.law.profile
    phi, phi_max = state.phi_j, state.phi_max_j
    harvested_j, consumed_j = totals.harvested_j, totals.consumed_j
    period_consumed_j, orbit_s = totals.period_consumed_j, totals.orbit_s
    orbit_discharge_j = totals.orbit_discharge_j
    clamp_count, clamp_total_j = totals.clamp_count, totals.clamp_total_j
    brownouts = 0
    raw = phi
    get, pop = ledger.law.table.get, tx.pop
    held = None   # the sunlit seconds of the idle slot whose terms the locals hold
    k = first
    for s in sun_s:
        tx_phase = pop(k, None) if tx else None
        k += 1
        if tx_phase is not None or s != held:
            terms = get((tx_phase, s))
            if terms is None:
                harvested, consumed, discharge = _slot_terms(tx_phase, s, slot_s, harvest, profile)
                terms = (harvested, consumed, discharge, harvested - consumed)
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
    ledger.settled = k
    return brownout


def energy_step(ledger: NodeLedger, sun_s: Iterable[float]) -> bool:
    """A real slot tick's one walk: its gap and its own slot; return the last one's brownout.

    It is `settle_slots` by another name, so that the real ticks, which
    alone call it, can be counted apart from batch settles.
    """
    return settle_slots(ledger, sun_s)


@dataclass(slots=True)
class NodeLedger:
    """One node's energy timeline on its slot grid: phi and its slot sums move only by its methods.

    Slot k < n_slots spans [slot_time(k), slot_time(k + 1)); those below
    `settled` are settled.  `tx` books each slot not yet settled whose first
    attempt transmits, by phase; the slot after the latest brownout
    (`sleep_slot`) counts no transmit.  `block` holds the sunlit seconds of
    the block the latest walk ended in.  A call that takes a time acts on
    the slot `last_tick` places it in.
    """

    energy: NodeEnergyState
    law: SlotLaw
    orbit: OrbitConfig
    slot_offset: float
    n_slots: int
    totals: SlotTotals = field(default_factory=SlotTotals)
    tx: dict[int, str] = field(default_factory=dict)
    sleep_slot: int = -1
    settled: int = 0
    block: list[float] = field(default_factory=list)

    @classmethod
    def of(cls, energy: NodeEnergyState, law: SlotLaw, orbit: OrbitConfig, offset: float,
           t_end: float) -> NodeLedger:
        """A ledger with nothing settled on the grid at `offset`: every slot that ends by t_end."""
        return cls(energy, law, orbit, offset, max(grid_floor(offset, law.slot_s, t_end), 0))

    def slot_time(self, k: int | np.ndarray) -> float | np.ndarray:
        """The start of slot k (the time of tick k), for an index or an array of them."""
        return self.slot_offset + k * self.law.slot_s

    def last_tick(self, t: float) -> int:
        """The largest m with slot_time(m) <= t: t lies in slot m."""
        return grid_floor(self.slot_offset, self.law.slot_s, t)

    @property
    def account_end(self) -> float:
        """The end of the last slot, or with none, the start of the first."""
        return self.slot_time(self.n_slots)

    def sunlit_block(self, b: int) -> list[float]:
        """The sunlit seconds of slots b .. b + `SLOTS_PER_BLOCK` - 1 (or to the last), in order."""
        ticks = np.arange(b, min(b + SLOTS_PER_BLOCK, self.n_slots) + 1)
        return sunlit_seconds(self.orbit, self.slot_time(ticks))

    def settle_to(self, k: int, tick: bool) -> bool:
        """Settle the slots below tick k in one walk; return whether the last one browned out.

        A settle to a tick already reached walks nothing.  A real tick
        walks through `energy_step`, any other settle through
        `settle_slots`; both are looked up as the walk starts, so a wrapper
        set on this module sees every walk.  The engine's guard keeps
        brownouts out of batch settles, so one there raises `ContractError`;
        a tick's brownout makes tick k's slot the sleep slot.  A walk that
        ends in the block it starts in takes a slice of `block`; a longer
        one takes a lazy chain of slices, each later block made as the walk
        reaches it, so it builds no list of all its values.
        """
        first = self.settled
        if k <= first:
            return False
        if self.sleep_slot >= first:   # no transmit counts in the slot after a brownout
            self.tx.pop(self.sleep_slot, None)
        i = first % SLOTS_PER_BLOCK
        if not i:   # the walk starts a block
            self.block = self.sunlit_block(first)
        j = i + k - first
        sun_s = (self.block[i:j] if j <= SLOTS_PER_BLOCK
                 else itertools.chain.from_iterable(self._later_blocks(first - i, i, j)))
        brownout = (energy_step if tick else settle_slots)(self, sun_s)
        if brownout:
            if not tick:
                raise ContractError(f"a batch settle browns out in slot {k - 1}")
            self.sleep_slot = k
        return brownout

    def _later_blocks(self, b: int, i: int, j: int) -> Iterator[list[float]]:
        """Slices of blocks b, b + 1, ... covering slots b + i .. b + j - 1; the last stays held."""
        yield self.block[i:]
        for start in range(SLOTS_PER_BLOCK, j, SLOTS_PER_BLOCK):
            self.block = self.sunlit_block(b + start)
            yield self.block[:j - start]

    def settle_through(self, t: float):
        """Settle, in one batch, every slot whose tick is at or before t."""
        self.settle_to(self.last_tick(t), False)

    def book(self, t: float, phase: str):
        """Count the slot t lies in, not yet settled, as a transmit in `phase` (SUN or ECLIPSE)."""
        self.tx[self.last_tick(t)] = phase

    def unbook(self, t: float):
        """Take back the booking of the slot t lies in, if it has one."""
        self.tx.pop(self.last_tick(t), None)

    def refit(self, phi_max_j: float):
        """Fit the store to a faded capacity; phi above it is clamped down, a counted clamp."""
        if self.energy.phi_j > phi_max_j:
            self.totals.clamp_count += 1
            self.totals.clamp_total_j += phi_max_j - self.energy.phi_j
            self.energy.phi_j = phi_max_j
        self.energy.phi_max_j = phi_max_j

    def guard(self) -> int:
        """The first tick whose slot a transmit in every slot from now could brown out."""
        return self.settled + max(1, int(self.energy.phi_j // self.law.profile.e_cons_tx_j))

    def next_tick(self, arrival: float, sunrise: float) -> int | None:
        """The next tick that must be a real event, or None past the last slot.

        A slot needs its own tick if its end drains the next arrival, if it
        is the first at or after the next sunrise, if it is the node's last,
        or if the worst-case draw (a transmit every slot) could brown the
        node out in it (the guard).  A brownout leaves phi at 0, so the guard
        also gives the tick right after it, which drains the arrivals the
        brownout tick left.  Every slot before the tick settles in one batch.
        """
        if self.settled >= self.n_slots:
            return None
        k = self.guard()   # min(n_slots, guard), then min(k, the arrival's tick)
        if self.n_slots < k:
            k = self.n_slots
        if arrival < math.inf:   # grid_floor(inf) overflows
            first = self._first_tick(arrival)
            if first < k:
                k = first
        if self.slot_time(k) >= sunrise:   # else the sunrise's tick comes after k
            k = self._first_tick(sunrise)
        return k

    def _first_tick(self, t: float) -> int:
        """The first tick k with slot_time(k) >= t, after the settled slots."""
        k = self.last_tick(t)
        if self.slot_time(k) < t:
            k += 1
        first = self.settled + 1
        return k if k > first else first


def ewma_update(beta: float, e_cons_prev_j: float, ewma_prev_j: float) -> float:
    """Exponentially weighted estimate giving weight beta to the newest sample."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    if e_cons_prev_j < 0 or ewma_prev_j < 0:
        raise ValueError("energy inputs must be >= 0")
    return beta * e_cons_prev_j + (1.0 - beta) * ewma_prev_j

