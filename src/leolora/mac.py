"""Battery-lifespan-aware MAC: forecast-window selection and retransmission
with growing random backoff.

A pending packet is matched against the node's forecast windows.  Sun
windows are feasible when the projected energy clears the reserve plus the
eclipse-operations budget; eclipse windows when `reserve_holds`: stored
energy less reserved energy is above the reserve.  Among feasible windows
the node picks the one minimizing

    J(t) = w_dif * DIF(t) + w_energy * E_hat(t) / phi_max

with ties broken by earliest start.  No feasible window means the packet
is dropped with a single reason.

DIF depends only on the window's phase and on run constants, so a run
computes it once per phase (`phase_dif`), and selection is one pass over
the candidates that keeps the best window and the earliest failure.  A
transmit then draws its attempts between plain start and end times, from
the node's `Backoff` stream.

The collision law lives here too: `collides` is the one overlap test, and
the engine settles every heard attempt through it.  An attempt is the
`(start, receiver, ...)` record its packet already holds; every attempt of
a run shares one channel, one spreading factor and one airtime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .airtime import RadioConfig, time_on_air
from .battery import CycleStress, DegradationParams, degradation_impact_factor
from .energy import HarvestModel, NodeEnergyState, PowerProfile
from .exceptions import ConfigError, bounded, check_bounds
from .orbit import ECLIPSE, SUN, ForecastWindow


class DropReason(enum.Enum):
    INSUFFICIENT_ENERGY_SUN = "insufficient_energy_sun"
    BELOW_RESERVE_ECLIPSE = "below_reserve_eclipse"
    NO_WINDOW = "no_window"


class TxDecision:
    """Either Transmit(window) or Drop(reason), never both.

    A slotted class rather than a frozen dataclass, since every
    battery-aware decision builds one and the dataclass costs twice as much.
    """

    __slots__ = ("window", "reason")

    def __init__(self, window: ForecastWindow | None = None, reason: DropReason | None = None):
        if (window is None) == (reason is None):
            raise ValueError("decision must carry exactly one of window or reason")
        self.window = window
        self.reason = reason

    @property
    def is_transmit(self) -> bool:
        return self.window is not None


@dataclass(frozen=True)
class MacConfig:
    """Weights, budgets, and normalizers of the selection algorithm."""

    beta: float = bounded(ge=0.0, le=1.0)
    w_dif: float = bounded(ge=0.0)
    w_energy: float = bounded(ge=0.0)
    dif_ref: float = bounded(gt=0.0)
    max_attempts: int = bounded(8, ge=1)
    backoff_base_s: float = bounded(0.0, ge=0.0)
    deadline_s: float = bounded(10800.0, gt=0.0)

    def __post_init__(self):
        check_bounds(self)
        if not self.w_dif + self.w_energy > 0:
            raise ConfigError(
                f"w_dif + w_energy must be > 0, got w_dif={self.w_dif}, w_energy={self.w_energy}"
            )


class SelectionResult(NamedTuple):
    decision: TxDecision
    estimate_j: float | None  # the chosen window's projected energy; None on a drop


def nominal_backoff_base(radio: RadioConfig, slot_budget_s: float, max_attempts: int) -> float:
    """Backoff base b0 making the expected full sequence span the slot budget.

    Attempt k backs off uniformly on [0, k*b0], so the expected sequence
    duration is b0*A*(A+1)/4 + A*toa; solving for the budget gives b0.
    """
    toa = time_on_air(radio)
    spare = slot_budget_s - max_attempts * toa
    return max(0.0, 4.0 * spare / (max_attempts * (max_attempts + 1)))


def transmit_stress(
    base_stress: CycleStress, capacity_j: float, profile: PowerProfile, slot_harvest_j: float
) -> CycleStress:
    """Cycle stress of an orbit in which one idle slot becomes a transmit slot.

    The slot's harvest covers consumption first, so only the part of the
    extra transmit draw that it leaves uncovered deepens the discharge; in
    eclipse (no harvest) the full consumption difference does.
    """
    marginal = (max(0.0, profile.e_cons_tx_j - slot_harvest_j)
                - max(0.0, profile.e_sleep_j - slot_harvest_j))
    return replace(base_stress, dod=min(1.0, base_stress.dod + marginal / capacity_j))


def phase_dif(
    harvest: HarvestModel,
    profile: PowerProfile,
    deg: DegradationParams,
    base_stress: CycleStress,
    capacity_j: float,
    dif_ref: float,
) -> dict[str, float]:
    """DIF, in [0, 1], of transmitting in a window of each phase.

    It depends only on the window's phase and on run constants, so a run
    computes it once per phase.
    """
    def dif(slot_harvest_j: float) -> float:
        stress = transmit_stress(base_stress, capacity_j, profile, slot_harvest_j)
        return degradation_impact_factor(deg, stress, base_stress, dif_ref)

    return {SUN: dif(harvest.slot_harvest(1.0)), ECLIPSE: dif(0.0)}


def reserve_holds(energy: NodeEnergyState, released_j: float = 0.0) -> bool:
    """The eclipse reserve rule: stored energy, less what stays reserved, is above the reserve.

    Selection releases nothing; a window open releases its packet's own
    reservation, as the re-decision after it does, so the two agree.
    """
    return energy.phi_j - max(0.0, energy.reserved_j - released_j) > energy.phi_min_j


def select_forecast_window(
    windows: list[ForecastWindow],
    energy: NodeEnergyState,
    harvest: HarvestModel,
    profile: PowerProfile,
    mac: MacConfig,
    dif: dict[str, float],
    now: float,
    slot_s: float,
    min_attempt_s: float = 0.0,
) -> SelectionResult:
    """Run the on-sensor selection over the candidate windows in one pass.

    `windows` must already be restricted to the node's candidate horizon;
    windows too short to fit one attempt after `now` are ignored.  `dif`
    maps each phase to its DIF (`phase_dif`).  The feasible window of least
    objective wins, ties broken by earliest start, then window id, so the
    outcome is independent of input ordering.  With no feasible window the
    drop reason is the earliest candidate's failure; with no candidates at
    all it is NO_WINDOW.

    This is the one owner of a window's projected energy E_hat.  Over the
    window's n = (end - start) // slot_s whole slots, the stored energy
    less what is reserved, base = phi - reserved, gains n full-sun
    harvests and loses n sleep draws in a sun window, (base + n * gain) -
    n * sleep, and loses the draws alone in an eclipse window, base -
    n * sleep; either is capped at phi_max.  Everything but n and E_hat
    is taken once per call.  `max` and `min` are spelled as the
    comparisons they make, which pick the same float (ties and -0.0
    included) without their call cost.
    """
    base = energy.phi_j - energy.reserved_j
    phi_max = energy.phi_max_j
    gain = harvest.slot_harvest(1.0)
    sleep = profile.e_sleep_j
    sun_threshold = energy.phi_min_j + energy.e_critical_j
    eclipse_ok = reserve_holds(energy)
    w_dif, w_energy = mac.w_dif, mac.w_energy
    best = None     # (objective, start, window_id), window, estimate
    failed = None   # (start, window_id), reason
    for window in windows:
        start, end = window.start, window.end
        if (now if now > start else start) + min_attempt_s > end:   # max(start, now)
            continue
        n = int((end - start) // slot_s)
        sun = window.phase == SUN
        estimate = base + n * gain - n * sleep if sun else base - n * sleep
        if phi_max < estimate:   # min(estimate, phi_max)
            estimate = phi_max
        if not (estimate >= sun_threshold if sun else eclipse_ok):
            key = (start, window.window_id)
            if failed is None or key < failed[0]:
                failed = (key, DropReason.INSUFFICIENT_ENERGY_SUN if sun
                          else DropReason.BELOW_RESERVE_ECLIPSE)
            continue
        # a pack faded to no capacity passes only at an estimate of 0.0: its share is 0.0
        share = w_energy * estimate / phi_max if phi_max else 0.0
        key = (w_dif * dif[window.phase] + share, start, window.window_id)
        if best is None or key < best[0]:
            best = (key, window, estimate)
    if best is not None:
        return SelectionResult(TxDecision(window=best[1]), best[2])
    return SelectionResult(TxDecision(reason=failed[1] if failed else DropReason.NO_WINDOW), None)


class Backoff:
    """A node's backoff stream: `Generator.uniform(low, high)`, drawn in blocks.

    numpy computes a scalar uniform as `low + (high - low) * u` from the
    stream's next double u, so doubles fetched `BLOCK` at a time with
    `rng.random` give the same floats in the same order.  A span numpy
    rejects (negative, infinite or NaN) raises `ValueError` here too.
    """

    BLOCK = 64
    # the most doubles `skip_missed_rounds` draws in one block
    SCAN_BLOCK = 1 << 14

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._doubles: list[float] = []   # the block's doubles not yet used, last one next

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        if not 0.0 <= span < math.inf:
            raise ValueError(f"backoff range [{low}, {high}] is not a finite, "
                             f"non-negative span")
        doubles = self._doubles
        if not doubles:
            doubles = self._doubles = self._rng.random(self.BLOCK).tolist()[::-1]
        return low + span * doubles.pop()

    def skip_missed_rounds(self, rounds: list[tuple[float, float]], toa: float,
                           high: float) -> int:
        """Consume every whole round of first draws that all miss; return how many doubles.

        Double j from the stream's next one is the first backoff,
        `uniform(0.0, high)`, of attempt range `rounds[j % P]`, a (start, end)
        pair: it hits when `start + high * u + toa <= end`, the float test
        `run_transmission_sequence` makes (0.0 + x is x for x >= 0).  With j
        the first hit, the floor(j / P) * P doubles before its round are
        consumed; the rest stay for `uniform`.  The scan reads round-aligned
        blocks: the buffered doubles, in stream order, head the first, and
        `Generator.random(n)` fills it and every later block of at most
        `SCAN_BLOCK` doubles, the doubles repeated `random(BLOCK)` calls give.
        At least one range must have room for a hit.
        """
        p = len(rounds)
        starts, ends = np.array(rounds, dtype=float).T
        head = self._doubles[::-1]
        rows = max(1, -(-len(head) // p), self.BLOCK // p)
        skipped = 0
        while True:
            block = np.concatenate((head, self._rng.random(rows * p - len(head))))
            head = []
            hits = (starts + high * block.reshape(rows, p)) + toa <= ends
            k = int(hits.argmax())
            if hits.flat[k]:
                k -= k % p
                self._doubles = block[k:].tolist()[::-1]
                return skipped + k
            skipped += len(block)
            rows = min(2 * rows, max(1, self.SCAN_BLOCK // p))


def run_transmission_sequence(
    start: float, end: float, toa: float, mac: MacConfig, rng: Backoff | np.random.Generator
) -> list[float]:
    """Attempt start times for one packet sent from `start` until `end`.

    Attempt k starts after a uniform backoff on [0, k*b0] following the
    previous attempt, drawn from `rng` (a node's `Backoff`, or a plain
    `Generator`: the same floats); attempts that would not finish by `end`
    are cut, truncating the sequence.
    """
    t, b0, uniform = start, mac.backoff_base_s, rng.uniform
    starts: list[float] = []
    for k in range(1, mac.max_attempts + 1):
        s = t + uniform(0.0, k * b0)
        if s + toa > end:
            break
        starts.append(s)
        t = s + toa
    return starts


def collides(a: tuple, b: tuple, airtime: float) -> bool:
    """Whether two attempts destroy each other (pure ALOHA, no capture).

    An attempt is its packet's `(start, receiver, ...)` record, on air for
    `airtime` from its start.  Two attempts collide iff they share the
    receiver and their airtimes overlap; intervals that only touch do not.
    """
    return a[1] == b[1] and a[0] < b[0] + airtime and b[0] < a[0] + airtime
