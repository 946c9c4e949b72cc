"""Battery-lifespan-aware MAC: forecast-window selection and retransmission
with growing random backoff.

A pending packet is matched against the node's forecast windows.  Sun
windows are feasible when the projected energy clears the reserve plus the
eclipse-operations budget; eclipse windows when current stored energy is
above the reserve.  Among feasible windows the node picks the one
minimizing

    J(t) = w_dif * DIF(t) + w_energy * E_hat(t) / phi_max

with ties broken by earliest start.  No feasible window means the packet
is dropped with a single reason.

The collision law lives here too: `collides` is the one overlap test, used
by the engine for every attempt it settles and by `resolve_collisions`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .airtime import RadioConfig, time_on_air
from .battery import CycleStress, DegradationParams, degradation_impact_factor
from .energy import (
    DEFAULT_SLOT_S,
    HarvestModel,
    NodeEnergyState,
    PowerProfile,
    estimate_available_energy,
)
from .exceptions import ConfigError, ContractError
from .orbit import SUN, ForecastWindow


class DropReason(enum.Enum):
    INSUFFICIENT_ENERGY_SUN = "insufficient_energy_sun"
    BELOW_RESERVE_ECLIPSE = "below_reserve_eclipse"
    NO_WINDOW = "no_window"


@dataclass(frozen=True)
class TxDecision:
    """Either Transmit(window) or Drop(reason), never both."""

    window: ForecastWindow | None = None
    reason: DropReason | None = None

    def __post_init__(self):
        if (self.window is None) == (self.reason is None):
            raise ValueError("decision must carry exactly one of window or reason")

    @classmethod
    def transmit(cls, window: ForecastWindow) -> "TxDecision":
        return cls(window=window)

    @classmethod
    def drop(cls, reason: DropReason) -> "TxDecision":
        return cls(reason=reason)

    @property
    def is_transmit(self) -> bool:
        return self.window is not None


@dataclass(frozen=True)
class MacConfig:
    """Weights, budgets, and normalizers of the selection algorithm."""

    beta: float
    w_dif: float
    w_energy: float
    dif_ref: float
    max_attempts: int = 8
    slot_budget_s: float = DEFAULT_SLOT_S
    backoff_base_s: float = 0.0
    deadline_s: float = 10800.0

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if self.w_dif < 0 or self.w_energy < 0 or self.w_dif + self.w_energy <= 0:
            raise ConfigError(
                f"weights must be >= 0 with a positive sum, got "
                f"w_dif={self.w_dif}, w_energy={self.w_energy}"
            )
        if self.dif_ref <= 0:
            raise ConfigError(f"dif_ref must be > 0, got {self.dif_ref}")
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.slot_budget_s <= 0 or self.deadline_s <= 0:
            raise ConfigError("slot budget and deadline must be > 0")
        if self.backoff_base_s < 0:
            raise ConfigError(f"backoff base must be >= 0, got {self.backoff_base_s}")


@dataclass(frozen=True)
class WindowEvaluation:
    """How one candidate window fared during selection."""

    window: ForecastWindow
    feasible: bool
    estimate_j: float
    psi_j: float
    threshold_j: float
    dif: float | None = None
    objective: float | None = None
    fail_reason: DropReason | None = None


@dataclass(frozen=True)
class SelectionResult:
    decision: TxDecision
    evaluations: tuple[WindowEvaluation, ...]


def nominal_backoff_base(radio: RadioConfig, slot_budget_s: float, max_attempts: int) -> float:
    """Backoff base b0 making the expected full sequence span the slot budget.

    Attempt k backs off uniformly on [0, k*b0], so the expected sequence
    duration is b0*A*(A+1)/4 + A*toa; solving for the budget gives b0.
    """
    toa = time_on_air(radio)
    spare = slot_budget_s - max_attempts * toa
    return max(0.0, 4.0 * spare / (max_attempts * (max_attempts + 1)))


def marginal_tx_discharge(
    window_phase: str, harvest: HarvestModel, profile: PowerProfile
) -> float:
    """Extra battery draw (J) a transmit slot causes over an idle slot.

    In sunlight the harvest covers consumption first; only the shortfall
    hits the battery.  In eclipse the full consumption difference does.
    """
    slot_harvest = harvest.slot_harvest(1.0) if window_phase == SUN else 0.0
    discharge_tx = max(0.0, profile.e_cons_tx_j - slot_harvest)
    discharge_idle = max(0.0, profile.e_sleep_j - slot_harvest)
    return discharge_tx - discharge_idle


def window_dif(
    window: ForecastWindow,
    harvest: HarvestModel,
    profile: PowerProfile,
    deg: DegradationParams,
    base_stress: CycleStress,
    capacity_j: float,
    dif_ref: float,
) -> float:
    """Degradation impact of transmitting in this window, in [0, 1]."""
    marginal = marginal_tx_discharge(window.phase, harvest, profile)
    stress_tx = replace(base_stress, dod=min(1.0, base_stress.dod + marginal / capacity_j))
    return degradation_impact_factor(deg, stress_tx, base_stress, dif_ref)


def choose_window(evaluations: list[WindowEvaluation]) -> TxDecision:
    """Argmin of the weighted objective over feasible windows.

    Ties break by earliest start, then window id, so the outcome is
    independent of input ordering.  With no feasible window the drop
    reason is the earliest candidate's failure; with no candidates at
    all it is NO_WINDOW.
    """
    feasible = [e for e in evaluations if e.feasible]
    if feasible:
        best = min(feasible, key=lambda e: (e.objective, e.window.start, e.window.window_id))
        return TxDecision.transmit(best.window)
    ordered = sorted(evaluations, key=lambda e: (e.window.start, e.window.window_id))
    if ordered:
        return TxDecision.drop(ordered[0].fail_reason)
    return TxDecision.drop(DropReason.NO_WINDOW)


def select_forecast_window(
    windows: list[ForecastWindow],
    energy: NodeEnergyState,
    harvest: HarvestModel,
    profile: PowerProfile,
    mac: MacConfig,
    deg: DegradationParams,
    base_stress: CycleStress,
    capacity_j: float,
    now: float = 0.0,
    slot_s: float = DEFAULT_SLOT_S,
    min_attempt_s: float = 0.0,
) -> SelectionResult:
    """Run the on-sensor selection over the candidate windows.

    `windows` must already be restricted to the node's candidate horizon;
    windows too short to fit one attempt after `now` are ignored.
    """
    psi = energy.phi_j - energy.reserved_j
    evaluations: list[WindowEvaluation] = []
    for window in windows:
        if max(window.start, now) + min_attempt_s > window.end:
            continue
        estimate = estimate_available_energy(energy, window, harvest, profile, slot_s)
        if window.phase == SUN:
            threshold = energy.phi_min_j + energy.e_critical_j
            feasible = estimate >= threshold
            fail = None if feasible else DropReason.INSUFFICIENT_ENERGY_SUN
        else:
            threshold = energy.phi_min_j
            feasible = psi > threshold
            fail = None if feasible else DropReason.BELOW_RESERVE_ECLIPSE
        dif = None
        objective = None
        if feasible:
            dif = window_dif(window, harvest, profile, deg, base_stress, capacity_j, mac.dif_ref)
            objective = mac.w_dif * dif + mac.w_energy * estimate / energy.phi_max_j
        evaluations.append(
            WindowEvaluation(
                window=window,
                feasible=feasible,
                estimate_j=estimate,
                psi_j=psi,
                threshold_j=threshold,
                dif=dif,
                objective=objective,
                fail_reason=fail,
            )
        )
    return SelectionResult(
        decision=choose_window(evaluations),
        evaluations=tuple(evaluations),
    )


def run_transmission_sequence(
    decision: TxDecision,
    radio: RadioConfig,
    mac: MacConfig,
    rng: np.random.Generator,
    not_before: float | None = None,
) -> list[float]:
    """Attempt start times for one packet inside its selected window.

    Attempt k starts after a uniform backoff on [0, k*b0] following the
    previous attempt; attempts that would not finish inside the window are
    cut, truncating the sequence.
    """
    if not decision.is_transmit:
        raise ContractError("cannot run a transmission sequence for a dropped packet")
    window = decision.window
    toa = time_on_air(radio)
    t = window.start if not_before is None else max(window.start, not_before)
    starts: list[float] = []
    for k in range(1, mac.max_attempts + 1):
        start = t + rng.uniform(0.0, k * mac.backoff_base_s)
        if start + toa > window.end:
            break
        starts.append(start)
        t = start + toa
    return starts


@dataclass(frozen=True)
class TxAttempt:
    """One on-air attempt as seen by a receiver."""

    start: float
    airtime: float
    channel: int
    sf: int
    receiver: str


def collides(a: TxAttempt, b: TxAttempt) -> bool:
    """Whether two attempts destroy each other (pure ALOHA, no capture).

    They do iff they share receiver, channel and spreading factor and their
    airtimes overlap; intervals that only touch do not overlap.
    """
    return (a.receiver == b.receiver and a.channel == b.channel and a.sf == b.sf
            and a.start < b.start + b.airtime and b.start < a.start + a.airtime)


def resolve_collisions(attempts: list[TxAttempt]) -> list[bool]:
    """Per-attempt success under `collides`: an attempt succeeds iff it collides with no other."""
    success = [True] * len(attempts)
    active: list[int] = []  # attempts not yet ended by the current start
    for i in sorted(range(len(attempts)), key=lambda i: attempts[i].start):
        a = attempts[i]
        active = [j for j in active if attempts[j].start + attempts[j].airtime > a.start]
        for j in active:
            if collides(a, attempts[j]):
                success[i] = success[j] = False
        active.append(i)
    return success
