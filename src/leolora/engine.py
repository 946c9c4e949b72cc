"""Deterministic discrete-event loop: nodes, gateways, collisions, batteries.

Metrics are a pure function of (scenario, seed).  Events are processed in
strictly increasing (time, sequence) order; sequence numbers are assigned
at scheduling time, so simultaneous events resolve first-scheduled-first.
A packet's attempt ends take theirs when the packet is launched, even
though each is pushed only once the attempt before it has failed.

Accounting is retrospective: the slot tick at time T settles the slot
[T - slot, T), by which point every transmission attempt inside it has
already happened.  Packets queue until the next tick of their node's
(randomly offset, unsynchronized) slot grid, where the MAC decides them.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .airtime import time_on_air
from .battery import (
    BatteryState,
    CycleStress,
    DegradationParams,
    ThermalProfile,
    calendar_aging,
    cycle_aging,
    linear_degradation,
    sei_capacity_fade,
)
from .config import BatteryScenario, ScenarioConfig
from .energy import NodeEnergyState, PowerProfile, energy_step, ewma_update
from .exceptions import ContractError
from .mac import (
    DropReason,
    TxDecision,
    run_transmission_sequence,
    select_forecast_window,
)
from .orbit import (
    ECLIPSE,
    SUN,
    ForecastWindow,
    OrbitConfig,
    Schedule,
    build_schedule,
    load_schedule_override,
    next_phase_boundary,
    phase_at,
    sun_seconds,
)
from .report import NodeBatteryReport

# A naive sender keeps retrying over at most this span before giving up.
MAX_NAIVE_SPAN_S = 1800.0


class EventKind(enum.Enum):
    """What a heap entry (time, sequence, kind, payload) asks the loop to do."""

    PHASE_CHANGE = "phase_change"
    WINDOW_OPEN = "window_open"
    TX_ATTEMPT_END = "tx_attempt_end"
    SLOT_TICK = "slot_tick"
    REPORT_DUE = "report_due"


class PacketState(enum.Enum):
    """Lifecycle of one packet; delivered and dropped are terminal."""

    QUEUED = "queued"
    WAITING = "waiting"
    IN_FLIGHT = "in_flight"
    DELIVERED = "delivered"
    DROPPED = "dropped"


@dataclass(frozen=True)
class TxAttempt:
    """One on-air attempt as seen by a receiver."""

    start: float
    airtime: float
    channel: int
    sf: int
    receiver: str


def resolve_collisions(attempts: list[TxAttempt]) -> list[bool]:
    """Per-attempt success under the pairwise-overlap collision law.

    Two attempts destroy each other iff their airtime intervals overlap at
    the same receiver on the same channel and spreading factor; there is no
    capture effect.  Different (receiver, channel, sf) groups never
    interact.
    """
    success = [True] * len(attempts)
    groups: dict[tuple, list[int]] = {}
    for i, a in enumerate(attempts):
        groups.setdefault((a.receiver, a.channel, a.sf), []).append(i)
    for idx in groups.values():
        idx.sort(key=lambda i: attempts[i].start)
        active: list[tuple[float, int]] = []  # (end, index) min-heap
        for i in idx:
            a = attempts[i]
            while active and active[0][0] <= a.start:
                heapq.heappop(active)
            if active:
                success[i] = False
                for _, j in active:
                    success[j] = False
            heapq.heappush(active, (a.start + a.airtime, i))
    return success


@dataclass(frozen=True)
class DegradationAssessment:
    """Gateway-side fade figures for one node."""

    node_id: int
    dc_cal: float
    dc_cycle: float
    d_linear: float
    fade_fraction: float


def gateway_compute_fleet_degradation(
    reports: list[NodeBatteryReport],
    params: DegradationParams,
    soc_reference: float,
    c_rate_reference: float,
    dod_reference: float = 0.4,
) -> dict[int, DegradationAssessment]:
    """Apply the fade pipeline to each node's reported usage summaries.

    Calendar aging is evaluated at the reported sunlit-phase temperature
    and the configured reference SoC.  Each DoD observation covers one
    orbit's discharge; its equivalent cycle count is dod / dod_reference,
    the same fractional-cycle convention the nodes accrue by, so gateway
    and node-side figures agree exactly.  Overlapping report periods for
    one node are rejected.
    """
    by_node: dict[int, list[NodeBatteryReport]] = {}
    for r in reports:
        by_node.setdefault(r.node_id, []).append(r)

    out: dict[int, DegradationAssessment] = {}
    for node_id in sorted(by_node):
        node_reports = sorted(by_node[node_id], key=lambda r: r.period_start)
        prev_end = -math.inf
        dc_cal = 0.0
        dc_cycle = 0.0
        for r in node_reports:
            if r.period_start < prev_end:
                raise ValueError(
                    f"node {node_id}: report period starting at {r.period_start} "
                    f"overlaps the previous period ending at {prev_end}"
                )
            prev_end = r.period_end
            dc_cal += calendar_aging(
                params, r.mean_temperature_sun_k, soc_reference, r.period_days
            )
            for dod in r.dod_observations:
                dc_cycle += cycle_aging(
                    params,
                    CycleStress(dod=dod, c_rate=c_rate_reference,
                                temperature_k=r.mean_temperature_eclipse_k),
                    dod / dod_reference,
                )
        d_linear = linear_degradation(dc_cal, dc_cycle)
        out[node_id] = DegradationAssessment(
            node_id=node_id,
            dc_cal=dc_cal,
            dc_cycle=dc_cycle,
            d_linear=d_linear,
            fade_fraction=sei_capacity_fade(params, d_linear),
        )
    return out


@dataclass
class OrbitLedger:
    """Duration and battery discharge accumulated over (roughly) one orbit."""

    duration_s: float = 0.0
    discharge_j: float = 0.0


def step_battery_per_orbit(
    state: BatteryState,
    params: DegradationParams,
    thermal: ThermalProfile,
    ledger: OrbitLedger,
    dod_reference: float,
    c_rate_reference: float,
    soc_reference: float,
) -> float:
    """Advance the pack's degradation by one completed orbit.

    Equivalent cycles accrue as discharged energy over one reference
    cycle's energy (DoD_ref x rated pack energy); calendar time advances
    by the orbit duration at the sunlit-phase temperature and reference
    SoC.  Returns the orbit's observed depth of discharge.
    """
    days = ledger.duration_s / 86400.0
    cycle_energy_j = dod_reference * state.capacity_rated_j
    cycles_inc = ledger.discharge_j / cycle_energy_j
    dod_observed = min(ledger.discharge_j / state.capacity_rated_j, 1.0)

    dc_cal_inc = calendar_aging(params, thermal.t_sun_k, soc_reference, days)
    dc_cycle_inc = 0.0
    if cycles_inc > 0.0:
        stress = CycleStress(
            dod=dod_observed, c_rate=c_rate_reference, temperature_k=thermal.t_eclipse_k
        )
        dc_cycle_inc = cycle_aging(params, stress, cycles_inc)

    state.calendar_days += days
    state.cycles_completed += cycles_inc
    state.dc_cal_total += dc_cal_inc
    state.dc_cycle_total += dc_cycle_inc
    state.d_linear = linear_degradation(state.dc_cal_total, state.dc_cycle_total)
    state.fade_fraction = sei_capacity_fade(params, state.d_linear)
    return dod_observed


def run_degradation_curve(
    battery: BatteryScenario,
    orbit: OrbitConfig,
    profile: PowerProfile,
    slot_s: float,
    days: float,
    resolution_days: float = 1.0,
) -> tuple[list[tuple[float, float, float]], BatteryState]:
    """Quiet per-orbit fade curve: the nominal orbit cycle, no traffic.

    Each orbit discharges the platform sleep draw across the eclipse span.
    Returns (day, d_linear, fade_fraction) rows at the requested
    resolution, plus the final battery state.
    """
    if days < 0 or resolution_days <= 0:
        raise ValueError("days must be >= 0 and resolution > 0")
    state = BatteryState(
        soc=battery.soc_initial,
        capacity_rated_ah=battery.capacity_rated_ah,
        voltage_nominal_v=battery.voltage_nominal_v,
    )
    eclipse_s = orbit.period_s - orbit.sun_duration_s
    bus_rate_w = profile.e_sleep_j / slot_s
    per_orbit = OrbitLedger(duration_s=orbit.period_s, discharge_j=bus_rate_w * eclipse_s)
    n_orbits = int(math.floor(days * 86400.0 / orbit.period_s))
    rows: list[tuple[float, float, float]] = []
    next_mark = resolution_days
    for k in range(1, n_orbits + 1):
        step_battery_per_orbit(
            state, battery.params, battery.thermal, per_orbit,
            dod_reference=battery.dod_reference,
            c_rate_reference=battery.c_rate_reference,
            soc_reference=battery.soc_reference,
        )
        day = k * orbit.period_s / 86400.0
        if day >= next_mark or k == n_orbits:
            rows.append((day, state.d_linear, state.fade_fraction))
            while next_mark <= day:
                next_mark += resolution_days
    return rows, state


# ── engine internals ─────────────────────────────────────────────────────────

# A node's packet counts, keyed as in the summary.
DROP_OUTCOMES = ("dropped_energy", "dropped_collision_exhausted", "dropped_no_window")
PACKET_OUTCOMES = ("generated", "delivered") + DROP_OUTCOMES

_DROP_OUTCOME = {
    DropReason.INSUFFICIENT_ENERGY_SUN: "dropped_energy",
    DropReason.BELOW_RESERVE_ECLIPSE: "dropped_energy",
    DropReason.NO_WINDOW: "dropped_no_window",
}

class MetricsRecord(NamedTuple):
    """One row of the metrics output; the field order is the column order."""

    time_s: float
    node_id: int
    soc: float
    fade_fraction: float
    d_linear: float
    packets_delivered: int
    packets_dropped_energy: int
    packets_dropped_collision_exhausted: int
    packets_dropped_no_window: int
    energy_harvested_j: float
    energy_consumed_j: float


METRICS_COLUMNS = MetricsRecord._fields


@dataclass
class _Packet:
    created: float
    state: PacketState = PacketState.QUEUED
    window: ForecastWindow | None = None
    tx_phase: str | None = None
    tx_slot_idx: int | None = None
    reserved_j: float = 0.0
    # the drawn sequence, (start, receiver, end-event sequence number) per
    # attempt; a receiver of None means nobody can hear that attempt
    attempts: list[tuple[float, str | None, int]] = field(default_factory=list)


@dataclass
class _Node:
    node_id: int
    slot_s: float
    orbit: OrbitConfig
    schedule: Schedule
    energy: NodeEnergyState
    battery: BatteryState
    slot_offset: float
    account_end: float
    backoff_rng: np.random.Generator
    arrivals: list[float]
    arrival_ptr: int = 0
    queue: list[_Packet] = field(default_factory=list)
    busy_until: float = 0.0
    tx_slot_info: dict[int, str] = field(default_factory=dict)
    forced_sleep: set[int] = field(default_factory=set)
    in_flight: _Packet | None = None
    ledger: OrbitLedger = field(default_factory=OrbitLedger)
    clamp_count: int = 0
    clamp_total_j: float = 0.0
    brownout_count: int = 0
    # per reporting period
    period_start: float = 0.0
    period_slots: int = 0
    period_txs: int = 0
    period_energy_j: float = 0.0
    period_dods: list[float] = field(default_factory=list)
    # cumulative
    packets: Counter[str] = field(default_factory=Counter)  # PACKET_OUTCOMES
    energy_harvested_j: float = 0.0
    energy_consumed_j: float = 0.0

    def slot_index(self, t: float) -> int:
        return int(math.floor((t - self.slot_offset) / self.slot_s + 1e-9))

    def slot_time(self, k: int) -> float:
        return self.slot_offset + k * self.slot_s


@dataclass
class RunResult:
    metrics: list[MetricsRecord]
    summary: dict
    nodes: list[_Node]


class Simulator:
    """One deterministic run of a validated scenario."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        seed: int | None = None,
        schedules: dict[int, Schedule] | None = None,
    ):
        self.sc = scenario
        self.seed = scenario.sim.seed if seed is None else seed
        self.t_end = scenario.sim.duration_s
        self.slot_s = scenario.sim.slot_s
        self.toa = time_on_air(scenario.radio)
        self.profile = scenario.energy.profile
        self.harvest = scenario.energy.harvest
        self.naive = scenario.sim.protocol == "naive_aloha"

        self._heap: list[tuple[float, int, EventKind, tuple]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.metrics: list[MetricsRecord] = []
        self.reports: list[NodeBatteryReport] = []
        # announced attempts (start, receiver, packet) that may still overlap one to come
        self._on_air: list[tuple[float, str, _Packet]] = []

        n = scenario.sim.node_count
        ss = np.random.SeedSequence([self.seed])
        children = ss.spawn(2 * n + 1)
        offset_rng = np.random.default_rng(children[-1])

        override = None
        if scenario.sim.schedule_override_path:
            override = load_schedule_override(scenario.sim.schedule_override_path)

        self.nodes: list[_Node] = []
        for u in range(n):
            orbit = scenario.node_orbit(u)
            if schedules is not None and u in schedules:
                schedule = schedules[u]
            elif override is not None:
                schedule = override.get(u, Schedule())
            elif scenario.stations:
                schedule = build_schedule(
                    orbit, list(scenario.stations), horizon=self.t_end,
                    step=scenario.sim.schedule_step_s,
                )
            else:
                schedule = Schedule()

            slot_offset = float(offset_rng.uniform(0.0, self.slot_s))
            n_slots = max(int(math.floor((self.t_end - slot_offset) / self.slot_s)), 0)
            account_end = slot_offset + n_slots * self.slot_s
            traffic_rng = np.random.default_rng(children[2 * u])
            phi0 = scenario.steady_state_phi_j(orbit)
            node = _Node(
                node_id=u,
                slot_s=self.slot_s,
                orbit=orbit,
                schedule=schedule,
                energy=NodeEnergyState(
                    phi_j=phi0,
                    phi_max_j=scenario.phi_max_j(),
                    phi_min_j=scenario.energy.psi_min_j,
                    e_critical_j=scenario.energy.e_critical_j,
                    ewma_estimate_j=scenario.energy.ewma_initial_j,
                ),
                battery=BatteryState(
                    soc=phi0 / scenario.phi_max_j(),
                    capacity_rated_ah=scenario.battery.capacity_rated_ah,
                    voltage_nominal_v=scenario.battery.voltage_nominal_v,
                ),
                slot_offset=slot_offset,
                account_end=account_end,
                backoff_rng=np.random.default_rng(children[2 * u + 1]),
                arrivals=self._generate_arrivals(traffic_rng, account_end),
            )
            self.nodes.append(node)

            if n_slots >= 1:
                self._push(node.slot_time(1), EventKind.SLOT_TICK, (u, 1))
            if scenario.sim.report_interval_s < self.t_end:
                self._push(scenario.sim.report_interval_s, EventKind.REPORT_DUE, (u,))
            self._schedule_next_sunrise(node, 0.0)

    # ── plumbing ─────────────────────────────────────────────────────────

    def _push(self, time: float, kind: EventKind, payload: tuple):
        if time < self.now - 1e-9:
            raise ContractError(f"event {kind} scheduled at {time} before now {self.now}")
        heapq.heappush(self._heap, (time, next(self._seq), kind, payload))

    def _generate_arrivals(self, rng: np.random.Generator, horizon: float) -> list[float]:
        model = self.sc.sim.traffic_model
        rate = self.sc.sim.traffic_rate_per_s
        if model == "none" or rate <= 0.0 or horizon <= 0.0:
            return []
        out: list[float] = []
        if model == "poisson":
            t = 0.0
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= horizon:
                    break
                out.append(t)
        else:  # periodic
            step = 1.0 / rate
            t = float(rng.uniform(0.0, step))
            while t < horizon:
                out.append(t)
                t += step
        return out

    def _schedule_next_sunrise(self, node: _Node, after: float):
        """Queue the next sunrise of this node's orbit profile, where its orbit closes."""
        next_t, phase = next_phase_boundary(node.orbit, after)
        if phase != SUN:
            next_t, _ = next_phase_boundary(node.orbit, next_t + 1e-9)
        if next_t <= self.t_end:
            self._push(next_t, EventKind.PHASE_CHANGE, (node.node_id,))

    # ── main loop ────────────────────────────────────────────────────────

    def run(self) -> RunResult:
        handlers = {
            EventKind.SLOT_TICK: self._on_slot_tick,
            EventKind.PHASE_CHANGE: self._on_phase_change,
            EventKind.WINDOW_OPEN: self._on_window_open,
            EventKind.TX_ATTEMPT_END: self._on_attempt_end,
            EventKind.REPORT_DUE: self._on_report_due,
        }
        while self._heap:
            time, _, kind, payload = heapq.heappop(self._heap)
            if time > self.t_end + 1e-9:
                continue
            self.now = time
            handlers[kind](time, payload)
        self.now = self.t_end
        self._finalize()
        return RunResult(metrics=self.metrics, summary=self._summary(), nodes=self.nodes)

    # ── traffic and MAC decisions ────────────────────────────────────────

    def _drain_arrivals(self, node: _Node, until: float):
        while node.arrival_ptr < len(node.arrivals) and node.arrivals[node.arrival_ptr] <= until:
            created = node.arrivals[node.arrival_ptr]
            node.arrival_ptr += 1
            node.packets["generated"] += 1
            node.queue.append(_Packet(created=created))

    def _decide_queue(self, node: _Node, now: float):
        pending = node.queue
        node.queue = []
        for packet in pending:
            if self.naive:
                self._decide_naive(node, packet, now)
            else:
                self._decide_aware(node, packet, max(now, node.busy_until))

    def _candidates(self, node: _Node, now: float, created: float) -> list[ForecastWindow]:
        deadline = created + self.sc.mac.deadline_s
        return [
            w for w in node.schedule.candidates(now, deadline)
            if w.end <= node.account_end
        ]

    def _decide_aware(self, node: _Node, packet: _Packet, now: float):
        result = select_forecast_window(
            self._candidates(node, now, packet.created),
            node.energy,
            self.harvest,
            self.profile,
            self.sc.mac,
            self.sc.battery.params,
            self.sc.battery.base_stress,
            self.sc.battery.capacity_rated_j,
            now=now,
            slot_s=self.slot_s,
            min_attempt_s=self.toa,
        )
        decision = result.decision
        if not decision.is_transmit:
            self._drop(node, packet, _DROP_OUTCOME[decision.reason])
            return
        window = decision.window
        packet.state = PacketState.WAITING
        packet.window = window
        packet.tx_phase = window.phase
        packet.reserved_j = node.energy.ewma_estimate_j
        node.energy.reserved_j += packet.reserved_j
        self._push(max(window.start, now), EventKind.WINDOW_OPEN, (node.node_id, packet))

    def _decide_naive(self, node: _Node, packet: _Packet, now: float):
        """Immediate-ALOHA baseline: transmit as generated, no energy checks."""
        start = max(now, node.busy_until)
        end = min(start + MAX_NAIVE_SPAN_S, node.account_end)
        if end - start < self.toa:
            self._drop(node, packet, "dropped_no_window")
            return
        pseudo = ForecastWindow(
            window_id="naive",
            start=start, end=end,
            phase=phase_at(node.orbit, start),
            target="",
        )
        starts = run_transmission_sequence(
            TxDecision.transmit(pseudo), self.sc.radio, self.sc.mac,
            node.backoff_rng, not_before=start,
        )
        if not starts:
            self._drop(node, packet, "dropped_no_window")
            return
        packet.tx_phase = phase_at(node.orbit, starts[0])
        self._launch(node, packet, [(t, self._visible_target(node, t)) for t in starts])

    def _visible_target(self, node: _Node, t: float) -> str | None:
        """Target of the latest-starting window covering the whole attempt, if any."""
        target = None
        for w in node.schedule.candidates(t, math.nextafter(t, math.inf)):
            if t + self.toa <= w.end:
                target = w.target
        return target

    def _launch(self, node: _Node, packet: _Packet, attempts: list[tuple[float, str | None]]):
        """Put a packet on air; its drawn attempts go out one at a time."""
        packet.state = PacketState.IN_FLIGHT
        # each attempt's end takes its sequence number now, so it orders among
        # simultaneous events as if it had been scheduled at launch
        packet.attempts = [(t, receiver, next(self._seq)) for t, receiver in attempts]
        node.in_flight = packet
        packet.tx_slot_idx = node.slot_index(attempts[0][0])
        node.tx_slot_info[packet.tx_slot_idx] = packet.tx_phase
        node.busy_until = attempts[-1][0] + self.toa
        self._announce(node, packet, 0)

    def _announce(self, node: _Node, packet: _Packet, k: int):
        """List attempt k at its receiver and push the event that settles it.

        Listing an attempt before it starts is safe: nothing that settles
        before it starts can overlap it.
        """
        start, receiver, seq = packet.attempts[k]
        if receiver is not None:
            self._on_air.append((start, receiver, packet))
        heapq.heappush(self._heap, (start + self.toa, seq, EventKind.TX_ATTEMPT_END,
                                    (node.node_id, packet, k)))

    # ── event handlers ───────────────────────────────────────────────────

    def _on_window_open(self, now: float, payload: tuple):
        node_id, packet = payload
        node = self.nodes[node_id]
        if packet.state is not PacketState.WAITING:
            return
        window = packet.window
        start = max(window.start, now, node.busy_until)

        # The hard reserve is re-checked when the window actually opens;
        # sun-window estimates were projections and stand as decided.
        psi = node.energy.phi_j - node.energy.reserved_j + packet.reserved_j
        ok = psi > node.energy.phi_min_j if window.phase == ECLIPSE else True

        starts: list[float] = []
        if ok and start + self.toa <= window.end:
            starts = run_transmission_sequence(
                TxDecision.transmit(window), self.sc.radio, self.sc.mac,
                node.backoff_rng, not_before=start,
            )
        if not starts:
            self._release(node, packet)
            self._decide_aware(node, packet, max(now, node.busy_until))
            return
        self._launch(node, packet, [(t, window.target) for t in starts])

    def _on_attempt_end(self, now: float, payload: tuple):
        """Settle one attempt: delivered, retried with the next one, or dropped.

        Two attempts at one receiver collide iff their airtimes overlap
        (pure ALOHA, no capture).  Every attempt that could overlap this one
        started before now and is listed; entries that ended an airtime
        before the earliest start still pending overlap nothing to come.
        """
        node_id, packet, k = payload
        if packet.state is not PacketState.IN_FLIGHT:
            return
        node = self.nodes[node_id]
        toa = self.toa
        start, receiver, _ = packet.attempts[k]
        got_through = False
        if receiver is not None:
            self._on_air = [e for e in self._on_air if e[0] + toa > now - 2 * toa]
            got_through = not any(
                r == receiver and other is not packet and min(s, start) + toa > max(s, start)
                for s, r, other in self._on_air
            )
        if got_through:
            self._release(node, packet)
            packet.state = PacketState.DELIVERED
            node.packets["delivered"] += 1
        elif k + 1 < len(packet.attempts):
            self._announce(node, packet, k + 1)
            return
        else:
            heard = any(r is not None for _, r, _ in packet.attempts)
            self._drop(node, packet, "dropped_collision_exhausted" if heard else "dropped_no_window")
        node.period_txs += 1
        node.in_flight = None
        node.energy.ewma_estimate_j = ewma_update(
            self.sc.mac.beta, self.profile.e_cons_tx_j, node.energy.ewma_estimate_j
        )

    def _release(self, node: _Node, packet: _Packet):
        if packet.reserved_j:
            node.energy.reserved_j = max(0.0, node.energy.reserved_j - packet.reserved_j)
            packet.reserved_j = 0.0

    def _drop(self, node: _Node, packet: _Packet, outcome: str):
        self._release(node, packet)
        packet.state = PacketState.DROPPED
        node.packets[outcome] += 1

    def _on_slot_tick(self, now: float, payload: tuple):
        node_id, k = payload
        node = self.nodes[node_id]
        t_end = node.slot_time(k)
        idx = k - 1

        tx_phase = node.tx_slot_info.pop(idx, None)
        if idx in node.forced_sleep:
            node.forced_sleep.remove(idx)
            tx_phase = None
        slot = energy_step(node.energy, tx_phase,
                           sun_seconds(node.orbit, node.slot_time(idx), t_end),
                           self.slot_s, self.harvest, self.profile)
        node.energy_consumed_j += slot.consumed_j
        node.energy_harvested_j += slot.harvested_j
        node.period_energy_j += slot.consumed_j
        node.period_slots += 1
        node.ledger.duration_s += self.slot_s
        node.ledger.discharge_j += slot.discharge_j
        if slot.clamp_j:
            node.clamp_count += 1
            node.clamp_total_j += slot.clamp_j

        if slot.brownout:
            node.brownout_count += 1
            node.forced_sleep.add(idx + 1)
            if node.in_flight is not None:
                victim = node.in_flight
                if victim.tx_slot_idx > idx:
                    node.tx_slot_info.pop(victim.tx_slot_idx, None)
                # an attempt already on air still collides; one yet to start never happens
                self._on_air = [e for e in self._on_air if e[2] is not victim or e[0] <= now]
                self._drop(node, victim, "dropped_energy")
                node.in_flight = None
                node.busy_until = t_end

        self._drain_arrivals(node, t_end)
        if not slot.brownout:
            self._decide_queue(node, t_end)

        if k + 1 <= (node.account_end - node.slot_offset) / self.slot_s + 1e-9:
            self._push(node.slot_time(k + 1), EventKind.SLOT_TICK, (node_id, k + 1))

    def _on_phase_change(self, now: float, payload: tuple):
        (node_id,) = payload
        node = self.nodes[node_id]
        self._flush_orbit(node)
        self._schedule_next_sunrise(node, now + 1e-9)

    def _flush_orbit(self, node: _Node):
        if node.ledger.duration_s <= 0.0:
            return
        dod = step_battery_per_orbit(
            node.battery, self.sc.battery.params, self.sc.battery.thermal,
            node.ledger,
            dod_reference=self.sc.battery.dod_reference,
            c_rate_reference=self.sc.battery.c_rate_reference,
            soc_reference=self.sc.battery.soc_reference,
        )
        if node.ledger.discharge_j > 0.0:
            node.period_dods.append(dod)
        node.ledger = OrbitLedger()
        new_phi_max = self.sc.phi_max_j(node.battery.fade_fraction)
        if node.energy.phi_j > new_phi_max:
            node.clamp_count += 1
            node.clamp_total_j += new_phi_max - node.energy.phi_j
            node.energy.phi_j = new_phi_max
        node.energy.phi_max_j = new_phi_max
        node.battery.soc = node.energy.soc

    def _on_report_due(self, now: float, payload: tuple):
        (node_id,) = payload
        node = self.nodes[node_id]
        # a phase boundary landing exactly on the report boundary settles
        # its orbit first, so the observation rides this period's report
        off = node.orbit.phase_time_offset_s
        if node.ledger.duration_s > 0.0 and (now + off) % node.orbit.period_s < 1e-6:
            self._flush_orbit(node)
        self._emit_report(node, now)
        nxt = now + self.sc.sim.report_interval_s
        if nxt < self.t_end:
            self._push(nxt, EventKind.REPORT_DUE, (node_id,))

    def _emit_report(self, node: _Node, t: float):
        if t <= node.period_start:
            return
        thermal = self.sc.battery.thermal
        self.reports.append(NodeBatteryReport(
            node_id=node.node_id,
            period_start=node.period_start,
            period_end=t,
            n_slots=node.period_slots,
            n_transmissions=node.period_txs,
            energy_consumed_j=node.period_energy_j,
            dod_observations=tuple(node.period_dods),
            mean_temperature_sun_k=thermal.t_sun_k,
            mean_temperature_eclipse_k=thermal.t_eclipse_k,
        ))
        self.metrics.append(MetricsRecord(
            time_s=t,
            node_id=node.node_id,
            soc=node.energy.soc,
            fade_fraction=node.battery.fade_fraction,
            d_linear=node.battery.d_linear,
            packets_delivered=node.packets["delivered"],
            packets_dropped_energy=node.packets["dropped_energy"],
            packets_dropped_collision_exhausted=node.packets["dropped_collision_exhausted"],
            packets_dropped_no_window=node.packets["dropped_no_window"],
            energy_harvested_j=node.energy_harvested_j,
            energy_consumed_j=node.energy_consumed_j,
        ))
        node.period_start = t
        node.period_slots = 0
        node.period_txs = 0
        node.period_energy_j = 0.0
        node.period_dods = []

    def _finalize(self):
        for node in self.nodes:
            self._flush_orbit(node)
            self._drain_arrivals(node, self.t_end)
            for packet in node.queue:
                self._drop(node, packet, "dropped_no_window")
            node.queue = []
            if node.in_flight is not None and node.in_flight.state is PacketState.IN_FLIGHT:
                self._drop(node, node.in_flight, "dropped_collision_exhausted")
                node.in_flight = None
            self._emit_report(node, self.t_end)

    def _summary(self) -> dict:
        per_node = {}
        totals = {key: sum(node.packets[key] for node in self.nodes) for key in PACKET_OUTCOMES}
        for node in self.nodes:
            per_node[str(node.node_id)] = {
                "soc": node.energy.soc,
                "fade_fraction": node.battery.fade_fraction,
                "d_linear": node.battery.d_linear,
                "dc_cal": node.battery.dc_cal_total,
                "dc_cycle": node.battery.dc_cycle_total,
                "cycles_completed": node.battery.cycles_completed,
                "calendar_days": node.battery.calendar_days,
                **{key: node.packets[key] for key in ("delivered",) + DROP_OUTCOMES},
                "energy_harvested_j": node.energy_harvested_j,
                "energy_consumed_j": node.energy_consumed_j,
                "brownouts": node.brownout_count,
                "clamp_events": node.clamp_count,
            }
        delivered = totals["delivered"]
        dropped = sum(totals[key] for key in DROP_OUTCOMES)
        gateway = gateway_compute_fleet_degradation(
            self.reports, self.sc.battery.params,
            soc_reference=self.sc.battery.soc_reference,
            c_rate_reference=self.sc.battery.c_rate_reference,
            dod_reference=self.sc.battery.dod_reference,
        )
        return {
            "seed": self.seed,
            "protocol": self.sc.sim.protocol,
            "duration_s": self.t_end,
            "node_count": self.sc.sim.node_count,
            "packets": totals,
            "packets_terminal": delivered + dropped,
            "pdr": delivered / totals["generated"] if totals["generated"] else None,
            "per_node": per_node,
            "gateway_assessment": {
                str(a.node_id): {
                    "dc_cal": a.dc_cal,
                    "dc_cycle": a.dc_cycle,
                    "d_linear": a.d_linear,
                    "fade_fraction": a.fade_fraction,
                }
                for a in gateway.values()
            },
        }


def run(
    scenario: ScenarioConfig,
    seed: int | None = None,
    schedules: dict[int, Schedule] | None = None,
) -> RunResult:
    """Run one scenario to completion; identical inputs give identical outputs."""
    return Simulator(scenario, seed=seed, schedules=schedules).run()


def write_metrics_csv(metrics: list[MetricsRecord], path: str | Path):
    lines = [",".join(METRICS_COLUMNS)]
    for m in metrics:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in m))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path: str | Path):
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
