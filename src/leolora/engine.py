"""The discrete-event loop: packets, slot ticks and orbit flushes, node by node.

Metrics are a pure function of (scenario, seed).  Heap entries are flat
tuples (time, rank, sequence, kind, payload), popped in that order.  The
rank breaks an exact time tie: slot ticks (0) run first, then every other
event (1).  Within a rank, sequence numbers, assigned at scheduling time,
resolve simultaneous events first-scheduled-first.  A packet's attempt
ends take theirs when the packet is launched, even though each is pushed
only once the attempt before it has failed, and an attempt nobody can
hear is never pushed (`_announce` skips it).

Each node's slot grid, energy timeline and next real slot tick are its
`energy.NodeLedger`'s; the engine decides only when to settle, and
speaks to the ledger in times.  A packet arriving in a slot is created
at the next tick, where the MAC decides it; no event is pushed before now
or past the end.  A real tick closes the orbits whose sunrise lies before
it, then settles the rest of that gap and its own slot in one
`energy.energy_step` walk, which returns whether its own slot browned
out, for the tick to act on; it then pushes the next real tick.

The fleet reports on one clock: one report event per report time settles
and reports every node in id order, then pushes the next.

Whatever reads or resets the energy state (window open, report, end of
run) first settles the node up to now: it closes every orbit whose
sunrise is at or before now, then settles every slot whose tick is.  So
an event at exactly T_k sees slot k-1 settled, whether tick k is a real
event (it ran first) or not, and a report at a sunrise sees the orbit
that sunrise closed.  Closing an orbit settles exactly the slots whose
tick is at or before its sunrise, then ages the pack by that orbit.  A
fade clamp there lowers the guard, but not below the pending tick, which
is at most the sunrise's.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import json
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .airtime import time_on_air
from .battery import BatteryState, step_battery_per_orbit
from .config import ScenarioConfig, load_schedule_override
from .energy import NodeEnergyState, NodeLedger, SlotLaw, ewma_update
from .exceptions import ContractError
from .mac import (
    Backoff,
    DropReason,
    collides,
    phase_dif,
    reserve_holds,
    run_transmission_sequence,
    select_forecast_window,
)
from .orbit import (
    ECLIPSE,
    ForecastWindow,
    OrbitConfig,
    Schedule,
    build_schedule,
    phase_at,
    phase_edges,
)
from .report import NodeBatteryReport, gateway_compute_fleet_degradation

# A naive sender keeps retrying over at most this span before giving up.
MAX_NAIVE_SPAN_S = 1800.0

# Poisson inter-arrival gaps fetched per `Generator.exponential` call.
_GAPS_PER_DRAW = 64


class EventKind(enum.Enum):
    """What a heap entry (time, rank, sequence, kind, payload) asks the loop to do."""

    WINDOW_OPEN = "window_open"
    TX_ATTEMPT_END = "tx_attempt_end"
    SLOT_TICK = "slot_tick"
    REPORT_DUE = "report_due"


# A node's packet counts, keyed as in the summary: how packets end, and how many began.
DROP_OUTCOMES = ("dropped_energy", "dropped_collision_exhausted", "dropped_no_window")
END_OUTCOMES = ("delivered",) + DROP_OUTCOMES
PACKET_OUTCOMES = ("generated",) + END_OUTCOMES

# heap ranks: at an exact time tie slot ticks run first, then the rest
_TICK, _OTHER = 0, 1

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


@dataclass(eq=False, slots=True)   # one packet is equal only to itself: snapshots compare packets
class _Packet:
    created: float
    # how it ended, its `END_OUTCOMES` key (`Simulator._finish`); None while it lives
    outcome: str | None = None
    reserved_j: float = 0.0
    # the drawn sequence, (start, receiver, end-event sequence number) per
    # attempt; a receiver of None means nobody can hear that attempt
    attempts: list[tuple[float, str | None, int]] = field(default_factory=list)
    # the snapshot of its latest window open, if that open's first draw missed
    # (`Simulator._skip_repeated_rounds`)
    missed: tuple | None = None


@dataclass
class _Node:
    node_id: int
    schedule: Schedule
    battery: BatteryState
    backoff: Backoff
    ledger: NodeLedger       # phi, the totals, the bookings, the slot grid and the settled slots
    arrivals: Iterator[float]  # the arrival times after next_arrival, drawn as they are reached
    next_arrival: float        # the next arrival not yet drained; inf when none is left
    sunrise: float             # the next sunrise, where an orbit closes; inf past the run
    busy_until: float = 0.0
    in_flight: _Packet | None = None
    packets: Counter[str] = field(default_factory=Counter)  # PACKET_OUTCOMES


@dataclass
class RunResult:
    metrics: list[MetricsRecord]
    summary: dict
    nodes: list[_Node]


class Simulator:
    """One deterministic run of a validated scenario.

    `schedules` holds each node's forecast windows by node id (a node left
    out has none); when omitted they come from `build_schedules`.  The
    per-event code spells `max` and `min` as the comparisons the builtins
    make, which pick the same value without their call cost.
    """

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
        battery = scenario.battery
        self.dif = phase_dif(self.harvest, self.profile, battery.params, battery.base_stress,
                             battery.capacity_rated_j, scenario.mac.dif_ref)
        law = SlotLaw.of(self.slot_s, self.harvest, self.profile)

        self._heap: list[tuple[float, int, int, EventKind, tuple]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.period_start = 0.0   # the fleet's reporting period began here
        self.metrics: list[MetricsRecord] = []
        self.reports: list[NodeBatteryReport] = []
        # (attempts record, packet) of each heard attempt that may overlap one to come
        self._on_air: list[tuple[tuple, _Packet]] = []

        n = scenario.sim.node_count
        ss = np.random.SeedSequence([self.seed])
        children = ss.spawn(2 * n + 1)
        offset_rng = np.random.default_rng(children[-1])

        if schedules is None:
            schedules = build_schedules(scenario)

        self.nodes: list[_Node] = []
        for u in range(n):
            orbit = scenario.node_orbit(u)
            # a node whose first slot would start past the run end has no slot
            # either way; starting its grid at the end keeps `account_end` in the run
            slot_offset = min(float(offset_rng.uniform(0.0, self.slot_s)), self.t_end)
            ledger = NodeLedger.of(
                NodeEnergyState(
                    phi_j=scenario.steady_state_phi_j(orbit),
                    phi_max_j=scenario.phi_max_j(),
                    phi_min_j=scenario.energy.psi_min_j,
                    e_critical_j=scenario.energy.e_critical_j,
                    ewma_estimate_j=scenario.energy.ewma_initial_j,
                ),
                law, orbit, slot_offset, self.t_end,
            )
            arrivals = self._generate_arrivals(np.random.default_rng(children[2 * u]),
                                               ledger.account_end)
            node = _Node(
                node_id=u,
                schedule=schedules.get(u, Schedule()),
                battery=BatteryState(),
                backoff=Backoff(np.random.default_rng(children[2 * u + 1])),
                ledger=ledger,
                arrivals=arrivals,
                next_arrival=next(arrivals, math.inf),
                sunrise=self._next_sunrise(orbit, 0.0),
            )
            self.nodes.append(node)
            self._schedule_wake(node)
        if n and scenario.sim.report_interval_s < self.t_end:
            self._push(scenario.sim.report_interval_s, EventKind.REPORT_DUE, ())

    # ── plumbing ─────────────────────────────────────────────────────────

    def _push(self, time: float, kind: EventKind, payload: tuple):
        """Push any event but a slot tick (`_schedule_wake`) or an attempt end (`_announce`)."""
        if time < self.now:
            raise ContractError(f"event {kind} scheduled at {time} before now {self.now}")
        heapq.heappush(self._heap, (time, _OTHER, next(self._seq), kind, payload))

    def _generate_arrivals(self, rng: np.random.Generator, horizon: float) -> Iterator[float]:
        """Arrival times before `horizon`, drawn from the node's own traffic stream as read.

        Poisson gaps come `_GAPS_PER_DRAW` at a time, the floats of as many
        scalar draws; nothing reads the stream's draws past the horizon.
        The stream is the node's alone, so when its draws are made does not
        change them.
        """
        model = self.sc.sim.traffic_model
        rate = self.sc.sim.traffic_rate_per_s
        if model == "none" or rate <= 0.0 or horizon <= 0.0:
            return
        if model == "poisson":
            t = 0.0
            while True:
                for gap in rng.exponential(1.0 / rate, _GAPS_PER_DRAW).tolist():
                    t += gap
                    if t >= horizon:
                        return
                    yield t
        step = 1.0 / rate   # periodic
        t = float(rng.uniform(0.0, step))
        while t < horizon:
            yield t
            t += step

    def _next_sunrise(self, orbit: OrbitConfig, after: float) -> float:
        """The first sunrise of this orbit profile after `after`, or inf past the run."""
        sunrise = phase_edges(orbit, after)[1]
        return sunrise if sunrise <= self.t_end else math.inf

    # ── main loop ────────────────────────────────────────────────────────

    def run(self) -> RunResult:
        # kinds are told apart by identity: hashing an enum member is a Python call
        heap, pop = self._heap, heapq.heappop
        tick, attempt_end, window_open = (EventKind.SLOT_TICK, EventKind.TX_ATTEMPT_END,
                                          EventKind.WINDOW_OPEN)
        while heap:
            time, _, _, kind, payload = pop(heap)
            self.now = time
            if kind is tick:
                self._on_slot_tick(time, payload)
            elif kind is attempt_end:
                self._on_attempt_end(time, payload)
            elif kind is window_open:
                self._on_window_open(time, payload)
            else:
                self._on_report_due(time, payload)
        self.now = self.t_end
        self._finalize()
        return RunResult(metrics=self.metrics, summary=self._summary(), nodes=self.nodes)

    # ── traffic and MAC decisions ────────────────────────────────────────

    def _drain_arrivals(self, node: _Node, until: float) -> list[_Packet]:
        """Create a packet for every arrival not yet drained, up to `until`."""
        packets = []
        t = node.next_arrival
        while t <= until:
            packets.append(_Packet(created=t))
            t = next(node.arrivals, math.inf)
        node.next_arrival = t
        node.packets["generated"] += len(packets)
        return packets

    def _decide(self, node: _Node, packet: _Packet, now: float):
        """Send a waiting packet through the node's MAC, at now or once its last sequence ends."""
        if node.busy_until > now:   # max(now, busy_until)
            now = node.busy_until
        if self.naive:
            self._decide_naive(node, packet, now)
            return
        result = select_forecast_window(
            node.schedule.candidates(now, packet.created + self.sc.mac.deadline_s,
                                     node.ledger.account_end),
            node.ledger.energy,
            self.harvest,
            self.profile,
            self.sc.mac,
            self.dif,
            now=now,
            slot_s=self.slot_s,
            min_attempt_s=self.toa,
        )
        decision = result.decision
        if not decision.is_transmit:
            self._finish(node, packet, _DROP_OUTCOME[decision.reason])
            return
        window = decision.window
        packet.reserved_j = node.ledger.energy.ewma_estimate_j
        node.ledger.energy.reserved_j += packet.reserved_j
        self._push(max(window.start, now), EventKind.WINDOW_OPEN, (node.node_id, packet, window))

    def _decide_naive(self, node: _Node, packet: _Packet, start: float):
        """Immediate-ALOHA baseline: send as generated, no energy checks, no draw if none fits."""
        end = min(start + MAX_NAIVE_SPAN_S, node.ledger.account_end)
        starts: list[float] = []
        if end - start >= self.toa:
            starts = run_transmission_sequence(start, end, self.toa, self.sc.mac, node.backoff)
        if not starts:
            self._finish(node, packet, "dropped_no_window")
            return
        self._launch(node, packet, phase_at(node.ledger.orbit, starts[0]),
                     self._visible_targets(node, starts))

    def _visible_targets(self, node: _Node,
                         starts: list[float]) -> list[tuple[float, str | None]]:
        """Each attempt with the target of the latest-starting window covering it whole.

        One scan covers the packet: a window that covers an attempt is still
        open at the first one, so the candidates of the first attempt through
        the last hold every window that covers one.
        """
        toa = self.toa
        windows = node.schedule.candidates(starts[0], math.nextafter(starts[-1], math.inf))
        out = []
        for t in starts:
            target = None
            for w in windows:
                if w.start > t:
                    break
                if t + toa <= w.end:
                    target = w.target
            out.append((t, target))
        return out

    def _launch(self, node: _Node, packet: _Packet, tx_phase: str,
                attempts: list[tuple[float, str | None]]):
        """Put a packet on air; its drawn attempts go out one at a time.

        The slot of the first attempt is booked as a transmit in `tx_phase`.
        """
        # each attempt's end takes its sequence number now, so it orders
        # among simultaneous events as if it had been scheduled at launch
        seq = self._seq
        packet.attempts = attempts = [(t, receiver, next(seq)) for t, receiver in attempts]
        node.in_flight = packet
        node.ledger.book(attempts[0][0], tx_phase)
        node.busy_until = attempts[-1][0] + self.toa
        self._announce(node, packet, 0)

    def _announce(self, node: _Node, packet: _Packet, k: int):
        """List attempt k, or the first heard one after it, and push its end.

        An attempt nobody can hear is skipped: its end would only announce
        the next, so the first heard attempt from k on, or else the packet's
        last, is announced in its place, with its own end time and launch
        sequence number.  Listing an attempt before it starts is safe:
        nothing that settles before it starts can overlap it.
        """
        attempts = packet.attempts
        last = len(attempts) - 1
        while k < last and attempts[k][1] is None:
            k += 1
        record = attempts[k]
        start, receiver, seq = record
        if receiver is not None:
            self._on_air.append((record, packet))
        heapq.heappush(self._heap, (start + self.toa, _OTHER, seq, EventKind.TX_ATTEMPT_END,
                                    (node.node_id, packet, k)))

    # ── event handlers ───────────────────────────────────────────────────

    def _on_window_open(self, now: float, payload: tuple):
        node_id, packet, window = payload
        node = self.nodes[node_id]
        self._settle_before_now(node)
        start = window.start   # max(window.start, now, node.busy_until)
        if now > start:
            start = now
        if node.busy_until > start:
            start = node.busy_until

        # The reserve is re-checked as the window opens, as a re-decision would
        # see it; sun-window estimates were projections and stand as decided.
        ok = window.phase != ECLIPSE or reserve_holds(node.ledger.energy, packet.reserved_j)

        starts: list[float] = []
        missed = None
        if ok and start + self.toa <= window.end:
            starts = run_transmission_sequence(start, window.end, self.toa, self.sc.mac,
                                               node.backoff)
            if not starts:
                missed = self._skip_repeated_rounds(node, packet, window)
        if not starts:
            packet.missed = missed
            self._release(node, packet)
            self._decide(node, packet, now)
            return
        self._launch(node, packet, window.phase, [(t, window.target) for t in starts])

    def _skip_repeated_rounds(self, node: _Node, packet: _Packet,
                              window: ForecastWindow) -> tuple:
        """Skip the rounds of missed first draws that must repeat; return the packet's snapshot.

        A first draw that misses consumes one double, and the re-decision
        after it releases and re-reserves the packet's energy and may push
        the same window at the same instant.  The snapshot holds what that
        depends on: now, the window, the packet's reservation (released as
        taken, perhaps before the EWMA last moved), the node's energy and
        `busy_until` (with now and the window, they fix the attempt start),
        and, once those repeat, the (packet, window, reservation) of every
        event waiting at now.  When it equals the packet's snapshot at its
        previous miss and every waiting event is a window open of this node
        whose packet missed at now on that same window, the round (those
        packets in heap order, then this one) starts from the state the last
        one did, so it runs the same until a draw hits.  The whole rounds
        before that hit are consumed in one scan, and at most P - 1 redo
        events follow.
        """
        now, energy = self.now, node.ledger.energy
        state = (now, window, packet.reserved_j, energy.phi_j, energy.reserved_j,
                 energy.ewma_estimate_j, energy.phi_max_j, node.busy_until)
        previous = packet.missed
        if previous is None or previous[0] != state:
            return state, None
        # every other heap entry is later than now, so these are the events at now in pop order
        at_now = sorted(e for e in self._heap if e[0] == now)
        if any(kind is not EventKind.WINDOW_OPEN or payload[0] != node.node_id
               for _, _, _, kind, payload in at_now):
            return state, None
        waiting = tuple((q, w, q.reserved_j) for _, _, _, _, (_, q, w) in at_now)
        if waiting == previous[1] and all(
                q.missed is not None and q.missed[0][:2] == (now, w) for q, w, _ in waiting):
            windows = [w for _, w, _ in waiting] + [window]
            rounds = [(max(w.start, now, node.busy_until), w.end) for w in windows]
            node.backoff.skip_missed_rounds(rounds, self.toa, self.sc.mac.backoff_base_s)
        return state, waiting

    def _on_attempt_end(self, now: float, payload: tuple):
        """Settle one attempt: delivered, retried with the next one, or dropped.

        An attempt nobody can hear (receiver None, only ever a packet's
        last) never gets through; one that can gets through iff it
        `collides` with no listed attempt of another packet.  Every attempt
        that could overlap this one started before now and is listed;
        entries that ended an airtime before the earliest start still
        pending overlap nothing to come.
        """
        node_id, packet, k = payload
        if packet.outcome is not None:   # a brownout dropped it in flight
            return
        node = self.nodes[node_id]
        record = packet.attempts[k]
        got_through = False
        if record[1] is not None:
            toa = self.toa
            horizon = now - 2 * toa
            self._on_air = [e for e in self._on_air if e[0][0] + toa > horizon]
            for a, other in self._on_air:
                if other is not packet and collides(record, a, toa):
                    break
            else:
                got_through = True
        if not got_through and k + 1 < len(packet.attempts):
            self._announce(node, packet, k + 1)
            return
        heard = record[1] is not None or any(r is not None for _, r, _ in packet.attempts)
        self._finish(node, packet, "delivered" if got_through
                     else "dropped_collision_exhausted" if heard else "dropped_no_window")
        node.ledger.totals.period_txs += 1
        node.in_flight = None
        node.ledger.energy.ewma_estimate_j = ewma_update(
            self.sc.mac.beta, self.profile.e_cons_tx_j, node.ledger.energy.ewma_estimate_j
        )

    def _release(self, node: _Node, packet: _Packet):
        if packet.reserved_j:
            left = node.ledger.energy.reserved_j - packet.reserved_j
            node.ledger.energy.reserved_j = left if left > 0.0 else 0.0   # max(0.0, left)
            packet.reserved_j = 0.0

    def _finish(self, node: _Node, packet: _Packet, outcome: str):
        """End a packet: release its reservation and count it under one of `END_OUTCOMES`."""
        self._release(node, packet)
        packet.outcome = outcome
        node.packets[outcome] += 1

    # ── slot ticks and lazy settling ─────────────────────────────────────

    def _on_slot_tick(self, now: float, payload: tuple):
        node_id, k = payload
        node = self.nodes[node_id]
        # a sunrise at exactly this tick closes after the tick's decisions
        while node.sunrise < now:
            self._close_orbit(node)
        # one walk settles the gap and this tick's own slot
        if node.ledger.settle_to(k, True):
            if node.in_flight is not None:
                victim = node.in_flight
                node.ledger.unbook(victim.attempts[0][0])
                # an attempt already on air still collides; one yet to start never happens
                self._on_air = [(a, p) for a, p in self._on_air
                                if p is not victim or a[0] <= now]
                self._finish(node, victim, "dropped_energy")
                node.in_flight = None
                node.busy_until = now
        # a brownout tick leaves its arrivals to the guard tick right after it
        elif node.next_arrival <= now:   # now is slot_time(k), the end of the tick's slot
            for packet in self._drain_arrivals(node, now):
                self._decide(node, packet, now)
        self._schedule_wake(node)

    def _schedule_wake(self, node: _Node):
        """Push the node's next slot tick, the ledger's `next_tick`, unless it has none left."""
        k = node.ledger.next_tick(node.next_arrival, node.sunrise)
        if k is not None:
            heapq.heappush(self._heap, (node.ledger.slot_time(k), _TICK, next(self._seq),
                                        EventKind.SLOT_TICK, (node.node_id, k)))

    def _settle_before_now(self, node: _Node):
        """Close the orbits whose sunrise is at or before now; settle the slots whose tick is.

        Only other events and the end of the run call this, and ticks run
        first at a tie, so the pending tick is later than now and every
        such slot lies below it.  The guard keeps a brownout out of these
        slots, and so also the slot after a brownout: that one always has
        its own tick.
        """
        while node.sunrise <= self.now:
            self._close_orbit(node)
        node.ledger.settle_through(self.now)

    def _close_orbit(self, node: _Node):
        """Close the orbit ending at the next sunrise, on the slots with a tick at or before it."""
        node.ledger.settle_through(node.sunrise)
        self._flush_orbit(node)
        node.sunrise = self._next_sunrise(node.ledger.orbit, node.sunrise)

    def _flush_orbit(self, node: _Node):
        totals = node.ledger.totals
        if totals.orbit_s <= 0.0:
            return
        dod = step_battery_per_orbit(node.battery, self.sc.battery, totals.orbit_s,
                                     totals.orbit_discharge_j)
        if totals.orbit_discharge_j > 0.0:
            totals.period_dods.append(dod)
        totals.orbit_s = totals.orbit_discharge_j = 0.0
        node.ledger.refit(self.sc.phi_max_j(node.battery.fade_fraction))

    def _on_report_due(self, now: float, payload: tuple):
        """Every node reports, in id order, on the fleet's one report clock."""
        for node in self.nodes:
            # settling closes a sunrise at this instant, so its orbit rides this report
            self._settle_before_now(node)
            self._emit_report(node, now)
        self.period_start = now
        nxt = now + self.sc.sim.report_interval_s
        if nxt < self.t_end:
            self._push(nxt, EventKind.REPORT_DUE, ())

    def _emit_report(self, node: _Node, t: float):
        thermal = self.sc.battery.thermal
        totals = node.ledger.totals
        self.reports.append(NodeBatteryReport(
            node.node_id, self.period_start, t, *totals.close_period(),
            mean_temperature_sun_k=thermal.t_sun_k,
            mean_temperature_eclipse_k=thermal.t_eclipse_k,
        ))
        self.metrics.append(MetricsRecord(
            t, node.node_id, node.ledger.energy.soc, node.battery.fade_fraction,
            node.battery.d_linear, *(node.packets[key] for key in END_OUTCOMES),
            totals.harvested_j, totals.consumed_j,
        ))

    def _finalize(self):
        for node in self.nodes:
            self._settle_before_now(node)
            self._flush_orbit(node)
            for packet in self._drain_arrivals(node, self.t_end):
                self._finish(node, packet, "dropped_no_window")
            self._emit_report(node, self.t_end)

    def _summary(self) -> dict:
        per_node = {}
        totals = {key: sum(node.packets[key] for node in self.nodes) for key in PACKET_OUTCOMES}
        for node in self.nodes:
            per_node[str(node.node_id)] = {
                "soc": node.ledger.energy.soc,
                "fade_fraction": node.battery.fade_fraction,
                "d_linear": node.battery.d_linear,
                "dc_cal": node.battery.dc_cal,
                "dc_cycle": node.battery.dc_cycle,
                "cycles_completed": node.battery.cycles_completed,
                "calendar_days": node.battery.calendar_days,
                **{key: node.packets[key] for key in END_OUTCOMES},
                "energy_harvested_j": node.ledger.totals.harvested_j,
                "energy_consumed_j": node.ledger.totals.consumed_j,
                "brownouts": node.ledger.totals.brownouts,
                "clamp_events": node.ledger.totals.clamp_count,
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
                str(node_id): {
                    "dc_cal": a.dc_cal,
                    "dc_cycle": a.dc_cycle,
                    "d_linear": a.d_linear,
                    "fade_fraction": a.fade_fraction,
                }
                for node_id, a in gateway.items()
            },
        }


def build_schedules(scenario: ScenarioConfig, horizon: float | None = None,
                    step: float | None = None) -> dict[int, Schedule]:
    """Every node's forecast windows, keyed by node id; they do not depend on the seed.

    The schedule-override file's windows if the scenario names one, else
    the windows built from the ground stations over [0, horizon] on the
    `step` grid (by default the run's duration and `schedule_step_s`), else
    none.
    """
    nodes = range(scenario.sim.node_count)
    if scenario.sim.schedule_override_path:
        override = load_schedule_override(scenario.sim.schedule_override_path)
        return {u: override.get(u, Schedule()) for u in nodes}
    if not scenario.stations:
        return {u: Schedule() for u in nodes}
    return {
        u: build_schedule(scenario.node_orbit(u), list(scenario.stations),
                          horizon=scenario.sim.duration_s if horizon is None else horizon,
                          step=scenario.sim.schedule_step_s if step is None else step)
        for u in nodes
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
        lines.append(",".join(map(str, m)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path: str | Path):
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
