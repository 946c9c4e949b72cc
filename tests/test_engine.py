"""Full engine runs: accounting, collisions, fades and determinism."""

import bisect
import copy
import dataclasses
import heapq
import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leolora import energy as energy_module
from leolora import engine
from leolora.airtime import time_on_air
from leolora.energy import SLOTS_PER_BLOCK, SlotLaw, SlotTotals
from leolora.engine import Simulator, run
from leolora.exceptions import ContractError
from leolora.orbit import (
    ECLIPSE,
    MAX_WINDOW_S,
    SUN,
    ForecastWindow,
    Schedule,
    phase_edges,
    sun_seconds,
)

from conftest import make_scenario, table_bits, time_limit
from oracles import (
    oracle_calendar,
    oracle_next_tick,
    oracle_poisson_arrivals,
    oracle_resolve_collisions,
    oracle_sei,
    oracle_visible_target,
)
from test_golden import (
    CASES as GOLDEN_CASES,
    STEADY_CASE as STEADY,
    TIE_CASE,
    _shared_windows,
    _tick_aligned_windows,
)


class TestFullRuns:
    def test_a_node_with_no_slot_draws_no_arrival_past_the_run_end(self, default_dict):
        # a slot longer than the run: a node's first slot may start past its end
        for slot_s in (1e9, 1e306):
            sc = make_scenario(default_dict, **{"sim.node_count": 2, "sim.duration_days": 0.01,
                                                "sim.slot_s": slot_s})
            for node in Simulator(sc).nodes:
                assert node.ledger.n_slots == 0 and node.ledger.account_end <= sc.sim.duration_s
                # next_arrival is inf only when the node draws no arrival at all
                arrivals = [node.next_arrival, *node.arrivals]
                assert all(t < sc.sim.duration_s for t in arrivals if t < math.inf)
            with time_limit(20):
                result = run(sc)
            # every arrival is drained by the run's end
            assert all(node.next_arrival == math.inf for node in result.nodes)
            packets = result.summary["packets"]
            # every arrival in the run is counted, and none is decided
            assert packets["generated"] == packets["dropped_no_window"] > 0

    def test_zero_node_scenario_exits_cleanly(self, default_dict):
        sc = make_scenario(default_dict, **{"sim.node_count": 0})
        result = run(sc)
        assert result.metrics == []
        assert result.summary["packets"]["generated"] == 0

    def test_packet_accounting_identity(self, default_dict):
        sc = make_scenario(default_dict, **{"sim.duration_days": 0.5})
        result = run(sc)
        p = result.summary["packets"]
        assert p["generated"] == (p["delivered"] + p["dropped_energy"]
                                  + p["dropped_collision_exhausted"]
                                  + p["dropped_no_window"])

    def test_quiet_run_fade_equals_pure_calendar(self, default_dict, default_scenario):
        # no traffic and no idle draw: the pack never discharges, so the
        # fade at the horizon is the closed-form calendar path alone
        sc = make_scenario(
            default_dict,
            **{
                "sim.traffic_model": "none",
                "sim.duration_days": 1.0,
                "sim.node_count": 1,
                "energy.e_sleep_j": 0.0,
                "energy.e_g_sun_j_per_slot": 0.0,
            },
        )
        result = run(sc)
        node = result.nodes[0]
        params = default_scenario.battery.params
        days = node.battery.calendar_days
        expected = oracle_sei(
            params.alpha_sei, params.k_sei,
            oracle_calendar(params.k1, params.ea_j_per_mol, 303.0, 0.825, params.b, days),
        )
        assert node.battery.cycles_completed == 0.0
        assert node.battery.fade_fraction == pytest.approx(expected, rel=1e-9)

    def test_runs_of_different_slot_lengths_each_use_their_own_term_table(self, default_dict,
                                                                          energy_spy):
        # a quiet 40 s slot adds nothing, a default 30 s one harvests and
        # draws: each run's table holds its own slot length's terms, a run
        # after the other reads as one alone, and the spy checks every
        # settled slot against the slot-law oracle
        quiet = make_scenario(default_dict, **{"sim.traffic_model": "none",
                                               "sim.duration_days": 0.5,
                                               "sim.node_count": 1,
                                               "energy.e_sleep_j": 0.0,
                                               "energy.e_g_sun_j_per_slot": 0.0})
        other = make_scenario(default_dict, **{"sim.duration_days": 0.25, "sim.node_count": 1,
                                               "sim.slot_s": 30.0})
        alone = run(quiet)
        between = run(other)
        after = run(quiet)
        assert after.metrics == alone.metrics
        assert after.summary == alone.summary
        for result, sc in ((alone, quiet), (between, other), (after, quiet)):
            node = result.nodes[0]
            table = node.ledger.law.table
            assert {s for _, s in table} == {0.0, sc.sim.slot_s}
            want = SlotLaw.of(sc.sim.slot_s, sc.energy.harvest, sc.energy.profile).table
            assert table_bits(table) == table_bits(want)
            rows = energy_spy(node)
            assert len(rows) == node.ledger.n_slots
            assert all(slot_s == sc.sim.slot_s for _, _, slot_s, _ in rows)
        assert alone.nodes[0].ledger.law.table is not after.nodes[0].ledger.law.table
        assert alone.nodes[0].ledger.law is not after.nodes[0].ledger.law

    @pytest.mark.parametrize("case", list(GOLDEN_CASES))
    def test_no_event_is_popped_past_the_end(self, case, tmp_path, default_dict, monkeypatch):
        overrides = dict(GOLDEN_CASES[case])
        if case in ("aware_shared_windows", "aware_brownout_shared"):
            overrides["sim.schedule_override_path"] = _shared_windows(
                tmp_path / "override.json", overrides["sim.node_count"],
                overrides["sim.duration_days"])
        popped = []

        def heappop(heap):
            popped.append(heap[0][0])
            return heapq.heappop(heap)

        monkeypatch.setattr(engine, "heapq",
                            SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
        sc = make_scenario(default_dict, **overrides)
        for seed in (1, 2, 3):
            popped.clear()
            sim = Simulator(sc, seed=seed)
            sim.run()
            assert popped and max(popped) <= sim.t_end

    def test_fade_and_counters_monotone_across_metrics(self, default_dict):
        sc = make_scenario(default_dict, **{"sim.duration_days": 1.0})
        result = run(sc)
        by_node = {}
        for m in result.metrics:
            prev = by_node.get(m.node_id)
            if prev is not None:
                assert m.fade_fraction >= prev.fade_fraction
                assert m.packets_delivered >= prev.packets_delivered
                assert m.energy_consumed_j >= prev.energy_consumed_j
            by_node[m.node_id] = m

    def test_harvest_only_in_sun_slots(self, default_dict, energy_spy):
        from leolora.orbit import sun_seconds

        sc = make_scenario(default_dict, **{"sim.duration_days": 0.25,
                                            "sim.node_count": 2})
        result = run(sc)
        for node in result.nodes:
            assert energy_spy(node)
            for k, (_, _, _, slot) in enumerate(energy_spy(node)):
                t0 = node.ledger.slot_offset + k * sc.sim.slot_s
                sunlit = sun_seconds(node.ledger.orbit, t0, t0 + sc.sim.slot_s)
                if slot.harvested_j > 0.0:
                    assert sunlit > 0.0

    def test_brownout_forces_sleep_and_is_logged(self, default_dict, energy_spy):
        sc = make_scenario(
            default_dict,
            **{
                "battery.capacity_rated_ah": 0.02,
                "battery.soc_initial": 1.0,
                "energy.e_g_sun_j_per_slot": 0.0,
                "energy.psi_min_j": 10.0,
                "energy.e_critical_j": 0.0,
                "energy.e_sleep_j": 100.0,
                "sim.duration_days": 0.02,
                "sim.node_count": 1,
                "sim.traffic_model": "none",
            },
        )
        result = run(sc)
        node = result.nodes[0]
        assert node.ledger.totals.brownouts >= 1
        assert node.ledger.totals.brownouts == sum(slot.brownout for *_, slot in energy_spy(node))
        assert node.ledger.totals.clamp_count >= 1
        assert node.ledger.totals.clamp_total_j > 0.0
        assert node.ledger.energy.phi_j == 0.0

    def test_a_batch_that_browns_out_is_a_broken_contract(self, default_dict):
        # the guard keeps brownouts out of batches; a batch that reports one anyway raises
        sim = Simulator(make_scenario(default_dict, **{"sim.node_count": 1,
                                                       "sim.duration_days": 0.1}),
                        schedules={})
        node = sim.nodes[0]
        # the first slot wholly in eclipse
        k = node.ledger.last_tick(phase_edges(node.ledger.orbit, 0.0)[0]) + 1
        node.ledger.settle_to(k, False)
        node.ledger.energy.phi_j = 0.0
        with pytest.raises(ContractError, match="browns out"):
            node.ledger.settle_to(k + 1, False)

    def test_capacity_fade_clamp_is_counted(self, default_dict, energy_spy):
        # a pack that stays full through eclipse: each orbit's fade lowers
        # phi_max below phi, and the flush clamps phi down to it
        sc = make_scenario(
            default_dict,
            **{
                "battery.capacity_rated_ah": 0.5,
                "energy.e_sleep_j": 1e-6,
                "energy.psi_min_j": 0.0,
                "energy.e_critical_j": 0.0,
                "energy.e_g_sun_j_per_slot": 60000.0,
                "energy.charge_rate_limit_j_per_slot": 60000.0,
                "sim.duration_days": 0.25,
                "sim.node_count": 1,
                "sim.traffic_model": "none",
            },
        )
        node = run(sc).nodes[0]
        slot_clamps = [slot.clamp_j for *_, slot in energy_spy(node) if slot.clamp_j]
        assert slot_clamps
        assert node.ledger.totals.clamp_count > len(slot_clamps)
        assert node.ledger.totals.clamp_total_j < sum(slot_clamps)
        assert node.ledger.energy.phi_j <= node.ledger.energy.phi_max_j

    def test_idle_slots_get_no_tick(self, default_dict, monkeypatch):
        # a node gets a slot tick only where it has work; the slots between
        # settle in batches, so ticks are a small share of node-slots
        ticks = []
        real = Simulator._on_slot_tick

        def counted(sim, now, payload):
            ticks.append(payload)
            real(sim, now, payload)

        monkeypatch.setattr(Simulator, "_on_slot_tick", counted)
        result = run(make_scenario(default_dict, **{"sim.duration_days": 1.0}))
        node_slots = sum(node.ledger.n_slots for node in result.nodes)
        assert all(node.ledger.settled == node.ledger.n_slots for node in result.nodes)
        assert 0 < len(ticks) <= 0.15 * node_slots

    def test_a_fade_clamp_never_leaves_the_pending_tick_past_the_guard(
            self, default_dict, monkeypatch, energy_spy):
        # A full pack with no traffic: each sunrise's flush clamps phi to the
        # faded capacity.  With E_cons between phi / 2 after and before one
        # of those clamps, the clamp drops floor(phi / E_cons) from 2 to 1,
        # which moves the brownout guard to the tick right after the
        # settled slots.  A report on every sunrise closes the orbit while
        # the node's next tick is pending, so the flush sees it on the heap.
        overrides = {
            "battery.capacity_rated_ah": 0.5,
            "energy.e_sleep_j": 1e-9,
            "energy.psi_min_j": 0.0,
            "energy.e_critical_j": 0.0,
            "energy.e_g_sun_j_per_slot": 60000.0,
            "energy.charge_rate_limit_j_per_slot": 60000.0,
            "sim.duration_days": 0.5,
            "sim.node_count": 1,
            "sim.traffic_model": "none",
            "sim.report_interval_s": 5400.0,
        }
        flushes = []   # (phi before, phi after, pending tick or None, guard after)
        real = Simulator._flush_orbit

        def watched(sim, node):
            before = node.ledger.energy.phi_j
            real(sim, node)
            flushes.append((before, node.ledger.energy.phi_j, pending_tick(sim, node),
                            node.ledger.guard()))

        monkeypatch.setattr(Simulator, "_flush_orbit", watched)
        # without traffic, phi does not depend on E_cons
        run(make_scenario(default_dict, **overrides, **{"energy.e_cons_tx_j": 1000.0}))
        clamps = [(a, b) for a, b, _, _ in flushes if b < a][:4]
        assert clamps
        lowered = 0
        for a, b in clamps:
            flushes.clear()
            e_cons = (a + b) / 4
            sc = make_scenario(default_dict, **overrides, **{"energy.e_cons_tx_j": e_cons})
            node = run(sc).nodes[-1]
            for phi, new_phi, pending, guard in flushes:
                if pending is not None:
                    assert pending <= guard
                    lowered += new_phi // e_cons < phi // e_cons
            slots = energy_spy(node)
            assert len(slots) == node.ledger.n_slots
            grid = node.ledger
            for k, (_, sun_s, _, _) in enumerate(slots):
                assert sun_s == sun_seconds(grid.orbit, grid.slot_time(k), grid.slot_time(k + 1))
        assert lowered

    @staticmethod
    def shared_override_scenario(tmp_path, default_dict):
        """Two nodes sharing identical override windows at one station."""
        windows = []
        for k in range(16):
            start = k * 5400.0
            for node in (0, 1):
                windows.append({"node": node, "target": "gw", "start_s": start,
                                "end_s": start + 1800.0, "phase": "sun"})
        path = tmp_path / "override.json"
        path.write_text(json.dumps(windows))
        return make_scenario(
            default_dict,
            **{
                "sim.node_count": 2,
                "sim.duration_days": 1.0,
                "sim.traffic_model": "periodic",
                "sim.traffic_rate_per_s": 1.0 / 120.0,
                "sim.schedule_override_path": str(path),
                "energy.psi_min_j": 1000.0,
                "energy.e_critical_j": 0.0,
            },
        )

    def test_engine_outcomes_match_collision_law(self, tmp_path, default_dict, attempt_spy):
        sc = self.shared_override_scenario(tmp_path, default_dict)
        log = attempt_spy(run(sc))
        attempts = [a for a, _ in log]
        outcomes = [ok for _, ok in log]
        assert attempts, "override scenario should produce attempts"
        assert oracle_resolve_collisions(attempts, time_on_air(sc.radio)) == outcomes
        assert any(not ok for ok in outcomes), "expected at least one collision"

    def test_engine_settles_through_collides(self, tmp_path, default_dict, attempt_spy,
                                             monkeypatch):
        # with a law under which everything collides, an attempt gets through
        # iff the engine never had another packet's attempt to ask it about
        asked = []

        def always(a, b, airtime):
            asked.append(a)
            return True

        monkeypatch.setattr(engine, "collides", always)
        log = attempt_spy(run(self.shared_override_scenario(tmp_path, default_dict)))
        asked_about = {id(a) for a in asked}
        assert asked_about
        assert any(ok for _, ok in log)
        for attempt, ok in log:
            assert ok == (id(attempt) not in asked_about)

    def test_schedule_override_drives_transmissions(self, tmp_path, default_dict):
        windows = [{"node": 0, "target": "gw", "start_s": 600.0, "end_s": 1200.0,
                    "phase": "sun"}]
        path = tmp_path / "override.json"
        path.write_text(json.dumps(windows))
        sc = make_scenario(
            default_dict,
            **{
                "sim.node_count": 1,
                "sim.duration_days": 0.05,
                "sim.traffic_model": "periodic",
                "sim.traffic_rate_per_s": 1.0 / 300.0,
                "sim.schedule_override_path": str(path),
            },
        )
        result = run(sc)
        assert result.summary["packets"]["delivered"] >= 1

    def test_naive_receiver_is_latest_starting_covering_window(self, tmp_path, default_dict,
                                                              attempt_spy):
        # both windows cover every attempt; the later-starting one is the receiver
        windows = [
            {"node": 0, "target": "gw-early", "start_s": 0.0, "end_s": 1800.0, "phase": "sun"},
            {"node": 0, "target": "gw-late", "start_s": 10.0, "end_s": 1800.0, "phase": "sun"},
        ]
        path = tmp_path / "override.json"
        path.write_text(json.dumps(windows))
        sc = make_scenario(
            default_dict,
            **{
                "sim.protocol": "naive_aloha",
                "sim.node_count": 1,
                "sim.duration_days": 0.02,
                "sim.traffic_model": "periodic",
                "sim.traffic_rate_per_s": 1.0 / 300.0,
                "sim.schedule_override_path": str(path),
            },
        )
        log = attempt_spy(run(sc))
        assert log
        assert {receiver for (_, receiver, _), _ in log} == {"gw-late"}

    def test_gateway_summary_matches_node_states(self, default_dict):
        sc = make_scenario(default_dict, **{"sim.duration_days": 1.0})
        result = run(sc)
        # engine-side and gateway-side cycle aging agree through the report path
        for node in result.nodes:
            gw = result.summary["gateway_assessment"][str(node.node_id)]
            assert gw["dc_cycle"] == pytest.approx(node.battery.dc_cycle, rel=1e-12)


def _in_flight(packet) -> bool:
    """Launched and not yet ended: a packet waits with no attempts, and ends with an outcome."""
    return packet.outcome is None and bool(packet.attempts)


class TestLifecycleInvariants:
    """What the engine relies on without checking it, over the golden cases and `steady`.

    Every window open finds its packet waiting, every launched packet ends
    delivered or dropped before the run does (so `_finalize` has nothing in
    flight to drop), every report covers a non-empty period, and a node's
    reports cover all its slots: a walk that drew fewer sunlit seconds than
    it has slots would end short without an error.
    """

    RUNS = {**{case: (overrides, (1, 2, 3)) for case, overrides in GOLDEN_CASES.items()},
            "steady": (STEADY, (0, 1, 2, 3))}

    @pytest.mark.parametrize("case", list(RUNS))
    def test_invariants(self, case, tmp_path, default_dict, monkeypatch):
        overrides, seeds = self.RUNS[case]
        overrides = dict(overrides)
        if case in ("aware_shared_windows", "aware_brownout_shared"):
            overrides["sim.schedule_override_path"] = _shared_windows(
                tmp_path / "override.json", overrides["sim.node_count"],
                overrides["sim.duration_days"])
        sc = make_scenario(default_dict, **overrides)

        opens, launched = [], []
        real_open, real_launch = Simulator._on_window_open, Simulator._launch

        def on_window_open(sim, now, payload):
            opens.append((payload[1].outcome, len(payload[1].attempts)))
            real_open(sim, now, payload)

        def launch(sim, node, packet, tx_phase, attempts):
            launched.append(packet)
            real_launch(sim, node, packet, tx_phase, attempts)

        monkeypatch.setattr(Simulator, "_on_window_open", on_window_open)
        monkeypatch.setattr(Simulator, "_launch", launch)
        for seed in seeds:
            sim = Simulator(sc, seed=seed)
            result = sim.run()
            for node in result.nodes:
                assert node.in_flight is None or not _in_flight(node.in_flight)
                assert sum(r.n_slots for r in sim.reports if r.node_id == node.node_id) \
                    == node.ledger.n_slots
            rows = {}
            for m in result.metrics:
                rows.setdefault(m.node_id, []).append(m.time_s)
            for times in rows.values():
                assert 0.0 < times[0] and all(a < b for a, b in zip(times, times[1:]))
        assert opens or "naive" in case
        assert all(state == (None, 0) for state in opens)   # waiting: not ended, no attempts
        assert launched
        assert all(p.outcome in engine.END_OUTCOMES for p in launched)

    def test_a_window_open_at_the_reserve_edge_agrees_with_the_re_decision(self, default_dict):
        # With the packet's reservation given back, this state sits within an
        # ulp of the reserve: phi - reserved + p rounds to exactly phi_min,
        # while phi - max(0, reserved - p) rounds above it.  An open that
        # tested the first after a selection that tested the second chose
        # the same eclipse window forever, at the same instant, drawing nothing.
        window = ForecastWindow("w0", 3400.0, 3900.0, ECLIPSE, "gs-0")
        sim = Simulator(make_scenario(default_dict, **{"sim.node_count": 1}),
                        schedules={0: Schedule((window,))})
        node, p = sim.nodes[0], 8282.546067320636
        node.ledger.energy.phi_j = 227378.72777818277
        node.ledger.energy.reserved_j = 35661.27384550339
        node.ledger.energy.ewma_estimate_j = p
        phi, reserved = node.ledger.energy.phi_j, node.ledger.energy.reserved_j
        assert phi - reserved + p == node.ledger.energy.phi_min_j < phi - max(0.0, reserved - p)
        sim._heap.clear()
        sim.now = window.start
        # nothing left to settle at the open
        node.ledger.settled = node.ledger.last_tick(window.start)
        packet = engine._Packet(created=window.start, reserved_j=p)
        sim._push(window.start, engine.EventKind.WINDOW_OPEN, (0, packet, window))
        opens = 0
        while sim._heap and sim._heap[0][3] is engine.EventKind.WINDOW_OPEN and opens < 100:
            time, _, _, _, payload = heapq.heappop(sim._heap)
            opens += 1
            sim._on_window_open(time, payload)
        assert opens <= 2
        assert _in_flight(packet)


class TestRedrawCollapse:
    """Window opens whose first backoff misses, in rounds that repeat, are skipped whole.

    On `steady`, seed 1633 once re-decided the same packets at one instant
    without end, and seed 0 made 55 window opens a packet.
    """

    def test_a_seed_that_livelocked_runs_to_the_end(self, default_dict):
        with time_limit(60):
            summary = run(make_scenario(default_dict, **STEADY), seed=1633).summary
        packets = summary["packets"]
        assert packets["generated"] == summary["packets_terminal"] == sum(
            packets[key] for key in engine.END_OUTCOMES) > 0

    def test_window_opens_stay_near_one_a_packet(self, default_dict, monkeypatch):
        opens = 0
        real = Simulator._on_window_open

        def on_window_open(sim, now, payload):
            nonlocal opens
            opens += 1
            real(sim, now, payload)

        monkeypatch.setattr(Simulator, "_on_window_open", on_window_open)
        with time_limit(60):
            summary = run(make_scenario(default_dict, **STEADY), seed=0).summary
        assert 0 < opens <= 1.3 * summary["packets_terminal"]

    @pytest.mark.parametrize("waiting", ["nothing", "another_node", "report"])
    def test_a_round_with_another_event_waiting_is_not_skipped(self, waiting, default_dict,
                                                               monkeypatch):
        # the same packet misses on the same window at the same instant, three times over
        skips = []
        monkeypatch.setattr(engine.Backoff, "skip_missed_rounds",
                            lambda backoff, rounds, toa, high: skips.append(rounds) or 0)
        sim = Simulator(make_scenario(default_dict, **STEADY), seed=1, schedules={})
        sim.now, node = 100.0, sim.nodes[0]
        window = ForecastWindow("gw:0", 100.0, 700.0, SUN, "gw")
        packet, other = engine._Packet(created=0.0), engine._Packet(created=0.0)
        other.missed = ((sim.now, window), None)   # as if it missed there too
        sim._heap = {
            "nothing": [],
            "another_node": [(sim.now, engine._OTHER, 0, engine.EventKind.WINDOW_OPEN,
                              (1, other, window))],
            "report": [(sim.now, engine._OTHER, 0, engine.EventKind.REPORT_DUE, ())],
        }[waiting]
        for _ in range(3):
            packet.missed = sim._skip_repeated_rounds(node, packet, window)
        if waiting == "nothing":
            # the first miss is a snapshot, the second its round; the third repeats it
            assert packet.missed[1] == () and skips == [[(100.0, 700.0)]]
        else:
            assert packet.missed[1] is None and skips == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_skipping_rounds_changes_no_output(self, seed, tmp_path, default_dict, monkeypatch):
        sc = make_scenario(default_dict, **{**STEADY, "sim.duration_days": 1.0})
        skipped = []
        real = engine.Backoff.skip_missed_rounds

        def skip_missed_rounds(backoff, *args):
            skipped.append(real(backoff, *args))
            return skipped[-1]

        outputs = []
        for stub in (skip_missed_rounds, lambda backoff, *args: 0):   # the second never skips
            monkeypatch.setattr(engine.Backoff, "skip_missed_rounds", stub)
            result = run(sc, seed=seed)
            engine.write_metrics_csv(result.metrics, tmp_path / "metrics.csv")
            engine.write_summary_json(result.summary, tmp_path / "summary.json")
            outputs.append((tmp_path / "metrics.csv").read_bytes()
                           + (tmp_path / "summary.json").read_bytes())
        assert sum(skipped) > 0   # the run with the collapse skipped some rounds
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def grid_sims(default_dict):
    """One single-node simulator per slot length, for queries on its node's grid."""
    return {slot_s: Simulator(make_scenario(default_dict, **{"sim.node_count": 1,
                                                              "sim.slot_s": slot_s,
                                                              "sim.duration_days": 0.01}),
                              schedules={})
            for slot_s in (40.0, 33.3, 7.3)}


class TestSlotGrid:
    """`NodeLedger.last_tick` places a time on the node's slot grid by exact comparisons."""

    @given(slot_s=st.sampled_from([40.0, 33.3, 7.3]),
           offset=st.floats(0.0, 1.0, exclude_max=True),
           k0=st.integers(1, 200_000),
           frac=st.floats(0.0, 1.0, exclude_max=True))
    def test_last_tick_brackets_the_time(self, grid_sims, slot_s, offset, k0, frac):
        # times on a tick, one ulp either side of one, and inside the slot
        # after it, for a run of ticks: the rounded quotient misplaces a few
        # percent of tick-adjacent times on the 33.3 and 7.3 s grids
        ledger = dataclasses.replace(grid_sims[slot_s].nodes[0].ledger,
                                     slot_offset=offset * slot_s, settled=0)
        for k in range(k0, k0 + 256):
            t_k = ledger.slot_time(k)
            for t in (math.nextafter(t_k, -math.inf), t_k, math.nextafter(t_k, math.inf),
                      t_k + frac * slot_s):
                m = ledger.last_tick(t)
                assert ledger.slot_time(m) <= t < ledger.slot_time(m + 1)
                # the tick draining an arrival at t is the first at or after it
                first = ledger._first_tick(t)
                assert ledger.slot_time(first - 1) < t <= ledger.slot_time(first)

    @given(slot_s=st.sampled_from([40.0, 33.3, 7.3]),
           offset=st.floats(0.0, 1.0, exclude_max=True),
           k=st.integers(1, 200_000),
           side=st.sampled_from([-math.inf, None, math.inf]))
    def test_the_calls_that_take_a_time_act_on_the_slot_last_tick_names(
            self, grid_sims, slot_s, offset, k, side):
        # a time on tick k or one ulp either side of it: a launch at exactly
        # T_k books slot k, one an ulp earlier slot k - 1
        grid = dataclasses.replace(grid_sims[slot_s].nodes[0].ledger,
                                   slot_offset=offset * slot_s, n_slots=k + 2, settled=0)
        t_k = grid.slot_time(k)
        times = [math.nextafter(t_k, -math.inf), t_k, math.nextafter(t_k, math.inf)]
        t = t_k if side is None else math.nextafter(t_k, side)
        m = grid.last_tick(t)
        assert m == (k - 1 if t < t_k else k)

        def fresh(settled=0):
            return dataclasses.replace(grid, energy=copy.copy(grid.energy), totals=SlotTotals(),
                                       tx={}, settled=settled, block=[])

        booked = fresh()
        booked.book(t, SUN)
        assert booked.tx == {m: SUN}
        for u in times:
            ledger = fresh()
            ledger.book(t, ECLIPSE)
            ledger.unbook(u)
            assert ledger.tx == ({} if grid.last_tick(u) == m else {m: ECLIPSE})
        # a walk from two slots below slot m, holding their block, settles the slots below tick m
        start = max(m - 2, 0)
        ledger = fresh(start)
        ledger.block = ledger.sunlit_block(start - start % SLOTS_PER_BLOCK)
        ledger.settle_through(t)
        assert ledger.settled == max(m, start)
        assert ledger.totals.period_slots == ledger.settled - start

    @given(slot_s=st.sampled_from([40.0, 33.3, 7.3]),
           offset=st.floats(0.0, 1.0, exclude_max=True),
           n_slots=st.integers(0, 200_000),
           data=st.data())
    def test_next_tick_is_the_wake_policy(self, grid_sims, slot_s, offset, n_slots, data):
        # random times, times on a tick and an ulp either side, and inf, for
        # the arrival and the sunrise, at any settled index and phi
        grid = grid_sims[slot_s].nodes[0].ledger
        settled = data.draw(st.integers(0, n_slots))
        phi = data.draw(st.just(0.0) | st.floats(0.0, grid.energy.phi_max_j))
        ledger = dataclasses.replace(grid, energy=dataclasses.replace(grid.energy, phi_j=phi),
                                     slot_offset=offset * slot_s, n_slots=n_slots,
                                     settled=settled)
        end = ledger.slot_time(n_slots + 2)

        def times():
            tick = ledger.slot_time(data.draw(st.integers(0, n_slots + 2)))
            return data.draw(st.sampled_from([math.inf, tick, math.nextafter(tick, -math.inf),
                                              math.nextafter(tick, math.inf)])
                             | st.floats(0.0, end))

        arrival, sunrise = times(), times()
        assert ledger.next_tick(arrival, sunrise) == oracle_next_tick(ledger, arrival, sunrise)


def pending_tick(sim, node):
    """The index of the node's one slot tick on the heap, or None if it has none."""
    ticks = [payload[1] for *_, kind, payload in sim._heap
             if kind is engine.EventKind.SLOT_TICK and payload[0] == node.node_id]
    assert len(ticks) <= 1
    return ticks[0] if ticks else None


@pytest.fixture
def settle_log(monkeypatch):
    """Record (now, node, settled slots, pending tick) after every `_settle_before_now` call."""
    log = []
    real = Simulator._settle_before_now

    def watched(sim, node):
        real(sim, node)
        log.append((sim.now, node, node.ledger.settled, pending_tick(sim, node)))

    monkeypatch.setattr(Simulator, "_settle_before_now", watched)
    return log


class TestTickTies:
    """At an exact time tie a slot tick runs first, so an event at T_k sees slot k-1 settled."""

    K = 30   # the tick the event lands on

    @pytest.mark.parametrize("event", ["window_open", "report_due"])
    def test_an_event_at_a_tick_time_sees_the_slot_before_it_settled(
            self, event, tmp_path, default_dict, energy_spy, monkeypatch):
        # one node, one packet per 1000 s, so the first packet is decided at
        # a tick well before T_{k-1}; its only window opens exactly at T_k.
        # The report case puts the first report exactly at T_k instead.
        overrides = {"sim.node_count": 1, "sim.duration_days": 0.03,
                     "sim.traffic_model": "periodic", "sim.traffic_rate_per_s": 1.0 / 1000.0,
                     "energy.e_critical_j": 0.0}
        t_k = Simulator(make_scenario(default_dict, **overrides), schedules={}).nodes[0] \
            .ledger.slot_time(self.K)
        if event == "window_open":
            path = tmp_path / "override.json"
            path.write_text(json.dumps([{"node": 0, "target": "gw", "start_s": t_k,
                                         "end_s": t_k + 600.0, "phase": "sun"}]))
            overrides["sim.schedule_override_path"] = str(path)
        else:
            overrides["sim.report_interval_s"] = t_k
        seen = []
        real = Simulator._settle_before_now

        def watched(sim, node):
            real(sim, node)
            if sim.now == t_k:
                seen.append((node.ledger.settled, len(energy_spy(node))))

        monkeypatch.setattr(Simulator, "_settle_before_now", watched)
        sim = Simulator(make_scenario(default_dict, **overrides))
        first_arrival = sim.nodes[0].next_arrival
        node = sim.run().nodes[0]
        assert node.ledger.slot_time(self.K) == t_k
        assert first_arrival < node.ledger.slot_time(self.K - 2)
        assert seen and all(s == (self.K, self.K) for s in seen)
        if event == "report_due":
            assert sim.reports[0].period_end == t_k
            assert sim.reports[0].n_slots == self.K

    def test_a_report_on_a_sunrise_carries_the_orbit_it_closes(self, default_dict):
        # node 0's orbit starts at a sunrise, so with one report per orbit
        # each report falls on the sunrise that closes its orbit; the report
        # closes that orbit before it reads
        sc = make_scenario(default_dict, **{"sim.duration_days": 0.5,
                                            "sim.report_interval_s": 5400.0})
        assert sc.node_orbit(0).phase_time_offset_s == 0.0
        assert sc.node_orbit(0).period_s == 5400.0
        sim = Simulator(sc)
        sim.run()
        reports = [r for r in sim.reports if r.node_id == 0]
        assert len(reports) == 8
        assert all(len(r.dod_observations) == 1 for r in reports)

    @staticmethod
    def _check(log):
        ticks = {}
        for now, node, settled, pending in log:
            if id(node) not in ticks:
                grid = node.ledger
                ticks[id(node)] = [grid.slot_time(m) for m in range(1, grid.n_slots + 1)]
            due = bisect.bisect_right(ticks[id(node)], now)
            assert settled == (due if pending is None else min(due, pending - 1)), \
                (now, node.node_id)

    @pytest.mark.parametrize("slot_s", [40.0, 33.3])
    @pytest.mark.parametrize("side", [-math.inf, None, math.inf])
    def test_settle_before_now_on_tick_aligned_windows(self, slot_s, side, tmp_path,
                                                       default_dict, settle_log):
        # the golden tie case at seeds 1-3, with every window moved one ulp
        # off its tick to either side, or left on it.  On a 33.3 s grid,
        # (T_k - slot_offset) / slot_s often rounds below k.
        case = {**TIE_CASE, "sim.slot_s": slot_s}
        for seed in (1, 2, 3):
            path = tmp_path / f"ticks{seed}.json"
            _tick_aligned_windows(path, make_scenario(default_dict, **case), seed)
            if side is not None:
                windows = json.loads(path.read_text())
                for w in windows:
                    w["start_s"] = math.nextafter(w["start_s"], side)
                path.write_text(json.dumps(windows))
            run(make_scenario(default_dict, **case,
                              **{"sim.schedule_override_path": str(path)}), seed=seed)
        assert len(settle_log) > 3000
        self._check(settle_log)

    def test_settle_before_now_on_steady_runs(self, default_dict, settle_log):
        # reports every orbit and window opens from real visibility: events
        # fall anywhere between ticks, next to real and lazy ones
        sc = make_scenario(default_dict, **{"sim.node_count": 8, "sim.duration_days": 1.0,
                                            "sim.traffic_rate_per_s": 1.0 / 600.0,
                                            "sim.report_interval_s": 5400.0})
        for seed in (4, 5):
            run(sc, seed=seed)
        assert len(settle_log) > 1000
        self._check(settle_log)


class TestReportClock:
    """The fleet reports on one clock: one event per report time, every node in id order."""

    INTERVAL = 5400.0

    def _run(self, default_dict, monkeypatch, node_count):
        sc = make_scenario(default_dict, **{"sim.node_count": node_count,
                                            "sim.duration_days": 0.5,
                                            "sim.report_interval_s": self.INTERVAL})
        calls = []
        real = Simulator._on_report_due

        def watched(sim, now, payload):
            calls.append(now)
            real(sim, now, payload)

        monkeypatch.setattr(Simulator, "_on_report_due", watched)
        sim = Simulator(sc)
        return sim, sim.run(), calls

    @pytest.mark.parametrize("node_count", [1, 8])
    def test_one_report_event_per_report_time(self, node_count, default_dict, monkeypatch):
        sim, result, calls = self._run(default_dict, monkeypatch, node_count)
        times = [self.INTERVAL * m for m in range(1, 8)]   # the eighth falls on the run end
        assert calls == times
        ends = times + [sim.t_end]
        assert [(r.period_start, r.period_end, r.node_id) for r in sim.reports] == [
            (start, end, u) for start, end in zip([0.0] + times, ends) for u in range(node_count)]

    def test_metrics_rows_come_out_in_time_then_node_order(self, default_dict, monkeypatch):
        sim, result, _ = self._run(default_dict, monkeypatch, 8)
        rows = [(m.time_s, m.node_id) for m in result.metrics]
        assert rows == sorted(rows)
        assert rows == [(t, u) for t, _ in itertools.groupby(t for t, _ in rows)
                        for u in range(8)]

    def test_a_run_without_nodes_pushes_no_report(self, default_dict, monkeypatch):
        sim, result, calls = self._run(default_dict, monkeypatch, 0)
        assert calls == [] and sim.reports == [] and result.metrics == []

    def test_an_event_before_now_is_a_broken_contract(self, default_dict):
        sim = Simulator(make_scenario(default_dict, **{"sim.node_count": 1}), schedules={})
        sim.now = self.INTERVAL
        with pytest.raises(ContractError, match="before now"):
            sim._push(self.INTERVAL - 1.0, engine.EventKind.REPORT_DUE, ())
        sim._push(self.INTERVAL, engine.EventKind.REPORT_DUE, ())   # now itself is not before now


class TestBoundedRunState:
    """Run state that grows with neither the run's length nor its traffic."""

    def test_a_run_shares_one_term_table_of_six_keys_that_no_walk_writes(self, default_dict):
        # an orbit that is not a whole number of 40 s slots gives nearly every
        # partly sunlit slot a sunlit time of its own
        sim = Simulator(make_scenario(default_dict, **{"sim.node_count": 8,
                                                       "sim.duration_days": 4.0,
                                                       "orbit.period_s": 5677.3}), seed=1)
        table = sim.nodes[0].ledger.law.table
        assert all(node.ledger.law.table is table for node in sim.nodes)
        assert all(node.ledger.law is sim.nodes[0].ledger.law for node in sim.nodes)
        before = table_bits(table)
        sim.run()
        assert len(table) == 6 and table_bits(table) == before

    def test_a_new_run_draws_no_arrival_up_front(self, default_dict):
        # 2 nodes at 2,000 arrivals/s over 864 s: 3.5 million arrival times
        sc = make_scenario(default_dict, **{"sim.node_count": 2, "sim.duration_days": 0.01,
                                            "sim.traffic_rate_per_s": 2000.0})
        tracemalloc.start()
        try:
            Simulator(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_a_walk_of_many_blocks_keeps_no_list_of_its_slots(self, default_dict, monkeypatch):
        # one node, no traffic and no stations over one orbit of 0.05 s slots
        # (a radio fast enough to fit one): 108,000 slots in two walks.  The
        # energies per slot are the default powers at this slot length, so
        # only the guard splits the orbit.
        d = copy.deepcopy(default_dict)
        d["stations"] = []
        scale = 0.05 / d["sim"]["slot_s"]
        energy = {f"energy.{key}": d["energy"][key] * scale for key in
                  ("e_sleep_j", "e_g_sun_j_per_slot", "charge_rate_limit_j_per_slot")}
        sc = make_scenario(d, **energy, **{
            "sim.node_count": 1, "sim.traffic_rate_per_s": 0.0, "sim.slot_s": 0.05,
            "sim.duration_days": 5400.0 / 86400.0, "radio.spreading_factor": 7,
            "radio.bandwidth_hz": 500000, "radio.payload_bytes": 1})
        firsts = []
        real = energy_module.settle_slots

        def walk(ledger, sun_s):
            firsts.append(ledger.settled)
            return real(ledger, sun_s)

        # every walk reaches it once: a real tick's `energy_step` walks through it
        monkeypatch.setattr(energy_module, "settle_slots", walk)
        sim = Simulator(sc, seed=1)
        node = sim.nodes[0]
        tracemalloc.start()
        try:
            sim.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        walks = np.diff(firsts + [node.ledger.n_slots])
        assert node.ledger.settled == node.ledger.n_slots == 107_999
        assert len(walks) <= 3 and walks.min() > 100 * SLOTS_PER_BLOCK
        # a list of one walk's sunlit seconds would take over 1.7 MB
        assert peak < 2**20

    def test_walks_take_each_slot_s_sunlit_seconds_across_block_edges(self, default_dict,
                                                                       energy_spy):
        # one quiet node, walked by hand: walks end one slot before, at and
        # one slot after a block edge, one spans three blocks (511 .. 768),
        # and the last ends in the partial last block; the spy checks every
        # slot's sunlit seconds against the oracle and every walk against
        # the slot law, slot by slot
        block = SLOTS_PER_BLOCK
        sim = Simulator(make_scenario(default_dict, **{"sim.node_count": 1,
                                                       "sim.traffic_model": "none",
                                                       "sim.duration_days": 0.73}), seed=2)
        node = sim.nodes[0]
        assert 6 * block < node.ledger.n_slots < 7 * block
        ends = [block - 1, block, block + 1, 2 * block - 1, 3 * block + 1, 5 * block,
                node.ledger.n_slots]
        for i, upto in enumerate(ends):
            assert not node.ledger.settle_to(upto, i % 2 == 0)
        rows = energy_spy(node)
        assert len(rows) == node.ledger.settled == node.ledger.n_slots
        # the last walk ended in the last block
        assert len(node.ledger.block) == node.ledger.n_slots % block


class TestOrbitClosing:
    """Each sunrise up to the horizon closes one orbit, in order, on exactly the slots before it."""

    CASES = {
        "reports_every_orbit": {"sim.duration_days": 0.5, "sim.report_interval_s": 5400.0},
        "aware_brownout": GOLDEN_CASES["aware_brownout"],
        "tick_aligned": TIE_CASE,
        # up to two sunrises in one 40 s slot
        "short_orbit": {"sim.duration_days": 0.05, "sim.report_interval_s": 240.0,
                        "orbit.period_s": 30.0, "orbit.sun_duration_s": 20.0},
        # no sunset, so every edge is a sunrise
        "always_sunlit": {"sim.duration_days": 0.5, "orbit.sun_duration_s": 5400.0},
    }

    @staticmethod
    def _run_closing_each_sunrise(sim, monkeypatch):
        """Run `sim`; each node's flushes close its sunrises on the exact grid, then the end."""
        def sunrises(node):
            first, period = -node.ledger.orbit.phase_time_offset_s, node.ledger.orbit.period_s
            return list(itertools.takewhile(lambda s: s <= sim.t_end,
                                            (first + m * period for m in itertools.count(1))))

        expected = {node.node_id: sunrises(node) for node in sim.nodes}
        limit = sum(len(v) + 1 for v in expected.values())
        flushes = []   # (node, its next sunrise, settled slots) at each flush
        real = Simulator._flush_orbit

        def watched(sim, node):
            flushes.append((node, node.sunrise, node.ledger.settled))
            assert len(flushes) <= limit, "a sunrise closed twice: the chain stopped advancing"
            real(sim, node)

        monkeypatch.setattr(Simulator, "_flush_orbit", watched)
        sim.run()
        for node in sim.nodes:
            seen = [(s, settled) for n, s, settled in flushes if n is node]
            # the last flush is the one at the end of the run, past every sunrise
            *closed, (final, settled) = seen
            assert final == math.inf and settled == node.ledger.n_slots
            assert [s for s, _ in closed] == expected[node.node_id]
            for s, settled in closed:
                assert settled == max(node.ledger.last_tick(s), 0), (node.node_id, s)

    @pytest.mark.parametrize("case", list(CASES))
    def test_flushes_close_each_sunrise_once_in_order(self, case, tmp_path, default_dict,
                                                      monkeypatch):
        overrides = dict(self.CASES[case])
        if case == "tick_aligned":
            overrides["sim.schedule_override_path"] = _tick_aligned_windows(
                tmp_path / "ticks.json", make_scenario(default_dict, **overrides), 1)
        sim = Simulator(make_scenario(default_dict, **overrides), seed=1)
        self._run_closing_each_sunrise(sim, monkeypatch)
        if case == "reports_every_orbit":
            reports = [r for r in sim.reports if r.node_id == 0]
            assert len(reports) == 8
            assert all(len(r.dod_observations) == 1 for r in reports)

    def test_a_200_day_run_closes_every_orbit_on_its_sunrise(self, default_dict, monkeypatch):
        # past about 2**24 s a nudge of 1e-9 s to step off a sunrise is lost
        # below one ulp; on the grid the next sunrise needs none
        sc = make_scenario(default_dict, **{
            "sim.node_count": 1, "sim.duration_days": 200.0, "sim.traffic_model": "none",
            "orbit.period_s": 5677.3, "orbit.sun_duration_s": 3411.1})
        sim = Simulator(sc, schedules={})
        self._run_closing_each_sunrise(sim, monkeypatch)
        assert sim.nodes[0].battery.calendar_days > 199.0

    def test_a_tick_on_a_sunrise_runs_before_that_orbit_closes(self, default_dict, monkeypatch):
        # node 0's first sunrise is at about 5400 s; a slot length within a
        # few ulps of 5400 / (k + u), with u its offset in slots, puts its
        # tick k exactly on that sunrise
        base = {"sim.node_count": 1, "sim.duration_days": 0.25}
        u = Simulator(make_scenario(default_dict, **base),
                      schedules={}).nodes[0].ledger.slot_offset / 40.0
        slot_s = math.nextafter(5400.0 / (135 + u), -math.inf)
        for _ in range(64):
            slot_s = math.nextafter(slot_s, math.inf)
            sc = make_scenario(default_dict, **base, **{"sim.slot_s": slot_s})
            node = Simulator(sc, schedules={}).nodes[0]
            if node.ledger.slot_time(node.ledger.last_tick(node.sunrise)) == node.sunrise:
                break
        else:
            pytest.fail("no slot length puts a tick on the sunrise")
        sunrise = node.sunrise
        log = []
        real_tick, real_flush = Simulator._on_slot_tick, Simulator._flush_orbit

        def tick(sim, now, payload):
            real_tick(sim, now, payload)
            log.append(("tick", now))

        def flush(sim, node):
            log.append(("flush", node.sunrise))
            real_flush(sim, node)

        monkeypatch.setattr(Simulator, "_on_slot_tick", tick)
        monkeypatch.setattr(Simulator, "_flush_orbit", flush)
        run(sc)
        assert log.index(("tick", sunrise)) < log.index(("flush", sunrise))


@st.composite
def coverage_cases(draw):
    """(toa, windows, attempt starts): up to three targets' windows and one packet's attempts.

    Windows run exactly MAX_WINDOW_S, exactly one airtime or anything in
    between, and may touch the next.  Attempts fall anywhere, on a window
    edge or one ulp off it.
    """
    toa = draw(st.sampled_from([0.0566, 0.37, 2.8]))
    windows = []
    for target in ("gw-a", "gw-b", "gw-c")[:draw(st.integers(1, 3))]:
        t = draw(st.floats(0.0, 4000.0))
        for i in range(draw(st.integers(0, 4))):
            duration = draw(st.sampled_from([MAX_WINDOW_S, toa])
                            | st.floats(toa / 2, MAX_WINDOW_S))
            windows.append(ForecastWindow(f"{target}:{i}", t, t + duration, SUN, target))
            t += duration + draw(st.just(0.0) | st.floats(0.0, 2500.0))
    edges = [x for w in windows for x in (w.start, w.end - toa, w.end, w.start + MAX_WINDOW_S)]
    point = st.floats(0.0, 15000.0)
    if edges:
        one_ulp_off = st.builds(math.nextafter, st.sampled_from(edges),
                                st.sampled_from([-math.inf, math.inf]))
        point = point | one_ulp_off | st.sampled_from(edges)
    starts = sorted(draw(st.lists(point, min_size=1, max_size=8)))
    return toa, windows, starts


class TestNaivePerPacketPaths:
    @given(coverage_cases())
    @example((0.37, [ForecastWindow("a:0", 0.0, MAX_WINDOW_S, SUN, "gw-a"),
                     ForecastWindow("b:0", 10.0, MAX_WINDOW_S, SUN, "gw-b"),
                     ForecastWindow("a:1", MAX_WINDOW_S, 2 * MAX_WINDOW_S, SUN, "gw-a")],
              [0.0, 10.0, MAX_WINDOW_S - 0.37, MAX_WINDOW_S, 2 * MAX_WINDOW_S - 0.37]))
    def test_one_scan_per_packet_matches_the_per_attempt_rule(self, case):
        toa, windows, starts = case
        node = SimpleNamespace(schedule=Schedule(tuple(windows)))
        targets = Simulator._visible_targets(SimpleNamespace(toa=toa), node, starts)
        assert targets == [(t, oracle_visible_target(windows, t, toa)) for t in starts]

    def test_only_heard_or_last_attempts_get_an_end_event(self, default_dict, monkeypatch):
        handled = []  # (heard, last attempt, an unheard attempt before it)
        real = Simulator._on_attempt_end

        def spy(sim, now, payload):
            _, packet, k = payload
            handled.append((packet.attempts[k][1] is not None, k == len(packet.attempts) - 1,
                            any(r is None for _, r, _ in packet.attempts[:k])))
            real(sim, now, payload)

        monkeypatch.setattr(Simulator, "_on_attempt_end", spy)
        run(make_scenario(default_dict, **{"sim.protocol": "naive_aloha",
                                           "sim.duration_days": 0.5}), seed=3)
        assert all(heard or last for heard, last, _ in handled)
        # some packets went unheard, and some were heard after skipped attempts
        assert any(not heard for heard, _, _ in handled)
        assert any(heard and skipped for heard, _, skipped in handled)

    def test_block_arrivals_match_scalar_draws(self, default_dict):
        sim = Simulator(make_scenario(default_dict, **{"sim.node_count": 1,
                                                       "sim.duration_days": 0.05}))
        rate = sim.sc.sim.traffic_rate_per_s
        for seed in range(4):
            rng = np.random.default_rng(seed)
            draws = list(itertools.accumulate(rng.exponential(1.0 / rate) for _ in range(130)))
            # the horizon is met by the 64th draw, the last of the first
            # block, or just missed by it, or met in later blocks
            horizons = [draws[63], math.nextafter(draws[63], math.inf), draws[0], draws[127],
                        draws[129], 86400.0]
            for horizon in horizons:
                got = list(sim._generate_arrivals(np.random.default_rng(seed), horizon))
                assert got == oracle_poisson_arrivals(np.random.default_rng(seed), rate, horizon)
            assert len(list(sim._generate_arrivals(np.random.default_rng(seed), draws[63]))) == 63
            assert len(list(sim._generate_arrivals(np.random.default_rng(seed), horizons[1]))) == 64
