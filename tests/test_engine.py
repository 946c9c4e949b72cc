"""Event engine: collisions, gateway accounting, orbit stepping, full runs."""

import json

import numpy as np
import pytest

from leolora.battery import BatteryState, ThermalProfile
from leolora.engine import (
    OrbitLedger,
    TxAttempt,
    gateway_compute_fleet_degradation,
    resolve_collisions,
    run,
    run_degradation_curve,
    step_battery_per_orbit,
)
from leolora.report import NodeBatteryReport

from conftest import make_scenario
from oracles import oracle_calendar, oracle_cycle, oracle_sei


def attempt(start, airtime=1.0, channel=0, sf=10, receiver="gw"):
    return TxAttempt(start=start, airtime=airtime, channel=channel, sf=sf, receiver=receiver)


class TestResolveCollisions:
    def test_single_attempt_succeeds(self):
        assert resolve_collisions([attempt(0.0)]) == [True]

    def test_full_overlap_kills_both(self):
        assert resolve_collisions([attempt(0.0), attempt(0.5)]) == [False, False]

    def test_touching_intervals_do_not_collide(self):
        assert resolve_collisions([attempt(0.0), attempt(1.0)]) == [True, True]

    def test_different_sf_never_interact(self):
        got = resolve_collisions([attempt(0.0, sf=10), attempt(0.5, sf=11)])
        assert got == [True, True]

    def test_different_receivers_never_interact(self):
        got = resolve_collisions([attempt(0.0, receiver="a"), attempt(0.5, receiver="b")])
        assert got == [True, True]

    def test_chain_of_overlaps(self):
        # a-b overlap, b-c overlap, a-c do not: only b collides with both
        got = resolve_collisions([attempt(0.0), attempt(0.9), attempt(1.8)])
        assert got == [False, False, False]
        got = resolve_collisions([attempt(0.0), attempt(2.0), attempt(4.0)])
        assert got == [True, True, True]

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(3)
        starts = rng.uniform(0.0, 200.0, size=300)
        attempts = [attempt(float(s)) for s in starts]
        got = resolve_collisions(attempts)
        for i, a in enumerate(attempts):
            expected = not any(
                j != i and a.start < b.start + b.airtime and b.start < a.start + a.airtime
                for j, b in enumerate(attempts)
            )
            assert got[i] == expected


class TestGateway:
    def report(self, node=0, start=0.0, end=43200.0, dods=(0.4,) * 8):
        return NodeBatteryReport(
            node_id=node, period_start=start, period_end=end, n_slots=1080,
            n_transmissions=5, energy_consumed_j=2e7, dod_observations=tuple(dods),
            mean_temperature_sun_k=303.0, mean_temperature_eclipse_k=263.0,
        )

    def test_empty_reports_empty_assessment(self, default_scenario):
        got = gateway_compute_fleet_degradation(
            [], default_scenario.battery.params, soc_reference=0.825, c_rate_reference=12.5
        )
        assert got == {}

    def test_zero_cycles_is_calendar_only(self, default_scenario):
        params = default_scenario.battery.params
        got = gateway_compute_fleet_degradation(
            [self.report(dods=())], params, soc_reference=0.825, c_rate_reference=12.5
        )
        expected = oracle_calendar(params.k1, params.ea_j_per_mol, 303.0, 0.825, params.b, 0.5)
        assert got[0].dc_cycle == 0.0
        assert got[0].dc_cal == pytest.approx(expected, rel=1e-12)

    def test_matches_straight_line_oracle(self, default_scenario):
        params = default_scenario.battery.params
        reports = [self.report(node=1), self.report(node=1, start=43200.0, end=86400.0)]
        got = gateway_compute_fleet_degradation(
            reports, params, soc_reference=0.825, c_rate_reference=12.5
        )[1]
        cal = 2 * oracle_calendar(params.k1, params.ea_j_per_mol, 303.0, 0.825, params.b, 0.5)
        cyc = 16 * oracle_cycle(params.k2, 0.4, params.d, 12.5, params.c,
                                params.ea_j_per_mol, 263.0, 1.0)
        assert got.dc_cal == pytest.approx(cal, rel=1e-12)
        assert got.dc_cycle == pytest.approx(cyc, rel=1e-12)
        assert got.fade_fraction == pytest.approx(
            oracle_sei(params.alpha_sei, params.k_sei, cal + cyc), rel=1e-12
        )

    def test_overlapping_periods_rejected(self, default_scenario):
        reports = [self.report(), self.report(start=40000.0, end=90000.0)]
        with pytest.raises(ValueError, match="overlaps"):
            gateway_compute_fleet_degradation(
                reports, default_scenario.battery.params,
                soc_reference=0.825, c_rate_reference=12.5,
            )


class TestOrbitStepping:
    THERMAL = ThermalProfile(t_sun_k=303.0, t_eclipse_k=263.0)

    def fresh_state(self):
        return BatteryState(soc=0.5, capacity_rated_ah=25.0, voltage_nominal_v=28.0)

    def test_zero_discharge_advances_calendar_only(self, default_scenario):
        state = self.fresh_state()
        ledger = OrbitLedger(duration_s=5400.0, discharge_j=0.0)
        step_battery_per_orbit(state, default_scenario.battery.params, self.THERMAL,
                               ledger, dod_reference=0.4, c_rate_reference=12.5,
                               soc_reference=0.825)
        assert state.cycles_completed == 0.0
        assert state.calendar_days == pytest.approx(5400.0 / 86400.0)
        assert state.dc_cycle_total == 0.0
        assert state.dc_cal_total > 0.0

    def test_reference_orbit_is_exactly_one_cycle(self, default_scenario):
        state = self.fresh_state()
        ledger = OrbitLedger(duration_s=5400.0, discharge_j=0.4 * state.capacity_rated_j)
        dod = step_battery_per_orbit(state, default_scenario.battery.params, self.THERMAL,
                                     ledger, dod_reference=0.4, c_rate_reference=12.5,
                                     soc_reference=0.825)
        assert state.cycles_completed == pytest.approx(1.0, rel=1e-12)
        assert dod == pytest.approx(0.4, rel=1e-12)

    def test_one_year_composes_the_reference_values(self, default_scenario):
        # 5840 reference orbits = the frozen one-year calendar + cycle values
        sc = default_scenario
        rows, state = run_degradation_curve(
            sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
            days=365.0, resolution_days=365.0,
        )
        params = sc.battery.params
        cal = oracle_calendar(params.k1, params.ea_j_per_mol, 303.0, 0.825, params.b, 365.0)
        cyc = oracle_cycle(params.k2, 0.4, params.d, 12.5, params.c,
                           params.ea_j_per_mol, 263.0, 5840.0)
        day, d_linear, fade = rows[-1]
        assert day == pytest.approx(365.0)
        assert state.cycles_completed == pytest.approx(5840.0, abs=1e-6)
        assert d_linear == pytest.approx(cal + cyc, rel=1e-9)
        assert fade == pytest.approx(
            oracle_sei(params.alpha_sei, params.k_sei, cal + cyc), rel=1e-9
        )

    def test_degradation_curve_monotone(self, default_scenario):
        sc = default_scenario
        rows, _ = run_degradation_curve(
            sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
            days=30.0, resolution_days=1.0,
        )
        fades = [f for _, _, f in rows]
        assert fades == sorted(fades)

    def test_zero_days_no_rows(self, default_scenario):
        sc = default_scenario
        rows, _ = run_degradation_curve(
            sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
            days=0.0, resolution_days=1.0,
        )
        assert rows == []


class TestFullRuns:
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
                t0 = node.slot_offset + k * sc.sim.slot_s
                sunlit = sun_seconds(node.orbit, t0, t0 + sc.sim.slot_s)
                if slot.harvested_j > 0.0:
                    assert sunlit > 0.0

    def test_brownout_forces_sleep_and_is_logged(self, default_dict):
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
        assert node.brownout_count >= 1
        assert node.clamp_count >= 1
        assert node.clamp_total_j > 0.0
        assert node.energy.phi_j == 0.0

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
        assert node.clamp_count > len(slot_clamps)
        assert node.clamp_total_j < sum(slot_clamps)
        assert node.energy.phi_j <= node.energy.phi_max_j

    def test_engine_outcomes_match_collision_law(self, tmp_path, default_dict, attempt_spy):
        # two nodes sharing identical override windows at one station
        windows = []
        for k in range(16):
            start = k * 5400.0
            for node in (0, 1):
                windows.append({"node": node, "target": "gw", "start_s": start,
                                "end_s": start + 1800.0, "phase": "sun"})
        path = tmp_path / "override.json"
        path.write_text(json.dumps(windows))
        sc = make_scenario(
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
        log = attempt_spy(run(sc))
        attempts = [a for a, _ in log]
        outcomes = [ok for _, ok in log]
        assert attempts, "override scenario should produce attempts"
        assert resolve_collisions(attempts) == outcomes
        assert any(not ok for ok in outcomes), "expected at least one collision"

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
        assert {a.receiver for a, _ in log} == {"gw-late"}

    def test_gateway_summary_matches_node_states(self, default_dict):
        sc = make_scenario(default_dict, **{"sim.duration_days": 1.0})
        result = run(sc)
        # engine-side and gateway-side cycle aging agree through the report path
        for node in result.nodes:
            gw = result.summary["gateway_assessment"][str(node.node_id)]
            assert gw["dc_cycle"] == pytest.approx(node.battery.dc_cycle_total, rel=1e-12)
