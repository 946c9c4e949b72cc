"""Uplink encoding of battery-usage summaries and the gateway's assessment."""

import random

import numpy as np
import pytest

from leolora.engine import Simulator
from leolora.report import (
    MAX_DOD_OBSERVATIONS,
    MAX_ENCODED_BYTES,
    MAX_NODE_ID,
    NodeBatteryReport,
    decode_report,
    encode_report,
    gateway_compute_fleet_degradation,
)

from conftest import bits, make_scenario
from oracles import oracle_calendar, oracle_cycle, oracle_sei


FLOAT32_MAX = float(np.finfo(np.float32).max)


def make_report(n_dod=8, **kw):
    fields = dict(
        node_id=7,
        period_start=43200.0,
        period_end=86400.0,
        n_slots=1080,
        n_transmissions=23,
        energy_consumed_j=2.0786e7,
        dod_observations=tuple(0.05 + 0.1 * i / max(n_dod, 1) for i in range(n_dod)),
        mean_temperature_sun_k=303.0,
        mean_temperature_eclipse_k=263.0,
    )
    fields.update(kw)
    return NodeBatteryReport(**fields)


class TestEncoding:
    def test_fits_uplink_budget(self):
        # the largest report encode_report accepts: 31-byte header + 9 x uint16
        blob = encode_report(make_report(n_dod=MAX_DOD_OBSERVATIONS, node_id=MAX_NODE_ID))
        assert len(blob) == 49
        assert len(blob) <= MAX_ENCODED_BYTES

    def test_empty_observation_list_is_small(self):
        assert len(encode_report(make_report(n_dod=0))) == 31

    def test_round_trip_integers_exact(self):
        report = make_report()
        back = decode_report(encode_report(report))
        assert back.node_id == report.node_id
        assert back.period_start == report.period_start
        assert back.period_end == report.period_end
        assert back.n_slots == report.n_slots
        assert back.n_transmissions == report.n_transmissions

    def test_round_trip_floats_at_wire_precision(self):
        report = make_report()
        back = decode_report(encode_report(report))
        assert back.energy_consumed_j == pytest.approx(report.energy_consumed_j, rel=1e-6)
        assert back.mean_temperature_sun_k == pytest.approx(303.0, rel=1e-6)
        for a, b in zip(back.dod_observations, report.dod_observations):
            assert a == pytest.approx(b, abs=1.0 / 65535.0)

    def test_too_many_observations_rejected(self):
        with pytest.raises(ValueError, match="uplink budget"):
            encode_report(make_report(n_dod=MAX_DOD_OBSERVATIONS + 1))

    def test_dod_extremes_survive(self):
        report = make_report(n_dod=2, dod_observations=(0.0, 1.0))
        back = decode_report(encode_report(report))
        assert back.dod_observations == (0.0, 1.0)

    @pytest.mark.parametrize("energy", [FLOAT32_MAX, 3.5e38, 2.3e299, 1e308, float("inf")])
    def test_energy_past_float32_saturates(self, energy):
        back = decode_report(encode_report(make_report(energy_consumed_j=energy)))
        assert back.energy_consumed_j == FLOAT32_MAX

    def test_every_report_of_a_pack_that_fades_out_fits_the_uplink(self, default_dict):
        # retransmissions without end draw up to 2.3e299 J a period, past float32
        sc = make_scenario(default_dict, **{"sim.duration_days": 1.0, "mac.max_attempts": 1e300,
                                            "mac.backoff_base_s": 1.0})
        sim = Simulator(sc, seed=1)
        sim.run()
        assert len(sim.reports) == 8
        assert sum(r.energy_consumed_j > FLOAT32_MAX for r in sim.reports) == 4
        for report in sim.reports:
            blob = encode_report(report)
            assert len(blob) <= MAX_ENCODED_BYTES
            back = decode_report(blob)
            assert (back.node_id, back.n_slots, back.n_transmissions) == (
                report.node_id, report.n_slots, report.n_transmissions)
            assert (back.period_start, back.period_end) == (
                round(report.period_start), round(report.period_end))
            assert back.energy_consumed_j == pytest.approx(
                min(report.energy_consumed_j, FLOAT32_MAX), rel=1e-7)


class TestValidation:
    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            make_report(period_start=100.0, period_end=100.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            make_report(energy_consumed_j=-1.0)

    def test_period_days_from_bounds(self):
        assert make_report(period_start=0.0, period_end=43200.0).period_days == 0.5

    def test_dod_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_report(n_dod=1, dod_observations=(1.5,))


class TestGateway:
    def report(self, node=0, start=0.0, end=43200.0, dods=(0.4,) * 8):
        return NodeBatteryReport(
            node_id=node, period_start=start, period_end=end, n_slots=1080,
            n_transmissions=5, energy_consumed_j=2e7, dod_observations=tuple(dods),
            mean_temperature_sun_k=303.0, mean_temperature_eclipse_k=263.0,
        )

    def test_empty_reports_empty_assessment(self, default_scenario):
        got = gateway_compute_fleet_degradation(
            [], default_scenario.battery.params, soc_reference=0.825, c_rate_reference=12.5,
            dod_reference=0.4,
        )
        assert got == {}

    def test_zero_cycles_is_calendar_only(self, default_scenario):
        params = default_scenario.battery.params
        got = gateway_compute_fleet_degradation(
            [self.report(dods=())], params, soc_reference=0.825, c_rate_reference=12.5,
            dod_reference=0.4,
        )
        expected = oracle_calendar(params.k1, params.ea_j_per_mol, 303.0, 0.825, params.b, 0.5)
        assert got[0].dc_cycle == 0.0
        assert got[0].dc_cal == pytest.approx(expected, rel=1e-12)

    def test_matches_straight_line_oracle(self, default_scenario):
        params = default_scenario.battery.params
        reports = [self.report(node=1), self.report(node=1, start=43200.0, end=86400.0)]
        got = gateway_compute_fleet_degradation(
            reports, params, soc_reference=0.825, c_rate_reference=12.5,
            dod_reference=0.4,
        )[1]
        cal = 2 * oracle_calendar(params.k1, params.ea_j_per_mol, 303.0, 0.825, params.b, 0.5)
        cyc = 16 * oracle_cycle(params.k2, 0.4, params.d, 12.5, params.c,
                                params.ea_j_per_mol, 263.0, 1.0)
        assert got.dc_cal == pytest.approx(cal, rel=1e-12)
        assert got.dc_cycle == pytest.approx(cyc, rel=1e-12)
        assert got.fade_fraction == pytest.approx(
            oracle_sei(params.alpha_sei, params.k_sei, cal + cyc), rel=1e-12
        )

    def test_calendar_days_and_cycles_are_the_reports_sums(self, default_scenario):
        reports = [self.report(dods=(0.1, 0.3)), self.report(start=43200.0, end=50000.0, dods=()),
                   self.report(start=60000.0, end=86400.0, dods=(0.0, 0.25, 0.4))]
        got = gateway_compute_fleet_degradation(
            reports, default_scenario.battery.params,
            soc_reference=0.825, c_rate_reference=12.5, dod_reference=0.4,
        )[0]
        assert got.calendar_days == sum(r.period_days for r in reports)
        assert got.cycles_completed == sum(dod / 0.4 for r in reports for dod in r.dod_observations)

    def test_any_report_order_gives_the_same_bits(self, default_scenario):
        # uneven periods, DoDs and temperatures, so a sum in another order
        # would round differently
        grouped = [
            NodeBatteryReport(
                node_id=u, period_start=1000.0 * m + 0.1 * u, period_end=1000.0 * (m + 1),
                n_slots=25, n_transmissions=m, energy_consumed_j=1e3 * u,
                dod_observations=tuple(0.01 + 0.0731 * ((u + m + i) % 11) for i in range(m)),
                mean_temperature_sun_k=290.0 + 3.3 * m, mean_temperature_eclipse_k=250.0 + u,
            )
            for u in range(4) for m in range(6)
        ]
        interleaved = sorted(grouped, key=lambda r: (r.period_start // 1000.0, r.node_id))
        shuffled = grouped[:]
        random.Random(5).shuffle(shuffled)

        def assess(reports):
            got = gateway_compute_fleet_degradation(
                reports, default_scenario.battery.params,
                soc_reference=0.825, c_rate_reference=12.5, dod_reference=0.4,
            )
            return list(got), {u: bits(a) for u, a in got.items()}

        expected = assess(grouped)
        assert expected[0] == [0, 1, 2, 3]
        for reports in (interleaved, shuffled, grouped[::-1]):
            assert assess(reports) == expected

    def test_overlapping_periods_rejected(self, default_scenario):
        reports = [self.report(), self.report(start=40000.0, end=90000.0)]
        with pytest.raises(ValueError, match="overlaps"):
            gateway_compute_fleet_degradation(
                reports, default_scenario.battery.params,
                soc_reference=0.825, c_rate_reference=12.5, dod_reference=0.4,
            )
