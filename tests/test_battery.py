"""Degradation math: frozen oracle values, edge cases, properties, and the orbit step."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leolora import battery
from leolora.battery import (
    BatteryState,
    CycleStress,
    DegradationParams,
    ThermalProfile,
    arrhenius_factor,
    calendar_aging,
    cycle_aging,
    degradation_impact_factor,
    linear_degradation,
    run_degradation_curve,
    sei_capacity_fade,
    step_battery_per_orbit,
)
from leolora.exceptions import ConfigError

from oracles import oracle_calendar, oracle_cycle, oracle_sei

# Reference pack constants used throughout: 35 kJ/mol activation energy,
# 303 K sunlit / 263 K eclipse, DoD 40%, exponents b=1.3, c=1.3, d=1.2.
PARAMS = DegradationParams(
    k1=5.5e-3, k2=2.0, ea_j_per_mol=35_000.0,
    b=1.3, c=1.3, d=1.2, alpha_sei=0.0575, k_sei=121.0,
)

# Frozen against an independent high-precision evaluation of the closed forms.
ARR_303 = 9.248638166904826e-07
ARR_263 = 1.1178177170940836e-07
CAL_ONE_YEAR = 1.4458507879497928e-06       # k1=5.5e-3, T=303, soc=0.825, b=1.3, 365 d
CYC_ONE_YEAR = 0.011594948874812659         # dod=0.4, c_rate=12.5, T=263, N=5840


class TestArrhenius:
    def test_zero_activation_energy(self):
        assert arrhenius_factor(0.0, 303.0) == 1.0

    def test_reference_values(self):
        assert arrhenius_factor(35_000.0, 303.0) == pytest.approx(ARR_303, rel=1e-12)
        assert arrhenius_factor(35_000.0, 263.0) == pytest.approx(ARR_263, rel=1e-12)

    def test_increasing_in_temperature(self):
        assert arrhenius_factor(35_000.0, 303.0) > arrhenius_factor(35_000.0, 263.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            arrhenius_factor(35_000.0, 0.0)
        with pytest.raises(ValueError):
            arrhenius_factor(35_000.0, -10.0)


class TestCalendarAging:
    def test_zero_days(self):
        assert calendar_aging(PARAMS, 303.0, 0.825, 0.0) == 0.0

    def test_full_soc_reduces_to_arrhenius_product(self):
        got = calendar_aging(PARAMS, 303.0, 1.0, 100.0)
        assert got == pytest.approx(PARAMS.k1 * ARR_303 * 100.0, rel=1e-12)

    def test_one_year_reference(self):
        got = calendar_aging(PARAMS, 303.0, 0.825, 365.0)
        assert got == pytest.approx(CAL_ONE_YEAR, rel=1e-12)

    def test_negative_days_rejected(self):
        with pytest.raises(ValueError):
            calendar_aging(PARAMS, 303.0, 0.825, -1.0)

    @given(
        soc=st.floats(0.0, 1.0),
        temp=st.floats(253.0, 313.0),
        days=st.floats(0.0, 5000.0),
    )
    def test_nonnegative(self, soc, temp, days):
        assert calendar_aging(PARAMS, temp, soc, days) >= 0.0

    @given(
        soc=st.floats(0.01, 0.99),
        temp=st.floats(254.0, 312.0),
        days=st.floats(0.0, 5000.0),
        bump=st.floats(1e-6, 0.01),
    )
    def test_monotone_in_soc_temp_days(self, soc, temp, days, bump):
        base = calendar_aging(PARAMS, temp, soc, days)
        assert calendar_aging(PARAMS, temp, soc + bump, days) >= base
        assert calendar_aging(PARAMS, temp + 1.0, soc, days) >= base
        assert calendar_aging(PARAMS, temp, soc, days + 1.0) >= base

    @given(
        t1=st.floats(0.0, 1000.0),
        t2=st.floats(0.0, 1000.0),
        soc=st.floats(0.0, 1.0),
    )
    def test_time_splitting(self, t1, t2, soc):
        whole = calendar_aging(PARAMS, 303.0, soc, t1 + t2)
        parts = calendar_aging(PARAMS, 303.0, soc, t1) + calendar_aging(PARAMS, 303.0, soc, t2)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-30)


class TestCycleAging:
    STRESS = CycleStress(dod=0.4, c_rate=12.5, temperature_k=263.0)

    def test_zero_cycles(self):
        assert cycle_aging(PARAMS, self.STRESS, 0.0) == 0.0

    def test_zero_dod(self):
        stress = CycleStress(dod=0.0, c_rate=12.5, temperature_k=263.0)
        assert cycle_aging(PARAMS, stress, 100.0) == 0.0

    def test_one_year_reference(self):
        got = cycle_aging(PARAMS, self.STRESS, 5840.0)
        assert got == pytest.approx(CYC_ONE_YEAR, rel=1e-12)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            cycle_aging(PARAMS, self.STRESS, -1.0)

    @given(
        n1=st.floats(0.0, 5000.0),
        n2=st.floats(0.0, 5000.0),
        dod=st.floats(0.0, 1.0),
    )
    def test_cycle_splitting(self, n1, n2, dod):
        stress = CycleStress(dod=dod, c_rate=12.5, temperature_k=263.0)
        whole = cycle_aging(PARAMS, stress, n1 + n2)
        parts = cycle_aging(PARAMS, stress, n1) + cycle_aging(PARAMS, stress, n2)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-30)

    @given(
        dod=st.floats(0.0, 0.99),
        c_rate=st.floats(0.01, 20.0),
        n=st.floats(0.0, 10000.0),
    )
    def test_monotone_in_stress(self, dod, c_rate, n):
        lo = cycle_aging(PARAMS, CycleStress(dod, c_rate, 263.0), n)
        hi = cycle_aging(PARAMS, CycleStress(dod + 0.01, c_rate, 263.0), n)
        assert hi >= lo
        assert cycle_aging(PARAMS, CycleStress(dod, c_rate, 263.0), n + 1.0) >= lo


class TestLinearDegradation:
    def test_zero(self):
        assert linear_degradation(0.0, 0.0) == 0.0

    def test_reference_sum(self):
        got = linear_degradation(CAL_ONE_YEAR, CYC_ONE_YEAR)
        assert got == pytest.approx(0.011596394725600609, rel=1e-12)

    def test_identity_under_zero_cycle_term(self):
        assert linear_degradation(0.42, 0.0) == 0.42

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            linear_degradation(-1e-9, 0.0)

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), c=st.floats(0.0, 1.0))
    def test_additivity(self, a, b, c):
        lhs = linear_degradation(a, b) + linear_degradation(c, 0.0)
        rhs = linear_degradation(a + c, b)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-30)


class TestSeiCapacityFade:
    def test_zero_at_origin(self):
        assert sei_capacity_fade(PARAMS, 0.0) == 0.0

    def test_alpha_zero_reduces_to_exponential(self):
        params = DegradationParams(
            k1=5.5e-3, k2=2.0, ea_j_per_mol=35_000.0,
            b=1.3, c=1.3, d=1.2, alpha_sei=0.0, k_sei=121.0,
        )
        for dl in (0.0, 0.1, 1.0, 3.0):
            assert sei_capacity_fade(params, dl) == pytest.approx(
                1.0 - math.exp(-dl), rel=1e-12, abs=1e-15
            )

    def test_asymptote(self):
        assert sei_capacity_fade(PARAMS, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sei_capacity_fade(PARAMS, -1e-12)

    @given(dl=st.floats(0.0, 1e9), bump=st.floats(1e-9, 1.0))
    def test_strictly_increasing_and_bounded(self, dl, bump):
        lo = sei_capacity_fade(PARAMS, dl)
        hi = sei_capacity_fade(PARAMS, dl + bump)
        assert 0.0 <= lo < 1.0 or lo == pytest.approx(1.0, abs=1e-12)
        assert hi >= lo


class TestDegradationImpactFactor:
    IDLE = CycleStress(dod=0.4, c_rate=12.5, temperature_k=263.0)

    def _tx(self, extra_dod):
        return CycleStress(dod=0.4 + extra_dod, c_rate=12.5, temperature_k=263.0)

    def test_identical_stress_gives_zero(self):
        assert degradation_impact_factor(PARAMS, self.IDLE, self.IDLE, 1e-6) == 0.0

    def test_normalization_boundary(self):
        extra = cycle_aging(PARAMS, self._tx(0.01), 1.0) - cycle_aging(PARAMS, self.IDLE, 1.0)
        assert degradation_impact_factor(PARAMS, self._tx(0.01), self.IDLE, extra) == 1.0

    def test_clamped_above_reference(self):
        extra = cycle_aging(PARAMS, self._tx(0.01), 1.0) - cycle_aging(PARAMS, self.IDLE, 1.0)
        got = degradation_impact_factor(PARAMS, self._tx(0.01), self.IDLE, extra / 2.0)
        assert got == 1.0

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ConfigError):
            degradation_impact_factor(PARAMS, self.IDLE, self.IDLE, 0.0)

    @given(
        dod_idle=st.floats(0.0, 0.9),
        extra=st.floats(0.0, 0.1),
        dif_ref=st.floats(1e-15, 1e-3),
    )
    def test_output_in_unit_interval(self, dod_idle, extra, dif_ref):
        idle = CycleStress(dod=dod_idle, c_rate=12.5, temperature_k=263.0)
        tx = CycleStress(dod=dod_idle + extra, c_rate=12.5, temperature_k=263.0)
        assert 0.0 <= degradation_impact_factor(PARAMS, tx, idle, dif_ref) <= 1.0


class TestTypes:
    def test_thermal_profile_warns_outside_operable_range(self):
        with pytest.warns(UserWarning):
            ThermalProfile(t_sun_k=350.0, t_eclipse_k=263.0)

    def test_thermal_profile_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ThermalProfile(t_sun_k=-1.0, t_eclipse_k=263.0)

    def test_battery_state_effective_capacity(self, default_scenario):
        # the pack's rated energy lives on the scenario; the state holds only the fade
        state = BatteryState(fade_fraction=0.1)
        assert default_scenario.battery.capacity_rated_j == pytest.approx(25.0 * 28.0 * 3600.0)
        assert default_scenario.phi_max_j(state.fade_fraction) == pytest.approx(
            0.9 * 25.0 * 28.0 * 3600.0)

    def test_cycle_stress_validation(self):
        with pytest.raises(ValueError):
            CycleStress(dod=1.5, c_rate=1.0, temperature_k=263.0)
        with pytest.raises(ValueError):
            CycleStress(dod=0.4, c_rate=-1.0, temperature_k=263.0)


class TestOrbitStepping:
    def test_zero_discharge_advances_calendar_only(self, default_scenario):
        state = BatteryState()
        step_battery_per_orbit(state, default_scenario.battery, 5400.0, 0.0)
        assert state.cycles_completed == 0.0
        assert state.calendar_days == pytest.approx(5400.0 / 86400.0)
        assert state.dc_cycle == 0.0
        assert state.dc_cal > 0.0

    def test_reference_orbit_is_exactly_one_cycle(self, default_scenario):
        battery = default_scenario.battery
        state = BatteryState()
        dod = step_battery_per_orbit(state, battery, 5400.0,
                                     battery.dod_reference * battery.capacity_rated_j)
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

    @pytest.mark.parametrize("days, resolution_days", [
        (math.inf, 1.0), (math.nan, 1.0), (-1.0, 1.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0),
    ])
    def test_span_or_resolution_not_finite_rejected(self, default_scenario, days,
                                                    resolution_days):
        sc = default_scenario
        with pytest.raises(ValueError, match="finite"):
            run_degradation_curve(sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
                                  days=days, resolution_days=resolution_days)

    @pytest.mark.parametrize("days, resolution_days, what", [
        (3.65, 1e-300, "row marks"),          # the mark loop would run ~1e300 times
        (365_000.0, 1.0, "orbits"),           # 1000 years: 5.84 M orbits
    ])
    def test_span_past_the_limits_rejected_before_stepping(self, default_scenario, days,
                                                           resolution_days, what):
        sc = default_scenario
        with pytest.raises(ValueError, match=f"{what} exceeds the limit"):
            run_degradation_curve(sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
                                  days=days, resolution_days=resolution_days)

    def test_limits_are_inclusive(self, default_scenario, monkeypatch):
        sc = default_scenario
        orbit_days = sc.orbit.period_s / 86400.0
        monkeypatch.setattr(battery, "MAX_CURVE_ORBITS", 10)
        monkeypatch.setattr(battery, "MAX_CURVE_MARKS", 40)
        rows, state = run_degradation_curve(sc.battery, sc.orbit, sc.energy.profile,
                                            sc.sim.slot_s, days=10 * orbit_days,
                                            resolution_days=10 * orbit_days / 40)
        assert state.cycles_completed == pytest.approx(10.0, abs=1e-9)
        assert len(rows) == 10
        with pytest.raises(ValueError, match="11 orbits"):
            run_degradation_curve(sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
                                  days=11 * orbit_days, resolution_days=1.0)
        with pytest.raises(ValueError, match="row marks"):
            run_degradation_curve(sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
                                  days=10 * orbit_days, resolution_days=10 * orbit_days / 41)
