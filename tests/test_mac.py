"""Forecast-window selection, retransmission sequences, and reporting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from leolora.airtime import RadioConfig, time_on_air
from leolora.battery import CycleStress, DegradationParams, cycle_aging
from leolora.energy import HarvestModel, NodeEnergyState, PowerProfile
from leolora.exceptions import ConfigError, ContractError
from leolora.mac import (
    DropReason,
    MacConfig,
    TxDecision,
    WindowEvaluation,
    choose_window,
    marginal_tx_discharge,
    nominal_backoff_base,
    run_transmission_sequence,
    select_forecast_window,
    window_dif,
)
from leolora.orbit import ECLIPSE, SUN, ForecastWindow

PARAMS = DegradationParams(k1=5.5e-3, k2=2.0, ea_j_per_mol=35_000.0,
                           b=1.3, c=1.3, d=1.2, alpha_sei=0.0575, k_sei=121.0)
BASE_STRESS = CycleStress(dod=0.4, c_rate=12.5, temperature_k=263.0)
CAPACITY_J = 1000.0
PROFILE = PowerProfile(e_cons_tx_j=10.0, e_sleep_j=1.0)
HARVEST = HarvestModel(e_g_sun_j_per_slot=20.0, charge_rate_limit_j_per_slot=100.0)
RADIO = RadioConfig(spreading_factor=10, payload_bytes=10, tx_power_w=0.4)

# normalizes the eclipse-transmit marginal to DIF exactly 1
_ECLIPSE_MARGINAL = PROFILE.e_cons_tx_j - PROFILE.e_sleep_j
DIF_REF = cycle_aging(
    PARAMS, CycleStress(dod=0.4 + _ECLIPSE_MARGINAL / CAPACITY_J, c_rate=12.5,
                        temperature_k=263.0), 1.0
) - cycle_aging(PARAMS, BASE_STRESS, 1.0)


def mac(w_dif=1.0, w_energy=0.0, **kw):
    defaults = dict(beta=0.3, w_dif=w_dif, w_energy=w_energy, dif_ref=DIF_REF,
                    max_attempts=8, slot_budget_s=40.0, backoff_base_s=2.0,
                    deadline_s=10800.0)
    defaults.update(kw)
    return MacConfig(**defaults)


def state(phi=500.0, phi_min=50.0, e_critical=100.0):
    return NodeEnergyState(phi_j=phi, phi_max_j=1000.0, phi_min_j=phi_min,
                           e_critical_j=e_critical, ewma_estimate_j=10.0)


def select(windows, energy, m=None, **kw):
    return select_forecast_window(
        windows, energy, HARVEST, PROFILE, m or mac(), PARAMS,
        BASE_STRESS, CAPACITY_J, slot_s=40.0, **kw,
    )


class TestWindowDif:
    def test_sun_window_with_covering_harvest_has_zero_impact(self):
        w = ForecastWindow("w", 0.0, 400.0, SUN, "gs")
        assert window_dif(w, HARVEST, PROFILE, PARAMS, BASE_STRESS, CAPACITY_J, DIF_REF) == 0.0

    def test_eclipse_window_hits_the_envelope(self):
        w = ForecastWindow("w", 0.0, 400.0, ECLIPSE, "gs")
        assert window_dif(w, HARVEST, PROFILE, PARAMS, BASE_STRESS, CAPACITY_J, DIF_REF) == 1.0

    def test_marginal_discharge(self):
        assert marginal_tx_discharge(SUN, HARVEST, PROFILE) == 0.0
        assert marginal_tx_discharge(ECLIPSE, HARVEST, PROFILE) == pytest.approx(9.0)
        # shortfall case: harvest covers sleep but not the transmit slot
        lean = HarvestModel(e_g_sun_j_per_slot=5.0, charge_rate_limit_j_per_slot=100.0)
        assert marginal_tx_discharge(SUN, lean, PROFILE) == pytest.approx(5.0)


class TestChooseWindow:
    @staticmethod
    def _eval(window, objective, feasible=True, reason=None):
        return WindowEvaluation(window=window, feasible=feasible, estimate_j=500.0,
                                psi_j=500.0, threshold_j=150.0, dif=None,
                                objective=objective, fail_reason=reason)

    def test_lower_dif_wins_at_equal_energy(self):
        # w_dif=1, w_energy=0: objectives are the DIF values themselves
        late_good = ForecastWindow("good", 300.0, 600.0, SUN, "gs")
        early_bad = ForecastWindow("bad", 0.0, 200.0, SUN, "gs")
        decision = choose_window([self._eval(early_bad, 0.6), self._eval(late_good, 0.2)])
        assert decision.window is late_good

    def test_tie_breaks_by_earliest_start(self):
        w1 = ForecastWindow("w1", 100.0, 400.0, SUN, "gs")
        w2 = ForecastWindow("w2", 500.0, 800.0, SUN, "gs")
        decision = choose_window([self._eval(w2, 0.3), self._eval(w1, 0.3)])
        assert decision.window is w1

    def test_no_candidates_is_no_window(self):
        assert choose_window([]).reason is DropReason.NO_WINDOW

    def test_no_feasible_reports_earliest_failure(self):
        w1 = ForecastWindow("w1", 0.0, 100.0, ECLIPSE, "gs")
        w2 = ForecastWindow("w2", 200.0, 300.0, SUN, "gs")
        e1 = self._eval(w1, None, feasible=False, reason=DropReason.BELOW_RESERVE_ECLIPSE)
        e2 = self._eval(w2, None, feasible=False, reason=DropReason.INSUFFICIENT_ENERGY_SUN)
        assert choose_window([e2, e1]).reason is DropReason.BELOW_RESERVE_ECLIPSE

    @given(st.permutations(range(6)))
    def test_permutation_invariance(self, order):
        windows = [ForecastWindow(f"w{i}", 100.0 * i, 100.0 * i + 50.0, SUN, "gs")
                   for i in range(6)]
        objectives = [0.5, 0.2, 0.9, 0.2, 0.7, 0.4]
        evals = [self._eval(w, j) for w, j in zip(windows, objectives)]
        baseline = choose_window(evals)
        shuffled = choose_window([evals[i] for i in order])
        assert shuffled.window is baseline.window


class TestSelectForecastWindow:
    def test_eclipse_only_below_reserve_drops(self):
        windows = [ForecastWindow("w", 0.0, 400.0, ECLIPSE, "gs")]
        decision = select(windows, state(phi=40.0, phi_min=50.0)).decision
        assert decision.reason is DropReason.BELOW_RESERVE_ECLIPSE

    def test_empty_schedule_drops_no_window(self):
        assert select([], state()).decision.reason is DropReason.NO_WINDOW

    def test_sun_below_threshold_prioritizes_charging(self):
        # one-slot window: estimate = 500 + 20 - 1 = 519 < 50 + 600
        windows = [ForecastWindow("w", 0.0, 40.0, SUN, "gs")]
        decision = select(windows, state(phi=500.0, e_critical=600.0)).decision
        assert decision.reason is DropReason.INSUFFICIENT_ENERGY_SUN

    def test_sun_window_beats_eclipse_window(self):
        sun = ForecastWindow("sun", 500.0, 900.0, SUN, "gs")
        eclipse = ForecastWindow("ecl", 0.0, 400.0, ECLIPSE, "gs")
        decision = select([eclipse, sun], state()).decision
        assert decision.window is sun

    def test_eclipse_selected_when_no_sun_feasible(self):
        eclipse = ForecastWindow("ecl", 0.0, 400.0, ECLIPSE, "gs")
        decision = select([eclipse], state()).decision
        assert decision.window is eclipse

    def test_energy_weight_prefers_scarcer_window(self):
        # two sun windows, different lengths, so different projected energy
        short = ForecastWindow("short", 400.0, 440.0, SUN, "gs")
        long = ForecastWindow("long", 0.0, 400.0, SUN, "gs")
        decision = select([short, long], state(), m=mac(w_dif=0.0, w_energy=1.0)).decision
        assert decision.window is short

    def test_scaling_weights_by_powers_of_two_is_invariant(self):
        windows = [
            ForecastWindow("a", 0.0, 200.0, SUN, "gs"),
            ForecastWindow("b", 250.0, 650.0, SUN, "gs"),
            ForecastWindow("c", 700.0, 740.0, ECLIPSE, "gs"),
        ]
        baseline = select(windows, state(), m=mac(w_dif=1.0, w_energy=0.25)).decision
        for scale in (0.5, 2.0, 4.0, 1024.0):
            scaled = select(
                windows, state(), m=mac(w_dif=1.0 * scale, w_energy=0.25 * scale)
            ).decision
            assert scaled.window == baseline.window

    def test_windows_too_short_for_one_attempt_are_ignored(self):
        sliver = ForecastWindow("s", 0.0, 0.1, SUN, "gs")
        result = select([sliver], state(), min_attempt_s=0.3)
        assert result.decision.reason is DropReason.NO_WINDOW
        assert result.evaluations == ()

    def test_no_transmit_violates_safety_thresholds(self):
        # randomized probe: whatever is selected satisfies its phase rule
        rng = np.random.default_rng(11)
        for _ in range(200):
            windows = []
            t = 0.0
            for i in range(rng.integers(1, 5)):
                start = t + float(rng.uniform(0, 200))
                end = start + float(rng.uniform(45, 900))
                phase = SUN if rng.random() < 0.5 else ECLIPSE
                windows.append(ForecastWindow(f"w{i}", start, end, phase, "gs"))
                t = end
            st_ = state(phi=float(rng.uniform(0, 1000)),
                        phi_min=float(rng.uniform(0, 400)),
                        e_critical=float(rng.uniform(0, 400)))
            result = select(windows, st_)
            if result.decision.is_transmit:
                ev = next(e for e in result.evaluations
                          if e.window is result.decision.window)
                if ev.window.phase == ECLIPSE:
                    assert ev.psi_j > st_.phi_min_j
                else:
                    assert ev.estimate_j >= st_.phi_min_j + st_.e_critical_j


class TestTransmissionSequence:
    WINDOW = ForecastWindow("w", 100.0, 1900.0, SUN, "gs")

    def test_single_attempt_zero_backoff_at_window_start(self):
        m = mac(max_attempts=1, backoff_base_s=0.0)
        starts = run_transmission_sequence(
            TxDecision.transmit(self.WINDOW), RADIO, m, np.random.default_rng(0)
        )
        assert starts == [100.0]

    def test_identical_seeds_identical_schedules(self):
        m = mac()
        a = run_transmission_sequence(TxDecision.transmit(self.WINDOW), RADIO, m,
                                      np.random.default_rng(42))
        b = run_transmission_sequence(TxDecision.transmit(self.WINDOW), RADIO, m,
                                      np.random.default_rng(42))
        assert a == b

    def test_attempts_fit_inside_window(self):
        m = mac()
        toa = time_on_air(RADIO)
        for seed in range(50):
            starts = run_transmission_sequence(
                TxDecision.transmit(self.WINDOW), RADIO, m, np.random.default_rng(seed)
            )
            assert len(starts) <= m.max_attempts
            for s in starts:
                assert self.WINDOW.start <= s and s + toa <= self.WINDOW.end

    def test_short_window_truncates_sequence(self):
        window = ForecastWindow("w", 0.0, 1.0, SUN, "gs")
        m = mac(backoff_base_s=2.0)
        starts = run_transmission_sequence(TxDecision.transmit(window), RADIO, m,
                                           np.random.default_rng(1))
        assert len(starts) <= 2

    def test_not_before_shifts_start(self):
        m = mac(max_attempts=1, backoff_base_s=0.0)
        starts = run_transmission_sequence(
            TxDecision.transmit(self.WINDOW), RADIO, m,
            np.random.default_rng(0), not_before=500.0,
        )
        assert starts == [500.0]

    def test_drop_decision_rejected(self):
        with pytest.raises(ContractError):
            run_transmission_sequence(
                TxDecision.drop(DropReason.NO_WINDOW), RADIO, mac(), np.random.default_rng(0)
            )

    def test_nominal_backoff_base_spans_the_slot_budget(self):
        b0 = nominal_backoff_base(RADIO, 40.0, 8)
        assert b0 == pytest.approx(2.0938808888888887, rel=1e-12)
        toa = time_on_air(RADIO)
        expected_mean = b0 * 8 * 9 / 4.0 + 8 * toa
        assert expected_mean == pytest.approx(40.0, rel=1e-12)


class TestDecisionAndConfig:
    def test_decision_carries_exactly_one_outcome(self):
        with pytest.raises(ValueError):
            TxDecision()
        with pytest.raises(ValueError):
            TxDecision(window=ForecastWindow("w", 0.0, 1.0, SUN, "gs"),
                       reason=DropReason.NO_WINDOW)

    def test_weights_must_not_both_vanish(self):
        with pytest.raises(ConfigError):
            mac(w_dif=0.0, w_energy=0.0)

    def test_beta_range_enforced(self):
        with pytest.raises(ConfigError):
            mac(beta=1.2)
