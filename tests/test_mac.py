"""Forecast-window selection, retransmission sequences, and the collision law."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leolora import mac as mac_module
from leolora.airtime import RadioConfig, time_on_air
from leolora.battery import CycleStress, DegradationParams, cycle_aging
from leolora.energy import HarvestModel, NodeEnergyState, PowerProfile
from leolora.engine import Simulator
from leolora.exceptions import ConfigError
from leolora.mac import (
    Backoff,
    DropReason,
    MacConfig,
    TxDecision,
    collides,
    nominal_backoff_base,
    phase_dif,
    run_transmission_sequence,
    select_forecast_window,
    transmit_stress,
)
from leolora.orbit import ECLIPSE, SUN, ForecastWindow

from conftest import make_scenario
from oracles import oracle_collides, oracle_resolve_collisions, oracle_select_window

PARAMS = DegradationParams(k1=5.5e-3, k2=2.0, ea_j_per_mol=35_000.0,
                           b=1.3, c=1.3, d=1.2, alpha_sei=0.0575, k_sei=121.0)
BASE_STRESS = CycleStress(dod=0.4, c_rate=12.5, temperature_k=263.0)
CAPACITY_J = 1000.0
PROFILE = PowerProfile(e_cons_tx_j=10.0, e_sleep_j=1.0)
HARVEST = HarvestModel(e_g_sun_j_per_slot=20.0, charge_rate_limit_j_per_slot=100.0)
RADIO = RadioConfig(spreading_factor=10, payload_bytes=10, tx_power_w=0.4)
TOA = time_on_air(RADIO)

# normalizes the eclipse-transmit marginal to DIF exactly 1
_ECLIPSE_MARGINAL = PROFILE.e_cons_tx_j - PROFILE.e_sleep_j
DIF_REF = cycle_aging(
    PARAMS, CycleStress(dod=0.4 + _ECLIPSE_MARGINAL / CAPACITY_J, c_rate=12.5,
                        temperature_k=263.0), 1.0
) - cycle_aging(PARAMS, BASE_STRESS, 1.0)
DIF = phase_dif(HARVEST, PROFILE, PARAMS, BASE_STRESS, CAPACITY_J, DIF_REF)


def mac(w_dif=1.0, w_energy=0.0, **kw):
    defaults = dict(beta=0.3, w_dif=w_dif, w_energy=w_energy, dif_ref=DIF_REF,
                    max_attempts=8, backoff_base_s=2.0, deadline_s=10800.0)
    defaults.update(kw)
    return MacConfig(**defaults)


def state(phi=500.0, phi_min=50.0, e_critical=100.0):
    return NodeEnergyState(phi_j=phi, phi_max_j=1000.0, phi_min_j=phi_min,
                           e_critical_j=e_critical, ewma_estimate_j=10.0)


def select(windows, energy, m=None, now=0.0, **kw):
    return select_forecast_window(windows, energy, HARVEST, PROFILE, m or mac(), DIF,
                                  now, 40.0, **kw)


class TestEstimateAvailableEnergy:
    """A window's projected energy, read from a one-window selection that picks it."""

    HARVEST = HarvestModel(e_g_sun_j_per_slot=2.0, charge_rate_limit_j_per_slot=10.0)

    def estimate(self, window, phi, profile, harvest=HARVEST, reserved=0.0):
        energy = NodeEnergyState(phi_j=phi, phi_max_j=200.0, phi_min_j=10.0, e_critical_j=20.0,
                                 reserved_j=reserved)
        result = select_forecast_window([window], energy, harvest, profile, mac(), DIF,
                                        now=0.0, slot_s=40.0)
        assert result.decision.window is window
        return result.estimate_j

    def test_eclipse_with_zero_drain_returns_phi(self):
        profile = PowerProfile(e_cons_tx_j=1.0, e_sleep_j=0.0)
        window = ForecastWindow("w", 0.0, 400.0, ECLIPSE, "gs")
        assert self.estimate(window, 50.0, profile) == 50.0

    def test_sun_projection(self):
        profile = PowerProfile(e_cons_tx_j=1.0, e_sleep_j=0.5)
        window = ForecastWindow("w", 0.0, 400.0, SUN, "gs")  # 10 slots
        assert self.estimate(window, 50.0, profile) == pytest.approx(50.0 + 20.0 - 5.0)

    def test_projection_clamped_at_capacity(self):
        profile = PowerProfile(e_cons_tx_j=1.0, e_sleep_j=0.0)
        window = ForecastWindow("w", 0.0, 1800.0, SUN, "gs")
        assert self.estimate(window, 195.0, profile) == 200.0

    def test_reservations_reduce_estimate(self):
        profile = PowerProfile(e_cons_tx_j=1.0, e_sleep_j=0.0)
        window = ForecastWindow("w", 0.0, 400.0, ECLIPSE, "gs")
        assert self.estimate(window, 50.0, profile, reserved=7.0) == 43.0

    def test_charge_rate_limit_caps_harvest(self):
        harvest = HarvestModel(e_g_sun_j_per_slot=100.0, charge_rate_limit_j_per_slot=3.0)
        assert harvest.slot_harvest(1.0) == 3.0
        assert harvest.slot_harvest(0.5) == 3.0
        # 10 slots at the 3 J limit
        profile = PowerProfile(e_cons_tx_j=1.0, e_sleep_j=0.0)
        window = ForecastWindow("w", 0.0, 400.0, SUN, "gs")
        assert self.estimate(window, 50.0, profile, harvest=harvest) == 80.0


class TestWindowDif:
    def test_sun_window_with_covering_harvest_has_zero_impact(self):
        assert DIF[SUN] == 0.0

    def test_eclipse_window_hits_the_envelope(self):
        assert DIF[ECLIPSE] == 1.0

    def test_marginal_discharge(self):
        def extra_dod(slot_harvest_j, profile=PROFILE):
            stress = transmit_stress(BASE_STRESS, CAPACITY_J, profile, slot_harvest_j)
            assert (stress.c_rate, stress.temperature_k) == (12.5, 263.0)
            return (stress.dod - BASE_STRESS.dod) * CAPACITY_J

        assert extra_dod(HARVEST.slot_harvest(1.0)) == 0.0
        assert extra_dod(0.0) == pytest.approx(9.0)
        # shortfall case: harvest covers sleep but not the transmit slot
        assert extra_dod(5.0) == pytest.approx(5.0)
        # the stress never exceeds a full discharge
        heavy = PowerProfile(e_cons_tx_j=5000.0, e_sleep_j=1.0)
        assert transmit_stress(BASE_STRESS, CAPACITY_J, heavy, 0.0).dod == 1.0

    def test_dif_is_computed_once_per_phase_per_run(self, default_dict, monkeypatch):
        calls = []
        real = mac_module.degradation_impact_factor

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mac_module, "degradation_impact_factor", counting)
        sc = make_scenario(default_dict, **{"sim.duration_days": 0.5})
        result = Simulator(sc, seed=4).run()
        assert result.summary["packets"]["delivered"] > 0
        assert len(calls) == 2


class TestChooseWindow:
    def test_lower_dif_wins_at_equal_energy(self):
        # w_dif=1, w_energy=0: objectives are the DIF values themselves
        late_good = ForecastWindow("good", 300.0, 600.0, ECLIPSE, "gs")
        early_bad = ForecastWindow("bad", 0.0, 200.0, SUN, "gs")
        result = select_forecast_window([early_bad, late_good], state(), HARVEST, PROFILE,
                                        mac(), {SUN: 0.6, ECLIPSE: 0.2}, 0.0, 40.0)
        assert result.decision.window is late_good

    def test_tie_breaks_by_earliest_start(self):
        w1 = ForecastWindow("w1", 100.0, 400.0, SUN, "gs")
        w2 = ForecastWindow("w2", 500.0, 800.0, SUN, "gs")
        result = select([w2, w1], state(), m=mac(w_dif=1.0, w_energy=1.0))
        assert result.decision.window is w1
        # same objective and start: the window id decides
        w0 = ForecastWindow("w0", 100.0, 400.0, SUN, "gs")
        assert select([w1, w0], state()).decision.window is w0

    def test_no_candidates_is_no_window(self):
        result = select([], state())
        assert result.decision.reason is DropReason.NO_WINDOW
        assert result.estimate_j is None

    def test_no_feasible_reports_earliest_failure(self):
        # phi 40 is below the reserve; the sun estimate 40 + 2 * (20 - 1) = 78 < 150
        w1 = ForecastWindow("w1", 0.0, 100.0, ECLIPSE, "gs")
        w2 = ForecastWindow("w2", 200.0, 300.0, SUN, "gs")
        result = select([w2, w1], state(phi=40.0))
        assert result.decision.reason is DropReason.BELOW_RESERVE_ECLIPSE
        assert result.estimate_j is None

    @given(st.permutations(range(6)))
    def test_permutation_invariance(self, order):
        # w_energy only: the two one-slot windows tie on the least objective
        durations = [80.0, 50.0, 400.0, 50.0, 300.0, 120.0]
        windows = [ForecastWindow(f"w{i}", 1000.0 * i, 1000.0 * i + d, SUN, "gs")
                   for i, d in enumerate(durations)]
        m = mac(w_dif=0.0, w_energy=1.0)
        baseline = select(windows, state(), m=m)
        shuffled = select([windows[i] for i in order], state(), m=m)
        assert baseline.decision.window is windows[1]
        assert shuffled.decision.window is baseline.decision.window
        assert shuffled.estimate_j == baseline.estimate_j == 500.0 + 19.0


@st.composite
def selection_cases(draw):
    """A random decision: windows of both phases with tied starts, equal
    objectives and slivers, in shuffled order, over a random energy state,
    harvest, profile, pack, weights and slot length.  A pack may be faded to
    no capacity after construction, as the engine leaves it: phi_max and
    phi both 0.0."""
    n = draw(st.integers(0, 7))
    ids = draw(st.permutations([f"w{i}" for i in range(n)]))
    windows = []
    for window_id in ids:
        start = draw(st.one_of(st.sampled_from([0.0, 40.0, 100.0, 400.0]),
                               st.floats(0.0, 3000.0)))
        duration = draw(st.one_of(st.sampled_from([0.1, 0.2, 40.0, 80.0, 400.0]),
                                  st.floats(0.01, 1800.0)))
        phase = draw(st.sampled_from([SUN, ECLIPSE]))
        windows.append(ForecastWindow(window_id, start, start + duration, phase, "gs"))
    phi_max = draw(st.sampled_from([1000.0, 1.0]) | st.floats(1.0, 1e5))
    energy = NodeEnergyState(
        phi_j=draw(st.floats(0.0, phi_max)),
        phi_max_j=phi_max,
        phi_min_j=draw(st.just(0.0) | st.floats(0.0, 0.6 * phi_max)),
        e_critical_j=draw(st.just(0.0) | st.floats(0.0, 0.6 * phi_max)),
        reserved_j=draw(st.sampled_from([0.0, 10.0]) | st.floats(0.0, 0.3 * phi_max)),
    )
    if draw(st.integers(0, 3)) == 3:
        energy.phi_max_j = energy.phi_j = 0.0
    e_sleep = draw(st.floats(0.0, 5.0))
    profile = PowerProfile(e_cons_tx_j=e_sleep + draw(st.floats(0.5, 50.0)), e_sleep_j=e_sleep)
    harvest = HarvestModel(e_g_sun_j_per_slot=draw(st.sampled_from([0.0, 3.0, 20.0]) |
                                                   st.floats(0.0, 100.0)),
                           charge_rate_limit_j_per_slot=draw(st.floats(1.0, 100.0)))
    base = CycleStress(dod=draw(st.floats(0.0, 0.9)), c_rate=draw(st.floats(0.1, 20.0)),
                       temperature_k=draw(st.floats(250.0, 320.0)))
    capacity_j = draw(st.floats(100.0, 1e5))
    dif_ref = draw(st.sampled_from([DIF_REF, 1e-30]) | st.floats(1e-9, 1.0))
    weights = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 4.0)
    w_dif, w_energy = draw(weights), draw(weights)
    if w_dif + w_energy <= 0:
        w_dif = 1.0
    m = mac(w_dif=w_dif, w_energy=w_energy, dif_ref=dif_ref)
    now = draw(st.sampled_from([0.0, 40.0]) | st.floats(0.0, 3000.0))
    min_attempt_s = draw(st.sampled_from([0.0, 0.3, 50.0]))
    slot_s = draw(st.sampled_from([40.0, 1.0, 1800.0]) | st.floats(0.05, 2000.0))
    order = draw(st.permutations(range(n)))
    return (windows, order, energy, harvest, profile, base, capacity_j, m, now, min_attempt_s,
            slot_s)


class TestOnePassSelection:
    @given(selection_cases())
    def test_matches_evaluate_all_then_choose(self, case):
        (windows, order, energy, harvest, profile, base, capacity_j, m, now, min_attempt_s,
         slot_s) = case
        dif = phase_dif(harvest, profile, PARAMS, base, capacity_j, m.dif_ref)
        got = select_forecast_window([windows[i] for i in order], energy, harvest, profile,
                                     m, dif, now, slot_s, min_attempt_s)
        window, reason, estimate = oracle_select_window(
            windows, energy, harvest, profile, PARAMS, base, capacity_j, m.dif_ref,
            m.w_dif, m.w_energy, now, slot_s, min_attempt_s,
        )
        if window is not None:
            assert got.decision.window is window
        else:
            assert got.decision.reason.value == reason
        assert repr(got.estimate_j) == repr(estimate)   # bit for bit, -0.0 apart from 0.0


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
        assert result.estimate_j is None

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
                if result.decision.window.phase == ECLIPSE:
                    assert st_.phi_j - st_.reserved_j > st_.phi_min_j
                else:
                    assert result.estimate_j >= st_.phi_min_j + st_.e_critical_j


class TestTransmissionSequence:
    WINDOW = ForecastWindow("w", 100.0, 1900.0, SUN, "gs")

    def draw(self, m, seed, start=None, end=None):
        start = self.WINDOW.start if start is None else start
        end = self.WINDOW.end if end is None else end
        return run_transmission_sequence(start, end, TOA, m, np.random.default_rng(seed))

    def test_single_attempt_zero_backoff_at_window_start(self):
        assert self.draw(mac(max_attempts=1, backoff_base_s=0.0), 0) == [100.0]

    def test_identical_seeds_identical_schedules(self):
        m = mac()
        assert self.draw(m, 42) == self.draw(m, 42)

    def test_attempts_fit_inside_window(self):
        m = mac()
        for seed in range(50):
            starts = self.draw(m, seed)
            assert len(starts) <= m.max_attempts
            for s in starts:
                assert self.WINDOW.start <= s and s + TOA <= self.WINDOW.end

    def test_short_window_truncates_sequence(self):
        starts = self.draw(mac(backoff_base_s=2.0), 1, start=0.0, end=1.0)
        assert len(starts) <= 2

    def test_not_before_shifts_start(self):
        assert self.draw(mac(max_attempts=1, backoff_base_s=0.0), 0, start=500.0) == [500.0]

    def test_nominal_backoff_base_spans_the_slot_budget(self):
        b0 = nominal_backoff_base(RADIO, 40.0, 8)
        assert b0 == pytest.approx(2.0938808888888887, rel=1e-12)
        toa = time_on_air(RADIO)
        expected_mean = b0 * 8 * 9 / 4.0 + 8 * toa
        assert expected_mean == pytest.approx(40.0, rel=1e-12)


B0 = nominal_backoff_base(RADIO, 40.0, 8)


class TestBackoff:
    # every backoff span the engine draws, 0 included, and spans off zero
    RANGES = [(0.0, k * B0) for k in range(9)] + [(3.5, 3.5), (-2.0, 7.25), (1e6, 1e6 + 0.5)]

    def test_block_draws_give_generator_uniform_floats(self):
        # 3 streams x 4,000 draws cross 62 block boundaries each
        for seed in (0, 1, 2):
            backoff, scalar = Backoff(np.random.default_rng(seed)), np.random.default_rng(seed)
            ranges = [self.RANGES[i % len(self.RANGES)] for i in range(4000)]
            assert ([backoff.uniform(lo, hi).hex() for lo, hi in ranges]
                    == [scalar.uniform(lo, hi).hex() for lo, hi in ranges])

    def test_sequences_match_a_plain_generator(self):
        m = mac(backoff_base_s=B0)
        backoff, scalar = Backoff(np.random.default_rng(9)), np.random.default_rng(9)
        for start in range(0, 300_000, 1000):
            end = start + 40.0 + start % 7000 / 100.0
            assert (run_transmission_sequence(start, end, TOA, m, backoff)
                    == run_transmission_sequence(start, end, TOA, m, scalar))

    @pytest.mark.parametrize("low, high", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0),
                                           (-math.inf, 0.0), (-1e308, 1e308), (1.0, 0.0)])
    def test_a_range_numpy_rejects_is_a_value_error(self, low, high):
        with pytest.raises((OverflowError, ValueError)):
            np.random.default_rng(0).uniform(low, high)
        with pytest.raises(ValueError, match="backoff range"):
            Backoff(np.random.default_rng(0)).uniform(low, high)

    def test_a_finite_base_that_overflows_at_k_b0_is_a_value_error(self):
        # the first attempt fits; the second attempt's span 2 * 1e308 is inf
        with pytest.raises(ValueError, match="backoff range"):
            run_transmission_sequence(0.0, math.inf, TOA, mac(backoff_base_s=1e308),
                                      Backoff(np.random.default_rng(0)))


@st.composite
def missed_round_cases(draw):
    """(seed, doubles used before, attempt ranges, toa, b0): P of 1-8 ranges, slack in [0, b0].

    One range has room for a hit once in at most 3,000 draws, so the scan
    ends; tiny slacks make it run past the buffer and across blocks.
    """
    b0 = draw(st.sampled_from([B0, 1.0, 60.0]))
    p = draw(st.integers(1, 8))
    share = st.floats(0.0, 1.0) | st.floats(0.0, 1e-3) | st.just(0.0)
    shares = draw(st.lists(share, min_size=p, max_size=p))
    i = draw(st.integers(0, p - 1))
    shares[i] = max(shares[i], draw(st.floats(1 / 3000, 1.0) | st.floats(1 / 3000, 1 / 300)))
    t0 = draw(st.floats(0.0, 4e5))
    rounds = [(t0 + 10.0 * k, t0 + 10.0 * k + TOA + f * b0) for k, f in enumerate(shares)]
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 200)), rounds, TOA, b0


def first_hit(case) -> int:
    """The index of the first draw that hits, drawn round-robin one attempt at a time."""
    seed, used, rounds, toa, b0 = case
    rng, one_attempt = np.random.default_rng(seed), mac(max_attempts=1, backoff_base_s=b0)
    for _ in range(used):
        rng.uniform(0.0, b0)
    for j in itertools.count():
        start, end = rounds[j % len(rounds)]
        if run_transmission_sequence(start, end, toa, one_attempt, rng):
            return j


def check_skip(case) -> tuple[int, int]:
    """Skip rounds on a `Backoff` and match the scalar draws; return (first hit, buffered)."""
    seed, used, rounds, toa, b0 = case
    backoff = Backoff(np.random.default_rng(seed))
    for _ in range(used):
        backoff.uniform(0.0, b0)
    buffered = len(backoff._doubles)
    hit = first_hit(case)
    assert backoff.skip_missed_rounds(rounds, toa, b0) == hit - hit % len(rounds)
    scalar = np.random.default_rng(seed)
    for _ in range(used + hit - hit % len(rounds)):
        scalar.uniform(0.0, b0)
    later = len(backoff._doubles) + 2 * Backoff.BLOCK
    assert ([backoff.uniform(0.0, b0).hex() for _ in range(later)]
            == [scalar.uniform(0.0, b0).hex() for _ in range(later)])
    return hit, buffered


# the hit in the buffer; the hit's round begun in the buffer and the hit in
# the first block; the hit two blocks on
SKIP_CASES = [(7, 10, [(100.0, 100.0 + TOA + 0.5 * B0)], TOA, B0),
              (0, 62, [(0.0, TOA), (10.0, 10.0 + TOA), (20.0, 20.0 + TOA + 0.5 * B0)], TOA, B0),
              (11, 0, [(5.0, 5.0 + TOA), (15.0, 15.0 + TOA + 1e-3)], TOA, 1.0)]


def exact_fit(seed, used):
    """A one-range case whose first draw after `used` lands its attempt exactly on the end."""
    u = np.random.default_rng(seed).random(used + 1)[-1]
    start = 1000.0
    return seed, used, [(start, start + B0 * u + TOA)], TOA, B0


class TestSkipMissedRounds:
    @given(missed_round_cases())
    @example(SKIP_CASES[0])
    @example(SKIP_CASES[1])
    @example(SKIP_CASES[2])
    # an attempt that ends exactly on the range's end hits, in the buffer and in a block
    @example(exact_fit(5, 3))
    @example(exact_fit(5, 64))
    def test_matches_round_robin_scalar_draws(self, case):
        check_skip(case)

    def test_the_pinned_cases_reach_the_buffer_and_block_edges(self):
        (hit0, buffered0), (hit1, buffered1), (hit2, buffered2) = map(check_skip, SKIP_CASES)
        assert hit0 < buffered0
        p = len(SKIP_CASES[1][2])
        assert hit1 - hit1 % p < buffered1 <= hit1 < buffered1 - buffered1 % p + 64 // p * p
        assert hit2 > 2 * Backoff.BLOCK


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


def attempt(start, receiver="gw"):
    return (start, receiver)


LAWS = {"oracle": oracle_collides, "collides": collides}


class TestCollisionLaw:
    """`collides` pair by pair, and the oracle's sweep under its own law and under `collides`."""

    @pytest.mark.parametrize("a, b, expected", [
        (attempt(0.0), attempt(0.5), True),                     # full overlap
        (attempt(0.5), attempt(0.0), True),
        (attempt(0.0), attempt(1.0), False),                    # touching intervals
        (attempt(1.0), attempt(0.0), False),
        (attempt(0.0), attempt(0.0), True),                     # the same instant
        (attempt(0.0, "a"), attempt(0.5, "b"), False),          # different receivers
        (attempt(0.0), attempt(2.0), False),                    # apart
    ])
    def test_collides(self, a, b, expected):
        assert collides(a, b, 1.0) is expected
        assert oracle_collides(a, b, 1.0) is expected

    def test_collides_reads_start_and_receiver_alone(self):
        # the engine's records carry a third field, the end event's sequence number
        assert collides((0.0, "gw", 7), (0.5, "gw", 3), 1.0)
        assert not collides((0.0, "gw", 7), (1.0, "gw", 3), 1.0)

    @given(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5), st.floats(1e-3, 10.0),
           st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]))
    def test_collides_agrees_with_oracle(self, s1, s2, airtime, r1, r2):
        a, b = (s1, r1), (s2, r2)
        assert collides(a, b, airtime) == collides(b, a, airtime) == oracle_collides(a, b, airtime)

    @pytest.mark.parametrize("law", LAWS.values(), ids=list(LAWS))
    @pytest.mark.parametrize("attempts, expected", [
        ([attempt(0.0)], [True]),                                           # single attempt
        ([attempt(0.0), attempt(0.5)], [False, False]),                     # full overlap
        ([attempt(0.0), attempt(1.0)], [True, True]),                       # touching
        ([attempt(0.0, "a"), attempt(0.5, "b")], [True, True]),             # receivers
        # a-b overlap, b-c overlap, a-c do not: only b collides with both
        ([attempt(0.0), attempt(0.9), attempt(1.8)], [False, False, False]),
        ([attempt(0.0), attempt(2.0), attempt(4.0)], [True, True, True]),
        ([attempt(1.8), attempt(0.0), attempt(0.9)], [False, False, False]),  # any order
    ], ids=["single", "full_overlap", "touching", "receivers", "chain", "apart", "unsorted"])
    def test_sweep(self, law, attempts, expected):
        assert oracle_resolve_collisions(attempts, 1.0, law) == expected

    @pytest.mark.parametrize("law", LAWS.values(), ids=list(LAWS))
    def test_sweep_matches_quadratic_reference(self, law):
        rng = np.random.default_rng(3)
        starts = rng.uniform(0.0, 200.0, size=300)
        attempts = [attempt(float(s)) for s in starts]
        got = oracle_resolve_collisions(attempts, 1.0, law)
        for i, a in enumerate(attempts):
            expected = not any(
                j != i and a[0] < b[0] + 1.0 and b[0] < a[0] + 1.0
                for j, b in enumerate(attempts)
            )
            assert got[i] == expected
