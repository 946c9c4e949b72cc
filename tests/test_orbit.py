"""Phase timeline, ground track, and visibility-window geometry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import oracle_phase_at, oracle_sun_seconds, oracle_visibility_windows

from leolora import engine, orbit
from leolora.config import default_scenario_dict, load_schedule_override, parse_scenario
from leolora.orbit import (
    ECLIPSE,
    SUN,
    ForecastWindow,
    GroundStation,
    OrbitConfig,
    Schedule,
    build_schedule,
    max_central_angle,
    next_phase_boundary,
    phase_at,
    sun_seconds,
    sunlit_seconds,
)

ORBIT = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                    inclination_rad=0.925)


class TestPhase:
    def test_ten_minutes_in_is_sunlit(self):
        assert phase_at(ORBIT, 600.0) == SUN

    def test_sixty_minutes_in_is_eclipsed(self):
        assert phase_at(ORBIT, 3600.0) == ECLIPSE

    def test_periodicity(self):
        for t in (0.0, 123.0, 3299.0, 3300.0, 5000.0):
            assert phase_at(ORBIT, t) == phase_at(ORBIT, t + 5400.0)

    def test_phase_offset_shifts_timeline(self):
        shifted = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                              inclination_rad=0.925, phase_offset_rad=math.pi)
        # half a period in: what was sun at t=0 is now 2700 s along
        assert phase_at(shifted, 0.0) == SUN       # 2700 < 3300
        assert phase_at(shifted, 601.0) == ECLIPSE  # 3301 >= 3300

    @given(period=st.floats(60.0, 7000.0), sun_share=st.floats(0.01, 1.0),
           phase=st.floats(0.0, 6.28), t=st.floats(0.0, 1e8))
    def test_phase_at_agrees_with_the_modulo_rule_away_from_edges(self, period, sun_share,
                                                                  phase, t):
        orbit = OrbitConfig(period_s=period, sun_duration_s=sun_share * period,
                            altitude_m=550e3, inclination_rad=0.9, phase_offset_rad=phase)
        u = (t + orbit.phase_time_offset_s) % period
        assume(min(u, abs(u - orbit.sun_duration_s), period - u) > 1e-6)
        assert phase_at(orbit, t) == oracle_phase_at(orbit, t)

    # orbits whose modulo stepping stalled: an edge step that returned its
    # own input, or a sunrise chain whose 1e-9 s nudge fell below one ulp
    @pytest.mark.parametrize("period, sun", [(5677.3, 3411.1), (5736.6, 3500.0),
                                             (5554.2, 3350.5)])
    @pytest.mark.parametrize("phase", [0.0, 1.0])
    def test_three_years_of_edges_lie_on_the_sunrise_grid(self, period, sun, phase):
        orbit = OrbitConfig(period_s=period, sun_duration_s=sun, altitude_m=550e3,
                            inclination_rad=0.9, phase_offset_rad=phase)
        horizon = 3 * 365 * 86400.0
        first, n = -orbit.phase_time_offset_s, int(horizon // period) + 3
        # sunrise m at -offset + m * period, its sunset sun_duration_s later
        grid = sorted([(first + m * period, SUN) for m in range(1, n)]
                      + [(first + m * period + sun, ECLIPSE) for m in range(n)])
        grid = [e for e in grid if e[0] > 0.0]
        edges, t, phase_now = [], 0.0, phase_at(orbit, 0.0)
        while t < horizon:
            edge = next_phase_boundary(orbit, t)
            assert edge[0] > t and edge[1] != phase_now and phase_at(orbit, edge[0]) == edge[1]
            edges.append(edge)
            t, phase_now = edge
        assert edges == grid[:len(edges)]

    def test_an_orbit_sunlit_throughout_has_sunrises_only(self):
        orbit = OrbitConfig(period_s=5400.0, sun_duration_s=5400.0, altitude_m=550e3,
                            inclination_rad=0.9, phase_offset_rad=1.0)
        first = -orbit.phase_time_offset_s
        t = 0.0
        for m in range(1, 1000):
            t, begins = next_phase_boundary(orbit, t)
            assert (t, begins) == (first + m * 5400.0, SUN)
            assert phase_at(orbit, math.nextafter(t, 0.0)) == SUN

    @given(k=st.integers(1, 10_000))
    def test_sun_fraction_exact_over_whole_orbits(self, k):
        span = k * ORBIT.period_s
        frac = sun_seconds(ORBIT, 0.0, span) / span
        assert frac == 3300.0 / 5400.0

    @given(
        period=st.floats(60.0, 7000.0),
        sun_share=st.floats(0.01, 1.0),
        phase=st.floats(0.0, 6.28),
        slot_s=st.floats(1.0, 300.0),
        offset_share=st.floats(0.0, 1.0, exclude_max=True),
        first=st.integers(0, 100_000),
        n=st.integers(0, 60),
    )
    def test_per_slot_sunlit_time_is_bit_for_bit_sun_seconds(
        self, period, sun_share, phase, slot_s, offset_share, first, n
    ):
        orbit = OrbitConfig(period_s=period, sun_duration_s=sun_share * period,
                            altitude_m=550e3, inclination_rad=0.9, phase_offset_rad=phase)
        self._check_against_oracle(orbit, offset_share * slot_s, slot_s, first, n)

    @pytest.mark.parametrize("phase, offset, slot_s, first, n", [
        # no phase offset: edges on sunsets (3300 + 5400 j) and on the
        # sunrises at whole periods
        (0.0, 0.0, 60.0, 0, 200),
        (0.0, 0.0, 300.0, 17, 40),
        # half a period of phase offset (2700 s, exact): a sunset at t = 600,
        # sunrises at t = 2700 + 5400 j, and whole periods of t mid-eclipse
        (math.pi, 0.0, 300.0, 0, 60),
        (math.pi, 0.0, 100.0, 100, 120),
    ])
    def test_per_slot_sunlit_time_on_phase_edges(self, phase, offset, slot_s, first, n):
        orbit = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                            inclination_rad=0.9, phase_offset_rad=phase)
        off = orbit.phase_time_offset_s
        edges = [offset + k * slot_s + off for k in range(first, first + n + 1)]
        assert any((u - 3300.0) % 5400.0 == 0.0 for u in edges)   # a sunset
        assert any(u % 5400.0 == 0.0 and u > 0.0 for u in edges)   # a sunrise, a whole period
        self._check_against_oracle(orbit, offset, slot_s, first, n)

    @staticmethod
    def _check_against_oracle(orbit, offset, slot_s, first, n):
        """Both sunlit-time paths equal the oracle's difference, bit for bit.

        `sunlit_seconds` is also given the edges as the engine makes them,
        one array of slot indices scaled and offset at once.
        """
        edges = [offset + k * slot_s for k in range(first, first + n + 1)]
        want = [oracle_sun_seconds(orbit, a, b).hex() for a, b in zip(edges, edges[1:])]
        assert [x.hex() for x in sunlit_seconds(orbit, edges)] == want
        ticks = offset + np.arange(first, first + n + 1) * slot_s
        assert [x.hex() for x in sunlit_seconds(orbit, ticks)] == want
        assert [sun_seconds(orbit, a, b).hex() for a, b in zip(edges, edges[1:])] == want

    @given(t=st.floats(0.0, 1e6), k=st.integers(1, 20))
    def test_sun_fraction_from_arbitrary_start(self, t, k):
        span = k * ORBIT.period_s
        frac = sun_seconds(ORBIT, t, t + span) / span
        assert frac == pytest.approx(3300.0 / 5400.0, rel=1e-12)

    def test_sun_seconds_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t0 = float(rng.uniform(0, 20000))
            t1 = t0 + float(rng.uniform(1, 9000))
            fine = np.arange(t0, t1, 0.25)
            brute = 0.25 * sum(phase_at(ORBIT, float(t)) == SUN for t in fine)
            assert sun_seconds(ORBIT, t0, t1) == pytest.approx(brute, abs=0.5)


def _ulps_around(t: float, n: int) -> list[float]:
    """t and the n floats either side of it."""
    below, above = [t], [t]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestSunlitNumerics:
    """The numpy float64 operations `sunlit_seconds` takes its values from are CPython's.

    It evaluates the scalar divmod formula on arrays, so its exactness
    rests on numpy's float `divmod`, `*`, `+`, `-` and `where` giving the
    bits CPython's scalar operations give, on every numpy the project admits.
    """

    PERIODS = (5400.0, 5677.3, 3411.1)
    ORBITS = [OrbitConfig(period_s=p, sun_duration_s=s, altitude_m=550e3, inclination_rad=0.9,
                          phase_offset_rad=phase)
              for p, s, phase in ((5400.0, 3300.0, 0.0), (5677.3, 3411.1, 1.0),
                                  (3411.1, 2000.3, 2.5))]

    @pytest.mark.parametrize("period", PERIODS)
    def test_numpy_divmod_is_cpython_divmod(self, period):
        rng = np.random.default_rng(11)
        times = rng.uniform(0.0, 1.3e8, 20_000).tolist()   # four years of orbit time
        times += (rng.uniform(0.0, 1.0, 2_000) * 10.0 ** rng.integers(-12, 9, 2_000)).tolist()
        multiples = [0, 1, 2, 3, 7, 100, 12_345, 23_000, 10**6]
        for m in multiples + rng.integers(0, 24_000, 200).tolist():
            times += _ulps_around(m * period, 1)
        times += [-t for t in times]   # zeros, quotients and remainders of either sign
        full, rem = np.divmod(np.array(times), period)
        got = [(q.hex(), r.hex()) for q, r in zip(full.tolist(), rem.tolist())]
        assert got == [(q.hex(), r.hex()) for q, r in (divmod(t, period) for t in times)]

    @pytest.mark.parametrize("config", ORBITS, ids=["5400", "5677.3", "3411.1"])
    def test_slots_within_three_ulps_of_a_phase_edge_match_the_oracle(self, config):
        first, period = -config.phase_time_offset_s, config.period_s
        rng = np.random.default_rng(12)
        checked = 0
        for m in [1, 2, 3, 50, 1000] + rng.integers(1, 23_000, 40).tolist():
            for edge in (first + m * period, first + m * period + config.sun_duration_s):
                for slot_s in (40.0, 33.3, 7.3):
                    for t in _ulps_around(edge, 3):
                        # a slot that ends at t, then one that starts there
                        times = [t - slot_s, t, t + slot_s]
                        want = [oracle_sun_seconds(config, a, b).hex()
                                for a, b in zip(times, times[1:])]
                        assert [x.hex() for x in sunlit_seconds(config, times)] == want
                        checked += 2
        assert checked == 45 * 2 * 3 * 7 * 2


def _track_point(config, t):
    """(latitude, unwrapped longitude) of the ground track at time t, as builds compute it."""
    sin_lat, _, lon = orbit._ground_track(config, np.array([t]))
    return float(np.arcsin(sin_lat[0])), float(lon[0])


class TestGroundTrack:
    def test_equatorial_orbit_stays_on_equator(self):
        eq = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                         inclination_rad=0.0)
        for t in (0.0, 100.0, 2345.0, 5399.0):
            lat, _ = _track_point(eq, t)
            assert lat == 0.0

    def test_polar_orbit_reaches_pole(self):
        polar = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                            inclination_rad=math.pi / 2)
        t_apex = 5400.0 / 4.0  # quarter orbit after ascending node
        lat, _ = _track_point(polar, t_apex)
        assert lat == pytest.approx(math.pi / 2, abs=1e-9)

    def test_half_period_latitude_antisymmetry(self):
        for t in (100.0, 700.0, 1300.0):
            lat1, _ = _track_point(ORBIT, t)
            lat2, _ = _track_point(ORBIT, t + 2700.0)
            assert lat1 == pytest.approx(-lat2, abs=1e-9)

    @given(t=st.floats(0.0, 1e6))
    def test_latitude_bounded_by_inclination(self, t):
        lat, _ = _track_point(ORBIT, t)
        assert abs(lat) <= ORBIT.inclination_rad + 1e-12


class TestVisibility:
    STATION = GroundStation(id="gs", latitude_rad=0.0, longitude_rad=0.0,
                            min_elevation_rad=math.radians(10))

    def test_polar_station_never_sees_equatorial_orbit(self):
        eq = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                         inclination_rad=0.0)
        pole = GroundStation(id="pole", latitude_rad=math.pi / 2, longitude_rad=0.0,
                             min_elevation_rad=math.radians(10))
        assert build_schedule(eq, [pole], 86400.0, 5.0).windows == ()

    def test_lambda_max_shrinks_to_zero_at_ground_level(self):
        assert max_central_angle(1.0, 0.0) == pytest.approx(0.0, abs=1e-3)
        assert max_central_angle(550e3, 0.0) > 0.0

    def test_all_windows_capped_at_thirty_minutes(self):
        eq = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=550e3,
                         inclination_rad=0.0)
        windows = build_schedule(eq, [self.STATION], 86400.0, 1.0).windows
        assert windows
        for w in windows:
            assert w.duration <= 1800.0 + 1e-9

    def test_windows_match_brute_force_sampling(self):
        windows = build_schedule(ORBIT, [self.STATION], 43200.0, 1.0).windows
        lam = max_central_angle(ORBIT.altitude_m, self.STATION.min_elevation_rad)
        for w in windows[:3]:
            mid = 0.5 * (w.start + w.end)
            lat, lon = _track_point(ORBIT, mid)
            cos_c = (math.sin(lat) * math.sin(self.STATION.latitude_rad)
                     + math.cos(lat) * math.cos(self.STATION.latitude_rad)
                     * math.cos(lon - self.STATION.longitude_rad))
            assert math.acos(min(max(cos_c, -1.0), 1.0)) <= lam + 1e-9

    def test_step_refinement_moves_boundaries_by_at_most_one_coarse_step(self):
        coarse = build_schedule(ORBIT, [self.STATION], 21600.0, 4.0).windows
        fine = build_schedule(ORBIT, [self.STATION], 21600.0, 1.0).windows
        assert len(coarse) == len(fine)
        for wc, wf in zip(coarse, fine):
            assert abs(wc.start - wf.start) <= 4.0 + 1e-9
            assert abs(wc.end - wf.end) <= 4.0 + 1e-9

    def test_phase_tag_matches_midpoint(self):
        windows = build_schedule(ORBIT, [self.STATION], 43200.0, 1.0).windows
        for w in windows:
            assert w.phase == phase_at(ORBIT, 0.5 * (w.start + w.end))

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(ORBIT, [self.STATION], 0.0, 1.0, 100.0)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_windows_identical_to_dense_scan(self, data):
        orbit = data.draw(_orbits, label="orbit")
        step = data.draw(_steps, label="step")
        t0 = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), label="t0")
        # at most ~20k samples; a horizon under one step leaves a single sample
        horizon = step * data.draw(st.floats(1e-3, 2e4), label="horizon / step")
        station = data.draw(_stations(orbit, t0, t0 + horizon), label="station")
        got = build_schedule(orbit, [station], horizon, step, t0).windows
        assert [(w.window_id, w.start, w.end, w.phase) for w in got] == \
            oracle_visibility_windows(orbit, station, t0, t0 + horizon, step)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_schedule_from_one_track_equals_dense_scan_per_station(self, data):
        orbit = data.draw(_orbits, label="orbit")
        step = data.draw(_steps, label="step")
        t0 = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), label="t0")
        # at most ~10k samples; a horizon under one step leaves a single sample
        horizon = step * data.draw(st.floats(1e-3, 1e4), label="horizon / step")
        drawn = data.draw(st.lists(_stations(orbit, t0, t0 + horizon), min_size=1, max_size=4),
                          label="stations")
        stations = [dataclasses.replace(s, id=f"gs{k}") for k, s in enumerate(drawn)]
        sched = build_schedule(orbit, stations, horizon, step, t0)
        for s in stations:
            got = [(w.window_id, w.start, w.end, w.phase)
                   for w in sched.windows if w.target == s.id]
            assert got == oracle_visibility_windows(orbit, s, t0, t0 + horizon, step)

    def test_overhead_pass_evaluates_fewer_samples_than_it_holds(self, monkeypatch):
        # a high orbit seen down to the horizon: its cone spans about 19 minutes,
        # and the intervals well inside it are visible without evaluation
        high = OrbitConfig(period_s=5400.0, sun_duration_s=3300.0, altitude_m=2000e3,
                           inclination_rad=0.9, phase_offset_rad=0.3, raan_rad=0.2)
        lat, lon = _track_point(high, 2000.0)
        overhead = GroundStation(id="gs", latitude_rad=lat, longitude_rad=lon)
        evaluated = []
        track = orbit._ground_track
        monkeypatch.setattr(orbit, "_ground_track",
                            lambda config, times: evaluated.append(times.size) or
                            track(config, times))
        windows = build_schedule(high, [overhead], 5400.0, 1.0).windows
        assert [(w.window_id, w.start, w.end, w.phase) for w in windows] == \
            oracle_visibility_windows(high, overhead, 0.0, 5400.0, 1.0)
        assert len(windows) == 1 and windows[0].duration > 1000.0
        assert evaluated[0] == 10   # the first level's track, every 600 s
        assert sum(evaluated) < windows[0].duration / 3

    def test_steady_build_evaluates_few_samples(self, monkeypatch):
        # 8 nodes x 4 days on a 1 s grid over 4 stations: a scan of every
        # sample takes 11,059,200, the first level's track alone 4,616, and
        # the build 59,386
        d = default_scenario_dict()
        d["sim"].update(duration_days=4.0, node_count=8, protocol="battery_aware",
                        traffic_rate_per_s=1.0 / 600.0)
        scenario = parse_scenario(d)
        assert len(scenario.stations) == 4 and scenario.sim.schedule_step_s == 1.0
        evaluated = [0]
        track = orbit._ground_track

        def counting(config, times):
            evaluated[0] += times.size
            return track(config, times)

        monkeypatch.setattr(orbit, "_ground_track", counting)
        engine.build_schedules(scenario)
        assert evaluated[0] <= 68_000

    @pytest.mark.parametrize("days, nodes", [(4.0, 8), (1.0, 4)], ids=["steady", "sweep"])
    def test_no_sample_of_the_bench_scenarios_is_near_the_cone_edge(self, days, nodes):
        # a build's windows are a full scan's, and every digest stays put, only
        # while each sample's cos c is further from cos(lam_max) than an ulp-level
        # libm or SIMD difference can move it; the closest on both is 1.9e-8
        d = default_scenario_dict()
        d["sim"].update(duration_days=days, node_count=nodes)
        scenario = parse_scenario(d)
        step = scenario.sim.schedule_step_s
        times = step * np.arange(int(math.floor(scenario.sim.duration_s / step)) + 1)
        closest = math.inf
        for u in range(nodes):
            config = scenario.node_orbit(u)
            track = orbit._ground_track(config, times)
            for s in scenario.stations:
                cos_c = orbit._cos_central_angle(math.sin(s.latitude_rad),
                                                 math.cos(s.latitude_rad), s.longitude_rad, track)
                cos_lam = math.cos(max_central_angle(config.altitude_m, s.min_elevation_rad))
                closest = min(closest, float(np.abs(cos_c - cos_lam).min()))
        assert closest >= 1e-12


_angles = st.floats(-math.pi, math.pi)
# grid steps either side of the search levels' spans (600 s, 60 s, 8 s)
_steps = st.one_of(st.floats(0.5, 60.0), st.floats(60.0, 400.0),
                   st.sampled_from([7.9, 8.0, 8.1, 59.9, 60.0, 600.0, 601.0]))
_orbits = st.builds(
    lambda period, sun_share, altitude, inclination, phase, raan: OrbitConfig(
        period_s=period, sun_duration_s=sun_share * period, altitude_m=altitude,
        inclination_rad=inclination, phase_offset_rad=phase, raan_rad=raan),
    period=st.floats(5000.0, 8000.0),
    sun_share=st.floats(0.3, 1.0),
    altitude=st.floats(300e3, 2000e3),
    # prograde, retrograde, and exactly equatorial either way
    inclination=st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                          st.floats(0.0, math.pi)),
    phase=_angles,
    raan=_angles,
)


def _stations(orbit, t0, t1):
    """Stations anywhere (poles included), or near the ground track within [t0, t1].

    A station near the track sits up to one cone radius off it, so its
    passes range from overhead to grazing; track times near t1 put passes
    at the end of the horizon.
    """
    anywhere = st.tuples(
        st.one_of(st.sampled_from([-math.pi / 2, math.pi / 2]),
                  st.floats(-math.pi / 2, math.pi / 2)),
        _angles,
    )
    track_time = st.one_of(st.floats(t0, t1), st.floats(max(t0, t1 - 120.0), t1))

    @st.composite
    def near_track(draw, el):
        lat, lon = _track_point(orbit, draw(track_time))
        d = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))) * \
            max_central_angle(orbit.altitude_m, el)
        bearing = draw(_angles)
        sin_lat2 = math.sin(lat) * math.cos(d) + math.cos(lat) * math.sin(d) * math.cos(bearing)
        lat2 = math.asin(min(max(sin_lat2, -1.0), 1.0))
        lon2 = lon + math.atan2(math.sin(bearing) * math.sin(d) * math.cos(lat),
                                math.cos(d) - math.sin(lat) * math.sin(lat2))
        return lat2, lon2

    @st.composite
    def station(draw):
        el = draw(st.one_of(st.floats(0.0, 0.5), st.floats(0.5, math.pi / 2 - 1e-6)))
        lat, lon = draw(st.one_of(anywhere, near_track(el)))
        return GroundStation(id="gs", latitude_rad=lat, longitude_rad=lon,
                             min_elevation_rad=el)

    return station()


class TestSchedule:
    def test_no_stations_gives_empty_schedule(self):
        sched = build_schedule(ORBIT, [], horizon=86400.0)
        assert sched.windows == ()

    def test_deterministic_regeneration(self):
        station = GroundStation(id="gs", latitude_rad=0.3, longitude_rad=1.0,
                                min_elevation_rad=0.1745)
        a = build_schedule(ORBIT, [station], horizon=43200.0, step=2.0)
        b = build_schedule(ORBIT, [station], horizon=43200.0, step=2.0)
        assert a == b

    def test_overlapping_windows_same_target_rejected(self):
        w1 = ForecastWindow("a", 0.0, 100.0, SUN, "gs")
        w2 = ForecastWindow("b", 50.0, 150.0, SUN, "gs")
        with pytest.raises(ValueError):
            Schedule(windows=(w1, w2))

    def test_window_invariants(self):
        with pytest.raises(ValueError):
            ForecastWindow("w", 100.0, 100.0, SUN, "gs")
        with pytest.raises(ValueError):
            ForecastWindow("w", 0.0, 1801.0, SUN, "gs")
        with pytest.raises(ValueError):
            ForecastWindow("w", 0.0, 100.0, "night", "gs")

    def test_candidates_filters_by_time(self):
        w1 = ForecastWindow("a", 0.0, 100.0, SUN, "gs")
        w2 = ForecastWindow("b", 200.0, 300.0, SUN, "gs")
        sched = Schedule(windows=(w1, w2))
        assert sched.candidates(now=150.0, deadline=1000.0) == [w2]
        assert sched.candidates(now=0.0, deadline=150.0) == [w1]

    def test_candidates_keep_a_window_of_the_longest_duration_open(self):
        # a duration just over MAX_WINDOW_S is within the rounding slack
        w = ForecastWindow("a", 1000.0, 2800.0 + 9e-7, SUN, "gs")
        sched = Schedule(windows=(w,))
        assert sched.candidates(now=2800.0 + 5e-7, deadline=2900.0) == [w]
        assert sched.candidates(now=w.end, deadline=2900.0) == []


@st.composite
def candidate_queries(draw):
    """A schedule of up to three targets' windows, and a (now, deadline, account_end)
    query whose times may sit on window edges."""
    windows = []
    for target in draw(st.sets(st.sampled_from(["a", "b", "c"]), max_size=3)):
        t = draw(st.floats(0.0, 3000.0))
        for k in range(draw(st.integers(0, 6))):
            start = t + draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 4000.0))
            end = start + draw(st.sampled_from([orbit.MAX_WINDOW_S, 0.5]) |
                               st.floats(0.01, orbit.MAX_WINDOW_S))
            windows.append(ForecastWindow(f"{target}:{k}", start, end, SUN, target))
            t = end
    edges = [w.start for w in windows] + [w.end for w in windows]
    time = st.floats(0.0, 40_000.0) | (st.sampled_from(edges) if edges else st.nothing())
    now = draw(time)
    deadline = draw(time | st.floats(0.0, 20_000.0).map(lambda span: now + span))
    return Schedule(windows=tuple(windows)), now, deadline, draw(time | st.just(math.inf))


class TestCandidateQuery:
    @given(candidate_queries())
    def test_one_pass_matches_query_then_filter(self, query):
        schedule, now, deadline, account_end = query
        got = schedule.candidates(now, deadline, account_end)
        assert got == [w for w in schedule.candidates(now, deadline) if w.end <= account_end]
        # and a scan of every window, in schedule order
        assert got == [w for w in schedule.windows
                       if w.start < deadline and now < w.end <= account_end]


class TestScheduleOverride:
    RECORDS = [
        {"node": 0, "target": "gs", "start_s": 0.0, "end_s": 600.0, "phase": "sun"},
        {"node": 0, "target": "gs", "start_s": 4000.0, "end_s": 4500.0, "phase": "eclipse"},
        {"node": 1, "target": "gs", "start_s": 100.0, "end_s": 700.0, "phase": "sun"},
    ]

    def test_round_trip(self, tmp_path):
        import json

        path = tmp_path / "override.json"
        path.write_text(json.dumps(self.RECORDS))
        per_node = load_schedule_override(path)
        assert set(per_node) == {0, 1}
        assert len(per_node[0].windows) == 2
        assert per_node[0].windows[0].phase == SUN

    def test_invariants_enforced(self):
        bad = [{"node": 0, "target": "gs", "start_s": 10.0, "end_s": 5.0, "phase": "sun"}]
        with pytest.raises(ValueError):
            load_schedule_override(bad)
        # a record that is not an object, whose node or times are not
        # finite numbers (node a whole one, within the uplink's uint16
        # node_id), whose target is not a non-empty string, or whose window
        # breaks a window's own checks, is named by its index
        good = self.RECORDS[0]
        for record in ([1, 2], None, "0", {**good, "node": None}, {**good, "node": "0"},
                       {**good, "node": True}, {**good, "node": 1.5}, {**good, "node": -1},
                       {**good, "node": 65536}, {**good, "node": 10**40},
                       {**good, "node": float("inf")}, {**good, "start_s": None},
                       {**good, "start_s": "0"}, {**good, "end_s": float("nan")},
                       {**good, "end_s": 10**400}, {**good, "target": None},
                       {**good, "target": ""}, {**good, "start_s": 700.0, "end_s": 600.0},
                       {**good, "end_s": 5000.0}, {**good, "phase": "dusk"},
                       {**good, "phase": 5},
                       # the later of two windows that overlap on one target
                       {**good, "start_s": 300.0, "end_s": 900.0}):
            with pytest.raises(ValueError, match="override record 1"):
                load_schedule_override([good, record])
        # ids are strings, so windows sharing a start still sort by id
        per_node = load_schedule_override([{**good, "window_id": 1}, {**good, "target": "b"}])
        assert [w.window_id for w in per_node[0].windows] == ["1", "b:override:1"]
        assert set(load_schedule_override([{**good, "node": 65535}])) == {65535}

    def test_an_overlap_names_the_later_window_in_time(self):
        good = self.RECORDS[0]
        with pytest.raises(ValueError, match=r"^override record 0: windows for target 'gs' "
                                             r"overlap at t=300\.0$"):
            load_schedule_override([{**good, "start_s": 300.0, "end_s": 900.0}, good])

    @pytest.mark.parametrize("source", [5, None, {"windows": 5}, {"windows": {}}, {"node": 0}])
    def test_a_source_that_is_not_an_array_is_refused(self, source):
        with pytest.raises(ValueError, match="^schedule override must be a JSON array"):
            load_schedule_override(source)

    @pytest.mark.parametrize("key", ["node", "target", "start_s", "end_s", "phase"])
    def test_missing_fields_reported(self, key):
        record = {k: v for k, v in self.RECORDS[2].items() if k != key}
        with pytest.raises(ValueError, match=rf"^override record 1\.{key}: missing required"):
            load_schedule_override([self.RECORDS[0], record])
