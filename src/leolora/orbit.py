"""Sun/eclipse phase timeline and satellite-ground visibility windows.

This module is geometry only: it reads no files.  Forecast windows given
from outside (a schedule-override file) are read by `config`.

The phase timeline is profile-driven: sunrises on the exact grid
-offset + m * period (placed by `grid_floor`), each starting a fixed sunlit
span.  Visibility uses a spherical Earth, a circular-orbit ground track,
and a sampled central-angle threshold; no perturbations or TLE propagation.

Visibility is decided on the sample grid t0 + step * i, level by level.
Level 0 takes a node's ground track (sin lat, cos lat, lon) at every
LEVEL_SPANS_S[0] / step-th sample, with the last sample included, and
every station, one row of the same array, reads it for its central angle
c.  The ground track moves no faster than the mean motion plus the Earth's
rotation, so c changes no faster than rate = 2 pi / period + omega_earth,
and over an interval of samples [a, b] with end values c_a and c_b it stays
within (c_a + c_b -+ slack) / 2, slack = rate * (b - a) * step.  Each
interval falls in one of three classes:

- outside, when the floor (c_a + c_b - slack) / 2 exceeds lam_max plus a
  margin: no sample in it is visible, and none is evaluated;
- inside, when the ceiling (c_a + c_b + slack) / 2 is below lam_max minus
  the margin: every sample in it is visible, and none is evaluated;
- straddling otherwise: it is split into the pieces of the next level
  (60 s, then 8 s), each evaluated at its ends in order and classed the
  same way.  The straddlers of the last level have every sample evaluated,
  with the same times and the same cos-threshold test as a scan of every
  sample.

All of a node's stations are rows of one array per level, with each
station's constants gathered per point, so a build makes as many numpy
calls for one station as for many; level 0 is taken a chunk of points at a
time, which bounds the arrays a build holds at once.

The margin of 1e-6 rad covers rounding in the computed angle, which can put
a sample's computed cosine on the other side of cos(lam_max) from its true
angle; it must hold on both sides, since an inside sample the full scan
would round to invisible must be evaluated too.  The bound holds over an
interval of any length, so the argument is the same at every level: every
sample that is not evaluated has the verdict the full scan gives it, and
the windows (the merged runs of visible samples) are those of the full
scan, bit for bit.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .exceptions import bounded, check_bounds

EARTH_RADIUS_M = 6.371e6
EARTH_ROTATION_RAD_S = 7.2921159e-5
TWO_PI = 2.0 * math.pi

# A pass is never usable for more than 30 minutes; longer passes truncate.
MAX_WINDOW_S = 1800.0
# The longest duration a window may have: MAX_WINDOW_S plus slack for rounding.
_LONGEST_WINDOW_S = MAX_WINDOW_S + 1e-6

SUN = "sun"
ECLIPSE = "eclipse"

# Interval spans of the pass search's levels, longest first, and the slack
# its bound allows for rounding in the computed central angle.
LEVEL_SPANS_S = (600.0, 60.0, 8.0)
_ANGLE_MARGIN_RAD = 1e-6
# The spacing the build limits below are stated in, and the level-0 points
# times stations a build evaluates at once.
COARSE_STEP_S = 60.0
_CHUNK_POINTS = 1 << 17

# Limits on a build's grid, which `grid_problem` checks before any build:
# horizon / step samples, and coarse samples, one every COARSE_STEP_S
# seconds, or every sample at steps of COARSE_STEP_S or more.  A build's
# arrays are bounded by its chunks, so its peak grows only with the passes
# it finds: one node over 4 stations peaks at about 66 MB traced at the
# coarse limit at a 1000 s step, 44 MB at 60 s, and 162 MB at the sample
# limit at 1 s, in about 2 s, 7 s and 6 s.  4 years at
# 1 s is 1.26e8 samples, and 2.1e6 coarse ones at 1 s or at 60 s.
MAX_SCHEDULE_SAMPLES = 500_000_000
MAX_COARSE_SAMPLES = 10_000_000


@dataclass(frozen=True)
class OrbitConfig:
    """Circular-orbit parameters; angles in radians, times in seconds."""

    period_s: float = bounded(gt=0.0)
    sun_duration_s: float = bounded(gt=0.0)
    altitude_m: float = bounded(gt=0.0)
    inclination_rad: float = bounded(ge=0.0, le=math.pi)
    phase_offset_rad: float = bounded(0.0)
    raan_rad: float = bounded(0.0)

    def __post_init__(self):
        check_bounds(self)
        if not self.sun_duration_s <= self.period_s:
            raise ValueError(
                f"sun duration must be in (0, period], got {self.sun_duration_s} "
                f"for period {self.period_s}"
            )

    @property
    def phase_time_offset_s(self) -> float:
        """Time offset along the orbit corresponding to the phase offset."""
        return (self.phase_offset_rad / TWO_PI) * self.period_s % self.period_s


@dataclass(frozen=True)
class GroundStation:
    """A gateway location on the spherical Earth."""

    id: str = bounded()
    latitude_rad: float = bounded(ge=-math.pi / 2, le=math.pi / 2)
    longitude_rad: float = bounded()
    min_elevation_rad: float = bounded(0.0, ge=0.0, le=math.pi / 2 - 1e-9)

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class ForecastWindow:
    """An interval when a node can reach a target, tagged sun or eclipse."""

    window_id: str
    start: float
    end: float
    phase: str
    target: str

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"window start must precede end: [{self.start}, {self.end})")
        if self.end - self.start > _LONGEST_WINDOW_S:
            raise ValueError(
                f"window duration {self.end - self.start} exceeds {MAX_WINDOW_S} s"
            )
        if self.phase not in (SUN, ECLIPSE):
            raise ValueError(f"phase must be '{SUN}' or '{ECLIPSE}', got {self.phase!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


def grid_floor(offset: float, step: float, t: float) -> int:
    """The largest m with offset + m * step <= t: a rounded guess, then exact comparisons."""
    m = math.floor((t - offset) / step)
    while offset + m * step > t:
        m -= 1
    while offset + (m + 1) * step <= t:
        m += 1
    return m


def phase_edges(config: OrbitConfig, t: float) -> tuple[float, float]:
    """(sunset of the last sunrise at or before t, first sunrise after t); an orbit
    sunlit throughout has no sunset and gives that sunrise for both."""
    first, period, sun = -config.phase_time_offset_s, config.period_s, config.sun_duration_s
    m = grid_floor(first, period, t)
    sunrise = first + (m + 1) * period
    return (first + m * period + sun if sun < period else sunrise), sunrise


def phase_at(config: OrbitConfig, t: float) -> str:
    """Phase of the orbit at time t: sunlit from each sunrise up to its sunset."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return SUN if t < phase_edges(config, t)[0] else ECLIPSE


def next_phase_boundary(config: OrbitConfig, t: float) -> tuple[float, str]:
    """First phase edge after t, and the phase that begins there (`phase_at` there)."""
    sunset, sunrise = phase_edges(config, t)
    return (sunset, ECLIPSE) if t < sunset < sunrise else (sunrise, SUN)


def sunlit_seconds(config: OrbitConfig, times: Sequence[float]) -> list[float]:
    """Sunlit time between each two consecutive simulation times, as Python floats.

    Orbit time is simulation time plus the phase offset.  The sunlit measure
    of orbit time [0, u) is full * sun + min(rem, sun), with (full, rem) =
    divmod(u, period); it is taken for all the times in one numpy pass, and
    each value is its difference from the time before.  numpy's float64
    `divmod`, arithmetic and `where` give the bits of CPython's scalar
    operations, so each value is that of the scalar formula.  This is the
    one formula for sunlit time: `sun_seconds` is its two-time case.
    """
    period, sun = config.period_s, config.sun_duration_s
    full, rem = np.divmod(np.asarray(times, dtype=float) + config.phase_time_offset_s, period)
    below = full * sun + np.where(sun < rem, sun, rem)   # min(rem, sun), bit for bit
    return (below[1:] - below[:-1]).tolist()


def sun_seconds(config: OrbitConfig, t0: float, t1: float) -> float:
    """Exact sunlit time within [t0, t1) under the phase profile."""
    if t1 < t0:
        raise ValueError(f"need t0 <= t1, got [{t0}, {t1})")
    return sunlit_seconds(config, (t0, t1))[0]


def max_central_angle(altitude_m: float, min_elevation_rad: float) -> float:
    """Largest Earth-central angle at which the satellite clears min elevation."""
    ratio = EARTH_RADIUS_M / (EARTH_RADIUS_M + altitude_m)
    return math.acos(ratio * math.cos(min_elevation_rad)) - min_elevation_rad


def _ground_track(config: OrbitConfig, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sin lat, cos lat, lon) of the ground track at each sample time; lon unwrapped."""
    u = TWO_PI * times / config.period_s + config.phase_offset_rad
    sin_u = np.sin(u)
    sin_lat = math.sin(config.inclination_rad) * sin_u
    lon = (config.raan_rad + np.arctan2(math.cos(config.inclination_rad) * sin_u, np.cos(u))
           - EARTH_ROTATION_RAD_S * times)
    return sin_lat, np.cos(np.arcsin(sin_lat)), lon


def _cos_central_angle(sin_lat_st, cos_lat_st, lon_st, track: tuple[np.ndarray, ...]):
    """Cosine of the Earth-central angle from a station to each point of a ground track.

    The station's sin lat, cos lat and lon are scalars, columns (one station
    a row) or one value per track point; each gives the same bits.
    """
    sin_lat, cos_lat, lon = track
    return sin_lat_st * sin_lat + cos_lat_st * cos_lat * np.cos(lon - lon_st)


def _stride(step: float) -> int:
    """Samples per coarse interval of a grid of this step."""
    return max(1, int(COARSE_STEP_S // step))


def _strides(step: float) -> list[int]:
    """Samples per interval of each search level on a grid of this step: distinct,
    longest first, and 1 (the sample-by-sample scan) last."""
    return sorted({max(1, int(span // step)) for span in LEVEL_SPANS_S} | {1}, reverse=True)


def grid_problem(horizon: float, step: float) -> str | None:
    """Why a build over a horizon on a grid of this step is refused, or None."""
    samples = horizon / step
    if samples > MAX_SCHEDULE_SAMPLES:
        return (f"a schedule over {horizon} s would take {samples:.3g} samples, "
                f"over the limit of {MAX_SCHEDULE_SAMPLES:,}")
    coarse = samples / _stride(step)
    if coarse > MAX_COARSE_SAMPLES:
        return (f"a schedule over {horizon} s would take {coarse:.3g} coarse samples, "
                f"over the limit of {MAX_COARSE_SAMPLES:,}")
    return None


def _split(rows: np.ndarray, a: np.ndarray, b: np.ndarray, stride: int):
    """(row, point, whether first) of the points a, a + stride, ... and b of each
    interval [a, b] of a row, interval by interval and in order within each."""
    counts = (b - a - 1) // stride + 2
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    points = np.minimum(np.repeat(a, counts) + stride * j, np.repeat(b, counts))
    return np.repeat(rows, counts), points, j == 0


def _runs(rows: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, first, last) of each run of consecutive sample indices in (row, idx) order;
    an index repeated is still consecutive."""
    if idx.size == 0:
        return rows, idx, idx
    cut = np.flatnonzero((np.diff(idx) > 1) | (np.diff(rows) != 0))
    heads = np.append(0, cut + 1)
    return rows[heads], idx[heads], idx[np.append(cut, idx.size - 1)]


def _visible_ranges(config: OrbitConfig, rows_st: tuple[np.ndarray, ...], t0: float,
                    step: float, points: np.ndarray, strides: list[int]) -> list[tuple]:
    """(row, first sample, last sample) of ranges that hold every visible sample of
    each station (a row of `rows_st`) from the first to the last of the level-0
    points given, found level by level (see the module docstring)."""
    sin_st, cos_st, lon_st, lam, cos_lam = rows_st
    m = points.size
    cos_c = _cos_central_angle(sin_st[:, None], cos_st[:, None], lon_st[:, None],
                               _ground_track(config, t0 + step * points)).ravel()
    rows = np.repeat(np.arange(sin_st.size), m)
    points = np.tile(points, sin_st.size)
    first = np.arange(points.size) % m == 0   # no interval ends at a row's first point

    found = []
    rate_step = (TWO_PI / config.period_s + EARTH_ROTATION_RAD_S) * step
    for stride in strides[1:]:
        c = np.arccos(np.clip(cos_c, -1.0, 1.0))
        ends = c[:-1] + c[1:]
        slack = rate_step * (points[1:] - points[:-1])
        lam_r = lam[rows[:-1]]
        inside = (0.5 * (ends + slack) < lam_r - _ANGLE_MARGIN_RAD) & ~first[1:]
        straddle = (0.5 * (ends - slack) <= lam_r + _ANGLE_MARGIN_RAD) & ~first[1:] & ~inside
        found.append((rows[:-1][inside], points[:-1][inside], points[1:][inside]))
        # the straddling intervals' pieces make the next level, evaluated at their ends
        rows, points, first = _split(rows[:-1][straddle], points[:-1][straddle],
                                     points[1:][straddle], stride)
        cos_c = _cos_central_angle(sin_st[rows], cos_st[rows], lon_st[rows],
                                   _ground_track(config, t0 + step * points))

    # the last level holds every sample of its intervals: each takes the exact test
    visible = cos_c >= cos_lam[rows]
    found.append(_runs(rows[visible], points[visible]))
    return found


def _passes(
    config: OrbitConfig, stations: list[GroundStation], t0: float, t1: float, step: float
) -> list[ForecastWindow]:
    """Every station's passes within [t0, t1], found level by level from the ground track.

    A window covers a maximal run of sample times t0 + step * i with central
    angle within the visibility cone.  Runs shorter than two samples are
    dropped as numerical slivers; runs longer than MAX_WINDOW_S keep only
    their first MAX_WINDOW_S seconds.  Only the samples of the shortest
    intervals that straddle the cone edge are evaluated one by one (see the
    module docstring).
    """
    if t1 <= t0:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not stations:
        return []

    n = int(math.floor((t1 - t0) / step)) + 1
    strides = _strides(step)
    lam = [max_central_angle(config.altitude_m, s.min_elevation_rad) for s in stations]
    rows_st = (np.array([math.sin(s.latitude_rad) for s in stations]),
               np.array([math.cos(s.latitude_rad) for s in stations]),
               np.array([s.longitude_rad for s in stations]),
               np.array(lam), np.array([math.cos(x) for x in lam]))
    # level 0 takes its points 0, stride, 2 * stride, ... and n - 1 a chunk at a
    # time, each chunk's last point the next one's first
    span = max(1, _CHUNK_POINTS // len(stations)) * strides[0]
    found = []
    for a in range(0, max(n - 1, 1), span):
        b = min(a + span, n - 1)
        points = np.append(np.arange(a, b, strides[0]), b)
        found += _visible_ranges(config, rows_st, t0, step, points, strides)

    # ranges that touch or overlap within a row join into one run; a key of
    # row * (n + 1) + sample keeps the rows apart
    key = n + 1
    rows, lo, hi = (np.concatenate(part) for part in zip(*found))
    if lo.size == 0:
        return []
    lo, hi = rows * key + lo, rows * key + hi
    order = np.argsort(lo)
    lo, hi = lo[order], np.maximum.accumulate(hi[order])
    gap = lo[1:] > hi[:-1] + 1
    lo, hi = lo[np.append(True, gap)], hi[np.append(gap, True)]
    long_enough = hi > lo
    rows, lo = np.divmod(lo[long_enough], key)
    hi = hi[long_enough] - rows * key

    windows = []
    counts = [0] * len(stations)
    for r, start, last_t in zip(rows.tolist(), (t0 + step * lo).tolist(),
                                (t0 + step * hi).tolist()):
        station = stations[r]
        end = min(min(last_t + step, t1), start + MAX_WINDOW_S)
        windows.append(ForecastWindow(
            window_id=f"{station.id}:{counts[r]}", start=start, end=end,
            phase=phase_at(config, 0.5 * (start + end)), target=station.id))
        counts[r] += 1
    return windows


class WindowOverlap(ValueError):
    """Two windows on one target overlap; `window` is the later of the two."""

    def __init__(self, window: ForecastWindow):
        super().__init__(f"windows for target {window.target!r} overlap at t={window.start}")
        self.window = window


@dataclass(frozen=True)
class Schedule:
    """A node's forecast windows, sorted by start."""

    windows: tuple[ForecastWindow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        windows = tuple(sorted(self.windows, key=lambda w: (w.start, w.window_id)))
        by_target: dict[str, float] = {}
        for w in windows:
            last_end = by_target.get(w.target)
            if last_end is not None and w.start < last_end:
                raise WindowOverlap(w)
            by_target[w.target] = w.end
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "_starts", [w.start for w in windows])

    def candidates(self, now: float, deadline: float,
                   account_end: float = math.inf) -> list[ForecastWindow]:
        """Windows still usable at `now` that begin before `deadline` and end by `account_end`.

        No window lasts longer than _LONGEST_WINDOW_S, so only starts in
        (now - _LONGEST_WINDOW_S, deadline) need scanning, in one pass.
        """
        starts = self._starts
        lo = bisect.bisect_right(starts, now - _LONGEST_WINDOW_S)
        hi = bisect.bisect_left(starts, deadline, lo=lo)
        return [w for w in self.windows[lo:hi] if now < w.end <= account_end]


def build_schedule(
    config: OrbitConfig,
    stations: list[GroundStation],
    horizon: float,
    step: float = 1.0,
    t0: float = 0.0,
) -> Schedule:
    """Full forecast-window set for one node over [t0, t0 + horizon]."""
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    return Schedule(windows=tuple(_passes(config, stations, t0, t0 + horizon, step)))
