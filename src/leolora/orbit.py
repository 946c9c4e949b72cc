"""Sun/eclipse phase timeline and satellite-ground visibility windows.

The phase timeline is profile-driven: sunrises on the exact grid
-offset + m * period (placed by `grid_floor`), each starting a fixed sunlit
span.  Visibility uses a spherical Earth, a circular-orbit ground track,
and a sampled central-angle threshold; no perturbations or TLE propagation.

Visibility is decided on the sample grid t0 + step * i, found in two passes
(bracketing and refinement of rise and set times).  The coarse pass samples
the central angle c every COARSE_STEP_S seconds, last sample included.  The
ground track moves no faster than the mean motion plus the Earth's rotation,
so c changes no faster than rate = 2 pi / period + omega_earth, and over a
coarse interval of length h with end values c_a and c_b it stays at or above
(c_a + c_b - rate * h) / 2.  Only intervals where that floor is within the
cone, widened by a margin for rounding in the computed angle, are refined:
the fine pass evaluates their grid samples with the same times and the same
cos-threshold test as a scan of every sample.  Every sample it skips lies
outside the cone, so the windows are those of the full scan, bit for bit.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6.371e6
EARTH_ROTATION_RAD_S = 7.2921159e-5
TWO_PI = 2.0 * math.pi

# A pass is never usable for more than 30 minutes; longer passes truncate.
MAX_WINDOW_S = 1800.0

SUN = "sun"
ECLIPSE = "eclipse"

_SAMPLE_CHUNK = 1_000_000

# Spacing of the coarse visibility pass, and the slack its bound allows for
# rounding in the computed central angle.
COARSE_STEP_S = 60.0
_ANGLE_MARGIN_RAD = 1e-6


@dataclass(frozen=True)
class OrbitConfig:
    """Circular-orbit parameters; angles in radians, times in seconds."""

    period_s: float
    sun_duration_s: float
    altitude_m: float
    inclination_rad: float
    phase_offset_rad: float = 0.0
    raan_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.sun_duration_s <= self.period_s:
            raise ValueError(
                f"sun duration must be in (0, period], got {self.sun_duration_s} "
                f"for period {self.period_s}"
            )
        if self.altitude_m <= 0:
            raise ValueError(f"altitude must be > 0, got {self.altitude_m}")
        if not 0.0 <= self.inclination_rad <= math.pi:
            raise ValueError(f"inclination must be in [0, pi], got {self.inclination_rad}")

    @property
    def phase_time_offset_s(self) -> float:
        """Time offset along the orbit corresponding to the phase offset."""
        return (self.phase_offset_rad / TWO_PI) * self.period_s % self.period_s


@dataclass(frozen=True)
class GroundStation:
    """A gateway location on the spherical Earth."""

    id: str
    latitude_rad: float
    longitude_rad: float
    min_elevation_rad: float = 0.0

    def __post_init__(self):
        if abs(self.latitude_rad) > math.pi / 2:
            raise ValueError(f"|latitude| must be <= pi/2, got {self.latitude_rad}")
        if not 0.0 <= self.min_elevation_rad < math.pi / 2:
            raise ValueError(
                f"min_elevation must be in [0, pi/2), got {self.min_elevation_rad}"
            )


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
        if self.end - self.start > MAX_WINDOW_S + 1e-6:
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


def _sunlit_between(config: OrbitConfig, edges: list[float]) -> list[float]:
    """Sunlit measure between each two consecutive orbit-time edges.

    Orbit time is simulation time plus the phase offset.  The sunlit measure
    of [0, u) is full * sun + min(rem, sun), with (full, rem) = divmod(u,
    period); each edge takes it once, in one loop with no call per edge,
    and the result is the differences of consecutive edges.  This is the
    one formula for sunlit time: `sun_seconds` is its two-edge case.
    """
    period, sun = config.period_s, config.sun_duration_s
    seconds, last = [], 0.0
    for u in edges:
        full, rem = divmod(u, period)
        below = full * sun + (sun if sun < rem else rem)   # min(rem, sun), bit for bit
        seconds.append(below - last)
        last = below
    return seconds[1:]   # seconds[0] is the first edge's own measure


def sun_seconds(config: OrbitConfig, t0: float, t1: float) -> float:
    """Exact sunlit time within [t0, t1) under the phase profile."""
    if t1 < t0:
        raise ValueError(f"need t0 <= t1, got [{t0}, {t1})")
    off = config.phase_time_offset_s
    return _sunlit_between(config, [t0 + off, t1 + off])[0]


def sun_seconds_per_slot(config: OrbitConfig, offset: float, slot_s: float,
                         first: int, upto: int) -> list[float]:
    """Sunlit time of slots first .. upto - 1 on the grid T_k = offset + k * slot_s.

    Slot k spans [T_k, T_{k+1}); each value is bit for bit what `sun_seconds`
    gives for it.  The n + 1 edges of n slots go through one
    `_sunlit_between` walk.
    """
    off = config.phase_time_offset_s
    return _sunlit_between(config, [offset + k * slot_s + off for k in range(first, upto + 1)])


def subsatellite_point(config: OrbitConfig, t: float) -> tuple[float, float]:
    """(latitude, longitude) of the ground track at time t, radians.

    Longitude advances with orbital motion minus Earth rotation and is
    normalized to (-pi, pi].
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    u = TWO_PI * t / config.period_s + config.phase_offset_rad
    lat = math.asin(math.sin(config.inclination_rad) * math.sin(u))
    lon = (
        config.raan_rad
        + math.atan2(math.cos(config.inclination_rad) * math.sin(u), math.cos(u))
        - EARTH_ROTATION_RAD_S * t
    )
    return lat, _wrap_longitude(lon)


def _wrap_longitude(lon: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    lon = math.remainder(lon, TWO_PI)
    if lon <= -math.pi:
        lon += TWO_PI
    return lon


def max_central_angle(altitude_m: float, min_elevation_rad: float) -> float:
    """Largest Earth-central angle at which the satellite clears min elevation."""
    ratio = EARTH_RADIUS_M / (EARTH_RADIUS_M + altitude_m)
    return math.acos(ratio * math.cos(min_elevation_rad)) - min_elevation_rad


def _cos_central_angle(
    config: OrbitConfig, station: GroundStation, times: np.ndarray
) -> np.ndarray:
    """Cosine of the Earth-central angle from station to ground track per sample time.

    Chunked to bound the memory of the temporaries.
    """
    sin_lat_s = math.sin(station.latitude_rad)
    cos_lat_s = math.cos(station.latitude_rad)
    sin_i = math.sin(config.inclination_rad)
    cos_i = math.cos(config.inclination_rad)

    out = np.empty(times.shape[0], dtype=np.float64)
    for lo in range(0, times.shape[0], _SAMPLE_CHUNK):
        t = times[lo : lo + _SAMPLE_CHUNK]
        u = TWO_PI * t / config.period_s + config.phase_offset_rad
        sin_u = np.sin(u)
        sin_lat = sin_i * sin_u
        lat = np.arcsin(sin_lat)
        lon = config.raan_rad + np.arctan2(cos_i * sin_u, np.cos(u)) - EARTH_ROTATION_RAD_S * t
        out[lo : lo + _SAMPLE_CHUNK] = (
            sin_lat_s * sin_lat + cos_lat_s * np.cos(lat) * np.cos(lon - station.longitude_rad)
        )
    return out


def _candidate_indices(
    config: OrbitConfig, station: GroundStation, t0: float, step: float, n: int, lam_max: float
) -> np.ndarray:
    """Sorted sample indices in [0, n) that the coarse pass cannot rule out.

    Every index left out has central angle beyond lam_max, so it is not
    visible.
    """
    stride = max(1, int(COARSE_STEP_S // step))
    coarse = np.arange(0, n, stride)
    if coarse[-1] != n - 1:
        coarse = np.append(coarse, n - 1)
    c = np.arccos(np.clip(_cos_central_angle(config, station, t0 + step * coarse), -1.0, 1.0))
    # least central angle any time between two coarse samples can reach
    rate = TWO_PI / config.period_s + EARTH_ROTATION_RAD_S
    floor = 0.5 * (c[:-1] + c[1:] - rate * (stride * step))
    flagged = (floor <= lam_max + _ANGLE_MARGIN_RAD).view(np.int8)
    # merge runs of flagged intervals into closed index ranges
    edges = np.diff(np.concatenate(([0], flagged, [0])))
    first = coarse[np.flatnonzero(edges == 1)]
    last = coarse[np.flatnonzero(edges == -1)]
    if first.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(a, b + 1) for a, b in zip(first, last)])


def visibility_windows(
    config: OrbitConfig,
    station: GroundStation,
    t0: float,
    t1: float,
    step: float = 1.0,
) -> list[ForecastWindow]:
    """Passes of the satellite over one station within [t0, t1].

    A window covers a maximal run of sample times t0 + step * i with central
    angle within the visibility cone.  Runs shorter than two samples are
    dropped as numerical slivers; runs longer than MAX_WINDOW_S keep only
    their first MAX_WINDOW_S seconds.  Only the samples the coarse pass
    cannot rule out are evaluated (see the module docstring).
    """
    if t1 <= t0:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")

    n = int(math.floor((t1 - t0) / step)) + 1
    lam_max = max_central_angle(config.altitude_m, station.min_elevation_rad)
    idx = _candidate_indices(config, station, t0, step, n, lam_max)
    times = t0 + step * idx
    visible = _cos_central_angle(config, station, times) >= math.cos(lam_max)
    idx, times = idx[visible], times[visible]
    if idx.size == 0:
        return []

    # indices left out are not visible, so runs break wherever indices skip
    breaks = np.flatnonzero(np.diff(idx) != 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [idx.size - 1]))

    windows = []
    k = 0
    for j0, j1 in zip(run_starts, run_ends):
        if j1 - j0 + 1 < 2:
            continue
        start = float(times[j0])
        end = min(float(times[j1]) + step, t1)
        end = min(end, start + MAX_WINDOW_S)
        windows.append(
            ForecastWindow(
                window_id=f"{station.id}:{k}",
                start=start,
                end=end,
                phase=phase_at(config, 0.5 * (start + end)),
                target=station.id,
            )
        )
        k += 1
    return windows


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
                raise ValueError(
                    f"windows for target {w.target!r} overlap at t={w.start}"
                )
            by_target[w.target] = w.end
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "_starts", [w.start for w in windows])

    def candidates(self, now: float, deadline: float) -> list[ForecastWindow]:
        """Windows still usable at `now` that begin before `deadline`.

        Window durations are bounded by MAX_WINDOW_S, so only starts in
        (now - MAX_WINDOW_S, deadline) need scanning.
        """
        starts = self._starts
        lo = bisect.bisect_right(starts, now - MAX_WINDOW_S - 1e-9)
        hi = bisect.bisect_left(starts, deadline, lo=lo)
        return [w for w in self.windows[lo:hi] if w.end > now]


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
    windows: list[ForecastWindow] = []
    for station in stations:
        windows.extend(visibility_windows(config, station, t0, t0 + horizon, step))
    return Schedule(windows=tuple(windows))


def load_schedule_override(source: str | Path | list) -> dict[int, Schedule]:
    """Parse a schedule-override file: a JSON array of window records.

    Records are {node, target, start_s, end_s, phase} objects, node a whole
    number, target a non-empty string and start_s, end_s finite numbers;
    each node's windows must satisfy the usual window invariants.  A
    malformed record raises ValueError naming its index.
    """
    if isinstance(source, (str, Path)):
        records = json.loads(Path(source).read_text())
    else:
        records = source
    if isinstance(records, dict) and "windows" in records:
        records = records["windows"]
    if not isinstance(records, list):
        raise ValueError("schedule override must be a JSON array of window records")

    per_node: dict[int, list[ForecastWindow]] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"override record {i} is not an object: {rec!r}")
        missing = {"node", "target", "start_s", "end_s", "phase"} - set(rec)
        if missing:
            raise ValueError(f"override record {i} missing fields: {sorted(missing)}")
        for key in ("node", "start_s", "end_s"):
            value = rec[key]
            # abs(value) <= max also rules out NaN, infinities and ints past float range
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise ValueError(f"override record {i}: {key} must be a finite number, "
                                 f"got {value!r}")
        node, target = int(rec["node"]), rec["target"]
        if node != rec["node"]:
            raise ValueError(f"override record {i}: node {rec['node']!r} is not a whole number")
        if not isinstance(target, str) or not target:
            raise ValueError(f"override record {i}: target must be a non-empty string, "
                             f"got {target!r}")
        per_node.setdefault(node, []).append(ForecastWindow(
            str(rec.get("window_id", f"{target}:override:{i}")), float(rec["start_s"]),
            float(rec["end_s"]), str(rec["phase"]), target))
    return {node: Schedule(windows=tuple(ws)) for node, ws in per_node.items()}
