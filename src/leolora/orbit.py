"""Sun/eclipse phase timeline and satellite-ground visibility windows.

The phase timeline is profile-driven: a fixed sunlit span per orbital
period, anchored by the orbit's phase offset.  Visibility uses a spherical
Earth, a circular-orbit ground track, and a sampled central-angle
threshold; no perturbations or TLE propagation.
"""

from __future__ import annotations

import bisect
import json
import math
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


def phase_at(config: OrbitConfig, t: float) -> str:
    """Phase of the orbit at simulation time t, periodic with the period."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    t_orbit = (t + config.phase_time_offset_s) % config.period_s
    return SUN if t_orbit < config.sun_duration_s else ECLIPSE


def next_phase_boundary(config: OrbitConfig, t: float) -> tuple[float, str]:
    """First phase boundary after t, and the phase that begins there."""
    t_orbit = (t + config.phase_time_offset_s) % config.period_s
    if t_orbit < config.sun_duration_s:
        return t + (config.sun_duration_s - t_orbit), ECLIPSE
    return t + (config.period_s - t_orbit), SUN


def sun_seconds(config: OrbitConfig, t0: float, t1: float) -> float:
    """Exact sunlit time within [t0, t1) under the phase profile."""
    if t1 < t0:
        raise ValueError(f"need t0 <= t1, got [{t0}, {t1})")
    off = config.phase_time_offset_s

    def below(u: float) -> float:
        # sunlit measure of [0, u)
        full, rem = divmod(u, config.period_s)
        return full * config.sun_duration_s + min(rem, config.sun_duration_s)

    return below(t1 + off) - below(t0 + off)


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


def _visible_mask(
    config: OrbitConfig, station: GroundStation, times: np.ndarray
) -> np.ndarray:
    """Boolean visibility per sample time, chunked to bound memory."""
    lam_max = max_central_angle(config.altitude_m, station.min_elevation_rad)
    cos_lam = math.cos(lam_max)
    sin_lat_s = math.sin(station.latitude_rad)
    cos_lat_s = math.cos(station.latitude_rad)
    sin_i = math.sin(config.inclination_rad)
    cos_i = math.cos(config.inclination_rad)

    out = np.empty(times.shape[0], dtype=bool)
    for lo in range(0, times.shape[0], _SAMPLE_CHUNK):
        t = times[lo : lo + _SAMPLE_CHUNK]
        u = TWO_PI * t / config.period_s + config.phase_offset_rad
        sin_u = np.sin(u)
        sin_lat = sin_i * sin_u
        lat = np.arcsin(sin_lat)
        lon = config.raan_rad + np.arctan2(cos_i * sin_u, np.cos(u)) - EARTH_ROTATION_RAD_S * t
        cos_c = sin_lat_s * sin_lat + cos_lat_s * np.cos(lat) * np.cos(lon - station.longitude_rad)
        out[lo : lo + _SAMPLE_CHUNK] = cos_c >= cos_lam
    return out


def visibility_windows(
    config: OrbitConfig,
    station: GroundStation,
    t0: float,
    t1: float,
    step: float = 1.0,
) -> list[ForecastWindow]:
    """Passes of the satellite over one station within [t0, t1].

    A window covers a maximal run of sample times with central angle within
    the visibility cone.  Runs shorter than two samples are dropped as
    numerical slivers; runs longer than MAX_WINDOW_S keep only their first
    MAX_WINDOW_S seconds.
    """
    if t1 <= t0:
        raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")

    n = int(math.floor((t1 - t0) / step)) + 1
    times = t0 + step * np.arange(n, dtype=np.float64)
    visible = _visible_mask(config, station, times)
    if not visible.any():
        return []

    # run boundaries from the 0/1 edge positions
    padded = np.diff(np.concatenate(([0], visible.view(np.int8), [0])))
    run_starts = np.flatnonzero(padded == 1)
    run_ends = np.flatnonzero(padded == -1) - 1  # inclusive index

    windows = []
    k = 0
    for i0, i1 in zip(run_starts, run_ends):
        if i1 - i0 + 1 < 2:
            continue
        start = float(times[i0])
        end = min(float(times[i1]) + step, t1)
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
        object.__setattr__(self, "windows", tuple(self.windows))
        by_target: dict[str, float] = {}
        prev_start = -math.inf
        for w in sorted(self.windows, key=lambda w: w.start):
            if w.start < prev_start:
                raise ValueError("schedule windows must be sortable by start")
            prev_start = w.start
            last_end = by_target.get(w.target)
            if last_end is not None and w.start < last_end:
                raise ValueError(
                    f"windows for target {w.target!r} overlap at t={w.start}"
                )
            by_target[w.target] = w.end
        object.__setattr__(
            self, "windows", tuple(sorted(self.windows, key=lambda w: (w.start, w.window_id)))
        )
        object.__setattr__(self, "_starts", [w.start for w in self.windows])

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

    Records are {node, target, start_s, end_s, phase}; each node's windows
    must satisfy the usual window invariants.
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
        missing = {"node", "target", "start_s", "end_s", "phase"} - set(rec)
        if missing:
            raise ValueError(f"override record {i} missing fields: {sorted(missing)}")
        node = int(rec["node"])
        per_node.setdefault(node, []).append(
            ForecastWindow(
                window_id=rec.get("window_id", f"{rec['target']}:override:{i}"),
                start=float(rec["start_s"]),
                end=float(rec["end_s"]),
                phase=str(rec["phase"]),
                target=str(rec["target"]),
            )
        )
    return {node: Schedule(windows=tuple(ws)) for node, ws in per_node.items()}
