"""Independent straight-line reimplementations used as test oracles.

These deliberately avoid importing anything from the package under test:
each formula is transcribed directly so the two sides can disagree.
"""

import math
from typing import NamedTuple

GAS_CONSTANT = 8.314


def oracle_calendar(k1, ea, temp_k, soc, b, t_days):
    return k1 * math.exp(-ea / (GAS_CONSTANT * temp_k)) * soc**b * t_days


def oracle_cycle(k2, dod, d, c_rate, c, ea, temp_k, n_cycles):
    return k2 * dod**d * c_rate**c * math.exp(-ea / (GAS_CONSTANT * temp_k)) * n_cycles


def oracle_sei(alpha_sei, k_sei, d_linear):
    return (1.0
            - alpha_sei * math.exp(-k_sei * d_linear)
            - (1.0 - alpha_sei) * math.exp(-d_linear))


def oracle_airtime(sf, bw_hz, cr_denominator, payload_bytes,
                   explicit_header=True, crc_on=True, preamble_symbols=8,
                   low_data_rate_optimize=None):
    if low_data_rate_optimize is None:
        low_data_rate_optimize = sf >= 11 and bw_hz == 125_000
    de = 1 if low_data_rate_optimize else 0
    ih = 0 if explicit_header else 1
    crc = 1 if crc_on else 0
    t_symbol = (2.0**sf) / bw_hz
    groups = math.ceil(
        (8.0 * payload_bytes - 4.0 * sf + 28.0 + 16.0 * crc - 20.0 * ih)
        / (4.0 * (sf - 2.0 * de))
    )
    n_payload = 8 + max(groups * cr_denominator, 0)
    return (preamble_symbols + 4.25 + n_payload) * t_symbol


ORACLE_EARTH_RADIUS_M = 6.371e6
ORACLE_EARTH_ROTATION_RAD_S = 7.2921159e-5
ORACLE_MAX_WINDOW_S = 1800.0


def oracle_phase_at(orbit, t):
    """"sun" or "eclipse" at time t, by the modulo rule.

    `orbit` is read by attribute only.  Orbit time, t plus the phase offset,
    taken modulo the period, is sunlit below the sun duration.  The rounding
    of t + offset can move an edge by an ulp of t.
    """
    period = orbit.period_s
    offset = (orbit.phase_offset_rad / (2.0 * math.pi)) * period % period
    return "sun" if (t + offset) % period < orbit.sun_duration_s else "eclipse"


def oracle_visibility_windows(orbit, station, t0, t1, step):
    """(window_id, start, end, phase) of every pass, from a scan of every sample.

    `orbit` and `station` are read by attribute only.  The central angle is
    computed on the whole grid t0 + step * i with the simulator's float
    expression; windows are the maximal visible runs of two or more samples,
    capped at 30 minutes and tagged by the phase at their midpoint.
    """
    import numpy as np

    two_pi = 2.0 * math.pi
    ratio = ORACLE_EARTH_RADIUS_M / (ORACLE_EARTH_RADIUS_M + orbit.altitude_m)
    lam_max = (math.acos(ratio * math.cos(station.min_elevation_rad))
               - station.min_elevation_rad)

    n = int(math.floor((t1 - t0) / step)) + 1
    t = t0 + step * np.arange(n, dtype=np.float64)
    u = two_pi * t / orbit.period_s + orbit.phase_offset_rad
    sin_u = np.sin(u)
    sin_lat = math.sin(orbit.inclination_rad) * sin_u
    lat = np.arcsin(sin_lat)
    lon = (orbit.raan_rad + np.arctan2(math.cos(orbit.inclination_rad) * sin_u, np.cos(u))
           - ORACLE_EARTH_ROTATION_RAD_S * t)
    cos_c = (math.sin(station.latitude_rad) * sin_lat
             + math.cos(station.latitude_rad) * np.cos(lat)
             * np.cos(lon - station.longitude_rad))
    visible = cos_c >= math.cos(lam_max)

    windows = []
    i = 0
    while i < n:
        if not visible[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and visible[j + 1]:
            j += 1
        if j > i:
            start = float(t[i])
            end = min(min(float(t[j]) + step, t1), start + ORACLE_MAX_WINDOW_S)
            phase = oracle_phase_at(orbit, 0.5 * (start + end))
            windows.append((f"{station.id}:{len(windows)}", start, end, phase))
        i = j + 1
    return windows


def oracle_select_window(windows, energy, harvest, profile, params, base_stress, capacity_j,
                         dif_ref, w_dif, w_energy, now, slot_s, min_attempt_s):
    """(chosen window, drop reason value, chosen estimate) of one MAC decision.

    Everything but `windows` is read by attribute only.  Every candidate is
    evaluated first, with its own DIF, and the choice is made afterwards:
    the feasible window of least (objective, start, window_id), else the
    reason of the earliest (start, window_id) failure, else "no_window".
    Floats are computed in the simulator's order of operations.
    """
    sun_harvest = min(harvest.e_g_sun_j_per_slot * 1.0, harvest.charge_rate_limit_j_per_slot)

    def aging(dod):
        arr = math.exp(-params.ea_j_per_mol / (GAS_CONSTANT * base_stress.temperature_k))
        return params.k2 * dod**params.d * base_stress.c_rate**params.c * arr * 1.0

    def dif(phase):
        slot_harvest = sun_harvest if phase == "sun" else 0.0
        marginal = (max(0.0, profile.e_cons_tx_j - slot_harvest)
                    - max(0.0, profile.e_sleep_j - slot_harvest))
        dod_tx = min(1.0, base_stress.dod + marginal / capacity_j)
        extra = aging(dod_tx) - aging(base_stress.dod)
        return min(max(extra / dif_ref, 0.0), 1.0)

    psi = energy.phi_j - energy.reserved_j
    evaluations = []  # (window, feasible, estimate, objective, fail reason)
    for w in windows:
        if max(w.start, now) + min_attempt_s > w.end:
            continue
        n_slots = int((w.end - w.start) // slot_s)
        if w.phase == "sun":
            estimate = psi + n_slots * sun_harvest - n_slots * profile.e_sleep_j
        else:
            estimate = psi - n_slots * profile.e_sleep_j
        estimate = min(estimate, energy.phi_max_j)
        if w.phase == "sun":
            feasible = estimate >= energy.phi_min_j + energy.e_critical_j
            fail = "insufficient_energy_sun"
        else:
            feasible = psi > energy.phi_min_j
            fail = "below_reserve_eclipse"
        objective = None
        if feasible:
            # a pack faded to no capacity weighs its energy at 0.0, as the simulator does
            share = w_energy * estimate / energy.phi_max_j if energy.phi_max_j else 0.0
            objective = w_dif * dif(w.phase) + share
        evaluations.append((w, feasible, estimate, objective, fail))

    feasible = [e for e in evaluations if e[1]]
    if feasible:
        best = min(feasible, key=lambda e: (e[3], e[0].start, e[0].window_id))
        return best[0], None, best[2]
    ordered = sorted(evaluations, key=lambda e: (e[0].start, e[0].window_id))
    return None, ordered[0][4] if ordered else "no_window", None


def oracle_visible_target(windows, t, toa):
    """Target of the window that receives an attempt on [t, t + toa], or None.

    The per-attempt rule, one attempt at a time: of the windows (read by
    attribute) ordered by (start, window_id) that start in
    (t - 30 min - 1e-9, t] and end after t, the last that ends at or after
    t + toa.
    """
    target = None
    for w in sorted(windows, key=lambda w: (w.start, w.window_id)):
        if t - ORACLE_MAX_WINDOW_S - 1e-9 < w.start <= t and w.end > t and t + toa <= w.end:
            target = w.target
    return target


def oracle_collides(a, b, airtime):
    """Pure ALOHA without capture: same receiver, on-air intervals that overlap.

    Attempts are (start, receiver, ...) records on air for `airtime`; the
    intervals are half-open, so two that only touch do not overlap.
    """
    a_start, a_receiver = a[0], a[1]
    b_start, b_receiver = b[0], b[1]
    return (a_receiver == b_receiver
            and max(a_start, b_start) < min(a_start + airtime, b_start + airtime))


def oracle_resolve_collisions(attempts, airtime, law=oracle_collides):
    """Per-attempt success of a start-ordered sweep: an attempt succeeds iff it collides with none.

    `attempts` are (start, receiver, ...) records sharing one `airtime`;
    `law(a, b, airtime)` says whether two of them collide.  The sweep keeps
    the attempts still on air at each start and asks the law about those
    alone: an attempt that ended by then cannot overlap this one or any
    later one.
    """
    success = [True] * len(attempts)
    active = []  # attempts not yet ended by the current start
    for i in sorted(range(len(attempts)), key=lambda i: attempts[i][0]):
        a = attempts[i]
        active = [j for j in active if attempts[j][0] + airtime > a[0]]
        for j in active:
            if law(a, attempts[j], airtime):
                success[i] = success[j] = False
        active.append(i)
    return success


def oracle_poisson_arrivals(rng, rate, horizon):
    """Poisson arrival times before `horizon`, one scalar exponential draw per gap."""
    out = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return out
        out.append(t)


def oracle_sun_seconds(orbit, t0, t1):
    """Sunlit time in [t0, t1), as the difference of the sunlit measure of [0, u).

    `orbit` is read by attribute only.  u is orbit time, simulation time
    plus the phase offset; the measure of [0, u) counts the sunlit span of
    each whole period below u and the sunlit part of the last one.
    """
    period, sun = orbit.period_s, orbit.sun_duration_s
    off = (orbit.phase_offset_rad / (2.0 * math.pi)) * period % period

    def sunlit_below(u):
        full, rem = divmod(u, period)
        return full * sun + min(rem, sun)

    return sunlit_below(t1 + off) - sunlit_below(t0 + off)


class OracleSlot(NamedTuple):
    """What one settled slot adds to a node's ledgers."""

    harvested_j: float
    consumed_j: float
    discharge_j: float   # battery discharge, for the orbit ledger
    clamp_j: float       # phi_after - (phi_before + harvested - consumed)
    brownout: bool


def oracle_slot(state, totals, tx_phase, sun_s, slot_s, harvest, profile):
    """Settle one slot of the stored-energy law on `state` and `totals`; return its `OracleSlot`.

    Every input is read by attribute only, and `state` and `totals` are
    written the same way.  The slot law

        phi[t] = phi[t-1] + y*E_g - x*E_cons - (1 - x)*E_sleep

    with x = 1 for a transmit, y = 1 for a slot with sunlit time, E_g the
    sunlit share of the slot's harvest (capped at the charge rate) and phi
    clamped to [0, phi_max]; the discharge counts the bus draw beyond
    harvest and an eclipse transmit's extra draw.  Floats are computed in
    the simulator's order of operations, and every running sum takes the
    slot once; a slot whose phi falls below zero is one brownout.
    """
    x = 0 if tx_phase is None else 1
    y = 1 if sun_s > 0.0 else 0
    e_g = 0.0
    if y:
        share = min(max(sun_s / slot_s, 0.0), 1.0)
        e_g = min(harvest.e_g_sun_j_per_slot * share, harvest.charge_rate_limit_j_per_slot)
    harvested = y * e_g
    consumed = x * profile.e_cons_tx_j + (1 - x) * profile.e_sleep_j
    bus_rate = profile.e_sleep_j / slot_s
    discharge = bus_rate * (slot_s - sun_s)
    if y and bus_rate > e_g / sun_s:
        discharge += (bus_rate - e_g / sun_s) * sun_s
    if tx_phase == "eclipse":
        discharge += profile.e_cons_tx_j - profile.e_sleep_j

    raw = state.phi_j + (harvested - consumed)
    state.phi_j = min(max(raw, 0.0), state.phi_max_j)
    clamp = state.phi_j - raw
    totals.harvested_j += harvested
    totals.consumed_j += consumed
    totals.period_consumed_j += consumed
    totals.period_slots += 1
    totals.orbit_s += slot_s
    totals.orbit_discharge_j += discharge
    if clamp:
        totals.clamp_count += 1
        totals.clamp_total_j += clamp
    if raw < 0.0:
        totals.brownouts += 1
    return OracleSlot(harvested, consumed, discharge, clamp, raw < 0.0)


def oracle_next_tick(ledger, arrival, sunrise):
    """The node's next real slot tick, or None past its last slot: the wake policy, transcribed.

    `ledger` is read by attribute only: its grid (slot_offset, n_slots and
    law.slot_s), its settled slots, phi and the transmit draw.  The tick is
    the earliest of the brownout guard, the last tick and the first tick at
    or after the arrival; if that one is at or after the sunrise, the first
    tick at or after the sunrise instead.  A tick is never at or below the
    settled slots.  A time is placed on the grid by a rounded guess, then
    exact comparisons.
    """
    offset, slot_s, settled = ledger.slot_offset, ledger.law.slot_s, ledger.settled

    def first_tick(t):
        k = math.floor((t - offset) / slot_s)
        while offset + k * slot_s > t:
            k -= 1
        while offset + (k + 1) * slot_s <= t:
            k += 1
        if offset + k * slot_s < t:
            k += 1
        return max(k, settled + 1)

    if settled >= ledger.n_slots:
        return None
    guard = settled + max(1, int(ledger.energy.phi_j // ledger.law.profile.e_cons_tx_j))
    k = min(guard, ledger.n_slots)
    if arrival < math.inf:
        k = min(k, first_tick(arrival))
    if offset + k * slot_s >= sunrise:
        k = first_tick(sunrise)
    return k
