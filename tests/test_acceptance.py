"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the full report.
"""

import copy
import math
import time

import numpy as np

from leolora import engine
from leolora.airtime import RadioConfig, time_on_air
from leolora.battery import (
    CycleStress,
    DegradationParams,
    calendar_aging,
    cycle_aging,
    sei_capacity_fade,
)
from leolora.config import parse_scenario
from leolora.energy import ewma_update
from leolora.engine import (
    TxAttempt,
    gateway_compute_fleet_degradation,
    resolve_collisions,
    run_degradation_curve,
)
from leolora.mac import TxDecision, run_transmission_sequence
from leolora.orbit import ECLIPSE, SUN, ForecastWindow, build_schedule, sun_seconds
from leolora.report import NodeBatteryReport

from conftest import make_scenario
from oracles import oracle_airtime, oracle_calendar, oracle_cycle, oracle_sei


def _report(label, ok, detail=""):
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_degradation_oracle_equivalence(default_scenario):
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(1000):
        cases.append(dict(
            k1=rng.uniform(1e-3, 1e-2), k2=rng.uniform(0.5, 4.0),
            ea=rng.uniform(35_000.0, 40_000.0),
            b=rng.uniform(1.0, 1.5), c=rng.uniform(1.0, 1.5), d=rng.uniform(1.0, 1.5),
            alpha=rng.uniform(0.0, 1.0), k_sei=rng.uniform(50.0, 200.0),
            temp=rng.uniform(253.0, 313.0), soc=rng.uniform(0.0, 1.0),
            days=rng.uniform(0.0, 730.0), dod=rng.uniform(0.0, 1.0),
            c_rate=rng.uniform(0.1, 15.0), n=rng.uniform(0.0, 6000.0),
            d_linear=rng.uniform(0.0, 0.5),
        ))

    t0 = time.perf_counter()
    worst = 0.0
    for c in cases:
        params = DegradationParams(k1=c["k1"], k2=c["k2"], ea_j_per_mol=c["ea"],
                                   b=c["b"], c=c["c"], d=c["d"],
                                   alpha_sei=c["alpha"], k_sei=c["k_sei"])
        stress = CycleStress(dod=c["dod"], c_rate=c["c_rate"], temperature_k=c["temp"])
        pairs = (
            (calendar_aging(params, c["temp"], c["soc"], c["days"]),
             oracle_calendar(c["k1"], c["ea"], c["temp"], c["soc"], c["b"], c["days"])),
            (cycle_aging(params, stress, c["n"]),
             oracle_cycle(c["k2"], c["dod"], c["d"], c["c_rate"], c["c"],
                          c["ea"], c["temp"], c["n"])),
            (sei_capacity_fade(params, c["d_linear"]),
             oracle_sei(c["alpha"], c["k_sei"], c["d_linear"])),
        )
        for got, want in pairs:
            err = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0

    _report("criterion 1 (degradation oracle equivalence)",
            worst <= 1e-12 and elapsed < 1.0,
            f"worst rel err {worst:.2e}, {elapsed*1e3:.0f} ms over 1000 points")


def test_criterion_02_cycle_count_reproduction(default_scenario, default_dict):
    t0 = time.perf_counter()
    _, state = run_degradation_curve(
        default_scenario.battery, default_scenario.orbit,
        default_scenario.energy.profile, default_scenario.sim.slot_s,
        days=365.0, resolution_days=365.0,
    )
    elapsed = time.perf_counter() - t0
    ok = abs(state.cycles_completed - 5840.0) <= 16.0 and elapsed < 30.0

    # the event-driven engine agrees on a two-day prefix: ~16 cycles/day
    sc = make_scenario(default_dict, **{"sim.duration_days": 2.0, "sim.node_count": 2})
    result = engine.run(sc)
    engine_ok = all(abs(n.battery.cycles_completed - 32.0) <= 0.5 for n in result.nodes)

    _report("criterion 2 (5840 cycles/year at 40% DoD)",
            ok and engine_ok,
            f"quiet path {state.cycles_completed:.3f} cycles in {elapsed:.2f} s; "
            f"engine 2-day {[round(n.battery.cycles_completed, 3) for n in result.nodes]}")


def _replayed_closure(sc, node, slots) -> float:
    """|phi_end - phi_0 - sum of the slot law - clamps| over gross energy.

    Each slot's balance is recomputed here from its decision x (did the
    engine settle a transmit?) and from the sunlit time of its slot index;
    only the clamps come from the engine's running total.
    """
    prof, harvest, slot_s = sc.energy.profile, sc.energy.harvest, sc.sim.slot_s
    assert len(slots) == round((node.account_end - node.slot_offset) / slot_s)
    total = 0.0
    for k, (tx_phase, _, _, _) in enumerate(slots):
        t0 = node.slot_offset + k * slot_s
        sunlit = sun_seconds(node.orbit, t0, t0 + slot_s)
        x = 0 if tx_phase is None else 1
        y = 1 if sunlit > 0.0 else 0
        e_g = harvest.slot_harvest(min(max(sunlit / slot_s, 0.0), 1.0))
        total += y * e_g - x * prof.e_cons_tx_j - (1 - x) * prof.e_sleep_j
    clamp = node.clamp_total_j
    phi0 = sc.steady_state_phi_j(node.orbit)
    gross = node.energy_consumed_j + node.energy_harvested_j
    return abs(node.energy.phi_j - phi0 - total - clamp) / gross


def test_criterion_03_energy_conservation(default_dict, energy_spy):
    t0 = time.perf_counter()
    sc = make_scenario(default_dict, **{"sim.duration_days": 30.0, "sim.node_count": 2})
    result = engine.run(sc)
    worst = max(_replayed_closure(sc, node, energy_spy(node)) for node in result.nodes)

    # clamping variant: oversupplied harvest must clamp at capacity, be
    # counted, and still close the ledger
    sc_clamp = make_scenario(
        default_dict,
        **{"sim.duration_days": 0.5, "sim.node_count": 1,
           "energy.e_g_sun_j_per_slot": 60000.0,
           "energy.charge_rate_limit_j_per_slot": 60000.0},
    )
    res_clamp = engine.run(sc_clamp)
    node = res_clamp.nodes[0]
    closure_clamp = _replayed_closure(sc_clamp, node, energy_spy(node))
    clamp_ok = node.clamp_count and closure_clamp <= 1e-9

    elapsed = time.perf_counter() - t0
    _report("criterion 3 (30-day energy ledger closes to 1e-9)",
            worst <= 1e-9 and clamp_ok and elapsed < 30.0,
            f"worst closure {worst:.2e}; clamped run counted "
            f"{node.clamp_count} clamps, closure "
            f"{closure_clamp:.2e}; {elapsed:.1f} s")


def test_criterion_04_sun_fraction_exact(default_scenario):
    from fractions import Fraction

    orbit = default_scenario.orbit
    ok = True
    for k in (1, 2, 3, 7, 16, 365):
        span = k * orbit.period_s
        sunlit = sun_seconds(orbit, 0.0, span)
        ok = ok and (sunlit / span == 3300.0 / 5400.0)
        ok = ok and (Fraction(int(sunlit), int(span)) == Fraction(55, 90))
    _report("criterion 4 (sun fraction exactly 55/90)", ok,
            f"checked k orbits in {{1,2,3,7,16,365}}")


def test_criterion_05_algorithm_safety(default_dict, decision_spy):
    rng = np.random.default_rng(505)
    total_tx = 0
    total_packets = 0
    for i in range(100):
        d = copy.deepcopy(default_dict)
        cap_ah = float(rng.uniform(2.0, 30.0))
        cap_j = cap_ah * 28.0 * 3600.0
        d["battery"]["capacity_rated_ah"] = cap_ah
        d["battery"]["soc_initial"] = float(rng.uniform(0.1, 0.9))
        d["energy"]["psi_min_j"] = float(rng.uniform(0.0, 0.5)) * cap_j
        d["energy"]["e_critical_j"] = float(rng.uniform(0.0, 0.5)) * cap_j
        d["energy"]["e_sleep_j"] = float(rng.uniform(100.0, 25000.0))
        d["energy"]["e_g_sun_j_per_slot"] = float(rng.uniform(0.0, 50000.0))
        d["energy"]["charge_rate_limit_j_per_slot"] = 60000.0
        d["energy"]["e_cons_tx_j"] = None
        d["mac"]["dif_ref"] = None
        d["sim"]["node_count"] = int(rng.integers(1, 3))
        d["sim"]["duration_days"] = 1000 * 40.0 / 86400.0
        d["sim"]["traffic_rate_per_s"] = 1.0 / float(rng.uniform(50.0, 300.0))
        d["sim"]["schedule_step_s"] = 5.0
        d["sim"]["seed"] = int(rng.integers(0, 2**31))
        n_st = int(rng.integers(0, 3))
        d["stations"] = [
            {"id": f"gs-{j}", "latitude_rad": float(rng.uniform(-1.2, 1.2)),
             "longitude_rad": float(rng.uniform(-math.pi, math.pi)),
             "min_elevation_rad": float(rng.uniform(0.0, 0.35))}
            for j in range(n_st)
        ]
        sc = parse_scenario(d)
        result = engine.run(sc)

        for audit in decision_spy(result):
            if not audit.transmit:
                continue
            total_tx += 1
            if audit.phase == ECLIPSE:
                assert audit.psi_j > audit.psi_min_j, f"scenario {i}: eclipse reserve violated"
            else:
                assert audit.estimate_j >= audit.threshold_j, \
                    f"scenario {i}: sun energy threshold violated"

        p = result.summary["packets"]
        terminal = (p["delivered"] + p["dropped_energy"]
                    + p["dropped_collision_exhausted"] + p["dropped_no_window"])
        assert p["generated"] == terminal, f"scenario {i}: packet accounting broken"
        total_packets += p["generated"]

    # the spy must have seen decisions, or the loop above checked nothing
    _report("criterion 5 (Algorithm safety over 100 random scenarios)", total_tx > 0,
            f"{total_tx} transmit decisions, {total_packets} packets, 0 violations")


def test_criterion_06_ewma_convergence():
    worst = 0.0
    for beta, target, initial in ((0.05, 10.0, 20.0), (0.3, 0.0, 7.5)):
        est = initial
        for t in range(1, 101):
            est = ewma_update(beta, target, est)
            expected = (1.0 - beta) ** t * abs(initial - target)
            err = abs(abs(est - target) - expected) / expected
            worst = max(worst, err)
    _report("criterion 6 (EWMA geometric convergence)", worst <= 1e-12,
            f"worst rel deviation {worst:.2e} over t <= 100")


def test_criterion_07_airtime_oracle_and_sequence_duration(default_scenario):
    worst = 0.0
    for sf in range(7, 13):
        for bw in (125_000, 250_000, 500_000):
            for cr in range(5, 9):
                for pl in (1, 10, 51, 222):
                    cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                                      coding_rate_denominator=cr, payload_bytes=pl,
                                      tx_power_w=0.4)
                    want = oracle_airtime(sf, bw, cr, pl)
                    worst = max(worst, abs(time_on_air(cfg) - want) / want)
    grid_ok = worst <= 5e-3

    radio = default_scenario.radio
    mac = default_scenario.mac
    toa = time_on_air(radio)
    window = ForecastWindow("mc", 0.0, 1800.0, SUN, "gw")
    rng = np.random.default_rng(707)
    durations = []
    for _ in range(10_000):
        starts = run_transmission_sequence(TxDecision.transmit(window), radio, mac, rng)
        durations.append(starts[-1] + toa - window.start)
    mean = float(np.mean(durations))
    seq_ok = 36.0 <= mean <= 44.0

    _report("criterion 7 (airtime grid + 40 s sequence)",
            grid_ok and seq_ok,
            f"grid worst rel err {worst:.2e}; mean 8-attempt duration {mean:.2f} s")


def test_criterion_08_collision_sanity():
    t0 = time.perf_counter()
    g_load = 0.5
    toa = 0.288768
    rate = g_load / toa
    n_target = 100_000
    rng = np.random.default_rng(808)
    gaps = rng.exponential(1.0 / rate, size=int(n_target * 1.05) + 1000)
    starts = np.cumsum(gaps)[:n_target]
    attempts = [TxAttempt(start=float(s), airtime=toa, channel=0, sf=10, receiver="gw")
                for s in starts]
    outcomes = resolve_collisions(attempts)
    n = len(outcomes)
    p_hat = sum(outcomes) / n
    p_want = math.exp(-2.0 * g_load)
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    elapsed = time.perf_counter() - t0
    ok = abs(p_hat - p_want) <= 3.0 * se and elapsed < 60.0
    _report("criterion 8 (pure-ALOHA e^-2G collision law)", ok,
            f"p={p_hat:.5f} vs e^-2G={p_want:.5f}, |diff|={abs(p_hat-p_want):.5f} "
            f"<= 3SE={3*se:.5f}, n={n}, {elapsed:.1f} s")


def test_criterion_09_gateway_node_agreement(default_scenario):
    params = default_scenario.battery.params
    rng = np.random.default_rng(909)
    reports = []
    for node in range(10):
        t = 0.0
        for _ in range(rng.integers(1, 6)):
            span = float(rng.uniform(3600.0, 86400.0))
            n_dod = int(rng.integers(0, 9))
            reports.append(NodeBatteryReport(
                node_id=node, period_start=t, period_end=t + span,
                n_slots=int(span // 40), n_transmissions=int(rng.integers(0, 50)),
                energy_consumed_j=float(rng.uniform(0, 1e7)),
                dod_observations=tuple(float(rng.uniform(0.0, 0.9))
                                       for _ in range(n_dod)),
                mean_temperature_sun_k=float(rng.uniform(283.0, 313.0)),
                mean_temperature_eclipse_k=float(rng.uniform(253.0, 283.0)),
            ))
            t += span + 1.0

    soc_ref, c_ref, dod_ref = 0.825, 12.5, 0.4
    got = gateway_compute_fleet_degradation(
        reports, params, soc_reference=soc_ref, c_rate_reference=c_ref,
        dod_reference=dod_ref,
    )

    worst = 0.0
    for node in range(10):
        cal = 0.0
        cyc = 0.0
        for r in reports:
            if r.node_id != node:
                continue
            cal += oracle_calendar(params.k1, params.ea_j_per_mol,
                                   r.mean_temperature_sun_k, soc_ref, params.b,
                                   (r.period_end - r.period_start) / 86400.0)
            for dod in r.dod_observations:
                cyc += oracle_cycle(params.k2, dod, params.d, c_ref, params.c,
                                    params.ea_j_per_mol, r.mean_temperature_eclipse_k,
                                    dod / dod_ref)
        fade = oracle_sei(params.alpha_sei, params.k_sei, cal + cyc)
        a = got[node]
        for mine, wants in ((a.dc_cal, cal), (a.dc_cycle, cyc),
                            (a.fade_fraction, fade)):
            worst = max(worst, abs(mine - wants) / max(abs(wants), 1e-300))

    _report("criterion 9 (gateway equals node-side evaluation)", worst <= 1e-12,
            f"worst rel err {worst:.2e} over {len(reports)} reports")


def test_criterion_10_directional_protocol_claim(default_dict):
    t0 = time.perf_counter()
    sc_aware = make_scenario(default_dict, **{"sim.protocol": "battery_aware"})
    sc_naive = make_scenario(default_dict, **{"sim.protocol": "naive_aloha"})
    schedules = {
        u: build_schedule(sc_aware.node_orbit(u), list(sc_aware.stations),
                          horizon=sc_aware.sim.duration_s,
                          step=sc_aware.sim.schedule_step_s)
        for u in range(sc_aware.sim.node_count)
    }

    rows = []
    for seed in range(20):
        res_a = engine.run(sc_aware, seed=seed, schedules=schedules)
        res_n = engine.run(sc_naive, seed=seed, schedules=schedules)
        cyc_a = sum(n.battery.dc_cycle_total for n in res_a.nodes)
        cyc_n = sum(n.battery.dc_cycle_total for n in res_n.nodes)
        rows.append((seed, cyc_a, cyc_n, res_a.summary["pdr"], res_n.summary["pdr"]))
        assert cyc_a <= cyc_n, (
            f"seed {seed}: battery-aware cycle aging {cyc_a:.6e} exceeds "
            f"naive baseline {cyc_n:.6e}"
        )
    elapsed = time.perf_counter() - t0

    mean_pdr_a = float(np.mean([r[3] for r in rows]))
    mean_pdr_n = float(np.mean([r[4] for r in rows]))
    print("\n seed  aware_cycle_aging  naive_cycle_aging  aware_pdr  naive_pdr")
    for seed, ca, cn, pa, pn in rows:
        print(f"  {seed:3d}  {ca:.10e}  {cn:.10e}  {pa:9.3f}  {pn:9.3f}")
    _report("criterion 10 (battery-aware <= naive on every seed)",
            elapsed < 300.0,
            f"20 seeds, mean PDR aware {mean_pdr_a:.3f} vs naive {mean_pdr_n:.3f}; "
            f"{elapsed:.1f} s")


def test_criterion_11_determinism(tmp_path, default_dict):
    sc = make_scenario(default_dict, **{"sim.duration_days": 0.5, "sim.node_count": 3})
    blobs = []
    for tag in ("a", "b"):
        result = engine.run(sc, seed=1234)
        csv = tmp_path / f"{tag}.csv"
        summary = tmp_path / f"{tag}.json"
        engine.write_metrics_csv(result.metrics, csv)
        engine.write_summary_json(result.summary, summary)
        blobs.append((csv.read_bytes(), summary.read_bytes()))
    ok = blobs[0] == blobs[1] and len(blobs[0][0]) > 0
    _report("criterion 11 (byte-identical reruns)", ok,
            f"CSV {len(blobs[0][0])} bytes, JSON {len(blobs[0][1])} bytes")
