"""Command-line entry point.

Subcommands:
    simulate     run a scenario, write metrics CSV and a summary JSON
    degradation  quiet per-orbit fade curve (day, d_linear, fade_fraction)
    airtime      symbol/airtime/energy figures for the configured radio
    schedule     forecast windows and phase timeline as re-ingestible JSON

Exit codes: 0 success, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

from . import engine
from .airtime import payload_symbols, symbol_duration, time_on_air, tx_energy
from .config import ScenarioConfig, default_scenario_dict, load_scenario, parse_scenario
from .exceptions import ValidationError
from .orbit import build_schedule, next_phase_boundary, phase_at, sun_seconds

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _load_config(path: str | None) -> ScenarioConfig:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if path is None or path == "default":
            scenario = parse_scenario(default_scenario_dict())
        else:
            scenario = load_scenario(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return scenario


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.sweep < 1:
        print("error: sweep must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    scenario = _load_config(args.config)
    seeds = [args.seed if args.seed is not None else scenario.sim.seed]
    if args.sweep > 1:
        seeds = [seeds[0] + i for i in range(args.sweep)]

    merged = []
    for seed in seeds:
        result = engine.run(scenario, seed=seed)
        suffix = f".seed{seed}" if len(seeds) > 1 else ""
        out = args.out or "metrics.csv"
        out_path = Path(out).with_suffix(f"{suffix}{Path(out).suffix}") if suffix else Path(out)
        if args.format == "json":
            rows = [m._asdict() for m in result.metrics]
            out_path.write_text(json.dumps(rows, indent=2) + "\n")
        else:
            engine.write_metrics_csv(result.metrics, out_path)
        summary = args.summary or "summary.json"
        summary_path = (Path(summary).with_suffix(f"{suffix}{Path(summary).suffix}")
                        if suffix else Path(summary))
        engine.write_summary_json(result.summary, summary_path)
        # the index sits next to the summaries, so it names them alone
        merged.append({"seed": seed, "summary": summary_path.name,
                       "pdr": result.summary["pdr"],
                       "delivered": result.summary["packets"]["delivered"]})
        print(f"seed {seed}: wrote {out_path} and {summary_path}")
    if len(seeds) > 1:
        Path(args.summary or "summary.json").with_suffix(".sweep.json").write_text(
            json.dumps(merged, indent=2) + "\n"
        )
    return EXIT_OK


def cmd_degradation(args: argparse.Namespace) -> int:
    scenario = _load_config(args.config)
    rows, _ = engine.run_degradation_curve(
        scenario.battery,
        scenario.orbit,
        scenario.energy.profile,
        scenario.sim.slot_s,
        days=args.years * 365.0,
        resolution_days=args.resolution,
    )
    if args.format == "json":
        text = json.dumps(
            [{"day": d, "d_linear": dl, "fade_fraction": f} for d, dl, f in rows],
            indent=2,
        ) + "\n"
    else:
        lines = ["day,d_linear,fade_fraction"]
        lines += [f"{d!r},{dl!r},{f!r}" for d, dl, f in rows]
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_airtime(args: argparse.Namespace) -> int:
    scenario = _load_config(args.config)
    radio = scenario.radio
    overrides = {}
    if args.sf is not None:
        overrides["spreading_factor"] = args.sf
    if args.bandwidth_hz is not None:
        overrides["bandwidth_hz"] = args.bandwidth_hz
    if args.payload_bytes is not None:
        overrides["payload_bytes"] = args.payload_bytes
    if args.tx_power_w is not None:
        overrides["tx_power_w"] = args.tx_power_w
    if overrides:
        if "spreading_factor" in overrides or "bandwidth_hz" in overrides:
            overrides.setdefault("low_data_rate_optimize", None)
        radio = dataclasses.replace(radio, **overrides)

    figures = {
        "spreading_factor": radio.spreading_factor,
        "bandwidth_hz": radio.bandwidth_hz,
        "payload_bytes": radio.payload_bytes,
        "symbol_duration_s": symbol_duration(radio),
        "payload_symbols": payload_symbols(radio),
        "time_on_air_s": time_on_air(radio),
        "tx_energy_j": tx_energy(radio),
    }
    if args.format == "json":
        text = json.dumps(figures, indent=2) + "\n"
    else:
        width = max(len(k) for k in figures)
        text = "".join(f"{k:<{width}}  {v}\n" for k, v in figures.items())
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    scenario = _load_config(args.config)
    horizon = args.horizon_s
    if horizon is None:
        horizon = scenario.sim.duration_s
    if horizon <= 0:
        print("error: horizon_s must be > 0", file=sys.stderr)
        return EXIT_VALIDATION
    step = args.step_s or scenario.sim.schedule_step_s

    windows = []
    for u in range(max(scenario.sim.node_count, 1)):
        orbit = scenario.node_orbit(u)
        sched = build_schedule(orbit, list(scenario.stations), horizon, step)
        for w in sched.windows:
            windows.append({
                "node": u,
                "target": w.target,
                "start_s": w.start,
                "end_s": w.end,
                "phase": w.phase,
                "window_id": w.window_id,
            })

    timeline = []
    t = 0.0
    while t < horizon:
        seg_end, _ = next_phase_boundary(scenario.orbit, t)
        timeline.append({"start_s": t, "end_s": min(seg_end, horizon),
                         "phase": phase_at(scenario.orbit, t)})
        t = seg_end

    doc = {
        "horizon_s": horizon,
        "step_s": step,
        "sun_fraction": sun_seconds(scenario.orbit, 0.0, horizon) / horizon,
        "phase_timeline": timeline,
        "t_sun": [w["window_id"] for w in windows if w["phase"] == "sun"],
        "t_eclipse": [w["window_id"] for w in windows if w["phase"] == "eclipse"],
        "windows": windows,
    }
    _write_or_print(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leolora",
        description="Battery-lifespan-aware LoRaWAN MAC simulator for LEO satellites",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="scenario JSON path ('default' or omit for the bundled scenario)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sim = sub.add_parser("simulate", help="run the discrete-event simulation")
    common(p_sim)
    p_sim.set_defaults(out=None)
    p_sim.add_argument("--summary", default=None, help="summary JSON path (default summary.json)")
    p_sim.add_argument("--sweep", type=int, default=1,
                       help="run N consecutive seeds starting at --seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_deg = sub.add_parser("degradation", help="fade curve without traffic")
    common(p_deg)
    p_deg.add_argument("--years", type=float, default=1.0)
    p_deg.add_argument("--resolution", type=float, default=1.0, help="row spacing in days")
    p_deg.set_defaults(func=cmd_degradation)

    p_air = sub.add_parser("airtime", help="LoRa airtime and energy figures")
    common(p_air)
    p_air.add_argument("--sf", type=int, default=None)
    p_air.add_argument("--bandwidth-hz", type=int, default=None)
    p_air.add_argument("--payload-bytes", type=int, default=None)
    p_air.add_argument("--tx-power-w", type=float, default=None)
    p_air.set_defaults(func=cmd_airtime)

    p_sch = sub.add_parser("schedule", help="forecast windows and phase timeline")
    common(p_sch)
    p_sch.add_argument("--horizon-s", type=float, default=None)
    p_sch.add_argument("--step-s", type=float, default=None)
    p_sch.set_defaults(func=cmd_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
