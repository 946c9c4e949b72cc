#!/usr/bin/env python3
"""Battery-aware MAC vs immediate-ALOHA baseline over a seed batch.

Runs both protocols on the reference scenario with identical traffic and
slot grids per seed, then reports total cycle-aging degradation and packet
delivery side by side.

Usage: python scripts/compare_protocols.py [--seeds N] [--days D] [--csv PATH]
"""

import argparse
import copy

from leolora import engine
from leolora.config import default_scenario_dict, parse_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--days", type=float, default=1.0)
    parser.add_argument("--csv", default=None, help="optional per-seed CSV output")
    args = parser.parse_args()

    base = copy.deepcopy(default_scenario_dict())
    base["sim"]["duration_days"] = args.days
    scenarios = {}
    for protocol in ("battery_aware", "naive_aloha"):
        d = copy.deepcopy(base)
        d["sim"]["protocol"] = protocol
        scenarios[protocol] = parse_scenario(d)

    schedules = engine.build_schedules(scenarios["battery_aware"])

    rows = []
    print(" seed   aware_cycle_aging   naive_cycle_aging   aware_pdr  naive_pdr")
    for seed in range(args.seeds):
        out = {}
        for protocol, scenario in scenarios.items():
            res = engine.run(scenario, seed=seed, schedules=schedules)
            out[protocol] = (
                sum(n.battery.dc_cycle for n in res.nodes),
                res.summary["pdr"] or 0.0,
            )
        ca, pa = out["battery_aware"]
        cn, pn = out["naive_aloha"]
        rows.append((seed, ca, cn, pa, pn))
        flag = "" if ca <= cn else "  <-- baseline beat the aware MAC"
        print(f"  {seed:3d}   {ca:.10e}   {cn:.10e}   {pa:8.3f}  {pn:8.3f}{flag}")

    n_ok = sum(1 for _, ca, cn, _, _ in rows if ca <= cn)
    print(f"\nbattery-aware <= naive cycle aging on {n_ok}/{len(rows)} seeds")
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("seed,aware_cycle_aging,naive_cycle_aging,aware_pdr,naive_pdr\n")
            for row in rows:
                f.write(",".join(repr(v) for v in row) + "\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
