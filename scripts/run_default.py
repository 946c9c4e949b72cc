#!/usr/bin/env python3
"""Run the bundled reference scenario and print a mission report.

Usage: python scripts/run_default.py [--seed N] [--days D] [--nodes N]
"""

import argparse
import copy

from leolora import engine
from leolora.config import default_scenario_dict, parse_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--days", type=float, default=None)
    parser.add_argument("--nodes", type=int, default=None)
    args = parser.parse_args()

    d = copy.deepcopy(default_scenario_dict())
    if args.days is not None:
        d["sim"]["duration_days"] = args.days
    if args.nodes is not None:
        d["sim"]["node_count"] = args.nodes
    scenario = parse_scenario(d)
    result = engine.run(scenario, seed=args.seed)

    s = result.summary
    p = s["packets"]
    pdr = "n/a" if s["pdr"] is None else f"{s['pdr']:.3f}"  # None: no packet generated
    print(f"protocol={s['protocol']} seed={s['seed']} "
          f"duration={s['duration_s']/86400:.2f} d nodes={s['node_count']}")
    print(f"packets: generated={p['generated']} delivered={p['delivered']} pdr={pdr}")
    print(f"drops:   energy={p['dropped_energy']} "
          f"collisions={p['dropped_collision_exhausted']} "
          f"no_window={p['dropped_no_window']}")
    print()
    print(" node   soc    cycles   fade_fraction   d_linear      brownouts")
    for nid, n in s["per_node"].items():
        print(f"  {nid:>3}  {n['soc']:.3f}  {n['cycles_completed']:8.3f} "
              f"  {n['fade_fraction']:.6e}  {n['d_linear']:.6e}  {n['brownouts']:6d}")
    print()
    print("gateway fleet assessment (from uplinked battery summaries):")
    for nid, a in s["gateway_assessment"].items():
        print(f"  node {nid}: d_linear={a['d_linear']:.6e} "
              f"fade={a['fade_fraction']:.6e}")


if __name__ == "__main__":
    main()
