#!/usr/bin/env python3
"""Multi-year capacity-fade projection for the reference pack.

Steps the nominal orbit cycle (no traffic) and prints end-of-year capacity
for a configurable horizon.

Usage: python scripts/fade_horizon.py [--years N]
"""

import argparse

from leolora.config import default_scenario
from leolora.battery import run_degradation_curve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--years", type=float, default=5.0)
    args = parser.parse_args()

    sc = default_scenario()
    rows, state = run_degradation_curve(
        sc.battery, sc.orbit, sc.energy.profile, sc.sim.slot_s,
        days=args.years * 365.0, resolution_days=365.0,
    )
    print(" year        cycles   d_linear      fade     capacity_ah")
    for day, d_linear, fade in rows:
        cap = sc.battery.capacity_rated_ah * (1.0 - fade)
        print(f"  {day/365:4.1f}  {day/365*5840:10.0f}   {d_linear:.6e}  {fade:7.4f}   {cap:8.3f}")
    print(f"\nfinal: {state.cycles_completed:.0f} cycles, "
          f"{state.fade_fraction*100:.2f}% capacity fade after {args.years:.1f} years")


if __name__ == "__main__":
    main()
