"""Benchmark workloads and the output check every `leolora simulate` run passes.

Each workload is the bundled default scenario with a few `sim` fields
changed.  The check reads only what the CLI wrote (metrics CSV, summary
JSON, sweep index); it never looks inside the simulator.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Seed at which every run also checks the committed output digest.
COMMITTED_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sim: dict
    # sha256 of the outputs at COMMITTED_SEED (see `check_outputs`).
    digest: str
    sweep: int = 1

    def scenario(self, default: dict) -> dict:
        """The default scenario dict with this workload's `sim` fields applied."""
        d = copy.deepcopy(default)
        d["sim"].update(self.sim)
        return d

    def cli_args(self, config: Path, out_dir: Path, seed: int) -> list[str]:
        args = ["simulate", "--config", str(config), "--seed", str(seed),
                "--out", str(out_dir / "metrics.csv"),
                "--summary", str(out_dir / "summary.json")]
        if self.sweep > 1:
            args += ["--sweep", str(self.sweep)]
        return args

    def seeds(self, seed: int) -> list[int]:
        """CLI seeds one invocation at `--seed seed` runs."""
        return [seed + i for i in range(self.sweep)]

    def run_seeds(self, seed: int, count: int) -> list[int]:
        """`--seed` values for the `count` inputs of the run seeded `seed`.

        The inputs of one run, and of runs with different seeds, share no
        CLI seed, sweeps included.
        """
        return [(seed * count + j) * self.sweep for j in range(count)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="steady",
            why="8 nodes x 4 days, battery-aware MAC, 1 pkt/600 s: slot ticks and schedule "
                "building dominate; the MAC decides about once per 15 slots",
            sim={"duration_days": 4.0, "node_count": 8, "protocol": "battery_aware",
                 "traffic_rate_per_s": 1.0 / 600.0},
            digest="6eb05a50152716be2ba7eaa24c8aeed7e4ca11b5f91e9c6872bdcec3cdbad8f6",
        ),
        Workload(
            name="sweep",
            why="simulate --sweep 10 on 4 nodes x 1 day, naive ALOHA: set-up repeats per seed "
                "on identical schedules, full 8-attempt sequences, no MAC selection",
            sim={"duration_days": 1.0, "node_count": 4, "protocol": "naive_aloha",
                 "traffic_rate_per_s": 1.0 / 600.0},
            sweep=10,
            digest="a8c74e7b0d9cec3e92e1682bfd23adecc691e9facb0dec2db147cecf922313a8",
        ),
    )
}

# A scenario small enough for the benchmark's own tests (well under a second).
SMALL = Workload(
    name="small",
    why="2 nodes x 0.25 day, battery-aware MAC, 3-hour reports",
    sim={"duration_days": 0.25, "node_count": 2, "protocol": "battery_aware",
         "traffic_rate_per_s": 1.0 / 300.0, "report_interval_s": 10800.0},
    digest="bf897f3c4afde867700f5070d5162441c90059f6b7776daec787850f5568e691",
)

# Summary keys present when the digests were committed.  The digest covers
# only these, so a block added to the summary later is not a behaviour change.
_PACKET_KEYS = ("generated", "delivered", "dropped_energy",
                "dropped_collision_exhausted", "dropped_no_window")
_NODE_KEYS = ("soc", "fade_fraction", "d_linear", "dc_cal", "dc_cycle", "cycles_completed",
              "calendar_days", "delivered", "dropped_energy", "dropped_collision_exhausted",
              "dropped_no_window", "energy_harvested_j", "energy_consumed_j", "brownouts",
              "clamp_events")
_GATEWAY_KEYS = ("dc_cal", "dc_cycle", "d_linear", "fade_fraction")
_TOP_KEYS = ("seed", "protocol", "duration_s", "node_count", "packets_terminal", "pdr")


def committed_summary(summary: dict) -> dict:
    """Project a summary onto the keys that existed when the digests were taken."""
    out = {k: summary[k] for k in _TOP_KEYS}
    out["packets"] = {k: summary["packets"][k] for k in _PACKET_KEYS}
    out["per_node"] = {n: {k: v[k] for k in _NODE_KEYS} for n, v in summary["per_node"].items()}
    out["gateway_assessment"] = {n: {k: v[k] for k in _GATEWAY_KEYS}
                                 for n, v in summary["gateway_assessment"].items()}
    return out


@dataclass
class OutputCheck:
    """What one invocation's output files say."""

    digest: str
    files_digest: str                 # sha256 of every output file's bytes, by file name
    problems: list[tuple[str, str]]   # (check name, message)
    brownouts: int
    clamps: int
    bytes_written: int
    fade_gap: float                   # largest |gateway fade - node fade| over nodes and seeds


def _output_paths(out_dir: Path, seed: int, sweep: int) -> tuple[Path, Path]:
    suffix = f".seed{seed}" if sweep > 1 else ""
    return out_dir / f"metrics{suffix}.csv", out_dir / f"summary{suffix}.json"


def _sei_fade(battery: dict, d_linear: float) -> float:
    a = battery["alpha_sei"]
    return 1.0 - a * math.exp(-battery["k_sei"] * d_linear) - (1.0 - a) * math.exp(-d_linear)


def _check_degradation(node: str, stats: dict, g: dict | None, duration_s: float,
                       scenario: dict, seed: int) -> list[tuple[str, str]]:
    """Node-side and gateway-side degradation agree on the program's terms.

    Both sides run the same fade pipeline on the same usage.  Cycle aging
    agrees exactly.  Calendar aging accrues at the same rate, but over
    different spans: the gateway over its report periods, which cover the
    whole run, the node over its settled whole slots, which fall short of it
    by less than two slots (by one when the run is a whole number of slots).
    So the check compares the rates and bounds the node's span, instead of
    comparing the fades.
    """
    if g is None:
        return [("fade_agreement", f"seed {seed}: node {node} has no gateway assessment")]
    slot_s = scenario["sim"]["slot_s"]
    node_s = stats["calendar_days"] * 86400.0
    wrong = []
    if not math.isclose(g["dc_cycle"], stats["dc_cycle"], rel_tol=1e-12, abs_tol=1e-300):
        wrong.append(f"dc_cycle {g['dc_cycle']} != {stats['dc_cycle']}")
    if not 0.0 <= duration_s - node_s < 2.0 * slot_s + 1e-6:
        wrong.append(f"node aged {node_s} s of a {duration_s} s run")
    elif stats["calendar_days"] > 0.0 and not math.isclose(
            g["dc_cal"] / (duration_s / 86400.0), stats["dc_cal"] / stats["calendar_days"],
            rel_tol=1e-12):
        wrong.append(f"calendar rate {g['dc_cal']} per {duration_s} s != "
                     f"{stats['dc_cal']} per {node_s} s")
    for side, d in (("node", stats), ("gateway", g)):
        if abs(d["d_linear"] - (d["dc_cal"] + d["dc_cycle"])) > 1e-12 * max(d["d_linear"], 1.0):
            wrong.append(f"{side} d_linear {d['d_linear']} != dc_cal + dc_cycle")
        elif abs(d["fade_fraction"] - _sei_fade(scenario["battery"], d["d_linear"])) > 1e-12:
            wrong.append(f"{side} fade {d['fade_fraction']} != SEI fade of d_linear "
                         f"{d['d_linear']}")
    return [("fade_agreement", f"seed {seed}: node {node}: {w}") for w in wrong]


def _check_summary(summary: dict, seed: int, scenario: dict) -> list[tuple[str, str]]:
    problems = []
    if summary["seed"] != seed:
        problems.append(("seed", f"summary seed {summary['seed']} != {seed}"))
    p = summary["packets"]
    ended = sum(p[k] for k in _PACKET_KEYS[1:])
    if not p["generated"] == ended == summary["packets_terminal"]:
        problems.append(("accounting", f"seed {seed}: generated {p['generated']}, delivered "
                         f"+ dropped {ended}, terminal {summary['packets_terminal']}"))
    gateway = summary["gateway_assessment"]
    for node, stats in summary["per_node"].items():
        problems += _check_degradation(node, stats, gateway.get(node), summary["duration_s"],
                                       scenario, seed)
    return problems


def _check_rows(rows: list[dict], summary: dict, interval_s: float,
                seed: int) -> list[tuple[str, str]]:
    duration = summary["duration_s"]
    n_reports = math.ceil(duration / interval_s - 1e-9)
    expected = [k * interval_s for k in range(1, n_reports)] + [duration]
    by_node: dict[str, list[float]] = {str(n): [] for n in range(summary["node_count"])}
    for row in rows:
        by_node.setdefault(row["node_id"], []).append(float(row["time_s"]))
    problems = []
    for node, times in by_node.items():
        if len(times) != len(expected) or any(abs(a - b) > 1e-6 for a, b in zip(times, expected)):
            problems.append(("report_rows", f"seed {seed}: node {node} has report rows at "
                             f"{times}, expected {expected}"))
    return problems


def check_outputs(out_dir: Path, workload: Workload, seed: int, scenario: dict) -> OutputCheck:
    """Check the files one `simulate` invocation wrote and digest them.

    The digest is the sha256 over, for each seed in order, the metrics CSV
    bytes followed by the committed-key summary as canonical JSON.
    """
    h = hashlib.sha256()
    problems: list[tuple[str, str]] = []
    brownouts = clamps = 0
    fade_gap = 0.0
    seeds = workload.seeds(seed)
    for s in seeds:
        csv_path, summary_path = _output_paths(out_dir, s, workload.sweep)
        csv_bytes = csv_path.read_bytes()
        summary = json.loads(summary_path.read_text())
        rows = list(csv.DictReader(csv_bytes.decode().splitlines()))
        problems += _check_summary(summary, s, scenario)
        problems += _check_rows(rows, summary, scenario["sim"]["report_interval_s"], s)
        brownouts += sum(v["brownouts"] for v in summary["per_node"].values())
        clamps += sum(v["clamp_events"] for v in summary["per_node"].values())
        fade_gap = max([fade_gap] + [
            abs(summary["gateway_assessment"][n]["fade_fraction"] - v["fade_fraction"])
            for n, v in summary["per_node"].items() if n in summary["gateway_assessment"]])
        h.update(csv_bytes)
        h.update(json.dumps(committed_summary(summary), sort_keys=True).encode())
    if workload.sweep > 1:
        index = json.loads((out_dir / "summary.sweep.json").read_text())
        if [e["seed"] for e in index] != seeds:
            problems.append(("sweep_index", f"sweep index lists seeds "
                             f"{[e['seed'] for e in index]}, expected {seeds}"))
    files = hashlib.sha256()
    written = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        files.update(path.name.encode() + b"\0" + data)
        written += len(data)
    return OutputCheck(h.hexdigest(), files.hexdigest(), problems, brownouts, clamps, written,
                       fade_gap)
