"""Benchmark of `leolora simulate`: end-to-end figures, or per-layer ones when traced.

Usage (from the repository root):
    python3 perfbench/run.py --workload steady|congested|sweep --seed N --seconds S --trace 0|1

Every invocation is a real `leolora simulate` run in a fresh interpreter
(`invoke.py`), one at a time: a closed loop with one client.  A run first
makes an untimed warm-up invocation at the committed seed, whose outputs
must match the committed digest, then cycles through the run's inputs, made
from `--seed`, for `--seconds` and reports medians.  Times are reported at a reference host
speed: each invocation's seconds are scaled by the host-speed kernel timed
before and after it (`hostspeed.py`); the unscaled medians are printed too.
Every invocation's outputs are checked (`workloads.check_outputs`) and must
be identical to the first's at the same CLI seed.

With `--trace 0` the last line holds wall_s, setup_s and peak_rss_mb.  With
`--trace 1` untraced and traced invocations alternate, one tracemalloc
invocation is added, and the last line holds the per-layer figures plus
trace.overhead_share.  failed_share (failed / attempted invocations) and
the failures of each check are printed above the last line, which carries
the same counts as `failed` and `attempted`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SCENARIO = ROOT / "src" / "leolora" / "scenarios" / "default.json"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from workloads import COMMITTED_SEED, WORKLOADS, OutputCheck, Workload, check_outputs  # noqa: E402

# The whole run, warm-up included, must end well inside three minutes.
RUN_LIMIT_S = 160.0
MIN_TIMED = 3
# Inputs per run.  The cost of one input varies by seed (on `steady`, about
# one seed in ten makes twice the usual MAC selections and takes a fifth
# longer), so a run's median over several inputs is the typical cost, not
# one draw of it.  With `--trace 0` each input runs about three times a run.
INPUTS_PER_RUN = 4

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Event kinds that occur on at least one workload (no workload browns out).
EVENT_KINDS = ("slot_tick", "phase_change", "window_open", "window_close",
               "tx_attempt_start", "tx_attempt_end", "report_due")
PER_LAYER = {
    "config.load_s": "s",
    "orbit.build_s": "s", "orbit.builds": "count", "orbit.windows": "count",
    "orbit.sample_count": "count", "orbit.sun_seconds_calls": "count",
    "orbit.sun_seconds_s": "s", "orbit.candidates_calls": "count", "orbit.candidates_s": "s",
    "engine.init_s": "s", "engine.run_s": "s", "engine.self_s": "s",
    "engine.events": "count", "engine.us_per_event": "us",
    **{f"engine.events.{k}": "count" for k in EVENT_KINDS},
    **{f"engine.handler_s.{k}": "s" for k in EVENT_KINDS},
    "engine.attempt_events_per_sequence": "ratio",
    "mac.select_calls": "count", "mac.select_s": "s", "mac.candidates_per_select": "ratio",
    "mac.transmit_share": "ratio",
    "mac.sequence_calls": "count", "mac.sequence_s": "s", "mac.attempts_drawn": "count",
    "energy.step_calls": "count", "energy.step_s": "s",
    "energy.brownouts": "count", "energy.clamps": "count",
    "battery.orbit_steps": "count", "battery.orbit_step_s": "s",
    "report.summaries": "count", "gateway.assess_s": "s",
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "mem.traced_peak_mb": "MiB",
    "trace.overhead_share": "ratio",
}


@dataclass
class Invocation:
    mode: str
    seed: int
    seconds: float
    result: dict | None = None
    check: OutputCheck | None = None
    scale: float = 1.0   # seconds measured -> seconds at the reference host speed
    problems: list[tuple[str, str]] = field(default_factory=list)   # (check name, message)

    @property
    def timed(self) -> bool:
        """The program ran to completion, so its timings stand even if a check failed."""
        return self.result is not None and self.check is not None


def invoke(mode: str, workload: Workload, config: Path, seed: int, run_dir: Path,
           index: int, scenario: dict, timeout_s: float) -> Invocation:
    """Run one `leolora simulate` in a fresh interpreter and check its outputs.

    Every invocation writes to the same directory, emptied afterwards, so
    paths recorded in the outputs (the sweep index) are the same each time.
    """
    out_dir = run_dir / "out"
    out_dir.mkdir()
    result_path = run_dir / f"inv{index}.{mode}.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), str(ROOT), mode, str(result_path), "--",
           *workload.cli_args(config, out_dir, seed)]
    t0 = perf_counter()
    inv = Invocation(mode, seed, 0.0)
    try:
        # One thread: numpy's BLAS pool would otherwise start a second one.
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout_s, env=env)
    except subprocess.TimeoutExpired:
        inv.problems.append(("exit", f"invocation timed out after {timeout_s:.0f} s"))
        proc = None
    inv.seconds = perf_counter() - t0
    if proc is not None and proc.returncode != 0:
        inv.problems.append(("exit", f"harness exited {proc.returncode}: "
                                     f"{proc.stderr.strip()[-2000:]}"))
    elif proc is not None:
        inv.result = json.loads(result_path.read_text())
        if inv.result["rc"] != 0:
            inv.problems.append(("exit", f"leolora simulate exited {inv.result['rc']}: "
                                         f"{proc.stderr.strip()[-2000:]}"))
        elif inv.result["loops"] < len(workload.seeds(seed)):
            inv.problems.append(("exit", f"{inv.result['loops']} event loops seen for "
                                         f"{len(workload.seeds(seed))} seeds; set-up unmeasured"))
        else:
            try:
                inv.check = check_outputs(out_dir, workload, seed, scenario)
                inv.problems += inv.check.problems
            except (OSError, KeyError, ValueError, TypeError) as exc:
                inv.check = None
                inv.problems.append(("outputs", f"unreadable: {type(exc).__name__}: {exc}"))
    shutil.rmtree(out_dir)
    return inv


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the object printed as the last line."""
    started = perf_counter()
    run_dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario = workload.scenario(json.loads(DEFAULT_SCENARIO.read_text()))
    config = run_dir / "scenario.json"
    config.write_text(json.dumps(scenario, indent=2))

    invocations: list[Invocation] = []
    hostspeed.time_kernel()   # untimed: loads numpy and compiles the kernel
    kernel_s = [hostspeed.time_kernel()]

    def run_one(mode: str, s: int) -> Invocation:
        remaining = RUN_LIMIT_S - (perf_counter() - started)
        inv = invoke(mode, workload, config, s, run_dir, len(invocations), scenario,
                     max(remaining, 1.0))
        kernel_s.append(hostspeed.time_kernel())
        inv.scale = hostspeed.scale(kernel_s[-2], kernel_s[-1])
        invocations.append(inv)
        return inv

    # Warm-up: fills the page and bytecode caches and checks the committed digest.
    warm = run_one("plain", COMMITTED_SEED)
    if warm.check is not None and warm.check.digest != workload.digest:
        warm.problems.append(("digest", f"{warm.check.digest} != committed {workload.digest}"))

    inputs = workload.run_seeds(seed, INPUTS_PER_RUN)
    modes = ("plain", "trace") if trace else ("plain",)
    if trace:
        run_one("mem", inputs[0])
    t_start = perf_counter()
    for rounds in itertools.count():
        for mode in modes:
            last = run_one(mode, inputs[rounds % len(inputs)]).seconds
        modes = modes[::-1]
        n_plain = sum(1 for i in invocations[1:] if i.mode == "plain")
        if perf_counter() - t_start >= seconds and n_plain >= MIN_TIMED:
            break
        if perf_counter() - started + len(modes) * last * 1.5 > RUN_LIMIT_S:
            break

    # Same seed, same outputs: traced and untraced runs must agree byte for byte.
    first: dict[int, Invocation] = {}
    for inv in invocations:
        if inv.check is None:
            continue
        ref = first.setdefault(inv.seed, inv)
        if inv.check.files_digest != ref.check.files_digest:
            inv.problems.append(("determinism", f"{inv.mode} outputs differ from the first "
                                                f"at seed {inv.seed}"))

    ok = [i for i in invocations[1:] if i.timed]
    plain_invs = [i for i in ok if i.mode == "plain"]
    plain = [i.result for i in plain_invs]
    if not plain:
        raise RuntimeError("no invocation completed")
    metrics = {
        "wall_s": statistics.median([i.result["wall_s"] * i.scale for i in plain_invs]),
        "setup_s": statistics.median([i.result["setup_s"] * i.scale for i in plain_invs]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }
    raw = {n: statistics.median([r[n] for r in plain]) for n in ("wall_s", "setup_s")}
    units = dict(END_TO_END)
    if trace:
        traced = [i for i in ok if i.mode == "trace"]
        mem = [i.result for i in ok if i.mode == "mem"]
        if not traced or not mem:
            raise RuntimeError("no traced invocation completed")
        layers = [i.result["layers"] for i in traced]
        names = sorted(set().union(*layers))
        full = {n: statistics.median([lay.get(n, 0) for lay in layers]) for n in names}
        full["energy.brownouts"] = traced[0].check.brownouts
        full["energy.clamps"] = traced[0].check.clamps
        full["cli.bytes_written"] = traced[0].check.bytes_written
        full["mem.traced_peak_mb"] = statistics.median([r["traced_peak_mb"] for r in mem])
        full["trace.overhead_share"] = (
            statistics.median([i.result["wall_s"] * i.scale for i in traced]) / metrics["wall_s"]
            - 1.0)
        (run_dir / "layers.json").write_text(json.dumps(full, indent=2, sort_keys=True))
        metrics = {n: full.get(n, 0) for n in PER_LAYER}
        units = PER_LAYER
    failed = sum(1 for i in invocations if i.problems)
    print(f"{workload.name} seed {seed}: {len(plain)} timed invocations of CLI seeds "
          f"{', '.join(map(str, inputs))}, "
          f"failed_share {failed / len(invocations):.4f} ratio "
          f"({failed} of {len(invocations)} invocations)")
    checked = [i.check for i in invocations if i.check is not None]
    if checked:
        # Not a failure: the node ages over its settled slots, the gateway over the whole run.
        print(f"  largest |gateway fade - node fade| {max(c.fade_gap for c in checked):.3g}")
    print(f"  host speed factor (median) {statistics.median(i.scale for i in plain_invs):.4f}; "
          f"unscaled medians: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s")
    by_check: dict[str, list] = {}
    for inv in invocations:
        for check in sorted({c for c, _ in inv.problems}):
            by_check.setdefault(check, []).append(inv)
    for check, failing in sorted(by_check.items()):
        message = next(m for c, m in failing[0].problems if c == check)
        print(f"  check {check} failed in {len(failing)} of {len(invocations)}, first: "
              f"({failing[0].mode}, seed {failing[0].seed}) {message}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leolora" / "__init__.py").is_file() or not DEFAULT_SCENARIO.is_file():
        print(f"error: no leolora source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
