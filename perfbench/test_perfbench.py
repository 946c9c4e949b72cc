"""Tests of the benchmark itself: trace transparency, committed digest, metric names.

Run with: python -m pytest perfbench
"""

import enum
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from workloads import COMMITTED_SEED, SMALL

sys.path.insert(0, str(run.ROOT / "src"))
from layertrace import event_kind  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture
def small_config(tmp_path):
    scenario = SMALL.scenario(json.loads(run.DEFAULT_SCENARIO.read_text()))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    return config, scenario


def _invoke(mode, config, scenario, run_dir, seed=COMMITTED_SEED):
    inv = run.invoke(mode, SMALL, config, seed, run_dir, 0, scenario, timeout_s=120)
    assert inv.timed, inv.problems
    return inv


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path, small_config):
    config, scenario = small_config
    plain = _invoke("plain", config, scenario, tmp_path)
    traced = _invoke("trace", config, scenario, tmp_path)
    mem = _invoke("mem", config, scenario, tmp_path)
    assert traced.check.files_digest == plain.check.files_digest
    assert mem.check.files_digest == plain.check.files_digest
    layers = traced.result["layers"]
    assert layers["engine.events"] == sum(
        v for k, v in layers.items() if k.startswith("engine.events."))
    assert layers["engine.events.slot_tick"] == layers["energy.step_calls"]
    assert layers["orbit.builds"] == 2


def test_small_scenario_digest_matches_committed(tmp_path, small_config):
    config, scenario = small_config
    inv = _invoke("plain", config, scenario, tmp_path)
    assert inv.check.digest == SMALL.digest


def test_benchmark_json_metrics_are_emitted(tmp_path, monkeypatch):
    spec = json.loads(BENCHMARK_JSON.read_text())
    monkeypatch.setattr(run, "WORK", tmp_path)
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
        result = run.measure(SMALL, COMMITTED_SEED, seconds=0, trace=trace)
        emitted = {n: m["unit"] for n, m in result["metrics"].items()}
        assert emitted == declared
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()}


class _Kind(enum.Enum):
    SLOT_TICK = "slot_tick"


class _IntKind(enum.IntEnum):
    WINDOW_OPEN = 2


def test_event_kind_reads_objects_and_tuples():
    assert event_kind(SimpleNamespace(time=1.0, kind=_Kind.SLOT_TICK)) == "slot_tick"
    assert event_kind((1.0, 0, _IntKind.WINDOW_OPEN, (0,))) == "window_open"
    assert event_kind((2.0, 1, "report_due", (3,))) == "report_due"
    assert event_kind((2.0, 1)) is None
