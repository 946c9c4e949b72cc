"""Scenario validation and the command-line surface."""

import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leolora import cli
from leolora.airtime import RadioConfig
from leolora.battery import DegradationParams, ThermalProfile
from leolora.cli import main
from leolora.config import (
    MAX_ARRIVALS,
    MAX_REPORT_ROWS,
    BatteryScenario,
    EnergyScenario,
    SimParams,
    load_scenario,
    load_schedule_override,
    parse_scenario,
)
from leolora.energy import HarvestModel, PowerProfile
from leolora.engine import END_OUTCOMES, Simulator
from leolora.exceptions import Bounds, ConfigError, ValidationError
from leolora.mac import MacConfig
from leolora.orbit import MAX_SCHEDULE_SAMPLES, GroundStation, OrbitConfig
from leolora.report import MAX_ENCODED_BYTES, MAX_UINT32, encode_report

from conftest import time_limit


class TestValidation:
    def test_default_scenario_parses(self, default_scenario):
        assert default_scenario.sim.node_count == 4
        assert default_scenario.mac.dif_ref > 0.0
        assert default_scenario.mac.backoff_base_s > 0.0

    def test_missing_alpha_sei_named_individually(self, scenario_dict):
        del scenario_dict["battery"]["alpha_sei"]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert any("battery.alpha_sei" in p for p in exc.value.problems)

    def test_all_violations_collected(self, scenario_dict):
        del scenario_dict["battery"]["alpha_sei"]
        del scenario_dict["battery"]["k_sei"]
        del scenario_dict["radio"]["tx_power_w"]
        scenario_dict["sim"]["duration_days"] = -1.0
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        joined = "\n".join(exc.value.problems)
        for path in ("battery.alpha_sei", "battery.k_sei", "radio.tx_power_w",
                     "sim.duration_days"):
            assert path in joined

    def test_unknown_keys_warn_but_pass(self, scenario_dict):
        scenario_dict["sim"]["unknown_knob"] = 3
        with pytest.warns(UserWarning, match="unknown_knob"):
            parse_scenario(scenario_dict)

    def test_underscore_and_presets_keys_silently_ignored(self, scenario_dict):
        scenario_dict["_note"] = "hello"
        scenario_dict["presets"] = {"x": 1}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_scenario(scenario_dict)

    def test_slot_shorter_than_airtime_rejected(self, scenario_dict):
        scenario_dict["sim"]["slot_s"] = 0.1
        with pytest.raises(ValidationError, match="time-on-air"):
            parse_scenario(scenario_dict)

    def test_c_rate_from_current_ingestion(self, scenario_dict):
        del scenario_dict["battery"]["c_rate_reference"]
        scenario_dict["battery"]["discharge_current_a"] = 12.5
        sc = parse_scenario(scenario_dict)
        assert sc.battery.c_rate_reference == pytest.approx(12.5 / 25.0)

    def test_both_c_rate_forms_rejected(self, scenario_dict):
        scenario_dict["battery"]["discharge_current_a"] = 12.5
        with pytest.raises(ValidationError, match="not both"):
            parse_scenario(scenario_dict)

    def test_e_cons_derived_from_radio(self, default_scenario):
        from leolora.airtime import tx_energy

        derived = 19200.0 + 8 * tx_energy(default_scenario.radio)
        assert default_scenario.energy.profile.e_cons_tx_j == pytest.approx(derived, rel=1e-12)

    def test_reserve_above_capacity_rejected(self, scenario_dict):
        scenario_dict["energy"]["psi_min_j"] = 1e9
        with pytest.raises(ValidationError, match="psi_min"):
            parse_scenario(scenario_dict)

    def test_report_interval_beyond_uplink_rejected(self, scenario_dict):
        # a day of 90-minute orbits is 17 DoD observations; the uplink holds 9
        scenario_dict["sim"]["report_interval_s"] = 86400.0
        with pytest.raises(ValidationError, match="report_interval_s"):
            parse_scenario(scenario_dict)

    def test_report_interval_of_eight_orbits_accepted(self, scenario_dict):
        scenario_dict["sim"]["report_interval_s"] = 8 * 5400.0
        assert parse_scenario(scenario_dict).sim.report_interval_s == 43200.0

    def test_node_count_beyond_uint16_rejected(self, scenario_dict):
        scenario_dict["sim"]["node_count"] = 65536
        with pytest.raises(ValidationError, match="node_count"):
            parse_scenario(scenario_dict)

    def test_report_interval_too_short_to_finish_rejected(self, scenario_dict):
        # about 10^14 reports per node: the run would never finish
        scenario_dict["sim"].update(duration_days=0.001, report_interval_s=1e-12)
        with pytest.raises(ValidationError, match="report_interval_s") as exc:
            parse_scenario(scenario_dict)
        assert len(exc.value.problems) == 1

    def test_report_rows_at_the_limit_accepted(self, scenario_dict):
        sim = scenario_dict["sim"]
        sim["report_interval_s"] = (sim["node_count"] * sim["duration_days"] * 86400.0
                                    / MAX_REPORT_ROWS)
        parse_scenario(scenario_dict)

    def test_traffic_too_heavy_to_finish_rejected(self, scenario_dict):
        # 4.3e8 arrivals, each decided as a packet: the run would never finish
        scenario_dict["sim"].update(node_count=2, duration_days=0.01,
                                    traffic_rate_per_s=250000.0)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith("sim.traffic_rate_per_s: 2 nodes over 864.0 s")

    def test_arrivals_at_the_limit_accepted(self, scenario_dict):
        sim = scenario_dict["sim"]
        sim["traffic_rate_per_s"] = MAX_ARRIVALS / (sim["node_count"] * sim["duration_days"]
                                                    * 86400.0)
        parse_scenario(scenario_dict)
        sim["traffic_rate_per_s"] *= 1.001
        with pytest.raises(ValidationError, match="traffic_rate_per_s"):
            parse_scenario(scenario_dict)

    def test_no_traffic_draws_no_arrival_at_any_rate(self, scenario_dict):
        scenario_dict["sim"].update(traffic_model="none", traffic_rate_per_s=1e306)
        assert parse_scenario(scenario_dict).sim.traffic_rate_per_s == 1e306

    def test_pack_whose_rated_energy_overflows_rejected(self, scenario_dict):
        # 1e306 Ah at 28 V is an infinite number of joules
        scenario_dict["battery"]["capacity_rated_ah"] = 1e306
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert exc.value.problems == [
            "battery: rated energy capacity_rated_ah * voltage_nominal_v * 3600 must be "
            "finite, got inf J"]

    def test_schedule_step_too_fine_to_build_rejected(self, scenario_dict):
        scenario_dict["sim"].update(duration_days=0.1, schedule_step_s=1e-9)
        with pytest.raises(ValidationError, match="schedule_step_s") as exc:
            parse_scenario(scenario_dict)
        assert len(exc.value.problems) == 1

    def test_four_years_at_the_default_step_accepted(self, scenario_dict):
        scenario_dict["sim"]["duration_days"] = 4 * 365.25
        sim = parse_scenario(scenario_dict).sim
        assert sim.duration_s / sim.schedule_step_s < MAX_SCHEDULE_SAMPLES

    def test_four_years_at_a_coarse_step_accepted(self, scenario_dict):
        # 2.1e6 samples at 60 s, each a coarse sample
        scenario_dict["sim"].update(duration_days=4 * 365.25, schedule_step_s=60.0)
        assert parse_scenario(scenario_dict).sim.schedule_step_s == 60.0

    def test_coarse_grid_too_large_to_build_rejected(self, scenario_dict):
        # 5.8e7 samples at 60 s, each a coarse sample: about 5 GB to build
        scenario_dict["sim"].update(duration_days=40000.0, schedule_step_s=60.0)
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert len(exc.value.problems) == 1
        assert exc.value.problems[0].startswith("sim.schedule_step_s: ")
        assert "coarse samples" in exc.value.problems[0]

    # the last report period ends at 4.32e9 s, past the uint32 whole seconds
    _PAST_UINT32_END = {"sim.duration_days": 50000, "sim.schedule_step_s": 1000}
    # 4.4e9 slots of 1 s in one report period, over 51,000 days (4.41e9 s)
    _PAST_UINT32_SLOTS = {"orbit.period_s": 1e9, "orbit.sun_duration_s": 5e8,
                          "sim.report_interval_s": 4.4e9, "sim.slot_s": 1.0,
                          "sim.duration_days": 51000, "sim.schedule_step_s": 1000}
    # the longest run the uplink's period times carry: it ends at 2^32 - 1 s
    _UINT32_END = {"sim.duration_days": MAX_UINT32 / 86400.0, "sim.schedule_step_s": 1000}

    @pytest.mark.parametrize("changes, fields", [
        (_PAST_UINT32_END, ["sim.duration_days"]),
        (_PAST_UINT32_SLOTS, ["sim.duration_days", "sim.report_interval_s"]),
        # a period of 2^32 - 1 s that ends at 2^32 - 1 s holds 2^32 slots of 1 s
        ({**_PAST_UINT32_SLOTS, **_UINT32_END, "sim.report_interval_s": float(MAX_UINT32)},
         ["sim.report_interval_s"]),
    ], ids=["end", "end_and_slots", "slots"])
    def test_reports_past_the_uplink_uint32_fields_exit_2(self, tmp_path, scenario_dict,
                                                          capsys, changes, fields):
        for dotted, value in changes.items():
            section, key = dotted.split(".")
            scenario_dict[section][key] = value
        cfg = tmp_path / "uint32.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == fields, lines
        assert all("uplink's uint32" in line for line in lines)

    @pytest.mark.parametrize("changes", [
        _UINT32_END,
        # a period of 2^32 - 2 s holds at most 2^32 - 1 slots of 1 s
        {**_PAST_UINT32_SLOTS, **_UINT32_END, "sim.report_interval_s": MAX_UINT32 - 1.0},
    ], ids=["end", "slots"])
    def test_reports_just_inside_the_uplink_uint32_fields_accepted(self, scenario_dict,
                                                                   changes):
        for dotted, value in changes.items():
            section, key = dotted.split(".")
            scenario_dict[section][key] = value
        sim = parse_scenario(scenario_dict).sim
        assert round(sim.duration_s) == MAX_UINT32

    def test_negative_seed_rejected(self, scenario_dict):
        scenario_dict["sim"]["seed"] = -1
        with pytest.raises(ValidationError, match="seed"):
            parse_scenario(scenario_dict)

    def test_not_json_reports_cleanly(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_scenario(path)

    def test_an_empty_scenario_is_one_line_a_section(self):
        with pytest.raises(ValidationError) as exc:
            parse_scenario({})
        assert exc.value.problems == [f"{name}: missing required section" for name in
                                      ("orbit", "battery", "radio", "energy", "mac", "sim")]

    @pytest.mark.parametrize("where, value, line", [
        *((None, value, "scenario: expected an object") for value in ([], 5, "x", None, True)),
        *(("orbit", value, "orbit: expected an object") for value in ([], 5, None)),
        ("battery", 5, "battery: expected an object"),   # and no C-rate line
        ("stations", 5, "stations: expected an array"),
        ("stations", [5], "stations[0]: expected an object"),
    ])
    def test_a_level_that_is_not_an_object_is_one_line(self, scenario_dict, where, value,
                                                        line):
        if where is None:
            scenario_dict = value
        else:
            scenario_dict[where] = value
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert exc.value.problems == [line]

    def test_steady_state_phi_continuous_at_dawn(self, default_scenario):
        sc = default_scenario
        assert sc.steady_state_phi_j(sc.node_orbit(0)) == pytest.approx(
            0.5 * sc.phi_max_j(), rel=1e-12
        )
        # energy-neutral default: a full period returns to the dawn level
        for u in range(4):
            phi = sc.steady_state_phi_j(sc.node_orbit(u))
            assert 0.0 <= phi <= sc.phi_max_j()


# one value outside its declared bounds for every bounded key of a section
_BROKEN = {
    "orbit": {"period_s": 0.0, "sun_duration_s": -1.0, "altitude_m": 0.0,
              "inclination_rad": 4.0, "phase_offset_rad": math.inf, "raan_rad": math.nan},
    "stations[0]": {"latitude_rad": 2.0, "longitude_rad": -math.inf, "min_elevation_rad": -0.1},
    "battery": {"k1": 0.0, "k2": -1.0, "ea_j_per_mol": 0.0, "b": -1.0, "c": -1.0, "d": -1.0,
                "alpha_sei": 1.5, "k_sei": 0.0, "t_sun_k": 0.0, "t_eclipse_k": -5.0,
                "capacity_rated_ah": 0.0, "voltage_nominal_v": 0.0, "soc_initial": 1.5,
                "soc_reference": -0.1, "dod_reference": 0.0, "c_rate_reference": -1.0},
    "radio": {"spreading_factor": 13, "bandwidth_hz": 1, "coding_rate_denominator": 9,
              "preamble_symbols": 0, "payload_bytes": 0, "tx_power_w": 0.0},
    "energy": {"e_g_sun_j_per_slot": -1.0, "charge_rate_limit_j_per_slot": -1.0,
               "e_sleep_j": -1.0, "e_cons_tx_j": 0.0, "psi_min_j": -1.0, "e_critical_j": -1.0,
               "ewma_initial_j": -1.0},
    "mac": {"beta": 2.0, "w_dif": -1.0, "w_energy": -1.0, "max_attempts": 0,
            "slot_budget_s": 0.0, "dif_ref": 0.0, "backoff_base_s": -1.0,
            "deadline_orbits": 0.0},
    "sim": {"duration_days": 0.0, "slot_s": 0.0, "node_count": -1, "traffic_model": "bursty",
            "traffic_rate_per_s": -1.0, "seed": -1, "protocol": "csma",
            "report_interval_s": 0.0, "schedule_step_s": 0.0},
}

# where the default scenario keeps an instance of each scenario dataclass
_PARTS = {
    OrbitConfig: lambda sc: sc.orbit,
    GroundStation: lambda sc: sc.stations[0],
    DegradationParams: lambda sc: sc.battery.params,
    ThermalProfile: lambda sc: sc.battery.thermal,
    HarvestModel: lambda sc: sc.energy.harvest,
    PowerProfile: lambda sc: sc.energy.profile,
    RadioConfig: lambda sc: sc.radio,
    MacConfig: lambda sc: sc.mac,
    BatteryScenario: lambda sc: sc.battery,
    EnergyScenario: lambda sc: sc.energy,
    SimParams: lambda sc: sc.sim,
}
_FLOAT_FIELDS = [(cls, f.name) for cls in _PARTS for f in dataclasses.fields(cls)
                 if f.type == "float"]


class TestDeclaredBounds:
    @pytest.mark.parametrize("path", list(_BROKEN))
    def test_every_broken_field_is_one_problem(self, scenario_dict, path):
        section = scenario_dict["stations"][0] if path == "stations[0]" else scenario_dict[path]
        section.update(_BROKEN[path])
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        problems = exc.value.problems
        for key in _BROKEN[path]:
            assert sum(p.startswith(f"{path}.{key}: ") for p in problems) == 1, (key, problems)
        assert all(p.startswith(path) for p in problems), problems
        assert len(problems) == len(_BROKEN[path]), problems

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
    def test_constructors_reject_non_finite_floats(self, default_scenario, cls, name, value):
        part = _PARTS[cls](default_scenario)
        with pytest.raises(ConfigError, match=f"^{name}: must be a finite number, got"):
            dataclasses.replace(part, **{name: value})

    def test_infinite_derived_c_rate_exits_2(self, tmp_path, scenario_dict, capsys):
        # 1e306 A from a 1 mAh pack: the C-rate is inf, and DIF's normalizer would be NaN
        battery = scenario_dict["battery"]
        del battery["c_rate_reference"]
        battery.update(discharge_current_a=1e306, capacity_rated_ah=1e-3)
        scenario_dict["energy"].update(psi_min_j=10.0, e_critical_j=0.0)
        scenario_dict["sim"]["duration_days"] = 0.1
        cfg = tmp_path / "inf_c_rate.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: battery: c_rate_reference: must be a finite number, got inf"]

    @pytest.mark.parametrize("overrides", [
        # the dif_ref envelope overflows in `cycle_aging`
        {"battery.c": 1e6},
        {"battery.c_rate_reference": 1e306},
        # a given dif_ref leaves the envelope to `phase_dif`, which overflows alike
        {"battery.c": 1e6, "mac.dif_ref": 1.0},
        # the nominal backoff base overflows
        {"mac.max_attempts": 1e306},
        # a C-rate that fails its own check is not also a missing one
        {"battery.c_rate_reference": "x"},
        {"battery.c_rate_reference": -1.0},
    ], ids=["c", "c_rate_reference", "c_with_dif_ref", "max_attempts", "c_rate_str",
            "c_rate_negative"])
    def test_a_derived_field_that_fails_is_one_problem_line(self, tmp_path, scenario_dict,
                                                            overrides, capsys):
        for dotted, value in overrides.items():
            section, key = dotted.split(".")
            scenario_dict[section][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and re.match(r"error: [a-z]+\.[a-z_]+: ", lines[0]), lines


class TestCliSimulate:
    def test_default_run_writes_outputs(self, tmp_path):
        csv = tmp_path / "metrics.csv"
        summary = tmp_path / "summary.json"
        code = main(["simulate", "--out", str(csv), "--summary", str(summary),
                     "--seed", "3"])
        assert code == 0
        assert csv.read_text().startswith("time_s,node_id,soc")
        doc = json.loads(summary.read_text())
        assert doc["seed"] == 3
        assert doc["packets"]["generated"] > 0

    # packs that fade to no capacity within the day, so phi_max reaches 0
    @pytest.mark.parametrize("overrides", [
        {"battery.k1": 1e308},
        {"mac.max_attempts": 1e300, "mac.backoff_base_s": 1.0},
        # with no reserve, a sun window stays feasible for the empty pack
        {"battery.k1": 1e308, "energy.psi_min_j": 0.0, "energy.e_critical_j": 0.0},
    ], ids=["k1", "max_attempts", "k1_no_reserve"])
    def test_a_pack_that_fades_out_runs_to_the_end(self, tmp_path, scenario_dict, overrides):
        scenario_dict["sim"]["duration_days"] = 1
        for dotted, value in overrides.items():
            section, key = dotted.split(".")
            scenario_dict[section][key] = value
        cfg, summary = tmp_path / "faded.json", tmp_path / "s.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert all(node["fade_fraction"] == 1.0 and node["soc"] == 0.0
                   for node in doc["per_node"].values())
        packets = doc["packets"]
        assert packets["generated"] == doc["packets_terminal"] == sum(
            packets[key] for key in ("delivered", "dropped_energy",
                                     "dropped_collision_exhausted", "dropped_no_window"))

    def test_missing_mandatory_field_exits_2(self, tmp_path, scenario_dict, capsys):
        del scenario_dict["battery"]["alpha_sei"]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "battery.alpha_sei" in capsys.readouterr().err

    def test_same_seed_identical_outputs(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            summary = tmp_path / f"{tag}.json"
            assert main(["simulate", "--out", str(csv), "--summary", str(summary),
                         "--seed", "7"]) == 0
            paths.append((csv.read_bytes(), summary.read_bytes()))
        assert paths[0] == paths[1]

    def test_sweep_index_is_location_independent(self, tmp_path, scenario_dict):
        scenario_dict["sim"]["duration_days"] = 0.05
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps(scenario_dict))
        indexes = []
        for tag in ("a", "b"):
            out_dir = (tmp_path / tag).resolve()
            out_dir.mkdir()
            assert main(["simulate", "--config", str(cfg), "--seed", "5", "--sweep", "2",
                         "--out", str(out_dir / "metrics.csv"),
                         "--summary", str(out_dir / "summary.json")]) == 0
            index = out_dir / "summary.sweep.json"
            entries = json.loads(index.read_text())
            assert [e["seed"] for e in entries] == [5, 6]
            for e in entries:
                assert (index.parent / e["summary"]).is_file()
            indexes.append(index.read_bytes())
        assert indexes[0] == indexes[1]

    def test_json_format_defaults_to_json_file(self, tmp_path, scenario_dict, monkeypatch):
        scenario_dict["sim"]["duration_days"] = 0.05
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps(scenario_dict))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--format", "json"]) == 0
        assert main(["simulate", "--config", str(cfg), "--format", "json",
                     "--seed", "5", "--sweep", "2"]) == 0
        for name in ("metrics.json", "metrics.seed5.json", "metrics.seed6.json"):
            rows = json.loads((tmp_path / name).read_text())
            assert rows and "soc" in rows[0]
        assert not list(tmp_path.glob("metrics*.csv"))

    def test_sweep_builds_each_schedule_once(self, tmp_path, scenario_dict, monkeypatch):
        from leolora import engine

        scenario_dict["sim"]["duration_days"] = 0.05
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps(scenario_dict))
        real = engine.build_schedule
        nodes = []

        def counting(orbit, *args, **kwargs):
            nodes.append(orbit)
            return real(orbit, *args, **kwargs)

        monkeypatch.setattr(engine, "build_schedule", counting)
        assert main(["simulate", "--config", str(cfg), "--sweep", "3",
                     "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 0
        assert len(nodes) == scenario_dict["sim"]["node_count"]

    @pytest.mark.parametrize("sweep", ["0", "-3"])
    def test_sweep_below_one_exits_2(self, tmp_path, sweep, capsys):
        code = main(["simulate", "--sweep", sweep, "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert "error: sweep must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_exits_2(self, tmp_path, scenario_dict, value, capsys):
        # json reads Infinity and NaN, and NaN passes every bound comparison
        scenario_dict["mac"]["backoff_base_s"] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: mac.backoff_base_s: must be a finite number, got {value}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_int_beyond_float_range_is_a_problem_line(self, scenario_dict):
        scenario_dict["sim"]["duration_days"] = 10**400
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert exc.value.problems == ["sim.duration_days: must be a finite number, got inf"]

    def test_a_huge_int_for_a_string_or_flag_is_shown_short(self, scenario_dict):
        scenario_dict["sim"]["protocol"] = 10**400
        scenario_dict["radio"]["crc_on"] = -10**20
        scenario_dict["stations"][0]["id"] = 10**17 - 1
        with pytest.raises(ValidationError) as exc:
            parse_scenario(scenario_dict)
        assert exc.value.problems == [
            f"stations[0].id: expected a string, got {10**17 - 1}",
            "radio.crc_on: expected a boolean, got -1e+20",
            "sim.protocol: expected a string, got an int past float range"]

    @pytest.mark.parametrize("path, value, line", [
        ("sim.node_count", 70000, "sim.node_count: must be <= 65535, got 70000"),
        ("mac.max_attempts", 0, "mac.max_attempts: must be >= 1, got 0"),
        ("sim.node_count", 10**40, "sim.node_count: must be <= 65535, got 1e+40"),
        ("sim.node_count", 10**400, "sim.node_count: must be a finite number, got inf"),
        ("override.node", 65536, "override record 0.node: must be <= 65535, got 65536"),
    ])
    def test_an_int_field_shows_its_value_as_an_int(self, scenario_dict, path, value, line):
        section, key = path.split(".")
        if section == "override":
            record = {"node": 0, "target": "gw", "start_s": 0.0, "end_s": 600.0, "phase": "sun"}
            with pytest.raises(ValueError) as exc:
                load_schedule_override([{**record, key: value}])
            assert str(exc.value) == line
        else:
            scenario_dict[section][key] = value
            with pytest.raises(ValidationError) as exc:
                parse_scenario(scenario_dict)
            assert exc.value.problems == [line]

    def test_an_int_field_keeps_every_digit(self, scenario_dict):
        scenario_dict["sim"]["seed"] = 2**53 + 1   # a float would round it to 2**53
        assert parse_scenario(scenario_dict).sim.seed == 2**53 + 1

    def test_backoff_span_overflow_exits_3(self, tmp_path, scenario_dict, monkeypatch, capsys):
        # 1e308 validates, but k * b0 overflows at the second attempt; with
        # every draw 0.0 each packet's first attempt fits and gets there
        from leolora import engine
        from leolora.mac import Backoff

        class Zeros:
            def random(self, n):
                return np.zeros(n)

        monkeypatch.setattr(engine, "Backoff", lambda rng: Backoff(Zeros()))
        scenario_dict["mac"]["backoff_base_s"] = 1e308
        scenario_dict["sim"].update(protocol="naive_aloha", duration_days=0.05)
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: backoff range [0.0, inf]")

    @pytest.mark.parametrize("records", [
        [1, 2],
        [{"node": None, "target": "gw", "start_s": 0.0, "end_s": 600.0, "phase": "sun"}],
        # a null target is not a station named "None"
        [{"node": 0, "target": None, "start_s": 0.0, "end_s": 600.0, "phase": "sun"}],
        # no node outside the uplink's uint16 node_id range can exist
        *([{"node": n, "target": "gw", "start_s": 0.0, "end_s": 600.0, "phase": "sun"}]
          for n in (10**40, -1, 65536, 70000, 10**400)),
    ])
    def test_malformed_override_record_exits_3(self, tmp_path, scenario_dict, records, capsys):
        override = tmp_path / "override.json"
        override.write_text(json.dumps(records))
        scenario_dict["sim"]["schedule_override_path"] = str(override)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: override record 0") and err.count("\n") == 1
        assert len(err) < 100   # a huge number is shown short

    @pytest.mark.parametrize("sweep", ["1", "3"])
    def test_negative_seed_exits_2(self, tmp_path, sweep, capsys):
        code = main(["simulate", "--seed", "-3", "--sweep", sweep,
                     "--out", str(tmp_path / "m.csv"), "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCliDegradation:
    def test_json_rows_equal_the_csv_rows(self, tmp_path):
        csv_out, json_out = tmp_path / "curve.csv", tmp_path / "curve.json"
        argv = ["degradation", "--years", "0.5", "--resolution", "7"]
        assert main([*argv, "--out", str(csv_out)]) == 0
        assert main([*argv, "--format", "json", "--out", str(json_out)]) == 0
        header, *rows = csv.reader(io.StringIO(csv_out.read_text()))
        doc = json.loads(json_out.read_text())
        assert len(doc) == len(rows) > 1
        assert doc == [dict(zip(header, map(float, row))) for row in rows]

    def test_zero_years_header_only(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["degradation", "--years", "0", "--out", str(out)]) == 0
        assert out.read_text() == "day,d_linear,fade_fraction\n"

    def test_one_year_curve_monotone(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["degradation", "--years", "1", "--resolution", "30",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        fades = [float(line.split(",")[2]) for line in lines]
        assert fades == sorted(fades)
        assert float(lines[-1].split(",")[0]) == pytest.approx(365.0)

    def test_one_year_value_matches_composed_oracle(self, tmp_path, default_scenario):
        from oracles import oracle_calendar, oracle_cycle, oracle_sei

        out = tmp_path / "curve.csv"
        assert main(["degradation", "--years", "1", "--resolution", "365",
                     "--out", str(out)]) == 0
        day, d_linear, fade = (float(v) for v in
                               out.read_text().strip().splitlines()[-1].split(","))
        p = default_scenario.battery.params
        cal = oracle_calendar(p.k1, p.ea_j_per_mol, 303.0, 0.825, p.b, 365.0)
        cyc = oracle_cycle(p.k2, 0.4, p.d, 12.5, p.c, p.ea_j_per_mol, 263.0, 5840.0)
        assert day == pytest.approx(365.0)
        assert d_linear == pytest.approx(cal + cyc, rel=1e-9)
        assert fade == pytest.approx(oracle_sei(p.alpha_sei, p.k_sei, cal + cyc), rel=1e-9)

    @pytest.mark.parametrize("option", ["--years=inf", "--years=nan", "--years=-1",
                                        "--resolution=nan", "--resolution=inf"])
    def test_span_or_resolution_not_finite_exits_3(self, tmp_path, option, capsys):
        out = tmp_path / "curve.csv"
        assert main(["degradation", option, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("options", [["--years", "0.01", "--resolution", "1e-300"],
                                         ["--years", "1000"]])
    def test_span_past_the_limits_exits_3_at_once(self, tmp_path, options, capsys):
        out = tmp_path / "curve.csv"
        assert main(["degradation", *options, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "exceeds the limit" in err
        assert not out.exists()


class TestCliAirtime:
    def test_sf10_reference(self, capsys):
        assert main(["airtime", "--sf", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["time_on_air_s"] == pytest.approx(0.288768, rel=1e-9)

    def test_sf7_reference(self, capsys):
        assert main(["airtime", "--sf", "7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["time_on_air_s"] == pytest.approx(0.041216, rel=1e-9)

    def test_csv_rows_match_json(self, capsys):
        assert main(["airtime", "--sf", "10"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert main(["airtime", "--sf", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert [key for key, _ in rows[1:]] == list(doc)
        for key, value in rows[1:]:
            assert type(doc[key])(value) == doc[key]

    def test_invalid_payload_exits_with_diagnostic(self, tmp_path, scenario_dict, capsys):
        scenario_dict["radio"]["payload_bytes"] = 0
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["airtime", "--config", str(cfg)])
        assert code == 2
        assert "payload" in capsys.readouterr().err

    @pytest.mark.parametrize("power", ["nan", "inf", "-1", "0"])
    def test_tx_power_not_finite_and_positive_exits_3(self, power, capsys):
        assert main(["airtime", "--tx-power-w", power]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: tx_power_w: must be ")


# sha256 of `leolora schedule --horizon-s 345600` on the default scenario with
# 8 nodes (608 windows): a faster pass search must give every byte the same
SCHEDULE_GOLDEN = "f1017033aed19a3b80c7957c2a8caac0eaae1a5f720e5e01e2e2770a83476ddd"


class TestCliSchedule:
    def test_eight_nodes_over_four_days_give_the_pinned_schedule(self, tmp_path,
                                                                 scenario_dict):
        scenario_dict["sim"]["node_count"] = 8
        cfg, out = tmp_path / "cfg.json", tmp_path / "schedule.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert main(["schedule", "--config", str(cfg), "--horizon-s", "345600",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SCHEDULE_GOLDEN

    def test_sun_fraction_exact_over_one_orbit(self, capsys):
        assert main(["schedule", "--horizon-s", "5400"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sun_fraction"] == 3300.0 / 5400.0

    def test_no_stations_empty_windows(self, tmp_path, scenario_dict, capsys):
        scenario_dict["stations"] = []
        cfg = tmp_path / "nostations.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert main(["schedule", "--config", str(cfg), "--horizon-s", "5400"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["windows"] == []

    def test_prints_the_override_windows_simulate_uses(self, tmp_path, scenario_dict, capsys):
        override = tmp_path / "override.json"
        override.write_text(json.dumps([{"node": 0, "target": "gs-x", "start_s": 100.0,
                                         "end_s": 700.0, "phase": "sun"}]))
        scenario_dict["sim"]["schedule_override_path"] = str(override)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert main(["schedule", "--config", str(cfg), "--horizon-s", "5400"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["windows"] == [{"node": 0, "target": "gs-x", "start_s": 100.0, "end_s": 700.0,
                                   "phase": "sun", "window_id": "gs-x:override:0"}]
        assert (doc["t_sun"], doc["t_eclipse"]) == (["gs-x:override:0"], [])

    def test_no_nodes_no_windows(self, tmp_path, scenario_dict, capsys):
        scenario_dict["sim"]["node_count"] = 0
        cfg = tmp_path / "nonodes.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert main(["schedule", "--config", str(cfg), "--horizon-s", "5400"]) == 0
        assert json.loads(capsys.readouterr().out)["windows"] == []

    def test_emitted_schedule_reingests_identically(self, tmp_path):
        out = tmp_path / "schedule.json"
        assert main(["schedule", "--horizon-s", "43200", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        per_node = load_schedule_override(doc["windows"])
        emitted = [w for w in doc["windows"]]
        round_tripped = [
            {"node": n, "target": w.target, "start_s": w.start, "end_s": w.end,
             "phase": w.phase, "window_id": w.window_id}
            for n, sched in sorted(per_node.items()) for w in sched.windows
        ]
        key = lambda r: (r["node"], r["start_s"], r["window_id"])
        assert sorted(emitted, key=key) == sorted(round_tripped, key=key)

    # an orbit whose modulo edge stepping stalled after three segments, and
    # a phase offset whose timeline held segments of about 1e-12 s
    @pytest.mark.parametrize("orbit", [{"period_s": 5677.3, "sun_duration_s": 3411.1},
                                       {"phase_offset_rad": 2 * math.pi / 7}])
    def test_phase_timeline_alternates_on_whole_segments(self, tmp_path, scenario_dict, orbit):
        scenario_dict["orbit"].update(orbit)
        cfg, out = tmp_path / "orbit.json", tmp_path / "schedule.json"
        cfg.write_text(json.dumps(scenario_dict))
        # a fresh process under a timeout, so a stalled walk fails rather than hangs
        src = str(Path(cli.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-m", "leolora.cli", "schedule", "--config", str(cfg),
                        "--horizon-s", "172800", "--out", str(out)],
                       check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        timeline = json.loads(out.read_text())["phase_timeline"]
        assert timeline[0]["start_s"] == 0.0 and timeline[-1]["end_s"] == 172800.0
        for a, b in zip(timeline, timeline[1:]):
            assert a["end_s"] == b["start_s"] and a["phase"] != b["phase"]
        assert min(seg["end_s"] - seg["start_s"] for seg in timeline) >= 1.0

    def test_bad_horizon_exits_2(self):
        assert main(["schedule", "--horizon-s", "-5"]) == 2

    def test_grid_too_fine_to_build_exits_2(self, tmp_path, capsys):
        out = tmp_path / "windows.json"
        assert main(["schedule", "--step-s", "1e-9", "--horizon-s", "43200",
                     "--out", str(out)]) == 2
        assert "over the limit of" in capsys.readouterr().err
        assert not out.exists()

    def test_coarse_grid_too_large_to_build_exits_2(self, tmp_path, capsys):
        # 5e7 samples pass the sample limit, but at 60 s each is a coarse sample
        out = tmp_path / "windows.json"
        assert main(["schedule", "--horizon-s", "3e9", "--step-s", "60",
                     "--out", str(out)]) == 2
        assert "coarse samples, over the limit of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--horizon-s", "--step-s"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_horizon_or_step_not_finite_and_positive_exits_2(self, tmp_path, option, value,
                                                             capsys):
        out = tmp_path / "windows.json"
        argv = ["schedule", "--horizon-s", "5400", option, value, "--out", str(out)]
        assert main(argv) == 2
        name = option[2:].replace("-", "_")
        assert f"error: {name} must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()


class TestCliOptions:
    @pytest.mark.parametrize("argv", [
        ["degradation", "--seed", "1"],
        ["airtime", "--seed", "1"],
        ["schedule", "--seed", "1"],
        ["schedule", "--format", "csv"],
    ])
    def test_options_a_command_would_ignore_exit_2(self, argv, capsys):
        # only `simulate` is seeded, and `schedule` writes JSON alone
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _tiny_reports(d, cwd):
    d["sim"].update(duration_days=0.001, report_interval_s=1e-12)


def _odd_orbit(d, cwd):
    d["orbit"].update(period_s=5677.3, sun_duration_s=3411.1)


def _huge_capacity(d, cwd):
    d["battery"]["capacity_rated_ah"] = 1e306


def _huge_voltage(d, cwd):
    d["battery"]["voltage_nominal_v"] = 1e306


def _heavy_traffic(d, cwd):
    d["sim"]["traffic_rate_per_s"] = 250000.0


def _huge_node_override(d, cwd):
    (cwd / "node_override.json").write_text(json.dumps(
        [{"node": 65536, "target": "gw", "start_s": 0.0, "end_s": 600.0, "phase": "sun"}]))
    d["sim"]["schedule_override_path"] = str(cwd / "node_override.json")


def _bad_override(d, cwd):
    (cwd / "bad_override.json").write_text("[1]")
    d["sim"]["schedule_override_path"] = str(cwd / "bad_override.json")


class TestConsoleScript:
    """The command line's exit codes, each in a fresh process under a time limit.

    Each row runs `python -m leolora.cli`, which calls `main` as the
    `leolora` console script does, in its own working directory; a hang
    fails at the limit.
    """

    # (arguments, the scenario file they read as (name, change to the default, or
    # the file's text), exit code); a failing run prints one `error:` line
    @pytest.mark.parametrize("argv, config, code", [
        (["schedule", "--step-s", "0", "--out", "step0.json"], None, 2),
        (["simulate", "--seed", "-1"], None, 2),
        (["degradation", "--years", "inf", "--out", "inf.csv"], None, 3),
        # spans past the curve's limits are refused at once
        (["degradation", "--years", "0.01", "--resolution", "1e-300", "--out", "fine.csv"],
         None, 3),
        (["degradation", "--years", "1000", "--out", "long.csv"], None, 3),
        # report intervals and sample grids too fine to finish or build are refused
        (["schedule", "--step-s", "1e-9", "--horizon-s", "43200", "--out", "fine_grid.json"],
         None, 2),
        (["simulate", "--config", "tiny_reports.json"],
         ("tiny_reports.json", _tiny_reports), 2),
        (["schedule", "--horizon-s", "3e9", "--step-s", "60", "--out", "coarse_grid.json"],
         None, 2),
        # an orbit whose phase edges once stalled the timeline walk
        (["schedule", "--config", "odd_orbit.json", "--horizon-s", "43200",
          "--out", "odd_schedule.json"], ("odd_orbit.json", _odd_orbit), 0),
        (["simulate", "--config", "bad_override_cfg.json"],
         ("bad_override_cfg.json", _bad_override), 3),
        # a pack whose rated energy overflows, and traffic too heavy to draw up front
        (["simulate", "--config", "huge_capacity.json"],
         ("huge_capacity.json", _huge_capacity), 2),
        (["simulate", "--config", "huge_voltage.json"],
         ("huge_voltage.json", _huge_voltage), 2),
        (["simulate", "--config", "heavy_traffic.json"],
         ("heavy_traffic.json", _heavy_traffic), 2),
        (["simulate", "--config", "node_override_cfg.json"],
         ("node_override_cfg.json", _huge_node_override), 3),
        # a scenario file that is not an object
        (["simulate", "--config", "array.json"], ("array.json", "[]"), 2),
        (["simulate", "--config", "null.json"], ("null.json", "null"), 2),
        (["schedule", "--config", "array.json"], ("array.json", "[]"), 2),
        (["airtime", "--config", "null.json"], ("null.json", "null"), 2),
    ], ids=["step_zero", "negative_seed", "years_inf", "resolution_tiny", "years_1000",
            "grid_too_fine", "tiny_reports", "coarse_grid_too_large", "odd_orbit",
            "bad_override", "capacity_overflow", "voltage_overflow", "heavy_traffic",
            "override_node_past_uint16", "simulate_array", "simulate_null", "schedule_array",
            "airtime_null"])
    def test_exit_code(self, tmp_path, scenario_dict, argv, config, code):
        if config is not None:
            name, change = config
            if isinstance(change, str):
                (tmp_path / name).write_text(change)
            else:
                change(scenario_dict, tmp_path)
                (tmp_path / name).write_text(json.dumps(scenario_dict))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "leolora.cli", *argv], cwd=tmp_path,
                              capture_output=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": src})
        err = done.stderr.decode()
        assert done.returncode == code, err
        if code:
            assert [line.startswith("error: ") for line in err.splitlines()] == [True], err


# Each key of the one-key scenario fuzz is set to each of these, or deleted.
FUZZ_VALUES = [0, 0.0, -1.0, 1, 0.5, 1.5, 1e-12, 1e-3, 1e6, 1e306, -1e306, math.inf, -math.inf,
               math.nan, True, False, "x", None, [], 7, 13, 250000, 10**400]
_DELETE = object()
# (key, value, problem lines) of the changes that break more than one rule
FUZZ_SEVERAL = [
    ("duration_days", 1e6, 3),       # the uint32 period end, the arrivals and the grid
    ("duration_days", 250000, 3),
    ("duration_days", 1e306, 4),     # and the report rows
    ("slot_s", 1e-12, 2),            # under the time-on-air, and past the uint32 n_slots
    ("slot_s", 5e-324, 2),
]
BOTH_C_RATE_FORMS = "error: battery: give either c_rate_reference or discharge_current_a, not both"
# an `error:` line names one dotted path: a section, a station, or a key of either
DOTTED_PATH_LINE = re.compile(r"error: [a-z]+(\[\d+\])?(\.[a-z_0-9]+)?: ")
# a problem line shows a huge value in short form, never digit by digit
HUGE_NUMBER = re.compile(r"\d{20}")


class TestScenarioFuzz:
    """Every scenario one key away from a small base runs to the end or is refused.

    The base is the default scenario with 2 nodes over 0.001 days, short
    enough that `report_interval_s: 0.001` (173,000 report rows) takes a few
    seconds.  Every key of each section and of `stations[0]`, and
    `battery.discharge_current_a`, is set to each of `FUZZ_VALUES` or
    deleted, and run through `main(["simulate", ...])` under a time limit.
    Then, derandomized, 2 to 4 of those keys at once are set, each to one of
    `FUZZ_VALUES`, deleted, or set to a value near the one it runs with or
    near a bound it declares (`_near_values`), so many cases reach the engine.
    """

    CASE_LIMIT_S = 10.0

    @staticmethod
    def cases(base):
        keys = [((name,), key) for name, section in base.items() if isinstance(section, dict)
                for key in section if not key.startswith("_")]
        keys += [(("stations", 0), key) for key in base["stations"][0]]
        keys.append((("battery",), "discharge_current_a"))
        return [(where, key, value) for where, key in keys for value in FUZZ_VALUES + [_DELETE]]

    def test_every_one_key_change_runs_or_is_refused(self, tmp_path, default_dict, capsys):
        base = copy.deepcopy(default_dict)
        base["sim"].update(node_count=2, duration_days=0.001)
        cases = self.cases(base)
        assert len(cases) == 66 * 24
        cfg, summary = tmp_path / "scenario.json", tmp_path / "summary.json"
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "metrics.csv"),
                "--summary", str(summary)]
        failures = []
        for where, key, value in cases:
            scenario = copy.deepcopy(base)
            section = functools.reduce(lambda d, k: d[k], where, scenario)
            if value is _DELETE:
                section.pop(key, None)
            else:
                section[key] = value
            cfg.write_text(json.dumps(scenario))
            summary.unlink(missing_ok=True)
            shown = "deleted" if value is _DELETE else repr(value)
            case = f"{'.'.join(map(str, where))}.{key} = {shown}"
            try:
                with time_limit(self.CASE_LIMIT_S), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main(argv)
            except Exception as exc:   # a traceback at the console
                code = exc
            err = capsys.readouterr().err
            problem = (f"raised {code!r}" if isinstance(code, Exception)
                       else self.problem([(key, value)], scenario, code, err, summary))
            if problem:
                failures.append(f"{case}: {problem}")
        assert failures == []

    @staticmethod
    def problem(changes, scenario, code, err, summary) -> str | None:
        """What is wrong with one case's exit code, error lines or summary, or None.

        changes are the case's (key, value) pairs and scenario what they made.
        One change must give exactly the problem lines it breaks rules for;
        several, at least one line and at most one a change, or a change's
        count in `FUZZ_SEVERAL`, since changes may break a rule together.
        """
        lines = err.splitlines()
        keys = {key for key, _ in changes}
        # `main` reports the time limit's TimeoutError, an OSError, as exit 3
        if "Traceback" in err or "still running after" in err:
            return f"exit {code}: {err}"
        if any(HUGE_NUMBER.search(line) for line in lines if line.startswith("error:")):
            return f"a problem line spells out a huge number: {lines}"
        if code == 3:
            # only an override file that cannot be read stops a run at exit 3
            return None if "schedule_override_path" in keys else f"exit 3: {err}"
        if code == 2:
            if not all(DOTTED_PATH_LINE.match(line) for line in lines):
                return f"a line names no dotted path: {lines}"
            # both C-rate forms given is a line of its own, beside the values' problems
            both = all(scenario["battery"].get(key) is not None
                       for key in ("c_rate_reference", "discharge_current_a"))
            if both != (BOTH_C_RATE_FORMS in lines):
                return f"both C-rate forms given: {both}, but the lines are {lines}"
            lines = [line for line in lines if line != BOTH_C_RATE_FORMS]
            several = [sum(n for k, v, n in FUZZ_SEVERAL if k == key and v == value) or 1
                       for key, value in changes]
            if len(changes) == 1:
                ok = len(lines) <= 1 if both else len(lines) == several[0]
            else:
                ok = (both or bool(lines)) and len(lines) <= sum(several)
            return None if ok else f"{len(lines)} problem lines: {lines}"
        if code != 0:
            return f"exit {code}: {err}"
        doc = json.loads(summary.read_text())
        packets = doc["packets"]
        if not packets["generated"] == doc["packets_terminal"] == sum(
                packets[k] for k in END_OUTCOMES):
            return f"packet accounting does not close: {packets}"
        return None

    @settings(max_examples=600, derandomize=True)
    @given(data=st.data())
    def test_every_two_to_four_key_change_runs_or_is_refused(self, data, tmp_path_factory,
                                                             default_dict):
        base = copy.deepcopy(default_dict)
        base["sim"].update(node_count=2, duration_days=0.001)
        near = _near_values(base)
        keys = data.draw(st.lists(st.sampled_from(list(near)), min_size=2, max_size=4,
                                  unique=True), label="keys")
        scenario, changes = copy.deepcopy(base), []
        for where, key in keys:
            value = data.draw(st.sampled_from(near[(where, key)])
                              | st.sampled_from(FUZZ_VALUES + [_DELETE]), label=key)
            section = functools.reduce(lambda d, k: d[k], where, scenario)
            if value is _DELETE:
                section.pop(key, None)
            else:
                section[key] = value
            changes.append((key, value))
        cwd = tmp_path_factory.mktemp("mutation")
        cfg, summary = cwd / "scenario.json", cwd / "summary.json"
        cfg.write_text(json.dumps(scenario))
        err = io.StringIO()
        reports = []
        real_emit = Simulator._emit_report

        def emit(sim, node, t):
            real_emit(sim, node, t)
            reports.append(sim.reports[-1])

        with (time_limit(self.CASE_LIMIT_S), warnings.catch_warnings(),
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
              mock.patch.object(Simulator, "_emit_report", emit)):
            warnings.simplefilter("ignore")
            code = main(["simulate", "--config", str(cfg), "--out", str(cwd / "metrics.csv"),
                         "--summary", str(summary)])
            assert self.problem(changes, scenario, code, err.getvalue(), summary) is None
            # every report an accepted run makes fits the uplink; decoding is not
            # asserted, since a period under a second can round to an empty
            # whole-second span, which `decode_report` refuses (ROADMAP item 4)
            for report in reports if code == 0 else ():
                assert len(encode_report(report)) <= MAX_ENCODED_BYTES


# the section of the fuzz's base each scenario dataclass reads its fields from
_SECTION = {OrbitConfig: ("orbit",), GroundStation: ("stations", 0),
            DegradationParams: ("battery",), ThermalProfile: ("battery",),
            BatteryScenario: ("battery",), HarvestModel: ("energy",), PowerProfile: ("energy",),
            EnergyScenario: ("energy",), RadioConfig: ("radio",), MacConfig: ("mac",),
            SimParams: ("sim",)}


def _near_values(base) -> dict[tuple, list]:
    """Values near each fuzzed key's valid one, by (section, key).

    The value a key runs with in the base (derived, where the base gives
    none) is scaled by 0, 1e-3, 0.5, 2 and 1e3, if a number.  Each bound
    a key declares is taken with its neighbours, one ulp (for a whole
    number, one) either side, and each of its choices as it is.
    """
    parsed = parse_scenario(base)
    # (section, key) -> (bounds, whether a whole number, the value the base runs with)
    declared = {(where, f.name): (f.metadata["bounds"], f.type in ("int", int),
                                  getattr(_PARTS[part](parsed), f.name))
                for part, where in _SECTION.items() for f in dataclasses.fields(part)
                if "bounds" in f.metadata}
    # the keys the reader bounds itself
    declared[(("mac",), "slot_budget_s")] = (Bounds(gt=0.0), False, 40.0)
    declared[(("mac",), "deadline_orbits")] = (Bounds(gt=0.0), False, 2.0)
    declared[(("battery",), "discharge_current_a")] = (
        Bounds(ge=0.0), False, parsed.battery.c_rate_reference * parsed.battery.capacity_rated_ah)
    near = {}
    for where, key, _ in TestScenarioFuzz.cases(base):
        if (where, key) in near:
            continue
        section = functools.reduce(lambda d, k: d[k], where, base)
        bounds, whole, value = declared.get((where, key)) or (Bounds(), False, section[key])
        values = []
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values += [type(value)(value * f) for f in (0, 1e-3, 0.5, 2, 1e3)]
        for edge in (bounds.ge, bounds.gt, bounds.le):
            if edge is not None:
                values += ([edge - 1, edge, edge + 1] if whole else
                           [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)])
        if key == "node_count":
            # a fleet at its bound runs for minutes, as long as its work takes, not
            # hung: only the value past the bound is drawn
            values = [v for v in values if v <= 1000 * value or v > bounds.le]
        near[(where, key)] = values + list(bounds.choices or ()) or [value]
    return near
