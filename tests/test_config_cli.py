"""Scenario validation and the command-line surface."""

import json
import warnings

import pytest

from leolora.cli import main
from leolora.config import load_scenario, parse_scenario
from leolora.exceptions import ValidationError
from leolora.orbit import load_schedule_override


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

    def test_not_json_reports_cleanly(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_scenario(path)

    def test_steady_state_phi_continuous_at_dawn(self, default_scenario):
        sc = default_scenario
        assert sc.steady_state_phi_j(sc.node_orbit(0)) == pytest.approx(
            0.5 * sc.phi_max_j(), rel=1e-12
        )
        # energy-neutral default: a full period returns to the dawn level
        for u in range(4):
            phi = sc.steady_state_phi_j(sc.node_orbit(u))
            assert 0.0 <= phi <= sc.phi_max_j()


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

    @pytest.mark.parametrize("sweep", ["0", "-3"])
    def test_sweep_below_one_exits_2(self, tmp_path, sweep, capsys):
        code = main(["simulate", "--sweep", sweep, "--out", str(tmp_path / "m.csv"),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        assert "error: sweep must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCliDegradation:
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


class TestCliAirtime:
    def test_sf10_reference(self, capsys):
        assert main(["airtime", "--sf", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["time_on_air_s"] == pytest.approx(0.288768, rel=1e-9)

    def test_sf7_reference(self, capsys):
        assert main(["airtime", "--sf", "7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["time_on_air_s"] == pytest.approx(0.041216, rel=1e-9)

    def test_invalid_payload_exits_with_diagnostic(self, tmp_path, scenario_dict, capsys):
        scenario_dict["radio"]["payload_bytes"] = 0
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(scenario_dict))
        code = main(["airtime", "--config", str(cfg)])
        assert code == 2
        assert "payload" in capsys.readouterr().err


class TestCliSchedule:
    def test_sun_fraction_exact_over_one_orbit(self, capsys):
        assert main(["schedule", "--horizon-s", "5400", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sun_fraction"] == 3300.0 / 5400.0

    def test_no_stations_empty_windows(self, tmp_path, scenario_dict, capsys):
        scenario_dict["stations"] = []
        cfg = tmp_path / "nostations.json"
        cfg.write_text(json.dumps(scenario_dict))
        assert main(["schedule", "--config", str(cfg), "--horizon-s", "5400"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["windows"] == []

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

    def test_bad_horizon_exits_2(self):
        assert main(["schedule", "--horizon-s", "-5"]) == 2
