"""The experiment scripts in `scripts/` run end to end on tiny inputs.

Each script runs in-process under `runpy` with its own `sys.argv`, as
`python scripts/<name>.py ...` would run it.
"""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, args, monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_run_default_prints_report(monkeypatch, capsys):
    out = _run_script("run_default.py", ["--days", "0.05"], monkeypatch, capsys)
    assert "protocol=battery_aware" in out
    assert "gateway fleet assessment" in out
    assert "pdr=n/a" not in out


def test_run_default_without_packets(monkeypatch, capsys):
    out = _run_script("run_default.py", ["--nodes", "0"], monkeypatch, capsys)
    assert "generated=0 delivered=0 pdr=n/a" in out


def test_compare_protocols_one_seed(monkeypatch, capsys, tmp_path):
    csv = tmp_path / "compare.csv"
    out = _run_script("compare_protocols.py",
                      ["--seeds", "1", "--days", "0.05", "--csv", str(csv)],
                      monkeypatch, capsys)
    assert "cycle aging on" in out and "/1 seeds" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "seed,aware_cycle_aging,naive_cycle_aging,aware_pdr,naive_pdr"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_fade_horizon_short(monkeypatch, capsys):
    out = _run_script("fade_horizon.py", ["--years", "0.1"], monkeypatch, capsys)
    assert out.startswith(" year")
    assert "capacity fade after 0.1 years" in out
