"""Golden outputs: byte-exact metrics CSV and summary JSON for fixed runs.

Each case pins the sha256 of the metrics CSV bytes followed by the summary
JSON bytes, at seeds 1-3.  The cases cover paths no other byte-level check
reaches: brownouts that drop packets in flight under both protocols,
collision-exhausted retries on shared override windows (with and without
brownouts), and a dense naive-ALOHA fleet whose receivers come from real
visibility windows.

If a change is meant to alter what the simulator computes, re-take the
hashes and say why in the change log; otherwise a mismatch is a regression.
"""

import hashlib
import json

import pytest

from leolora.engine import Simulator, run, write_metrics_csv, write_summary_json

from conftest import make_scenario, time_limit

# Small pack, harvest just above the sleep draw: the node fills in sunlight
# and browns out through every eclipse, often with a packet in flight.
BROWNOUT = {
    "battery.capacity_rated_ah": 0.5,
    "energy.psi_min_j": 10.0,
    "energy.e_critical_j": 0.0,
    "sim.node_count": 4,
    "sim.traffic_rate_per_s": 1.0 / 60.0,
    "sim.duration_days": 0.25,
}

CASES = {
    # a long backoff keeps aware packets in flight across slot ticks
    "aware_brownout": {**BROWNOUT, "sim.protocol": "battery_aware",
                       "mac.backoff_base_s": 60.0},
    "naive_brownout": {**BROWNOUT, "sim.protocol": "naive_aloha",
                       "mac.backoff_base_s": 30.0},
    "naive_dense": {"sim.protocol": "naive_aloha", "sim.node_count": 16,
                    "sim.traffic_rate_per_s": 1.0 / 30.0, "sim.duration_days": 0.0625},
    "aware_shared_windows": {"sim.protocol": "battery_aware", "sim.node_count": 4,
                             "sim.traffic_model": "periodic",
                             "sim.traffic_rate_per_s": 1.0 / 120.0,
                             "sim.duration_days": 0.25,
                             "energy.psi_min_j": 1000.0, "energy.e_critical_j": 0.0},
    # the default pack settles idle slots in batches; reports every orbit,
    # on node 0's sunrises, read and reset the period sums mid-run
    "aware_reports": {"sim.protocol": "battery_aware", "sim.duration_days": 0.5,
                      "sim.report_interval_s": 5400.0},
    # brownouts that drop a packet whose next attempt on a shared window is
    # still ahead, while other nodes' attempts share that receiver
    "aware_brownout_shared": {**BROWNOUT, "sim.protocol": "battery_aware",
                              "mac.backoff_base_s": 60.0},
}

GOLDEN = {
    ("aware_brownout", 1):
        "39f8e25793ab0e876da265e70460bc7c880051d7906f223b0af8e0d57f7713f1",
    ("aware_brownout", 2):
        "c22eac0f250c784b77320d508484d7306b45df510a3cae1a5e30bec5925aa5eb",
    ("aware_brownout", 3):
        "44eb7677736b0d52004727e2a72b317514788776af3a33affabfecbd551e7c27",
    ("naive_brownout", 1):
        "2600028dd3bcd9dc9b423973d489b098c20e2f3039572e17c3f5e5ab168a5462",
    ("naive_brownout", 2):
        "89aabcdd27b2e7ed23ce8cdd8c522f6056786df38552c1b5cd93e865ec7c4b67",
    ("naive_brownout", 3):
        "a8ad1ce6e8a17813056f409d5225ff446b322fd4e9d12791ff1813b698d63a7f",
    ("naive_dense", 1):
        "7d8c00b910354e6f8680a1322e4d29f99499abc4fa06716a7b0957f4b9cb301b",
    ("naive_dense", 2):
        "7bee0e78b04ccb9a883974cdf8898d6d7863923e42b5fb382260621f54651b94",
    ("naive_dense", 3):
        "24d80bc6cdb12002ab77a329b23f76786475b96800922eeccbec7784f7c4085b",
    ("aware_shared_windows", 1):
        "ed090d6bebecaac6f3f09ec0cd9c681eca4a2fc021ee33591b49136648f2fc36",
    ("aware_shared_windows", 2):
        "24e6be1b76de697ddf95f05f00ad599456fbe80a6ce35357715e7f22f5fae581",
    ("aware_shared_windows", 3):
        "7644fa1bfb821457c30f0235e3998122a43956fdf217d789c9b28ae0627d2e39",
    ("aware_reports", 1):
        "8b7e1d3b47f27cdb1e8262c7d75a88efc7168c62d762ff79ec799552505731b6",
    ("aware_reports", 2):
        "c43549adb845ae88fe50562070cf5e78c641cc971f172a4e8882a905d50e2cd6",
    ("aware_reports", 3):
        "c43d1cbf9eef312768e59e99a317781c9f0312e96a1ce4d0827b9bc79d0d96ed",
    ("aware_brownout_shared", 1):
        "8ea539d9f93ae2884eec75a036bd55c1fc5670e057abb2a9ff99e2aaa7213584",
    ("aware_brownout_shared", 2):
        "c8db59a62b08e171e5da5cc81cb3ba710465ff7442b9679541a65fa72cd57a54",
    ("aware_brownout_shared", 3):
        "a92cf0eb71924e1f221023345e079020238a1384982a5bbcac04016f0e8903d1",
}


# sha256 of the distinct battery-aware decisions' selection-time values on
# shared windows with brownouts (`_decisions_digest`).  Windows open the
# instant a node's last attempt ends, so these pin the order of simultaneous
# attempt ends and window openings, which the metrics alone do not show.
DECISIONS_CASE = {**BROWNOUT, "sim.protocol": "battery_aware", "mac.backoff_base_s": 30.0}
DECISIONS = {
    1: "6aa1831b42dcb45bf4efd554c8b758b70df02a63ff0dc860ade887d7bd2827d4",
    3: "2db8ba99e3602a2041627f08bc9ebd814a2f23b3a03024b8d6b152f5586f2ca0",
}


# sha256 of the distinct decisions when windows open exactly on a node's slot
# ticks, slot_offset + k * slot_s: per node, four back-to-back 30-second
# windows on consecutive ticks, every 45 slots.  The pack is the default one, so
# idle slots settle in batches.  Opens that fail re-decide onto the next
# tick's window, from a tick time or from inside the slot before it, so
# events tie with ticks that are real and ticks that are not.  psi_j pins
# which slots each decision saw settled.
TIE_CASE = {"sim.protocol": "battery_aware", "sim.node_count": 4, "sim.duration_days": 0.25,
            "sim.traffic_rate_per_s": 1.0 / 120.0, "energy.e_critical_j": 0.0}
TIE_DECISIONS = {
    1: "f42a18e7b2d8297630697f2b5a72343c0c1081cd318a611b8cdbae3a0f6e8113",
    2: "3c1cd7d31a651c5f008087462ac00d825b0db61412adbcc5963a81e1942617e5",
    3: "ca2df09bcc3171aace794260cf4bfaf22216ab5828e793848664d70d63f2b426",
}


def _shared_windows(path, node_count, days):
    """Every node sees one gateway through the same 30-minute window per orbit."""
    windows = [
        {"node": node, "target": "gw", "start_s": k * 5400.0, "end_s": k * 5400.0 + 1800.0,
         "phase": "sun" if k % 2 == 0 else "eclipse"}
        for k in range(int(days * 86400.0 / 5400.0) + 1)
        for node in range(node_count)
    ]
    path.write_text(json.dumps(windows))
    return str(path)


def _digest(result, tmp_path) -> str:
    csv_path, summary_path = tmp_path / "metrics.csv", tmp_path / "summary.json"
    write_metrics_csv(result.metrics, csv_path)
    write_summary_json(result.summary, summary_path)
    return hashlib.sha256(csv_path.read_bytes() + summary_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_golden_outputs(case, tmp_path, default_dict):
    overrides = dict(CASES[case])
    if case in ("aware_shared_windows", "aware_brownout_shared"):
        overrides["sim.schedule_override_path"] = _shared_windows(
            tmp_path / "override.json", overrides["sim.node_count"],
            overrides["sim.duration_days"])
    sc = make_scenario(default_dict, **overrides)
    got = {seed: _digest(run(sc, seed=seed), tmp_path) for seed in (1, 2, 3)}
    assert got == {seed: GOLDEN[(case, seed)] for seed in (1, 2, 3)}


# `steady` (8 nodes x 4 days, battery-aware) at seeds where most window
# opens once re-decided a packet whose first backoff missed: 253,185 opens
# for 4,571 packets at seed 0, 36,863 for 4,759 at seed 5.  Taken before
# whole rounds of such misses were skipped, so they pin that the skip
# changes nothing.
STEADY_CASE = {"sim.duration_days": 4.0, "sim.node_count": 8,
               "sim.protocol": "battery_aware", "sim.traffic_rate_per_s": 1.0 / 600.0}
STEADY_GOLDEN = {
    0: "585cb200229c36dd8ec908369b9b5d80d3583bdd111d21c775d1bf89bc4a8cc4",
    5: "80a757c686c3e7b1f84c3497a628a224261baec975c7e5b2c361070ccedd4a02",
}


@pytest.mark.parametrize("seed", list(STEADY_GOLDEN))
def test_golden_outputs_through_repeated_redraws(seed, tmp_path, default_dict):
    with time_limit(60):
        result = run(make_scenario(default_dict, **STEADY_CASE), seed=seed)
    assert _digest(result, tmp_path) == STEADY_GOLDEN[seed]


def _decisions_digest(decisions) -> str:
    """sha256 of the distinct decision rows, each kept at its first occurrence.

    A window open whose first backoff misses re-decides its packet, and
    once a round of such misses repeats, each re-decision logs a row equal
    to one of the round before.  How many such rows a run logs depends on
    how many rounds the engine steps through one by one, and it skips the
    whole rounds it can prove repeat (`Simulator._skip_repeated_rounds`),
    so only the distinct rows are pinned.
    """
    rows = [(a.node_id, a.time, a.transmit, a.phase, a.psi_j, a.psi_min_j, a.estimate_j,
             a.threshold_j, a.reason.value if a.reason else None) for a in decisions]
    return hashlib.sha256(repr(list(dict.fromkeys(rows))).encode()).hexdigest()


def test_golden_decisions(tmp_path, default_dict, decision_spy):
    overrides = dict(DECISIONS_CASE)
    overrides["sim.schedule_override_path"] = _shared_windows(
        tmp_path / "override.json", overrides["sim.node_count"], overrides["sim.duration_days"])
    sc = make_scenario(default_dict, **overrides)
    got = {seed: _decisions_digest(decision_spy(run(sc, seed=seed))) for seed in DECISIONS}
    assert got == DECISIONS


def _tick_aligned_windows(path, sc, seed):
    """Per node, 30-second windows opening on ticks 20-23, 65-68, ... (every 45th slot).

    slot_offset is a function of the seed alone, so a run without windows
    gives the tick times of the run that uses them.
    """
    nodes = Simulator(sc, seed=seed, schedules={}).nodes
    n_ticks = int(sc.sim.duration_s // sc.sim.slot_s)
    windows = [
        {"node": node.node_id, "target": "gw", "start_s": node.ledger.slot_time(k),
         "end_s": node.ledger.slot_time(k) + 30.0, "phase": "sun" if k0 % 90 == 20 else "eclipse"}
        for node in nodes
        for k0 in range(20, n_ticks - 4, 45)
        for k in range(k0, k0 + 4)
    ]
    path.write_text(json.dumps(windows))
    return str(path)


@pytest.mark.parametrize("seed", list(TIE_DECISIONS))
def test_golden_decisions_on_tick_aligned_windows(seed, tmp_path, default_dict, decision_spy):
    base = make_scenario(default_dict, **TIE_CASE)
    sc = make_scenario(default_dict, **TIE_CASE, **{
        "sim.schedule_override_path": _tick_aligned_windows(tmp_path / "ticks.json", base, seed)})
    assert _decisions_digest(decision_spy(run(sc, seed=seed))) == TIE_DECISIONS[seed]
