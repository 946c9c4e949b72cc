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

from leolora.engine import run, write_metrics_csv, write_summary_json

from conftest import make_scenario

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
    ("aware_brownout_shared", 1):
        "8ea539d9f93ae2884eec75a036bd55c1fc5670e057abb2a9ff99e2aaa7213584",
    ("aware_brownout_shared", 2):
        "c8db59a62b08e171e5da5cc81cb3ba710465ff7442b9679541a65fa72cd57a54",
    ("aware_brownout_shared", 3):
        "a92cf0eb71924e1f221023345e079020238a1384982a5bbcac04016f0e8903d1",
}


# sha256 of every battery-aware decision's selection-time values on shared
# windows with brownouts.  Windows open the instant a node's last attempt
# ends, so these pin the order of simultaneous attempt ends and window
# openings, which the metrics alone do not show.
DECISIONS_CASE = {**BROWNOUT, "sim.protocol": "battery_aware", "mac.backoff_base_s": 30.0}
DECISIONS = {
    1: "0b2bb5560bc44876f1cb860958e8e5af20f197e43a2c23f0970544375dfd6830",
    3: "f38a8abad9d3f0c8d8b6115f588606cc8e4d7a51d22ad61bacce2b146545d192",
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


def _decisions_digest(decisions) -> str:
    rows = [(a.node_id, a.time, a.transmit, a.phase, a.psi_j, a.psi_min_j, a.estimate_j,
             a.threshold_j, a.reason.value if a.reason else None) for a in decisions]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_golden_decisions(tmp_path, default_dict, decision_spy):
    overrides = dict(DECISIONS_CASE)
    overrides["sim.schedule_override_path"] = _shared_windows(
        tmp_path / "override.json", overrides["sim.node_count"], overrides["sim.duration_days"])
    sc = make_scenario(default_dict, **overrides)
    got = {seed: _decisions_digest(decision_spy(run(sc, seed=seed))) for seed in DECISIONS}
    assert got == DECISIONS
