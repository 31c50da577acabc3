"""Pinned sha256 digests of the simulator's and the solver's deterministic outputs.

A rerun comparison only shows that a run repeats itself; these digests
also catch a refactor that changes behaviour consistently. Re-record a
digest only for a deliberate, documented behaviour change.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from uavllt.cli import main
from uavllt.config import ScenarioConfig, load_config
from uavllt.kinematics import planar_distance, position_at
from uavllt.llt import DEFAULT_HORIZON, compute_llt
from uavllt.mobility import Arena, SmoothTurnConfig, SmoothTurnFleet, generate_trace, write_trace_csv
from uavllt.netsim import SmoothTurnChanges, Simulator, write_events_jsonl, write_snapshots_csv
from uavllt.validate import SWEEP_HORIZON, sample_instance

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def digests(directory: Path) -> dict:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in ("events.jsonl", "snapshots.csv", "trace.csv")}


def test_small_scenario_cli(tmp_path):
    assert main(["simulate", str(DEMOS / "scenario_small.cfg"), "--out", str(tmp_path)]) == 0
    assert digests(tmp_path) == {
        "events.jsonl": "ac7f97939e2a4d7bee6a74c38d0ae6c7b34e54dd73bde636d48bf0af7416c9e6",
        "snapshots.csv": "ccdc2fa866ed6285d68f4ddcdb4b3e4847e0535c20425ebf2516e5dbb762761b",
        "trace.csv": "c572cc7f1a301f18cfc681915c6be290b88d0a3bbde274d4bb8329e4e452e0a3",
    }


def fleet_simulator(config: ScenarioConfig) -> Simulator:
    fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(), config.seed)
    return Simulator(fleet.states, SmoothTurnChanges(fleet),
                     tx_range=config.transmission_range, duration=config.duration,
                     hello_interval=config.hello_interval, horizon=config.horizon)


def run_fleet(config: ScenarioConfig, directory: Path) -> dict:
    result = fleet_simulator(config).run()
    write_events_jsonl(directory / "events.jsonl", result.events)
    write_snapshots_csv(directory / "snapshots.csv", result.snapshots)
    write_trace_csv(directory / "trace.csv", result.trace_rows)
    return digests(directory)


def test_steady_fleet_scenario(tmp_path):
    # 20 UAVs with long waits: most simulated time is the ground-truth check.
    config = ScenarioConfig(uav_count=20, wait_min=30, wait_max=90, duration=40, seed=100000)
    assert run_fleet(config, tmp_path) == {
        "events.jsonl": "1f8f40d0aff9d8fed98d1233a8d7c93c79c9606c9f184b10197542cc86407097",
        "snapshots.csv": "afc99f710d7c0b15ff1f0ac7185e0ba846e45d886eb5690bbb03a9ad3c249d0b",
        "trace.csv": "ee9b1cb9cd633fd7e1dfa5031ee607b4379516a235129fc2f984b0c6d6a078ce",
    }


CHURN = ScenarioConfig(uav_count=40, wait_min=1, wait_max=4, duration=5, seed=100000)


def test_churn_fleet_scenario(tmp_path):
    # 40 UAVs turning every 1-4 s: most of the run is lifetime re-estimates.
    assert run_fleet(CHURN, tmp_path) == {
        "events.jsonl": "61638801e25174bf88dafd91cf1ca16d2b5a864a42600f4d84168e89f0189120",
        "snapshots.csv": "a1cd53497468755f701c8247efb4b6eb6750cfede6ad9560e385544014db52e5",
        "trace.csv": "f7e35c0d831cd8317e1efa9e9d600fbb0b9d275ac6b2bf3552d63c698c0e4a11",
    }


def test_sparse_hello_scenario(tmp_path):
    # Hellos 20 s apart leave long gaps between queued events, so check
    # blocks reach their 256-tick cap while links come up and go down.
    config = ScenarioConfig(uav_count=4, hello_interval=20.0, duration=300, seed=3)
    assert run_fleet(config, tmp_path) == {
        "events.jsonl": "308e1abeb70f60e14d8fe1ffb3414e706d9694b004fdac52cb31cdb3dd1ec317",
        "snapshots.csv": "110819d39c84d8479b28d89ad0e54e1f46df48c6c289f0d4ba075130700aaac3",
        "trace.csv": "a00047785460dc7d9aa51ead28678d1ea66dbc23fc8ef0576eff03ee7e2becca",
    }


SOLVER_DIGESTS = {
    ("A", SWEEP_HORIZON): "4cdd75307228c0f1641fbea20538eb51bcbe41356cb788388e4f9de422057497",
    ("A", DEFAULT_HORIZON): "8c8040196be802367e28e4f526c4102e895309599cf409285643b502cdb7aa54",
    ("B", SWEEP_HORIZON): "98ab180f4c412c63e1aefe91e102dfca6e28c52d8fc44b8dada7a99beabb7755",
    ("B", DEFAULT_HORIZON): "a9e5091bfea1167cce671c67323ab0857759633a7a99c20ac8a15ab318b61e53",
    ("C", SWEEP_HORIZON): "43105c1053ca5e0542f101942dc64973d26f6590e5466d078e9b4698d4a60f52",
    ("C", DEFAULT_HORIZON): "368bb863ad7ea9f9f1b843a6e28f3ce10ec7fad75e5db8b96155a585ab6d1e90",
}


@pytest.mark.parametrize("case, horizon", SOLVER_DIGESTS)
def test_solver_results(case, horizon):
    # Every field of every result, bit for bit: a faster solver must not
    # move a single prediction.
    rng = np.random.default_rng([7, ord(case)])
    results = []
    for _ in range(300):
        a, b, tx_range = sample_instance(case, rng)
        r = compute_llt(a, b, tx_range, horizon)
        results.append((r.llt, r.case_used, r.root, r.residual, r.horizon_capped))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == SOLVER_DIGESTS[case, horizon]


def test_solver_results_near_tangent():
    # Ranges just above the initial separation put the range circle within
    # rounding of the separation: the windows where a bound that excludes a
    # window from the root search is tightest.
    rng = np.random.default_rng(97)
    results = []
    for i in range(600):
        a, b, _ = sample_instance("AB"[i % 2], rng)
        separation = planar_distance(position_at(a, 0.0), position_at(b, 0.0))
        for scale in (1.0 + 1e-12, 1.0 + 1e-6, 1.01, 1.3, 3.0):
            r = compute_llt(a, b, separation * scale, 200.0)
            results.append((r.llt, r.case_used, r.root, r.residual, r.horizon_capped))
    assert (hashlib.sha256(repr(results).encode()).hexdigest()
            == "f4182e2c387bd959778134353d8c67791e7e70acb23ea7b03089980de8368e86")


TRACE_ARENA = Arena(0, 5000, 0, 5000, buffer_width=500)


@pytest.mark.parametrize("count, duration, wait, digest", [
    # demos/03_smooth_turn_traces.py
    (8, 300.0, (5, 20), "3ec27f55a5d4285e888a111804e936050f3463b84a9263703e66d5c47e8b63d3"),
    # Every wait is 10 s, so all 72 change instants fall on sample instants,
    # each of which reports the segment that starts there.
    (6, 120.0, (10, 10), "736b3757dfad4915a88bda73fbad99723c99a7513a94de011af389c91b7126a2"),
])
def test_generate_trace(count, duration, wait, digest):
    config = SmoothTurnConfig(radius_min=100, radius_max=800, speed_min=25, speed_max=55,
                              wait_min=wait[0], wait_max=wait[1])
    rows, segments = generate_trace(count, TRACE_ARENA, config, duration, seed=2024, sample_dt=1.0)
    assert hashlib.sha256(repr((rows, segments)).encode()).hexdigest() == digest


@pytest.mark.parametrize("config", [
    load_config(DEMOS / "scenario_small.cfg"),
    CHURN,
    # Every change falls on a sample: both report the segment that starts there.
    ScenarioConfig(uav_count=3, wait_min=10, wait_max=10, duration=30, seed=5),
], ids=["small", "churn", "changes_on_samples"])
def test_generate_trace_matches_simulator(config):
    # Standalone mobility and the network run fly the same fleet: same
    # trace rows at the Hello interval, same per-UAV segment history.
    result = fleet_simulator(config).run()
    rows, segments = generate_trace(config.uav_count, config.arena(), config.smooth_turn(),
                                    config.duration, config.seed,
                                    sample_dt=config.hello_interval)
    assert rows == result.trace_rows
    assert segments == list(result.segments.values())
