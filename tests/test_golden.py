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
        "events.jsonl": "5de47890c110818a8d7a7323a0c47e07a25c004fd33800366756dd238b8c6d72",
        "snapshots.csv": "bbe49e85e1eb2d7d97d5b9f8cd01e1e5a8e755d16af795ec8c30487a6ad8ea0d",
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
        "events.jsonl": "fa8b1efd27d61018f6eda1cb413a7a2afc93c76e1e0596455e1dfc546fefd40b",
        "snapshots.csv": "16fdeb84ac45765d7609ccb24505f1ee09289246975286c70622a86705d81a1a",
        "trace.csv": "ee9b1cb9cd633fd7e1dfa5031ee607b4379516a235129fc2f984b0c6d6a078ce",
    }


CHURN = ScenarioConfig(uav_count=40, wait_min=1, wait_max=4, duration=5, seed=100000)


def test_churn_fleet_scenario(tmp_path):
    # 40 UAVs turning every 1-4 s: most of the run is lifetime re-estimates.
    assert run_fleet(CHURN, tmp_path) == {
        "events.jsonl": "3152f8fe0e22df2d58efb539c95a6153ad678f54c0e18eb0f9fd1ea43a0d30a5",
        "snapshots.csv": "1a3897534f97c3ff29e2c006ffc4101dbbac8e3e4fc463e5cfe7235962213bb3",
        "trace.csv": "f7e35c0d831cd8317e1efa9e9d600fbb0b9d275ac6b2bf3552d63c698c0e4a11",
    }


def test_sparse_hello_scenario(tmp_path):
    # Hellos 20 s apart leave long gaps between queued events, so check
    # blocks reach their 256-tick cap while links come up and go down.
    config = ScenarioConfig(uav_count=4, hello_interval=20.0, duration=300, seed=3)
    assert run_fleet(config, tmp_path) == {
        "events.jsonl": "b44752e24a7b488ab2ab92064e35ad2489ed1770af5205312144129c66e1608f",
        "snapshots.csv": "110819d39c84d8479b28d89ad0e54e1f46df48c6c289f0d4ba075130700aaac3",
        "trace.csv": "a00047785460dc7d9aa51ead28678d1ea66dbc23fc8ef0576eff03ee7e2becca",
    }


SOLVER_DIGESTS = {
    ("A", SWEEP_HORIZON): "e30b210a0c993ca01470498ab814c17651d55f52bc546a66f77f2cb0820938e8",
    ("A", DEFAULT_HORIZON): "e529bad4d2f571820fe114e1758bcb548bb612878637624ab74464edcec82326",
    ("B", SWEEP_HORIZON): "98e49812c56af818ae0cbcab572a47a2772ed2b337ee715235d9a35bb3ac99bb",
    ("B", DEFAULT_HORIZON): "3f4fe7a50ea7b47f37c5e24dbe0a8bde7861b7bf3457101f0002a8ab15d00a23",
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
            == "a979ab999123e0470c9f5d20e24091e70c124532d8bd14b4aee7aba68fd01e90")


TRACE_ARENA = Arena(0, 5000, 0, 5000, buffer_width=500)


@pytest.mark.parametrize("count, duration, wait, digest", [
    # demos/03_smooth_turn_traces.py
    (8, 300.0, (5, 20), "3ec27f55a5d4285e888a111804e936050f3463b84a9263703e66d5c47e8b63d3"),
    # Every wait is 10 s, so all 72 change instants fall on sample instants.
    (6, 120.0, (10, 10), "a6600936e49c67a1f8f5d04b56074676e1c12e54e55a7de0d3e0e70318fdcddb"),
])
def test_generate_trace(count, duration, wait, digest):
    config = SmoothTurnConfig(radius_min=100, radius_max=800, speed_min=25, speed_max=55,
                              wait_min=wait[0], wait_max=wait[1])
    rows, segments = generate_trace(count, TRACE_ARENA, config, duration, seed=2024, sample_dt=1.0)
    assert hashlib.sha256(repr((rows, segments)).encode()).hexdigest() == digest


@pytest.mark.parametrize("config", [load_config(DEMOS / "scenario_small.cfg"), CHURN],
                         ids=["small", "churn"])
def test_generate_trace_matches_simulator(config):
    # Standalone mobility and the network run fly the same fleet: same
    # trace rows at the Hello interval, same per-UAV segment history.
    sim = fleet_simulator(config)
    result = sim.run()
    rows, segments = generate_trace(config.uav_count, config.arena(), config.smooth_turn(),
                                    config.duration, config.seed,
                                    sample_dt=config.hello_interval)
    assert rows == result.trace_rows
    assert segments == [sim._segments[uid] for uid in sim.order]
