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
        "events.jsonl": "61dec5be7825dec6122e0ce131ecf1a81ef028c3632c29cfd2aa566bafe64c33",
        "snapshots.csv": "7b6e468242a36bb38ad9cf5a2c8f790d49ec67d0310aea9fb8ed5bf3008227c3",
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
        "events.jsonl": "41d6833df397ef6e8d18e9a7a2bfd358526c1f80b24ad11dcee7fd9775e02a63",
        "snapshots.csv": "a46f2aa4d147a5240a781a1ada72274a7433d7a90235f066725fb7d2e7eca684",
        "trace.csv": "ee9b1cb9cd633fd7e1dfa5031ee607b4379516a235129fc2f984b0c6d6a078ce",
    }


CHURN = ScenarioConfig(uav_count=40, wait_min=1, wait_max=4, duration=5, seed=100000)


def test_churn_fleet_scenario(tmp_path):
    # 40 UAVs turning every 1-4 s: most of the run is lifetime re-estimates.
    assert run_fleet(CHURN, tmp_path) == {
        "events.jsonl": "f9317ee53da0f0567345bc6204ffeddc904b05def2abddbbaebc9876419ffc3e",
        "snapshots.csv": "74ccd598eb7205ac12f1e0f0baabb48cbdab82d32bb34897aa87b61e029e34f2",
        "trace.csv": "f7e35c0d831cd8317e1efa9e9d600fbb0b9d275ac6b2bf3552d63c698c0e4a11",
    }


def test_sparse_hello_scenario(tmp_path):
    # Hellos 20 s apart leave long gaps between queued events, so check
    # blocks reach their 256-tick cap while links come up and go down.
    config = ScenarioConfig(uav_count=4, hello_interval=20.0, duration=300, seed=3)
    assert run_fleet(config, tmp_path) == {
        "events.jsonl": "cd44f8554fe7605a5e4ff56a2dfa9e0d10894d07fa2f8f505b08b6e1d02f3ed9",
        "snapshots.csv": "eba286077981d22c87582abe35a44617284136c5ebbda68bc143df7ceb24c20e",
        "trace.csv": "a00047785460dc7d9aa51ead28678d1ea66dbc23fc8ef0576eff03ee7e2becca",
    }


SOLVER_DIGESTS = {
    ("A", SWEEP_HORIZON): "8df4c2b4a4779cf2c013aa011dd27b91df80fcce2b58cda9bb41ac22f3805245",
    ("A", DEFAULT_HORIZON): "0482114eb869d2d8ce40dfd6516c8e086ca9184b235c1076ea82ffd559a0c493",
    ("B", SWEEP_HORIZON): "12e421bd234421cb94ecf9eefba0bd2152ddbf4c5387668d7b4f14f6788f2fce",
    ("B", DEFAULT_HORIZON): "a7ba87dd4e85d62c34421b454d1b4f07dcaea959ca1a202b7661a2e227949ed9",
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
            == "5161158efb4ec544a1171f335b4f044976ca50784342300720cae8c53f5bcc3b")


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
