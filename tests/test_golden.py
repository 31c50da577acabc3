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
from uavllt.config import ScenarioConfig
from uavllt.llt import DEFAULT_HORIZON, compute_llt
from uavllt.mobility import SmoothTurnFleet, write_trace_csv
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


def run_fleet(config: ScenarioConfig, directory: Path) -> dict:
    fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(), config.seed)
    sim = Simulator(fleet.states, SmoothTurnChanges(fleet),
                    tx_range=config.transmission_range, duration=config.duration,
                    hello_interval=config.hello_interval, horizon=config.horizon)
    result = sim.run()
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


def test_churn_fleet_scenario(tmp_path):
    # 40 UAVs turning every 1-4 s: most of the run is lifetime re-estimates.
    config = ScenarioConfig(uav_count=40, wait_min=1, wait_max=4, duration=5, seed=100000)
    assert run_fleet(config, tmp_path) == {
        "events.jsonl": "f9317ee53da0f0567345bc6204ffeddc904b05def2abddbbaebc9876419ffc3e",
        "snapshots.csv": "74ccd598eb7205ac12f1e0f0baabb48cbdab82d32bb34897aa87b61e029e34f2",
        "trace.csv": "f7e35c0d831cd8317e1efa9e9d600fbb0b9d275ac6b2bf3552d63c698c0e4a11",
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
