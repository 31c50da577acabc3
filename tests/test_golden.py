"""Pinned sha256 digests of the simulator's deterministic outputs.

A rerun comparison only shows that a run repeats itself; these digests
also catch a refactor that changes behaviour consistently. Re-record a
digest only for a deliberate, documented behaviour change.
"""

import hashlib
from pathlib import Path

from uavllt.cli import main
from uavllt.config import ScenarioConfig
from uavllt.mobility import SmoothTurnFleet, write_trace_csv
from uavllt.netsim import SmoothTurnChanges, Simulator, write_events_jsonl, write_snapshots_csv

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


def test_steady_fleet_scenario(tmp_path):
    # 20 UAVs with long waits: most simulated time is the ground-truth check.
    config = ScenarioConfig(uav_count=20, wait_min=30, wait_max=90, duration=40, seed=100000)
    fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(), config.seed)
    sim = Simulator(fleet.states, SmoothTurnChanges(fleet),
                    tx_range=config.transmission_range, duration=config.duration,
                    hello_interval=config.hello_interval, horizon=config.horizon)
    result = sim.run()
    write_events_jsonl(tmp_path / "events.jsonl", result.events)
    write_snapshots_csv(tmp_path / "snapshots.csv", result.snapshots)
    write_trace_csv(tmp_path / "trace.csv", result.trace_rows)
    assert digests(tmp_path) == {
        "events.jsonl": "41d6833df397ef6e8d18e9a7a2bfd358526c1f80b24ad11dcee7fd9775e02a63",
        "snapshots.csv": "a46f2aa4d147a5240a781a1ada72274a7433d7a90235f066725fb7d2e7eca684",
        "trace.csv": "ee9b1cb9cd633fd7e1dfa5031ee607b4379516a235129fc2f984b0c6d6a078ce",
    }
