"""Pinned sha256 digests of the simulator's and the solver's deterministic outputs.

A rerun comparison only shows that a run repeats itself; these digests
also catch a refactor that changes behaviour consistently. Re-record a
digest only for a deliberate, documented behaviour change.
"""

import hashlib
from dataclasses import replace
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
        "events.jsonl": "45f60c206b63f1796acb7a15299264b3406cabc778c647e32eb49c9f1f37f5e1",
        "snapshots.csv": "a6bd1cbb6624d62c64016aef491977bb902f9295464b11401e405caf98a87c72",
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


STEADY = ScenarioConfig(uav_count=20, wait_min=30, wait_max=90, duration=40, seed=100000)


def test_steady_fleet_scenario(tmp_path):
    # 20 UAVs with long waits: most simulated time is the ground-truth check.
    assert run_fleet(STEADY, tmp_path) == {
        "events.jsonl": "bc009db7173a504fbd959333d1b323ac0476682912b5df97d7d77f1276d150ad",
        "snapshots.csv": "f5aa72a7f77c88232ce805bc546dbeceeaa91b35227396fb2ccb70483eeba059",
        "trace.csv": "ee9b1cb9cd633fd7e1dfa5031ee607b4379516a235129fc2f984b0c6d6a078ce",
    }


# The bench's net_* scenarios 1-3 of seed 1 (scenario 0 is pinned above).
BENCH_STEADY_DIGESTS = {
    100001: {
        "events.jsonl": "cb332c8e2e58b9fbcc22bb4067cc008782591afad22028de659f6d7d1d7da669",
        "snapshots.csv": "97ec5dd58a88f1fa664a86f80733563608774736bdd6d6ef8be2c6c2d820b70e",
        "trace.csv": "b0f7723f36e1053cbe433b82ba498cac689ef73e6618ca4179e231bc38cca256",
    },
    100002: {
        "events.jsonl": "a15f5d4a93f285757754ea289b0b25c076e655846246ebb9da089047237e6a6d",
        "snapshots.csv": "155c8a713cad5f632512f7fb45562e5dd4754122672034456106981b877bac93",
        "trace.csv": "e86e175d21e4085b65302f767c5a7ad34d5de87ac58f0e759220bf977de4029e",
    },
    100003: {
        "events.jsonl": "27e1b1c1b70cbad2c23b35207e5ba35e698401ab40df9200352bc6b9e1cb4f95",
        "snapshots.csv": "9d4cfae639fa2dbf419e31b9aaee19278e38a2980bce6abfca6122ac054d26b1",
        "trace.csv": "14e870450529cb5796d98fbc68833e8343a0d6378bccb5a3a44c2075102fdabe",
    },
}
BENCH_CHURN_DIGESTS = {
    100001: {
        "events.jsonl": "bf33de2395bbb3d2680c5b785cc5cf8671e57e9068a4ef8dcb52a7e4c3236189",
        "snapshots.csv": "dd8cdb6463be0dd3745459b230e7b6a928d5d2611577565cff17a5a960d7f781",
        "trace.csv": "77254e6ecd8f2ffb2337228aad315bf90559d11331b749e6983fb4b0479a7376",
    },
    100002: {
        "events.jsonl": "e6bfd3b120fb0c88e3cd3aa9591e814f05e744055bf4a19fd1660cf62767152d",
        "snapshots.csv": "3b81236274773d6e28630cffe483d0c173005fcbe285f4fe773fc3c4fa690557",
        "trace.csv": "6afe25d3844ead317609b9dde57d7c53457328dcfa2fa76740c370ed14247df5",
    },
    100003: {
        "events.jsonl": "0d506abe364775d01e7a3e8d74ff0e0dd640fc6e7f3ab0415ae5c7f15723bef9",
        "snapshots.csv": "5c440b48d3838a734df8a15210b29f52172a71a77758c4d29b8f642df4109344",
        "trace.csv": "fbd0ce0920c81da2df10957531bdd8685eb1834c0f25ec1ec03c2c298340e554",
    },
}


@pytest.mark.parametrize("seed", BENCH_STEADY_DIGESTS)
def test_steady_fleet_bench_scenarios(tmp_path, seed):
    assert run_fleet(replace(STEADY, seed=seed), tmp_path) == BENCH_STEADY_DIGESTS[seed]


CHURN = ScenarioConfig(uav_count=40, wait_min=1, wait_max=4, duration=5, seed=100000)


def test_churn_fleet_scenario(tmp_path):
    # 40 UAVs turning every 1-4 s: most of the run is lifetime re-estimates.
    assert run_fleet(CHURN, tmp_path) == {
        "events.jsonl": "5a8247bd344c53e2f87a7b7d105b2de4512fbb7709f503a094493f479bff9b46",
        "snapshots.csv": "c502a6f87dd14bb23c18e0063dac3549423a82205a2045dc4282b0de9bbfc398",
        "trace.csv": "f7e35c0d831cd8317e1efa9e9d600fbb0b9d275ac6b2bf3552d63c698c0e4a11",
    }


@pytest.mark.parametrize("seed", BENCH_CHURN_DIGESTS)
def test_churn_fleet_bench_scenarios(tmp_path, seed):
    assert run_fleet(replace(CHURN, seed=seed), tmp_path) == BENCH_CHURN_DIGESTS[seed]


def test_sparse_hello_scenario(tmp_path):
    # Hellos 20 s apart leave long gaps between queued events, so the
    # check wakes on its own between them while links come up and go down.
    config = ScenarioConfig(uav_count=4, hello_interval=20.0, duration=300, seed=3)
    assert run_fleet(config, tmp_path) == {
        "events.jsonl": "762818c009476cdab12bba5b21bba2f55f38a77dbd02481a0ce3e3c5cf90a0b8",
        "snapshots.csv": "a72db018976ed76e82b6d335f34f35197edb9899290a8ca27c202097da909ba8",
        "trace.csv": "a00047785460dc7d9aa51ead28678d1ea66dbc23fc8ef0576eff03ee7e2becca",
    }


SOLVER_DIGESTS = {
    ("A", SWEEP_HORIZON): "9ba6efc454fa571fe9db9feb434ccbfa5376ab7d572ffec1aebf639c79c3a8f7",
    ("A", DEFAULT_HORIZON): "fff26aef2dd6e540008dde75ad9763db6687fec404d01b880231268e2229344c",
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


BENCH_PAIRS_DIGESTS = {
    "A": "b5fab49611c64feef1660f819bfc25d6b187a7e69c75d09feeec08f5922288e0",
    "B": "2d725dd73f50ff020e0230655d2ff040a172eac4955f159c5475557693ed7d20",
    "C": "ef602426087e4f8fde0e0a2a1781f3684bef3dcc15d776a44552548a654d8493",
}


@pytest.mark.parametrize("case", BENCH_PAIRS_DIGESTS)
def test_bench_llt_pairs_results(case):
    # The bench's llt_pairs workload draws its pairs this way (seed 1, as in
    # CI's bench self-check) and records no output digest of its own.
    rng = np.random.default_rng([1, ord(case)])
    results = []
    for _ in range(1000):
        a, b, tx_range = sample_instance(case, rng)
        r = compute_llt(a, b, tx_range, SWEEP_HORIZON)
        results.append((r.llt, r.case_used, r.root, r.residual, r.horizon_capped))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == BENCH_PAIRS_DIGESTS[case]


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
            == "cc85bb82fec574f0d4c8a6b514977af35e43ecf8d1c9cba2545c6f46ffd18a01")


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
