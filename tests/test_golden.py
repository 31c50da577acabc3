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
        "events.jsonl": "ad38ee74112a0342a9e02676e81cd3dfd43b008639aa9395cd07ba4b560067d3",
        "snapshots.csv": "9be630448acc514abb107f4258af0dbb261144c2bd453bd4b578f9fede84d96d",
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
        "events.jsonl": "7e4e35a550ef5a9b2f6dbff79dd50139f08041113233b030af7320edf30eba6d",
        "snapshots.csv": "00ac9e43016d5914d762c9d1bc55641f575e7b1453fa8b662f08d335e064a597",
        "trace.csv": "ee9b1cb9cd633fd7e1dfa5031ee607b4379516a235129fc2f984b0c6d6a078ce",
    }


# The bench's net_* scenarios 1-3 of seed 1 (scenario 0 is pinned above).
BENCH_STEADY_DIGESTS = {
    100001: {
        "events.jsonl": "c2bdaed87a407870ac4f86745db11e4ac7a49d2f93477dfaa5b9e758fc2b96ae",
        "snapshots.csv": "24c046ee75ffff20999ae75086e97e811733b1fd6b5d649da775f91dedc9550f",
        "trace.csv": "b0f7723f36e1053cbe433b82ba498cac689ef73e6618ca4179e231bc38cca256",
    },
    100002: {
        "events.jsonl": "7ebc46cfbc4fdb8c55d7ceeaa3379f293b59adfe1dc122205a6c71bef75c7297",
        "snapshots.csv": "bdd0e4f7c742dfa17ae1b47e329cd35774efbe895fece4db36ae9997e5a20bbb",
        "trace.csv": "e86e175d21e4085b65302f767c5a7ad34d5de87ac58f0e759220bf977de4029e",
    },
    100003: {
        "events.jsonl": "d2f7f2014deb03e156ce4028c0062cce1115aa6c84bbcf3766e216bfa1e150d0",
        "snapshots.csv": "f9b22e43c6183f7cf29eaaba8f7c09165e1828435aed9b40a5769345190923f7",
        "trace.csv": "14e870450529cb5796d98fbc68833e8343a0d6378bccb5a3a44c2075102fdabe",
    },
}
BENCH_CHURN_DIGESTS = {
    100001: {
        "events.jsonl": "2813d4399980d8ca6d5abfaf75c64f436baa4336409ca9cdbf70e58b563bdc40",
        "snapshots.csv": "0caee90c2bd008de147aafa2a33fd241c6bd7a40a6584a734a4bf70a95a201a7",
        "trace.csv": "77254e6ecd8f2ffb2337228aad315bf90559d11331b749e6983fb4b0479a7376",
    },
    100002: {
        "events.jsonl": "70629ef6942de47de0d430e894d0b10d97dddd77b5d5ebf83021d26d1ac6fedb",
        "snapshots.csv": "45825f0d4536c8b6a6d45f90689e29f499d7806e5ada4ea6e8e31d6454b09d4b",
        "trace.csv": "6afe25d3844ead317609b9dde57d7c53457328dcfa2fa76740c370ed14247df5",
    },
    100003: {
        "events.jsonl": "dbf2d558ef5103e3ec5731f4cf0e017c6f206bfa87f33821a5bc15bb16f29ede",
        "snapshots.csv": "87bf7b61a4f734c08c2073e3a6629167b0467d0a2350c9a88499f4244899d437",
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
        "events.jsonl": "c1c8b91b5922963a33375a4e62964b86549a626e9bf3a72449a65007c2bf6f7c",
        "snapshots.csv": "edc3073257907cb94fb0901b9bb37aefa19bcd3697acc39ced294ac88b3dfaf0",
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
        "events.jsonl": "71301f07a68f877d0fd450fca82ff3280eeca8ea8eb964e81378fe4b61a69f72",
        "snapshots.csv": "08648b31487a6203516e77c79aa18dd92049153f1c1a2286e6efd6b7dabfb318",
        "trace.csv": "a00047785460dc7d9aa51ead28678d1ea66dbc23fc8ef0576eff03ee7e2becca",
    }


def result_row(r) -> tuple:
    """The fields of an ``LltResult`` as the digests below recorded them. The
    third slot held ``root``, a copy of ``llt`` or None when capped; it is
    rebuilt so that every recorded literal stays."""
    return (r.llt, r.case_used, None if r.horizon_capped else r.llt, r.residual,
            r.horizon_capped)


SOLVER_DIGESTS = {
    ("A", SWEEP_HORIZON): "608ea1307a66422b74865e4527a675cda3fdf8517e4c133fb9f9abf95b8b23c1",
    ("A", DEFAULT_HORIZON): "bfb05054706305dda08fadff7761202379e9e68a033eb29cc38ed659e9963bd4",
    ("B", SWEEP_HORIZON): "43eedc9557f396d36577acbd82f74926b8f0276ce70c854964ebabe232b50b13",
    ("B", DEFAULT_HORIZON): "7717bcfcb0a56129c46a47069315d506f871138fbeb518c75208d563f93b29a2",
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
        results.append(result_row(r))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == SOLVER_DIGESTS[case, horizon]


BENCH_PAIRS_DIGESTS = {
    "A": "789483dd5d269784bff41260bf6c45768f4c08dfbc533ae7f1bc36e86dfda563",
    "B": "c4236051a8a4e79ee05c4d22d175da3961ac6fcf389cf0ffd6e947ac5f2c03e8",
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
        results.append(result_row(r))
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
            results.append(result_row(r))
    assert (hashlib.sha256(repr(results).encode()).hexdigest()
            == "f09b42516eaa20960324fd812dda1691c66ca34e4adb08ddb7a3b467cb4df59b")


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
    # Samples 0.1 s apart: both take sample k at k * 0.1 s, up to 30 s.
    ScenarioConfig(uav_count=3, duration=30, seed=5, hello_interval=0.1),
], ids=["small", "churn", "changes_on_samples", "hello_0.1"])
def test_generate_trace_matches_simulator(config):
    # Standalone mobility and the network run fly the same fleet: same
    # trace rows at the Hello interval, same per-UAV segment history.
    result = fleet_simulator(config).run()
    rows, segments = generate_trace(config.uav_count, config.arena(), config.smooth_turn(),
                                    config.duration, config.seed,
                                    sample_dt=config.hello_interval)
    assert rows == result.trace_rows
    assert segments == list(result.segments.values())
