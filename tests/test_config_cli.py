import json
import math
import os

import pytest

from uavllt.cli import main
from uavllt.config import ConfigError, ScenarioConfig, load_config, write_config
from uavllt.mobility import TRACE_HEADER

SMALL_SCENARIO = """
# two UAVs in a small arena
x_min = 0
x_max = 3000
y_min = 0
y_max = 3000
buffer_width = 400
uav_count = 3
speed_min = 20
speed_max = 40
radius_min = 100
radius_max = 500
wait_min = 5
wait_max = 15
transmission_range = 1500
hello_interval = 1.0
duration = 30
seed = 7
horizon = 600
oracle_dt = 0.001
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SMALL_SCENARIO)
    return str(path)


class TestConfig:
    def test_load(self, scenario_file):
        cfg = load_config(scenario_file)
        assert cfg.uav_count == 3
        assert cfg.transmission_range == 1500.0
        assert cfg.seed == 7

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("uav_count = 3\nwarp_speed = 9\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("uav_count = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_inverted_wait_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(wait_min=30.0, wait_max=5.0)

    def test_too_few_uavs(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(uav_count=1)

    @pytest.mark.parametrize("field, value", [
        ("duration", math.inf), ("duration", math.nan), ("hello_interval", math.nan),
        ("hello_interval", math.inf), ("transmission_range", math.nan),
        ("transmission_range", math.inf), ("horizon", math.inf), ("horizon", math.nan),
        ("oracle_dt", math.nan), ("x_max", math.nan), ("buffer_width", math.inf),
        ("wait_max", math.inf), ("speed_min", math.nan), ("duration", 0.0),
        ("hello_interval", -1.0),
    ])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})

    def test_infinite_duration_file_rejected_before_any_run(self, tmp_path):
        # An infinite duration would never end a run: it must not get that far.
        path = tmp_path / "inf.cfg"
        path.write_text("duration = inf\n")
        with pytest.raises(ConfigError, match="duration"):
            load_config(str(path))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_write_round_trip(self, tmp_path):
        cfg = ScenarioConfig(uav_count=4, seed=99)
        path = tmp_path / "rt.cfg"
        write_config(str(path), cfg)
        assert load_config(str(path)) == cfg


class TestPairCommand:
    def test_case_c_with_oracle(self, capsys):
        code = main(["pair", "straight:0,0,0,10,100", "straight:50,0,0,20,110",
                     "--range", "100", "--oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case: C" in out
        assert "llt: 5.000000 s" in out
        assert "oracle: 5.000000 s" in out
        diff = float(out.split("abs_diff:")[1].split()[0])
        assert diff < 1e-3

    def test_rigid_rotation_unbounded(self, capsys):
        code = main(["pair", "curve:0,0,100,20,ccw,0,100", "curve:0,0,100,20,ccw,1,110",
                     "--range", "150", "--horizon", "600"])
        out = capsys.readouterr().out
        assert code == 0
        assert "unbounded (horizon-capped" in out

    def test_concentric_example(self, capsys):
        code = main(["pair", "curve:0,0,100,10,ccw,0,100", "curve:0,0,150,15,cw,0,110",
                     "--range", "120"])
        out = capsys.readouterr().out
        assert code == 0
        llt = float(out.split("llt:")[1].split()[0])
        expected = math.acos((100**2 + 150**2 - 120**2) / (2 * 100 * 150)) / 0.2
        assert llt == pytest.approx(expected, abs=1e-4)

    def test_out_of_range_exit_3(self, capsys):
        code = main(["pair", "straight:0,0,0,10,100", "straight:900,0,0,10,110",
                     "--range", "100"])
        assert code == 3

    def test_malformed_trajectory_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "corkscrew:1,2,3", "straight:0,0,0,10,0", "--range", "100"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_outputs_and_summary(self, scenario_file, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code = main(["simulate", scenario_file, "--out", out_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "links=" in out and "breaks=" in out and "recomputes=" in out
        events_path = os.path.join(out_dir, "events.jsonl")
        with open(events_path) as fh:
            events = [json.loads(line) for line in fh]
        assert all("t" in e and "event" in e for e in events)
        with open(os.path.join(out_dir, "trace.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == TRACE_HEADER
        with open(os.path.join(out_dir, "snapshots.csv")) as fh:
            assert fh.readline().strip() == "t_s,node_a,node_b,llt_s"

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        dirs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for d in dirs:
            assert main(["simulate", scenario_file, "--out", d]) == 0
        for name in ("events.jsonl", "trace.csv", "snapshots.csv"):
            with open(os.path.join(dirs[0], name), "rb") as f1, \
                 open(os.path.join(dirs[1], name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("uav_count = 1\n")
        code = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert code == 2


class TestRouteCommand:
    TRIANGLE = "t_s,node_a,node_b,llt_s\n0.0,s,t,5.0\n0.0,s,a,10.0\n0.0,a,t,8.0\n"

    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "snap.csv"
        path.write_text(self.TRIANGLE)
        code = main(["route", str(path), "s", "t"])
        out = capsys.readouterr().out
        assert code == 0
        assert "route: s a t" in out
        assert "bottleneck_llt: 8" in out

    def test_unreachable_exit_4(self, tmp_path, capsys):
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\n0.0,a,b,3.0\n0.0,c,d,4.0\n")
        code = main(["route", str(path), "a", "d"])
        assert code == 4

    def test_inf_edges(self, tmp_path, capsys):
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\n1.0,a,b,inf\n1.0,b,c,inf\n")
        code = main(["route", str(path), "a", "c"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bottleneck_llt: inf" in out

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\nnot,enough\n")
        assert main(["route", str(path), "a", "b"]) == 2

    def test_picks_latest_snapshot_by_default(self, tmp_path, capsys):
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\n0.0,a,b,1.0\n5.0,a,b,42.0\n")
        code = main(["route", str(path), "a", "b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bottleneck_llt: 42" in out


class TestValidateCommand:
    def test_case_c_sweep_passes(self, capsys):
        code = main(["validate", "--case", "C", "--trials", "60", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case C" in out and "RESULT: PASS" in out

    def test_fixed_seed_reruns_identical(self, capsys):
        main(["validate", "--case", "C", "--trials", "40", "--seed", "11"])
        first = capsys.readouterr().out
        main(["validate", "--case", "C", "--trials", "40", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second
