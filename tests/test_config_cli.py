import json
import math
import os
from dataclasses import replace

import pytest

from uavllt import netsim
from uavllt.cli import main
from uavllt.config import ConfigError, ScenarioConfig, load_config
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

    def test_oracle_dt_is_not_a_scenario_key(self, tmp_path):
        # The simulator runs no oracle; files from before its removal fail loudly.
        path = tmp_path / "old.cfg"
        path.write_text("uav_count = 3\noracle_dt = 0.001\n")
        with pytest.raises(ConfigError, match="unknown key 'oracle_dt'"):
            load_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("uav_count = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_inverted_wait_range(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(wait_min=30.0, wait_max=5.0)

    @pytest.mark.parametrize("duration", [5.0, 4.0, 600.0, 1e6])
    def test_wait_must_advance_the_clock_up_to_the_duration(self, duration):
        # Below the spacing of floats at the duration, t + wait can round
        # back to t: the run would queue the same change again.
        spacing = math.ulp(duration)
        ScenarioConfig(wait_min=spacing, duration=duration)
        with pytest.raises(ConfigError, match="wait_min .* does not advance the clock"):
            ScenarioConfig(wait_min=spacing / 2.0, duration=duration)

    def test_too_few_uavs(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(uav_count=1)

    @pytest.mark.parametrize("field, value", [
        ("duration", math.inf), ("duration", math.nan), ("hello_interval", math.nan),
        ("hello_interval", math.inf), ("transmission_range", math.nan),
        ("transmission_range", math.inf), ("horizon", math.inf), ("horizon", math.nan),
        ("x_max", math.nan), ("buffer_width", math.inf),
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

    def test_pair_a_few_ulps_beyond_range_breaks_now(self, capsys):
        # The pair starts a few ulps beyond the range, which the link-up
        # tolerance admits, and is flying apart: the link is breaking now.
        code = main(["pair", "curve:0,0,300,40,ccw,0,100", "straight:400,0,0,50,110",
                     "--range", "99.99999999999999", "--horizon", "600"])
        out = capsys.readouterr().out
        assert code == 0
        assert "llt: 0.000000 s" in out

    def test_concentric_example(self, capsys):
        code = main(["pair", "curve:0,0,100,10,ccw,0,100", "curve:0,0,150,15,cw,0,110",
                     "--range", "120"])
        out = capsys.readouterr().out
        assert code == 0
        llt = float(out.split("llt:")[1].split()[0])
        expected = math.acos((100**2 + 150**2 - 120**2) / (2 * 100 * 150)) / 0.2
        assert llt == pytest.approx(expected, abs=1e-4)

    def test_range_lost_in_rounding_exit_2(self, capsys):
        # A 1e12 m orbit puts the squared separation near 1e24 m^2, so its
        # model minus the range squared is rounding noise; a sign change of
        # that noise once came out as a break at 2.568 s with a residual of
        # 1.1e4 m, where the pair actually leaves range at 5.068 s.
        code = main(["pair", "curve:0,-1e12,1e12,40,ccw,1.5707963267948966,100",
                     "straight:100,0,0.3,40,110", "--range", "500", "--oracle"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "no crossing sits on the range circle" in captured.err

    def test_link_up_model_rounding_below_zero_exit_2(self, capsys):
        # The pair of TestComputeLlt's negative link-up model, which once
        # printed "error: math domain error".
        code = main(["pair",
                     "curve:-35640805.53356059,-30774640.112611193,47614675.05923803,"
                     "39.70393010931833,cw,0.7226185879294431,100",
                     "curve:72461.37606960257,715548.4997375101,1392.0125996610536,"
                     "36.300578890811316,ccw,-0.12424913236926072,110",
                     "--range", "1.2051079431751688", "--horizon", "300"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "the range is lost in the rounding of its terms" in captured.err

    def test_out_of_range_exit_3(self, capsys):
        code = main(["pair", "straight:0,0,0,10,100", "straight:900,0,0,10,110",
                     "--range", "100"])
        assert code == 3

    def test_malformed_trajectory_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "corkscrew:1,2,3", "straight:0,0,0,10,0", "--range", "100"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec", ["straight:nan,0,0,10,100", "straight:0,0,inf,10,100",
                                      "curve:0,0,100,20,ccw,nan,100", "curve:0,-inf,100,20,cw,0,1"])
    def test_non_finite_trajectory_field_exit_2(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", spec, "straight:0,0,0,10,110", "--range", "100"])
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_oracle_grid_too_fine_exit_2(self, capsys):
        # 3.6e15 steps of 1e-12 s once kept the command busy for hours.
        code = main(["pair", "straight:0,0,0,10,100", "straight:50,0,0,20,110",
                     "--range", "100", "--oracle", "--oracle-dt=1e-12"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: refusing 3.6e+15 minimum steps")
        assert captured.out == ""

    @pytest.mark.parametrize("oracle_dt", ["inf", "nan", "0", "-1"])
    def test_bad_oracle_dt_exit_2(self, oracle_dt, capsys):
        # This pair breaks at 5 s; an infinite step once reported it unbounded.
        code = main(["pair", "straight:0,0,0,10,100", "straight:50,0,0,20,110",
                     "--range", "100", "--oracle", f"--oracle-dt={oracle_dt}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: dt must be positive and finite")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--range", "nan"], ["--range", "inf"],
                                       ["--range", "100", "--horizon", "inf"],
                                       ["--range", "100", "--horizon", "nan"]])
    def test_non_finite_range_or_horizon_exit_2(self, flags, capsys):
        # The straight flyer starts on the turn center; an infinite horizon
        # there once died in a math domain error.
        code = main(["pair", "curve:0,0,50,20,ccw,0,100", "straight:0,0,0,10,110", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""


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

    def test_wait_that_does_not_advance_the_clock_exit_2(self, tmp_path, capsys, monkeypatch):
        # Waits of 1e-20 s used to run without end: 5 s of them is more
        # changes than a run can make. The driver gives up after a few, so
        # a run that starts fails here instead of hanging.
        calls = []
        drive = netsim.SmoothTurnChanges.__call__

        def bounded(self, state, now):
            calls.append(now)
            if len(calls) > 1000:
                raise RuntimeError(f"still changing trajectories at t={now!r}")
            return drive(self, state, now)

        monkeypatch.setattr(netsim.SmoothTurnChanges, "__call__", bounded)
        path = tmp_path / "tiny_wait.cfg"
        path.write_text("uav_count = 3\nwait_min = 1e-20\nwait_max = 1e-20\nduration = 5\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "wait_min 1e-20 s does not advance the clock" in err
        assert not calls and not (tmp_path / "o").exists()

    def test_more_changes_than_a_run_makes_exit_2(self, tmp_path, capsys, monkeypatch):
        # Waits of 1e-12 s advance the clock, but 5 s of them for 3 UAVs is
        # 1.5e13 changes, days of work. The driver gives up after a few, as
        # above.
        calls = []
        drive = netsim.SmoothTurnChanges.__call__

        def bounded(self, state, now):
            calls.append(now)
            if len(calls) > 1000:
                raise RuntimeError(f"still changing trajectories at t={now!r}")
            return drive(self, state, now)

        monkeypatch.setattr(netsim.SmoothTurnChanges, "__call__", bounded)
        path = tmp_path / "short_wait.cfg"
        path.write_text("uav_count = 3\nwait_min = 1e-12\nwait_max = 1e-12\nduration = 5\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "refusing up to 1.5e+13 trajectory changes" in err
        assert not calls and not (tmp_path / "o").exists()

    def test_driver_error_exit_2(self, scenario_file, tmp_path, capsys, monkeypatch):
        # A change instant the simulator refuses mid-run is reported, not a
        # traceback. The driver gives up after a few calls, as above.
        calls = []
        drive = netsim.SmoothTurnChanges.__call__

        def stuck(self, state, now):
            calls.append(now)
            if len(calls) > 5:
                raise RuntimeError(f"UAV {state.id!r} keeps changing at t={now!r}")
            return replace(drive(self, state, now), next_change_at=now)

        monkeypatch.setattr(netsim.SmoothTurnChanges, "__call__", stuck)
        assert main(["simulate", scenario_file, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: UAV ") and "it must be later" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        # A repeated key used to let the last line win silently.
        ("seed = 1\nuav_count = 3\nseed = 7\n",
         "bad.cfg:3: key 'seed' repeated, first set on line 1"),
        # A negative seed used to reach numpy and die with a traceback, exit 1.
        ("seed = -3\n", "seed must be >= 0, got -3"),
        # An arena too small for the spawn margin used to pass the config and
        # then die with a traceback, exit 1, when the first UAV spawned.
        ("x_max = 1000\ny_max = 1000\nbuffer_width = 100\nradius_min = 400\nradius_max = 450\n",
         "arena too small to spawn UAVs 800 m clear of its walls"),
    ], ids=["repeated_key", "negative_seed", "spawn_margin"])
    def test_config_file_error_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("rows, bad_row", [
        ("not,enough\n", "not"),
        # A nan lifetime used to leave 0-3-2 (bottleneck 2.0) unreachable.
        ("5.0,0,1,nan\n5.0,1,2,3.0\n5.0,0,3,4.0\n5.0,3,2,2.0\n", "nan"),
        # Negative lifetimes used to route, bottleneck included.
        ("5.0,0,1,-7.5\n5.0,1,2,3.0\n", "-7.5"),
        ("5.0,0,1,-inf\n5.0,1,2,3.0\n", "-inf"),
        ("nan,0,1,3.0\n5.0,1,2,3.0\n", "nan"),
        ("inf,0,1,3.0\n5.0,1,2,3.0\n", "inf"),
    ], ids=["short_row", "nan_llt", "negative_llt", "minus_inf_llt", "nan_t", "inf_t"])
    def test_malformed_csv_exit_2(self, tmp_path, capsys, rows, bad_row):
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\n" + rows)
        assert main(["route", str(path), "0", "2"]) == 2
        assert f"'{bad_row}'" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        # The second row used to replace link 0-1, which hid the route 0 1 2
        # (bottleneck 40): route printed "0 2" at bottleneck 3 and exit 0.
        ("0,0,1,50\n0,1,0,2\n0,1,2,40\n0,0,2,3\n0,3,3,9\n",
         "edge ('1', '0') repeats the pair ('0', '1')"),
        ("0,0,1,50\n0,1,2,40\n0,3,3,9\n", "edge ('3', '3') is a self-loop"),
    ], ids=["repeated_pair", "self_loop"])
    def test_repeated_pair_or_self_loop_exit_2(self, tmp_path, capsys, rows, message):
        path = tmp_path / "snap.csv"
        path.write_text("t_s,node_a,node_b,llt_s\n" + rows)
        assert main(["route", str(path), "0", "2"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "route:" not in captured.out

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

    def test_all_cases_sweep_passes(self, capsys):
        code = main(["validate", "--case", "all", "--trials", "200", "--seed", "3"])
        rows = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(rows) == 4 and rows[3] == "RESULT: PASS"
        for row, case in zip(rows, "ABC"):
            assert row.startswith(f"case {case}: trials=200 ") and row.endswith("-> PASS")

    @pytest.mark.parametrize("flags, message", [
        (["--dt", "inf"], "dt must be positive and finite"),
        (["--dt", "nan"], "dt must be positive and finite"),
        (["--dt", "0"], "dt must be positive and finite"),
        (["--horizon", "nan"], "horizon must be positive and finite"),
        (["--horizon", "inf"], "horizon must be positive and finite"),
        (["--trials", "0"], "trials must be >= 1"),
        # 3e14 steps: the sweep once printed nothing for as long as it ran.
        (["--trials", "2", "--dt", "1e-12"], "refusing 3e+14 minimum steps"),
    ])
    def test_bad_sweep_settings_exit_2(self, flags, message, capsys):
        # An infinite step once checked t = 0 alone and printed RESULT: PASS.
        code = main(["validate", "--case", "C", "--trials", "1", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_fixed_seed_reruns_identical(self, capsys):
        main(["validate", "--case", "C", "--trials", "40", "--seed", "11"])
        first = capsys.readouterr().out
        main(["validate", "--case", "C", "--trials", "40", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second
