"""The demos run to completion and print what they claim.

Demos that write files next to themselves run from a copy in a temporary
directory.
"""

import re
import runpy
import shutil
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str, capsys, directory: Path = DEMOS) -> str:
    runpy.run_path(str(directory / name), run_name="__main__")
    return capsys.readouterr().out


def run_demo_copy(name: str, capsys, tmp_path: Path, *extra: str) -> str:
    for file in (name, *extra):
        shutil.copy(DEMOS / file, tmp_path / file)
    return run_demo(name, capsys, tmp_path)


def test_pair_lifetime(capsys):
    out = run_demo("01_pair_lifetime.py", capsys)
    for case in ("C", "A", "B"):
        assert f"(case {case}" in out
    diffs = [float(d) for d in re.findall(r"\|diff\| (\S+) s", out)]
    assert len(diffs) == 2 and max(diffs) <= 2e-3
    assert "horizon-capped at 600 s" in out


def test_taylor_accuracy(capsys):
    out = run_demo("02_taylor_accuracy.py", capsys)
    assert "certified trust window" in out
    worst = float(re.search(r"max relative error over the window: (\S+)", out).group(1))
    assert worst <= 1e-6
    bound = float(re.search(r"certified lower bound on D\^2 over the window: (\S+)", out).group(1))
    sampled = float(re.search(r"smallest sampled D\^2 over the window *: (\S+)", out).group(1))
    assert 0.0 < bound <= sampled


def test_smooth_turn_traces(capsys, tmp_path):
    out = run_demo_copy("03_smooth_turn_traces.py", capsys, tmp_path)
    assert "wrote 2408 trace rows" in out
    assert "189 trajectory changes across 8 UAVs" in out
    assert "no clockwise <-> counter-clockwise reversal" in out
    lines = (tmp_path / "smooth_turn_trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 2408
    for label in ("position", "heading"):
        jump = float(re.search(rf"largest {label} jump at a change: +(\S+)", out).group(1))
        assert jump <= 1e-6


def test_network_run(capsys, tmp_path):
    out = run_demo_copy("04_network_run.py", capsys, tmp_path, "scenario_small.cfg")
    for name in ("events.jsonl", "trace.csv", "snapshots.csv"):
        assert (tmp_path / "demo_run" / name).stat().st_size > 0
    assert "links established : 33" in out
    assert "links terminated  : 27" in out
    errors = [float(e) for e in re.findall(r"\|err\| (\S+) s", out)]
    assert errors and max(errors) <= 2e-2


def test_route_selection(capsys):
    out = run_demo("05_route_selection.py", capsys)
    assert "selected route : s -> a -> t" in out
    assert "exhaustive enumeration agrees" in out
