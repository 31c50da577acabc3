"""The demos that write no files run to completion and print what they claim."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str, capsys) -> str:
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


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


def test_route_selection(capsys):
    out = run_demo("05_route_selection.py", capsys)
    assert "selected route : s -> a -> t" in out
    assert "exhaustive enumeration agrees" in out
