"""The benchmark's traced pass replaces solver and simulator names with
timing wrappers by ``(module, attribute)``; every name must still exist,
and the solver must reach its stages through them."""

from collections import Counter
from pathlib import Path

import pytest

from uavllt import llt
from uavllt.kinematics import CurveTrajectory, Direction, StraightTrajectory

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads
    return workloads, spans


def test_internal_targets_resolve(bench):
    workloads, spans = bench
    for module, attr, span_name, _ in workloads.INTERNAL:
        assert callable(getattr(module, attr, None)), span_name
    assert set(spans.STAGES.values()) <= {span for _, _, span, _ in workloads.INTERNAL}


CCW = Direction.COUNTER_CLOCKWISE
PAIRS = {
    "A": (CurveTrajectory(0, 0, 100, 10, CCW, 0.0, 100),
          CurveTrajectory(0, 0, 150, 15, Direction.CLOCKWISE, 0.0, 110), 120.0),
    "B": (CurveTrajectory(0, 0, 300, 40, CCW, 0.0, 100),
          StraightTrajectory(350, 0, 1.0, 50, 110), 500.0),
    # One flyer starts on its no-break arc: the walk skips at 0 and builds
    # no model there.
    "A_skip": (CurveTrajectory(0, 0, 200, 40, CCW, 2.0, 100),
               CurveTrajectory(500, 0, 150, 30, Direction.CLOCKWISE, 1.0, 110), 800.0),
    # The straight flyer starts well inside r - R of the turn centre: the
    # walk skips to t1 and builds no model at 0. It breaks at 12.284 s.
    "B_skip": (CurveTrajectory(0, 0, 100, 20, CCW, 0.0, 100),
               StraightTrajectory(50, 0, 0.0, 30, 110), 500.0),
}


@pytest.mark.parametrize("case", PAIRS)
def test_searched_window_calls_the_wrapped_stages(bench, monkeypatch, case):
    workloads, _ = bench
    calls = Counter()
    for module, attr, span_name, _ in workloads.INTERNAL:
        def counted(*args, _fn=getattr(module, attr), _name=span_name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    traj_a, traj_b, tx = PAIRS[case]
    result = llt.compute_llt(traj_a, traj_b, tx, 600.0)
    assert result.case_used == case[0] and not result.horizon_capped
    assert calls["llt.trust_window"] >= 1
    # One model per trust window: a first window from 0 reuses compute_llt's own.
    assert calls["llt.squared_link_distance"] == calls["llt.trust_window"]
    assert calls["llt.find_real_roots"] >= 1
    assert calls["llt.select_root"] >= 1
