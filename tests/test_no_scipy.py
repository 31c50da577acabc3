"""The runtime path imports no scipy: tests use it only as a reference.

A fresh interpreter blocks ``scipy`` before importing the package, then
solves one pair of each case, runs a short network simulation and the
``pair`` and ``validate`` commands. Any scipy import on that path raises
ImportError there.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import uavllt

SRC = Path(uavllt.__file__).resolve().parents[1]
DEMOS = Path(__file__).resolve().parents[1] / "demos"

SCRIPT = textwrap.dedent("""
    import sys
    from dataclasses import replace

    sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError
    sys.path.insert(0, sys.argv[1])

    import numpy as np

    from uavllt.cli import main
    from uavllt.config import load_config
    from uavllt.llt import compute_llt
    from uavllt.mobility import SmoothTurnFleet
    from uavllt.netsim import SmoothTurnChanges, Simulator
    from uavllt.validate import sample_instance

    rng = np.random.default_rng(5)
    for case in "ABC":
        assert compute_llt(*sample_instance(case, rng)).case_used == case

    config = replace(load_config(sys.argv[2]), duration=20.0)
    fleet = SmoothTurnFleet(config.uav_count, config.arena(), config.smooth_turn(), config.seed)
    result = Simulator(fleet.states, SmoothTurnChanges(fleet), tx_range=config.transmission_range,
                       duration=config.duration, hello_interval=config.hello_interval,
                       horizon=config.horizon).run()
    assert result.events

    assert main(["pair", "curve:0,0,300,40,ccw,0,100", "straight:400,0,0,50,110",
                 "--range", "500"]) == 0
    assert main(["validate", "--trials", "3", "--seed", "2"]) == 0

    loaded = sorted(name for name, module in sys.modules.items()
                    if name.partition(".")[0] == "scipy" and module is not None)
    assert not loaded, loaded
    print("ok")
""")


def test_runtime_path_runs_without_scipy():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(DEMOS / "scenario_small.cfg")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ok\n")
