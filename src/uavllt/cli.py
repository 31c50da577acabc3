"""Batch command-line interface.

Subcommands:

* ``pair``      analytic lifetime of one UAV pair, optionally oracle-checked
* ``simulate``  full smooth-turn network run, writing events/trace/snapshots
* ``route``     longest-lasting route over a topology snapshot CSV
* ``validate``  seeded analytic-vs-oracle sweep with a pass/fail verdict

Trajectories on the command line use compact specs::

    curve:cx,cy,r,v,dir,theta,z      dir is cw, ccw, -1 or +1
    straight:x,y,heading,v,z         heading in radians off the x-axis

Exit codes: 0 success, 2 argument/config errors (including a pair whose
separation model cannot resolve the range), 3 pair already out of range,
4 destination unreachable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import ConfigError, load_config
from .kinematics import CurveTrajectory, Direction, StraightTrajectory, Trajectory
from .llt import DEFAULT_HORIZON, LinkNotUp, compute_llt
from .mobility import write_trace_csv
from .netsim import read_snapshot_csv, run_simulation, write_events_jsonl, write_snapshots_csv
from .oracle import brute_force_llt
from .routing import NodeUnknown, max_min_route
from .validate import SWEEP_DT, SWEEP_HORIZON, run_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LINK_NOT_UP = 3
EXIT_UNREACHABLE = 4

_DIRECTIONS = {"cw": Direction.CLOCKWISE, "-1": Direction.CLOCKWISE,
               "ccw": Direction.COUNTER_CLOCKWISE, "+1": Direction.COUNTER_CLOCKWISE,
               "1": Direction.COUNTER_CLOCKWISE}


def _finite(fields) -> list[float]:
    values = [float(f) for f in fields]
    for text, value in zip(fields, values):
        if not math.isfinite(value):
            raise ValueError(f"{text!r} is not a finite number")
    return values


def parse_trajectory(text: str) -> Trajectory:
    kind, _, body = text.partition(":")
    fields = [f.strip() for f in body.split(",")] if body else []
    try:
        if kind == "curve":
            if len(fields) != 7:
                raise ValueError("curve needs cx,cy,r,v,dir,theta,z")
            cx, cy, r, v = _finite(fields[:4])
            direction = _DIRECTIONS.get(fields[4].lower())
            if direction is None:
                raise ValueError(f"bad direction {fields[4]!r} (use cw/ccw/-1/+1)")
            theta, z = _finite(fields[5:])
            return CurveTrajectory(cx, cy, r, v, direction, theta, z)
        if kind == "straight":
            if len(fields) != 5:
                raise ValueError("straight needs x,y,heading,v,z")
            x, y, heading, v, z = _finite(fields)
            return StraightTrajectory(x, y, heading, v, z)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad trajectory spec {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"bad trajectory spec {text!r}: expected curve:... or straight:...")


def _fmt_llt(llt: float, capped: bool, horizon: float) -> str:
    if capped:
        return f"unbounded (horizon-capped at {horizon:g} s)"
    return f"{llt:.6f} s"


def _cmd_pair(args) -> int:
    try:
        result = compute_llt(args.traj_a, args.traj_b, args.range, args.horizon)
        reference = (brute_force_llt(args.traj_a, args.traj_b, args.range,
                                     dt=args.oracle_dt, horizon=args.horizon)
                     if args.oracle else None)
    except LinkNotUp as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINK_NOT_UP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"case: {result.case_used}")
    print(f"llt: {_fmt_llt(result.llt, result.horizon_capped, args.horizon)}")
    if not result.horizon_capped:
        print(f"residual: {result.residual:.3e} m")
    if args.oracle:
        if math.isinf(reference):
            print(f"oracle: unbounded (horizon-capped at {args.horizon:g} s)")
        else:
            print(f"oracle: {reference:.6f} s")
        if not result.horizon_capped and math.isfinite(reference):
            print(f"abs_diff: {abs(result.llt - reference):.3e} s")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run_simulation(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    write_events_jsonl(os.path.join(args.out, "events.jsonl"), result.events)
    write_trace_csv(os.path.join(args.out, "trace.csv"), result.trace_rows)
    write_snapshots_csv(os.path.join(args.out, "snapshots.csv"), result.snapshots)
    s = result.summary()
    err = s["mean_abs_prediction_error_s"]
    print(f"links={s['links_established']} breaks={s['links_terminated']} "
          f"recomputes={s['llt_recomputes']} "
          f"mean_abs_prediction_error_s={'n/a' if err is None else format(err, '.6f')}")
    return EXIT_OK


def _cmd_route(args) -> int:
    try:
        graph = read_snapshot_csv(args.snapshot, at=args.at)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        route = max_min_route(graph, args.src, args.dst)
    except (NodeUnknown, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if route is None:
        print(f"unreachable: no route from {args.src} to {args.dst}")
        return EXIT_UNREACHABLE
    bottleneck = "inf" if math.isinf(route.bottleneck_llt) else f"{route.bottleneck_llt:g}"
    print(f"route: {' '.join(map(str, route.nodes))}")
    print(f"bottleneck_llt: {bottleneck}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cases = ["A", "B", "C"] if args.case == "all" else [args.case]
    all_pass = True
    for case in cases:
        try:
            report = run_sweep(case, args.trials, args.seed, dt=args.dt, horizon=args.horizon)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(report.table_row())
        all_pass = all_pass and report.passed()
    print("RESULT: " + ("PASS" if all_pass else "FAIL"))
    return EXIT_OK if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavllt",
        description="Link-lifetime prediction and smooth-turn network simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="analytic lifetime of one UAV pair")
    pair.add_argument("traj_a", type=parse_trajectory)
    pair.add_argument("traj_b", type=parse_trajectory)
    pair.add_argument("--range", type=float, required=True, help="transmission range, m")
    pair.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    pair.add_argument("--oracle", action="store_true",
                      help="also run the brute-force oracle and print the difference")
    pair.add_argument("--oracle-dt", type=float, default=SWEEP_DT)
    pair.set_defaults(func=_cmd_pair)

    simulate = sub.add_parser("simulate", help="run a smooth-turn network scenario")
    simulate.add_argument("config", help="flat key=value scenario file")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)

    route = sub.add_parser("route", help="longest-lasting route over a snapshot CSV")
    route.add_argument("snapshot", help="edge-list CSV (t_s,node_a,node_b,llt_s)")
    route.add_argument("src")
    route.add_argument("dst")
    route.add_argument("--at", type=float, default=None,
                       help="snapshot time to use (default: latest in the file)")
    route.set_defaults(func=_cmd_route)

    validate = sub.add_parser("validate", help="analytic-vs-oracle sweep")
    validate.add_argument("--case", choices=["A", "B", "C", "all"], default="all")
    validate.add_argument("--trials", type=int, default=100)
    validate.add_argument("--seed", type=int, default=1)
    validate.add_argument("--dt", type=float, default=SWEEP_DT)
    validate.add_argument("--horizon", type=float, default=SWEEP_HORIZON)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
