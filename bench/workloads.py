"""Seeded workloads of the benchmark: inputs, measured passes, output checks.

Every workload is single-process, single-thread and closed-loop: the next
call starts when the previous one returns.

* ``net_steady`` and ``net_churn`` run ``Simulator`` with ``SmoothTurnChanges``
  on the default ``ScenarioConfig`` arena and range, scenario after
  scenario, each run followed by ``max_min_route`` queries over its
  snapshots. ``net_steady`` (20 UAVs, 30-90 s waits) is dominated by
  the 0.01 s ground-truth check and scalar geometry; ``net_churn`` (40 UAVs,
  1-4 s waits) re-estimates lifetimes constantly, so the solver dominates.
* ``llt_pairs`` calls ``compute_llt`` back to back on ``validate.sample_instance``
  pairs, interleaving cases A, B and C, with no simulator at all.

The package is imported from the ``src/`` directory beside this one and
nowhere else, so the benchmark always measures the checkout it sits in.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import uavllt  # noqa: E402
from uavllt import llt, mobility, netsim, oracle, routing, validate  # noqa: E402
from uavllt.config import ScenarioConfig  # noqa: E402

if Path(uavllt.__file__).resolve().parent != SRC / "uavllt":
    raise ImportError(f"uavllt was imported from {uavllt.__file__}, not from {SRC}")

from spans import CASES  # noqa: E402


@dataclass(frozen=True)
class NetWorkload:
    uav_count: int
    wait: tuple[float, float]
    duration: float     # simulated seconds per scenario
    route_queries: int  # after each scenario, over its snapshots


NET = {
    # Routing takes about a seventh of either pass: a 20-node query costs
    # a fifth of a 40-node one and a steady scenario runs shorter.
    "net_steady": NetWorkload(20, (30.0, 90.0), 40.0, 8000),
    "net_churn": NetWorkload(40, (1.0, 4.0), 5.0, 2000),
}
WORKLOADS = (*NET, "llt_pairs")

ROUTE_CHECKS = 25     # route answers verified per scenario
PAIRS_PER_CASE = 6000
ORACLE_CHECKS_PER_CASE = 30

# Shared machines drift in speed by tens of percent over seconds to
# minutes, far more than any bound worth gating on. Every stretch of
# measured work is therefore bracketed by a fixed interpreter-bound
# reference loop, and its times are scaled to a machine on which that loop
# takes REFERENCE_S. Raw times are logged beside the scaled ones.
REFERENCE_LOOPS = 125_000
REFERENCE_S = 0.025
SEGMENT_NS = 250_000_000  # back-to-back calls between two reference samples


def _llt_tag(result) -> int:
    """Motion case index, plus 3 when the result is horizon-capped."""
    return CASES.index(result.case_used) + (3 if result.horizon_capped else 0)


def _found_tag(result) -> int:
    return 0 if result is None else 1


# Names one layer calls in another, wrapped for the traced pass:
# (module, attribute, span name, tag function).
INTERNAL = (
    (netsim, "compute_llt", "llt.compute_llt", _llt_tag),
    (netsim, "position_at", "kinematics.position_at", None),
    (netsim, "trace_row", "mobility.trace_row", None),
    (llt, "squared_link_distance", "llt.squared_link_distance", None),
    (llt, "trust_window", "llt.trust_window", None),
    (llt, "find_real_roots", "llt.find_real_roots", None),
    (llt, "select_root", "llt.select_root", _found_tag),
)


class Calls:
    """The package entry points a pass calls; traced when given a tracer."""

    def __init__(self, tracer=None):
        self.run = netsim.Simulator.run
        self.compute_llt = llt.compute_llt
        self.max_min_route = routing.max_min_route
        self.brute_force_llt = oracle.brute_force_llt
        self.driver = lambda driver: driver
        if tracer is not None:
            self.run = tracer.wrap("netsim.run", self.run)
            self.compute_llt = tracer.wrap("llt.compute_llt", self.compute_llt, _llt_tag)
            self.max_min_route = tracer.wrap("routing.max_min_route", self.max_min_route,
                                             _found_tag)
            self.brute_force_llt = tracer.wrap("oracle.brute_force_llt", self.brute_force_llt)
            self.driver = lambda driver: tracer.wrap("mobility.advance", driver)


def reference_sample() -> float:
    """Seconds this machine takes, right now, for a fixed loop of bytecode."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        acc += math.hypot(i & 1023, 7.0) * (1.0 if i % 3 else -1.0)
    return time.perf_counter() - t0


class Pace:
    """Scale factors from host time to reference-machine time."""

    def __init__(self):
        self.samples = [reference_sample()]

    def factor(self) -> float:
        """Sample again; the factor for the work done since the last sample."""
        self.samples.append(reference_sample())
        return 2.0 * REFERENCE_S / (self.samples[-2] + self.samples[-1])


@dataclass
class Pass:
    """What one measured pass did, how long it took, and what its checks found."""

    work: float = 0.0       # simulated seconds (net) or solver calls (llt_pairs)
    work_s: float = 0.0     # host seconds spent on that work
    scaled_s: float = 0.0   # the same, scaled to the reference machine
    latency_ns: array = field(default_factory=lambda: array("q"))  # per query or call
    scaled_ns: array = field(default_factory=lambda: array("d"))
    loop_s: float = 0.0         # host seconds of the back-to-back calls
    loop_scaled_s: float = 0.0
    pace: Pace = field(default_factory=Pace)
    scenarios: int = 0
    scenario_scaled_s: list = field(default_factory=list)
    checked: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    events: Counter = field(default_factory=Counter)
    digests: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.scenarios + len(self.latency_ns)

    def record_check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def scenario(spec: NetWorkload, seed: int, k: int) -> ScenarioConfig:
    return ScenarioConfig(uav_count=spec.uav_count, wait_min=spec.wait[0],
                          wait_max=spec.wait[1], duration=spec.duration,
                          seed=seed * 100_000 + k)


def fleet(config: ScenarioConfig) -> mobility.SmoothTurnFleet:
    return mobility.SmoothTurnFleet(config.uav_count, config.arena(),
                                    config.smooth_turn(), config.seed)


def prepare(workload: str, seed: int):
    """The inputs a pass starts from: everything before its first timed call."""
    if workload in NET:
        return fleet(scenario(NET[workload], seed, 0))
    if workload == "llt_pairs":
        rngs = {case: np.random.default_rng([seed, ord(case)]) for case in CASES}
        return [validate.sample_instance(case, rngs[case])
                for _ in range(PAIRS_PER_CASE) for case in CASES]
    raise ValueError(f"unknown workload {workload!r}")


def measure(workload: str, seed: int, inputs, seconds: float, calls: Calls,
            counts: tuple[int, int] | None = None) -> Pass:
    """One pass of ``seconds`` seconds, or of exactly ``counts`` =
    (scenarios, back-to-back calls): the start of an earlier pass's work."""
    if workload in NET:
        return _measure_net(NET[workload], seed, inputs, seconds, calls, counts)
    return _measure_llt(seed, inputs, seconds, calls, counts)


def prefix(p: Pass, share: float) -> tuple[int, int]:
    """Counts for a pass that repeats the first ``share`` of ``p``'s work:
    its scenarios (each with its route queries) or its solver calls."""
    return math.ceil(share * p.scenarios), math.ceil(share * len(p.latency_ns))


def slowdown(plain: Pass, traced: Pass) -> float:
    """Scaled time of a traced pass over that of the same work untraced."""
    if traced.scenarios:
        return traced.scaled_s / sum(plain.scenario_scaled_s[:traced.scenarios])
    n = len(traced.scaled_ns)
    return sum(traced.scaled_ns) / sum(plain.scaled_ns[:n])


# ---------------------------------------------------------------------------
# net_steady / net_churn
# ---------------------------------------------------------------------------


def _measure_net(spec: NetWorkload, seed: int, first_fleet, seconds: float,
                 calls: Calls, counts: tuple[int, int] | None) -> Pass:
    """Scenario after scenario: one ``Simulator.run``, then a fixed number of
    ``max_min_route`` queries over that run's snapshots, so every scenario
    weighs the same in the route figures and they span the whole pass."""
    p = Pass()
    n_nodes = spec.uav_count
    fl = first_fleet
    while True:
        k = p.scenarios
        config = scenario(spec, seed, k)
        if fl is None:
            fl = fleet(config)
        sim = netsim.Simulator(fl.states, calls.driver(netsim.SmoothTurnChanges(fl)),
                               tx_range=config.transmission_range,
                               duration=config.duration,
                               hello_interval=config.hello_interval,
                               horizon=config.horizon)
        t0 = time.perf_counter()
        result = calls.run(sim)
        host = time.perf_counter() - t0
        p.work_s += host
        p.scenario_scaled_s.append(host * p.pace.factor())
        p.scaled_s += p.scenario_scaled_s[-1]
        p.work += config.duration
        p.scenarios += 1
        fl = None
        _check_predictions(result, sim.dt_check, p, k)
        p.events.update(event["event"] for event in result.events)
        if k == 0:
            p.digests = _output_digests(result)

        graphs = result.snapshots
        rng = np.random.default_rng([seed, k, 1])
        n_queries = spec.route_queries
        which = rng.integers(0, len(graphs), n_queries).tolist()
        src = rng.integers(0, n_nodes, n_queries)
        dst = ((src + rng.integers(1, n_nodes, n_queries)) % n_nodes).tolist()
        src = src.tolist()
        kept = _closed_loop(p, calls.max_min_route,
                            lambda i: (graphs[which[i]], src[i], dst[i]),
                            None, n_queries, ROUTE_CHECKS)
        for (graph, a, b), answer in kept:
            p.record_check(_route_ok(graph, a, b, answer),
                           f"route {a}->{b} at t={graph.snapshot_time}: {answer}")
        if (p.scenarios >= counts[0]) if counts else (p.work_s + p.loop_s >= seconds):
            return p


def _check_predictions(result, dt_check: float, p: Pass, k: int) -> None:
    """Each link that broke with a finite prediction must break where predicted.

    The tolerance is the recompute-protocol acceptance tolerance:
    ``max(2 * dt_check, 1e-3 * remaining)``, where ``remaining`` runs from
    the last re-estimate to the break.
    """
    for link in result.links:
        predicted = link.predicted_termination
        if link.terminated_at is None or math.isinf(predicted):
            continue
        last_at, _ = link.estimate_history[-1]
        tol = max(2.0 * dt_check, 1e-3 * (link.terminated_at - last_at))
        err = abs(predicted - link.terminated_at)
        p.record_check(err <= tol, f"scenario {k} link {link.endpoints}: "
                                   f"error {err:.3g} s > {tol:.3g} s")


def _output_digests(result) -> dict:
    """sha256 of the files netsim's own writers make from one run."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        files = {
            "events.jsonl": lambda path: netsim.write_events_jsonl(path, result.events),
            "snapshots.csv": lambda path: netsim.write_snapshots_csv(path, result.snapshots),
            "trace.csv": lambda path: mobility.write_trace_csv(path, result.trace_rows),
        }
        digests = {}
        for name, write in files.items():
            path = Path(tmp) / name
            write(path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _hops(graph, src, dst, keep) -> int | None:
    """Fewest hops from src to dst over edges whose weight passes ``keep``."""
    adjacency: dict = {}
    for (a, b), weight in graph.edges.items():
        if keep(weight):
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
    depth = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            return depth[node]
        for nbr in adjacency.get(node, ()):
            if nbr not in depth:
                depth[nbr] = depth[node] + 1
                queue.append(nbr)
    return None


def _route_ok(graph, src, dst, answer) -> bool:
    """An answer is a simple src-dst path over live edges whose bottleneck no
    path beats and whose hop count no equally wide path beats; None means
    dst is unreachable."""
    if answer is None:
        return _hops(graph, src, dst, lambda w: True) is None
    nodes = answer.nodes
    if nodes[0] != src or nodes[-1] != dst or len(set(nodes)) != len(nodes):
        return False
    weights = [graph.edges.get((a, b) if a <= b else (b, a)) for a, b in zip(nodes, nodes[1:])]
    if None in weights or min(weights) != answer.bottleneck_llt:
        return False
    width = answer.bottleneck_llt
    return (_hops(graph, src, dst, lambda w: w > width) is None
            and _hops(graph, src, dst, lambda w: w >= width) == answer.hops)


# ---------------------------------------------------------------------------
# Back-to-back calls: route queries and llt_pairs
# ---------------------------------------------------------------------------


def _closed_loop(p: Pass, fn, args_of, seconds: float | None, count: int | None,
                 keep: int) -> list:
    """Time ``fn(*args_of(i))`` for i = 0, 1, ... back to back into ``p.latency_ns``.

    Makes ``count`` calls, or at least ``keep`` and until the calls have
    taken ``seconds``. After every SEGMENT_NS of calls the pace is sampled
    and the segment's times are scaled by it. Returns the first ``keep``
    (arguments, answer) pairs.
    """
    budget = None if seconds is None else int(seconds * 1e9)
    clock = time.perf_counter_ns
    lat = p.latency_ns
    kept = []
    spent = i = 0
    first = len(lat)
    seg_start = clock()
    while True:
        args = args_of(i)
        t0 = clock()
        answer = fn(*args)
        t1 = clock()
        lat.append(t1 - t0)
        if i < keep:
            kept.append((args, answer))
        i += 1
        done = i == count or (count is None and i >= keep and spent + t1 - seg_start >= budget)
        if done or t1 - seg_start >= SEGMENT_NS:
            spent += t1 - seg_start
            f = p.pace.factor()
            p.loop_s += (t1 - seg_start) / 1e9
            p.loop_scaled_s += (t1 - seg_start) * f / 1e9
            p.scaled_ns.extend(x * f for x in lat[first:])
            first = len(lat)
            if done:
                return kept
            seg_start = clock()


# ---------------------------------------------------------------------------
# llt_pairs
# ---------------------------------------------------------------------------


def _measure_llt(seed: int, pool, seconds: float, calls: Calls,
                 counts: tuple[int, int] | None) -> Pass:
    p = Pass()
    n_checked = ORACLE_CHECKS_PER_CASE * len(CASES)
    horizon = validate.SWEEP_HORIZON

    def pair(i):
        return (*pool[i % len(pool)], horizon)

    kept = _closed_loop(p, calls.compute_llt, pair, seconds,
                        None if counts is None else counts[1], n_checked)
    p.work = len(p.latency_ns)
    p.work_s, p.scaled_s = p.loop_s, p.loop_scaled_s

    # Score the first pairs of each case against the oracle the way the
    # acceptance sweeps do: SweepReport's tolerances and verdict rule.
    outcomes = {case: [] for case in CASES}
    for j, ((a, b, tx_range, _), result) in enumerate(kept):
        truth = calls.brute_force_llt(a, b, tx_range, dt=validate.SWEEP_DT, horizon=horizon)
        outcomes[CASES[j % len(CASES)]].append(validate.InstanceOutcome(j, tx_range, result, truth))
    for case, found in outcomes.items():
        report = validate.SweepReport(case, len(found), seed, validate.SWEEP_DT, horizon, found)
        bad = {o.index for o in report.failures() + report.verdict_mismatches()}
        for o in found:
            p.record_check(o.index not in bad, f"pair {o.index} (case {case}): solver "
                                               f"{o.analytic.llt} s, oracle {o.oracle_llt} s")
    return p
