"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from outside the package: the tracer replaces the
public names that one layer calls in another (``netsim.compute_llt``,
``llt.trust_window`` and so on) with timing wrappers for the length of the
traced pass, and restores them afterwards. Nothing under ``src/`` changes.

Each span keeps its name, start and end (``perf_counter_ns``), the span
that was open when it began, and a small integer tag the wrapper derives
from the call's result (motion case, break found, route found; -1 when
the call raised). Spans live in flat arrays while the pass runs and are
written out once, at the end.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

CASES = "ABC"

STAGES = {
    "model": "llt.squared_link_distance",
    "trust_window": "llt.trust_window",
    "roots": "llt.find_real_roots",
    "select": "llt.select_root",
}


class Tracer:
    """Collects spans from the wrappers it hands out."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.tag = array("b")
        self._open = [-1]

    def wrap(self, span_name: str, fn, tag=None):
        """``fn`` with every call recorded as one span named ``span_name``."""
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        clock = time.perf_counter_ns
        names, starts, ends, parents, tags, open_spans = (
            self.name, self.start, self.end, self.parent, self.tag, self._open)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_spans[-1])
            tags.append(-1)
            ends.append(0)
            open_spans.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if tag is not None:
                tags[idx] = tag(result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap ``(module, attribute, span name, tag)`` targets for the ``with`` body."""
        saved = []
        try:
            for module, attr, span_name, tag in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, tag))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Self times and per-name selections over a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.start, self.end = a["name"], a["start"], a["end"]
        self.parent, self.tag = a["parent"], a["tag"]
        self.dur = self.end - self.start
        n = len(self.dur)
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.dur[nested], minlength=n)
        self.self_ns = self.dur - child.astype(np.int64)

    def mask(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(span_name)

    def count(self, span_name: str) -> int:
        return int(self.mask(span_name).sum())

    def seconds(self, span_name: str) -> float:
        return float(self.dur[self.mask(span_name)].sum()) / 1e9

    def self_seconds(self, span_name: str) -> float:
        return float(self.self_ns[self.mask(span_name)].sum()) / 1e9

    def children_per_span(self, child_name: str) -> np.ndarray:
        m = self.mask(child_name)
        return np.bincount(self.parent[m], minlength=len(self.dur))

    def nesting_errors(self) -> int:
        """Children outside their parent's interval, or overlapping siblings."""
        kids = np.flatnonzero(self.parent >= 0)
        p = self.parent[kids]
        outside = int(np.sum((self.start[kids] < self.start[p]) | (self.end[kids] > self.end[p])))
        order = np.lexsort((self.start, self.parent))
        same = self.parent[order][1:] == self.parent[order][:-1]
        overlap = self.start[order][1:] < self.end[order][:-1]
        return outside + int(np.sum(same & overlap))

    def root_of(self) -> np.ndarray:
        """Index of each span's outermost ancestor (parents precede children)."""
        root = np.where(self.parent >= 0, self.parent, np.arange(len(self.parent)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                return root
            root = nxt


def _p50_us(ns: np.ndarray) -> float:
    return float(np.median(ns)) / 1e3 if ns.size else 0.0


def layer_metrics(table: SpanTable, events: dict, slowdown: float) -> dict:
    """Per-layer metrics from a finished trace and the run's event counts."""
    m = {
        "netsim.run.s": table.seconds("netsim.run"),
        "netsim.self_s": table.self_seconds("netsim.run"),
        "kinematics.position_at.calls": table.count("kinematics.position_at"),
        "kinematics.position_at.s": table.seconds("kinematics.position_at"),
        "llt.s": table.seconds("llt.compute_llt"),
        "mobility.advance.calls": table.count("mobility.advance"),
        "mobility.advance.s": table.seconds("mobility.advance"),
        "mobility.trace_row.calls": table.count("mobility.trace_row"),
        "mobility.trace_row.s": table.seconds("mobility.trace_row"),
        "routing.queries": table.count("routing.max_min_route"),
        "oracle.calls": table.count("oracle.brute_force_llt"),
        "oracle.s": table.seconds("oracle.brute_force_llt"),
        "trace.slowdown": slowdown,
        "trace.spans": len(table.dur),
    }
    for kind in ("hello", "traj_change", "llt_recompute", "link_up", "link_down"):
        m[f"netsim.events.{kind}"] = events.get(kind, 0)

    solve = table.mask("llt.compute_llt")
    windows = table.children_per_span("llt.trust_window")
    case = table.tag % 3
    done = solve & (table.tag >= 0)
    for i, label in enumerate(CASES):
        of_case = done & (case == i)
        m[f"llt.calls.{label}"] = int(of_case.sum())
        m[f"llt.us_p50.{label}"] = _p50_us(table.dur[of_case])
        if label != "C":
            m[f"llt.windows_per_call.{label}"] = (
                float(windows[of_case].mean()) if of_case.any() else 0.0)
    m["llt.windows_max"] = int(windows[solve].max()) if solve.any() else 0
    m["llt.capped_frac"] = float((table.tag[done] >= 3).mean()) if done.any() else 0.0
    for stage, span_name in STAGES.items():
        m[f"llt.stage_s.{stage}"] = table.seconds(span_name)
    select = table.mask("llt.select_root")
    m["llt.window_hit_frac"] = float((table.tag[select] == 1).mean()) if select.any() else 0.0

    route = table.mask("routing.max_min_route")
    m["routing.query_us_p50"] = _p50_us(table.dur[route])
    m["routing.unreachable_frac"] = float((table.tag[route] == 0).mean()) if route.any() else 0.0
    return m


def self_check(table: SpanTable, simulated: bool) -> list[str]:
    """Problems with the trace's structure; empty when it accounts for itself.

    For a simulated workload every nanosecond of the ``netsim.run`` spans
    must be the self time of ``run`` or of a span nested under it. A
    workload without a simulator must record no ``netsim`` span at all.
    """
    problems = []
    bad = table.nesting_errors()
    if bad:
        problems.append(f"{bad} spans lie outside their parent or overlap a sibling")
    run = table.mask("netsim.run")
    if not simulated:
        if run.any() or table.mask("kinematics.position_at").any():
            problems.append("netsim spans recorded on a workload without a simulator")
        return problems
    if not run.any():
        return problems + ["no netsim.run span recorded"]
    under_run = run[table.root_of()]
    accounted = int(table.self_ns[under_run].sum())
    total = int(table.dur[run].sum())
    if accounted != total:
        problems.append(f"netsim.run spans {total} ns, self times under them {accounted} ns")
    return problems
