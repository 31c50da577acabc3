"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload net_steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics that BENCHMARK.json declares; ``--trace 1`` makes an untraced pass,
then repeats exactly the first TRACE_SHARE of its work with spans wrapped
around the package's cross-layer calls, and reports the per-layer metrics
of that traced work. The last line of
standard output is the result; the lines before it explain it. Every run
also appends its full record (environment, output digests, raw and scaled
figures) to ``bench/out/results.jsonl``; a traced run writes its spans to
``bench/out/spans-<workload>.npz``.

End-to-end metric names are shared by all workloads:

=================  ==========================  ===========================
metric             net_steady / net_churn      llt_pairs
=================  ==========================  ===========================
throughput         sim_speed (sim-s / host-s)  pairs_per_s
latency_p50_us     max_min_route query p50     compute_llt call p50
latency_p99_us     max_min_route query p99     compute_llt call p99
setup_s            fresh interpreter: import and input generation
peak_rss_mb        peak resident memory of the measuring process
=================  ==========================  ===========================

Throughput and latencies are scaled to a machine on which the reference
loop in ``workloads.py`` takes ``REFERENCE_S`` (see there for why); the
lines above the result give the raw host figures too. ``setup_s`` is host
time. ``fail_frac`` (failed checks / checked outputs) is the result line's
``failed`` over the ``checked`` count printed above it; ``attempted``
counts simulator runs, route queries and solver calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TRACE_SHARE = 0.25  # keeps the spans of a traced net_steady pass near 3M
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0.0 < args.seconds <= 120.0:
        parser.error("--seconds must be in (0, 120]")
    return args


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters started and awaited one at a time.

    Host time, not scaled: one reference sample is too short a look at
    the machine across a whole interpreter start-up, so scaling added noise.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
    }


def figures(p, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced pass: (scaled, host)."""
    import numpy as np

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = []
    for lat, work_s in ((p.scaled_ns, p.scaled_s), (p.latency_ns, p.work_s)):
        p50, p99 = np.percentile(np.asarray(lat, dtype=float), [50, 99]) / 1e3
        out.append({
            "throughput": p.work / work_s,
            "latency_p50_us": float(p50),
            "latency_p99_us": float(p99),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        })
    return out[0], out[1]


def explain(workload: str, p, scaled: dict, host: dict, units: dict) -> list[str]:
    """The figures under the names a reader of the workload expects."""
    if workload == "llt_pairs":
        names = {"throughput": "pairs_per_s", "latency_p50_us": "llt_p50_us",
                 "latency_p99_us": "llt_p99_us"}
        lines = [f"calls {int(p.work)}, latency samples {len(p.latency_ns)}"]
    else:
        names = {"throughput": "sim_speed", "latency_p50_us": "route_p50_us",
                 "latency_p99_us": "route_p99_us"}
        lines = [f"scenarios {p.scenarios}, {p.work:.0f} sim-s in {p.work_s:.2f} host-s; "
                 f"route queries {len(p.latency_ns)}, route_qps (host) "
                 f"{len(p.latency_ns) / p.loop_s:.0f} 1/s"]
    fail_frac = p.failed / p.checked if p.checked else 0.0
    lines.append(f"fail_frac {fail_frac:.4g} ({p.failed} of {p.checked} checked outputs)")
    lines.append(f"{'metric':16s} {'scaled':>12s} {'host':>12s}  unit")
    for key, value in scaled.items():
        name = names.get(key, key)
        unit = "sim-s/s" if name == "sim_speed" else units[key]
        lines.append(f"{name:16s} {value:12.4f} {host[key]:12.4f}  {unit}")
    return lines


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workloads.OUT.mkdir(exist_ok=True)
    env = environment()
    setup = None if args.trace else setup_seconds(args.workload, args.seed)

    inputs = workloads.prepare(args.workload, args.seed)
    plain = workloads.measure(args.workload, args.seed, inputs, args.seconds, workloads.Calls())
    passes = [plain]
    if args.trace:
        tracer = spans.Tracer()
        inputs = workloads.prepare(args.workload, args.seed)
        with tracer.installed(workloads.INTERNAL):
            traced = workloads.measure(args.workload, args.seed, inputs, args.seconds,
                                       workloads.Calls(tracer),
                                       counts=workloads.prefix(plain, TRACE_SHARE))
        passes.append(traced)
        table = spans.SpanTable(tracer)
        trace_problems = spans.self_check(table, simulated=args.workload in workloads.NET)
        values = spans.layer_metrics(table, traced.events, workloads.slowdown(plain, traced))
        host = {}
        kind = "per_layer"
        tracer.save(workloads.OUT / f"spans-{args.workload}.npz")
    else:
        trace_problems = []
        values, host = figures(plain, setup)
        kind = "end_to_end"

    units = declared(kind)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    problems = [q for p in passes for q in p.problems] + trace_problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checked = sum(p.checked for p in passes)
    correct = not problems and failed == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    if args.trace:
        for name in units:
            print(f"{name:30s} {values[name]:.6g} {units[name]}")
    else:
        print("\n".join(explain(args.workload, plain, values, host, units)))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("env", json.dumps(env))
    if plain.digests:
        print("outputs_sha256", json.dumps(plain.digests))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "outputs_sha256": plain.digests,
        "correct": correct, "attempted": attempted, "failed": failed, "checked": checked,
        "metrics": values, "host_metrics": host,
        "reference_s_median": statistics.median(plain.pace.samples),
    }
    with open(workloads.OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
