#!/usr/bin/env python3
"""The repo benchmark: the public CAD-flow and sweep entry points, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow_mix --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``flow_mix``
(default ``CadFlow.run`` over both asynchronous styles), ``flow_timing``
(the timing-driven flow) and ``sweep_ladder`` (``SweepRunner`` over a
channel-width ladder).  Each runs as a closed loop -- one client, one
process, the serial sweep executor -- and ``--seed`` derives every placement
seed.

A run sets up (imports, circuit/fabric construction, one untimed warm-up
cycle that fills the RR-graph LRU and the kernel geometry caches and yields
the reference outputs), checks the warm-up outputs with the oracle, then
times whole cycles.  The number of cycles is fixed by ``--seconds`` and the
workload's nominal cycle time, never by measured speed, so a seed always
reproduces the same ops, counts and failure tally.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first times half
the cycles untraced, then traces the rest through :class:`spans.Tracer`,
prints the per-layer metrics and writes Chrome trace-event JSON under
``.perfbench/`` (one track per workload; Perfetto opens it).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output passed the oracle,
1 when one did not, 2 on a usage or environment error.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the line above)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
WORKLOADS = ("flow_mix", "flow_timing", "sweep_ladder")
#: Repetitions of circuit/fabric construction during set-up; the median counts.
CONSTRUCT_REPEATS = 3
#: Largest |sum of self times - op wall time| the span accounting may show.
ACCOUNTING_TOLERANCE_S = 1e-6


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    context: dict[str, object]
    problems: list[str] = field(default_factory=list)
    #: ``label: reason`` of every op that raised or did not route.
    failed_ops: list[str] = field(default_factory=list)
    #: Absolute per-layer seconds, printed for people (traced runs only).
    layer_seconds: dict[str, float] = field(default_factory=dict)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (the median when there are too few samples for one)."""
    return max(1, math.floor(100 * (1 - 10 / count))) if count > 10 else 50


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def geometric_mean(values: list[float]) -> float:
    return statistics.geometric_mean(values) if values else 0.0


# ----------------------------------------------------------------------
# Per-layer metrics from the traced spans
# ----------------------------------------------------------------------
#: Layer -> the span layers that make it up (an RR-graph build nests in its
#: cache lookup, and both belong to one layer).
LAYERS = {
    "circuits.build": ("circuits.build",),
    "cad.flow": ("cad.flow",),
    "cad.pack": ("cad.pack",),
    "cad.place": ("cad.place",),
    "core.rrgraph": ("core.rrgraph.lookup", "core.rrgraph.build"),
    "cad.route": ("cad.route",),
    "cad.route.refine": ("cad.route.refine",),
    "cad.timing": ("cad.timing",),
    "cad.bitgen": ("cad.bitgen",),
    "sweep.runner": ("sweep.runner",),
    "sweep.store.get": ("sweep.store.get",),
    "sweep.store.put": ("sweep.store.put",),
    "op": ("op",),
}


def layer_metrics(tracer, wall_s: float, hit_pass_s: float, overhead_ratio: float):
    """``(metrics, seconds)``: per-layer metrics and absolute busy/self seconds.

    Times are reported as a percentage of the traced wall clock, so a layer
    a workload never enters reads 0 % rather than a time that never varies.
    """
    spans = tracer.spans
    self_times = tracer.self_times()
    layer_of = {span_layer: layer for layer, parts in LAYERS.items() for span_layer in parts}
    calls: Counter[str] = Counter()
    busy: Counter[str] = Counter()
    own: Counter[str] = Counter()
    sums: Counter[str] = Counter()
    for index, span in enumerate(spans):
        layer = layer_of[span.layer]
        calls[span.layer] += 1
        own[layer] += self_times[index]
        for key, value in span.counters.items():
            sums[f"{span.layer}.{key}"] += value
        ancestor = span.parent
        while ancestor is not None and layer_of[spans[ancestor].layer] != layer:
            ancestor = spans[ancestor].parent
        if ancestor is None:  # outermost span of its layer
            busy[layer] += span.duration
    route_failures = calls["cad.route"] - sums["cad.route.success"]
    lookups_that_built = {
        span.parent for span in spans
        if span.layer == "core.rrgraph.build" and span.parent is not None
        and spans[span.parent].layer == "core.rrgraph.lookup"
    }
    # Sweep ops are execute_point calls; flow ops never enter the runner.
    execute_calls = calls["op"] if calls["sweep.runner"] else 0

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s if wall_s > 0 else 0.0

    place_busy = busy["cad.place"]
    route_calls = calls["cad.route"]
    lookups = calls["core.rrgraph.lookup"]
    metrics = {
        "circuits.build.calls": (calls["circuits.build"], "count"),
        "circuits.build.busy_pct": (pct(busy["circuits.build"]), "%"),
        "cad.pack.calls": (calls["cad.pack"], "count"),
        "cad.pack.busy_pct": (pct(busy["cad.pack"]), "%"),
        "cad.place.calls": (calls["cad.place"], "count"),
        "cad.place.busy_pct": (pct(place_busy), "%"),
        "cad.place.moves": (sums["cad.place.moves"], "count"),
        "cad.place.moves_per_s": (
            sums["cad.place.moves"] / place_busy if place_busy > 0 else 0.0, "1/s"
        ),
        "cad.place.net_evals": (sums["cad.place.net_evals"], "count"),
        "core.rrgraph.lookups": (lookups, "count"),
        "core.rrgraph.builds": (calls["core.rrgraph.build"], "count"),
        "core.rrgraph.busy_pct": (pct(busy["core.rrgraph"]), "%"),
        "core.rrgraph.hit_ratio": (
            1 - len(lookups_that_built) / lookups if lookups else 0.0, "ratio"
        ),
        "cad.route.calls": (route_calls, "count"),
        "cad.route.failed_calls": (route_failures, "count"),
        "cad.route.success_ratio": (
            1 - route_failures / route_calls if route_calls else 0.0, "ratio"
        ),
        "cad.route.busy_pct": (pct(busy["cad.route"]), "%"),
        "cad.route.iterations": (sums["cad.route.iterations"], "count"),
        "cad.route.node_pops": (sums["cad.route.node_pops"], "count"),
        "cad.route.reroutes": (sums["cad.route.reroutes"], "count"),
        "cad.route.parallel_groups": (sums["cad.route.parallel_groups"], "count"),
        "cad.route.conflict_replays": (sums["cad.route.conflict_replays"], "count"),
        "cad.route.wirelength": (sums["cad.route.wirelength"], "count"),
        "cad.route.refine.calls": (calls["cad.route.refine"], "count"),
        "cad.route.refine.busy_pct": (pct(busy["cad.route.refine"]), "%"),
        "cad.route.refine.nets_improved": (
            sums["cad.route.refine.nets_improved"], "count"
        ),
        "cad.timing.calls": (calls["cad.timing"], "count"),
        "cad.timing.busy_pct": (pct(busy["cad.timing"]), "%"),
        "cad.bitgen.calls": (calls["cad.bitgen"], "count"),
        "cad.bitgen.busy_pct": (pct(busy["cad.bitgen"]), "%"),
        "cad.flow.calls": (calls["cad.flow"], "count"),
        "cad.flow.self_pct": (pct(own["cad.flow"]), "%"),
        "sweep.runner.execute_calls": (execute_calls, "count"),
        "sweep.runner.busy_pct": (pct(busy["sweep.runner"]), "%"),
        "sweep.runner.self_pct": (pct(own["sweep.runner"]), "%"),
        "sweep.store.gets": (calls["sweep.store.get"], "count"),
        "sweep.store.hits": (sums["sweep.store.get.hit"], "count"),
        "sweep.store.puts": (calls["sweep.store.put"], "count"),
        "sweep.store.get_busy_pct": (pct(busy["sweep.store.get"]), "%"),
        "sweep.store.put_busy_pct": (pct(busy["sweep.store.put"]), "%"),
        "sweep.store.bytes_written": (sums["sweep.store.put.bytes"], "B"),
        "sweep.store.hit_pass_pct": (pct(hit_pass_s), "%"),
        "op.self_pct": (pct(own["op"]), "%"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    seconds = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    seconds.update({f"{layer}.self_s": own[layer] for layer in LAYERS})
    return metrics, seconds


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or ``"unknown"`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload, seed: int, seconds: float, trace: bool, cycles: int, samples) -> dict:
    from repro.fingerprint import code_fingerprint

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cycles": cycles,
        "ops_per_cycle": len(samples) // max(1, cycles),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels": dict(Counter(str(sample.kernel) for sample in samples)),
        "code_fingerprint": code_fingerprint(),
        "git_commit": git_commit(ROOT),
    }


# ----------------------------------------------------------------------
# The measurement
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, trace: bool, started: float) -> Report:
    """Set up, check, time and (optionally) trace *workload*."""
    from spans import Tracer

    tracer = Tracer()
    imported_s = time.perf_counter() - started
    construct_s = []
    for _ in range(CONSTRUCT_REPEATS):
        t0 = time.perf_counter()
        workload.construct()
        construct_s.append(time.perf_counter() - t0)
    warm = workload.run_cycle(tracer, keep=True)
    setup_s = imported_s + statistics.median(construct_s) + warm.wall_s

    # Oracle on the warm-up outputs, outside every timed region.
    problems = list(warm.problems)
    lint_errors = workload.lint(warm.kept)
    warm.kept.clear()
    for label, errors in lint_errors.items():
        problems.append(f"{label}: lint errors {errors}")
    reference = {sample.label: sample.summary for sample in warm.samples}

    cycles = max(1, round(seconds / workload.nominal_cycle_s))
    traced = []
    if trace:
        half = max(1, cycles // 2)
        untraced = [workload.run_cycle(tracer) for _ in range(half)]
        tracer.install()
        tracer.recording = True
        try:
            traced = [workload.run_cycle(tracer) for _ in range(half)]
        finally:
            tracer.recording = False
            tracer.uninstall()
        timed = untraced + traced
        cycles = 2 * half
    else:
        untraced = timed = [workload.run_cycle(tracer) for _ in range(cycles)]

    samples = [sample for cycle in timed for sample in cycle.samples]
    failed = 0
    for cycle in timed:
        problems.extend(cycle.problems)
    for sample in samples:
        mismatch = sample.summary != reference.get(sample.label)
        if mismatch:
            problems.append(f"{sample.label}: summary differs from the warm-up run")
        if not sample.ok or mismatch or sample.label in lint_errors:
            failed += 1
    if trace:
        error = tracer.op_accounting_error()
        if error > ACCOUNTING_TOLERANCE_S:
            problems.append(f"span self times miss an op's wall time by {error:.3g}s")

    metrics: dict[str, tuple[float, str]]
    layer_seconds: dict[str, float] = {}
    untraced_samples = [sample for cycle in untraced for sample in cycle.samples]
    untraced_wall = sum(cycle.wall_s for cycle in untraced)
    latencies = [sample.seconds for sample in untraced_samples]
    tail_p = tail_percentile(len(latencies))
    if trace:
        traced_wall = sum(cycle.wall_s for cycle in traced)
        traced_ops = sum(len(cycle.samples) for cycle in traced)
        overhead = (traced_wall / traced_ops) / (untraced_wall / len(untraced_samples)) - 1
        metrics, layer_seconds = layer_metrics(
            tracer, traced_wall, sum(cycle.hit_pass_s for cycle in traced), overhead
        )
    else:
        cycle_times = [
            float(sample.summary["cycle_time_ps"])
            for sample in untraced_samples
            if sample.ok and sample.summary.get("cycle_time_ps")
        ]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (
                len(untraced[0].samples) / statistics.median(c.wall_s for c in untraced), "1/s"
            ),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (percentile(latencies, tail_p), "s"),
            "success_rate": (1 - failed / len(samples), "ratio"),
            "cycle_time_ps": (geometric_mean(cycle_times), "ps"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    context = stamp(workload, seed, seconds, trace, cycles, samples)
    context.update(
        setup_s=setup_s,
        op_tail_percentile=tail_p,
        op_latency_samples=len(latencies),
        oracle_problems=len(problems),
    )
    if trace:
        context["trace_file"] = str(write_chrome_trace(tracer, workload.name, context))
    return Report(
        correct=not problems,
        attempted=len(samples),
        failed=failed,
        metrics=metrics,
        context=context,
        problems=problems,
        failed_ops=sorted(
            {f"{s.label}: {s.error or 'routing_success is false'}" for s in samples if not s.ok}
        ),
        layer_seconds=layer_seconds,
    )


def write_chrome_trace(tracer, workload: str, context: dict) -> Path:
    """Write this run's spans, then merge every workload's into ``trace.json``."""
    trace_dir = OUT_DIR / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0].start if tracer.spans else 0.0
    track = WORKLOADS.index(workload) + 1 if workload in WORKLOADS else len(WORKLOADS) + 1
    own = trace_dir / f"{workload}.json"
    own.write_text(
        json.dumps(
            {"traceEvents": tracer.chrome_events(track, workload, origin), "metadata": context}
        )
    )
    merged: list[dict] = []
    metadata = {}
    for path in sorted(trace_dir.glob("*.json")):
        document = json.loads(path.read_text())
        merged.extend(document["traceEvents"])
        metadata[path.stem] = document["metadata"]
    merged_path = OUT_DIR / "trace.json"
    merged_path.write_text(json.dumps({"traceEvents": merged, "metadata": metadata}))
    return merged_path


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def print_report(report: Report) -> None:
    for problem in report.problems:
        print(f"oracle: {problem}")
    for failure in report.failed_ops:
        print(f"failed op: {failure}")
    print("context: " + json.dumps(report.context, sort_keys=True))
    width = max(len(name) for name in report.metrics)
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    for name, seconds in sorted(report.layer_seconds.items()):
        if seconds:
            print(f"  {name:<{width}}  {seconds:>16.6g}  s")
    print(report.result_line())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, work_dir)
        report = measure(workload, args.seed, args.seconds, bool(args.trace), STARTED)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    declared = declared_metrics(bool(args.trace))
    emitted = {name: unit for name, (_value, unit) in report.metrics.items()}
    if emitted != declared:
        print(f"perfbench: metrics {sorted(set(emitted.items()) ^ set(declared.items()))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    print_report(report)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
