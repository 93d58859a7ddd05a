#!/usr/bin/env python3
"""Short self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

* every workload, shrunk to a few ops, runs untraced and traced, passes the
  oracle and prints exactly the metrics ``BENCHMARK.json`` names, with their
  units;
* a planted unroutable op (channel width 2) is counted in ``failed`` and
  lowers ``success_rate``;
* ``gen:`` circuits get their fabric from ``recommended_fabric`` on the
  instance that runs: sizing from a second instance of the same spec fails
  the flow's stale-mapping check with ``MappingError``.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402
from repro.cad.flow import CadFlow, FlowOptions  # noqa: E402
from repro.cad.techmap import MappingError  # noqa: E402
from repro.circuits.generate import recommended_fabric  # noqa: E402
from repro.circuits.registry import build_circuit  # noqa: E402

GEN_SPEC = "gen:mult4x4@micropipeline"


def shrink(workload):
    """One op per circuit (flows) or two cheap circuits at two widths (sweep)."""
    if isinstance(workload, workloads.SweepWorkload):
        keep = {"wchb_fifo_8", "micropipeline_full_adder"}
        points = [
            point for point in workload.points
            if point.circuit in keep
            and point.architecture.routing.channel_width in workloads.LADDER_WIDTHS[:2]
        ]
        return workloads.SweepWorkload(workload.name, points, workload.work_dir, 1.0)
    first: dict[str, workloads.FlowOp] = {}
    for op in workload.ops:
        first.setdefault(op.circuit, op)
    ops = [op for op in first.values() if op.circuit != "gen:mult8x8@micropipeline"]
    ops.append(workloads.FlowOp(GEN_SPEC, None, ops[0].options))
    return workloads.FlowWorkload(workload.name, ops, 1.0)


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures: list[str] = []
    run.OUT_DIR = run.OUT_DIR / "selftest"
    work_dir = run.OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    for name in run.WORKLOADS:
        for trace in (False, True):
            workload = shrink(workloads.build(name, run.DEFAULT_SEED, work_dir))
            report = run.measure(workload, run.DEFAULT_SEED, 1.0, trace, time.perf_counter())
            emitted = {metric: unit for metric, (_value, unit) in report.metrics.items()}
            check(report.correct and report.failed == 0,
                  f"{name} trace={int(trace)}: {report.attempted} ops pass the oracle "
                  f"({report.problems[:2]})", failures)
            check(emitted == run.declared_metrics(trace),
                  f"{name} trace={int(trace)}: every declared metric present with its unit",
                  failures)

    flows = shrink(workloads.flow_mix(run.DEFAULT_SEED))
    base = flows.ops[0]
    unroutable = workloads.FlowOp(
        base.circuit, dataclasses.replace(
            base.architecture,
            routing=dataclasses.replace(base.architecture.routing, channel_width=2),
        ), base.options,
    )
    planted = workloads.FlowWorkload("planted", [base, unroutable], 1.0)
    report = run.measure(planted, run.DEFAULT_SEED, 1.0, False, time.perf_counter())
    check(report.failed == report.attempted // 2
          and report.metrics["success_rate"][0] == 0.5,
          f"planted unroutable op counted: failed {report.failed}/{report.attempted}",
          failures)

    _circuit, _flow, result = workloads.run_flow_op(
        workloads.FlowOp(GEN_SPEC, None, FlowOptions())
    )
    check(bool(result.summary()["routing_success"]),
          f"{GEN_SPEC} routes on recommended_fabric of the running instance", failures)
    try:
        CadFlow(recommended_fabric(build_circuit(GEN_SPEC))).run(build_circuit(GEN_SPEC))
        stale = False
    except MappingError:
        stale = True
    check(stale, f"{GEN_SPEC}: a fabric sized from another instance raises MappingError",
          failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
