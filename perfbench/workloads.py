"""The benchmark's workloads: fixed op lists derived from ``--seed``.

A workload is one *cycle* of ops, repeated.  Every op is deterministic, so
each repetition of a cycle reproduces the same summaries bit for bit, and a
run's counts depend on ``--seed`` alone.

``--seed`` picks every placement seed from the circuit's :data:`POOLS`
entry; the program only ever sees the generated :class:`FlowOptions`.  A
pool holds the seeds from 1-30 on which the circuit, on every fabric its
workload runs it on,

* routes within the router's first 30-iteration attempt: an op near the
  iteration limit would flip between success and failure on unrelated
  router changes, and no op of a workload may fail;
* ran within 20 % of the circuit's median time over those seeds, or within
  10 % for the heavy circuits that appear only once or twice per cycle:
  placement seeds change an op's cost by 2-4x, which a handful of ops per
  cycle cannot average out, and the spread between seeds must stay well
  inside the regression bounds.

The pools were measured on the commit that introduced the benchmark.  A
circuit that runs as many seeds as its pool holds runs the whole pool; the
seed then varies the other circuits' placements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import repro.circuits.registry as registry
import repro.sweep.runner as runner_module
from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.generate import recommended_fabric
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, RoutingParams
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepPoint
from repro.verify.lint import lint_flow_artifacts
from repro.styles.base import StyledCircuit

from spans import Tracer

#: Placement seeds per workload and circuit, chosen as the module docstring says.
POOLS: dict[str, dict[str, tuple[int, ...]]] = {
    "flow_mix": {
        "qdi_full_adder": (6, 7, 8, 9, 11, 12, 18, 22, 23, 26, 27),
        "micropipeline_full_adder": (1, 5, 6, 7, 8, 9, 11, 12, 18, 22, 23, 26, 27, 29),
        "wchb_fifo_8": (1, 5, 7, 11, 12, 18, 22, 23, 26, 27, 29),
        "qdi_multiplier_2x2": (5, 18, 26, 27, 29),
        "qdi_ripple_adder_8": (7, 8, 11, 26, 29),
        "gen:mult8x8@micropipeline": (6, 7, 11, 22, 23),
    },
    "flow_timing": {
        "qdi_ripple_adder_2": (5, 6, 8, 16, 18, 22),
        "qdi_ripple_adder_4": (8, 9, 14, 18, 19, 27),
        "qdi_multiplier_2x2": (5,),
        "wchb_fifo_8": (5, 6, 9, 11, 12, 22),
    },
    "sweep_ladder": {
        "qdi_multiplier_2x2": (6, 9, 12),
        "qdi_ripple_adder_4": (2, 5, 12, 20),
        "wchb_fifo_8": (6, 7, 8, 12),
        "micropipeline_full_adder": (8, 9, 12, 18),
    },
}


def derive(seed: int, *parts: object) -> int:
    """A 64-bit integer derived from *seed* and *parts* (sha256, stable)."""
    text = ":".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def pick_seeds(seed: int, workload: str, circuit: str, count: int) -> list[int]:
    """*count* placement seeds for *circuit*, drawn from its pool."""
    rng = random.Random(derive(seed, workload, circuit))
    return sorted(rng.sample(POOLS[workload][circuit], count))


def fabric(side: int, channel_width: int, io_pads_per_side: int | None = None) -> ArchitectureParams:
    routing = RoutingParams(channel_width=channel_width)
    if io_pads_per_side is not None:
        routing = dataclasses.replace(routing, io_pads_per_side=io_pads_per_side)
    return ArchitectureParams(width=side, height=side, routing=routing)


@dataclass
class OpSample:
    """One op as the client saw it."""

    label: str
    seconds: float
    ok: bool
    summary: dict | None
    kernel: str | None
    error: str | None = None


@dataclass
class Cycle:
    samples: list[OpSample]
    wall_s: float
    #: Wall time of the sweep's all-hit rerun (0 for flow workloads).
    hit_pass_s: float = 0.0
    #: Oracle findings made while the cycle ran (sweep hit != cold).
    problems: list[str] = field(default_factory=list)
    #: ``(label, circuit, flow, result)`` per flow op, when the caller asked to keep them.
    kept: list[tuple] = field(default_factory=list)


def _failure(exc: Exception) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# Flow workloads: build_circuit + CadFlow.run, one client, closed loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowOp:
    circuit: str
    #: ``None``: size the fabric with ``recommended_fabric`` on the very
    #: instance that runs (it restamps ``mapped.params``, so a fabric sized
    #: from another instance fails the flow's stale-mapping check).
    architecture: ArchitectureParams | None
    options: FlowOptions

    @property
    def label(self) -> str:
        arch = self.architecture
        where = (
            "recommended"
            if arch is None
            else f"{arch.width}x{arch.height}/cw{arch.routing.channel_width}"
            f"/io{arch.routing.io_pads_per_side}"
        )
        return f"{self.circuit}@{where}/s{self.options.placement_seed}"


def run_flow_op(op: FlowOp):
    """One op exactly as a user runs it: ``(circuit, flow, result)``."""
    circuit = registry.build_circuit(op.circuit)
    architecture = op.architecture or recommended_fabric(circuit)
    flow = CadFlow(architecture, op.options)
    return circuit, flow, flow.run(circuit)


class FlowWorkload:
    def __init__(self, name: str, ops: list[FlowOp], nominal_cycle_s: float) -> None:
        self.name = name
        self.ops = ops
        #: Warm cycle time measured when the benchmark was defined; sets how
        #: many cycles fill --seconds without making the count depend on speed.
        self.nominal_cycle_s = nominal_cycle_s

    def construct(self) -> None:
        """Circuit and fabric construction for every op (a set-up step)."""
        for op in self.ops:
            circuit = registry.build_circuit(op.circuit)
            Fabric(op.architecture or recommended_fabric(circuit))

    def run_cycle(self, tracer: Tracer, keep: bool = False) -> Cycle:
        samples: list[OpSample] = []
        kept: list[tuple] = []
        start = time.perf_counter()
        for op in self.ops:
            error = None
            result = None
            with tracer.op(op.label) as timing:
                try:
                    circuit, flow, result = run_flow_op(op)
                except Exception as exc:  # a failed op is counted, not fatal
                    error = _failure(exc)
            summary = result.summary() if result is not None else None
            ok = summary is not None and bool(summary.get("routing_success"))
            samples.append(
                OpSample(op.label, timing["seconds"], ok, summary,
                         result.kernel if result is not None else None, error)
            )
            if keep and result is not None:
                kept.append((op.label, circuit, flow, result))
        return Cycle(samples, time.perf_counter() - start, kept=kept)

    def lint(self, kept: list[tuple]) -> dict[str, list[str]]:
        """Lint errors per op label (routing legality + bitstream decode)."""
        problems: dict[str, list[str]] = {}
        for label, circuit, flow, result in kept:
            styled = circuit if isinstance(circuit, StyledCircuit) else getattr(
                circuit, "gate_circuit", None
            )
            report = lint_flow_artifacts(
                result, flow, styled=styled if isinstance(styled, StyledCircuit) else None
            )
            errors = [str(f) for f in report.findings if f.severity == "error"]
            if errors:
                problems[label] = errors
        return problems


# ----------------------------------------------------------------------
# Sweep workload: SweepRunner over a channel-width ladder
# ----------------------------------------------------------------------
def _point_label(payload: dict) -> str:
    routing = payload["architecture"]["routing"]
    return (
        f"{payload['circuit']}@cw{routing['channel_width']}"
        f"/s{payload['options']['placement_seed']}"
    )


class SweepWorkload:
    def __init__(
        self, name: str, points: list[SweepPoint], work_dir: Path, nominal_cycle_s: float
    ) -> None:
        self.name = name
        self.points = points
        self.work_dir = work_dir
        self.nominal_cycle_s = nominal_cycle_s
        self._cycles = 0

    def construct(self) -> None:
        for point in self.points:
            registry.build_circuit(point.circuit)
            Fabric(point.architecture)

    def run_cycle(self, tracer: Tracer, keep: bool = False) -> Cycle:
        """A cold pass into a fresh store, then an all-hit rerun."""
        store = self.work_dir / f"store-{self._cycles}"
        self._cycles += 1
        samples: list[OpSample] = []
        execute_point = runner_module.execute_point

        def timed_execute_point(payload):
            label = _point_label(payload)
            with tracer.op(label) as timing:
                record = execute_point(payload)
            summary = record.get("summary")
            ok = record.get("status") == "ok" and bool(
                summary and summary.get("routing_success")
            )
            error = record.get("error")
            samples.append(
                OpSample(label, timing["seconds"], ok, summary, record.get("kernel"),
                         f"{error['type']}: {error['message']}" if error else None)
            )
            return record

        # The runner looks execute_point up as a module global per wave, so
        # this is the op boundary seen from outside the point.
        runner_module.execute_point = timed_execute_point
        try:
            runner = SweepRunner(store=str(store))
            start = time.perf_counter()
            cold = runner.run(self.points)
            middle = time.perf_counter()
            hit = runner.run(self.points)
            end = time.perf_counter()
        finally:
            runner_module.execute_point = execute_point
        shutil.rmtree(store)

        problems = []
        if hit.cache_hits != len(self.points):
            problems.append(
                f"all-hit rerun served {hit.cache_hits}/{len(self.points)} points from the store"
            )
        for cold_outcome, hit_outcome in zip(cold.outcomes, hit.outcomes):
            if cold_outcome.summary != hit_outcome.summary:
                problems.append(
                    f"{cold_outcome.point.label()}: hit-pass summary differs from cold pass"
                )
        return Cycle(samples, end - start, hit_pass_s=end - middle, problems=problems)

    def lint(self, kept: list[tuple]) -> dict[str, list[str]]:
        return {}


# ----------------------------------------------------------------------
# The three workloads (why each was chosen: BENCHMARK.json)
# ----------------------------------------------------------------------
def _flow_ops(seed: int, workload: str, plan, options: FlowOptions) -> list[FlowOp]:
    ops = []
    for circuit, architecture, count in plan:
        for placement_seed in pick_seeds(seed, workload, circuit, count):
            ops.append(
                FlowOp(circuit, architecture,
                       dataclasses.replace(options, placement_seed=placement_seed))
            )
    return ops


def flow_mix(seed: int) -> FlowWorkload:
    # Cheap circuits get most of the seeds: many latency samples without
    # dominating the cycle's wall time.  The counts put the median inside
    # the full-adder/FIFO latency band and the tail percentile (p87 of 78
    # samples) inside the 2x2 multiplier's, never on the edge between two
    # bands, where it would jump.
    plan = [
        ("micropipeline_full_adder", fabric(6, 10), 6),
        ("qdi_full_adder", fabric(6, 10), 6),
        ("wchb_fifo_8", fabric(6, 10), 8),
        ("qdi_multiplier_2x2", fabric(6, 10), 4),
        ("qdi_ripple_adder_8", fabric(6, 10, io_pads_per_side=6), 1),
        ("gen:mult8x8@micropipeline", None, 1),
    ]
    return FlowWorkload("flow_mix", _flow_ops(seed, "flow_mix", plan, FlowOptions()), 6.7)


def flow_timing(seed: int) -> FlowWorkload:
    # The cheap circuits run their whole pool and put the median among
    # them; the tail percentile (p72 of 36 samples) falls among the 4-bit
    # adders.  The multiplier's seed fails the first timing-driven routing
    # rung, so every cycle runs the fallback ladder.
    plan = [
        ("wchb_fifo_8", fabric(6, 10), 6),
        ("qdi_ripple_adder_2", fabric(4, 10, io_pads_per_side=6), 6),
        ("qdi_ripple_adder_4", fabric(5, 10, io_pads_per_side=6), 5),
        ("qdi_multiplier_2x2", fabric(6, 10), 1),
    ]
    options = FlowOptions(timing_driven=True)
    return FlowWorkload("flow_timing", _flow_ops(seed, "flow_timing", plan, options), 10.0)


#: The sweep's channel-width ladder on a 6x6 fabric.  It starts at 10:
#: at width 8 qdi_multiplier_2x2 fails to route on almost every seed.
LADDER_WIDTHS = (10, 11, 12, 13, 14)
#: Circuit -> placement seeds per circuit.  The two cheap circuits run
#: their whole pool of four seeds, so the median latency falls well inside
#: the band of fast re-routed FIFO points instead of on its edge, where it
#: would jump; the seed varies the multiplier and 4-bit adder placements.
LADDER_CIRCUITS = {
    "qdi_multiplier_2x2": 2,
    "qdi_ripple_adder_4": 2,
    "wchb_fifo_8": 4,
    "micropipeline_full_adder": 4,
}


def sweep_ladder(seed: int, work_dir: Path) -> SweepWorkload:
    points = [
        SweepPoint(circuit, fabric(6, width), FlowOptions(placement_seed=placement_seed))
        for circuit, count in LADDER_CIRCUITS.items()
        for placement_seed in pick_seeds(seed, "sweep_ladder", circuit, count)
        for width in LADDER_WIDTHS
    ]
    return SweepWorkload("sweep_ladder", points, work_dir, 9.0)


def build(name: str, seed: int, work_dir: Path):
    if name == "flow_mix":
        return flow_mix(seed)
    if name == "flow_timing":
        return flow_timing(seed)
    if name == "sweep_ladder":
        return sweep_ladder(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
