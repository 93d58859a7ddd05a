"""High-level convenience API.

These helpers wrap the most common end-to-end uses of the library in one call
each, so the examples and quick interactive experiments stay short:

* :func:`map_full_adder` -- run the paper's Figure 3 experiment for one style.
* :func:`reproduce_filling_ratios` -- the Section 5 headline numbers for both
  styles in one table.
* :func:`run_flow` -- run the full CAD flow on any styled circuit.
* :func:`run_sweep` -- run a (circuit × architecture × options) grid through
  the batch sweep engine: pluggable executor backends, content-addressed
  result caching, and incremental re-route from cached placements.
* :func:`simulate_circuit` -- push a token sequence through a QDI or
  micropipeline full adder (gate level or mapped) and return the results.

The same sweeps are available from the shell as ``repro-sweep``
(:mod:`repro.cli`); ``docs/sweep.md`` and ``docs/flow.md`` are the longer
walk-throughs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable

from repro.cad.flow import CadFlow, FlowOptions, FlowResult
from repro.circuits.fulladder import micropipeline_full_adder, qdi_full_adder, reference_sum_carry
from repro.core.params import ArchitectureParams
from repro.sweep.runner import RetryPolicy, RunnerConfig, SweepReport, SweepRunner
from repro.sweep.spec import SweepSpec
from repro.sim.handshake import (
    FourPhaseBundledConsumer,
    FourPhaseBundledProducer,
    FourPhaseDualRailProducer,
    HandshakeHarness,
    PassiveDualRailConsumer,
)
from repro.sim.lesim import simulate_mapped_design
from repro.sim.netsim import GateLevelSimulator
from repro.styles.base import LogicStyle, StyledCircuit


def run_flow(
    circuit: StyledCircuit,
    architecture: ArchitectureParams | None = None,
    options: FlowOptions | None = None,
) -> FlowResult:
    """Run the complete CAD flow (map, pack, place, route, bitstream) once."""
    flow = CadFlow(architecture, options)
    return flow.run(circuit)


def map_full_adder(
    style: str = "qdi",
    architecture: ArchitectureParams | None = None,
    options: FlowOptions | None = None,
) -> FlowResult:
    """Reproduce the paper's full-adder mapping for one style.

    ``style`` accepts ``"qdi"`` / ``"dual-rail"`` / ``"1-of-4"`` /
    ``"micropipeline"`` / ``"bundled-data"``.
    """
    normalised = style.lower()
    if normalised in ("qdi", "dual-rail", "qdi-dual-rail"):
        circuit = qdi_full_adder()
    elif normalised in ("1-of-4", "qdi-1-of-4"):
        circuit = qdi_full_adder(encoding="1-of-4")
    elif normalised in ("micropipeline", "bundled-data", "bundled"):
        circuit = micropipeline_full_adder()
    else:
        raise ValueError(f"unknown style {style!r}")
    return run_flow(circuit, architecture, options)


def run_sweep(
    circuits: Iterable[str] | None = None,
    architectures: Iterable[ArchitectureParams] | ArchitectureParams | None = None,
    options: Iterable[FlowOptions] | FlowOptions | None = None,
    workers: int = 1,
    cache_dir: str | os.PathLike[str] | None = None,
    executor: str | None = None,
    placement_cache: bool = True,
    routing_cache: bool = False,
    artifact_dir: str | os.PathLike[str] | None = None,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.0,
    fail_fast: bool = False,
    fallback: Iterable[str] = (),
) -> SweepReport:
    """Run a (circuit × architecture × options) grid through the batch engine.

    Parameters
    ----------
    circuits:
        Registry names (see :func:`repro.circuits.registry.circuit_registry`);
        ``None`` sweeps the full registry.
    architectures, options:
        Grid axes; single values or iterables, defaulting to the reference
        architecture with default flow options.
    workers:
        Pool size for the parallel backends; without an explicit ``executor``,
        ``workers > 1`` selects the process backend and ``<= 1`` runs serial.
    cache_dir:
        Directory of the content-addressed result store.  Repeated sweeps are
        served from it, and successful placements are cached alongside the
        summaries so a routing-only option change re-routes without
        re-placing (the summary then carries ``placement_cache_hit``).
    executor:
        Backend name -- ``"serial"``, ``"thread"``, ``"process"`` or anything
        registered via :func:`repro.sweep.register_executor`.
    placement_cache:
        Set ``False`` to disable placement caching / incremental re-route
        while keeping the summary cache.
    routing_cache:
        Set ``True`` to additionally cache legal routed trees and warm-start
        PathFinder across channel-width and grid-size ladders (quality-gated
        but not bit-identical to cold routing; see ``docs/sweep.md``).
    artifact_dir:
        Directory of a stage-artifact store: each executed flow then
        checkpoints its stage boundaries there for bitstream re-rendering,
        lint audits and resumes (see ``docs/artifacts.md``).  Summaries and
        cache keys are unaffected.
    timeout:
        Per-point wall-clock budget in seconds; overruns record
        ``status="timeout"`` and are never cached (``docs/robustness.md``).
    retries:
        Total attempts per point for transient failures and timeouts
        (``1`` = no retries); maps to
        :attr:`repro.sweep.RetryPolicy.max_attempts`.
    backoff:
        Base delay in seconds of the deterministic exponential backoff
        between attempts; ``0`` retries immediately.
    fail_fast:
        Stop submitting after the first non-ok point; the rest of the grid
        records ``status="skipped"``.
    fallback:
        Opt-in executor degradation ladder (e.g. ``("thread", "serial")``)
        engaged after repeated worker-pool failures.

    Returns
    -------
    SweepReport
        Per-point outcomes (:meth:`~repro.sweep.SweepReport.rows`,
        :meth:`~repro.sweep.SweepReport.summaries`) plus cache hit/miss
        counters (:meth:`~repro.sweep.SweepReport.stats`).
    """
    if circuits is None:
        spec = SweepSpec.full_registry(architectures, options)
    else:
        spec = SweepSpec.build(
            circuits,
            architectures if architectures is not None else ArchitectureParams(),
            options,
        )
    config = RunnerConfig.from_workers(workers, executor)
    config = replace(
        config,
        timeout_s=timeout,
        retry=RetryPolicy(max_attempts=max(1, int(retries)), backoff_s=backoff),
        fail_fast=fail_fast,
        fallback=tuple(fallback),
    )
    runner = SweepRunner(
        store=cache_dir,
        config=config,
        placement_cache=placement_cache,
        routing_cache=routing_cache,
        artifacts=str(artifact_dir) if artifact_dir is not None else None,
    )
    return runner.run(spec)


def reproduce_filling_ratios(
    architecture: ArchitectureParams | None = None,
    workers: int = 1,
    cache_dir: str | os.PathLike[str] | None = None,
) -> list[dict[str, object]]:
    """The Section 5 experiment: filling ratios of both full adders.

    Returns one row per style with the measured filling ratio and the paper's
    reported value for comparison.  Runs through the sweep engine (serial by
    default, which is bit-identical to the single-flow path; pass ``workers``
    / ``cache_dir`` to parallelise or cache).
    """
    paper_values = {
        LogicStyle.MICROPIPELINE.value: 0.51,
        LogicStyle.QDI_DUAL_RAIL.value: 0.76,
    }
    report = run_sweep(
        circuits=("micropipeline_full_adder", "qdi_full_adder"),
        architectures=architecture if architecture is not None else ArchitectureParams(),
        options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False),
        workers=workers,
        cache_dir=cache_dir,
    )
    rows: list[dict[str, object]] = []
    for outcome in report.outcomes:
        if not outcome.ok or outcome.summary is None:
            raise RuntimeError(
                f"filling-ratio flow failed for {outcome.point.circuit!r}: {outcome.error}"
            )
        summary = outcome.summary
        style_name = summary["style"]
        rows.append(
            {
                "style": style_name,
                "measured_filling_ratio": summary.get("filling_ratio"),
                "paper_filling_ratio": paper_values.get(style_name),
                "les": summary["les"],
                "plbs": summary["plbs"],
                "pdes": summary["pdes"],
            }
        )
    return rows


@dataclass
class SimulationOutcome:
    """Result of :func:`simulate_circuit`."""

    circuit: str
    style: str
    inputs: list[tuple[int, int, int]]
    sums: list[int]
    carries: list[int]
    correct: bool
    simulated_time_ps: int


def simulate_circuit(
    style: str = "qdi",
    vectors: list[tuple[int, int, int]] | None = None,
    use_mapped: bool = False,
) -> SimulationOutcome:
    """Push full-adder operand triples through a simulated implementation.

    ``use_mapped=True`` simulates the LE-level mapped design (i.e. the circuit
    as configured on the fabric) instead of the gate-level netlist.
    """
    vectors = vectors or [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    normalised = style.lower()

    if normalised.startswith("qdi") or normalised == "dual-rail":
        circuit = qdi_full_adder()
        if use_mapped:
            from repro.cad.techmap import template_map

            simulator = simulate_mapped_design(template_map(circuit))
        else:
            simulator = GateLevelSimulator(circuit.netlist)
        producers = [
            FourPhaseDualRailProducer(circuit.channel("a"), [v[0] for v in vectors], "ack"),
            FourPhaseDualRailProducer(circuit.channel("b"), [v[1] for v in vectors], "ack"),
            FourPhaseDualRailProducer(circuit.channel("cin"), [v[2] for v in vectors], "ack"),
        ]
        sum_consumer = PassiveDualRailConsumer(circuit.channel("sum"), "ack")
        carry_consumer = PassiveDualRailConsumer(circuit.channel("cout"), "ack")
        harness = HandshakeHarness(simulator, producers + [sum_consumer, carry_consumer])
        end_time = harness.run()
        sums, carries = sum_consumer.received, carry_consumer.received
    elif normalised in ("micropipeline", "bundled-data", "bundled"):
        circuit = micropipeline_full_adder()
        if use_mapped:
            from repro.cad.techmap import template_map

            simulator = simulate_mapped_design(template_map(circuit))
        else:
            simulator = GateLevelSimulator(circuit.netlist)
        input_channel = circuit.input_channels[0]
        output_channel = circuit.output_channels[0]
        encoded = [a | (b << 1) | (c << 2) for a, b, c in vectors]
        producer = FourPhaseBundledProducer(input_channel, encoded, input_channel.ack_wire)
        consumer = FourPhaseBundledConsumer(
            output_channel, output_channel.req_wire, output_channel.ack_wire
        )
        harness = HandshakeHarness(simulator, [producer, consumer])
        end_time = harness.run()
        sums = [value & 1 for value in consumer.received]
        carries = [(value >> 1) & 1 for value in consumer.received]
    else:
        raise ValueError(f"unknown style {style!r}")

    expected = [reference_sum_carry(*vector) for vector in vectors]
    correct = sums == [s for s, _ in expected] and carries == [c for _, c in expected]
    return SimulationOutcome(
        circuit=circuit.name,
        style=circuit.style.value,
        inputs=list(vectors),
        sums=sums,
        carries=carries,
        correct=correct,
        simulated_time_ps=end_time,
    )
