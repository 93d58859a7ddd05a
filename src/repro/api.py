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
* :func:`simulate_circuit` -- push a token sequence through a QDI (dual-rail
  or 1-of-4) or micropipeline full adder (gate level or mapped) and return
  the results.

The same sweeps are available from the shell as ``repro-sweep``
(:mod:`repro.cli`); ``docs/sweep.md`` and ``docs/flow.md`` are the longer
walk-throughs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cad.flow import CadFlow, FlowOptions, FlowResult
from repro.circuits.fulladder import micropipeline_full_adder, qdi_full_adder, reference_sum_carry
from repro.core.params import ArchitectureParams
from repro.sweep.runner import RunnerConfig, SweepReport, SweepRunner
from repro.sweep.spec import SweepSpec
from repro.sweep.store import SweepResultStore
from repro.sim.handshake import drive
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

    ``style`` is any :meth:`~repro.styles.base.LogicStyle.from_name` name of
    the dual-rail QDI (``"qdi"``), 1-of-4 QDI (``"1-of-4"``) or
    micropipeline (``"micropipeline"``, ``"bundled-data"``) style.
    """
    factory, _ = _full_adder(style)
    return run_flow(factory(), architecture, options)


#: Per style: the paper's full adder, and the token an ``(a, b, cin)`` triple
#: becomes on its input channels.
_FULL_ADDERS = {
    LogicStyle.QDI_DUAL_RAIL: (qdi_full_adder, lambda a, b, c: {"a": a, "b": b, "cin": c}),
    LogicStyle.QDI_ONE_OF_FOUR: (
        lambda: qdi_full_adder(encoding="1-of-4"),
        lambda a, b, c: {"ab": a | b << 1, "cin": c},
    ),
    LogicStyle.MICROPIPELINE: (
        micropipeline_full_adder,
        lambda a, b, c: {"abc": a | b << 1 | c << 2},
    ),
}


def _full_adder(style: str) -> tuple[Callable[[], StyledCircuit], Callable[..., dict[str, int]]]:
    """The :data:`_FULL_ADDERS` entry of the style *style* names."""
    try:
        return _FULL_ADDERS[LogicStyle.from_name(style)]
    except KeyError:
        raise ValueError(f"unknown style {style!r}") from None


def run_sweep(
    circuits: Iterable[str] | None = None,
    architectures: Iterable[ArchitectureParams] | ArchitectureParams | None = None,
    options: Iterable[FlowOptions] | FlowOptions | None = None,
    store: SweepResultStore | str | os.PathLike[str] | None = None,
    config: RunnerConfig = RunnerConfig(),
    placement_cache: bool = True,
    artifacts: str | os.PathLike[str] | None = None,
) -> SweepReport:
    """Run a (circuit × architecture × options) grid through the batch engine.

    The last four parameters are :class:`~repro.sweep.SweepRunner`'s own.

    Parameters
    ----------
    circuits:
        Registry names (see :func:`repro.circuits.registry.circuit_registry`);
        ``None`` sweeps the full registry.
    architectures, options:
        Grid axes; single values or iterables, defaulting to the reference
        architecture with default flow options.
    store:
        The content-addressed result store, or the directory of one.
        Repeated sweeps are served from it, and successful placements are
        cached alongside the summaries, with the packed designs they
        placed, so a routing-only option change re-routes without
        re-mapping or re-placing (the summary then carries
        ``placement_cache_hit``).
    config:
        How the misses execute (:class:`~repro.sweep.RunnerConfig`): the
        backend and its worker count, the per-point timeout, retries and
        their backoff, fail-fast and the fallback ladder
        (``docs/robustness.md``).  The default runs serially, one attempt
        per point.
    placement_cache:
        Set ``False`` to disable placement caching / incremental re-route
        while keeping the summary cache.
    artifacts:
        Directory of a stage-artifact store: each executed flow then
        checkpoints its stage boundaries there for bitstream re-rendering,
        lint audits and resumes (see ``docs/artifacts.md``).  Summaries and
        cache keys are unaffected.

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
    return SweepRunner(store, config, placement_cache, artifacts).run(spec)


def reproduce_filling_ratios(
    architecture: ArchitectureParams | None = None,
) -> list[dict[str, object]]:
    """The Section 5 experiment: filling ratios of both full adders.

    Returns one row per style with the measured filling ratio and the paper's
    reported value for comparison.  Runs through the sweep engine serially,
    which is bit-identical to the single-flow path.
    """
    paper_values = {
        LogicStyle.MICROPIPELINE.value: 0.51,
        LogicStyle.QDI_DUAL_RAIL.value: 0.76,
    }
    report = run_sweep(
        circuits=("micropipeline_full_adder", "qdi_full_adder"),
        architectures=architecture if architecture is not None else ArchitectureParams(),
        options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False),
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

    ``style`` names the adder as :func:`map_full_adder` does.
    ``use_mapped=True`` simulates the LE-level mapped design (i.e. the circuit
    as configured on the fabric) instead of the gate-level netlist.
    """
    vectors = vectors or [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    factory, token = _full_adder(style)
    circuit = factory()
    if use_mapped:
        from repro.cad.techmap import template_map

        simulator = simulate_mapped_design(template_map(circuit))
    else:
        simulator = GateLevelSimulator(circuit.netlist)
    run = drive(circuit, simulator, [token(*vector) for vector in vectors])
    if circuit.style is LogicStyle.MICROPIPELINE:
        results = [(out["sc"] & 1, out["sc"] >> 1) for out in run.outputs]
    else:
        results = [(out["sum"], out["cout"]) for out in run.outputs]
    sums = [total for total, _ in results]
    carries = [carry for _, carry in results]

    expected = [reference_sum_carry(*vector) for vector in vectors]
    correct = sums == [s for s, _ in expected] and carries == [c for _, c in expected]
    return SimulationOutcome(
        circuit=circuit.name,
        style=circuit.style.value,
        inputs=list(vectors),
        sums=sums,
        carries=carries,
        correct=correct,
        simulated_time_ps=run.end_time_ps,
    )
