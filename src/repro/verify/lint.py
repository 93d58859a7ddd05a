"""Lint orchestration: build a :class:`LintContext` from circuits or flows.

Two entry points:

* :func:`lint_circuit` — lint a registry circuit (by name or object), a
  styled circuit, a raw netlist or a mapped design.  With ``stages=True``
  the full CAD flow runs on a :func:`repro.circuits.generate.recommended_fabric`
  so the stage and bitstream tiers get real artifacts to audit.
* :func:`lint_flow_artifacts` — audit the artifacts of an already executed
  :class:`~repro.cad.flow.FlowResult`: the lint gate to run after
  ``CadFlow.run`` (pass the styled circuit to add the netlist tier).
* :func:`lint_stored_artifacts` — audit a
  :class:`~repro.artifacts.StoredFlowArtifacts` view rehydrated from an
  artifact store, re-deriving the fabric, RR graph, bitstream and per-PLB
  configurations from the stored payloads; this is what ``repro-lint
  --artifacts DIR`` runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.verify.core import LintConfig, LintContext, LintReport, run_rules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.artifacts import StoredFlowArtifacts
    from repro.cad.flow import CadFlow, FlowResult
    from repro.styles.base import StyledCircuit


def _resolve(circuit):
    """Accept a registry name or any circuit-like object."""
    if isinstance(circuit, str):
        from repro.circuits.registry import build_circuit

        return build_circuit(circuit)
    return circuit


def build_context(circuit, name: str | None = None) -> LintContext:
    """A static (no-flow) :class:`LintContext` for *circuit*.

    Styled circuits contribute their gate netlist; benchmark circuits
    contribute their mapped design; raw netlists and mapped designs
    contribute themselves.
    """
    from repro.cad.lemap import MappedDesign
    from repro.netlist.netlist import Netlist
    from repro.styles.base import StyledCircuit

    circuit = _resolve(circuit)
    context = LintContext(name=name or getattr(circuit, "name", str(circuit)))
    if isinstance(circuit, StyledCircuit):
        context.styled = circuit
        context.netlist = circuit.netlist
    elif isinstance(circuit, Netlist):
        context.netlist = circuit
    elif isinstance(circuit, MappedDesign):
        context.mapped = circuit
    elif hasattr(circuit, "mapped"):
        context.mapped = circuit.mapped
    else:
        raise TypeError(f"cannot lint object of type {type(circuit).__name__}")
    if context.mapped is not None and not context.mapped.plbs:
        from repro.cad.pack import pack_design

        pack_design(context.mapped)
    return context


def _stage_flow(circuit, context: LintContext) -> "tuple[CadFlow, FlowResult]":
    """Run the full flow on a generously sized fabric for *circuit*."""
    from repro.cad.flow import CadFlow, FlowOptions
    from repro.circuits.generate import recommended_fabric
    from repro.netlist.netlist import Netlist
    from repro.styles.base import StyledCircuit

    if isinstance(circuit, (StyledCircuit, Netlist)):
        # Map once: the fabric is sized from this design and the flow runs it.
        circuit = CadFlow().map(circuit)
    flow = CadFlow(recommended_fabric(circuit, slack=2), FlowOptions())
    result = flow.run(circuit)
    return flow, result


def _fill_from_flow(context: LintContext, flow: "CadFlow", result: "FlowResult") -> None:
    context.mapped = result.mapped
    context.architecture = flow.architecture
    context.fabric = flow.fabric
    context.placement = result.placement
    context.routing = result.routing
    if result.routing is not None:
        context.graph = flow.rr_graph
    context.timing = result.timing
    context.bitstream = result.bitstream
    context.configured_plbs = result.configured_plbs or None


def lint_circuit(
    circuit,
    config: LintConfig | None = None,
    stages: bool = False,
    name: str | None = None,
) -> LintReport:
    """Lint one circuit; with ``stages=True`` also run and audit the flow."""
    resolved = _resolve(circuit)
    context = build_context(resolved, name=name)
    if stages:
        flow, result = _stage_flow(resolved, context)
        _fill_from_flow(context, flow, result)
    return run_rules(context, config)


def lint_flow_artifacts(
    result: "FlowResult",
    flow: "CadFlow",
    styled: "StyledCircuit | None" = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Audit an executed flow's stage artifacts and bitstream.

    The netlist tier runs too when the flow's input had a gate-level view
    (*styled*); otherwise only the stage and bitstream tiers apply.
    """
    context = LintContext(name=result.circuit_name)
    if styled is not None:
        context.styled = styled
        context.netlist = styled.netlist
    _fill_from_flow(context, flow, result)
    return run_rules(context, config)


def lint_stored_artifacts(
    view: "StoredFlowArtifacts",
    config: LintConfig | None = None,
) -> LintReport:
    """Audit one stored flow's stage artifacts without re-running the flow.

    Everything transient is re-derived from the payloads: the fabric and RR
    graph from the stored architecture, the per-PLB configurations from the
    packed design (``configure_plbs`` is pure), and — when no bitstream was
    checkpointed — the bitstream itself from packed + placement.  Rules
    whose inputs are absent from the store are skipped as usual, so a
    shallow checkpoint (e.g. ``mapped`` only) lints what it can.
    """
    from repro.cad.bitgen import configure_plbs
    from repro.core.fabric import Fabric
    from repro.core.rrgraph import RoutingResourceGraph

    context = LintContext(name=view.circuit)
    context.mapped = view.design()
    context.architecture = view.architecture
    fabric = Fabric(view.architecture)
    context.fabric = fabric
    context.placement = view.placement()
    if "routing" in view.payloads:
        graph = RoutingResourceGraph(fabric)
        context.graph = graph
        context.routing = view.routing(graph)
    context.timing = view.timing()
    context.bitstream = view.render_bitstream()
    if (
        context.bitstream is not None
        and context.mapped is not None
        and context.mapped.plbs
    ):
        context.configured_plbs = configure_plbs(context.mapped, view.architecture)
    return run_rules(context, config)
