"""Stage-artifact invariants, shared by ``repro-fuzz`` and ``repro-lint``.

The plain functions in this module are the single source of truth for the
per-stage structural checks: :mod:`repro.fuzz` calls them on the mapped
design and then on the finished ``CadFlow.run`` result (directly, not through
:func:`repro.verify.lint.lint_flow_artifacts`, whose netlist rules would flag
the degenerate netlists it generates on purpose), keeping its failure
signatures and messages byte for byte so the shrunk corpus under
``tests/corpus/`` still replays.  The ``STG*`` lint rules below wrap the same
functions for ``repro-lint`` and ``lint_flow_artifacts``.

Each function returns a list of problem strings (empty = the invariant
holds) or ``None``/``str`` for single-shot checks; they never raise on a
violation.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.verify.core import ERROR, Finding, LintConfig, LintContext, LintRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cad.lemap import MappedDesign
    from repro.cad.place import Placement
    from repro.cad.route import RoutingResult
    from repro.cad.timing import TimingReport
    from repro.core.fabric import Fabric
    from repro.core.rrgraph import RoutingResourceGraph


# ======================================================================
# Shared invariant checks (messages are part of the fuzz-corpus contract)
# ======================================================================
def mapping_problems(mapped: "MappedDesign") -> list[str]:
    """``MappedDesign.validate()`` findings, stringified."""
    return [str(issue) for issue in mapped.validate()]


def le_budget_problems(mapped: "MappedDesign") -> list[str]:
    """LEs that do not fit the architecture's LUT/validity budget."""
    return [
        f"LE {le.name} exceeds the LE budget"
        for le in mapped.les
        if not le.fits(mapped.params)
    ]


def packing_coverage_problem(mapped: "MappedDesign") -> str | None:
    """Every LE packed into exactly one PLB."""
    packed_les = [le.name for plb in mapped.plbs for le in plb.les]
    if sorted(packed_les) != sorted(le.name for le in mapped.les):
        return "packed PLBs do not cover the LEs exactly once"
    return None


def packing_capacity_problems(mapped: "MappedDesign") -> list[str]:
    """PLBs holding more LEs than the architecture allows."""
    return [
        f"PLB {plb.name} holds {len(plb.les)} LEs"
        for plb in mapped.plbs
        if len(plb.les) > mapped.params.les_per_plb
    ]


def placement_problem(
    design: "MappedDesign", placement: "Placement", fabric: "Fabric"
) -> str | None:
    """The placement legally covers the packed design (no double bookings)."""
    if not placement.matches_design(design, fabric):
        return "placement does not legally cover the packed design"
    return None


def routing_problem(
    design: "MappedDesign",
    placement: "Placement",
    graph: "RoutingResourceGraph",
    result: "RoutingResult",
) -> str | None:
    """Routed trees are complete, connected and capacity-respecting."""
    from repro.cad.route import _collect_net_endpoints

    if not result.success:
        return f"routing failed with {result.overused_nodes} overused nodes on a generous fabric"
    sources, sinks, _ = _collect_net_endpoints(design, placement, graph)
    missing = sorted(set(sources) - set(result.routed))
    if missing:
        return f"nets with endpoints never routed: {missing}"
    usage: dict[int, int] = {}
    for routed in result.routed.values():
        tree = set(routed.nodes)
        if routed.source_node not in tree:
            return f"net {routed.net!r}: routed tree misses its source node"
        for sink in routed.sink_nodes:
            if sink not in tree:
                return f"net {routed.net!r}: routed tree misses sink node {sink}"
        # Connectivity: every tree node reachable from the source inside the tree.
        reached = {routed.source_node}
        frontier = deque(reached)
        while frontier:
            node = frontier.popleft()
            for neighbour in graph.node(node).edges:
                if neighbour in tree and neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        if reached != tree:
            return f"net {routed.net!r}: routed tree is disconnected"
        for node in routed.nodes:
            usage[node] = usage.get(node, 0) + 1
    for node, count in usage.items():
        if count > graph.node(node).capacity:
            return (
                f"node {graph.node(node).name!r} used by {count} nets "
                f"(capacity {graph.node(node).capacity})"
            )
    return None


def timing_problem(mapped: "MappedDesign", report: "TimingReport") -> str | None:
    """A mapped design with logic must report a positive cycle time."""
    if mapped.les and report.cycle_time_ps <= 0:
        return f"non-positive cycle time {report.cycle_time_ps}"
    return None


# ======================================================================
# Stage-tier lint rules (STG*)
# ======================================================================
@register
class MapValidRule(LintRule):
    code = "STG001"
    name = "map-valid"
    tier = "stage"
    severity = ERROR
    description = "MappedDesign.validate() reports no structural issues."
    requires = ("mapped",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for problem in mapping_problems(context.mapped):
            yield self.finding(problem)


@register
class LEBudgetRule(LintRule):
    code = "STG002"
    name = "le-budget"
    tier = "stage"
    severity = ERROR
    description = "Every mapped LE fits the architecture's LUT/validity budget."
    requires = ("mapped",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for problem in le_budget_problems(context.mapped):
            yield self.finding(problem)


@register
class PackCoverageRule(LintRule):
    code = "STG003"
    name = "pack-coverage"
    tier = "stage"
    severity = ERROR
    description = "Packed PLBs cover the mapped LEs exactly once."
    requires = ("mapped",)

    def applies(self, context: LintContext) -> bool:
        return bool(context.mapped.plbs)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        problem = packing_coverage_problem(context.mapped)
        if problem:
            yield self.finding(problem)


@register
class PackCapacityRule(LintRule):
    code = "STG004"
    name = "pack-capacity"
    tier = "stage"
    severity = ERROR
    description = "No PLB holds more LEs than the architecture allows."
    requires = ("mapped",)

    def applies(self, context: LintContext) -> bool:
        return bool(context.mapped.plbs)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for problem in packing_capacity_problems(context.mapped):
            yield self.finding(problem)


@register
class PlacementLegalRule(LintRule):
    code = "STG005"
    name = "place-legal"
    tier = "stage"
    severity = ERROR
    description = "The placement legally covers the packed design."
    requires = ("mapped", "placement", "fabric")

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        problem = placement_problem(context.mapped, context.placement, context.fabric)
        if problem:
            yield self.finding(problem)


@register
class RoutingInvariantRule(LintRule):
    code = "STG006"
    name = "route-invariant"
    tier = "stage"
    severity = ERROR
    description = "Routed trees are complete, connected and capacity-respecting."
    requires = ("mapped", "placement", "graph", "routing")

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        problem = routing_problem(
            context.mapped, context.placement, context.graph, context.routing
        )
        if problem:
            yield self.finding(problem)


@register
class CycleTimeRule(LintRule):
    code = "STG007"
    name = "cycle-time"
    tier = "stage"
    severity = ERROR
    description = "Timing analysis reports a positive cycle time."
    requires = ("mapped", "timing")

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        problem = timing_problem(context.mapped, context.timing)
        if problem:
            yield self.finding(problem)
