"""Netlist-tier lint rules: ``NET*`` structure, ``QDI*`` protocol, ``MP*`` timing.

The ``NET*`` rules check netlist structure (undriven and dangling nets,
unused inputs, combinational loops) and the dataflow cones; the ``QDI*``
rules encode the paper's quasi-delay-insensitive structural discipline;
``MP001`` bounds every micropipeline matched delay against a static
estimate of the logic depth it covers.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import TYPE_CHECKING, Iterator

from repro.asynclogic.protocols import TimingClass
from repro.netlist.celltypes import STATE_VARIABLE
from repro.styles.base import LogicStyle
from repro.verify.core import (
    ERROR,
    WARNING,
    Finding,
    LintConfig,
    LintContext,
    LintRule,
    register,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.celltypes import CellType
    from repro.netlist.netlist import Netlist
    from repro.styles.base import StyledCircuit


# ======================================================================
# Shared helpers
# ======================================================================
def _fanin_nets(netlist: "Netlist", roots: set[str]) -> set[str]:
    """All nets in the transitive fan-in of *roots* (roots included)."""
    seen: set[str] = set()
    frontier = deque(root for root in roots if root in netlist.nets)
    while frontier:
        net = frontier.popleft()
        if net in seen:
            continue
        seen.add(net)
        driver = netlist.driver_of(net)
        if driver is None:
            continue
        cell, _pin = driver
        frontier.extend(cell.input_nets().values())
    return seen


def _cells_reaching(netlist: "Netlist", targets: set[str]) -> set[str]:
    """Names of cells whose output cone reaches some net in *targets*."""
    reaching: set[str] = set()
    frontier = deque(net for net in targets if net in netlist.nets)
    seen_nets: set[str] = set()
    while frontier:
        net = frontier.popleft()
        if net in seen_nets:
            continue
        seen_nets.add(net)
        driver = netlist.driver_of(net)
        if driver is None:
            continue
        cell, _pin = driver
        if cell.name not in reaching:
            reaching.add(cell.name)
            frontier.extend(cell.input_nets().values())
    return reaching


def _combinational_cycle(netlist: "Netlist") -> list[str]:
    """One actual cycle (cell-name path) of the combinational graph, or [].

    Mirrors the edge semantics of ``Netlist.topological_order``: outputs of
    sequential cells are graph sources, so only purely combinational loops
    count.
    """
    indegree: dict[str, int] = {name: 0 for name in netlist.cells}
    successors: dict[str, list[str]] = {name: [] for name in netlist.cells}
    for cell in netlist.cells.values():
        for net_name in cell.input_nets().values():
            driver = netlist.driver_of(net_name)
            if driver is None:
                continue
            driver_cell, _pin = driver
            if driver_cell.cell_type.is_sequential:
                continue
            indegree[cell.name] += 1
            successors[driver_cell.name].append(cell.name)
    ready = deque(sorted(name for name, degree in indegree.items() if degree == 0))
    visited = 0
    while ready:
        name = ready.popleft()
        visited += 1
        for successor in successors[name]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    remaining = {name for name, degree in indegree.items() if degree > 0}
    if visited == len(netlist.cells) or not remaining:
        return []
    # Walk successor edges inside the remaining set until a cell repeats;
    # the suffix from its first occurrence is a genuine cycle.
    path: list[str] = []
    index_of: dict[str, int] = {}
    current = min(remaining)
    while current not in index_of:
        index_of[current] = len(path)
        path.append(current)
        current = min(s for s in successors[current] if s in remaining)
    return path[index_of[current] :]


def _binate_pins(cell_type: "CellType") -> set[str]:
    """Input pins of *cell_type* that are binate in some output function."""
    binate: set[str] = set()
    for table in cell_type.tables.values():
        names = [name for name in table.inputs if name != STATE_VARIABLE]
        for pin in names:
            others = [name for name in table.inputs if name != pin]
            positive = True
            negative = True
            for bits in product((0, 1), repeat=len(others)):
                assignment = dict(zip(others, bits))
                low = table.evaluate({**assignment, pin: 0})
                high = table.evaluate({**assignment, pin: 1})
                if low > high:
                    positive = False
                if high > low:
                    negative = False
            if not positive and not negative:
                binate.add(pin)
    return binate


_BINATE_CACHE: dict[str, set[str]] = {}


def binate_pins(cell_type: "CellType") -> set[str]:
    if cell_type.name not in _BINATE_CACHE:
        _BINATE_CACHE[cell_type.name] = _binate_pins(cell_type)
    return _BINATE_CACHE[cell_type.name]


def _is_qdi(styled: "StyledCircuit") -> bool:
    return styled.info.timing_class is TimingClass.QDI


def _delay_of(cell) -> int:
    """Effective delay of a cell instance (``delay`` attribute wins)."""
    return int(cell.attributes.get("delay", cell.cell_type.delay))


# ======================================================================
# NET*: structural rules (the historical validate.py set + dataflow cones)
# ======================================================================
@register
class UndrivenNetRule(LintRule):
    code = "NET001"
    name = "undriven-net"
    tier = "netlist"
    severity = ERROR
    description = "Every net with sinks is driven by a cell or a primary input."
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for net in context.netlist.iter_nets():
            if net.driver is None and not net.is_primary_input and net.sinks:
                yield self.finding(
                    f"net {net.name!r} has sinks but no driver and is not a primary input",
                    location=f"net {net.name}",
                )


@register
class DanglingNetRule(LintRule):
    code = "NET002"
    name = "dangling-net"
    tier = "netlist"
    severity = WARNING
    description = "Driven nets are read by something or exported as outputs."
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for net in context.netlist.iter_nets():
            if net.driver is not None and not net.sinks and not net.is_primary_output:
                yield self.finding(
                    f"net {net.name!r} is driven but read by nothing",
                    location=f"net {net.name}",
                )


@register
class UndrivenOutputRule(LintRule):
    code = "NET003"
    name = "undriven-output"
    tier = "netlist"
    severity = ERROR
    description = "Every primary output is driven (or fed through from an input)."
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for name in context.netlist.primary_outputs:
            net = context.netlist.net(name)
            if net.driver is None and not net.is_primary_input:
                yield self.finding(
                    f"primary output {name!r} is not driven",
                    location=f"port {name}",
                )


@register
class UnusedInputRule(LintRule):
    code = "NET004"
    name = "unused-input"
    tier = "netlist"
    severity = WARNING
    description = "Every primary input is read by some cell or exported."
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for name in context.netlist.primary_inputs:
            net = context.netlist.net(name)
            if not net.sinks and not net.is_primary_output:
                yield self.finding(
                    f"primary input {name!r} is not read",
                    location=f"port {name}",
                )


@register
class CombinationalLoopRule(LintRule):
    code = "NET005"
    name = "combinational-loop"
    tier = "netlist"
    severity = ERROR
    description = "No combinational cycle bypasses every state-holding cell."
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        cycle = _combinational_cycle(context.netlist)
        if cycle:
            path = " -> ".join(cycle + [cycle[0]])
            yield self.finding(
                f"combinational loop: {path}",
                location=f"cell {cycle[0]}",
            )


@register
class ConstantConeRule(LintRule):
    code = "NET006"
    name = "constant-cone"
    tier = "netlist"
    severity = WARNING
    description = "No combinational cell computes a constant from live inputs."
    requires = ("netlist",)

    #: Bail-out bound on distinct unknown input nets per cell (library
    #: arity is <= 4, so this is never hit in practice).
    max_unknowns = 6

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        netlist = context.netlist
        try:
            order = netlist.topological_order(ignore_sequential_feedback=True)
        except ValueError:
            return  # NET005 owns combinational loops
        constants: dict[str, int] = {}
        for cell in order:
            if cell.cell_type.is_sequential:
                continue
            input_nets = cell.input_nets()
            unknowns = sorted(
                {net for net in input_nets.values() if net not in constants}
            )
            if len(unknowns) > self.max_unknowns:
                continue
            outputs_constant = True
            for pin, table in cell.cell_type.tables.items():
                values: set[int] = set()
                for bits in product((0, 1), repeat=len(unknowns)):
                    net_value = dict(zip(unknowns, bits))
                    net_value.update(constants)
                    assignment = {
                        name: net_value[input_nets[name]] for name in table.inputs
                    }
                    values.add(table.evaluate(assignment))
                    if len(values) > 1:
                        break
                if len(values) == 1:
                    constants[cell.connections[pin]] = values.pop()
                else:
                    outputs_constant = False
            if outputs_constant and unknowns:
                yield self.finding(
                    f"cell {cell.name} ({cell.type_name}) computes a constant "
                    "despite non-constant inputs",
                    location=f"cell {cell.name}",
                )


@register
class UnreachableConeRule(LintRule):
    code = "NET007"
    name = "unreachable-cone"
    tier = "netlist"
    severity = WARNING
    description = "Every cell's output cone reaches some primary output."
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        netlist = context.netlist
        targets = set(netlist.primary_outputs)
        reaching = _cells_reaching(netlist, targets)
        for name in sorted(set(netlist.cells) - reaching):
            yield self.finding(
                f"cell {name} reaches no primary output",
                location=f"cell {name}",
            )


@register
class IsochronicForkRule(LintRule):
    code = "NET008"
    name = "isochronic-fork"
    tier = "netlist"
    severity = WARNING
    description = (
        "Net fanout stays within the isochronic-fork bound (wide forks make "
        "the QDI isochronicity assumption physically implausible)."
    )
    requires = ("netlist",)

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        limit = config.isochronic_fanout_limit
        for net in context.netlist.iter_nets():
            if len(net.sinks) > limit:
                yield self.finding(
                    f"net {net.name!r} forks to {len(net.sinks)} sinks "
                    f"(isochronic bound {limit})",
                    location=f"net {net.name}",
                )


# ======================================================================
# QDI*: quasi-delay-insensitive protocol rules
# ======================================================================
class QDIRule(LintRule):
    tier = "netlist"
    requires = ("netlist", "styled")

    def applies(self, context: LintContext) -> bool:
        return _is_qdi(context.styled)


@register
class DualRailPairRule(QDIRule):
    code = "QDI001"
    name = "dual-rail-pair"
    severity = ERROR
    description = (
        "Every data rail of every channel exists and is driven or a primary "
        "input, so no codeword can be half-present."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        netlist = context.netlist
        styled = context.styled
        for channel in list(styled.input_channels) + list(styled.output_channels):
            for wire in channel.data_wires():
                if wire not in netlist.nets:
                    yield self.finding(
                        f"channel {channel.name}: data rail {wire!r} is not a net",
                        location=f"channel {channel.name}",
                    )
                    continue
                net = netlist.net(wire)
                if net.driver is None and not net.is_primary_input:
                    yield self.finding(
                        f"channel {channel.name}: data rail {wire!r} is neither "
                        "driven nor a primary input",
                        location=f"net {wire}",
                    )


@register
class CompletionCoverageRule(QDIRule):
    code = "QDI002"
    name = "completion-coverage"
    severity = ERROR
    description = (
        "Every generated acknowledge depends (transitively) on every output "
        "data rail — completion detection covers the whole codeword."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        netlist = context.netlist
        styled = context.styled
        required = {
            wire
            for channel in styled.output_channels
            for wire in channel.data_wires()
            if wire in netlist.nets
        }
        if not required:
            return
        generated = sorted(
            {
                ack
                for ack in styled.ack_nets.values()
                if ack in netlist.nets and netlist.driver_of(ack) is not None
            }
        )
        for ack in generated:
            fanin = _fanin_nets(netlist, {ack})
            missing = sorted(required - fanin)
            if missing:
                yield self.finding(
                    f"ack net {ack!r}: completion detection misses output "
                    f"rails {missing}",
                    location=f"net {ack}",
                )


@register
class AckReachabilityRule(QDIRule):
    code = "QDI003"
    name = "ack-reachability"
    severity = ERROR
    description = (
        "Every cell reaches a primary output or a generated acknowledge/"
        "request net; anything else is dead handshake logic."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        netlist = context.netlist
        styled = context.styled
        targets = set(netlist.primary_outputs)
        for net in list(styled.ack_nets.values()) + list(styled.req_nets.values()):
            if net in netlist.nets and netlist.driver_of(net) is not None:
                targets.add(net)
        reaching = _cells_reaching(netlist, targets)
        for name in sorted(set(netlist.cells) - reaching):
            yield self.finding(
                f"cell {name} reaches no primary output or handshake net",
                location=f"cell {name}",
            )


@register
class HazardGateRule(QDIRule):
    code = "QDI004"
    name = "hazard-gate"
    severity = WARNING
    description = (
        "QDI logic avoids binate (non-monotonic) gates outside state-holding "
        "cells — XOR-class gates can glitch during a codeword transition."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for cell in context.netlist.iter_cells():
            if cell.cell_type.is_sequential:
                continue
            pins = binate_pins(cell.cell_type)
            if pins:
                yield self.finding(
                    f"cell {cell.name} ({cell.type_name}) is binate in "
                    f"pin(s) {sorted(pins)} and may glitch",
                    location=f"cell {cell.name}",
                )


# ======================================================================
# MP*: micropipeline (bundled-data) rules
# ======================================================================
@register
class MatchedDelayRule(LintRule):
    code = "MP001"
    name = "matched-delay"
    tier = "netlist"
    severity = ERROR
    description = (
        "Every matched-delay element is at least as slow as the statically "
        "estimated depth of the datapath logic it covers."
    )
    requires = ("netlist", "styled")

    #: Latch input pins that carry control, not data.
    control_pins = frozenset({"en"})

    def applies(self, context: LintContext) -> bool:
        return context.styled.style is LogicStyle.MICROPIPELINE

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        netlist = context.netlist
        try:
            order = netlist.topological_order(ignore_sequential_feedback=True)
        except ValueError:
            return  # NET005 owns combinational loops
        arrival: dict[str, float] = {name: 0.0 for name in netlist.primary_inputs}
        for cell in order:
            if cell.cell_type.is_sequential or cell.type_name == "DELAY":
                for net in cell.output_nets().values():
                    arrival[net] = 0.0
                continue
            depth = max(
                (arrival.get(net, 0.0) for net in cell.input_nets().values()),
                default=0.0,
            ) + cell.cell_type.delay
            for net in cell.output_nets().values():
                arrival[net] = depth
        data_depths = [
            arrival.get(net, 0.0)
            for cell in netlist.iter_cells()
            if cell.cell_type.is_sequential
            for pin, net in cell.input_nets().items()
            if pin not in self.control_pins
        ]
        if not data_depths:
            data_depths = [arrival.get(net, 0.0) for net in netlist.primary_outputs]
        data_depth = max(data_depths, default=0.0)
        for cell in netlist.iter_cells():
            if cell.type_name != "DELAY":
                continue
            delay = _delay_of(cell)
            if delay < data_depth:
                yield self.finding(
                    f"matched delay {delay} ps on cell {cell.name} is below "
                    f"the estimated datapath depth {data_depth:.0f} ps",
                    location=f"cell {cell.name}",
                )
