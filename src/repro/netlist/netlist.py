"""Flat gate-level netlists.

A :class:`Netlist` holds :class:`Cell` instances (instantiations of library
:class:`~repro.netlist.celltypes.CellType`) connected by :class:`Net` objects.
Top-level ports are modelled as named nets flagged as primary inputs or
outputs.

The representation is deliberately flat (no hierarchy): the designs the paper
considers are small, and the CAD flow operates on flat netlists anyway.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.netlist.celltypes import CellType, Library, STANDARD_LIBRARY


class PortDirection(enum.Enum):
    """Direction of a top-level port."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass
class Net:
    """A single-driver signal.

    ``driver`` is ``None`` for primary inputs and for not-yet-connected nets;
    otherwise it is a ``(cell_name, output_pin)`` tuple.  ``sinks`` is the set
    of ``(cell_name, input_pin)`` tuples reading the net.
    """

    name: str
    driver: tuple[str, str] | None = None
    sinks: set[tuple[str, str]] = field(default_factory=set)
    is_primary_input: bool = False
    is_primary_output: bool = False

    @property
    def fanout(self) -> int:
        return len(self.sinks) + (1 if self.is_primary_output else 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Net({self.name!r}, driver={self.driver}, sinks={sorted(self.sinks)})"


@dataclass
class Cell:
    """An instance of a library cell type.

    ``connections`` maps pin names (both inputs and outputs) to net names.
    """

    name: str
    cell_type: CellType
    connections: dict[str, str] = field(default_factory=dict)
    attributes: dict[str, object] = field(default_factory=dict)

    @property
    def type_name(self) -> str:
        return self.cell_type.name

    def input_nets(self) -> dict[str, str]:
        return {pin: self.connections[pin] for pin in self.cell_type.inputs if pin in self.connections}

    def output_nets(self) -> dict[str, str]:
        return {pin: self.connections[pin] for pin in self.cell_type.outputs if pin in self.connections}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cell({self.name!r}, {self.type_name})"


class Netlist:
    """A flat, single-driver-checked gate-level netlist."""

    def __init__(self, name: str, library: Library | None = None) -> None:
        self.name = name
        self.library = library if library is not None else STANDARD_LIBRARY
        self.cells: dict[str, Cell] = {}
        self.nets: dict[str, Net] = {}
        self._port_order: list[tuple[str, PortDirection]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_net(self, name: str) -> Net:
        """Create (or return the existing) net called *name*."""
        if name not in self.nets:
            self.nets[name] = Net(name=name)
        return self.nets[name]

    def add_port(self, name: str, direction: PortDirection) -> Net:
        """Declare a top-level port; the backing net is created if needed."""
        net = self.add_net(name)
        if direction is PortDirection.INPUT:
            if net.driver is not None:
                raise ValueError(f"net {name!r} already driven; cannot be a primary input")
            net.is_primary_input = True
        else:
            net.is_primary_output = True
        if (name, direction) not in self._port_order:
            self._port_order.append((name, direction))
        return net

    def add_cell(
        self,
        name: str,
        cell_type: CellType | str,
        connections: Mapping[str, str],
        **attributes: object,
    ) -> Cell:
        """Instantiate a cell and connect its pins to the named nets.

        All input and output pins of the cell type must be present in
        *connections*.  Nets are created on demand.
        """
        if name in self.cells:
            raise ValueError(f"duplicate cell name {name!r}")
        if isinstance(cell_type, str):
            cell_type = self.library.get(cell_type)
        missing = [
            pin
            for pin in tuple(cell_type.inputs) + tuple(cell_type.outputs)
            if pin not in connections
        ]
        if missing:
            raise ValueError(f"cell {name!r} ({cell_type.name}): unconnected pins {missing}")
        unknown = [pin for pin in connections if pin not in cell_type.inputs and pin not in cell_type.outputs]
        if unknown:
            raise ValueError(f"cell {name!r} ({cell_type.name}): unknown pins {unknown}")

        cell = Cell(name=name, cell_type=cell_type, connections=dict(connections), attributes=dict(attributes))
        self.cells[name] = cell

        for pin in cell_type.inputs:
            net = self.add_net(connections[pin])
            net.sinks.add((name, pin))
        for pin in cell_type.outputs:
            net = self.add_net(connections[pin])
            if net.driver is not None:
                raise ValueError(
                    f"net {net.name!r} already driven by {net.driver}; cannot also be driven by {name}.{pin}"
                )
            if net.is_primary_input:
                raise ValueError(f"net {net.name!r} is a primary input; it cannot be driven by {name}.{pin}")
            net.driver = (name, pin)
        return cell

    def remove_cell(self, name: str) -> None:
        """Remove a cell, detaching it from its nets (nets are kept)."""
        cell = self.cells.pop(name)
        for pin, net_name in cell.connections.items():
            net = self.nets[net_name]
            net.sinks.discard((name, pin))
            if net.driver == (name, pin):
                net.driver = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def primary_inputs(self) -> list[str]:
        return [name for name, direction in self._port_order if direction is PortDirection.INPUT]

    @property
    def primary_outputs(self) -> list[str]:
        return [name for name, direction in self._port_order if direction is PortDirection.OUTPUT]

    def net(self, name: str) -> Net:
        return self.nets[name]

    def cell(self, name: str) -> Cell:
        return self.cells[name]

    def driver_of(self, net_name: str) -> tuple[Cell, str] | None:
        """The (cell, output pin) driving a net, or ``None`` for primary inputs."""
        net = self.nets[net_name]
        if net.driver is None:
            return None
        cell_name, pin = net.driver
        return self.cells[cell_name], pin

    def sinks_of(self, net_name: str) -> list[tuple[Cell, str]]:
        net = self.nets[net_name]
        return [(self.cells[cell_name], pin) for cell_name, pin in sorted(net.sinks)]

    def cell_count(self, type_name: str | None = None) -> int:
        if type_name is None:
            return len(self.cells)
        return sum(1 for cell in self.cells.values() if cell.type_name == type_name)

    def cell_histogram(self) -> dict[str, int]:
        """Count of instances per cell type name."""
        histogram: dict[str, int] = {}
        for cell in self.cells.values():
            histogram[cell.type_name] = histogram.get(cell.type_name, 0) + 1
        return dict(sorted(histogram.items()))

    def sequential_cells(self) -> list[Cell]:
        return [cell for cell in self.cells.values() if cell.cell_type.is_sequential]

    def total_area(self) -> float:
        """Sum of the abstract area of every instance."""
        return sum(cell.cell_type.area for cell in self.cells.values())

    def iter_cells(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def iter_nets(self) -> Iterator[Net]:
        return iter(self.nets.values())

    # ------------------------------------------------------------------
    # Graph utilities
    # ------------------------------------------------------------------
    def fanin_cells(self, cell: Cell) -> list[Cell]:
        """Cells driving the inputs of *cell* (primary inputs excluded)."""
        result = []
        for net_name in cell.input_nets().values():
            driver = self.driver_of(net_name)
            if driver is not None:
                result.append(driver[0])
        return result

    def fanout_cells(self, cell: Cell) -> list[Cell]:
        """Cells reading any output of *cell*."""
        result = []
        for net_name in cell.output_nets().values():
            for sink_cell, _pin in self.sinks_of(net_name):
                result.append(sink_cell)
        return result

    def topological_order(self, ignore_sequential_feedback: bool = True) -> list[Cell]:
        """Cells in topological order of the combinational dependency graph.

        Sequential cells (C-elements, latches) naturally sit on feedback loops;
        when *ignore_sequential_feedback* is true their outputs are treated as
        graph sources so the remaining combinational logic can be ordered.  A
        purely combinational loop raises ``ValueError``.
        """
        indegree: dict[str, int] = {name: 0 for name in self.cells}
        dependents: dict[str, list[str]] = {name: [] for name in self.cells}

        for cell in self.cells.values():
            for net_name in cell.input_nets().values():
                driver = self.driver_of(net_name)
                if driver is None:
                    continue
                driver_cell, _pin = driver
                if ignore_sequential_feedback and driver_cell.cell_type.is_sequential:
                    continue
                indegree[cell.name] += 1
                dependents[driver_cell.name].append(cell.name)

        ready = sorted(name for name, degree in indegree.items() if degree == 0)
        order: list[Cell] = []
        while ready:
            name = ready.pop(0)
            order.append(self.cells[name])
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
            ready.sort()

        if len(order) != len(self.cells):
            remaining = sorted(set(self.cells) - {cell.name for cell in order})
            raise ValueError(f"combinational loop involving cells: {remaining}")
        return order

    def stats(self) -> dict[str, object]:
        """Summary statistics used by reports and tests."""
        return {
            "name": self.name,
            "cells": len(self.cells),
            "nets": len(self.nets),
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
            "sequential_cells": len(self.sequential_cells()),
            "area": self.total_area(),
            "histogram": self.cell_histogram(),
        }

    def copy(self, name: str | None = None) -> "Netlist":
        """A deep, independent copy of the netlist."""
        clone = Netlist(name or self.name, library=self.library)
        for port_name, direction in self._port_order:
            clone.add_port(port_name, direction)
        for cell in self.cells.values():
            clone.add_cell(cell.name, cell.cell_type, dict(cell.connections), **dict(cell.attributes))
        # Preserve nets with no connection (rare, but keep fidelity).
        for net_name in self.nets:
            clone.add_net(net_name)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Netlist({self.name!r}, cells={len(self.cells)}, nets={len(self.nets)})"


def merge_netlists(name: str, parts: Iterable[Netlist], prefix_nets: bool = False) -> Netlist:
    """Merge several netlists into one.

    Ports and nets with identical names are unified (this is how the circuit
    generators stitch stages together).  When *prefix_nets* is true, internal
    net and cell names are prefixed with the part's name to avoid collisions.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_netlists needs at least one part")
    merged = Netlist(name, library=parts[0].library)
    for part in parts:
        io_names = set(part.primary_inputs) | set(part.primary_outputs)
        rename = {}
        if prefix_nets:
            rename = {
                net_name: f"{part.name}.{net_name}"
                for net_name in part.nets
                if net_name not in io_names
            }
        for port_name in part.primary_inputs:
            if port_name not in merged.primary_outputs:
                # A port driven by another part becomes internal.
                driven_elsewhere = any(
                    port_name in other.primary_outputs for other in parts if other is not part
                )
                if not driven_elsewhere:
                    merged.add_port(port_name, PortDirection.INPUT)
        for port_name in part.primary_outputs:
            merged.add_port(port_name, PortDirection.OUTPUT)
        for cell in part.iter_cells():
            cell_name = f"{part.name}.{cell.name}" if prefix_nets else cell.name
            connections = {
                pin: rename.get(net_name, net_name) for pin, net_name in cell.connections.items()
            }
            merged.add_cell(cell_name, cell.cell_type, connections, **dict(cell.attributes))
    return merged
