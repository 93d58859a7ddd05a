"""Convenience builder for gate-level netlists.

:class:`NetlistBuilder` wraps :class:`~repro.netlist.netlist.Netlist` with one
method per common gate so circuit generators read naturally::

    b = NetlistBuilder("half_adder")
    a, bq = b.inputs("a", "b")
    s = b.xor2(a, bq, out="sum")
    c = b.and2(a, bq, out="carry")
    b.outputs("sum", "carry")
    netlist = b.build()

Every gate method returns the name of the output net, so calls compose.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.netlist.celltypes import Library, STANDARD_LIBRARY
from repro.netlist.netlist import Netlist, PortDirection


class NetlistBuilder:
    """Incrementally build a :class:`Netlist` with auto-generated names."""

    def __init__(self, name: str, library: Library | None = None) -> None:
        self.netlist = Netlist(name, library=library or STANDARD_LIBRARY)
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Ports and nets
    # ------------------------------------------------------------------
    def input(self, name: str) -> str:
        self.netlist.add_port(name, PortDirection.INPUT)
        return name

    def inputs(self, *names: str) -> tuple[str, ...]:
        return tuple(self.input(name) for name in names)

    def output(self, name: str) -> str:
        self.netlist.add_port(name, PortDirection.OUTPUT)
        return name

    def outputs(self, *names: str) -> tuple[str, ...]:
        return tuple(self.output(name) for name in names)

    def net(self, name: str | None = None, hint: str = "n") -> str:
        """Return *name*, or a fresh unique net name derived from *hint*."""
        if name is not None:
            self.netlist.add_net(name)
            return name
        while True:
            candidate = f"{hint}{next(self._counter)}"
            if candidate not in self.netlist.nets:
                self.netlist.add_net(candidate)
                return candidate

    def _unique_cell_name(self, hint: str) -> str:
        while True:
            candidate = f"{hint}_{next(self._counter)}"
            if candidate not in self.netlist.cells:
                return candidate

    # ------------------------------------------------------------------
    # Generic gate instantiation
    # ------------------------------------------------------------------
    def gate(
        self,
        type_name: str,
        inputs: Sequence[str],
        out: str | None = None,
        name: str | None = None,
        **attributes: object,
    ) -> str:
        """Instantiate a single-output library gate and return its output net."""
        cell_type = self.netlist.library.get(type_name)
        if len(cell_type.outputs) != 1:
            raise ValueError(f"gate() only supports single-output cells, not {type_name}")
        if len(inputs) != len(cell_type.inputs):
            raise ValueError(
                f"{type_name} expects {len(cell_type.inputs)} inputs, got {len(inputs)}"
            )
        out_net = out if out is not None else self.net(hint=type_name.lower())
        if out is not None:
            self.netlist.add_net(out)
        cell_name = name if name is not None else self._unique_cell_name(type_name.lower())
        connections = dict(zip(cell_type.inputs, inputs))
        connections[cell_type.outputs[0]] = out_net
        self.netlist.add_cell(cell_name, cell_type, connections, **attributes)
        return out_net

    # ------------------------------------------------------------------
    # Named helpers for the common gates
    # ------------------------------------------------------------------
    def inv(self, a: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("INV", [a], out=out, name=name)

    def buf(self, a: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("BUF", [a], out=out, name=name)

    def and2(self, a: str, b: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("AND2", [a, b], out=out, name=name)

    def or2(self, a: str, b: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("OR2", [a, b], out=out, name=name)

    def xor2(self, a: str, b: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("XOR2", [a, b], out=out, name=name)

    def xor3(self, a: str, b: str, c: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("XOR3", [a, b, c], out=out, name=name)

    def maj3(self, a: str, b: str, c: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("MAJ3", [a, b, c], out=out, name=name)

    def mux2(self, s: str, d0: str, d1: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("MUX2", [s, d0, d1], out=out, name=name)

    def c2(self, a: str, b: str, out: str | None = None, name: str | None = None) -> str:
        """Two-input Muller C-element."""
        return self.gate("C2", [a, b], out=out, name=name)

    def c3(self, a: str, b: str, c: str, out: str | None = None, name: str | None = None) -> str:
        """Three-input Muller C-element."""
        return self.gate("C3", [a, b, c], out=out, name=name)

    def c2r(self, a: str, b: str, reset: str, out: str | None = None, name: str | None = None) -> str:
        """Two-input C-element with dominant reset."""
        return self.gate("C2R", [a, b, reset], out=out, name=name)

    def latch(self, d: str, en: str, out: str | None = None, name: str | None = None) -> str:
        """Transparent latch (transparent when *en* is high)."""
        return self.gate("LATCH", [d, en], out=out, name=name)

    def sr_latch(self, s: str, r: str, out: str | None = None, name: str | None = None) -> str:
        return self.gate("SRLATCH", [s, r], out=out, name=name)

    def or_tree(self, nets: Iterable[str], out: str | None = None, hint: str = "ortree") -> str:
        """An OR reduction tree over an arbitrary number of nets."""
        nets = list(nets)
        if not nets:
            raise ValueError("or_tree needs at least one net")
        while len(nets) > 1:
            next_level = []
            for index in range(0, len(nets) - 1, 2):
                target = out if (len(nets) == 2 and out is not None) else None
                next_level.append(self.or2(nets[index], nets[index + 1], out=target))
            if len(nets) % 2:
                next_level.append(nets[-1])
            nets = next_level
        if out is not None and nets[0] != out:
            return self.buf(nets[0], out=out)
        return nets[0]

    def c_tree(self, nets: Iterable[str], out: str | None = None) -> str:
        """A Muller C-element reduction tree (joint completion of many signals)."""
        nets = list(nets)
        if not nets:
            raise ValueError("c_tree needs at least one net")
        while len(nets) > 1:
            next_level = []
            for index in range(0, len(nets) - 1, 2):
                target = out if (len(nets) == 2 and out is not None) else None
                next_level.append(self.c2(nets[index], nets[index + 1], out=target))
            if len(nets) % 2:
                next_level.append(nets[-1])
            nets = next_level
        if out is not None and nets[0] != out:
            return self.buf(nets[0], out=out)
        return nets[0]

    def build(self) -> Netlist:
        """Return the underlying netlist."""
        return self.netlist
