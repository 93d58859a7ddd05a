"""Gate-level netlist substrate.

The CAD flow and the simulators consume designs expressed as flat gate-level
netlists:

* :mod:`~repro.netlist.celltypes` -- the primitive gate library.  It contains
  ordinary combinational gates (AND/OR/XOR/...), and the asynchronous
  primitives the paper's styles rely on: Muller C-elements (symmetric and
  asymmetric), transparent latches and set/reset latches.  Sequential cells
  are described by next-state truth tables whose state variable is the cell's
  own output, mirroring how the target architecture implements them (a LUT
  output looped back through the PLB interconnection matrix).
* :mod:`~repro.netlist.netlist` -- :class:`Cell`, :class:`Net` and
  :class:`Netlist`, a flat multi-driver-checked netlist with named top-level
  ports.
* :mod:`~repro.netlist.builder` -- a convenience builder with one method per
  library gate.
* :mod:`~repro.netlist.verilog` -- structural-Verilog export (for inspection
  and interoperability).
* :mod:`~repro.netlist.dot` -- Graphviz export used by the examples.

Structural lint checks (dangling nets, undriven nets, combinational loops
outside state cells, ...) are the ``NET*`` rules of :mod:`repro.verify`.
"""

from repro.netlist.celltypes import CellType, Library, standard_library
from repro.netlist.netlist import Cell, Net, Netlist, PortDirection
from repro.netlist.builder import NetlistBuilder
from repro.netlist.verilog import to_verilog
from repro.netlist.dot import to_dot

__all__ = [
    "CellType",
    "Library",
    "standard_library",
    "Cell",
    "Net",
    "Netlist",
    "PortDirection",
    "NetlistBuilder",
    "to_verilog",
    "to_dot",
]
