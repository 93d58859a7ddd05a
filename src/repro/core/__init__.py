"""The paper's contribution: the multi-style asynchronous FPGA architecture.

Everything in this package models Section 3 of the paper:

* :mod:`~repro.core.params` -- the architecture parameter set
  (:class:`ArchitectureParams`) describing the island-style grid, the PLB and
  the LE.  The defaults match the paper: two LEs per PLB, a LUT7-3 plus a
  LUT2-1 per LE, one programmable delay element per PLB.
* :mod:`~repro.core.lut` -- single- and multi-output LUT configuration models.
* :mod:`~repro.core.le` -- the Logic Element of Figure 2.
* :mod:`~repro.core.pde` -- the Programmable Delay Element.
* :mod:`~repro.core.im` -- the PLB-internal Interconnection Matrix (a
  crossbar), through which LUT outputs can be looped back to implement
  memory elements such as Muller gates.
* :mod:`~repro.core.plb` -- the Programmable Logic Block of Figure 1.
* :mod:`~repro.core.switchbox` / :mod:`~repro.core.connectionbox` -- the
  routing-network switch points.
* :mod:`~repro.core.fabric` -- the island-style fabric: a grid of PLB tiles
  surrounded by IO blocks, with horizontal/vertical routing channels.
* :mod:`~repro.core.rrgraph` -- the routing-resource graph derived from the
  fabric, consumed by the router.
* :mod:`~repro.core.layout` -- the bit layout of one PLB configuration
  region, through which the bitstream is encoded and audited.
* :mod:`~repro.core.bitstream` -- configuration-bit budgeting, encoding and
  decoding.
* :mod:`~repro.core.stats` -- fabric-level statistics used by the
  architecture-figure experiments.
"""

from repro.core.params import ArchitectureParams, LEParams, PLBParams, RoutingParams
from repro.core.lut import LUT, MultiOutputLUT
from repro.core.le import LEConfig, LogicElement
from repro.core.pde import PDEConfig, ProgrammableDelayElement
from repro.core.im import InterconnectionMatrix, IMConfig
from repro.core.plb import PLB, PLBConfig
from repro.core.fabric import Fabric, Tile, TileType
from repro.core.rrgraph import RoutingResourceGraph, RRNode, RRNodeType
from repro.core.bitstream import Bitstream, BitstreamBudget
from repro.core.layout import PLBLayout
from repro.core.stats import fabric_statistics

__all__ = [
    "ArchitectureParams",
    "LEParams",
    "PLBParams",
    "RoutingParams",
    "LUT",
    "MultiOutputLUT",
    "LogicElement",
    "LEConfig",
    "ProgrammableDelayElement",
    "PDEConfig",
    "InterconnectionMatrix",
    "IMConfig",
    "PLB",
    "PLBConfig",
    "Fabric",
    "Tile",
    "TileType",
    "RoutingResourceGraph",
    "RRNode",
    "RRNodeType",
    "Bitstream",
    "BitstreamBudget",
    "PLBLayout",
    "fabric_statistics",
]
