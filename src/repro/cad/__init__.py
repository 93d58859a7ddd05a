"""The CAD flow: mapping, packing, placement, routing, timing and metrics.

The flow takes a gate-level circuit produced by :mod:`repro.styles` (or any
:class:`~repro.netlist.netlist.Netlist`) down to a configured fabric:

1. **Technology mapping** (:mod:`~repro.cad.techmap`) produces a
   :class:`~repro.cad.lemap.MappedDesign`: a set of LE-level functions
   (LUT7-3 outputs, LUT2-1 validity functions, programmable-delay
   assignments).  Two mappers are provided: a *template* mapper that uses the
   known structure of each logic style (this is what reproduces the paper's
   Figure 3 mappings and filling ratios) and a *generic* cone-based mapper for
   arbitrary netlists (used by the baselines and the ablation experiments).
2. **Packing** (:mod:`~repro.cad.pack`) groups LEs two-per-PLB under the PLB
   pin and interconnection-matrix constraints and attaches delay elements.
3. **Placement** (:mod:`~repro.cad.place`) assigns PLBs to fabric sites and
   primary IOs to pads using simulated annealing on the half-perimeter
   wirelength (optionally blended with criticality-weighted bounding-box
   delay in timing-driven mode).
4. **Routing** (:mod:`~repro.cad.route`) is a negotiated-congestion
   (PathFinder) router over the fabric's routing-resource graph, with
   A*-accelerated searches and optional timing-driven costs.
5. **Timing** (:mod:`~repro.cad.timing`), **metrics**
   (:mod:`~repro.cad.metrics`, including the paper's *filling ratio*) and
   **bitstream generation** complete the flow.

:class:`~repro.cad.flow.CadFlow` chains all the steps and returns a
:class:`~repro.cad.flow.FlowResult`.
"""

from repro.cad.lemap import LEFunction, MappedDesign, MappedLE, MappedPDE, MappedPLB
from repro.cad.techmap import template_map, generic_map
from repro.cad.pack import pack_design
from repro.cad.place import NetCostCache, Placement, TimingObjective, place_design
from repro.cad.route import RoutingResult, refine_critical_nets, route_design
from repro.cad.timing import TimingEngine, TimingReport, analyse_timing
from repro.cad.metrics import FillingRatioReport, filling_ratio, utilisation_report
from repro.cad.flow import CadFlow, FlowOptions, FlowResult

__all__ = [
    "LEFunction",
    "MappedLE",
    "MappedPDE",
    "MappedPLB",
    "MappedDesign",
    "template_map",
    "generic_map",
    "pack_design",
    "place_design",
    "Placement",
    "NetCostCache",
    "TimingObjective",
    "route_design",
    "refine_critical_nets",
    "RoutingResult",
    "TimingEngine",
    "TimingReport",
    "analyse_timing",
    "filling_ratio",
    "FillingRatioReport",
    "utilisation_report",
    "CadFlow",
    "FlowOptions",
    "FlowResult",
]
