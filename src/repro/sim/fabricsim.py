"""Fabric-level simulation of a placed-and-routed design.

The fabric simulator reuses the LE-level lowering of
:mod:`repro.sim.lesim` and annotates every routed net with the delay the
timing model derives from its routed tree, so the simulated behaviour reflects
the implementation on the fabric (LE delays + interconnection-matrix delay +
routed wire delays + programmed PDE delays).  Tokens go through it like
through any other simulator: ``drive(circuit, simulate_on_fabric(result),
tokens)`` (:func:`repro.sim.handshake.drive`).

QDI circuits are delay-insensitive, and a micropipeline is meant to be
protected by its matched delays, so routing should not change functional
results.  Nothing checks that in general.  The only fabric-simulation tests
(``tests/test_integration_paper.py``) run the two full adders.  No flow
stage re-checks a PDE against its routed datapath, and with routed wire
delays 4 of the 13 registry micropipeline circuits latch wrong tokens on at
least one of placement seeds 1-3 (ROADMAP item 7).
"""

from __future__ import annotations

from repro.cad.flow import FlowResult
from repro.cad.timing import IM_DELAY_PS, LE_DELAY_PS, routed_net_delay
from repro.core.fabric import Fabric
from repro.core.rrgraph import cached_rr_graph
from repro.sim.lesim import simulate_mapped_design
from repro.sim.netsim import GateLevelSimulator


def routed_net_delays(result: FlowResult) -> dict[str, int]:
    """Per-net routed delay (ps) from a flow result that includes routing."""
    if result.routing is None:
        return {}
    # The flow routed on the shared graph of this geometry; reuse it.
    graph = cached_rr_graph(Fabric(result.architecture))
    return {
        net: routed_net_delay(graph, routed.nodes)
        for net, routed in result.routing.routed.items()
    }


def simulate_on_fabric(result: FlowResult, trace_all: bool = False) -> GateLevelSimulator:
    """A simulator of the mapped design with routed wire delays applied."""
    return simulate_mapped_design(
        result.mapped,
        le_delay_ps=LE_DELAY_PS + IM_DELAY_PS,
        extra_net_delays=routed_net_delays(result),
        trace_all=trace_all,
    )
