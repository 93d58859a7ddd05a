"""LE-level simulation of mapped designs.

A :class:`~repro.cad.lemap.MappedDesign` is turned into an ordinary gate-level
netlist whose "gates" are the mapped LEs (one dynamically created cell type
per LE, with one output per LUT/validity function) and whose delay elements
are ``DELAY`` cells.  Feedback (memory-by-looping) simply becomes an input pin
connected to the cell's own output net, which the event-driven simulator
handles naturally.

This lets every piece of simulation infrastructure (handshake harnesses,
checkers, traces) run unchanged on mapped designs, so tests can prove that the
mapping preserved the circuit's behaviour.
"""

from __future__ import annotations

from repro.cad.lemap import MappedDesign, MappedLE
from repro.cad.timing import LE_DELAY_PS
from repro.netlist.celltypes import CellType, STANDARD_LIBRARY
from repro.netlist.netlist import Netlist, PortDirection
from repro.sim.netsim import GateLevelSimulator


def _le_cell_type(le: MappedLE, input_nets: list[str], delay_ps: int) -> CellType:
    """Build a cell type whose outputs reproduce the LE's configured functions.

    Pin naming: input ``p<n>`` reads ``input_nets[n]`` (each distinct input
    net, feedback nets included); outputs are ``q0, q1, ...`` in the order of
    the LE's functions followed by the validity function.
    """
    pin_of_net = {net: f"p{index}" for index, net in enumerate(input_nets)}
    inputs = tuple(pin_of_net[net] for net in input_nets)

    functions = list(le.functions) + ([le.validity] if le.validity is not None else [])
    outputs = tuple(f"q{index}" for index in range(len(functions)))
    tables = {
        f"q{index}": function.table.rename(pin_of_net)
        for index, function in enumerate(functions)
    }
    has_feedback = any(function.has_feedback for function in functions)
    return CellType(
        name=f"LE_{le.name}",
        inputs=inputs,
        outputs=outputs,
        tables=tables,
        delay=delay_ps,
        is_sequential=has_feedback,
        area=4.0,
    )


def mapped_design_to_netlist(
    design: MappedDesign,
    le_delay_ps: int = LE_DELAY_PS,
    extra_net_delays: dict[str, int] | None = None,
) -> Netlist:
    """Lower a mapped design to a simulatable netlist of LE cells.

    ``extra_net_delays`` optionally adds a routed-wire delay on given nets by
    inserting a delay buffer between the producing LE and its consumers (used
    by the fabric-level simulator to account for routing).
    """
    netlist = Netlist(f"{design.name}_mapped", library=STANDARD_LIBRARY)
    for net in design.primary_inputs:
        netlist.add_port(net, PortDirection.INPUT)
    for net in design.primary_outputs:
        netlist.add_port(net, PortDirection.OUTPUT)

    extra_net_delays = dict(extra_net_delays or {})
    renamed_outputs: dict[str, str] = {}

    def delayed(net: str) -> str:
        """The name the producer should drive for *net* (pre-delay buffer)."""
        if net in extra_net_delays and net not in renamed_outputs:
            renamed_outputs[net] = f"{net}__pre_route"
        return renamed_outputs.get(net, net)

    for le in design.les:
        input_nets = list(dict.fromkeys(le.lut_input_nets + le.validity_input_nets))
        cell_type = _le_cell_type(le, input_nets, le_delay_ps)
        functions = list(le.functions) + ([le.validity] if le.validity is not None else [])

        connections = {}
        for index, net in enumerate(input_nets):
            connections[f"p{index}"] = net
        for index, function in enumerate(functions):
            connections[f"q{index}"] = delayed(function.output_net)
        netlist.add_cell(le.name, cell_type, connections)

    for pde in design.pdes:
        netlist.add_cell(
            f"pde_{pde.output_net}",
            STANDARD_LIBRARY.get("DELAY"),
            {"a": pde.input_net, "z": delayed(pde.output_net)},
            delay=pde.delay_ps,
        )

    # Insert routing-delay buffers where requested.
    for net, delay in extra_net_delays.items():
        pre = renamed_outputs.get(net)
        if pre is None:
            continue
        netlist.add_cell(
            f"route_{net}",
            STANDARD_LIBRARY.get("DELAY"),
            {"a": pre, "z": net},
            delay=max(1, int(delay)),
        )

    return netlist


def simulate_mapped_design(
    design: MappedDesign,
    le_delay_ps: int = LE_DELAY_PS,
    extra_net_delays: dict[str, int] | None = None,
    trace_all: bool = False,
) -> GateLevelSimulator:
    """Convenience constructor: a simulator over the lowered mapped design."""
    netlist = mapped_design_to_netlist(design, le_delay_ps, extra_net_delays)
    return GateLevelSimulator(netlist, trace_all=trace_all)
