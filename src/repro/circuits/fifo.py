"""FIFOs and rings for the pipeline-throughput experiments (EXP-EXT3).

The WCHB FIFO is a linear chain of weak-conditioned half buffers; the ring
closes the chain on itself with an initial token, which is the standard
self-oscillating structure used to measure pipeline cycle time.
"""

from __future__ import annotations

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import DualRailEncoding
from repro.netlist.netlist import Netlist, PortDirection
from repro.styles.base import LogicStyle, StyledCircuit
from repro.styles.wchb import wchb_buffer_stage, wchb_pipeline


def wchb_fifo(stages: int, width_bits: int = 1, name: str | None = None) -> StyledCircuit:
    """A linear WCHB FIFO (alias of :func:`repro.styles.wchb.wchb_pipeline`)."""
    return wchb_pipeline(name or f"wchb_fifo{stages}x{width_bits}", stages, width_bits)


def wchb_ring(stages: int, width_bits: int = 1, name: str | None = None) -> StyledCircuit:
    """A WCHB ring: the last stage's output feeds the first stage's input.

    The ring has no data ports; its only external wires are an observation tap
    on the first stage's output rails (primary outputs) so a test bench can
    count token revolutions.  At least three stages are required for a ring to
    oscillate (one token needs two empty stages to move into).
    """
    if stages < 3:
        raise ValueError("a WCHB ring needs at least three stages to oscillate")
    name = name or f"wchb_ring{stages}x{width_bits}"

    encoding = DualRailEncoding()
    channels = [Channel(f"r{index}", width_bits, encoding) for index in range(stages)]

    merged = Netlist(name)
    # Observation taps on channel r0.
    for wire in channels[0].data_wires():
        merged.add_port(wire, PortDirection.OUTPUT)
    merged.add_port(channels[0].ack_wire, PortDirection.OUTPUT)

    for index in range(stages):
        input_channel = channels[index]
        output_channel = channels[(index + 1) % stages]
        stage = wchb_buffer_stage(f"{name}_st{index}", input_channel, output_channel)
        interface = set(input_channel.data_wires()) | set(output_channel.data_wires())
        interface.add(input_channel.ack_wire)
        interface.add(output_channel.ack_wire)
        rename = {
            net: f"st{index}.{net}" for net in stage.netlist.nets if net not in interface
        }
        for cell in stage.netlist.iter_cells():
            connections = {
                pin: rename.get(net, net) for pin, net in cell.connections.items()
            }
            merged.add_cell(f"st{index}.{cell.name}", cell.cell_type, connections, **dict(cell.attributes))

    return StyledCircuit(
        name=name,
        style=LogicStyle.WCHB,
        netlist=merged,
        input_channels=[],
        output_channels=[channels[0]],
        ack_nets={channels[0].name: channels[0].ack_wire},
        uses_delay_element=False,
        metadata={"stages": stages, "ring": True},
    )
