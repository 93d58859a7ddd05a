"""QDI (quasi-delay-insensitive) function-block generation.

The generator implements **DIMS** (Delay-Insensitive Minterm Synthesis): every
combination of input-channel values gets a Muller C-element (tree) that fires
when the corresponding code word is present on every input channel; each
output rail is the OR of the minterm signals that map to it.  Completion
detection over the outputs produces the acknowledge returned to the
environment, exactly as required by the 4-phase protocol the paper's example
uses (Section 4, Figure 3b).

DIMS is the most conservative QDI implementation style; it makes the
generated blocks straightforwardly hazard-free, which the simulation-based
tests verify.  The technology mapper later collapses the per-rail logic into
the LUT7-3 of the paper's logic element (the rail functions of a full adder
fit a single LUT7-3, which is what gives the high QDI filling ratio the paper
reports).
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

from repro.asynclogic.channels import Channel
from repro.asynclogic.completion import completion_detector
from repro.asynclogic.encodings import DualRailEncoding, OneOfNEncoding
from repro.netlist.builder import NetlistBuilder
from repro.styles.base import LogicStyle, StyledCircuit


def _channel_value_range(channel: Channel) -> range:
    return range(1 << channel.width_bits)


def _rails_for_value(channel: Channel, value: int) -> list[str]:
    """The wire names that are high when *channel* carries *value*."""
    encoded = channel.encode(value)
    return [wire for wire, level in encoded.items() if level == 1]


def dims_function_block(
    name: str,
    input_channels: Sequence[Channel],
    output_channels: Sequence[Channel],
    function: Callable[[Mapping[str, int]], Mapping[str, int]],
    style: LogicStyle = LogicStyle.QDI_DUAL_RAIL,
    ack_net: str = "ack",
) -> StyledCircuit:
    """Generate a DIMS QDI function block.

    Parameters
    ----------
    name:
        Netlist name.
    input_channels / output_channels:
        Channel specifications.  All channels must use a delay-insensitive
        encoding (dual-rail or 1-of-N).
    function:
        The single-rail reference function: maps a dict of input channel
        values to a dict of output channel values.
    style:
        Recorded on the result (dual-rail or 1-of-4).
    ack_net:
        Name of the primary output carrying the output-completion signal that
        acknowledges the inputs.

    Returns
    -------
    StyledCircuit
        The gate-level block, with ``ack_nets`` mapping every input channel to
        *ack_net*.
    """
    for channel in list(input_channels) + list(output_channels):
        if not channel.encoding.is_delay_insensitive:
            raise ValueError(
                f"channel {channel.name!r} uses {channel.encoding.name}, which is not "
                "delay-insensitive; QDI blocks need dual-rail or 1-of-N data"
            )

    builder = NetlistBuilder(name)

    for channel in input_channels:
        for wire in channel.data_wires():
            builder.input(wire)
    for channel in output_channels:
        for wire in channel.data_wires():
            builder.output(wire)
    builder.output(ack_net)

    # 1. Minterm C-elements: one per combination of input channel values.
    minterm_nets: dict[tuple[int, ...], str] = {}
    value_ranges = [_channel_value_range(channel) for channel in input_channels]
    for combination in itertools.product(*value_ranges):
        rails: list[str] = []
        for channel, value in zip(input_channels, combination):
            rails.extend(_rails_for_value(channel, value))
        label = "_".join(str(v) for v in combination)
        if len(rails) == 1:
            minterm_net = builder.buf(rails[0], out=f"m_{label}")
        else:
            minterm_net = builder.c_tree(rails, out=f"m_{label}")
        minterm_nets[combination] = minterm_net

    # 2. OR each output rail over the minterms that activate it.
    for out_channel in output_channels:
        rail_sources: dict[str, list[str]] = {wire: [] for wire in out_channel.data_wires()}
        for combination, minterm_net in minterm_nets.items():
            inputs = {
                channel.name: value for channel, value in zip(input_channels, combination)
            }
            outputs = function(inputs)
            if out_channel.name not in outputs:
                raise KeyError(
                    f"reference function did not produce a value for channel {out_channel.name!r}"
                )
            encoded = out_channel.encode(outputs[out_channel.name])
            for wire, level in encoded.items():
                if level == 1:
                    rail_sources[wire].append(minterm_net)
        for wire, sources in rail_sources.items():
            if not sources:
                # This rail is never asserted (constant-0 output rail); tie it
                # low through a buffer of a constant-0 minterm-free net is not
                # possible in a DI way -- instead leave it undriven only if it
                # is genuinely impossible, which would be a specification
                # error for complete functions.
                raise ValueError(
                    f"output rail {wire!r} of channel {out_channel.name!r} is never asserted; "
                    "the reference function does not exercise a complete code"
                )
            builder.or_tree(sources, out=wire)

    # 3. Completion detection of the outputs -> acknowledge to the environment.
    done_nets = []
    for out_channel in output_channels:
        done = completion_detector(builder, out_channel, prefix=f"{out_channel.name}_cd")
        done_nets.append(done)
    if len(done_nets) == 1:
        builder.buf(done_nets[0], out=ack_net)
    else:
        builder.c_tree(done_nets, out=ack_net)

    netlist = builder.build()
    circuit = StyledCircuit(
        name=name,
        style=style,
        netlist=netlist,
        input_channels=list(input_channels),
        output_channels=list(output_channels),
        ack_nets={channel.name: ack_net for channel in input_channels},
        uses_delay_element=False,
        metadata={"synthesis": "DIMS", "reference_function": function},
    )
    return circuit


def qdi_full_adder_block(
    name: str = "qdi_full_adder",
    encoding: str = "dual-rail",
) -> StyledCircuit:
    """The paper's QDI full adder (Figure 3b).

    A 1-bit full adder with dual-rail inputs ``a``, ``b``, ``cin`` and
    dual-rail outputs ``sum``, ``cout``, using the 4-phase protocol.  With
    ``encoding="1-of-4"`` the two operand bits are instead grouped into a
    single 1-of-4 digit (the multi-rail variant the LE's auxiliary outputs
    support).
    """
    if encoding == "dual-rail":
        enc = DualRailEncoding()
        a = Channel("a", 1, enc)
        b = Channel("b", 1, enc)
        cin = Channel("cin", 1, enc)
        sum_out = Channel("sum", 1, enc)
        cout = Channel("cout", 1, enc)

        def adder(values: Mapping[str, int]) -> Mapping[str, int]:
            total = values["a"] + values["b"] + values["cin"]
            return {"sum": total & 1, "cout": (total >> 1) & 1}

        return dims_function_block(
            name,
            input_channels=[a, b, cin],
            output_channels=[sum_out, cout],
            function=adder,
            style=LogicStyle.QDI_DUAL_RAIL,
        )

    if encoding in ("1-of-4", "one-of-four"):
        # The two operand bits a and b are carried by one 1-of-4 digit.
        operands = Channel("ab", 2, OneOfNEncoding(4))
        cin = Channel("cin", 1, DualRailEncoding())
        sum_out = Channel("sum", 1, DualRailEncoding())
        cout = Channel("cout", 1, DualRailEncoding())

        def adder_1of4(values: Mapping[str, int]) -> Mapping[str, int]:
            a_bit = values["ab"] & 1
            b_bit = (values["ab"] >> 1) & 1
            total = a_bit + b_bit + values["cin"]
            return {"sum": total & 1, "cout": (total >> 1) & 1}

        return dims_function_block(
            name,
            input_channels=[operands, cin],
            output_channels=[sum_out, cout],
            function=adder_1of4,
            style=LogicStyle.QDI_ONE_OF_FOUR,
        )

    raise ValueError(f"unsupported encoding {encoding!r} for the QDI full adder")
