"""N-bit ripple-carry adders in the supported logic styles, and the QDI
composition every multi-block QDI circuit shares.

The multi-bit adders are built the way a macro-based asynchronous flow builds
them: bit slices are instantiated and stitched at the *mapped-LE* level, so
the resulting :class:`~repro.cad.lemap.MappedDesign` can go straight into the
packer, placer and router and into the filling-ratio / scaling experiments
(EXP-EXT1).  The QDI slices reuse the Figure 3b template and compose through
:func:`_compose_qdi`, as the composed multipliers and every QDI generator
family do; the micropipeline adder is one bundled-data stage whose
ripple-carry datapath is expressed as one latch-LUT per output bit plus
internal carry LUTs, framed by the shared stage template
(:func:`repro.cad.techmap._micropipeline_template`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import BundledDataEncoding, DualRailEncoding, OneOfNEncoding
from repro.cad.lemap import LEFunction, MappedDesign, MappedLE, merge_mapped_designs
from repro.cad.techmap import _micropipeline_template, template_map
from repro.core.params import PLBParams
from repro.logic.functions import c_element_table
from repro.logic.truthtable import TruthTable
from repro.styles.base import LogicStyle, StyledCircuit
from repro.styles.micropipeline import DEFAULT_MATCHED_DELAY, MATCHED_DELAY_PER_LEVEL
from repro.styles.qdi import dims_function_block


@dataclass
class BenchmarkCircuit:
    """A benchmark workload composed at the mapped-LE level: its mapped design
    plus its channel interface.

    ``input_channels``, ``output_channels``, ``ack_nets`` and ``req_nets``
    mean what they mean on :class:`~repro.styles.base.StyledCircuit`, so
    :func:`repro.sim.handshake.drive` runs both kinds of circuit.
    """

    name: str
    style: LogicStyle
    mapped: MappedDesign
    input_channels: list[Channel] = field(default_factory=list)
    output_channels: list[Channel] = field(default_factory=list)
    ack_nets: dict[str, str] = field(default_factory=dict)
    req_nets: dict[str, str] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)

    def summary(self) -> dict[str, object]:
        data = {"name": self.name, "style": self.style.value}
        data.update(self.mapped.summary())
        return data


# ----------------------------------------------------------------------
# QDI composition (ripple adders, composed multipliers, generator families)
# ----------------------------------------------------------------------
def combine_acknowledges(
    mapped: MappedDesign, ack_nets: list[str], output: str = "ack"
) -> list[str]:
    """Reduce per-block acknowledges with a binary Muller C-element tree.

    Appends one looped-LUT C-element per tree node to ``mapped.les`` (the
    root drives *output*) and returns the remaining net list -- ``[output]``
    for more than one input, the untouched single net otherwise.
    """
    level = 0
    while len(ack_nets) > 1:
        next_level: list[str] = []
        for index in range(0, len(ack_nets) - 1, 2):
            node = output if len(ack_nets) == 2 else f"{output}_l{level}_{index // 2}"
            table = c_element_table(ack_nets[index : index + 2], state=node)
            function = LEFunction(
                output_net=node, table=replace(table, name=f"ack_tree_{node}"), role="ack"
            )
            mapped.les.append(MappedLE(name=f"le_{node}", functions=[function]))
            next_level.append(node)
        if len(ack_nets) % 2:
            next_level.append(ack_nets[-1])
        ack_nets = next_level
        level += 1
    return ack_nets


def _qdi_block(
    name: str,
    inputs: Sequence[str | Channel],
    outputs: Mapping[str, Callable[[Mapping[str, int]], int]],
    ack_net: str,
) -> StyledCircuit:
    """A DIMS block over named channels computing one bit per output net.

    *inputs* are 1-bit dual-rail channel names (or explicit :class:`Channel`
    objects for wider operands such as an opcode); *outputs* maps 1-bit
    output channel names to functions of the input-value dict.
    """
    enc = DualRailEncoding()
    in_channels = [
        net if isinstance(net, Channel) else Channel(net, 1, enc) for net in inputs
    ]
    out_channels = [Channel(net, 1, enc) for net in outputs]

    def function(values: Mapping[str, int]) -> Mapping[str, int]:
        return {net: fn(values) & 1 for net, fn in outputs.items()}

    return dims_function_block(
        name,
        input_channels=in_channels,
        output_channels=out_channels,
        function=function,
        style=LogicStyle.QDI_DUAL_RAIL,
        ack_net=ack_net,
    )


def _qdi_adder_block(
    inputs: tuple[str, ...], sum_net: str, carry_net: str
) -> StyledCircuit:
    """A QDI half adder (two inputs) or full adder (three inputs)."""

    def total(values: Mapping[str, int]) -> int:
        return sum(values[net] for net in inputs)

    kind = "fa" if len(inputs) == 3 else "ha"
    return _qdi_block(
        f"qdi_{kind}_{sum_net}",
        inputs,
        {
            sum_net: lambda values: total(values) & 1,
            carry_net: lambda values: (total(values) >> 1) & 1,
        },
        ack_net=f"ack_{sum_net}",
    )


def _compose_qdi(
    name: str,
    blocks: Sequence[StyledCircuit],
    output_channels: Sequence[str],
    params: PLBParams,
    metadata: Mapping[str, object],
) -> BenchmarkCircuit:
    """Template-map QDI blocks, merge them, combine their acks, fix up the interface.

    This is the mapped-LE-level macro composition of every multi-block QDI
    circuit: the style and the per-block acknowledges come from the blocks,
    nets one block produces for another become internal, and the remaining
    data rails of the 1-bit dual-rail *output_channels* plus the
    acknowledge-tree root form the primary outputs.  Output channels may name
    nets the composition passes straight through from the primary inputs
    (small CRC chains do); those rails stay primary inputs *and* appear among
    the primary outputs.

    The input channels are the block input channels no block drives, in
    first-use order, then the pass-through output channels; the tree root
    acknowledges all of them.
    """
    mapped_blocks = [template_map(block, params) for block in blocks]
    # merge_mapped_designs also folds the blocks' decomposition counters
    # into the merged metadata.
    mapped = merge_mapped_designs(name, mapped_blocks)
    mapped.style = blocks[0].style
    # A DIMS block acknowledges every input channel on one net.
    roots = combine_acknowledges(
        mapped, [block.ack_nets[block.input_channels[0].name] for block in blocks]
    )

    driven = mapped.all_output_nets()
    mapped.primary_inputs = [net for net in mapped.primary_inputs if net not in driven]
    out_channels = [Channel(net, 1, DualRailEncoding()) for net in output_channels]
    outputs = [wire for channel in out_channels for wire in channel.data_wires()]
    outputs.append(roots[0])
    # An output-channel wire no block drives is an environment-provided
    # pass-through (small CRC chains shift initial-vector bits straight out):
    # it must be a primary input even when no block consumes it either.
    for net in outputs:
        if net not in driven and net not in mapped.primary_inputs:
            mapped.primary_inputs.append(net)
    mapped.primary_outputs = outputs

    block_inputs = [channel for block in blocks for channel in block.input_channels]
    in_channels: dict[str, Channel] = {}
    for channel in block_inputs + out_channels:
        if channel.name not in in_channels and driven.isdisjoint(channel.data_wires()):
            in_channels[channel.name] = channel
    return BenchmarkCircuit(
        name=name,
        style=mapped.style,
        mapped=mapped,
        input_channels=list(in_channels.values()),
        output_channels=out_channels,
        ack_nets={channel_name: roots[0] for channel_name in in_channels},
        metadata=dict(metadata),
    )


def _micropipeline_circuit(
    name: str,
    input_channel: Channel,
    output_channel: Channel,
    les: Sequence[MappedLE],
    matched_delay: int,
    params: PLBParams,
    metadata: Mapping[str, object],
) -> BenchmarkCircuit:
    """One bundled-data stage around *les*, with the two channels the stage
    template gives it ports for."""
    channels = (input_channel, output_channel)
    return BenchmarkCircuit(
        name=name,
        style=LogicStyle.MICROPIPELINE,
        mapped=_micropipeline_template(
            name, input_channel, output_channel, les, matched_delay, params
        ),
        input_channels=[input_channel],
        output_channels=[output_channel],
        ack_nets={channel.name: channel.ack_wire for channel in channels},
        req_nets={channel.name: channel.req_wire for channel in channels},
        metadata=dict(metadata),
    )


# ----------------------------------------------------------------------
# QDI ripple adders (dual-rail and 1-of-4)
# ----------------------------------------------------------------------
def _qdi_full_adder_slice(bit: int, encoding: str) -> StyledCircuit:
    """One full-adder bit slice with per-bit channel names."""
    if encoding == "dual-rail":
        enc = DualRailEncoding()
        channels_in = [
            Channel(f"a{bit}", 1, enc),
            Channel(f"b{bit}", 1, enc),
            Channel(f"c{bit}", 1, enc),
        ]
    elif encoding == "1-of-4":
        channels_in = [
            Channel(f"ab{bit}", 2, OneOfNEncoding(4)),
            Channel(f"c{bit}", 1, DualRailEncoding()),
        ]
    else:
        raise ValueError(f"unsupported QDI encoding {encoding!r}")

    channels_out = [
        Channel(f"s{bit}", 1, DualRailEncoding()),
        Channel(f"c{bit + 1}", 1, DualRailEncoding()),
    ]

    def slice_function(values: Mapping[str, int]) -> Mapping[str, int]:
        if encoding == "dual-rail":
            total = values[f"a{bit}"] + values[f"b{bit}"] + values[f"c{bit}"]
        else:
            operands = values[f"ab{bit}"]
            total = (operands & 1) + ((operands >> 1) & 1) + values[f"c{bit}"]
        return {f"s{bit}": total & 1, f"c{bit + 1}": (total >> 1) & 1}

    return dims_function_block(
        f"qdi_fa_slice{bit}",
        input_channels=channels_in,
        output_channels=channels_out,
        function=slice_function,
        style=LogicStyle.QDI_DUAL_RAIL if encoding == "dual-rail" else LogicStyle.QDI_ONE_OF_FOUR,
        ack_net=f"ack{bit}",
    )


def qdi_ripple_adder(
    bits: int,
    encoding: str = "dual-rail",
    params: PLBParams | None = None,
    name: str | None = None,
) -> BenchmarkCircuit:
    """An N-bit QDI ripple-carry adder composed of Figure 3b bit slices.

    Per-bit acknowledge outputs are combined by a Muller C-element tree into a
    single ``ack`` output, so the adder presents the same interface as the
    1-bit block.
    """
    if bits < 1:
        raise ValueError("the adder needs at least one bit")
    return _compose_qdi(
        name or f"qdi_ripple_adder{bits}_{encoding}",
        [_qdi_full_adder_slice(bit, encoding) for bit in range(bits)],
        # Carries between slices are internal; the sums and the last carry
        # leave the adder.
        [f"s{bit}" for bit in range(bits)] + [f"c{bits}"],
        params if params is not None else PLBParams(),
        {"bits": bits, "encoding": encoding},
    )


# ----------------------------------------------------------------------
# Micropipeline ripple adder
# ----------------------------------------------------------------------
def micropipeline_ripple_adder(
    bits: int,
    matched_delay: int | None = None,
    params: PLBParams | None = None,
    name: str | None = None,
) -> BenchmarkCircuit:
    """An N-bit bundled-data ripple adder as a single micropipeline stage.

    The datapath is one latch-absorbed LUT per sum bit plus one LUT per
    internal carry; the request path uses one programmable delay element whose
    delay scales with the carry-chain length (the timing assumption the PDE
    exists to implement): one
    :data:`~repro.styles.micropipeline.MATCHED_DELAY_PER_LEVEL` per bit, as
    the generator families charge per LUT level.
    """
    if bits < 1:
        raise ValueError("the adder needs at least one bit")
    params = params if params is not None else PLBParams()
    name = name or f"micropipeline_ripple_adder{bits}"
    if matched_delay is None:
        matched_delay = DEFAULT_MATCHED_DELAY + MATCHED_DELAY_PER_LEVEL * bits

    encoding = BundledDataEncoding()
    input_channel = Channel("ops", 2 * bits + 1, encoding)   # a bits, b bits, cin
    output_channel = Channel("res", bits + 1, encoding)      # sum bits, cout
    in_wires = input_channel.data_wires()
    out_wires = output_channel.data_wires()

    a_wires = in_wires[0:bits]
    b_wires = in_wires[bits : 2 * bits]
    cin_wire = in_wires[2 * bits]
    sum_wires = out_wires[0:bits]
    cout_wire = out_wires[bits]

    enable_net = output_channel.req_wire  # the stage template's latch enable
    carry_nets = [cin_wire] + [f"{name}_carry{bit}" for bit in range(1, bits)] + [cout_wire]

    les: list[MappedLE] = []
    for bit in range(bits):
        a, b, c = a_wires[bit], b_wires[bit], carry_nets[bit]

        # Sum bit: transparent latch absorbing the XOR3 datapath.
        sum_net = sum_wires[bit]
        sum_inputs = (a, b, c, enable_net, sum_net)

        def sum_next(av: int, bv: int, cv: int, en: int, y: int) -> int:
            return y if en else (av ^ bv ^ cv)

        sum_table = TruthTable.from_function(sum_inputs, sum_next, name=f"sum{bit}")
        sum_function = LEFunction(output_net=sum_net, table=sum_table, role="latch")

        # Carry out of this bit (combinational for internal carries, latched
        # for the final carry so the output channel stays stable).
        carry_net = carry_nets[bit + 1]
        if bit == bits - 1:
            carry_inputs = (a, b, c, enable_net, carry_net)

            def carry_next(av: int, bv: int, cv: int, en: int, y: int) -> int:
                return y if en else (1 if av + bv + cv >= 2 else 0)

            carry_table = TruthTable.from_function(carry_inputs, carry_next, name=f"carry{bit}")
            carry_role = "latch"
        else:
            carry_inputs = (a, b, c)
            carry_table = TruthTable.from_function(
                carry_inputs, lambda av, bv, cv: 1 if av + bv + cv >= 2 else 0, name=f"carry{bit}"
            )
            carry_role = "logic"
        carry_function = LEFunction(output_net=carry_net, table=carry_table, role=carry_role)

        le = MappedLE(name=f"le_{name}_bit{bit}", functions=[sum_function, carry_function])
        if not le.fits(params):
            # Fall back to one function per LE if the shared LE does not fit.
            les.append(MappedLE(name=f"le_{name}_sum{bit}", functions=[sum_function]))
            les.append(MappedLE(name=f"le_{name}_carry{bit}", functions=[carry_function]))
        else:
            les.append(le)

    return _micropipeline_circuit(
        name,
        input_channel,
        output_channel,
        les,
        matched_delay,
        params,
        {"bits": bits, "matched_delay": matched_delay},
    )
