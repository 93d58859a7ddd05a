"""Micropipeline (bundled-data) stage generation.

A micropipeline stage carries ordinary single-rail data accompanied by a
request wire; the timing assumption that the data is stable when the request
arrives is enforced with a *matched delay*, which on the paper's architecture
maps onto the PLB's programmable delay element (Section 3, Figure 1 and the
Figure 3a example).

The generated stage has the following structure (4-phase protocol):

* a combinational single-rail datapath computing the outputs;
* a ``DELAY`` cell producing ``req_delayed`` from the input request, with a
  delay larger than the worst-case datapath delay;
* a Muller C-element latch controller ``en = C(req_delayed, !out_ack)``;
* transparent output latches that hold the computed data while ``en`` is high
  (i.e. while the downstream stage is consuming it);
* ``in_ack = en`` back to the producer and ``out_req = en`` to the consumer.

This is a standard simple 4-phase bundled-data latch controller; its
handshake correctness is exercised by the simulation tests.
"""

from __future__ import annotations

from typing import Mapping

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import BundledDataEncoding
from repro.logic.truthtable import TruthTable
from repro.netlist.builder import NetlistBuilder
from repro.styles.base import LogicStyle, StyledCircuit

#: Default matched delay (ps) used when the caller does not specify one.
DEFAULT_MATCHED_DELAY = 600

#: Extra matched delay (ps) per combinational LUT level of a mapped bundled
#: datapath, on top of :data:`DEFAULT_MATCHED_DELAY`.
MATCHED_DELAY_PER_LEVEL = 300


def _emit_datapath(
    builder: NetlistBuilder,
    outputs: Mapping[str, TruthTable],
    net_prefix: str = "dp_",
) -> dict[str, str]:
    """Emit naive SOP datapath logic for every output table.

    Each output is produced as a two-level OR-of-minterm-ANDs over the input
    wires; inverters are shared.  The technology mapper later re-absorbs this
    logic into LUTs, so gate-level structure quality is irrelevant -- only
    functional correctness matters.
    """
    inverted: dict[str, str] = {}

    def inverted_net(wire: str) -> str:
        if wire not in inverted:
            inverted[wire] = builder.inv(wire, out=f"{net_prefix}n_{wire}")
        return inverted[wire]

    produced: dict[str, str] = {}
    for output_name, table in outputs.items():
        minterm_nets: list[str] = []
        for row in table.minterms():
            literal_nets = []
            for position, wire in enumerate(table.inputs):
                if (row >> position) & 1:
                    literal_nets.append(wire)
                else:
                    literal_nets.append(inverted_net(wire))
            if len(literal_nets) == 1:
                minterm_nets.append(literal_nets[0])
            else:
                term = literal_nets[0]
                for literal in literal_nets[1:]:
                    term = builder.and2(term, literal)
                minterm_nets.append(term)
        if not minterm_nets:
            raise ValueError(f"output {output_name!r} is constant 0; not supported in a datapath")
        produced[output_name] = builder.or_tree(minterm_nets, out=f"{net_prefix}{output_name}")
    return produced


def micropipeline_stage(
    name: str,
    input_channel: Channel,
    output_channel: Channel,
    outputs: Mapping[str, TruthTable],
    matched_delay: int = DEFAULT_MATCHED_DELAY,
) -> StyledCircuit:
    """Generate a bundled-data pipeline stage computing *outputs*.

    Parameters
    ----------
    input_channel / output_channel:
        Bundled-data channels; the input channel's data wires are the free
        variables of the output truth tables, and the output channel's data
        wires must match the keys of *outputs* (in channel wire order).
    outputs:
        Output wire name → truth table over input wire names.
    matched_delay:
        Delay (in the simulator's time unit, ps) of the matched-delay element;
        must exceed the worst-case datapath delay.
    """
    if not isinstance(input_channel.encoding, BundledDataEncoding) or not isinstance(
        output_channel.encoding, BundledDataEncoding
    ):
        raise ValueError("micropipeline stages use bundled-data channels")

    expected_outputs = set(output_channel.data_wires())
    if set(outputs) != expected_outputs:
        raise ValueError(
            f"output tables {sorted(outputs)} do not match output channel wires "
            f"{sorted(expected_outputs)}"
        )

    builder = NetlistBuilder(name)

    for wire in input_channel.data_wires():
        builder.input(wire)
    in_req = builder.input(input_channel.req_wire)
    out_ack = builder.input(output_channel.ack_wire)

    for wire in output_channel.data_wires():
        builder.output(wire)
    in_ack = builder.output(input_channel.ack_wire)
    out_req = builder.output(output_channel.req_wire)

    # Datapath ---------------------------------------------------------
    datapath = _emit_datapath(builder, outputs)

    # Matched delay + latch controller ----------------------------------
    req_delayed = builder.gate("DELAY", [in_req], out="req_delayed", name="matched_delay")
    # Per-instance delay override so the simulator honours the requested margin.
    builder.netlist.cell("matched_delay").attributes["delay"] = int(matched_delay)
    builder.netlist.cell("matched_delay").attributes["matched_delay"] = int(matched_delay)

    n_out_ack = builder.inv(out_ack, out="n_out_ack")
    enable = builder.c2(req_delayed, n_out_ack, out="lc_en", name="latch_ctrl")
    n_enable = builder.inv(enable, out="lc_en_b")

    # Output latches: transparent while en == 0, holding while en == 1.
    for wire in output_channel.data_wires():
        builder.latch(datapath[wire], n_enable, out=wire, name=f"latch_{wire}")

    builder.buf(enable, out=in_ack, name="ack_driver")
    builder.buf(enable, out=out_req, name="req_driver")

    netlist = builder.build()
    circuit = StyledCircuit(
        name=name,
        style=LogicStyle.MICROPIPELINE,
        netlist=netlist,
        input_channels=[input_channel],
        output_channels=[output_channel],
        ack_nets={input_channel.name: in_ack, output_channel.name: output_channel.ack_wire},
        req_nets={input_channel.name: input_channel.req_wire, output_channel.name: out_req},
        uses_delay_element=True,
        metadata={
            "matched_delay": matched_delay,
            "latch_controller": "C2 + inverters",
            "datapath_tables": dict(outputs),
        },
    )
    return circuit


def micropipeline_full_adder_stage(
    name: str = "micropipeline_full_adder",
    matched_delay: int = DEFAULT_MATCHED_DELAY,
) -> StyledCircuit:
    """The paper's micropipeline full adder (Figure 3a).

    A 1-bit full adder with bundled-data inputs ``a``, ``b``, ``cin`` grouped
    in one 3-bit input channel ``abc`` and a 2-bit output channel ``sc``
    (sum, carry), 4-phase protocol, matched delay on the request path.
    """
    from repro.logic.functions import majority_table, xor_table

    input_channel = Channel("abc", 3, BundledDataEncoding())
    output_channel = Channel("sc", 2, BundledDataEncoding())

    in_wires = input_channel.data_wires()   # abc0, abc1, abc2
    out_wires = output_channel.data_wires()  # sc0 (sum), sc1 (carry)

    sum_table = xor_table(inputs=in_wires)
    carry_table = majority_table(inputs=in_wires)

    return micropipeline_stage(
        name,
        input_channel=input_channel,
        output_channel=output_channel,
        outputs={out_wires[0]: sum_table, out_wires[1]: carry_table},
        matched_delay=matched_delay,
    )
