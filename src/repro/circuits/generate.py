"""Parameterised benchmark-circuit generator families.

Four size-parameterised families, each rendered in both logic styles, all
producing registry-compatible :class:`~repro.circuits.adders.BenchmarkCircuit`
objects (see :mod:`repro.circuits.specs` for the ``gen:...`` naming scheme):

``mult``
    NxN shift-and-add array multiplier: an AND partial-product plane reduced
    column by column with half/full adders (generalising the hand-built
    :func:`repro.circuits.multiplier.qdi_multiplier_4x4`).
``alu``
    N-bit ripple ALU with a 2-bit opcode channel (ADD, SUB via two's
    complement, AND, OR); the subtract borrow is folded into the carry chain
    by an opcode-driven carry-in generator.
``crc``
    CRC-4 / LFSR chain (polynomial x^4 + x + 1): N message bits folded into a
    4-bit running remainder, two XOR stages per message bit.
``mac``
    Systolic MAC row: N multiply(AND)-accumulate cells summing the popcount
    of ``x & w`` through a growing ripple-increment chain.

The QDI renderings compose DIMS function blocks at the mapped-LE level
through the composition the ripple adders and the 4x4 multiplier share
(:func:`repro.circuits.adders._compose_qdi`); the micropipeline renderings
build one bundled-data stage whose datapath is a combinational LUT network
behind per-output transparent latches, with the request matched-delay scaled
to the network depth, framed by the stage template every micropipeline stage
shares (:func:`repro.cad.techmap._micropipeline_template`).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import BundledDataEncoding, DualRailEncoding
from repro.cad.lemap import LEFunction, MappedDesign
from repro.cad.techmap import _pack_functions, generic_map, template_map
from repro.circuits.adders import (
    BenchmarkCircuit,
    _compose_qdi,
    _micropipeline_circuit,
    _qdi_adder_block,
    _qdi_block,
)
from repro.circuits.specs import CircuitSpec, register_family
from repro.core.params import PLBParams
from repro.logic.truthtable import TruthTable
from repro.netlist.netlist import Netlist
from repro.styles.base import LogicStyle, StyledCircuit
from repro.styles.micropipeline import DEFAULT_MATCHED_DELAY, MATCHED_DELAY_PER_LEVEL
from repro.styles.qdi import dims_function_block


# ======================================================================
# Micropipeline composition helper
# ======================================================================
def _compose_micropipeline(
    name: str,
    input_channel: Channel,
    output_channel: Channel,
    logic: Sequence[tuple[str, tuple[str, ...], Callable[..., int]]],
    output_sources: Sequence[str],
    params: PLBParams,
    metadata: Mapping[str, object],
) -> BenchmarkCircuit:
    """One bundled-data stage: LUT network -> per-output latches -> controller.

    *logic* lists combinational LUT functions ``(net, inputs, fn)`` in
    topological order; *output_sources* names the net latched onto each
    output-channel data wire (an input wire is allowed: the latch then
    implements a registered pass-through).  The matched delay is
    :data:`~repro.styles.micropipeline.DEFAULT_MATCHED_DELAY` plus
    :data:`~repro.styles.micropipeline.MATCHED_DELAY_PER_LEVEL` per LUT level
    on the deepest cone.
    """
    out_wires = output_channel.data_wires()
    if len(output_sources) != len(out_wires):
        raise ValueError(
            f"{name}: {len(out_wires)} output wires but {len(output_sources)} sources"
        )
    enable_net = output_channel.req_wire  # the stage template's latch enable

    level: dict[str, int] = {}
    functions: list[LEFunction] = []
    for net, inputs, fn in logic:
        table = TruthTable.from_function(tuple(inputs), fn, name=net)
        functions.append(LEFunction(output_net=net, table=table, role="logic"))
        level[net] = 1 + max((level.get(parent, 0) for parent in inputs), default=0)

    latch_functions: list[LEFunction] = []
    for wire, source in zip(out_wires, output_sources):
        latch_inputs = (source, enable_net, wire)

        def latch_next(src: int, en: int, y: int) -> int:
            return y if en else src

        table = TruthTable.from_function(latch_inputs, latch_next, name=f"latch_{wire}")
        latch_functions.append(LEFunction(output_net=wire, table=table, role="latch"))

    depth = 1 + max((level.get(source, 0) for source in output_sources), default=0)
    matched = DEFAULT_MATCHED_DELAY + MATCHED_DELAY_PER_LEVEL * depth
    les = _pack_functions(f"{name}_logic", functions, params)
    les += _pack_functions(f"{name}_latch", latch_functions, params)

    data = {"matched_delay": matched, "datapath_depth": depth}
    data.update(metadata)
    return _micropipeline_circuit(name, input_channel, output_channel, les, matched, params, data)


# ======================================================================
# Shared column/chain arithmetic used by both styles
# ======================================================================
def _reduce_columns(
    columns: dict[int, list[str]],
    top: int,
    emit_adder: Callable[[tuple[str, ...], str, str], None],
) -> list[str]:
    """Column-by-column carry-save reduction to one bit per weight.

    ``emit_adder(inputs, sum_net, carry_net)`` materialises a half/full adder
    in whichever style the caller builds; carries ripple into the next
    column, the final carry out of the top column is provably zero and the
    caller leaves it internal/unused.  Returns the per-weight result nets.
    """
    result: list[str] = []
    fresh = 0
    for weight in range(top):
        bits = columns.get(weight, [])
        while len(bits) > 1:
            take = tuple(bits[:3] if len(bits) >= 3 else bits[:2])
            del bits[: len(take)]
            sum_net, carry_net = f"ms{weight}_{fresh}", f"mc{weight}_{fresh}"
            fresh += 1
            emit_adder(take, sum_net, carry_net)
            bits.append(sum_net)
            if weight + 1 < top:
                columns.setdefault(weight + 1, []).append(carry_net)
        if not bits:
            raise AssertionError(f"empty product column {weight}")
        result.append(bits[0])
    return result


def crc4_reference(init: int, message_bits: Sequence[int]) -> int:
    """The 4-bit running remainder the ``crc`` family computes (x^4+x+1)."""
    state = init & 0xF
    for bit in message_bits:
        feedback = ((state >> 3) & 1) ^ (bit & 1)
        state = (((state << 1) | feedback) & 0xF) ^ (feedback << 1)
    return state


def alu_reference(op: int, a: int, b: int, bits: int) -> tuple[int, int]:
    """The ``alu`` family's reference: returns (result, carry_out)."""
    mask = (1 << bits) - 1
    if op == 0:
        total = (a & mask) + (b & mask)
        return total & mask, (total >> bits) & 1
    if op == 1:
        total = (a & mask) + ((~b) & mask) + 1
        return total & mask, (total >> bits) & 1
    if op == 2:
        return a & b & mask, 0
    return (a | b) & mask, 0


# ======================================================================
# Family: mult (NxN array multiplier)
# ======================================================================
def generate_multiplier(spec: CircuitSpec, params: PLBParams | None = None) -> BenchmarkCircuit:
    n = spec.size
    if n < 2:
        raise ValueError("the mult family needs at least 2x2 bits")
    params = params if params is not None else PLBParams()
    name = spec.name()

    if spec.style == "qdi":
        blocks: list[StyledCircuit] = []
        columns: dict[int, list[str]] = {}
        for i in range(n):
            for j in range(n):
                net = f"pp{i}_{j}"
                blocks.append(
                    _qdi_block(
                        f"qdi_pp{i}_{j}",
                        [f"a{i}", f"b{j}"],
                        {net: lambda v, ai=f"a{i}", bj=f"b{j}": v[ai] & v[bj]},
                        ack_net=f"ack_{net}",
                    )
                )
                columns.setdefault(i + j, []).append(net)

        def emit(inputs: tuple[str, ...], sum_net: str, carry_net: str) -> None:
            blocks.append(_qdi_adder_block(inputs, sum_net, carry_net))

        product = _reduce_columns(columns, 2 * n, emit)
        return _compose_qdi(
            name,
            blocks,
            product,
            params,
            {"bits": n},
        )

    # Micropipeline: one bundled stage, AND plane + carry-save LUT network.
    encoding = BundledDataEncoding()
    input_channel = Channel("ops", 2 * n, encoding)  # a bits then b bits
    output_channel = Channel("res", 2 * n, encoding)
    in_wires = input_channel.data_wires()
    a_wires, b_wires = in_wires[:n], in_wires[n:]

    logic: list[tuple[str, tuple[str, ...], Callable[..., int]]] = []
    columns = {}
    for i in range(n):
        for j in range(n):
            net = f"pp{i}_{j}"
            logic.append((net, (a_wires[i], b_wires[j]), lambda a, b: a & b))
            columns.setdefault(i + j, []).append(net)

    def emit_lut(inputs: tuple[str, ...], sum_net: str, carry_net: str) -> None:
        if len(inputs) == 3:
            logic.append((sum_net, inputs, lambda a, b, c: a ^ b ^ c))
            logic.append((carry_net, inputs, lambda a, b, c: 1 if a + b + c >= 2 else 0))
        else:
            logic.append((sum_net, inputs, lambda a, b: a ^ b))
            logic.append((carry_net, inputs, lambda a, b: a & b))

    product = _reduce_columns(columns, 2 * n, emit_lut)
    return _compose_micropipeline(
        name, input_channel, output_channel, logic, product, params, metadata={"bits": n}
    )


# ======================================================================
# Family: alu (N-bit ripple ALU: ADD / SUB / AND / OR)
# ======================================================================
#: Opcode values of the ``alu`` family.
ALU_OPS = {"add": 0, "sub": 1, "and": 2, "or": 3}


def generate_alu(spec: CircuitSpec, params: PLBParams | None = None) -> BenchmarkCircuit:
    n = spec.size
    params = params if params is not None else PLBParams()
    name = spec.name()

    def bit_result(op: int, a: int, b: int, c: int) -> tuple[int, int]:
        """One slice: (result bit, carry out) under opcode *op*."""
        if op == 0:
            total = a + b + c
        elif op == 1:
            total = a + (1 - b) + c
        elif op == 2:
            return a & b, 0
        else:
            return a | b, 0
        return total & 1, (total >> 1) & 1

    if spec.style == "qdi":
        enc = DualRailEncoding()
        op_channel = Channel("op", 2, enc)
        blocks = [
            # Carry-in generator: SUB needs the +1 of the two's complement.
            _qdi_block(
                "qdi_alu_cin",
                [op_channel],
                {"c0": lambda v: 1 if v["op"] == 1 else 0},
                ack_net="ack_c0",
            )
        ]
        for i in range(n):
            sum_net, carry_net = f"r{i}", f"c{i + 1}"

            def slice_fn(values: Mapping[str, int], i: int = i) -> Mapping[str, int]:
                result, carry = bit_result(
                    values["op"], values[f"a{i}"], values[f"b{i}"], values[f"c{i}"]
                )
                return {f"r{i}": result, f"c{i + 1}": carry}

            enc = DualRailEncoding()
            blocks.append(
                dims_function_block(
                    f"qdi_alu_slice{i}",
                    input_channels=[
                        Channel(f"a{i}", 1, enc),
                        Channel(f"b{i}", 1, enc),
                        Channel(f"c{i}", 1, enc),
                        op_channel,
                    ],
                    output_channels=[
                        Channel(sum_net, 1, enc),
                        Channel(carry_net, 1, enc),
                    ],
                    function=slice_fn,
                    style=LogicStyle.QDI_DUAL_RAIL,
                    ack_net=f"ack_{sum_net}",
                )
            )
        outputs = [f"r{i}" for i in range(n)] + [f"c{n}"]
        return _compose_qdi(
            name,
            blocks,
            outputs,
            params,
            {"bits": n, "ops": dict(ALU_OPS)},
        )

    encoding = BundledDataEncoding()
    input_channel = Channel("ops", 2 * n + 2, encoding)  # a, b, op0, op1
    output_channel = Channel("res", n + 1, encoding)  # result bits + carry
    in_wires = input_channel.data_wires()
    a_wires, b_wires = in_wires[:n], in_wires[n : 2 * n]
    op_wires = in_wires[2 * n :]

    logic: list[tuple[str, tuple[str, ...], Callable[..., int]]] = [
        ("c0", tuple(op_wires), lambda op0, op1: 1 if (op0 + 2 * op1) == 1 else 0)
    ]
    sources: list[str] = []
    for i in range(n):
        inputs = (a_wires[i], b_wires[i], f"c{i}", op_wires[0], op_wires[1])
        logic.append(
            (
                f"r{i}",
                inputs,
                lambda a, b, c, op0, op1: bit_result(op0 + 2 * op1, a, b, c)[0],
            )
        )
        logic.append(
            (
                f"c{i + 1}",
                inputs,
                lambda a, b, c, op0, op1: bit_result(op0 + 2 * op1, a, b, c)[1],
            )
        )
        sources.append(f"r{i}")
    sources.append(f"c{n}")
    return _compose_micropipeline(
        name,
        input_channel,
        output_channel,
        logic,
        sources,
        params,
        metadata={"bits": n, "ops": dict(ALU_OPS)},
    )


# ======================================================================
# Family: crc (CRC-4 / LFSR chain, polynomial x^4 + x + 1)
# ======================================================================
def generate_crc(spec: CircuitSpec, params: PLBParams | None = None) -> BenchmarkCircuit:
    n = spec.size
    params = params if params is not None else PLBParams()
    name = spec.name()

    if spec.style == "qdi":
        blocks: list[StyledCircuit] = []
        state = [f"iv{b}" for b in range(4)]
        for t in range(n):
            feedback, folded = f"fb{t}", f"sx{t}"
            for net, (left, right) in (
                (feedback, (state[3], f"m{t}")),
                (folded, (state[0], feedback)),
            ):
                blocks.append(
                    _qdi_block(
                        f"qdi_crc_{net}",
                        [left, right],
                        {net: lambda v, x=left, y=right: v[x] ^ v[y]},
                        ack_net=f"ack_{net}",
                    )
                )
            state = [feedback, folded, state[1], state[2]]
        return _compose_qdi(
            name,
            blocks,
            state,
            params,
            {"bits": n},
        )

    encoding = BundledDataEncoding()
    input_channel = Channel("msg", 4 + n, encoding)  # iv bits then message bits
    output_channel = Channel("crc", 4, encoding)
    in_wires = input_channel.data_wires()
    iv_wires, m_wires = in_wires[:4], in_wires[4:]

    logic: list[tuple[str, tuple[str, ...], Callable[..., int]]] = []
    state = list(iv_wires)
    for t in range(n):
        feedback, folded = f"fb{t}", f"sx{t}"
        logic.append((feedback, (state[3], m_wires[t]), lambda a, b: a ^ b))
        logic.append((folded, (state[0], feedback), lambda a, b: a ^ b))
        state = [feedback, folded, state[1], state[2]]
    return _compose_micropipeline(
        name, input_channel, output_channel, logic, state, params, metadata={"bits": n}
    )


# ======================================================================
# Family: mac (systolic multiply-accumulate row, popcount of x & w)
# ======================================================================
def generate_mac(spec: CircuitSpec, params: PLBParams | None = None) -> BenchmarkCircuit:
    n = spec.size
    params = params if params is not None else PLBParams()
    name = spec.name()

    def build(
        and_net: Callable[[int], str],
        emit_and: Callable[[str, int], None],
        emit_adder: Callable[[tuple[str, str], str, str], None],
    ) -> list[str]:
        """Shared cell chain; returns the final running-sum nets (LSB first)."""
        sums: list[str] = []
        for i in range(n):
            product = and_net(i)
            emit_and(product, i)
            if not sums:
                sums = [product]
                continue
            carry = product
            new_sums: list[str] = []
            for j, bit in enumerate(sums):
                sum_net, carry_net = f"acc{i}_{j}", f"cy{i}_{j}"
                emit_adder((bit, carry), sum_net, carry_net)
                new_sums.append(sum_net)
                carry = carry_net
            if (i + 1).bit_length() > len(sums):
                new_sums.append(carry)
            # otherwise the top carry is provably zero and stays unused.
            sums = new_sums
        return sums

    if spec.style == "qdi":
        blocks: list[StyledCircuit] = []

        def emit_and(net: str, i: int) -> None:
            blocks.append(
                _qdi_block(
                    f"qdi_mac_{net}",
                    [f"x{i}", f"w{i}"],
                    {net: lambda v, x=f"x{i}", w=f"w{i}": v[x] & v[w]},
                    ack_net=f"ack_{net}",
                )
            )

        def emit_adder(inputs: tuple[str, str], sum_net: str, carry_net: str) -> None:
            blocks.append(_qdi_adder_block(inputs, sum_net, carry_net))

        sums = build(lambda i: f"pd{i}", emit_and, emit_adder)
        return _compose_qdi(
            name,
            blocks,
            sums,
            params,
            {"bits": n},
        )

    encoding = BundledDataEncoding()
    input_channel = Channel("xw", 2 * n, encoding)  # x bits then w bits
    output_channel = Channel("acc", n.bit_length(), encoding)
    in_wires = input_channel.data_wires()
    x_wires, w_wires = in_wires[:n], in_wires[n:]

    logic: list[tuple[str, tuple[str, ...], Callable[..., int]]] = []

    def emit_and_lut(net: str, i: int) -> None:
        logic.append((net, (x_wires[i], w_wires[i]), lambda x, w: x & w))

    def emit_adder_lut(inputs: tuple[str, str], sum_net: str, carry_net: str) -> None:
        logic.append((sum_net, inputs, lambda a, b: a ^ b))
        logic.append((carry_net, inputs, lambda a, b: a & b))

    sums = build(lambda i: f"pd{i}", emit_and_lut, emit_adder_lut)
    return _compose_micropipeline(
        name, input_channel, output_channel, logic, sums, params, metadata={"bits": n}
    )


def recommended_fabric(
    circuit: BenchmarkCircuit | StyledCircuit | Netlist | MappedDesign,
    min_side: int = 3,
    slack: int = 1,
    channel_width: int | None = None,
) -> "ArchitectureParams":
    """A square fabric big enough to place, route and bit-gen *circuit*.

    *circuit* is anything :meth:`repro.cad.flow.CadFlow.run` accepts: a
    styled circuit is template-mapped and a raw netlist generic-mapped on
    the default PLB, as the flow would map them.  Sizes the grid from the
    packed PLB count (plus *slack* rows/columns of headroom for the
    placer), scales the channel width with design size (dense DIMS designs
    congest the default 8-track channels), and widens the PDE tap count so
    every matched delay in the design fits the delay-line range — deep
    bundled datapaths exceed the default 8x100 ps line.
    """
    import math
    from dataclasses import replace

    from repro.cad.pack import pack_design
    from repro.core.params import ArchitectureParams

    if isinstance(circuit, StyledCircuit):
        mapped = template_map(circuit)
    elif isinstance(circuit, Netlist):
        mapped = generic_map(circuit)
    else:
        mapped = getattr(circuit, "mapped", circuit)
    plb_count = len(pack_design(mapped).plbs)
    side = max(min_side, math.ceil(math.sqrt(plb_count)) + slack)
    plb_params = mapped.params
    max_delay = max((pde.delay_ps for pde in mapped.pdes), default=0)
    if max_delay > plb_params.pde_taps * plb_params.pde_step_ps:
        taps = math.ceil(max_delay / plb_params.pde_step_ps)
        plb_params = replace(plb_params, pde_taps=taps)
        # A longer delay line changes no mapping constraint, so the mapped
        # design stays valid for the widened parameters; restamp it so the
        # flow's stale-mapping check accepts the pairing.
        mapped.params = plb_params
    arch = ArchitectureParams(width=side, height=side, plb=plb_params)
    if channel_width is None:
        # Generous: the router converges faster with headroom, and channel
        # width is free in tests/benches.  Keep the default for small designs
        # so the minimum-width picture stays comparable with the hand-built
        # baselines.
        io_nets = len(mapped.primary_inputs) + len(mapped.primary_outputs)
        channel_width = max(
            arch.routing.channel_width,
            2 * math.ceil(len(mapped.les) / 8),
            # Bundled-data stages concentrate wide data channels on few PLBs,
            # so pad-side congestion scales with I/O count, not LE count.
            2 * math.ceil(io_nets / 3),
        )
    if channel_width != arch.routing.channel_width:
        arch = replace(arch, routing=replace(arch.routing, channel_width=channel_width))
    return arch


# ======================================================================
# Registration
# ======================================================================
register_family(
    "mult",
    generate_multiplier,
    "NxN shift-and-add array multiplier (AND plane + carry-save reduction)",
    default_sizes=(2, 4),
    square=True,
    min_size=2,
)
register_family(
    "alu",
    generate_alu,
    "N-bit ripple ALU with a 2-bit opcode (ADD/SUB/AND/OR)",
    default_sizes=(2, 4),
)
register_family(
    "crc",
    generate_crc,
    "CRC-4 (x^4+x+1) chain folding N message bits into a 4-bit remainder",
    default_sizes=(4, 8),
)
register_family(
    "mac",
    generate_mac,
    "systolic MAC row: popcount accumulation of x & w over N cells",
    default_sizes=(2, 4),
)
