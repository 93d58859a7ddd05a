"""Small QDI multipliers.

A compact multiplier is a convenient second "real" workload for the filling
and scaling experiments: it is wider than the full adder (two multi-bit
operands), its outputs need more than one digit, and its DIMS expansion
exercises the 1-of-N support of the LE.  Its rail functions also exceed the
LUT7-3 input budget (9 inputs for the 2x2), which makes it the reference
workload for the mapper's wide-function decomposition.

For small operand widths the multiplier is generated as a single DIMS
function block (the product function over the operand channels); the direct
expansion is capped at 3x3 bits because the DIMS code-word product grows
quadratically.  Wider multipliers are *composed*: :func:`qdi_multiplier_4x4`
builds a 4x4 multiplier at the mapped-LE level from four 2x2 partial-product
blocks and a shift-and-add network of QDI half/full-adder blocks, through the
QDI composition the ripple adders and the generator families share
(:func:`repro.circuits.adders._compose_qdi`).
"""

from __future__ import annotations

from typing import Mapping

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import DualRailEncoding, OneOfNEncoding
from repro.circuits.adders import BenchmarkCircuit, _compose_qdi, _qdi_adder_block
from repro.core.params import PLBParams
from repro.styles.base import LogicStyle, StyledCircuit
from repro.styles.qdi import dims_function_block

#: Direct DIMS expansion is quadratic in code words; keep it to tiny operands.
MAX_DIRECT_BITS = 3


def qdi_multiplier(
    bits: int = 2,
    encoding: str = "dual-rail",
    name: str | None = None,
    a_name: str = "a",
    b_name: str = "b",
    product_prefix: str = "p",
    ack_net: str = "ack",
) -> StyledCircuit:
    """An ``bits x bits`` QDI multiplier as one DIMS function block.

    The result channel is ``2 * bits`` wide.  Raises ``ValueError`` for operand
    widths above :data:`MAX_DIRECT_BITS` (compose adders instead).  The channel
    and acknowledge names are parameters so composed circuits (e.g. the 4x4
    multiplier) can instantiate several blocks side by side.
    """
    if bits < 1:
        raise ValueError("operand width must be at least 1 bit")
    if bits > MAX_DIRECT_BITS:
        raise ValueError(
            f"direct DIMS expansion capped at {MAX_DIRECT_BITS}x{MAX_DIRECT_BITS} bits; "
            "build wider multipliers from adder slices"
        )
    name = name or f"qdi_multiplier{bits}x{bits}_{encoding}"

    if encoding == "dual-rail":
        enc = DualRailEncoding()
        style = LogicStyle.QDI_DUAL_RAIL
    elif encoding == "1-of-4":
        enc = OneOfNEncoding(4)
        style = LogicStyle.QDI_ONE_OF_FOUR
    else:
        raise ValueError(f"unsupported encoding {encoding!r}")

    a = Channel(a_name, bits, enc)
    b = Channel(b_name, bits, enc)
    product_bits = 2 * bits
    # The product is emitted one dual-rail bit per output channel so each
    # output digit's rail functions stay within the LUT7-3 input budget after
    # template mapping of per-bit slices is not required here (the DIMS gate
    # netlist is what the area/baseline experiments consume).
    outputs = [
        Channel(f"{product_prefix}{index}", 1, DualRailEncoding())
        for index in range(product_bits)
    ]

    def product(values: Mapping[str, int]) -> Mapping[str, int]:
        result = values[a_name] * values[b_name]
        return {
            f"{product_prefix}{index}": (result >> index) & 1
            for index in range(product_bits)
        }

    return dims_function_block(
        name,
        input_channels=[a, b],
        output_channels=outputs,
        function=product,
        style=style,
        ack_net=ack_net,
    )


# ----------------------------------------------------------------------
# Composed 4x4 multiplier (shift-and-add over 2x2 partial products)
# ----------------------------------------------------------------------
def qdi_multiplier_4x4(
    params: PLBParams | None = None,
    name: str | None = None,
) -> BenchmarkCircuit:
    """A 4x4 QDI multiplier composed at the mapped-LE level.

    The operands arrive as 2-bit halves (channels ``al``/``ah`` and
    ``bl``/``bh``); four 2x2 DIMS partial-product blocks (each mapped through
    wide-function decomposition) feed a three-stage shift-and-add network of
    DIMS half/full-adder blocks:

    .. code-block:: text

        R = LL + (LH << 2)        S = R + (HL << 2)        P = S + (HH << 4)

    Per-block acknowledges are combined into one ``ack`` by a Muller C-element
    tree.  The product bits are the output channels, LSB first; the low bits
    pass straight through from the partial products, so their channels keep
    the producing block's names.
    """
    name = name or "qdi_multiplier4x4_dual-rail"

    # Partial products: ll = al*bl, lh = al*bh, hl = ah*bl, hh = ah*bh.
    blocks = [
        qdi_multiplier(
            2,
            name=f"{name}_{prefix}",
            a_name=a_half,
            b_name=b_half,
            product_prefix=prefix,
            ack_net=f"ack_{prefix}",
        )
        for prefix, (a_half, b_half) in (
            ("ll", ("al", "bl")),
            ("lh", ("al", "bh")),
            ("hl", ("ah", "bl")),
            ("hh", ("ah", "bh")),
        )
    ]

    # R = LL + (LH << 2): bits 0..1 pass through (ll0, ll1), bits 2..6 added.
    # S = R + (HL << 2):  bits 2..7.       P = S + (HH << 4): bits 4..7.
    adder_stages = (
        (("ll2", "lh0"), "r2", "k3"),
        (("ll3", "lh1", "k3"), "r3", "k4"),
        (("lh2", "k4"), "r4", "k5"),
        (("lh3", "k5"), "r5", "r6"),
        (("r2", "hl0"), "s2", "m3"),
        (("r3", "hl1", "m3"), "s3", "m4"),
        (("r4", "hl2", "m4"), "s4", "m5"),
        (("r5", "hl3", "m5"), "s5", "m6"),
        (("r6", "m6"), "s6", "s7"),
        (("s4", "hh0"), "p4", "n5"),
        (("s5", "hh1", "n5"), "p5", "n6"),
        (("s6", "hh2", "n6"), "p6", "n7"),
        # The final carry n8 is provably never asserted (15*15 < 256) but the
        # DIMS block still produces its rails; they stay internal and unused.
        (("s7", "hh3", "n7"), "p7", "n8"),
    )
    blocks += [_qdi_adder_block(*stage) for stage in adder_stages]

    # The product is read LSB-first off these channels.
    product = ["ll0", "ll1", "s2", "s3", "p4", "p5", "p6", "p7"]
    return _compose_qdi(
        name,
        blocks,
        product,
        params if params is not None else PLBParams(),
        {"bits": 4},
    )
