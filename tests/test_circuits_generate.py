"""Tests for the spec-driven circuit generator families.

Three layers per family:

* spec parsing / registry integration (``gen:`` names resolve everywhere a
  registry circuit name does);
* structural goldens at N=2 (LE and PLB counts, plus full place & route on
  :func:`recommended_fabric` with a routed-channel-width golden);
* simulation equivalence at N=2 in both styles, against the pure-Python
  reference functions, through the handshake driver.
"""

import pytest

from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.pack import pack_design
from repro.circuits.generate import alu_reference, crc4_reference, recommended_fabric
from repro.circuits.registry import build_circuit, circuit_registry
from repro.circuits.specs import (
    GENERATOR_STYLES,
    CircuitSpec,
    build_from_spec,
    default_spec_names,
    generator_families,
    parse_spec,
)
from repro.sim import drive
from repro.sim.lesim import simulate_mapped_design

FAMILIES = ("mult", "alu", "crc", "mac")


# ----------------------------------------------------------------------
# Spec parsing and registry integration
# ----------------------------------------------------------------------
def test_parse_spec_round_trips():
    spec = parse_spec("gen:mult4x4@qdi")
    assert spec == CircuitSpec("mult", 4, "qdi")
    assert spec.name() == "gen:mult4x4@qdi"
    spec = parse_spec("gen:alu8@micropipeline")
    assert spec == CircuitSpec("alu", 8, "micropipeline")
    assert spec.name() == "gen:alu8@micropipeline"


@pytest.mark.parametrize(
    "bad",
    [
        "mult4x4@qdi",  # missing gen: prefix
        "gen:frob4@qdi",  # unknown family
        "gen:mult4x4@sync",  # unknown style
        "gen:mult4x2@qdi",  # square family, non-square size
        "gen:alu2x2@qdi",  # scalar family, NxN size
        "gen:mult1x1@qdi",  # below min_size
        "gen:mult@qdi",  # no size at all
    ],
)
def test_parse_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_every_family_registers_both_styles():
    families = generator_families()
    assert set(FAMILIES) <= set(families)
    names = default_spec_names()
    registry = circuit_registry()
    for family in FAMILIES:
        for style in GENERATOR_STYLES:
            ladder = [
                n for n in names if n.startswith(f"gen:{family}") and n.endswith(f"@{style}")
            ]
            assert ladder, f"{family}@{style} missing from the default ladder"
            for name in ladder:
                assert name in registry


def test_build_circuit_falls_back_to_spec_parser():
    # A size outside the default ladder still builds through the registry.
    bench = build_circuit("gen:crc3@qdi")
    assert bench.name == "gen:crc3@qdi"
    assert bench.mapped.validate() == []
    with pytest.raises(ValueError):
        build_circuit("gen:frob4@qdi")


# ----------------------------------------------------------------------
# Structural goldens at N=2
# ----------------------------------------------------------------------
#: (family, style) -> (LE count, PLB count) at size 2.
STRUCTURE_GOLDEN = {
    ("mult", "qdi"): (27, 14),
    ("mult", "micropipeline"): (6, 3),
    ("alu", "qdi"): (65, 33),
    ("alu", "micropipeline"): (4, 2),
    ("crc", "qdi"): (15, 8),
    ("crc", "micropipeline"): (5, 3),
    ("mac", "qdi"): (13, 7),
    ("mac", "micropipeline"): (4, 2),
}


@pytest.mark.parametrize("family,style", sorted(STRUCTURE_GOLDEN))
def test_structure_golden(family, style):
    bench = build_from_spec(CircuitSpec(family, 2, style))
    assert bench.mapped.validate() == []
    les, plbs = STRUCTURE_GOLDEN[(family, style)]
    assert len(bench.mapped.les) == les
    assert len(pack_design(bench.mapped).plbs) == plbs


def _channel_width_used(flow, routing):
    """Max number of distinct tracks used in any one channel segment."""
    graph = flow.rr_graph
    usage = {}
    for routed in routing.routed.values():
        for node_id in routed.nodes:
            node = graph.node(node_id)
            if node.node_type.value == "wire":
                segment = node.name.rsplit("_t", 1)[0]
                usage.setdefault(segment, set()).add(node.track)
    return max(len(tracks) for tracks in usage.values())


#: (family, style) -> (grid side, fabric channel width, max tracks used).
FLOW_GOLDEN = {
    ("mult", "qdi"): (5, 12, 10),
    ("alu", "micropipeline"): (3, 10, 7),
    ("crc", "qdi"): (4, 14, 8),
    ("mac", "micropipeline"): (3, 8, 4),
}


@pytest.mark.parametrize("family,style", sorted(FLOW_GOLDEN))
def test_full_flow_golden(family, style):
    bench = build_from_spec(CircuitSpec(family, 2, style))
    arch = recommended_fabric(bench)
    side, channel_width, tracks_used = FLOW_GOLDEN[(family, style)]
    assert (arch.width, arch.height) == (side, side)
    assert arch.routing.channel_width == channel_width
    flow = CadFlow(arch, FlowOptions(placement_seed=1))
    result = flow.run(bench)
    assert result.placement.matches_design(result.mapped, flow.fabric)
    assert result.routing.success
    assert _channel_width_used(flow, result.routing) == tracks_used
    assert result.bitstream is not None
    assert result.timing.cycle_time_ps > 0


def test_crc_qdi_routes_passthrough_iv_rails():
    # Regression: at n=2 the iv1 initial-vector rails flow PI -> PO without
    # touching a LE; the router used to drop such pad-to-pad nets silently.
    bench = build_from_spec("gen:crc2@qdi")
    assert "iv1" in [channel.name for channel in bench.output_channels]
    flow = CadFlow(recommended_fabric(bench), FlowOptions(placement_seed=1))
    result = flow.run(bench)
    assert result.routing.success
    for rail in ("iv1_t", "iv1_f"):
        assert rail in result.routing.routed


# ----------------------------------------------------------------------
# Simulation equivalence at N=2, QDI style
# ----------------------------------------------------------------------
def _run(spec, tokens):
    """Push *tokens* through *spec*'s mapped design; one output per token."""
    bench = build_from_spec(spec)
    outputs = drive(bench, simulate_mapped_design(bench.mapped), tokens).outputs
    assert len(outputs) == len(tokens)
    return bench, outputs


def _bits(prefix, value, width):
    """*value* spread over the 1-bit channels ``prefix0``, ``prefix1``, ..."""
    return {f"{prefix}{bit}": (value >> bit) & 1 for bit in range(width)}


def _word(bench, out):
    """The word read LSB-first off *bench*'s 1-bit output channels."""
    return sum(out[channel.name] << bit for bit, channel in enumerate(bench.output_channels))


def test_qdi_mult_equivalence():
    vectors = [(0, 0), (1, 2), (3, 3), (2, 1), (3, 1)]
    bench, outputs = _run(
        "gen:mult2x2@qdi", [{**_bits("a", a, 2), **_bits("b", b, 2)} for a, b in vectors]
    )
    assert [_word(bench, out) for out in outputs] == [a * b for a, b in vectors]


def test_qdi_alu_equivalence():
    vectors = [(0, 3, 2), (1, 1, 3), (2, 3, 1), (3, 2, 1), (0, 3, 3), (1, 0, 1)]
    _, outputs = _run(
        "gen:alu2@qdi",
        [{"op": op, **_bits("a", a, 2), **_bits("b", b, 2)} for op, a, b in vectors],
    )
    assert [(out["r0"] | (out["r1"] << 1), out["c2"]) for out in outputs] == [
        alu_reference(op, a, b, 2) for op, a, b in vectors
    ]


def test_qdi_crc_equivalence():
    vectors = [(0b0000, (0, 0)), (0b1010, (1, 0)), (0b1111, (1, 1)), (0b0110, (0, 1))]
    bench, outputs = _run(
        "gen:crc2@qdi",
        [{**_bits("iv", iv, 4), "m0": message[0], "m1": message[1]} for iv, message in vectors],
    )
    assert [_word(bench, out) for out in outputs] == [
        crc4_reference(iv, message) for iv, message in vectors
    ]


def test_qdi_mac_equivalence():
    vectors = [(0, 0), (3, 3), (1, 3), (2, 2), (3, 1)]
    bench, outputs = _run(
        "gen:mac2@qdi", [{**_bits("x", x, 2), **_bits("w", w, 2)} for x, w in vectors]
    )
    assert [_word(bench, out) for out in outputs] == [bin(x & w).count("1") for x, w in vectors]


# ----------------------------------------------------------------------
# Simulation equivalence at N=2, micropipeline style
# ----------------------------------------------------------------------
def test_micropipeline_mult_equivalence():
    vectors = [(0, 0), (1, 2), (3, 3), (2, 3)]
    _, outputs = _run("gen:mult2x2@micropipeline", [{"ops": a | (b << 2)} for a, b in vectors])
    assert [out["res"] for out in outputs] == [a * b for a, b in vectors]


def test_micropipeline_alu_equivalence():
    vectors = [(0, 3, 2), (1, 1, 3), (2, 3, 1), (3, 2, 1)]
    _, outputs = _run(
        "gen:alu2@micropipeline", [{"ops": a | (b << 2) | (op << 4)} for op, a, b in vectors]
    )
    expected = []
    for op, a, b in vectors:
        result, carry = alu_reference(op, a, b, 2)
        expected.append(result | (carry << 2))
    assert [out["res"] for out in outputs] == expected


def test_micropipeline_crc_equivalence():
    vectors = [(0b0000, (0, 0)), (0b1010, (1, 0)), (0b1111, (1, 1))]
    _, outputs = _run(
        "gen:crc2@micropipeline",
        [{"msg": iv | (message[0] << 4) | (message[1] << 5)} for iv, message in vectors],
    )
    assert [out["crc"] for out in outputs] == [
        crc4_reference(iv, message) for iv, message in vectors
    ]


def test_micropipeline_mac_equivalence():
    vectors = [(0, 0), (3, 3), (1, 3), (2, 2)]
    _, outputs = _run("gen:mac2@micropipeline", [{"xw": x | (w << 2)} for x, w in vectors])
    assert [out["acc"] for out in outputs] == [bin(x & w).count("1") for x, w in vectors]
