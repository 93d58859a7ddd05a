"""Tests for the spec-driven circuit generator families.

Three layers per family:

* spec parsing / registry integration (``gen:`` names resolve everywhere a
  registry circuit name does);
* structural goldens at N=2 (LE and PLB counts, plus full place & route on
  :func:`recommended_fabric` with a routed-channel-width golden);
* simulation equivalence at N=2 in both styles, against the pure-Python
  reference functions, through the handshake driver.

Adapted PLBs (fewer output pins than the paper's eight, built through each
family's builder) get full flows and a check that the pin binding accepts
every packed design.
"""

import pytest

import re

from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.pack import PackingError, bind_pins, pack_design
from repro.cad.techmap import generic_map, template_map
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
from repro.core.params import PLBParams
from repro.sim import drive
from repro.sim.lesim import simulate_mapped_design
from repro.styles.base import StyledCircuit
from repro.verify.lint import lint_flow_artifacts

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


#: The registry circuits that build as gate-level styled circuits.
STYLED_REGISTRY = (
    "qdi_full_adder",
    "qdi_full_adder_1of4",
    "micropipeline_full_adder",
    "qdi_multiplier_2x2",
    "wchb_fifo_4",
    "wchb_fifo_8",
)


@pytest.mark.parametrize("name", STYLED_REGISTRY)
def test_recommended_fabric_maps_styled_circuits_and_netlists(name):
    # Styled circuits are template-mapped and raw netlists generic-mapped,
    # as the flow maps them: the fabric is the one their mapped design gets.
    circuit = build_circuit(name)
    assert isinstance(circuit, StyledCircuit)
    expected = recommended_fabric(template_map(circuit), slack=2)
    assert recommended_fabric(circuit, slack=2) == expected
    assert recommended_fabric(circuit.netlist) == recommended_fabric(generic_map(circuit.netlist))


# ----------------------------------------------------------------------
# Adapted PLBs: fewer output pins than the paper's eight
# ----------------------------------------------------------------------
def _build(spec: str, params: PLBParams):
    """*spec* built for PLBs of *params* through its family's builder."""
    parsed = parse_spec(spec)
    return generator_families()[parsed.family].builder(parsed, params)


#: Specs whose packed PLBs exported more nets than 3 or 4 output pins hold
#: while the packer allowed ``plb_outputs + les_per_plb`` raw outputs.
ADAPTED_FLOW_SPECS = (
    "gen:mult2x2@qdi",
    "gen:mult2x2@micropipeline",
    "gen:alu2@qdi",
    "gen:alu2@micropipeline",
    "gen:mac2@qdi",
    "gen:mac2@micropipeline",
    "gen:crc2@qdi",
    "gen:crc4@micropipeline",
)


@pytest.mark.parametrize("plb_outputs", [3, 4])
@pytest.mark.parametrize("spec", ADAPTED_FLOW_SPECS)
def test_adapted_plb_flows_route_and_lint_clean(spec, plb_outputs):
    bench = _build(spec, PLBParams(plb_outputs=plb_outputs))
    flow = CadFlow(recommended_fabric(bench), FlowOptions(placement_seed=1))
    result = flow.run(bench)
    assert result.summary()["routing_success"] is True
    assert lint_flow_artifacts(result, flow).error_count == 0


BINDING_SPECS = (
    "gen:mult2x2@micropipeline",
    "gen:mult3x3@micropipeline",
    "gen:alu2@micropipeline",
    "gen:alu4@micropipeline",
    "gen:crc2@micropipeline",
    "gen:crc4@micropipeline",
    "gen:mac2@micropipeline",
    "gen:mac4@micropipeline",
    "gen:mult2x2@qdi",
    "gen:alu2@qdi",
    "gen:crc2@qdi",
    "gen:mac2@qdi",
)


def _exported_nets(design, group) -> set[str]:
    """Nets LEs *group* drive that are primary outputs or other LEs read."""
    read_outside = {
        net for le in design.les if le not in group for net in le.external_input_nets
    }
    return {
        net
        for le in group
        for net in le.output_nets
        if net in design.primary_outputs or net in read_outside
    }


@pytest.mark.parametrize("plb_outputs", range(2, 9))
def test_pin_binding_accepts_every_packed_design(plb_outputs):
    params = PLBParams(plb_outputs=plb_outputs)
    for spec in BINDING_SPECS:
        design = _build(spec, params).mapped
        try:
            pack_design(design, params)
        except PackingError as exc:
            # Only an LE exporting more nets than a PLB has output pins,
            # alone and with every LE that could share its PLB, stops the
            # packer (a PDE there could only export more).
            name = re.match(r"LE (\S+) exports", str(exc)).group(1)
            lonely = next(le for le in design.les if le.name == name)
            assert all(
                len(_exported_nets(design, [lonely, *partner])) > plb_outputs
                for partner in [[]] + [[le] for le in design.les if le is not lonely]
            ), (spec, str(exc))
            continue
        binding = bind_pins(design)
        assert all(len(pins) <= plb_outputs for pins in binding.outputs.values()), spec


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
