"""Tests for benchmark circuits, baselines, analysis helpers and the API."""

import hashlib
import json
import random

import pytest

from repro import api
from repro.analysis.area import design_area_report, fabric_area_report, plb_area_estimate
from repro.analysis.figures import render_fabric_floorplan, render_figure1_plb, render_figure2_le
from repro.analysis.tables import format_table
from repro.baselines.compare import compare_with_sync_baseline, prior_art_table
from repro.baselines.priorart import prior_art_fpgas, style_support_matrix, styles_supported_count
from repro.baselines.sync_fpga import SyncFPGAParams, map_to_sync_fpga
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.metrics import filling_ratio
from repro.cad.pack import pack_design
from repro.cad.techmap import template_map
from repro.circuits.adders import micropipeline_ripple_adder, qdi_ripple_adder
from repro.circuits.fifo import wchb_fifo, wchb_ring
from repro.circuits.fulladder import micropipeline_full_adder, qdi_full_adder
from repro.circuits.multiplier import qdi_multiplier
from repro.circuits.registry import build_circuit, circuit_registry
from repro.core.params import ArchitectureParams
from repro.sim import GateLevelSimulator, drive
from repro.sim.lesim import simulate_mapped_design
from repro.styles.base import LogicStyle, StyledCircuit
from test_golden_digests import COMPOSED


# ----------------------------------------------------------------------
# Adders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [1, 2, 4])
def test_qdi_ripple_adder_structure(bits):
    adder = qdi_ripple_adder(bits)
    assert adder.style is LogicStyle.QDI_DUAL_RAIL
    assert adder.mapped.validate() == []
    # 5 LEs per slice plus an acknowledge tree of (bits - 1) C-element LEs.
    assert len(adder.mapped.les) == 5 * bits + max(0, bits - 1)
    pack_design(adder.mapped)
    report = filling_ratio(adder.mapped)
    assert report.per_le > 0.5


def test_qdi_ripple_adder_functional_via_lesim():
    bits = 2
    adder = qdi_ripple_adder(bits)
    vectors = [(1, 2, 0), (3, 3, 1), (0, 0, 0), (2, 1, 1)]
    tokens = []
    for a, b, c in vectors:
        token = {"c0": c}
        for bit in range(bits):
            token[f"a{bit}"] = (a >> bit) & 1
            token[f"b{bit}"] = (b >> bit) & 1
        tokens.append(token)
    run = drive(adder, simulate_mapped_design(adder.mapped), tokens)
    assert len(run.outputs) == len(vectors)
    for out, (a, b, c) in zip(run.outputs, vectors):
        total = a + b + c
        for bit in range(bits):
            assert out[f"s{bit}"] == (total >> bit) & 1
        assert out[f"c{bits}"] == (total >> bits) & 1


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
def test_micropipeline_ripple_adder_structure(bits):
    adder = micropipeline_ripple_adder(bits)
    assert adder.mapped.validate() == []
    assert len(adder.mapped.pdes) == 1
    assert adder.mapped.pdes[0].delay_ps >= 150 * bits
    pack_design(adder.mapped)
    report = filling_ratio(adder.mapped)
    assert 0.3 < report.per_le < 0.8


def test_micropipeline_ripple_adder_functional():
    bits = 3
    adder = micropipeline_ripple_adder(bits)
    vectors = [(5, 2, 1), (7, 7, 1), (0, 0, 0), (3, 4, 0)]
    run = drive(
        adder,
        simulate_mapped_design(adder.mapped),
        [{"ops": a | (b << bits) | (c << (2 * bits))} for a, b, c in vectors],
    )
    assert [out["res"] for out in run.outputs] == [a + b + c for a, b, c in vectors]


def test_adder_argument_validation():
    with pytest.raises(ValueError):
        qdi_ripple_adder(0)
    with pytest.raises(ValueError):
        micropipeline_ripple_adder(0)
    with pytest.raises(ValueError):
        qdi_ripple_adder(2, encoding="9-rail")


# ----------------------------------------------------------------------
# Multiplier / FIFO / ring
# ----------------------------------------------------------------------
def test_qdi_multiplier_functional():
    circuit = qdi_multiplier(2)
    vectors = [(3, 2), (1, 3), (0, 2), (3, 3)]
    run = drive(
        circuit, GateLevelSimulator(circuit.netlist), [{"a": a, "b": b} for a, b in vectors]
    )
    assert len(run.outputs) == len(vectors)
    for out, (a, b) in zip(run.outputs, vectors):
        product = a * b
        value = sum(out[f"p{i}"] << i for i in range(4))
        assert value == product


def test_qdi_multiplier_4x4_composed_functional():
    from repro.circuits.multiplier import qdi_multiplier_4x4

    bench = qdi_multiplier_4x4()
    assert bench.mapped.validate() == []
    vectors = [(15, 15), (9, 13), (0, 7), (5, 11)]
    run = drive(
        bench,
        simulate_mapped_design(bench.mapped),
        [{"al": a & 3, "ah": a >> 2, "bl": b & 3, "bh": b >> 2} for a, b in vectors],
    )
    assert len(run.outputs) == len(vectors)
    for out, (a, b) in zip(run.outputs, vectors):
        product = sum(
            out[channel.name] << bit for bit, channel in enumerate(bench.output_channels)
        )
        assert product == a * b


def test_qdi_multiplier_limits():
    with pytest.raises(ValueError):
        qdi_multiplier(4)
    with pytest.raises(ValueError):
        qdi_multiplier(0)
    with pytest.raises(ValueError):
        qdi_multiplier(2, encoding="gray")


def test_wchb_fifo_and_ring_structure():
    fifo = wchb_fifo(5, width_bits=2)
    assert fifo.metadata["stages"] == 5
    ring = wchb_ring(4)
    assert ring.metadata["ring"] is True
    assert ring.netlist.cell_count("C2") >= 4
    with pytest.raises(ValueError):
        wchb_ring(2)


def test_circuit_registry():
    registry = circuit_registry()
    assert "qdi_full_adder" in registry
    assert "qdi_ripple_adder_4" in registry
    # Both multipliers are registered as mappable workloads: decomposition
    # handles their wide rail functions on the default LE.
    assert "qdi_multiplier_2x2" in registry
    assert "qdi_multiplier_4x4" in registry
    circuit = build_circuit("micropipeline_full_adder")
    assert circuit.style is LogicStyle.MICROPIPELINE
    with pytest.raises(KeyError):
        build_circuit("does_not_exist")


#: Every registry circuit, and the compositions only the golden digests build.
INTERFACE_CASES = {**circuit_registry(), **COMPOSED}

#: One sha256 per :data:`INTERFACE_CASES` entry over its :func:`drive` runs
#: on every simulator the test runs, in order (LE-level, then gate-level for
#: styled circuits): outputs, ``end_time_ps`` and each issued token's value
#: and handshake times (see :func:`_handshake_digest`).
GOLDEN_HANDSHAKES = {
    "gen:alu2@micropipeline": "ffec0e3b6e8a9ed7fe70e7ef6924f54047d033b80f6398d47e23d6ac79a9cfc4",
    "gen:alu2@qdi": "e76a06f5170f99f290360ad32664ed87962d3811d2726ea21c09cf115c8d0fed",
    "gen:alu4@micropipeline": "7f9a1564c149e6b88ac171bf315a0330d1e49164f9e2cf9555f1ce4810b7468d",
    "gen:alu4@qdi": "4167ece73bc25ee7922b6645672ac782e45492edb7cd13df1ce9a4d70e276898",
    "gen:crc4@micropipeline": "6d3ab84bd353b0d6a4443b30b8e3b735571d5c6946ffa5aceb03f984725c9090",
    "gen:crc4@qdi": "65898d979c45db2162d597c29863963a1ac90e3c4c548ce31269aed3db516523",
    "gen:crc8@micropipeline": "248c5e65d880fdf98ba17c945df87378bd04b57602b333d7517cfa0cb2cfe5fe",
    "gen:crc8@qdi": "110ce6ff064b16c73cbae1b99b904e2ba4cdd86fbdc20f322a88415c266ba98c",
    "gen:mac2@micropipeline": "bd274fb7825e476704bfea786b0b89be1b0ad218c69ecdbb1089604e6956965d",
    "gen:mac2@qdi": "fcb6c3c39c99d326bf1de1fbc34f55b6a0734474aa5e139d848b36f6e8ac7fdb",
    "gen:mac4@micropipeline": "c790bc3cda4427467b3c5404de7d7a5c38068e3996fcc172a44c0a3f34e44cec",
    "gen:mac4@qdi": "b1d01b4b10aeb644017a0e4494c45d02427a851dab8c558e2aa19047c7ea00f9",
    "gen:mult2x2@micropipeline": "0960ee34e76fae5a59a9ab62378ec1c9f76f7cf6fbb151537236efa62b08c92c",
    "gen:mult2x2@qdi": "b64e630b4042453496c7c63a6d70c8719c4e88cfb64e5be78691337e9d0687da",
    "gen:mult3x3@qdi": "904e2adc3a2fdd219a9555c297020e08b71534ca12176e4a17177d6ad9a0a1b2",
    "gen:mult4x4@micropipeline": "9563bca3e3e9fa4badbdd699b47407fbd08f38c992b4612e6d57e3757f718ad8",
    "gen:mult4x4@qdi": "802a193f3ced77f4bcf8874f99419b2b3c3cb991919b53e9fe443dca64decbc0",
    "gen:mult8x8@micropipeline": "fa869987d1a642dbcd53f5105d85ee87f5d21fd96b65923728da77438b3a444a",
    "micropipeline_full_adder": "a58f69a6d037f063efea7d21301d6d9f778646d64698742d98ee0ea5c163ca3f",
    "micropipeline_ripple_adder_16": "baa13833fcf9b3cba00e596fc2b6ac0d617c95726b86319f2b90a70486061da8",
    "micropipeline_ripple_adder_2": "b6ae12665b363c798f56c45b626775f5332795d69cba9c38d935eb802def1737",
    "micropipeline_ripple_adder_4": "bd57dbf29261ce4155cae6366bbf4d8f862e0ce1ec894ca840c23d2fc10a645a",
    "micropipeline_ripple_adder_8": "4cca079ba9a6c73782643011d2564e7d7c87cc8d90442c7758d2d8db435be0b9",
    "qdi_full_adder": "c1f9686a6e453a68a08520140642218f1be28a34950db77591530a067b7fa581",
    "qdi_full_adder_1of4": "3819ac422c6943aee57c4015282268b4c2348785e6276e254fd927a1ad141993",
    "qdi_multiplier_2x2": "5a257e2135b59ef0c227ece25d42193f7f86fc996838bec57c9ec6542ca96252",
    "qdi_multiplier_4x4": "b70da1625ea53ba5a3d5ce95e5afe281c0ad27502692714be7f420bbb5aba017",
    "qdi_ripple_adder(1)": "4dac76e50589ef7a3c8ec6f42bc6957756201f246a978cc65c80066b3dc38579",
    "qdi_ripple_adder(4, 1-of-4)": "2b3981d6cce716db52e9c71915c7e0b2307d9bfdf366b4d18bbd1a263171e088",
    "qdi_ripple_adder_16": "1efb73571cf5c7d5f124358bc85f6cf3ebcea45b9a94437aad1e5066081a16ca",
    "qdi_ripple_adder_2": "1c2d1e8135d1553a2e5037fa03ffa00aae5ee0f0c300432b403d0872285016f1",
    "qdi_ripple_adder_4": "d3dbfadced2f2d80b1344253ae56d0cba06cbeec26bbbe0193b08577e1963fb7",
    "qdi_ripple_adder_8": "418024c75a779e0c3a190da49d77fbaffe199056885f673abeb46db0a04c316a",
    "wchb_fifo_4": "f3770af6e5b8ae5b37ceec492f289cd7657803560bf374f6aedde66eb866886d",
    "wchb_fifo_8": "fa48e1212d742a6462b38522aebbbd20af0f8656b00e15874dec40d90df71b64",
}


def _handshake_digest(runs):
    payload = [
        {
            "outputs": run.outputs,
            "end_time_ps": run.end_time_ps,
            "issued": {
                name: [
                    [token.value, token.issued_at, token.accepted_at, token.completed_at]
                    for token in tokens
                ]
                for name, tokens in run.issued.items()
            },
        }
        for run in runs
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(INTERFACE_CASES))
def test_every_circuit_handshakes_through_its_interface(name):
    circuit = INTERFACE_CASES[name]()
    rng = random.Random(name)
    tokens = [
        {channel.name: rng.randrange(1 << channel.width_bits) for channel in circuit.input_channels}
        for _ in range(8)
    ]
    if isinstance(circuit, StyledCircuit):
        simulators = [
            simulate_mapped_design(template_map(circuit)),
            GateLevelSimulator(circuit.netlist),
        ]
    else:
        simulators = [simulate_mapped_design(circuit.mapped)]
    names = {channel.name for channel in circuit.output_channels}
    runs = [drive(circuit, simulator, tokens) for simulator in simulators]
    for run in runs:
        assert len(run.outputs) == len(tokens)
        assert all(set(out) == names for out in run.outputs)
    assert _handshake_digest(runs) == GOLDEN_HANDSHAKES[name]


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def test_sync_baseline_mapping_shows_overhead():
    qdi = qdi_full_adder()
    result = map_to_sync_fpga(qdi.netlist)
    assert result.luts_used > 10            # versus 5 LEs on the paper's fabric
    assert result.feedback_luts >= 8        # every DIMS C-element needs a looped LUT
    assert result.wasted_flip_flops > 0
    assert 0 < result.lut_input_utilisation <= 1
    row = result.as_row()
    assert row["luts"] == result.luts_used


def test_sync_baseline_counts_delay_emulation():
    mp = micropipeline_full_adder()
    result = map_to_sync_fpga(mp.netlist)
    assert any("matched delays" in note for note in result.notes)
    params = SyncFPGAParams()
    assert result.config_bits_used == result.clbs_used * params.clb_config_bits


def test_prior_art_matrix():
    fpgas = prior_art_fpgas()
    assert len(fpgas) == 6
    matrix = style_support_matrix()
    ours = matrix["Multi-style (this paper)"]
    assert all(ours.values())  # the paper's architecture supports every style
    counts = styles_supported_count()
    assert counts["Multi-style (this paper)"] == max(counts.values())
    assert counts["PGA-STC"] < counts["Multi-style (this paper)"]
    rows = prior_art_table()
    assert len(rows) == 6
    assert all("styles_supported" in row for row in rows)


def test_compare_with_sync_baseline_rows():
    rows = compare_with_sync_baseline([qdi_full_adder(), micropipeline_full_adder()])
    assert len(rows) == 2
    for row in rows:
        assert row["sync_luts"] > row["async_les"]
        assert row["lut_per_le_ratio"] > 1


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def test_area_reports():
    plb = plb_area_estimate()
    assert plb["plb_config_bits"] == ArchitectureParams().plb.config_bits
    assert plb["plb_transistor_estimate"] > plb["plb_config_bits"]
    fabric = fabric_area_report(ArchitectureParams(width=3, height=3))
    assert fabric["plb_count"] == 9
    assert fabric["config_bits_total"] == fabric["config_bits_logic"] + fabric["config_bits_routing"]
    design = api.map_full_adder("qdi", options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)).mapped
    report = design_area_report(design)
    assert report["les_used"] == 5
    assert report["plbs_used"] == 3


def test_figure_renderings_mention_parameters():
    fig2 = render_figure2_le()
    assert "LUT7-3" in fig2 and "LUT2" in fig2
    fig1 = render_figure1_plb()
    assert "Interconnection Matrix" in fig1 and "PDE" in fig1
    flow = CadFlow(ArchitectureParams(width=4, height=4))
    result = flow.run(qdi_full_adder())
    floorplan = render_fabric_floorplan(flow.fabric, result.placement)
    assert "4x4" in floorplan
    assert "plb0" in floorplan


def test_format_table():
    rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 1.25}]
    text = format_table(rows)
    assert "a" in text and "22" in text and "1.250" in text
    assert format_table([]) == "(no rows)"


# ----------------------------------------------------------------------
# High-level API
# ----------------------------------------------------------------------
def test_api_map_full_adder_styles():
    options = FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
    qdi = api.map_full_adder("qdi", options=options)
    mp = api.map_full_adder("micropipeline", options=options)
    one_of_four = api.map_full_adder("1-of-4", options=options)
    assert qdi.filling.per_le > mp.filling.per_le
    assert one_of_four.mapped.style is LogicStyle.QDI_ONE_OF_FOUR
    with pytest.raises(ValueError):
        api.map_full_adder("synchronous")


def test_api_reproduce_filling_ratios_table():
    rows = api.reproduce_filling_ratios()
    by_style = {row["style"]: row for row in rows}
    assert by_style["qdi-dual-rail"]["paper_filling_ratio"] == 0.76
    assert by_style["micropipeline"]["paper_filling_ratio"] == 0.51
    assert by_style["qdi-dual-rail"]["measured_filling_ratio"] > by_style["micropipeline"]["measured_filling_ratio"]


def test_api_simulate_circuit():
    assert api.simulate_circuit("qdi").correct
    assert api.simulate_circuit("micropipeline", use_mapped=True).correct
    outcome = api.simulate_circuit("qdi", vectors=[(1, 1, 1)], use_mapped=True)
    assert outcome.sums == [1] and outcome.carries == [1]
    with pytest.raises(ValueError):
        api.simulate_circuit("rtl")


def test_api_simulate_circuit_names_the_one_of_four_adder():
    # Both names of the 1-of-4 style simulate the 1-of-4 adder, at either level.
    for outcome in (
        api.simulate_circuit("1-of-4"),
        api.simulate_circuit("qdi-1-of-4", use_mapped=True),
    ):
        assert outcome.style == "qdi-1-of-4"
        assert outcome.correct
