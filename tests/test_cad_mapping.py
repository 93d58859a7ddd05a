"""Tests for the LE-level IR, the technology mappers, packing and metrics."""

import pytest

from repro.cad.lemap import LEFunction, MappedDesign, MappedLE, MappedPLB, merge_mapped_designs
from repro.cad.metrics import filling_ratio, utilisation_report
from repro.cad.pack import PackingError, pack_design, packing_summary
from repro.cad.techmap import MappingError, _qdi_rail_tables, generic_map, template_map
from repro.circuits.fulladder import micropipeline_full_adder, qdi_full_adder, reference_sum_carry
from repro.circuits.registry import build_circuit
from repro.core.params import LEParams, PLBParams
from repro.logic.functions import and_table, c_element_table, or_table, xor_table
from repro.logic.truthtable import TruthTable
from repro.netlist.builder import NetlistBuilder
from repro.sim import drive
from repro.sim.lesim import simulate_mapped_design
from repro.styles.base import LogicStyle


# ----------------------------------------------------------------------
# IR basics
# ----------------------------------------------------------------------
def test_le_function_properties():
    table = c_element_table(("a", "b"), state="z").rename({"a": "a", "b": "b"})
    function = LEFunction(output_net="z", table=table.rename({"z": "z"}), role="ack")
    # the state variable of c_element_table is named via 'state', so rebuild properly
    table = TruthTable.from_function(("a", "b", "z"), lambda a, b, z: 1 if (a and b) else (0 if (not a and not b) else z))
    function = LEFunction(output_net="z", table=table)
    assert function.has_feedback
    assert function.external_inputs == ("a", "b")
    assert function.arity == 3


def test_mapped_le_constraints_and_views():
    params = PLBParams()
    le = MappedLE(
        name="le0",
        functions=[
            LEFunction("x", xor_table(inputs=("a", "b", "c"))),
            LEFunction("y", and_table(inputs=("a", "d"))),
        ],
        validity=LEFunction("v", or_table(inputs=("x", "y")), role="validity"),
    )
    assert set(le.lut_input_nets) == {"a", "b", "c", "d"}
    assert le.output_nets == ("x", "y", "v")
    assert set(le.external_input_nets) == {"a", "b", "c", "d"}
    assert le.feedback_nets == ("x", "y")  # validity reads its own LE's outputs
    assert le.fits(params)
    usage = le.utilisation(params)
    assert usage["lut_inputs_used"] == 4 and usage["lut_outputs_used"] == 2

    too_wide = MappedLE(
        name="wide",
        functions=[LEFunction("z", xor_table(inputs=tuple(f"n{i}" for i in range(8))))],
    )
    assert not too_wide.fits(params)


def test_mapped_plb_external_inputs():
    plb = MappedPLB(
        name="plb0",
        les=[
            MappedLE("le0", functions=[LEFunction("m", and_table(inputs=("a", "b")))]),
            MappedLE("le1", functions=[LEFunction("z", or_table(inputs=("m", "c")))]),
        ],
    )
    assert set(plb.external_input_nets) == {"a", "b", "c"}
    assert "m" in plb.output_nets


def test_mapped_design_validate_detects_problems():
    params = PLBParams()
    design = MappedDesign(name="bad", params=params)
    design.les = [
        MappedLE("le0", functions=[LEFunction("x", and_table(inputs=("a", "b")))]),
        MappedLE("le1", functions=[LEFunction("x", or_table(inputs=("a", "c")))]),  # double driver
    ]
    design.primary_inputs = ["a"]
    problems = design.validate()
    assert any("driven by both" in problem for problem in problems)
    assert any("undriven net" in problem for problem in problems)  # b and c undriven


def test_merge_mapped_designs():
    params = PLBParams()
    first = MappedDesign(name="a", params=params, primary_inputs=["i"], primary_outputs=["m"])
    first.les = [MappedLE("le_m", functions=[LEFunction("m", and_table(inputs=("i", "i2")))])]
    first.primary_inputs = ["i", "i2"]
    second = MappedDesign(name="b", params=params, primary_inputs=["m"], primary_outputs=["o"])
    second.les = [MappedLE("le_o", functions=[LEFunction("o", or_table(inputs=("m", "i2")))])]
    merged = merge_mapped_designs("ab", [first, second])
    assert "m" not in merged.primary_inputs  # driven internally
    assert set(merged.primary_inputs) == {"i", "i2"}
    assert merged.validate() == []


# ----------------------------------------------------------------------
# Template mapping
# ----------------------------------------------------------------------
def test_template_map_qdi_structure():
    design = template_map(qdi_full_adder())
    assert design.style is LogicStyle.QDI_DUAL_RAIL
    assert design.validate() == []
    # one LE per output rail + one for the acknowledge
    assert len(design.les) == 5
    roles = {function.role for le in design.les for function in le.functions}
    assert "ack" in roles and "logic" in roles
    rail_les = [le for le in design.les for f in le.functions if f.role == "logic"]
    assert all(f.has_feedback for le in rail_les for f in le.functions if f.role == "logic")
    # the two output digits have validity functions on the LUT2s
    assert sum(1 for le in design.les if le.validity is not None) == 2
    assert design.pdes == []


def test_template_map_qdi_preserves_behaviour():
    circuit = qdi_full_adder()
    design = template_map(circuit)
    vectors = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    run = drive(
        circuit,
        simulate_mapped_design(design),
        [{"a": a, "b": b, "cin": c} for a, b, c in vectors],
    )
    expected = [reference_sum_carry(*v) for v in vectors]
    assert [(out["sum"], out["cout"]) for out in run.outputs] == expected


def _per_row_rail_table(circuit, output_channel, rail_wire):
    """One QDI rail's next-state table, built row by row (the test oracle).

    The rail rises when every input digit is valid and the reference function
    asserts this rail; it falls when every input digit is neutral; it holds
    its value otherwise.
    """
    function = circuit.metadata["reference_function"]
    input_channels = list(circuit.input_channels)
    input_wires = [wire for channel in input_channels for wire in channel.data_wires()]
    table_inputs = tuple(input_wires) + (rail_wire,)

    def next_state(*values):
        assignment = dict(zip(table_inputs, values))
        wire_values = {wire: assignment[wire] for wire in input_wires}
        all_valid = all(
            channel.is_valid({w: wire_values[w] for w in channel.data_wires()})
            for channel in input_channels
        )
        all_neutral = all(
            channel.is_neutral({w: wire_values[w] for w in channel.data_wires()})
            for channel in input_channels
        )
        if all_valid:
            channel_values = {
                channel.name: channel.decode({w: wire_values[w] for w in channel.data_wires()})
                for channel in input_channels
            }
            outputs = function(channel_values)
            return output_channel.encode(outputs[output_channel.name])[rail_wire]
        if all_neutral:
            return 0
        return assignment[rail_wire]

    return TruthTable.from_function(table_inputs, next_state, name=f"rail_{rail_wire}")


@pytest.mark.parametrize("name", ["qdi_full_adder", "qdi_full_adder_1of4", "qdi_multiplier_2x2"])
def test_qdi_rail_tables_match_per_row_definition(name):
    circuit = build_circuit(name)
    tables = _qdi_rail_tables(
        list(circuit.input_channels), list(circuit.output_channels), circuit
    )
    expected = {
        rail: _per_row_rail_table(circuit, channel, rail)
        for channel in circuit.output_channels
        for rail in channel.data_wires()
    }
    assert tables == expected
    assert all(table.name == expected[rail].name for rail, table in tables.items())


def test_template_map_micropipeline_structure():
    design = template_map(micropipeline_full_adder())
    assert design.style is LogicStyle.MICROPIPELINE
    assert design.validate() == []
    assert len(design.pdes) == 1
    assert design.pdes[0].delay_ps > 0
    roles = [function.role for le in design.les for function in le.functions]
    assert roles.count("latch") == 2
    assert roles.count("controller") == 2
    # latch functions absorb the datapath and keep their own feedback
    latch_functions = [f for le in design.les for f in le.functions if f.role == "latch"]
    assert all(f.has_feedback for f in latch_functions)


def test_template_map_micropipeline_preserves_behaviour():
    circuit = micropipeline_full_adder()
    design = template_map(circuit)
    vectors = [(1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 0, 0), (1, 0, 0)]
    run = drive(
        circuit,
        simulate_mapped_design(design),
        [{"abc": a | (b << 1) | (c << 2)} for a, b, c in vectors],
    )
    expected = [s | (c << 1) for s, c in (reference_sum_carry(*v) for v in vectors)]
    assert [out["sc"] for out in run.outputs] == expected


def test_template_map_requires_metadata():
    circuit = qdi_full_adder()
    del circuit.metadata["reference_function"]
    with pytest.raises(MappingError):
        template_map(circuit)
    stage = micropipeline_full_adder()
    del stage.metadata["datapath_tables"]
    with pytest.raises(MappingError):
        template_map(stage)


def test_template_map_decomposes_too_wide_rail_functions():
    # An LE with fewer LUT inputs cannot host the 7-input rail functions
    # natively; the mapper decomposes them across synthetic nets instead of
    # rejecting the circuit, and the mapped design still behaves correctly.
    small = PLBParams(le=LEParams(lut_inputs=4, lut_outputs=3))
    circuit = qdi_full_adder()
    design = template_map(circuit, small)
    assert design.validate() == []
    assert design.metadata["decomposition"]["intermediate_functions"] > 0
    assert all(len(le.lut_input_nets) <= 4 for le in design.les)

    vectors = [(1, 1, 1), (0, 1, 0), (1, 0, 1), (0, 0, 0)]
    run = drive(
        circuit,
        simulate_mapped_design(design),
        [{"a": a, "b": b, "cin": c} for a, b, c in vectors],
    )
    expected = [reference_sum_carry(*v) for v in vectors]
    assert [(out["sum"], out["cout"]) for out in run.outputs] == expected


def test_template_map_rejects_degenerate_lut_budget():
    # Below 3 LUT inputs even the decomposition multiplexers cannot fit.
    tiny = PLBParams(le=LEParams(lut_inputs=2, lut_outputs=3))
    with pytest.raises(MappingError):
        template_map(qdi_full_adder(), tiny)


# ----------------------------------------------------------------------
# Generic mapping
# ----------------------------------------------------------------------
def test_generic_map_simple_logic_collapses_to_one_lut():
    builder = NetlistBuilder("cone")
    a, b, c, d = builder.inputs("a", "b", "c", "d")
    x = builder.and2(a, b)
    y = builder.or2(x, c)
    builder.xor2(y, d, out="z")
    builder.output("z")
    design = generic_map(builder.build())
    assert len(design.les) == 1
    function = design.les[0].functions[0]
    assert set(function.input_nets) == {"a", "b", "c", "d"}
    for row in range(16):
        a_v, b_v, c_v, d_v = (row & 1), (row >> 1) & 1, (row >> 2) & 1, (row >> 3) & 1
        expected = (((a_v and b_v) or c_v) ^ d_v)
        assert function.table.evaluate({"a": a_v, "b": b_v, "c": c_v, "d": d_v}) == int(expected)


def test_generic_map_respects_budget_and_cuts():
    builder = NetlistBuilder("wide")
    inputs = builder.inputs(*[f"i{k}" for k in range(10)])
    level1 = [builder.and2(inputs[k], inputs[k + 1]) for k in range(0, 10, 2)]
    out = builder.or_tree(level1, out="z")
    builder.output("z")
    design = generic_map(builder.build(), max_lut_inputs=4)
    assert all(len(le.lut_input_nets) <= 4 for le in design.les)
    assert design.validate() == []
    assert len(design.les) > 1


def test_generic_map_sequential_cells_become_feedback_luts():
    builder = NetlistBuilder("ce")
    a, b = builder.inputs("a", "b")
    builder.c2(a, b, out="z")
    builder.output("z")
    design = generic_map(builder.build())
    assert len(design.les) == 1
    assert design.les[0].functions[0].has_feedback


def test_generic_map_delay_cells_become_pdes():
    circuit = micropipeline_full_adder()
    design = generic_map(circuit.netlist)
    assert len(design.pdes) == 1
    assert design.pdes[0].delay_ps == circuit.metadata["matched_delay"]
    assert design.validate() == []


def test_generic_map_unmappable_raises():
    builder = NetlistBuilder("hopeless")
    inputs = builder.inputs(*[f"i{k}" for k in range(9)])
    # A single 9-input sequential cone cannot be split below its own support.
    tree = builder.c_tree(inputs, out="z")
    builder.output("z")
    # A C-tree is made of C2 cells, each of which maps fine -- so instead force
    # the failure with a tiny budget that even a C2 (3 inputs incl. feedback)
    # cannot satisfy.
    with pytest.raises(MappingError):
        generic_map(builder.build(), max_lut_inputs=2)


# ----------------------------------------------------------------------
# Packing and metrics
# ----------------------------------------------------------------------
def test_pack_design_groups_les_and_attaches_pdes():
    design = template_map(micropipeline_full_adder())
    pack_design(design)
    assert len(design.plbs) == 1
    assert design.plbs[0].pde is not None
    summary = packing_summary(design)
    assert summary["les_used"] == 2 and summary["plbs"] == 1
    assert summary["le_occupancy"] == 1.0


def test_pack_design_respects_les_per_plb():
    design = template_map(qdi_full_adder())
    pack_design(design)
    assert len(design.plbs) == 3  # 5 LEs at 2 per PLB
    assert all(len(plb.les) <= 2 for plb in design.plbs)


def test_pack_design_rejects_illegal_le():
    params = PLBParams()
    design = MappedDesign(name="bad", params=params)
    design.les = [
        MappedLE("wide", functions=[LEFunction("z", xor_table(inputs=tuple(f"n{i}" for i in range(9))))])
    ]
    with pytest.raises(PackingError):
        pack_design(design)


def test_filling_ratio_reproduces_paper_shape():
    qdi = template_map(qdi_full_adder())
    pack_design(qdi)
    mp = template_map(micropipeline_full_adder())
    pack_design(mp)
    qdi_report = filling_ratio(qdi)
    mp_report = filling_ratio(mp)
    # Paper: QDI 76 %, micropipeline 51 % -- QDI must fill the LEs clearly better.
    assert qdi_report.per_le > mp_report.per_le
    assert qdi_report.per_le > 0.55
    assert 0.40 <= mp_report.per_le <= 0.65
    assert qdi_report.lut_inputs_only > mp_report.lut_inputs_only
    row = qdi_report.as_row()
    assert row["les"] == 5 and row["plbs"] == 3


def test_utilisation_report_fields():
    design = template_map(qdi_full_adder())
    pack_design(design)
    report = utilisation_report(design)
    assert report["lut_functions"] == 5
    assert report["validity_functions"] == 2
    assert report["feedback_nets"] == 5
    assert "le_occupancy" in report
