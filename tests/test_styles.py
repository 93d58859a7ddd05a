"""Tests for the logic-style generators (gate level) and their simulation."""

import pytest

from repro.asynclogic.channels import Channel
from repro.asynclogic.encodings import BundledDataEncoding, DualRailEncoding
from repro.circuits.fulladder import reference_sum_carry
from repro.logic.functions import xor_table
from repro.sim import GateLevelSimulator, drive
from repro.sim.handshake import HandshakeDeadlock
from repro.styles import (
    LogicStyle,
    available_styles,
    dims_function_block,
    micropipeline_full_adder_stage,
    micropipeline_stage,
    qdi_full_adder_block,
    style_info,
    wchb_buffer_stage,
    wchb_pipeline,
)
from repro.styles.base import StyledCircuit
from repro.verify import LintConfig, LintContext, run_rules

#: The structural netlist rules (undriven, dangling, undriven output,
#: unused input, combinational loop).
STRUCTURAL = LintConfig(enabled=frozenset({"NET001", "NET002", "NET003", "NET004", "NET005"}))


def _structurally_sound(circuit: StyledCircuit) -> bool:
    context = LintContext(name=circuit.name, netlist=circuit.netlist)
    return run_rules(context, STRUCTURAL).ok


# ----------------------------------------------------------------------
# Style registry
# ----------------------------------------------------------------------
def test_style_registry():
    infos = available_styles()
    assert len(infos) == 4
    assert style_info("qdi").style is LogicStyle.QDI_DUAL_RAIL
    assert style_info("bundled-data").style is LogicStyle.MICROPIPELINE
    assert style_info(LogicStyle.WCHB).timing_class.name == "QDI"
    assert style_info("micropipeline").uses_delay_element
    assert not style_info("qdi").uses_delay_element
    with pytest.raises(KeyError):
        LogicStyle.from_name("nonsense")


def test_styled_circuit_helpers():
    circuit = qdi_full_adder_block()
    assert isinstance(circuit, StyledCircuit)
    assert circuit.channel("a").name == "a"
    with pytest.raises(KeyError):
        circuit.channel("zzz")
    summary = circuit.summary()
    assert summary["c_elements"] > 0
    assert summary["delay_elements"] == 0


# ----------------------------------------------------------------------
# QDI / DIMS
# ----------------------------------------------------------------------
def test_qdi_full_adder_structure():
    circuit = qdi_full_adder_block()
    assert circuit.style is LogicStyle.QDI_DUAL_RAIL
    assert _structurally_sound(circuit)
    histogram = circuit.netlist.cell_histogram()
    # DIMS: one C-tree per input combination (8 combinations) plus completion.
    assert sum(count for name, count in histogram.items() if name.startswith("C")) >= 8


def test_qdi_full_adder_exhaustive_handshake():
    circuit = qdi_full_adder_block()
    vectors = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    run = drive(
        circuit,
        GateLevelSimulator(circuit.netlist),
        [{"a": a, "b": b, "cin": c} for a, b, c in vectors],
    )
    expected = [reference_sum_carry(*v) for v in vectors]
    assert [(out["sum"], out["cout"]) for out in run.outputs] == expected
    # every producer completed all its tokens
    assert sorted(run.issued) == ["a", "b", "cin"]
    for tokens in run.issued.values():
        assert len(tokens) == len(vectors)
        assert all(token.completed_at is not None for token in tokens)
    assert all(token.latency is not None for token in run.issued["a"])


def test_drive_raises_when_the_circuit_stops_acknowledging():
    # Acknowledging on an output rail: the all-zero token never raises sum_t,
    # so the producers wait for an acknowledge that never comes.
    circuit = qdi_full_adder_block()
    circuit.ack_nets = {name: "sum_t" for name in circuit.ack_nets}
    with pytest.raises(HandshakeDeadlock):
        drive(circuit, GateLevelSimulator(circuit.netlist), [{"a": 0, "b": 0, "cin": 0}])


def test_qdi_full_adder_one_of_four():
    circuit = qdi_full_adder_block(encoding="1-of-4")
    assert circuit.style is LogicStyle.QDI_ONE_OF_FOUR
    assert _structurally_sound(circuit)
    vectors = [(1, 0, 1), (1, 1, 1), (0, 0, 0), (0, 1, 1)]
    run = drive(
        circuit,
        GateLevelSimulator(circuit.netlist),
        [{"ab": a | (b << 1), "cin": c} for a, b, c in vectors],
    )
    expected = [reference_sum_carry(*v) for v in vectors]
    assert [(out["sum"], out["cout"]) for out in run.outputs] == expected


def test_qdi_full_adder_rejects_unknown_encoding():
    with pytest.raises(ValueError):
        qdi_full_adder_block(encoding="3-of-7")


def test_dims_block_rejects_bundled_channels():
    with pytest.raises(ValueError):
        dims_function_block(
            "bad",
            input_channels=[Channel("a", 1, BundledDataEncoding())],
            output_channels=[Channel("z", 1, DualRailEncoding())],
            function=lambda values: {"z": values["a"]},
        )


def test_dims_block_requires_complete_function():
    # An output channel value never produced -> one rail never asserted.
    with pytest.raises(ValueError):
        dims_function_block(
            "bad",
            input_channels=[Channel("a", 1, DualRailEncoding())],
            output_channels=[Channel("z", 1, DualRailEncoding())],
            function=lambda values: {"z": 1},
        )


def test_dims_buffer_is_identity():
    circuit = dims_function_block(
        "dims_buf",
        input_channels=[Channel("a", 1, DualRailEncoding())],
        output_channels=[Channel("z", 1, DualRailEncoding())],
        function=lambda values: {"z": values["a"]},
    )
    run = drive(circuit, GateLevelSimulator(circuit.netlist), [{"a": a} for a in (1, 0, 1, 1)])
    assert [out["z"] for out in run.outputs] == [1, 0, 1, 1]


# ----------------------------------------------------------------------
# Micropipeline
# ----------------------------------------------------------------------
def test_micropipeline_full_adder_structure():
    circuit = micropipeline_full_adder_stage()
    assert circuit.style is LogicStyle.MICROPIPELINE
    assert circuit.uses_delay_element
    assert circuit.netlist.cell_histogram().get("DELAY") == 1
    assert circuit.netlist.cell_histogram().get("LATCH") == 2
    assert _structurally_sound(circuit)
    delay_cell = [c for c in circuit.netlist.iter_cells() if c.type_name == "DELAY"][0]
    assert int(delay_cell.attributes["delay"]) == circuit.metadata["matched_delay"]


def test_micropipeline_full_adder_exhaustive():
    circuit = micropipeline_full_adder_stage()
    vectors = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    run = drive(
        circuit,
        GateLevelSimulator(circuit.netlist),
        [{"abc": a | (b << 1) | (c << 2)} for a, b, c in vectors],
    )
    expected = []
    for a, b, c in vectors:
        s, carry = reference_sum_carry(a, b, c)
        expected.append(s | (carry << 1))
    assert [out["sc"] for out in run.outputs] == expected


def test_micropipeline_stage_validates_channels_and_tables():
    dual = Channel("x", 1, DualRailEncoding())
    bundled_in = Channel("i", 2, BundledDataEncoding())
    bundled_out = Channel("o", 1, BundledDataEncoding())
    with pytest.raises(ValueError):
        micropipeline_stage("bad", dual, bundled_out, outputs={})
    with pytest.raises(ValueError):
        micropipeline_stage(
            "bad2",
            bundled_in,
            bundled_out,
            outputs={"wrong_wire": xor_table(inputs=bundled_in.data_wires())},
        )


# ----------------------------------------------------------------------
# WCHB
# ----------------------------------------------------------------------
def test_wchb_stage_rejects_mismatched_channels():
    with pytest.raises(ValueError):
        wchb_buffer_stage("bad", Channel("a", 1, DualRailEncoding()), Channel("b", 2, DualRailEncoding()))


def test_wchb_pipeline_transports_tokens_in_order():
    pipeline = wchb_pipeline("fifo", stages=3, width_bits=2)
    values = [3, 0, 2, 1, 3]
    run = drive(pipeline, GateLevelSimulator(pipeline.netlist), [{"in": v} for v in values])
    assert [out["out"] for out in run.outputs] == values


def test_wchb_pipeline_requires_stage():
    with pytest.raises(ValueError):
        wchb_pipeline("empty", stages=0)
