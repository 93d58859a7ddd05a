"""Integration tests tied to the paper's claims and cross-level consistency.

These tests are the executable form of EXPERIMENTS.md: each one checks the
*shape* of a paper claim (who wins, by roughly what factor) rather than an
absolute number, since the underlying substrate is a behavioural model.
"""

import pytest

from repro import api
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.metrics import filling_ratio
from repro.cad.pack import pack_design
from repro.cad.techmap import generic_map, template_map
from repro.circuits.adders import micropipeline_ripple_adder, qdi_ripple_adder
from repro.circuits.fulladder import micropipeline_full_adder, qdi_full_adder, reference_sum_carry
from repro.core.params import ArchitectureParams
from repro.sim import drive
from repro.sim.fabricsim import simulate_on_fabric
from repro.styles.base import LogicStyle


# ----------------------------------------------------------------------
# Section 5 headline: filling ratios (EXP-FR)
# ----------------------------------------------------------------------
def test_exp_fr_filling_ratio_shape():
    rows = api.reproduce_filling_ratios()
    by_style = {row["style"]: row["measured_filling_ratio"] for row in rows}
    qdi = by_style["qdi-dual-rail"]
    mp = by_style["micropipeline"]
    # Paper: 76 % vs 51 % (ratio 1.49).  The shape requirement: QDI fills the
    # LEs substantially better than micropipeline.
    assert qdi > mp
    assert qdi / mp > 1.15
    assert 0.55 <= qdi <= 0.9
    assert 0.40 <= mp <= 0.65


def test_exp_fr_micropipeline_uses_pde_and_qdi_does_not():
    mp = api.map_full_adder(
        "micropipeline", options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
    )
    qdi = api.map_full_adder(
        "qdi", options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
    )
    assert len(mp.mapped.pdes) == 1
    assert len(qdi.mapped.pdes) == 0
    # The micropipeline FA fits one PLB (2 LEs + PDE); the QDI FA needs three.
    assert len(mp.mapped.plbs) == 1
    assert len(qdi.mapped.plbs) == 3


# ----------------------------------------------------------------------
# Figure 3: both adders work on the fabric model, end to end (EXP-F3a/b)
# ----------------------------------------------------------------------
def test_exp_f3_qdi_full_adder_on_routed_fabric():
    flow = CadFlow(ArchitectureParams(width=5, height=5))
    circuit = qdi_full_adder()
    result = flow.run(circuit)
    assert result.routing is not None and result.routing.success
    vectors = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    run = drive(
        circuit,
        simulate_on_fabric(result),
        [{"a": a, "b": b, "cin": c} for a, b, c in vectors],
    )
    expected = [reference_sum_carry(*v) for v in vectors]
    assert [(out["sum"], out["cout"]) for out in run.outputs] == expected


def test_exp_f3_micropipeline_full_adder_on_routed_fabric():
    flow = CadFlow(ArchitectureParams(width=5, height=5))
    circuit = micropipeline_full_adder()
    result = flow.run(circuit)
    assert result.routing is not None and result.routing.success
    vectors = [(1, 0, 1), (1, 1, 1), (0, 0, 0), (0, 1, 0)]
    run = drive(
        circuit,
        simulate_on_fabric(result),
        [{"abc": a | (b << 1) | (c << 2)} for a, b, c in vectors],
    )
    expected = [s | (c << 1) for s, c in (reference_sum_carry(*v) for v in vectors)]
    assert [out["sc"] for out in run.outputs] == expected


# ----------------------------------------------------------------------
# QDI hazard-freedom on the mapped design
# ----------------------------------------------------------------------
def test_qdi_outputs_are_hazard_free_during_handshakes():
    circuit = qdi_full_adder()
    from repro.cad.techmap import template_map
    from repro.sim.lesim import simulate_mapped_design

    design = template_map(circuit)
    simulator = simulate_mapped_design(design, trace_all=True)
    vectors = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    run = drive(circuit, simulator, [{"a": a, "b": b, "cin": c} for a, b, c in vectors])
    # Every output rail transitions monotonically: the number of changes over
    # the whole run is exactly 2 per token that asserted the rail (set + reset).
    for wire in ("sum_f", "sum_t", "cout_f", "cout_t"):
        trace = simulator.traces[wire]
        changes = [change for change in trace if change[0] > 0]
        assert len(changes) % 2 == 0
        rises = sum(1 for _, value in changes if value == 1)
        # rises equal falls (every set returns to zero)
        falls = sum(1 for _, value in changes if value == 0)
        assert rises == falls
    assert run.end_time_ps > 0


# ----------------------------------------------------------------------
# Template vs generic mapping ablation
# ----------------------------------------------------------------------
def test_template_mapping_beats_generic_mapping():
    circuit = qdi_full_adder()
    template = template_map(circuit)
    pack_design(template)
    naive = generic_map(circuit.netlist)
    pack_design(naive)
    assert len(template.les) < len(naive.les) / 3
    assert filling_ratio(template).per_le > filling_ratio(naive).per_le


# ----------------------------------------------------------------------
# Scaling shape (EXP-EXT1)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits", [2, 4])
def test_adder_scaling_shapes(bits):
    qdi = qdi_ripple_adder(bits)
    mp = micropipeline_ripple_adder(bits)
    pack_design(qdi.mapped)
    pack_design(mp.mapped)
    # QDI costs considerably more LEs than bundled data for the same function
    # (the price of delay insensitivity), but fills them better.
    assert len(qdi.mapped.les) > len(mp.mapped.les)
    assert filling_ratio(qdi.mapped).per_le > filling_ratio(mp.mapped).per_le
    # Both grow linearly with the bit width.
    assert len(qdi.mapped.les) == 5 * bits + bits - 1
    assert len(mp.mapped.les) == bits + 1


# ----------------------------------------------------------------------
# Style coverage claim (Section 1 / EXP-PRIOR)
# ----------------------------------------------------------------------
def test_all_styles_map_onto_the_architecture():
    flow = CadFlow(
        ArchitectureParams(width=8, height=8),
        FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False),
    )
    from repro.circuits.fifo import wchb_fifo

    results = {
        LogicStyle.QDI_DUAL_RAIL: flow.run(qdi_full_adder()),
        LogicStyle.QDI_ONE_OF_FOUR: flow.run(qdi_full_adder(encoding="1-of-4", name="fa_1of4")),
        LogicStyle.MICROPIPELINE: flow.run(micropipeline_full_adder()),
        LogicStyle.WCHB: flow.run(wchb_fifo(3)),
    }
    for style, result in results.items():
        assert result.mapped.validate() == []
        assert len(result.mapped.les) > 0, style
