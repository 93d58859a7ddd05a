"""Tests for placement, routing, timing, configuration generation and the
end-to-end CAD flow."""

import pytest

from repro.cad.bitgen import ConfigurationError, configure_plbs, generate_bitstream
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.lemap import LEFunction, MappedDesign, MappedLE, MappedPDE, MappedPLB
from repro.cad.pack import PackingError, bind_pins, pack_design
from repro.cad.place import PlacementError, place_design
from repro.cad.route import RoutingError, route_design
from repro.cad.techmap import template_map
from repro.cad.timing import (
    CBOX_DELAY_PS,
    SWITCH_DELAY_PS,
    WIRE_SEGMENT_DELAY_PS,
    analyse_timing,
    bbox_net_delay,
    routed_net_delay,
)
from repro.circuits.fulladder import micropipeline_full_adder, qdi_full_adder
from repro.circuits.multiplier import qdi_multiplier
from repro.circuits.registry import build_circuit, circuit_registry
from repro.core.params import PLBParams
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams
from repro.core.plb import PLB
from repro.core.rrgraph import RoutingResourceGraph, RRNodeType
from repro.logic.functions import c_element_table, or_table
from repro.verify.invariants import routing_problem
from repro.verify.lint import lint_flow_artifacts


def _packed_qdi():
    design = template_map(qdi_full_adder())
    pack_design(design)
    return design


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def reference_pack(design: MappedDesign, params: PLBParams) -> MappedDesign:
    """The packer as it was before it derived each LE's nets once per call:
    a candidate PLB per (open PLB, remaining LE) pair, its nets and every
    affinity re-derived through the ``MappedLE`` / ``MappedPLB`` views."""

    def affinity(a, b):
        nets_a = set(a.external_input_nets) | set(a.output_nets)
        nets_b = set(b.external_input_nets) | set(b.output_nets)
        return len(nets_a & nets_b)

    def try_add(plb, le):
        candidate = MappedPLB(name=plb.name, les=plb.les + [le], pde=plb.pde)
        if len(candidate.les) > params.les_per_plb:
            return None
        if len(candidate.external_input_nets) > params.plb_inputs:
            return None
        if len(candidate.output_nets) > params.plb_outputs + params.les_per_plb:
            return None
        return candidate

    remaining = list(design.les)
    plbs = []
    while remaining:
        plb = MappedPLB(name=f"plb{len(plbs)}", les=[remaining.pop(0)])
        while len(plb.les) < params.les_per_plb and remaining:
            best_index, best_candidate, best_score = -1, None, -1
            for index, le in enumerate(remaining):
                candidate = try_add(plb, le)
                if candidate is None:
                    continue
                score = sum(affinity(le, packed) for packed in plb.les)
                if score > best_score:
                    best_index, best_candidate, best_score = index, candidate, score
            if best_candidate is None:
                break
            plb = best_candidate
            remaining.pop(best_index)
        plbs.append(plb)
    for pde in design.pdes:
        consumers = [
            plb
            for plb in plbs
            if pde.output_net in plb.external_input_nets
            or any(pde.output_net in le.external_input_nets for le in plb.les)
        ]
        target = next((plb for plb in consumers if plb.pde is None), None)
        if target is None:
            target = next((plb for plb in plbs if plb.pde is None), None)
        if target is None:
            target = MappedPLB(name=f"plb{len(plbs)}")
            plbs.append(target)
        target.pde = pde
    design.plbs = plbs
    return design


def test_pack_matches_the_reference_loop_on_every_circuit():
    from test_golden_digests import COMPOSED

    circuits = {name: build_circuit(name) for name in circuit_registry()}
    circuits.update((name, build()) for name, build in COMPOSED.items())
    flow = CadFlow(ArchitectureParams())
    for name, circuit in circuits.items():
        mapped = getattr(circuit, "mapped", None) or flow.map(circuit)
        payload = mapped.to_dict()
        expected = reference_pack(MappedDesign.from_dict(payload), mapped.params)
        packed = pack_design(MappedDesign.from_dict(payload))
        assert packed.plbs, name
        assert packed.to_dict() == expected.to_dict(), name


def test_pde_output_skips_a_reading_plb_whose_output_pins_are_full():
    # le_a drives two primary outputs, filling both output pins of its PLB,
    # and reads the delayed request req_d, which le_b reads too.  A PDE in
    # plb0 would export req_d to plb1 as a third net, so it goes to plb1,
    # the next PLB reading it, which then exports z and req_d.
    params = PLBParams(les_per_plb=1, plb_outputs=2)
    les = [
        MappedLE(
            "le_a",
            functions=[
                LEFunction("x", or_table(inputs=("req_d", "i0"))),
                LEFunction("y", or_table(inputs=("req_d", "i1"))),
            ],
        ),
        MappedLE("le_b", functions=[LEFunction("z", or_table(inputs=("req_d", "i2")))]),
    ]
    design = MappedDesign(
        "delayed_fanout",
        params,
        les=les,
        pdes=[MappedPDE(name="pde", input_net="req", output_net="req_d", delay_ps=300)],
        primary_inputs=["req", "i0", "i1", "i2"],
        primary_outputs=["x", "y", "z"],
    )
    pack_design(design)
    assert [(plb.name, [le.name for le in plb.les], plb.pde) for plb in design.plbs] == [
        ("plb0", ["le_a"], None),
        ("plb1", ["le_b"], design.pdes[0]),
    ]
    binding = bind_pins(design)
    assert binding.outputs == {
        "plb0": {"x": "out0", "y": "out1"},
        "plb1": {"req_d": "out0", "z": "out1"},
    }


def test_pde_skips_a_free_plb_whose_input_pins_are_full():
    # le_b reads both delayed requests, so the first PDE joins plb1.  The
    # second has no free reader left; plb0 is free but both its input pins
    # are taken, so the PDE gets a PLB of its own.
    params = PLBParams(les_per_plb=1, plb_inputs=2)
    les = [
        MappedLE("le_a", functions=[LEFunction("x", or_table(inputs=("i0", "i1")))]),
        MappedLE("le_b", functions=[LEFunction("y", or_table(inputs=("a_d", "b_d")))]),
    ]
    pdes = [
        MappedPDE(name="pde_a", input_net="a", output_net="a_d", delay_ps=300),
        MappedPDE(name="pde_b", input_net="b", output_net="b_d", delay_ps=300),
    ]
    design = MappedDesign(
        "delayed_pair",
        params,
        les=les,
        pdes=pdes,
        primary_inputs=["i0", "i1", "a", "b"],
        primary_outputs=["x", "y"],
    )
    pack_design(design)
    assert [plb.pde.name if plb.pde else None for plb in design.plbs] == [
        None,
        "pde_a",
        "pde_b",
    ]
    assert bind_pins(design).inputs["plb0"] == {"i0": "in0", "i1": "in1"}


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
def test_place_design_assigns_all_blocks_and_ios():
    design = _packed_qdi()
    fabric = Fabric(ArchitectureParams(width=4, height=4))
    placement = place_design(design, fabric, seed=3)
    assert len(placement.plb_sites) == len(design.plbs)
    assert len(set(placement.plb_sites.values())) == len(design.plbs)  # no overlap
    io_nets = set(design.primary_inputs) | set(design.primary_outputs)
    assert set(placement.io_sites) == io_nets
    pad_names = [pad.name for pad in placement.io_sites.values()]
    assert len(set(pad_names)) == len(pad_names)  # one pad per IO
    assert placement.cost <= placement.initial_cost or placement.cost >= 0


def test_place_design_deterministic_for_seed():
    design = _packed_qdi()
    fabric = Fabric(ArchitectureParams(width=4, height=4))
    first = place_design(design, fabric, seed=7)
    second = place_design(design, fabric, seed=7)
    assert first.plb_sites == second.plb_sites
    assert {net: pad.name for net, pad in first.io_sites.items()} == {
        net: pad.name for net, pad in second.io_sites.items()
    }


def test_place_design_requires_packing_and_capacity():
    fabric = Fabric(ArchitectureParams(width=1, height=1))
    unpacked = template_map(qdi_full_adder())
    with pytest.raises(PlacementError):
        place_design(unpacked, fabric)
    packed = _packed_qdi()
    with pytest.raises(PlacementError):
        place_design(packed, fabric)  # 3 PLBs cannot fit a 1x1 fabric


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def test_route_design_success_and_capacity_respected():
    design = _packed_qdi()
    params = ArchitectureParams(width=4, height=4)
    fabric = Fabric(params)
    graph = RoutingResourceGraph(fabric)
    placement = place_design(design, fabric, seed=5)
    result = route_design(design, placement, graph)
    assert result.success
    assert result.routed  # at least the ack / rail nets between PLBs
    assert result.total_wirelength > 0
    # Every net is routed to all of its sinks, connected and within capacity.
    assert routing_problem(design, placement, graph, result) is None


def test_route_design_narrow_channels_may_fail_gracefully(monkeypatch):
    import repro.cad.route as route_module
    from repro.core.params import RoutingParams

    monkeypatch.setattr(route_module, "MAX_ITERATIONS", 3)
    design = _packed_qdi()
    params = ArchitectureParams(width=2, height=2, routing=RoutingParams(channel_width=2, io_pads_per_side=6))
    fabric = Fabric(params)
    graph = RoutingResourceGraph(fabric)
    placement = place_design(design, fabric, seed=1)
    # With only two tracks and a disjoint switch box (which never changes the
    # track index) some pin pairs are genuinely unreachable, so the router may
    # legitimately raise; otherwise it must either succeed or report overuse.
    try:
        result = route_design(design, placement, graph)
    except RoutingError:
        return
    if not result.success:
        assert result.overused_nodes > 0


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def test_analyse_timing_unrouted_and_routed():
    design = _packed_qdi()
    unrouted = analyse_timing(design)
    assert unrouted.le_levels >= 2
    assert unrouted.forward_latency_ps > 0
    assert unrouted.cycle_time_ps >= 4 * unrouted.forward_latency_ps - 4  # rounding slack

    params = ArchitectureParams(width=4, height=4)
    fabric = Fabric(params)
    graph = RoutingResourceGraph(fabric)
    placement = place_design(design, fabric, seed=2)
    routing = route_design(design, placement, graph)
    routed = analyse_timing(design, routing=routing, graph=graph)
    assert routed.max_net_delay_ps > 0
    assert set(routed.net_delays_ps) == set(routing.routed)


def test_timing_matched_delay_adequacy():
    design = template_map(micropipeline_full_adder())
    pack_design(design)
    report = analyse_timing(design)
    assert design.pdes[0].name in report.matched_delays
    entry = report.matched_delays[design.pdes[0].name]
    assert entry["configured_ps"] == design.pdes[0].delay_ps
    # With the default matched delay and this tiny datapath the assumption holds.
    assert entry["adequate"] == 1

    short = MappedDesign(name="short", params=design.params, style=design.style)
    short.les = design.les
    short.pdes = [MappedPDE(name="pde", input_net="req", output_net="req_d", delay_ps=1)]
    short.primary_inputs = design.primary_inputs
    short.primary_outputs = design.primary_outputs
    bad = analyse_timing(short)
    assert bad.matched_delays["pde"]["adequate"] == 0
    assert bad.notes


def test_every_registry_matched_delay_covers_its_datapath():
    # repro-lint's matched-delay rule reads gate netlists, which composed
    # designs (the ripple adders, the gen: specs) do not carry; this checks
    # every PDE the registry maps against the timing estimate instead.
    short: dict[str, dict[str, int]] = {}
    checked = 0
    for name in circuit_registry():
        circuit = build_circuit(name)
        mapped = getattr(circuit, "mapped", None) or CadFlow(ArchitectureParams()).map(circuit)
        for pde, entry in analyse_timing(mapped).matched_delays.items():
            checked += 1
            if entry["adequate"] != 1:
                short[f"{name}/{pde}"] = entry
    assert checked >= 13  # the full adder, 4 ripple adders, 8 gen: stages
    assert not short


def test_timing_model_routed_net_delay():
    params = ArchitectureParams(width=2, height=2)
    graph = RoutingResourceGraph(Fabric(params))
    wire_ids = [node.node_id for node in graph.nodes if node.node_type is RRNodeType.WIRE][:3]
    delay = routed_net_delay(graph, wire_ids)
    assert delay == CBOX_DELAY_PS * 2 + 3 * WIRE_SEGMENT_DELAY_PS + 2 * SWITCH_DELAY_PS


def test_bbox_net_delay_estimates_a_straight_routed_tree():
    # A net spanning k hops is charged like a routed tree of k + 1 segments.
    params = ArchitectureParams(width=2, height=2)
    graph = RoutingResourceGraph(Fabric(params))
    wire_ids = [node.node_id for node in graph.nodes if node.node_type is RRNodeType.WIRE]
    for span in range(3):
        assert bbox_net_delay(span) == routed_net_delay(graph, wire_ids[: span + 1])
    assert bbox_net_delay(1.4) == bbox_net_delay(1)  # half-perimeters round to whole hops


# ----------------------------------------------------------------------
# Configuration generation
# ----------------------------------------------------------------------
def test_configure_plbs_realises_c_element():
    params = ArchitectureParams()
    table = c_element_table(("a", "b"), state="z").rename({"a": "a", "b": "b"})
    # Build the looped-LUT function explicitly over net names.
    from repro.logic.truthtable import TruthTable

    table = TruthTable.from_function(
        ("a", "b", "z"), lambda a, b, z: 1 if (a and b) else (0 if (not a and not b) else z)
    )
    plb = MappedPLB(
        name="plb0",
        les=[MappedLE("le_c", functions=[LEFunction("z", table)])],
    )
    design = MappedDesign(
        "c_element", params.plb, plbs=[plb], primary_inputs=["a", "b"], primary_outputs=["z"]
    )
    configured = configure_plbs(design, params)["plb0"]
    hardware = PLB(params.plb)
    hardware.configure(configured.config)
    # replicate C-element behaviour through the configured hardware
    state: dict = {}
    pin_a = configured.input_pin_of_net["a"]
    pin_b = configured.input_pin_of_net["b"]
    out_pin = configured.output_pin_of_net["z"]
    outputs, state = hardware.evaluate({pin_a: 1, pin_b: 1}, state)
    assert outputs[out_pin] == 1
    outputs, state = hardware.evaluate({pin_a: 0, pin_b: 1}, state)
    assert outputs[out_pin] == 1
    outputs, state = hardware.evaluate({pin_a: 0, pin_b: 0}, state)
    assert outputs[out_pin] == 0


def test_configure_plbs_rejects_input_overflow():
    params = ArchitectureParams()
    # Two LEs reading 7 LUT and 2 validity nets each: 18 nets, 16 input pins.
    nets = [f"n{i}" for i in range(18)]
    les = [
        MappedLE(
            f"le{i}",
            functions=[LEFunction(f"o{i}", or_table(inputs=tuple(nets[i * 9 : i * 9 + 7])))],
            validity=LEFunction(f"v{i}", or_table(inputs=tuple(nets[i * 9 + 7 : i * 9 + 9]))),
        )
        for i in range(2)
    ]
    plb = MappedPLB(name="too_many_inputs", les=les)
    design = MappedDesign("wide", params.plb, plbs=[plb], primary_inputs=nets)
    with pytest.raises(PackingError, match="needs 18 input pins but has 16"):
        configure_plbs(design, params)


@pytest.mark.parametrize("run_routing", [True, False])
def test_plb_exporting_more_nets_than_output_pins_fails_its_flow(run_routing):
    # On PLBs with two output pins the packer keeps every PLB's exported
    # nets within them: the QDI full adder routes and lints clean.  The 2x2
    # multiplier holds an LE exporting three nets alone and with any
    # partner, so its flow fails in the pack stage, before annealing.
    architecture = ArchitectureParams(plb=PLBParams(plb_outputs=2))
    flow = CadFlow(architecture, FlowOptions(run_routing=run_routing))
    adder = qdi_full_adder()
    result = flow.run(adder)
    if run_routing:
        assert result.summary()["routing_success"] is True
    assert lint_flow_artifacts(result, flow, styled=adder).error_count == 0
    with pytest.raises(PackingError, match="LE le_p0_f__d1__d0 exports 3 nets") as caught:
        flow.run(qdi_multiplier(2))
    assert caught.value.flow_stage == "pack"


def test_configure_plbs_pde_range_check():
    params = ArchitectureParams()
    plb = MappedPLB(
        name="plb0",
        les=[],
        pde=MappedPDE(name="pde", input_net="req", output_net="req_d", delay_ps=10 ** 6),
    )
    design = MappedDesign("slow", params.plb, plbs=[plb], primary_inputs=["req"])
    with pytest.raises(ConfigurationError):
        configure_plbs(design, params)


def test_generate_bitstream_covers_all_plbs():
    design = _packed_qdi()
    params = ArchitectureParams(width=4, height=4)
    fabric = Fabric(params)
    placement = place_design(design, fabric, seed=2)
    bitstream, configured = generate_bitstream(design, placement, params)
    assert set(configured) == {plb.name for plb in design.plbs}
    assert bitstream.used_bits() > 0
    # configured regions correspond to the placed tiles
    for plb in design.plbs:
        x, y = placement.site_of(plb.name)
        assert sum(bitstream.region_bits(f"plb_{x}_{y}")) > 0


# ----------------------------------------------------------------------
# Full flow
# ----------------------------------------------------------------------
def test_cad_flow_end_to_end_qdi():
    flow = CadFlow(ArchitectureParams(width=5, height=5))
    result = flow.run(qdi_full_adder())
    summary = result.summary()
    assert summary["routing_success"] is True
    assert summary["plbs"] == 3
    assert summary["filling_ratio"] > 0.5
    assert result.bitstream is not None and result.bitstream.used_bits() > 0
    assert "CAD flow report" in result.report()


def test_cad_flow_options_allow_mapping_only():
    flow = CadFlow(options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False))
    result = flow.run(micropipeline_full_adder())
    assert result.placement is None and result.routing is None and result.bitstream is None
    assert result.filling is not None
    assert result.timing is not None


def test_cad_flow_generic_mapping_option():
    flow = CadFlow(
        ArchitectureParams(width=8, height=8),
        FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False),
    )
    # A raw netlist takes the generic gate-level mapper.
    result = flow.run(qdi_full_adder().netlist)
    # The naive gate-level mapping needs far more LEs than the template mapping.
    assert len(result.mapped.les) > 10


def test_cad_flow_accepts_plain_netlists():
    from repro.circuits.fulladder import full_adder_reference_netlist

    flow = CadFlow(options=FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False))
    result = flow.run(full_adder_reference_netlist())
    assert len(result.mapped.les) >= 1
    assert result.filling is not None
