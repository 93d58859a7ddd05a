"""Seeded-mutation harness: prove every lint rule fires on its defect class.

Each entry of :data:`MUTATORS` builds a *clean* context from a registry
circuit, injects exactly one defect of the class its rule exists to catch,
and returns the mutated :class:`~repro.verify.core.LintContext`.  The test
suite asserts, for every registered rule, that the rule fires on its
mutant and that no rule of a *different* tier fires (one defect may
legitimately trip several rules of the same tier — removing an ack driver
both breaks completion coverage and strands the completion detectors).
"""

from __future__ import annotations

from typing import Callable

from repro.verify.core import LintContext
from repro.verify.lint import build_context, _fill_from_flow, _stage_flow

#: Small circuits the mutators start from.
QDI_SEED = "qdi_full_adder"
MP_SEED = "micropipeline_full_adder"


# ======================================================================
# Context builders
# ======================================================================
def _netlist_context(seed: str = QDI_SEED) -> LintContext:
    """A fresh netlist-tier context (registry factories build new objects)."""
    return build_context(seed)


def _flow_context(seed: str = QDI_SEED) -> LintContext:
    """A fresh full-flow context: netlist + stage artifacts + bitstream."""
    from repro.circuits.registry import build_circuit

    circuit = build_circuit(seed)
    context = build_context(circuit)
    flow, result = _stage_flow(circuit, context)
    _fill_from_flow(context, flow, result)
    return context


# ======================================================================
# Netlist-tier mutators
# ======================================================================
def _mut_undriven_net() -> LintContext:
    context = _netlist_context()
    context.netlist.add_cell(
        "mut_reader", "BUF", {"a": "mut_floating_in", "z": "mut_floating_out"}
    )
    return context


def _mut_dangling_net() -> LintContext:
    context = _netlist_context()
    source = context.netlist.primary_inputs[0]
    context.netlist.add_cell("mut_tap", "BUF", {"a": source, "z": "mut_dangling"})
    return context


def _mut_undriven_output() -> LintContext:
    from repro.netlist.netlist import PortDirection

    context = _netlist_context()
    context.netlist.add_port("mut_phantom_out", PortDirection.OUTPUT)
    return context


def _mut_unused_input() -> LintContext:
    from repro.netlist.netlist import PortDirection

    context = _netlist_context()
    context.netlist.add_port("mut_unread_in", PortDirection.INPUT)
    return context


def _mut_combinational_loop() -> LintContext:
    context = _netlist_context()
    context.netlist.add_cell("mut_l1", "INV", {"a": "mut_n2", "z": "mut_n1"})
    context.netlist.add_cell("mut_l2", "INV", {"a": "mut_n1", "z": "mut_n2"})
    return context


def _mut_constant_cone() -> LintContext:
    context = _netlist_context()
    source = context.netlist.primary_inputs[0]
    context.netlist.add_cell(
        "mut_const", "XOR2", {"a0": source, "a1": source, "z": "mut_zero"}
    )
    return context


def _mut_unreachable_cone() -> LintContext:
    context = _netlist_context()
    source = context.netlist.primary_inputs[0]
    context.netlist.add_cell("mut_c1", "BUF", {"a": source, "z": "mut_r1"})
    context.netlist.add_cell("mut_c2", "INV", {"a": "mut_r1", "z": "mut_r2"})
    return context


def _mut_isochronic_fork() -> LintContext:
    context = _netlist_context()
    source = context.netlist.primary_inputs[0]
    fanout = len(context.netlist.net(source).sinks)
    for index in range(9 - min(fanout, 9) + 1):
        context.netlist.add_cell(
            f"mut_fork{index}", "BUF", {"a": source, "z": f"mut_forked{index}"}
        )
    return context


def _mut_dual_rail_pair() -> LintContext:
    context = _netlist_context()
    rail = context.styled.output_channels[0].data_wires()[0]
    driver, _pin = context.netlist.driver_of(rail)
    context.netlist.remove_cell(driver.name)
    return context


def _mut_completion_coverage() -> LintContext:
    context = _netlist_context()
    netlist = context.netlist
    ack = next(
        net
        for net in context.styled.ack_nets.values()
        if netlist.driver_of(net) is not None
    )
    driver, _pin = netlist.driver_of(ack)
    netlist.remove_cell(driver.name)
    rail = context.styled.output_channels[0].data_wires()[0]
    netlist.add_cell("mut_halfack", "BUF", {"a": rail, "z": ack})
    return context


def _mut_ack_reachability() -> LintContext:
    context = _netlist_context()
    context.netlist.add_cell("mut_q1", "C2", {"a0": "mut_sb", "a1": "mut_sb", "z": "mut_sa"})
    context.netlist.add_cell("mut_q2", "C2", {"a0": "mut_sa", "a1": "mut_sa", "z": "mut_sb"})
    return context


def _mut_hazard_gate() -> LintContext:
    context = _netlist_context()
    victim = next(
        cell for cell in context.netlist.iter_cells() if cell.type_name == "OR2"
    )
    connections = {
        "a0": victim.connections["a0"],
        "a1": victim.connections["a1"],
        "z": victim.connections["z"],
    }
    context.netlist.remove_cell(victim.name)
    context.netlist.add_cell("mut_glitchy", "XOR2", connections)
    return context


def _mut_matched_delay() -> LintContext:
    context = _netlist_context(MP_SEED)
    context.netlist.cell("matched_delay").attributes["delay"] = 50
    return context


# ======================================================================
# Stage-tier mutators
# ======================================================================
def _mut_map_valid() -> LintContext:
    context = _flow_context()
    context.mapped.primary_outputs.append("mut_phantom")
    return context


def _mut_le_budget() -> LintContext:
    from repro.cad.lemap import LEFunction

    context = _flow_context()
    le = context.mapped.les[0]
    while len(le.functions) <= context.mapped.params.le.lut_outputs:
        template = le.functions[0]
        le.functions.append(
            LEFunction(f"mut_extra{len(le.functions)}", template.table, template.role)
        )
    return context


def _mut_pack_coverage() -> LintContext:
    context = _flow_context()
    context.mapped.plbs[0].les.pop()
    return context


def _mut_pack_capacity() -> LintContext:
    context = _flow_context()
    plbs = context.mapped.plbs
    donor = next(plb for plb in plbs[1:] if plb.les)
    while len(plbs[0].les) <= context.mapped.params.les_per_plb:
        plbs[0].les.append(donor.les[0])
    return context


def _mut_place_legal() -> LintContext:
    context = _flow_context()
    sites = context.placement.plb_sites
    names = sorted(sites)
    sites[names[0]] = sites[names[1]]  # double-book one site
    # A corrupt placement desyncs the bitstream's region layout by
    # construction; drop the bitstream artifacts so only the placement
    # defect is under test.
    context.bitstream = None
    context.configured_plbs = None
    return context


def _mut_route_invariant() -> LintContext:
    context = _flow_context()
    routed = context.routing.routed[sorted(context.routing.routed)[0]]
    routed.nodes = [routed.source_node]  # drop the tree below the source
    return context


def _mut_cycle_time() -> LintContext:
    context = _flow_context()
    context.timing.cycle_time_ps = 0
    return context


# ======================================================================
# Bitstream-tier mutators
# ======================================================================
def _mut_region_liveness() -> LintContext:
    context = _flow_context()
    occupied = {site for site in context.placement.plb_sites.values()}
    region = next(
        region
        for region in context.bitstream.budget.regions
        if region.kind == "plb"
        and tuple(int(part) for part in region.name.split("_")[1:]) not in occupied
    )
    context.bitstream.set_bit(region.name, 0, 1)
    return context


def _mut_lut_config() -> LintContext:
    context = _flow_context()
    plb_name = context.mapped.plbs[0].name
    x, y = context.placement.site_of(plb_name)
    region = f"plb_{x}_{y}"
    bit = context.bitstream.region_bits(region)[0]
    context.bitstream.set_bit(region, 0, 1 - bit)  # inside LE 0's LUT segment
    return context


def _mut_pde_tap() -> LintContext:
    from repro.core.layout import PLBLayout

    context = _flow_context(MP_SEED)  # micropipelines map a real PDE
    plb = next(p for p in context.mapped.plbs if p.pde is not None)
    x, y = context.placement.site_of(plb.name)
    region = f"plb_{x}_{y}"
    pde = PLBLayout.for_params(context.architecture.plb).pde_slice
    for index in range(pde.start, pde.stop):
        context.bitstream.set_bit(region, index, 0)  # zero the tap
    return context


def _mut_im_config() -> LintContext:
    from repro.core.layout import PLBLayout

    context = _flow_context()
    plb_name = context.mapped.plbs[0].name
    x, y = context.placement.site_of(plb_name)
    region = f"plb_{x}_{y}"
    layout = PLBLayout.for_params(context.architecture.plb)
    width = layout.im_selector_width
    bits = context.bitstream.region_bits(region)
    # Route a destination that is unconnected (all-zero selector): the new
    # code 1 is always a valid source index, so the segment still decodes.
    for start in layout.destination_offsets.values():
        if not any(bits[start : start + width]):
            context.bitstream.set_bit(region, start, 1)
            return context
    raise AssertionError("no unconnected IM destination to corrupt")


#: One mutator per registered rule code.
MUTATORS: dict[str, Callable[[], LintContext]] = {
    "NET001": _mut_undriven_net,
    "NET002": _mut_dangling_net,
    "NET003": _mut_undriven_output,
    "NET004": _mut_unused_input,
    "NET005": _mut_combinational_loop,
    "NET006": _mut_constant_cone,
    "NET007": _mut_unreachable_cone,
    "NET008": _mut_isochronic_fork,
    "QDI001": _mut_dual_rail_pair,
    "QDI002": _mut_completion_coverage,
    "QDI003": _mut_ack_reachability,
    "QDI004": _mut_hazard_gate,
    "MP001": _mut_matched_delay,
    "STG001": _mut_map_valid,
    "STG002": _mut_le_budget,
    "STG003": _mut_pack_coverage,
    "STG004": _mut_pack_capacity,
    "STG005": _mut_place_legal,
    "STG006": _mut_route_invariant,
    "STG007": _mut_cycle_time,
    "BIT001": _mut_region_liveness,
    "BIT002": _mut_lut_config,
    "BIT003": _mut_pde_tap,
    "BIT004": _mut_im_config,
}
