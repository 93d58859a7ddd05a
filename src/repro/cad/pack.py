"""Packing: grouping mapped LEs into PLBs.

The packer fills PLBs with up to ``les_per_plb`` LEs each, under the PLB-level
constraints (number of PLB input pins, one PDE per PLB).  It is
affinity-driven: LEs that share nets are packed together first, which both
reduces external routing and mirrors the paper's Figure 3 groupings (the two
halves of a dual-rail pair, or a datapath latch next to its controller).

Delay elements are attached to the PLB that already hosts a consumer of the
delayed signal when possible, otherwise to any PLB with a free PDE.

:func:`bind_pins` then decides which net sits on which pin of each packed
PLB.  The router connects its routes to those pins and the bitstream
generator programs the interconnection matrix from them, so both read one
binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.cad.lemap import MappedDesign, MappedPLB
from repro.core.lut import pin_names
from repro.core.params import PLBParams


class PackingError(RuntimeError):
    """Raised when a design cannot be packed under the PLB constraints."""


def pack_design(design: MappedDesign, params: PLBParams | None = None) -> MappedDesign:
    """Pack ``design.les`` / ``design.pdes`` into ``design.plbs`` (in place).

    Returns the same design object for chaining.
    """
    params = params if params is not None else design.params

    for le in design.les:
        if not le.fits(params):
            raise PackingError(
                f"LE {le.name} does not satisfy the LE constraints "
                f"({len(le.lut_input_nets)} inputs, {len(le.functions)} functions)"
            )

    # Each LE's nets, derived once: external inputs, outputs (a tuple, so a
    # PLB's output count keeps any repeats), and both together, whose
    # overlap between two LEs is their affinity.
    inputs = [frozenset(le.external_input_nets) for le in design.les]
    outputs = [le.output_nets for le in design.les]
    nets = [needs.union(made) for needs, made in zip(inputs, outputs)]
    # A PLB may claim a small output slack because not every LE output needs
    # to leave it; bind_pins makes the definitive check.
    output_limit = params.plb_outputs + params.les_per_plb

    remaining = list(range(len(design.les)))
    plbs: list[MappedPLB] = []
    plb_inputs: list[set[str]] = []

    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        needed = set(inputs[seed])
        produced = set(outputs[seed])
        output_count = len(outputs[seed])
        # Greedily add the most-affine LE that still fits; the first of
        # equally affine LEs wins.
        while len(members) < params.les_per_plb and remaining:
            best_index = -1
            best_score = -1
            for index, candidate in enumerate(remaining):
                score = sum(len(nets[candidate] & nets[member]) for member in members)
                if score <= best_score:
                    continue
                if output_count + len(outputs[candidate]) > output_limit:
                    continue
                external = (needed | inputs[candidate]) - produced
                if len(external.difference(outputs[candidate])) > params.plb_inputs:
                    continue
                best_score = score
                best_index = index
            if best_index < 0:
                break
            chosen = remaining.pop(best_index)
            members.append(chosen)
            needed |= inputs[chosen]
            produced.update(outputs[chosen])
            output_count += len(outputs[chosen])
        les = [design.les[member] for member in members]
        plbs.append(MappedPLB(name=f"plb{len(plbs)}", les=les))
        plb_inputs.append(needed)

    # Attach each delay element to the first PLB without one that reads its
    # output, else to the first PLB without one, else to a new PLB.
    for pde in design.pdes:
        free = [(plb, read) for plb, read in zip(plbs, plb_inputs) if plb.pde is None]
        readers = [plb for plb, read in free if pde.output_net in read]
        if readers:
            target = readers[0]
        elif free:
            target = free[0][0]
        else:
            target = MappedPLB(name=f"plb{len(plbs)}")
            plbs.append(target)
            plb_inputs.append(set())
        target.pde = pde

    design.plbs = plbs
    return design


@dataclass(frozen=True)
class PinBinding:
    """Which net sits on which pin of each packed PLB, keyed by PLB name."""

    #: PLB -> external input net -> its ``in*`` pin.
    inputs: Mapping[str, Mapping[str, str]]
    #: PLB -> exported net -> its ``out*`` pin.
    outputs: Mapping[str, Mapping[str, str]]
    #: Net -> the PLB driving it.
    drivers: Mapping[str, str]
    #: Net -> the PLBs reading it from the fabric, in ``design.plbs`` order
    #: (never its driver: a PLB reads its own outputs inside).
    consumers: Mapping[str, list[str]]


def bind_pins(design: MappedDesign) -> PinBinding:
    """Bind every packed PLB's external nets to its physical pins.

    A PLB's external input nets sit, sorted by name, on ``in0, in1, ...``.
    The nets it drives that another PLB reads or that are primary outputs
    sit, sorted, on ``out0, out1, ...``; its other outputs stay inside.

    Raises :class:`PackingError` when a PLB needs more pins than it has.
    """
    params = design.params
    input_pins = pin_names(params.plb_inputs, prefix="in")
    output_pins = pin_names(params.plb_outputs, prefix="out")
    drivers: dict[str, str] = {}
    consumers: dict[str, list[str]] = {}
    inputs: dict[str, dict[str, str]] = {}
    for plb in design.plbs:
        for net in plb.output_nets:
            drivers[net] = plb.name
        external = plb.external_input_nets
        inputs[plb.name] = _bind(plb.name, external, input_pins, "input")
        for net in external:
            consumers.setdefault(net, []).append(plb.name)

    exported: dict[str, list[str]] = {plb.name: [] for plb in design.plbs}
    primary_outputs = set(design.primary_outputs)
    for net, driver in drivers.items():
        if net in primary_outputs or net in consumers:
            exported[driver].append(net)
    outputs = {name: _bind(name, nets, output_pins, "output") for name, nets in exported.items()}
    return PinBinding(inputs=inputs, outputs=outputs, drivers=drivers, consumers=consumers)


def _bind(plb_name: str, nets: Iterable[str], pins: tuple[str, ...], kind: str) -> dict[str, str]:
    """*nets*, sorted by name, on the first of *pins*."""
    ordered = sorted(nets)
    if len(ordered) > len(pins):
        raise PackingError(
            f"PLB {plb_name} needs {len(ordered)} {kind} pins but has {len(pins)}"
        )
    return dict(zip(ordered, pins))


def packing_summary(design: MappedDesign) -> dict[str, object]:
    """Counts used by reports and by the filling-ratio experiment."""
    params = design.params
    le_slots = len(design.plbs) * params.les_per_plb
    return {
        "plbs": len(design.plbs),
        "les_used": sum(len(plb.les) for plb in design.plbs),
        "le_slots": le_slots,
        "pdes_used": sum(1 for plb in design.plbs if plb.pde is not None),
        "le_occupancy": (
            sum(len(plb.les) for plb in design.plbs) / le_slots if le_slots else 0.0
        ),
        "max_external_inputs": max(
            (len(plb.external_input_nets) for plb in design.plbs), default=0
        ),
        # LUT functions living on decomposition-made synthetic nets (0 for
        # designs the mapper fit without splitting anything).
        "decomp_functions": sum(
            1
            for plb in design.plbs
            for le in plb.les
            for function in le.functions
            if function.role == "decomp"
        ),
    }
