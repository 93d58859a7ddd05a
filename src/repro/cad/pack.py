"""Packing: grouping mapped LEs into PLBs.

The packer fills PLBs with up to ``les_per_plb`` LEs each, under the PLB-level
constraints (number of PLB input and output pins, one PDE per PLB).  It is
affinity-driven: LEs that share nets are packed together first, which both
reduces external routing and mirrors the paper's Figure 3 groupings (the two
halves of a dual-rail pair, or a datapath latch next to its controller).

Delay elements are attached to the PLB that already hosts a consumer of the
delayed signal when possible, otherwise to any PLB with a free PDE.

A PLB exports each net it drives that is a primary output or that another
PLB reads; the packer keeps those within its output pins.  :func:`bind_pins`
then decides which net sits on which pin of each packed PLB.  The placer
and the router take each net's driver and readers from it, the router
connects its routes to those pins and the bitstream generator programs the
interconnection matrix from them.
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

    Every PLB keeps its external input nets within ``plb_inputs`` and the
    nets it exports within ``plb_outputs``, by :func:`bind_pins`' rule (a
    net leaves its PLB when it is a primary output or another PLB reads
    it), so :func:`bind_pins` binds every design this returns.  Raises
    :class:`PackingError` naming an LE or PDE no PLB can hold.

    Returns the same design object for chaining.
    """
    params = params if params is not None else design.params

    for le in design.les:
        if not le.fits(params):
            raise PackingError(
                f"LE {le.name} does not satisfy the LE constraints "
                f"({len(le.lut_input_nets)} inputs, {len(le.functions)} functions)"
            )

    # Each LE's nets, derived once: outputs (a tuple, so a PLB's output
    # count keeps any repeats), external inputs, and both together, whose
    # overlap between two LEs is their affinity.  Each attached PDE appends
    # its input and output, so a PLB's members index these lists.
    outputs = [le.output_nets for le in design.les]
    inputs: list[frozenset[str]] = []
    for le, made in zip(design.les, outputs):
        needs = set(le.validity_input_nets)
        for function in le.functions:
            needs.update(function.input_nets)
        inputs.append(frozenset(needs.difference(made)))
    nets = [needs.union(made) for needs, made in zip(inputs, outputs)]
    budget = params.plb_outputs
    primary_outputs = set(design.primary_outputs)
    readers: dict[str, set[int]] = {}  # net -> members reading it, built by the first count

    def exported(members: list[int]) -> set[str]:
        """The nets a PLB holding *members* drives and must export.

        A PLB exports at most the nets it drives, so callers count only
        once those outnumber its output pins.
        """
        if not readers:
            for member, needs in enumerate(inputs):
                for net in needs:
                    readers.setdefault(net, set()).add(member)
        inside = set(members)
        return {
            net
            for member in members
            for net in outputs[member]
            if net in primary_outputs or not readers.get(net, inside) <= inside
        }

    remaining = list(range(len(design.les)))
    plbs: list[MappedPLB] = []
    groups: list[list[int]] = []
    plb_inputs: list[set[str]] = []
    output_counts: list[int] = []

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
                external = (needed | inputs[candidate]) - produced
                if len(external.difference(outputs[candidate])) > params.plb_inputs:
                    continue
                if (
                    output_count + len(outputs[candidate]) > budget
                    and len(exported([*members, candidate])) > budget
                ):
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
        # Only a lone seed can be over: each admitted LE kept its PLB within.
        if output_count > budget and len(exported(members)) > budget:
            raise PackingError(
                f"LE {design.les[seed].name} exports {len(exported(members))} nets and "
                f"no LE left to share its PLB brings that within {budget} output pins"
            )
        les = [design.les[member] for member in members]
        plbs.append(MappedPLB(name=f"plb{len(plbs)}", les=les))
        groups.append(members)
        plb_inputs.append(needed)
        output_counts.append(output_count)

    # Attach each delay element to the first PLB without one that reads its
    # output, else to the first PLB without one, else to a new PLB: the
    # first whose pins still hold it and the net it reads.
    for pde in design.pdes:
        member = len(inputs)
        inputs.append(frozenset((pde.input_net,)))
        outputs.append((pde.output_net,))
        if readers:
            readers.setdefault(pde.input_net, set()).add(member)
        free = [index for index, plb in enumerate(plbs) if plb.pde is None]
        reading = [index for index in free if pde.output_net in plb_inputs[index]]
        for target in [*reading, *free, len(plbs)]:
            if target == len(plbs):
                plbs.append(MappedPLB(name=f"plb{target}"))
                groups.append([])
                plb_inputs.append(set())
                output_counts.append(0)
            plb = plbs[target]
            plb.pde = pde
            groups[target].append(member)
            output_counts[target] += 1
            # Every PLB fit before: only the target can need one more input
            # pin, and only it and the PLB driving the PDE's input can
            # export more.
            if (
                len(plb_inputs[target]) < params.plb_inputs
                or len(plb.external_input_nets) <= params.plb_inputs
            ) and all(
                count <= budget or len(exported(group)) <= budget
                for group, count in zip(groups, output_counts)
            ):
                break
            plb.pde = None
            groups[target].pop()
            output_counts[target] -= 1
        else:
            raise PackingError(
                f"PDE {pde.name} reads {pde.input_net!r} from a PLB whose "
                f"{budget} output pins are taken"
            )

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
        made, external = plb.net_views()
        for net in made:
            drivers[net] = plb.name
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
