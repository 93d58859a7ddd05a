"""The LE-level intermediate representation (IR) of a mapped design.

After technology mapping a design is a collection of:

* :class:`LEFunction` -- one logical LUT output: a truth table over *net
  names*, possibly including the function's own output net (feedback through
  the PLB interconnection matrix, i.e. a memory element);
* :class:`MappedLE` -- up to three LEFunctions sharing one LUT7-3 plus an
  optional validity function on the LUT2-1;
* :class:`MappedPDE` -- a matched-delay assignment onto a programmable delay
  element;
* :class:`MappedPLB` -- the result of packing (two LEs + optional PDE);
* :class:`MappedDesign` -- the whole design plus its primary inputs/outputs.

The IR is what the packer, placer, router, bitstream generator, metrics and
the LE-level simulator all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.params import PLBParams
from repro.core.schema import CorruptArtifactError, decoding, require_version
from repro.logic.truthtable import TruthTable
from repro.styles.base import LogicStyle

#: Schema version of :meth:`MappedDesign.to_dict` payloads.  The same codec
#: serves both the "mapped" boundary (``plbs`` empty) and the "packed"
#: boundary (``plbs`` populated): packing only groups existing LEs/PDEs.
MAPPED_DESIGN_SCHEMA = 1


@dataclass
class LEFunction:
    """One logical LUT output function.

    ``table`` is expressed over logical net names; if ``output_net`` appears
    among the table inputs the function is state holding and the mapper must
    arrange feedback through the interconnection matrix.
    """

    output_net: str
    table: TruthTable
    # "logic", "validity", "ack", "latch", "controller", or "decomp" (an
    # intermediate emitted by repro.cad.decompose on a synthetic net).
    role: str = "logic"

    @property
    def input_nets(self) -> tuple[str, ...]:
        return self.table.inputs

    @property
    def arity(self) -> int:
        return len(self.table.inputs)

    @property
    def has_feedback(self) -> bool:
        return self.output_net in self.table.inputs

    @property
    def external_inputs(self) -> tuple[str, ...]:
        return tuple(net for net in self.table.inputs if net != self.output_net)

    def to_dict(self) -> dict[str, object]:
        return {
            "output_net": self.output_net,
            "table": self.table.to_dict(),
            "role": self.role,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LEFunction":
        return cls(
            output_net=str(data["output_net"]),
            table=TruthTable.from_dict(data["table"]),
            role=str(data.get("role", "logic")),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        feedback = "+fb" if self.has_feedback else ""
        return f"LEFunction({self.output_net!r}, {self.arity} inputs{feedback}, role={self.role})"


@dataclass
class MappedLE:
    """One Logic Element after mapping."""

    name: str
    functions: list[LEFunction] = field(default_factory=list)
    validity: LEFunction | None = None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def lut_input_nets(self) -> tuple[str, ...]:
        """Distinct nets needed on the LUT7-3 physical pins (feedback included)."""
        nets: list[str] = []
        for function in self.functions:
            for net in function.input_nets:
                if net not in nets:
                    nets.append(net)
        return tuple(nets)

    @property
    def validity_input_nets(self) -> tuple[str, ...]:
        if self.validity is None:
            return ()
        return self.validity.input_nets

    @property
    def output_nets(self) -> tuple[str, ...]:
        nets = [function.output_net for function in self.functions]
        if self.validity is not None:
            nets.append(self.validity.output_net)
        return tuple(nets)

    @property
    def external_input_nets(self) -> tuple[str, ...]:
        """Nets that must arrive from outside this LE (feedback excluded)."""
        own = set(self.output_nets)
        nets: list[str] = []
        for net in self.lut_input_nets + self.validity_input_nets:
            if net not in own and net not in nets:
                nets.append(net)
        return tuple(nets)

    @property
    def feedback_nets(self) -> tuple[str, ...]:
        """Own outputs that are also read as inputs (memory-by-looping)."""
        own = set(self.output_nets)
        used = set(self.lut_input_nets) | set(self.validity_input_nets)
        return tuple(sorted(own & used))

    def fits(self, params: PLBParams) -> bool:
        """Check the LE's physical constraints."""
        le = params.le
        if len(self.functions) > le.lut_outputs:
            return False
        if len(self.lut_input_nets) > le.lut_inputs:
            return False
        if self.validity is not None and self.validity.arity > le.validity_lut_inputs:
            return False
        return True

    def utilisation(self, params: PLBParams) -> dict[str, int]:
        le = params.le
        return {
            "lut_inputs_used": len(self.lut_input_nets),
            "lut_inputs_total": le.lut_inputs,
            "lut_outputs_used": len(self.functions),
            "lut_outputs_total": le.lut_outputs,
            "validity_inputs_used": len(self.validity_input_nets),
            "validity_inputs_total": le.validity_lut_inputs,
            "validity_outputs_used": 1 if self.validity is not None else 0,
            "validity_outputs_total": le.validity_lut_outputs,
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "functions": [function.to_dict() for function in self.functions],
            "validity": self.validity.to_dict() if self.validity is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MappedLE":
        validity = data.get("validity")
        return cls(
            name=str(data["name"]),
            functions=[LEFunction.from_dict(entry) for entry in data["functions"]],
            validity=LEFunction.from_dict(validity) if validity is not None else None,
        )


@dataclass
class MappedPDE:
    """A matched delay mapped onto a programmable delay element."""

    name: str
    input_net: str
    output_net: str
    delay_ps: int

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "input_net": self.input_net,
            "output_net": self.output_net,
            "delay_ps": self.delay_ps,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MappedPDE":
        return cls(
            name=str(data["name"]),
            input_net=str(data["input_net"]),
            output_net=str(data["output_net"]),
            delay_ps=int(data["delay_ps"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MappedPDE({self.input_net!r} -> {self.output_net!r}, {self.delay_ps} ps)"


@dataclass
class MappedPLB:
    """One packed PLB: up to ``les_per_plb`` LEs plus an optional PDE."""

    name: str
    les: list[MappedLE] = field(default_factory=list)
    pde: MappedPDE | None = None

    def net_views(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """:attr:`output_nets` and :attr:`external_input_nets`, in one pass."""
        functions: list[LEFunction] = []
        for le in self.les:
            functions.extend(le.functions)
            if le.validity is not None:
                functions.append(le.validity)
        outputs = [function.output_net for function in functions]
        if self.pde is not None:
            outputs.append(self.pde.output_net)
        own = set(outputs)
        inputs: dict[str, None] = {}  # ordered by first reader
        for function in functions:
            for net in function.table.inputs:
                if net not in own:
                    inputs[net] = None
        if self.pde is not None and self.pde.input_net not in own:
            inputs[self.pde.input_net] = None
        return tuple(outputs), tuple(inputs)

    @property
    def output_nets(self) -> tuple[str, ...]:
        """Every net the PLB's LEs and PDE drive, LE by LE."""
        return self.net_views()[0]

    @property
    def external_input_nets(self) -> tuple[str, ...]:
        """Nets that must be routed into this PLB from the fabric."""
        return self.net_views()[1]


@dataclass
class MappedDesign:
    """A fully mapped (and optionally packed) design."""

    name: str
    params: PLBParams
    les: list[MappedLE] = field(default_factory=list)
    pdes: list[MappedPDE] = field(default_factory=list)
    plbs: list[MappedPLB] = field(default_factory=list)
    primary_inputs: list[str] = field(default_factory=list)
    primary_outputs: list[str] = field(default_factory=list)
    style: LogicStyle | None = None
    metadata: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Net-level queries
    # ------------------------------------------------------------------
    def all_output_nets(self) -> set[str]:
        nets: set[str] = set()
        for le in self.les:
            nets.update(le.output_nets)
        for pde in self.pdes:
            nets.add(pde.output_net)
        return nets

    def net_driver(self) -> dict[str, str]:
        """Net name -> name of the LE/PDE driving it (primary inputs absent)."""
        drivers: dict[str, str] = {}
        for le in self.les:
            for net in le.output_nets:
                drivers[net] = le.name
        for pde in self.pdes:
            drivers[pde.output_net] = pde.name
        return drivers

    def validate(self) -> list[str]:
        """Structural sanity checks; returns a list of problem descriptions."""
        problems: list[str] = []
        drivers = self.net_driver()
        seen_outputs: dict[str, str] = {}
        for le in self.les:
            if not le.fits(self.params):
                problems.append(f"LE {le.name} violates the LE constraints")
            for net in le.output_nets:
                if net in seen_outputs:
                    problems.append(f"net {net!r} driven by both {seen_outputs[net]} and {le.name}")
                seen_outputs[net] = le.name
        for pde in self.pdes:
            if pde.output_net in seen_outputs:
                problems.append(
                    f"net {pde.output_net!r} driven by both {seen_outputs[pde.output_net]} and {pde.name}"
                )
            seen_outputs[pde.output_net] = pde.name
        available = set(drivers) | set(self.primary_inputs)
        for le in self.les:
            for net in le.external_input_nets:
                if net not in available:
                    problems.append(f"LE {le.name} reads undriven net {net!r}")
        for pde in self.pdes:
            if pde.input_net not in available:
                problems.append(f"PDE {pde.name} reads undriven net {pde.input_net!r}")
        for net in self.primary_outputs:
            if net not in available:
                problems.append(f"primary output {net!r} is not driven")
        return problems

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        return {
            "name": self.name,
            "style": self.style.value if self.style is not None else None,
            "les": len(self.les),
            "lut_functions": sum(len(le.functions) for le in self.les),
            "validity_functions": sum(1 for le in self.les if le.validity is not None),
            "pdes": len(self.pdes),
            "plbs": len(self.plbs),
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
        }

    # ------------------------------------------------------------------
    # Serialization (the "mapped" and "packed" stage artifacts)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """A JSON-safe, schema-versioned rendering (inverse of :meth:`from_dict`).

        PLBs reference LEs/PDEs *by name* — the payload carries no duplicated
        objects, and :meth:`from_dict` restores the identity sharing the
        packer establishes (a PLB's LEs are the same objects as the design's).
        """
        return {
            "schema": MAPPED_DESIGN_SCHEMA,
            "name": self.name,
            "params": self.params.to_dict(),
            "les": [le.to_dict() for le in self.les],
            "pdes": [pde.to_dict() for pde in self.pdes],
            "plbs": [
                {
                    "name": plb.name,
                    "les": [le.name for le in plb.les],
                    "pde": plb.pde.name if plb.pde is not None else None,
                }
                for plb in self.plbs
            ],
            "primary_inputs": list(self.primary_inputs),
            "primary_outputs": list(self.primary_outputs),
            "style": self.style.value if self.style is not None else None,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MappedDesign":
        require_version(data, "mapped design", MAPPED_DESIGN_SCHEMA)
        with decoding("mapped design"):
            les = [MappedLE.from_dict(entry) for entry in data["les"]]
            pdes = [MappedPDE.from_dict(entry) for entry in data["pdes"]]
            le_by_name = {le.name: le for le in les}
            pde_by_name = {pde.name: pde for pde in pdes}
            plbs: list[MappedPLB] = []
            for entry in data["plbs"]:
                member_names = [str(name) for name in entry["les"]]
                missing = [name for name in member_names if name not in le_by_name]
                pde_name = entry.get("pde")
                if pde_name is not None and pde_name not in pde_by_name:
                    missing.append(str(pde_name))
                if missing:
                    raise CorruptArtifactError(
                        f"mapped design: PLB {entry['name']!r} references unknown members {missing}"
                    )
                plbs.append(
                    MappedPLB(
                        name=str(entry["name"]),
                        les=[le_by_name[name] for name in member_names],
                        pde=pde_by_name[str(pde_name)] if pde_name is not None else None,
                    )
                )
            style = data.get("style")
            return cls(
                name=str(data["name"]),
                params=PLBParams.from_dict(data["params"]),
                les=les,
                pdes=pdes,
                plbs=plbs,
                primary_inputs=[str(net) for net in data["primary_inputs"]],
                primary_outputs=[str(net) for net in data["primary_outputs"]],
                style=LogicStyle(style) if style is not None else None,
                metadata=dict(data.get("metadata", {})),
            )


def merge_mapped_designs(name: str, designs: Iterable[MappedDesign]) -> MappedDesign:
    """Concatenate several mapped designs into one (used by circuit composition).

    Nets with identical names are shared; primary inputs that another part
    drives become internal nets.  Per-part decomposition counters are folded
    into the merged design's metadata so composed circuits report them the
    same way monolithic mappings do.
    """
    # Local import: repro.cad.decompose imports this module at top level.
    from repro.cad.decompose import DecompositionStats

    designs = list(designs)
    if not designs:
        raise ValueError("merge_mapped_designs needs at least one design")
    params = designs[0].params
    merged = MappedDesign(name=name, params=params, style=designs[0].style)
    stats = DecompositionStats()
    for design in designs:
        merged.les.extend(design.les)
        merged.pdes.extend(design.pdes)
        part = design.metadata.get("decomposition")
        if part:
            stats.merge(DecompositionStats(**part))
    if stats.active:
        merged.metadata["decomposition"] = stats.as_dict()
    driven = merged.all_output_nets()
    for design in designs:
        for net in design.primary_inputs:
            if net not in driven and net not in merged.primary_inputs:
                merged.primary_inputs.append(net)
        for net in design.primary_outputs:
            if net not in merged.primary_outputs:
                merged.primary_outputs.append(net)
    return merged
