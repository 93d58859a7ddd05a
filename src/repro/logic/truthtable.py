"""Truth tables over named inputs.

A :class:`TruthTable` is the canonical representation of a single-output
Boolean function in this code base.  It stores the ordered list of input
variable names and a tuple of output bits indexed by the integer formed from
the input values, with ``inputs[0]`` the *least significant* bit of the index.

Truth tables are immutable and hashable so they can be used as dictionary keys
(e.g. when deduplicating LUT configurations in the bitstream generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence


def _index_from_assignment(inputs: Sequence[str], assignment: Mapping[str, int]) -> int:
    """Return the row index of *assignment* with ``inputs[0]`` as LSB."""
    index = 0
    for position, name in enumerate(inputs):
        value = assignment[name]
        if value not in (0, 1):
            raise ValueError(f"value of {name!r} must be 0 or 1, got {value!r}")
        index |= (value & 1) << position
    return index


@dataclass(frozen=True)
class TruthTable:
    """An immutable single-output Boolean function.

    Parameters
    ----------
    inputs:
        Ordered input variable names.  ``inputs[0]`` is the least significant
        bit of the row index.
    bits:
        Tuple of ``2 ** len(inputs)`` output bits.
    name:
        Optional human-readable name used in reports.
    """

    inputs: tuple[str, ...]
    bits: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        expected = 1 << len(self.inputs)
        if len(self.bits) != expected:
            raise ValueError(
                f"truth table over {len(self.inputs)} inputs needs {expected} bits, "
                f"got {len(self.bits)}"
            )
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError(f"duplicate input names in {self.inputs!r}")
        bits = self.bits
        # One C-level pass accepts exactly the bits equal to 0 or 1 (count()
        # compares with ==, as ``in`` does); only a rejected table is walked,
        # to name its first bad bit.
        if bits.count(0) + bits.count(1) != len(bits):
            bad = next(bit for bit in bits if bit not in (0, 1))
            raise ValueError(f"truth table bits must be 0/1, got {bad!r}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        inputs: Sequence[str],
        function: Callable[..., int],
        name: str = "",
    ) -> "TruthTable":
        """Build a table by evaluating *function* on every input combination.

        The function is called with one positional ``int`` argument per input,
        in the order of *inputs*, and must return a value interpreted as a
        Boolean.
        """
        inputs = tuple(inputs)
        rows = 1 << len(inputs)
        bits = []
        for index in range(rows):
            args = [(index >> position) & 1 for position in range(len(inputs))]
            bits.append(1 if function(*args) else 0)
        return cls(inputs=inputs, bits=tuple(bits), name=name)

    @classmethod
    def from_minterms(
        cls, inputs: Sequence[str], minterms: Iterable[int], name: str = ""
    ) -> "TruthTable":
        """Build a table that is 1 exactly on the given row indices."""
        inputs = tuple(inputs)
        rows = 1 << len(inputs)
        wanted = set(minterms)
        out_of_range = [m for m in wanted if not 0 <= m < rows]
        if out_of_range:
            raise ValueError(f"minterms out of range for {len(inputs)} inputs: {out_of_range}")
        bits = tuple(1 if index in wanted else 0 for index in range(rows))
        return cls(inputs=inputs, bits=bits, name=name)

    @classmethod
    def constant(cls, value: int, inputs: Sequence[str] = (), name: str = "") -> "TruthTable":
        """A constant 0 or 1 function (optionally over dummy inputs)."""
        inputs = tuple(inputs)
        bits = tuple([1 if value else 0] * (1 << len(inputs)))
        return cls(inputs=inputs, bits=bits, name=name)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate the function for a full assignment of its inputs."""
        missing = [name for name in self.inputs if name not in assignment]
        if missing:
            raise KeyError(f"missing values for inputs {missing}")
        return self.bits[_index_from_assignment(self.inputs, assignment)]

    def __call__(self, **assignment: int) -> int:
        return self.evaluate(assignment)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.inputs)

    def minterms(self) -> list[int]:
        """Row indices where the function is 1."""
        return [index for index, bit in enumerate(self.bits) if bit]

    def is_constant(self) -> bool:
        return all(bit == self.bits[0] for bit in self.bits)

    def depends_on(self, variable: str) -> bool:
        """True if the output actually depends on *variable*."""
        if variable not in self.inputs:
            return False
        position = self.inputs.index(variable)
        mask = 1 << position
        for index in range(len(self.bits)):
            if index & mask:
                continue
            if self.bits[index] != self.bits[index | mask]:
                return True
        return False

    def support(self) -> tuple[str, ...]:
        """The subset of declared inputs the function really depends on."""
        return tuple(name for name in self.inputs if self.depends_on(name))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def cofactor(self, variable: str, value: int) -> "TruthTable":
        """Shannon cofactor with *variable* fixed to *value* (variable removed)."""
        if variable not in self.inputs:
            raise KeyError(f"{variable!r} is not an input of {self.inputs!r}")
        position = self.inputs.index(variable)
        remaining = tuple(name for name in self.inputs if name != variable)
        bits = []
        for new_index in range(1 << len(remaining)):
            low = new_index & ((1 << position) - 1)
            high = new_index >> position
            old_index = low | ((value & 1) << position) | (high << (position + 1))
            bits.append(self.bits[old_index])
        return TruthTable(inputs=remaining, bits=tuple(bits), name=self.name)

    def restrict(self, assignment: Mapping[str, int]) -> "TruthTable":
        """Cofactor against several variables at once."""
        table = self
        for variable, value in assignment.items():
            if variable in table.inputs:
                table = table.cofactor(variable, value)
        return table

    def remove_redundant_inputs(self) -> "TruthTable":
        """Drop declared inputs the function does not depend on."""
        table = self
        for variable in self.inputs:
            if not table.depends_on(variable) and variable in table.inputs:
                table = table.cofactor(variable, 0)
        return table

    def rename(self, mapping: Mapping[str, str]) -> "TruthTable":
        """Rename input variables; names not in *mapping* are kept."""
        new_inputs = tuple(mapping.get(name, name) for name in self.inputs)
        return TruthTable(inputs=new_inputs, bits=self.bits, name=self.name)

    def reorder(self, new_order: Sequence[str]) -> "TruthTable":
        """Return an equivalent table with inputs listed in *new_order*."""
        new_order = tuple(new_order)
        if set(new_order) != set(self.inputs) or len(new_order) != len(self.inputs):
            raise ValueError(
                f"new order {new_order!r} must be a permutation of {self.inputs!r}"
            )
        positions = [self.inputs.index(name) for name in new_order]
        bits = []
        for new_index in range(len(self.bits)):
            old_index = 0
            for new_position, old_position in enumerate(positions):
                bit = (new_index >> new_position) & 1
                old_index |= bit << old_position
            bits.append(self.bits[old_index])
        return TruthTable(inputs=new_order, bits=tuple(bits), name=self.name)

    def extend_inputs(self, inputs: Sequence[str]) -> "TruthTable":
        """Return an equivalent table declared over the superset *inputs*.

        The extra variables become don't-care inputs.  The relative order of
        the original variables inside *inputs* may differ; only membership is
        required.
        """
        inputs = tuple(inputs)
        missing = [name for name in self.inputs if name not in inputs]
        if missing:
            raise ValueError(f"target inputs {inputs!r} must contain {missing!r}")
        # rows[index] is the source row of target row *index*; each target
        # input doubles the list, adding its source weight (0 for extras).
        weights = {name: 1 << position for position, name in enumerate(self.inputs)}
        rows = [0]
        for name in inputs:
            weight = weights.get(name, 0)
            rows += [row | weight for row in rows]
        bits = tuple(map(self.bits.__getitem__, rows))
        return TruthTable(inputs=inputs, bits=bits, name=self.name)

    def compose(self, substitutions: Mapping[str, "TruthTable"]) -> "TruthTable":
        """Substitute input variables by whole functions.

        Variables not present in *substitutions* stay as free inputs.  The
        resulting input list is the union (in first-seen order) of the free
        inputs and the inputs of the substituted functions.
        """
        new_inputs: list[str] = []
        for name in self.inputs:
            if name in substitutions:
                for sub_name in substitutions[name].inputs:
                    if sub_name not in new_inputs:
                        new_inputs.append(sub_name)
            elif name not in new_inputs:
                new_inputs.append(name)

        def evaluate(*values: int) -> int:
            assignment = dict(zip(new_inputs, values))
            inner = {}
            for name in self.inputs:
                if name in substitutions:
                    inner[name] = substitutions[name].evaluate(assignment)
                else:
                    inner[name] = assignment[name]
            return self.evaluate(inner)

        return TruthTable.from_function(new_inputs, evaluate, name=self.name)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _binary(self, other: "TruthTable", op: Callable[[int, int], int], name: str) -> "TruthTable":
        union: list[str] = list(self.inputs)
        for variable in other.inputs:
            if variable not in union:
                union.append(variable)
        left = self.extend_inputs(union)
        right = other.extend_inputs(union)
        bits = tuple(op(a, b) for a, b in zip(left.bits, right.bits))
        return TruthTable(inputs=tuple(union), bits=bits, name=name)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, lambda a, b: a & b, "and")

    def __or__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, lambda a, b: a | b, "or")

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        return self._binary(other, lambda a, b: a ^ b, "xor")

    def __invert__(self) -> "TruthTable":
        return TruthTable(
            inputs=self.inputs,
            bits=tuple(1 - bit for bit in self.bits),
            name=f"not_{self.name}" if self.name else "not",
        )

    def equivalent(self, other: "TruthTable") -> bool:
        """Functional equivalence, ignoring input ordering and redundant inputs."""
        left = self.remove_redundant_inputs()
        right = other.remove_redundant_inputs()
        if set(left.support()) != set(right.support()):
            return False
        if not left.inputs:
            return left.bits == right.bits
        right = right.extend_inputs(left.inputs)
        return left.bits == right.bits

    # ------------------------------------------------------------------
    # Serialisation helpers
    # ------------------------------------------------------------------
    def to_config_bits(self) -> tuple[int, ...]:
        """The raw bits in LUT-configuration order (row 0 first)."""
        return self.bits

    def to_dict(self) -> dict:
        return {"inputs": list(self.inputs), "bits": list(self.bits), "name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TruthTable":
        return cls(
            inputs=tuple(data["inputs"]),
            bits=tuple(map(int, data["bits"])),
            name=str(data.get("name", "")),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "f"
        return f"{label}({', '.join(self.inputs)})={''.join(str(b) for b in self.bits)}"
