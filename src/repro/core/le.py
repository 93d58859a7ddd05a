"""The Logic Element (Figure 2 of the paper).

An LE is a multi-output LUT (LUT7-3 by default) whose internal signals are
exported as auxiliary outputs, plus a small validity LUT (LUT2-1) "directly
plugged" to it.  The validity LUT's two inputs are selectable from either the
LE's own primary inputs or the multi-output LUT's outputs, which is what lets
an LE compute the data-validity (completion) function of the 1-of-N digit it
produces without spending main-LUT resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.lut import LUT, MultiOutputLUT, pin_names
from repro.core.params import LEParams
from repro.logic.truthtable import TruthTable

#: Validity-LUT input source kinds.
VALIDITY_SOURCE_INPUT = "input"      # one of the LE's primary input pins
VALIDITY_SOURCE_LUT_OUTPUT = "lut"   # one of the multi-output LUT's outputs


@dataclass(frozen=True)
class ValiditySource:
    """Where one validity-LUT input pin is connected."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in (VALIDITY_SOURCE_INPUT, VALIDITY_SOURCE_LUT_OUTPUT):
            raise ValueError(f"unknown validity source kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("source index must be non-negative")


@dataclass
class LEConfig:
    """The complete configuration of one LE.

    Attributes
    ----------
    lut_tables:
        One optional truth table per multi-output-LUT output, expressed over
        the physical pins ``i0..i6``.
    validity_table:
        Optional truth table of the LUT2-1, over pins ``v0``/``v1``.
    validity_sources:
        Where ``v0``/``v1`` are connected (LE inputs or LUT outputs).
    """

    lut_tables: list[TruthTable | None] = field(default_factory=list)
    validity_table: TruthTable | None = None
    validity_sources: tuple[ValiditySource, ...] = ()

    def used(self) -> bool:
        return any(table is not None for table in self.lut_tables) or self.validity_table is not None


class LogicElement:
    """A behavioural LE instance."""

    def __init__(self, params: LEParams | None = None, name: str = "le") -> None:
        self.params = params if params is not None else LEParams()
        self.name = name
        self.lut = MultiOutputLUT(self.params.lut_inputs, self.params.lut_outputs, name=f"{name}.lut")
        self.validity_lut = LUT(self.params.validity_lut_inputs, name=f"{name}.vlut", pin_prefix="v")
        self.validity_sources: tuple[ValiditySource, ...] = tuple(
            ValiditySource(VALIDITY_SOURCE_LUT_OUTPUT, index)
            for index in range(self.params.validity_lut_inputs)
        )

    # ------------------------------------------------------------------
    # Pin/port naming
    # ------------------------------------------------------------------
    @property
    def input_pins(self) -> tuple[str, ...]:
        return pin_names(self.params.lut_inputs)

    @property
    def validity_pins(self) -> tuple[str, ...]:
        return pin_names(self.params.validity_lut_inputs, prefix="v")

    @property
    def output_names(self) -> tuple[str, ...]:
        """LUT outputs ``o0..o<m-1>`` followed by the validity output ``ov``."""
        return tuple(list(self.lut.output_names) + ["ov"])

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, config: LEConfig) -> None:
        for lut in self.lut.outputs:
            lut.clear()
        self.validity_lut.clear()
        self.lut.configure(list(config.lut_tables))
        if config.validity_table is not None:
            self.validity_lut.configure(config.validity_table)
        if config.validity_sources:
            if len(config.validity_sources) != self.params.validity_lut_inputs:
                raise ValueError(
                    f"expected {self.params.validity_lut_inputs} validity sources, "
                    f"got {len(config.validity_sources)}"
                )
            self.validity_sources = tuple(config.validity_sources)

    @property
    def config_bits(self) -> int:
        """Total configuration bits of this LE (LUTs + validity input selectors)."""
        selector_bits = self.params.validity_lut_inputs * math.ceil(
            math.log2(self.params.lut_inputs + self.params.lut_outputs)
        )
        return self.lut.config_bits + self.validity_lut.config_bits + selector_bits

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Mapping[str, int]) -> dict[str, int]:
        """Evaluate all outputs for values of the LE input pins ``i0..``.

        Returns a mapping over :attr:`output_names`.
        """
        lut_outputs = self.lut.evaluate(input_values)

        validity_inputs: dict[str, int] = {}
        for pin, source in zip(self.validity_pins, self.validity_sources):
            if pin in input_values:
                # Direct drive of the validity pin (e.g. from the PLB's
                # interconnection matrix) overrides the internal selector.
                validity_inputs[pin] = input_values[pin]
            elif source.kind == VALIDITY_SOURCE_INPUT:
                validity_inputs[pin] = input_values.get(f"i{source.index}", 0)
            else:
                validity_inputs[pin] = lut_outputs[source.index] if source.index < len(lut_outputs) else 0
        validity_output = self.validity_lut.evaluate(validity_inputs)

        result = {name: value for name, value in zip(self.lut.output_names, lut_outputs)}
        result["ov"] = validity_output
        return result

    # ------------------------------------------------------------------
    # Utilisation queries (used by the filling-ratio metric)
    # ------------------------------------------------------------------
    def used_lut_outputs(self) -> int:
        return self.lut.used_outputs()

    def used_lut_input_pins(self) -> int:
        return len(self.lut.used_pins())

    def utilisation(self) -> dict[str, int]:
        return {
            "lut_inputs_used": self.used_lut_input_pins(),
            "lut_inputs_total": self.params.lut_inputs,
            "lut_outputs_used": self.used_lut_outputs(),
            "lut_outputs_total": self.params.lut_outputs,
            "validity_inputs_used": (
                len(self.validity_lut.used_pins()) if self.validity_lut.configured else 0
            ),
            "validity_inputs_total": self.params.validity_lut_inputs,
            "validity_outputs_used": 1 if self.validity_lut.configured else 0,
            "validity_outputs_total": self.params.validity_lut_outputs,
        }

    def config_vector(self) -> tuple[int, ...]:
        """Raw configuration bits: LUT7-3 bits, LUT2 bits, validity selectors."""
        bits = list(self.lut.config_vector())
        bits.extend(self.validity_lut.config_vector())
        selector_width = math.ceil(math.log2(self.params.lut_inputs + self.params.lut_outputs))
        for source in self.validity_sources:
            # Encode LE-input sources as [0, lut_inputs) and LUT outputs after them.
            code = source.index if source.kind == VALIDITY_SOURCE_INPUT else self.params.lut_inputs + source.index
            for bit_index in range(selector_width):
                bits.append((code >> bit_index) & 1)
        return tuple(bits)
