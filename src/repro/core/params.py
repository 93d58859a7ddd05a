"""Architecture parameters.

The architecture is deliberately *generic* (the paper stresses that the
structure can be rebuilt and adapted to future asynchronous styles), so every
dimension is a parameter:

* the LE: number of LUT inputs/outputs of the multi-output LUT and of the
  validity LUT;
* the PLB: how many LEs, how many PLB-level inputs/outputs, the programmable
  delay element's tap count and step;
* the routing network: grid size, channel width, connection-box flexibility
  and switch-box topology.

The defaults reproduce the paper's description: a LUT7-3 plus LUT2-1 per LE,
two LEs and one PDE per PLB, island-style routing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping


def _check_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def canonical_json(data: Any) -> str:
    """A canonical (sorted-key, minimal-separator) JSON rendering of *data*.

    Used as the stable serialization underneath every content-addressed hash
    in the sweep engine, so the same parameters always produce the same key
    across processes and sessions.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


def stable_digest(data: Any) -> str:
    """A hex sha256 digest of :func:`canonical_json` of *data*."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


class SerializableParams:
    """Shared serialization for the frozen parameter dataclasses.

    Provides ``to_dict`` (recursive ``asdict``) and ``stable_hash`` (a content
    hash stable across processes, unlike ``hash()``); subclasses with nested
    parameter fields define their own ``from_dict`` to rebuild them.
    """

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return cls(**data)

    def stable_hash(self) -> str:
        return stable_digest(self.to_dict())


@dataclass(frozen=True)
class LEParams(SerializableParams):
    """Parameters of one Logic Element (Figure 2 of the paper)."""

    lut_inputs: int = 7
    lut_outputs: int = 3
    validity_lut_inputs: int = 2
    #: Always 1: the validity LUT drives the LE's single validity output, ov.
    validity_lut_outputs: int = 1

    def __post_init__(self) -> None:
        _check_positive("lut_inputs", self.lut_inputs)
        _check_positive("lut_outputs", self.lut_outputs)
        _check_positive("validity_lut_inputs", self.validity_lut_inputs)
        if self.validity_lut_outputs != 1:
            raise ValueError(
                "validity_lut_outputs must be 1: an LE has a single validity "
                f"output, ov (got {self.validity_lut_outputs})"
            )

    @property
    def lut_config_bits(self) -> int:
        """Truth-table bits of the multi-output LUT."""
        return self.lut_outputs * (1 << self.lut_inputs)

    @property
    def validity_lut_config_bits(self) -> int:
        return self.validity_lut_outputs * (1 << self.validity_lut_inputs)

    @property
    def validity_selector_bits(self) -> int:
        """Bits selecting where each validity-LUT input comes from."""
        return self.validity_lut_inputs * math.ceil(
            math.log2(self.lut_inputs + self.lut_outputs)
        )

    @property
    def config_bits(self) -> int:
        """All configuration bits of one LE."""
        return self.lut_config_bits + self.validity_lut_config_bits + self.validity_selector_bits

    @property
    def total_outputs(self) -> int:
        return self.lut_outputs + self.validity_lut_outputs

    @property
    def total_inputs(self) -> int:
        return self.lut_inputs + self.validity_lut_inputs


@dataclass(frozen=True)
class PLBParams(SerializableParams):
    """Parameters of one Programmable Logic Block (Figure 1 of the paper)."""

    les_per_plb: int = 2
    plb_inputs: int = 16
    plb_outputs: int = 8
    pde_taps: int = 8
    pde_step_ps: int = 100
    le: LEParams = field(default_factory=LEParams)

    def __post_init__(self) -> None:
        _check_positive("les_per_plb", self.les_per_plb)
        _check_positive("plb_inputs", self.plb_inputs)
        _check_positive("plb_outputs", self.plb_outputs)
        _check_positive("pde_taps", self.pde_taps)
        _check_positive("pde_step_ps", self.pde_step_ps)

    @property
    def pde_config_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.pde_taps)))

    @property
    def le_output_count(self) -> int:
        """All LE outputs available inside the PLB (LUT7-3 + LUT2-1 outputs)."""
        return self.les_per_plb * self.le.total_outputs

    @property
    def le_input_count(self) -> int:
        return self.les_per_plb * self.le.total_inputs

    @property
    def im_sources(self) -> int:
        """Sources of the interconnection matrix: PLB inputs, LE outputs, PDE output."""
        return self.plb_inputs + self.le_output_count + 1

    @property
    def im_destinations(self) -> int:
        """Destinations of the matrix: LE inputs, PDE input, PLB outputs."""
        return self.le_input_count + 1 + self.plb_outputs

    @property
    def im_config_bits(self) -> int:
        """Bits of a mux-encoded full crossbar (one source selector per destination)."""
        selector = math.ceil(math.log2(self.im_sources + 1))
        return self.im_destinations * selector

    @property
    def config_bits(self) -> int:
        return (
            self.les_per_plb * self.le.config_bits
            + self.pde_config_bits
            + self.im_config_bits
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PLBParams":
        fields = dict(data)
        fields["le"] = LEParams.from_dict(fields.get("le", {}))
        return cls(**fields)


@dataclass(frozen=True)
class RoutingParams(SerializableParams):
    """Parameters of the island-style routing network."""

    # fc_in defaults to 1.0 (every input pin can reach every track of its
    # adjacent channel), which together with the disjoint switch box keeps the
    # fabric routable for any pin pairing; fc_out stays fractional.
    channel_width: int = 8
    fc_in: float = 1.0
    fc_out: float = 0.5
    switchbox: str = "disjoint"  # or "wilton"
    io_pads_per_side: int = 4

    def __post_init__(self) -> None:
        _check_positive("channel_width", self.channel_width)
        if not 0.0 < self.fc_in <= 1.0 or not 0.0 < self.fc_out <= 1.0:
            raise ValueError("fc_in / fc_out must be in (0, 1]")
        if self.switchbox not in ("disjoint", "wilton"):
            raise ValueError(f"unknown switchbox topology {self.switchbox!r}")
        _check_positive("io_pads_per_side", self.io_pads_per_side)

    def tracks_per_pin(self, fc: float) -> int:
        return max(1, round(fc * self.channel_width))


@dataclass(frozen=True)
class ArchitectureParams(SerializableParams):
    """Top-level description of a fabric instance."""

    width: int = 6
    height: int = 6
    plb: PLBParams = field(default_factory=PLBParams)
    routing: RoutingParams = field(default_factory=RoutingParams)
    name: str = "multi-style-async-fpga"

    def __post_init__(self) -> None:
        _check_positive("width", self.width)
        _check_positive("height", self.height)

    @property
    def plb_count(self) -> int:
        return self.width * self.height

    @property
    def le_count(self) -> int:
        return self.plb_count * self.plb.les_per_plb

    @property
    def io_pad_count(self) -> int:
        return 2 * (self.width + self.height) * self.routing.io_pads_per_side

    def scaled(self, width: int, height: int) -> "ArchitectureParams":
        """The same architecture on a different grid size."""
        return ArchitectureParams(
            width=width, height=height, plb=self.plb, routing=self.routing, name=self.name
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArchitectureParams":
        fields = dict(data)
        fields["plb"] = PLBParams.from_dict(fields.get("plb", {}))
        fields["routing"] = RoutingParams.from_dict(fields.get("routing", {}))
        return cls(**fields)


#: The reference architecture instance used by examples, tests and benchmarks.
DEFAULT_ARCHITECTURE = ArchitectureParams()
