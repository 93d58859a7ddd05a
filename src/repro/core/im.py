"""The PLB-internal Interconnection Matrix (IM).

The IM is a crossbar that "maps together PLB inputs, LE inputs and outputs,
and the PDE" (Section 3, Figure 1).  Crucially, because LE *outputs* are among
its sources and LE *inputs* among its destinations, combinational functions
can be looped back on themselves -- this is how the architecture implements
memory elements such as Muller gates without dedicated storage cells.

The model is a full crossbar: every destination has a multiplexer able to pick
any source (or none).  Configuration cost is therefore
``destinations * ceil(log2(sources + 1))`` bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping


@dataclass
class IMConfig:
    """Routing choices of the matrix: destination name -> source name."""

    routes: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "IMConfig":
        return IMConfig(routes=dict(self.routes))


class InterconnectionMatrix:
    """A named full crossbar."""

    def __init__(self, sources: Iterable[str], destinations: Iterable[str], name: str = "im") -> None:
        self.sources = tuple(sources)
        self.destinations = tuple(destinations)
        self.name = name
        if len(set(self.sources)) != len(self.sources):
            raise ValueError("duplicate IM source names")
        if len(set(self.destinations)) != len(self.destinations):
            raise ValueError("duplicate IM destination names")
        self.config = IMConfig()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def connect(self, destination: str, source: str) -> None:
        """Route *source* to *destination* (one source per destination)."""
        if destination not in self.destinations:
            raise KeyError(f"unknown IM destination {destination!r}")
        if source not in self.sources:
            raise KeyError(f"unknown IM source {source!r}")
        self.config.routes[destination] = source

    def disconnect(self, destination: str) -> None:
        self.config.routes.pop(destination, None)

    def source_of(self, destination: str) -> str | None:
        return self.config.routes.get(destination)

    def load(self, config: IMConfig) -> None:
        for destination, source in config.routes.items():
            self.connect(destination, source)

    def clear(self) -> None:
        self.config = IMConfig()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def crosspoints(self) -> int:
        return len(self.sources) * len(self.destinations)

    @property
    def selector_bits(self) -> int:
        """Bits of one destination's source selector (+1 state for 'unconnected')."""
        return max(1, math.ceil(math.log2(len(self.sources) + 1)))

    @property
    def config_bits(self) -> int:
        return len(self.destinations) * self.selector_bits

    def used_destinations(self) -> int:
        return len(self.config.routes)

    def utilisation(self) -> float:
        if not self.destinations:
            return 0.0
        return self.used_destinations() / len(self.destinations)

    # ------------------------------------------------------------------
    # Evaluation / encoding
    # ------------------------------------------------------------------
    def propagate(self, source_values: Mapping[str, int]) -> dict[str, int]:
        """Destination values given source values (unrouted destinations read 0)."""
        result: dict[str, int] = {}
        for destination in self.destinations:
            source = self.config.routes.get(destination)
            result[destination] = source_values.get(source, 0) if source is not None else 0
        return result

    def config_vector(self) -> tuple[int, ...]:
        """Raw bits: per destination, the selected source index + 1 (0 = unconnected)."""
        bits: list[int] = []
        for destination in self.destinations:
            source = self.config.routes.get(destination)
            code = 0 if source is None else self.sources.index(source) + 1
            for bit_index in range(self.selector_bits):
                bits.append((code >> bit_index) & 1)
        return tuple(bits)

    @classmethod
    def decode_config_vector(
        cls,
        sources: tuple[str, ...],
        destinations: tuple[str, ...],
        bits: tuple[int, ...],
    ) -> IMConfig:
        """Inverse of :meth:`config_vector` (used by bitstream round-trip tests)."""
        matrix = cls(sources, destinations)
        width = matrix.selector_bits
        if len(bits) != len(destinations) * width:
            raise ValueError("configuration vector length mismatch")
        routes: dict[str, str] = {}
        for index, destination in enumerate(destinations):
            code = 0
            for bit_index in range(width):
                code |= bits[index * width + bit_index] << bit_index
            if code:
                routes[destination] = sources[code - 1]
        return IMConfig(routes=routes)
