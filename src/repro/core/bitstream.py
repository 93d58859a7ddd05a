"""Configuration bitstream model.

The bitstream is organised in named *regions*, one per configurable resource:

* one region per PLB tile (LUT truth tables, validity-LUT selectors, PDE tap,
  IM routing), laid out by :class:`~repro.core.layout.PLBLayout`;
* one region per connection-box pin (one bit per connectable track);
* one region per switch-box corner (one bit per track pair the box can join).

:class:`BitstreamBudget` computes the size and offset of every region from
the architecture parameters alone (this is the "config-bit area" metric of
the architecture experiments), and :class:`Bitstream` holds actual bit values
with serialisation and round-trip support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams
from repro.core.schema import CorruptArtifactError, decoding, require_version

#: Schema version of :meth:`Bitstream.to_dict` payloads.
BITSTREAM_SCHEMA = 1

#: ``bytes.translate`` tables: any non-zero byte to 1, and 0/1 to and from ASCII.
_ONE_PER_BIT = b"\x00" + b"\x01" * 255
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class BitstreamRegion:
    """One named, fixed-size region of the bitstream."""

    name: str
    bits: int
    kind: str  # "plb", "cbox", "sbox", "io"
    #: Index of the region's first bit in the budget's flat bit order.
    offset: int


@dataclass(frozen=True)
class BitstreamBudget:
    """The complete configuration-bit budget of a fabric, in region order."""

    params: ArchitectureParams
    regions: tuple[BitstreamRegion, ...]
    total_bits: int = field(init=False, compare=False)
    _by_name: Mapping[str, BitstreamRegion] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_bits", sum(region.bits for region in self.regions))
        by_name = {region.name: region for region in self.regions}
        object.__setattr__(self, "_by_name", MappingProxyType(by_name))

    @classmethod
    @lru_cache(maxsize=16)
    def for_architecture(cls, params: ArchitectureParams) -> "BitstreamBudget":
        """The one shared budget of *params* (built on first use)."""
        fabric = Fabric(params)
        routing = params.routing
        regions: list[BitstreamRegion] = []

        def add(name: str, bits: int, kind: str) -> None:
            offset = regions[-1].offset + regions[-1].bits if regions else 0
            regions.append(BitstreamRegion(name=name, bits=bits, kind=kind, offset=offset))

        plb_bits = params.plb.config_bits
        for x, y in fabric.plb_sites():
            add(f"plb_{x}_{y}", plb_bits, "plb")

        # Connection boxes: one bit per (pin, connectable track).
        fc_in_tracks = routing.tracks_per_pin(routing.fc_in)
        fc_out_tracks = routing.tracks_per_pin(routing.fc_out)
        cb_bits_per_plb = (
            params.plb.plb_inputs * fc_in_tracks + params.plb.plb_outputs * fc_out_tracks
        )
        for x, y in fabric.plb_sites():
            add(f"cbox_{x}_{y}", cb_bits_per_plb, "cbox")

        # Switch boxes: a disjoint box can join each incident segment pair per track.
        for corner_x, corner_y in fabric.switchbox_corners():
            incident = len(fabric.corner_incident_channels(corner_x, corner_y))
            pairs = incident * (incident - 1) // 2
            add(f"sbox_{corner_x}_{corner_y}", pairs * routing.channel_width, "sbox")

        # IO pads: one enable + one direction bit each.
        for pad in fabric.io_pads():
            add(f"io_{pad.name}", 2, "io")

        return cls(params=params, regions=tuple(regions))

    def __reduce__(self) -> tuple[object, ...]:
        # The region index is a read-only view, which does not pickle; a
        # budget is rebuilt from its parameters, so a copy is the shared one.
        return (BitstreamBudget.for_architecture, (self.params,))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def bits_by_kind(self) -> dict[str, int]:
        result: dict[str, int] = {}
        for region in self.regions:
            result[region.kind] = result.get(region.kind, 0) + region.bits
        return dict(sorted(result.items()))

    def region(self, name: str) -> BitstreamRegion:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown bitstream region {name!r}") from None


def _as_bits(bits: Sequence[int]) -> bytes:
    """*bits* as one byte per bit, every true value read as 1."""
    if isinstance(bits, (bytes, bytearray)):
        return bits.translate(_ONE_PER_BIT)
    return bytes(map(bool, bits))


class Bitstream:
    """Actual configuration data for one fabric instance.

    The bits live in one ``bytearray`` in budget order, one byte (0 or 1) per
    bit, so a region is a slice of it.
    """

    def __init__(self, budget: BitstreamBudget) -> None:
        self.budget = budget
        self._bits = bytearray(budget.total_bits)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def set_region(self, name: str, bits: Sequence[int]) -> None:
        """Overwrite region *name* with *bits*, zero-padded to its size."""
        region = self.budget.region(name)
        if len(bits) > region.bits:
            raise ValueError(
                f"region {name!r} holds {region.bits} bits; got {len(bits)}"
            )
        start = region.offset
        self._bits[start : start + region.bits] = _as_bits(bits).ljust(region.bits, b"\x00")

    def set_bit(self, name: str, index: int, value: int) -> None:
        region = self.budget.region(name)
        if not 0 <= index < region.bits:
            raise IndexError(f"bit {index} out of range for region {name!r} ({region.bits} bits)")
        self._bits[region.offset + index] = 1 if value else 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def region_bits(self, name: str) -> bytes:
        """Region *name*'s bits, one byte (0 or 1) per bit."""
        region = self.budget.region(name)
        return bytes(self._bits[region.offset : region.offset + region.bits])

    def used_bits(self) -> int:
        return self._bits.count(1)

    @property
    def total_bits(self) -> int:
        return self.budget.total_bits

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """All bits in budget order, packed eight to a byte, LSB first."""
        value = int(self._bits[::-1].translate(_TO_ASCII), 2)
        return value.to_bytes((len(self._bits) + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, budget: BitstreamBudget, data: bytes) -> "Bitstream":
        """Unpack :meth:`to_bytes` output; bytes beyond the budget are ignored."""
        total = budget.total_bits
        if len(data) * 8 < total:
            raise ValueError(f"bitstream data too short: {len(data) * 8} bits < {total}")
        needed = (total + 7) // 8
        value = int.from_bytes(data[:needed], "little")
        text = format(value, f"0{needed * 8}b")[::-1][:total]
        bitstream = cls(budget)
        bitstream._bits[:] = text.encode("ascii").translate(_FROM_ASCII)
        return bitstream

    def to_dict(self) -> dict[str, object]:
        """A JSON-safe, schema-versioned rendering (inverse of :meth:`from_dict`).

        The payload carries the architecture parameters alongside the raw
        bytes, so a reader can rebuild the :class:`BitstreamBudget` (and hence
        the region layout) without any out-of-band context.
        """
        return {
            "schema": BITSTREAM_SCHEMA,
            "architecture": self.budget.params.to_dict(),
            "total_bits": self.total_bits,
            "data": self.to_bytes().hex(),
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], budget: BitstreamBudget | None = None
    ) -> "Bitstream":
        """Rebuild from :meth:`to_dict` output.

        Pass *budget* to reuse an already-computed budget; it must match the
        payload's ``total_bits`` (a mismatch means the payload belongs to a
        different architecture and raises :class:`CorruptArtifactError`).
        """
        require_version(data, "bitstream", BITSTREAM_SCHEMA)
        with decoding("bitstream"):
            if budget is None:
                params = ArchitectureParams.from_dict(data["architecture"])
                budget = BitstreamBudget.for_architecture(params)
            total_bits = int(data["total_bits"])
            if budget.total_bits != total_bits:
                raise CorruptArtifactError(
                    f"bitstream: payload has {total_bits} bits but the "
                    f"architecture budgets {budget.total_bits}"
                )
            return cls.from_bytes(budget, bytes.fromhex(str(data["data"])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitstream):
            return NotImplemented
        return self.budget.regions == other.budget.regions and self._bits == other._bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bitstream({self.total_bits} bits, {self.used_bits()} set)"
