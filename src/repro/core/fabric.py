"""The island-style fabric.

The fabric is a ``width x height`` grid of PLB tiles "plunged into a routing
network" (Section 3): horizontal and vertical routing channels run between the
tiles, connection boxes attach PLB pins to channel tracks, and switch boxes
join channel segments at the grid corners.  IO pads line the perimeter.

Coordinate conventions (used consistently by the router and the bitstream):

* PLB tiles sit at integer coordinates ``(x, y)`` with ``0 <= x < width`` and
  ``0 <= y < height``.
* Horizontal channel segment ``h(x, y)`` runs along the *bottom* edge of tile
  ``(x, y)``; segments with ``y == height`` run above the top row.
* Vertical channel segment ``v(x, y)`` runs along the *left* edge of tile
  ``(x, y)``; segments with ``x == width`` run right of the last column.
* Switch boxes sit at the grid corners ``(x, y)`` with ``0 <= x <= width`` and
  ``0 <= y <= height`` and join the (up to) four incident channel segments.
* IO pads are attached to the boundary channel adjacent to their side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.core.lut import pin_names
from repro.core.params import ArchitectureParams


class TileType(enum.Enum):
    PLB = "plb"
    IO = "io"


@dataclass(frozen=True)
class Tile:
    """One grid tile."""

    x: int
    y: int
    tile_type: TileType

    @property
    def name(self) -> str:
        return f"{self.tile_type.value}_{self.x}_{self.y}"


@dataclass(frozen=True)
class IOPad:
    """One perimeter IO pad.

    ``side`` is one of ``"north"``, ``"south"``, ``"east"``, ``"west"``;
    ``position`` is the tile index along that side and ``index`` the pad index
    within the tile's group.
    """

    side: str
    position: int
    index: int

    @property
    def name(self) -> str:
        return f"io_{self.side}_{self.position}_{self.index}"

    def adjacent_channel(self, width: int, height: int) -> tuple[str, int, int]:
        """The ``(orientation, x, y)`` of the channel segment the pad connects to."""
        if self.side == "south":
            return ("h", self.position, 0)
        if self.side == "north":
            return ("h", self.position, height)
        if self.side == "west":
            return ("v", 0, self.position)
        if self.side == "east":
            return ("v", width, self.position)
        raise ValueError(f"unknown side {self.side!r}")


class Fabric:
    """A fabric instance: grid geometry and PLB pin names."""

    def __init__(self, params: ArchitectureParams | None = None) -> None:
        self.params = params if params is not None else ArchitectureParams()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.params.width

    @property
    def height(self) -> int:
        return self.params.height

    def tiles(self) -> Iterator[Tile]:
        for y in range(self.height):
            for x in range(self.width):
                yield Tile(x=x, y=y, tile_type=TileType.PLB)

    def tile_at(self, x: int, y: int) -> Tile:
        if not self.contains(x, y):
            raise KeyError(f"no PLB tile at ({x}, {y})")
        return Tile(x=x, y=y, tile_type=TileType.PLB)

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def plb_sites(self) -> list[tuple[int, int]]:
        return [(tile.x, tile.y) for tile in self.tiles()]

    def io_pads(self) -> list[IOPad]:
        pads: list[IOPad] = []
        per_side = self.params.routing.io_pads_per_side
        for x in range(self.width):
            for index in range(per_side):
                pads.append(IOPad(side="south", position=x, index=index))
                pads.append(IOPad(side="north", position=x, index=index))
        for y in range(self.height):
            for index in range(per_side):
                pads.append(IOPad(side="west", position=y, index=index))
                pads.append(IOPad(side="east", position=y, index=index))
        return pads

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def horizontal_channels(self) -> Iterator[tuple[int, int]]:
        """All ``(x, y)`` of horizontal channel segments."""
        for y in range(self.height + 1):
            for x in range(self.width):
                yield (x, y)

    def vertical_channels(self) -> Iterator[tuple[int, int]]:
        for x in range(self.width + 1):
            for y in range(self.height):
                yield (x, y)

    def channel_segment_count(self) -> int:
        horizontal = (self.height + 1) * self.width
        vertical = (self.width + 1) * self.height
        return horizontal + vertical

    def wire_count(self) -> int:
        return self.channel_segment_count() * self.params.routing.channel_width

    def tile_adjacent_channels(self, x: int, y: int) -> list[tuple[str, int, int]]:
        """The four channel segments around PLB tile ``(x, y)``."""
        return [
            ("h", x, y),        # bottom
            ("h", x, y + 1),    # top
            ("v", x, y),        # left
            ("v", x + 1, y),    # right
        ]

    def switchbox_corners(self) -> Iterator[tuple[int, int]]:
        for y in range(self.height + 1):
            for x in range(self.width + 1):
                yield (x, y)

    def corner_incident_channels(self, x: int, y: int) -> list[tuple[str, int, int]]:
        """Channel segments meeting at corner ``(x, y)`` (2 to 4 of them)."""
        incident: list[tuple[str, int, int]] = []
        if x - 1 >= 0:
            incident.append(("h", x - 1, y))
        if x < self.width:
            incident.append(("h", x, y))
        if y - 1 >= 0:
            incident.append(("v", x, y - 1))
        if y < self.height:
            incident.append(("v", x, y))
        return incident

    # ------------------------------------------------------------------
    # Pin geometry
    # ------------------------------------------------------------------
    def plb_input_pins(self) -> tuple[str, ...]:
        return pin_names(self.params.plb.plb_inputs, prefix="in")

    def plb_output_pins(self) -> tuple[str, ...]:
        return pin_names(self.params.plb.plb_outputs, prefix="out")

    def pin_side(self, pin_index: int) -> int:
        """Distribute pins round-robin over the four sides (0..3)."""
        return pin_index % 4

    def pin_channel(self, x: int, y: int, pin_index: int) -> tuple[str, int, int]:
        """The channel segment a PLB pin's connection box sits on."""
        return self.tile_adjacent_channels(x, y)[self.pin_side(pin_index)]

    # ------------------------------------------------------------------
    # Distance helpers (placement cost)
    # ------------------------------------------------------------------
    @staticmethod
    def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Fabric({self.width}x{self.height}, W={self.params.routing.channel_width})"
