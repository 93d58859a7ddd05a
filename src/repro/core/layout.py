"""The bit layout of one PLB configuration region.

A PLB region holds, in order (the order of the behavioural models'
``config_vector`` methods, every field LSB first):

* per LE: one ``2**lut_inputs``-bit truth table per LUT7-3 output, the
  validity LUT's table, then one selector per validity pin (LE input
  ``i<n>`` is code *n*, LUT output ``o<n>`` is code ``lut_inputs + n``);
* the PDE tap;
* per IM destination, in :attr:`PLBLayout.im_destinations` order, the code
  of its source (the source's index in :attr:`PLBLayout.im_sources` plus
  one; 0 leaves the destination unconnected).

The last IM selector ends the region: its width is the budget's
:attr:`PLBParams.config_bits`.  :meth:`PLBLayout.for_params` computes every
offset once per :class:`~repro.core.params.PLBParams`, and the bitstream
generator and the bitstream audit both read that one layout, so encoder and
decoder share one enumeration of the region.  A layout is immutable, so
concurrent flows share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.le import VALIDITY_SOURCE_INPUT
from repro.core.lut import pin_names
from repro.core.params import PLBParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.le import LEConfig
    from repro.core.plb import PLBConfig
    from repro.logic.truthtable import TruthTable


def _codes(width: int, count: int) -> tuple[bytes, ...]:
    """The LSB-first bit patterns (one byte per bit) of codes ``0..count-1``."""
    return tuple(bytes((code >> bit) & 1 for bit in range(width)) for code in range(count))


def _decode(bits: Sequence[int]) -> int:
    """The integer an LSB-first bit field holds."""
    return sum(1 << index for index, bit in enumerate(bits) if bit)


@lru_cache(maxsize=1024)
def _gather_rows(positions: tuple[int, ...], pins: int) -> tuple[int, ...]:
    """For each row of a table over ``pins`` physical pins, the source row of
    a table whose *k*-th input sits on pin ``positions[k]``."""
    weights = [0] * pins
    for index, position in enumerate(positions):
        weights[position] = 1 << index
    rows = [0]
    for weight in weights:
        rows += [row | weight for row in rows]
    return tuple(rows)


def _table_bits(table: "TruthTable", pin_index: Mapping[str, int]) -> bytes:
    """*table*'s truth table expanded over every physical pin of *pin_index*."""
    try:
        positions = tuple(pin_index[name] for name in table.inputs)
    except KeyError:
        raise ValueError(
            f"LUT{len(pin_index)} cannot host a function over pins {table.inputs}; "
            f"legal pins: {tuple(pin_index)}"
        ) from None
    return bytes(map(table.bits.__getitem__, _gather_rows(positions, len(pin_index))))


@dataclass(frozen=True, eq=False)
class PLBLayout:
    """Offsets and widths of every field of one PLB configuration region."""

    params: PLBParams
    #: Bits of the region (the budget's ``PLBParams.config_bits``).
    width: int
    #: Each LE's segment: its LUT tables, validity table and selectors.
    le_slices: tuple[slice, ...]
    #: Bits of one LUT7-3 output's truth table.
    lut_width: int
    #: Offset of the validity LUT's table inside an LE segment.
    validity_offset: int
    #: Offset of the first validity selector inside an LE segment.
    selector_offset: int
    selector_width: int
    pde_slice: slice
    im_selector_width: int
    im_sources: tuple[str, ...]
    im_destinations: tuple[str, ...]
    #: Source name -> selector code (index + 1).
    source_codes: Mapping[str, int]
    #: Destination name -> offset of its selector in the region.
    destination_offsets: Mapping[str, int]
    lut_pins: Mapping[str, int]
    validity_pins: Mapping[str, int]
    #: Selector codes of an LE whose configuration names no validity sources.
    default_selectors: tuple[int, ...]
    selector_codes: tuple[bytes, ...]
    pde_codes: tuple[bytes, ...]
    im_codes: tuple[bytes, ...]

    @classmethod
    @lru_cache(maxsize=16)
    def for_params(cls, params: PLBParams) -> "PLBLayout":
        """The one shared layout of *params* (built on first use)."""
        le = params.le
        lut_width = 1 << le.lut_inputs
        validity_offset = le.lut_outputs * lut_width
        selector_offset = validity_offset + (1 << le.validity_lut_inputs)
        selector_width = math.ceil(math.log2(le.lut_inputs + le.lut_outputs))
        le_width = selector_offset + le.validity_lut_inputs * selector_width
        le_slices = tuple(
            slice(index * le_width, (index + 1) * le_width) for index in range(params.les_per_plb)
        )
        pde_offset = params.les_per_plb * le_width
        pde_width = max(1, math.ceil(math.log2(params.pde_taps)))

        le_outputs = [f"o{index}" for index in range(le.lut_outputs)] + ["ov"]
        le_inputs = list(pin_names(le.lut_inputs)) + list(pin_names(le.validity_lut_inputs, prefix="v"))
        sources = (
            list(pin_names(params.plb_inputs, prefix="in"))
            + [f"le{index}_{name}" for index in range(params.les_per_plb) for name in le_outputs]
            + ["pde_out"]
        )
        destinations = (
            [f"le{index}_{name}" for index in range(params.les_per_plb) for name in le_inputs]
            + ["pde_in"]
            + list(pin_names(params.plb_outputs, prefix="out"))
        )
        im_offset = pde_offset + pde_width
        im_selector_width = max(1, math.ceil(math.log2(len(sources) + 1)))
        return cls(
            params=params,
            width=params.config_bits,
            le_slices=le_slices,
            lut_width=lut_width,
            validity_offset=validity_offset,
            selector_offset=selector_offset,
            selector_width=selector_width,
            pde_slice=slice(pde_offset, pde_offset + pde_width),
            im_selector_width=im_selector_width,
            im_sources=tuple(sources),
            im_destinations=tuple(destinations),
            source_codes=MappingProxyType({name: code for code, name in enumerate(sources, 1)}),
            destination_offsets=MappingProxyType(
                {name: im_offset + index * im_selector_width for index, name in enumerate(destinations)}
            ),
            lut_pins=MappingProxyType({name: index for index, name in enumerate(pin_names(le.lut_inputs))}),
            validity_pins=MappingProxyType(
                {name: index for index, name in enumerate(pin_names(le.validity_lut_inputs, prefix="v"))}
            ),
            # A fresh LE reads its validity pins from LUT outputs 0, 1, ...
            default_selectors=tuple(le.lut_inputs + index for index in range(le.validity_lut_inputs)),
            selector_codes=_codes(selector_width, 1 << selector_width),
            pde_codes=_codes(pde_width, params.pde_taps),
            im_codes=_codes(im_selector_width, len(sources) + 1),
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, config: "PLBConfig") -> bytearray:
        """The region's bits, one byte per bit, for *config*.

        Raises ``ValueError`` for a configuration the PLB cannot hold and
        ``KeyError`` for an IM route naming an unknown source or destination.
        """
        le_configs = config.le_configs
        if len(le_configs) > len(self.le_slices):
            raise ValueError(
                f"{len(le_configs)} LE configurations for a PLB with "
                f"{len(self.le_slices)} LEs"
            )
        region = bytearray(self.width)
        for index, le_slice in enumerate(self.le_slices):
            le_config = le_configs[index] if index < len(le_configs) else None
            self._encode_le(region, le_slice.start, le_config)

        tap = config.pde_config.tap
        if tap >= self.params.pde_taps:
            raise ValueError(f"tap {tap} out of range (taps={self.params.pde_taps})")
        region[self.pde_slice] = self.pde_codes[tap]

        width = self.im_selector_width
        for destination, source in config.im_config.routes.items():
            offset = self.destination_offsets[destination]
            region[offset : offset + width] = self.im_codes[self.source_codes[source]]
        return region

    def _encode_le(self, region: bytearray, base: int, config: "LEConfig | None") -> None:
        selectors = self.default_selectors
        if config is not None:
            tables = config.lut_tables
            if len(tables) > self.params.le.lut_outputs:
                raise ValueError(
                    f"cannot configure {len(tables)} outputs on a "
                    f"LUT{self.params.le.lut_inputs}-{self.params.le.lut_outputs}"
                )
            for index, table in enumerate(tables):
                if table is not None:
                    start = base + index * self.lut_width
                    region[start : start + self.lut_width] = _table_bits(table, self.lut_pins)
            if config.validity_table is not None:
                start = base + self.validity_offset
                bits = _table_bits(config.validity_table, self.validity_pins)
                region[start : start + len(bits)] = bits
            if config.validity_sources:
                if len(config.validity_sources) != len(self.validity_pins):
                    raise ValueError(
                        f"expected {len(self.validity_pins)} validity sources, "
                        f"got {len(config.validity_sources)}"
                    )
                lut_inputs = self.params.le.lut_inputs
                selectors = tuple(
                    source.index if source.kind == VALIDITY_SOURCE_INPUT else lut_inputs + source.index
                    for source in config.validity_sources
                )
        mask = len(self.selector_codes) - 1
        start = base + self.selector_offset
        for code in selectors:
            region[start : start + self.selector_width] = self.selector_codes[code & mask]
            start += self.selector_width

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_tap(self, region: Sequence[int]) -> int:
        """The PDE tap stored in *region*."""
        return _decode(region[self.pde_slice])

    def decode_routes(self, region: Sequence[int]) -> dict[str, str]:
        """The IM routes stored in *region*, destination -> source.

        Raises ``ValueError`` for a selector code beyond the source count.
        """
        routes: dict[str, str] = {}
        width = self.im_selector_width
        for destination in self.im_destinations:
            offset = self.destination_offsets[destination]
            code = _decode(region[offset : offset + width])
            if code > len(self.im_sources):
                raise ValueError(
                    f"IM selector of {destination!r} holds code {code}, beyond "
                    f"the {len(self.im_sources)} sources"
                )
            if code:
                routes[destination] = self.im_sources[code - 1]
        return routes
