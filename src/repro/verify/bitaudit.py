"""Bitstream-tier lint rules (``BIT*``): static audit of a generated bitstream.

The audit *decodes* each PLB region back into its components (per-LE LUT /
validity / selector segments, PDE tap, IM routes) through the architecture's
:class:`~repro.core.layout.PLBLayout`, the layout the generator encodes
with, then cross-checks them against the packed design, the placement and
the routed trees — no simulation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.im import IMConfig
from repro.core.layout import PLBLayout
from repro.verify.core import ERROR, Finding, LintConfig, LintContext, LintRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cad.bitgen import ConfiguredPLB
    from repro.cad.lemap import MappedPLB
    from repro.core.params import ArchitectureParams


@dataclass
class DecodedPLBRegion:
    """One PLB bitstream region split back into its components."""

    name: str
    le_segments: list[bytes] = field(default_factory=list)
    pde_tap: int = 0
    im_config: IMConfig | None = None


def decode_plb_region(
    params: "ArchitectureParams", bits: Sequence[int], name: str = "plb"
) -> DecodedPLBRegion:
    """Split a PLB region's raw bits per the architecture's PLB layout."""
    layout = PLBLayout.for_params(params.plb)
    decoded = DecodedPLBRegion(
        name=name,
        le_segments=[bytes(bits[le_slice]) for le_slice in layout.le_slices],
        pde_tap=layout.decode_tap(bits),
    )
    try:
        decoded.im_config = IMConfig(routes=layout.decode_routes(bits))
    except ValueError:
        # Selector codes beyond the source count: corrupt bits.  Leave the
        # config as None so the IM rule reports it instead of crashing.
        decoded.im_config = None
    return decoded


def _plb_of_site(context: LintContext) -> dict[tuple[int, int], str]:
    return {site: name for name, site in context.placement.plb_sites.items()}


class BitstreamRule(LintRule):
    tier = "bitstream"
    severity = ERROR
    requires = ("bitstream", "placement")


@register
class RegionLivenessRule(BitstreamRule):
    code = "BIT001"
    name = "region-liveness"
    description = (
        "Occupied PLB sites have programmed regions; empty sites and routing "
        "regions the generator never writes stay all-zero."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        bitstream = context.bitstream
        occupied = _plb_of_site(context)
        for region in bitstream.budget.regions:
            bits = bitstream.region_bits(region.name)
            live = any(bits)
            if region.kind != "plb":
                if live:
                    yield self.finding(
                        f"region {region.name!r} is never written by the "
                        "generator but holds set bits",
                        location=region.name,
                    )
                continue
            _, x, y = region.name.split("_")
            plb_name = occupied.get((int(x), int(y)))
            if plb_name is None and live:
                yield self.finding(
                    f"region {region.name!r} holds set bits but no PLB is "
                    "placed at that site",
                    location=region.name,
                )
            elif plb_name is not None and not live:
                yield self.finding(
                    f"region {region.name!r} is all-zero but PLB {plb_name} "
                    "is placed at that site",
                    location=region.name,
                )


class ConfiguredRegionRule(BitstreamRule):
    """Shared iteration: (mapped PLB, configured PLB, decoded region)."""

    requires = ("bitstream", "placement", "mapped", "architecture", "configured_plbs")

    def _regions(
        self, context: LintContext
    ) -> Iterator[tuple["MappedPLB", "ConfiguredPLB", DecodedPLBRegion]]:
        for plb in context.mapped.plbs:
            configured = context.configured_plbs.get(plb.name)
            if configured is None:
                continue
            try:
                x, y = context.placement.site_of(plb.name)
            except KeyError:
                continue
            region_name = f"plb_{x}_{y}"
            try:
                bits = context.bitstream.region_bits(region_name)
            except KeyError:
                continue
            decoded = decode_plb_region(context.architecture, bits, name=region_name)
            yield plb, configured, decoded


@register
class LUTConfigRule(ConfiguredRegionRule):
    code = "BIT002"
    name = "lut-config"
    description = (
        "Every placed PLB's LE segments (LUT truth tables, validity LUT, "
        "validity selectors) re-encode to exactly the stored bits."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        layout = PLBLayout.for_params(context.architecture.plb)
        for plb, configured, decoded in self._regions(context):
            encoded = layout.encode(configured.config)
            for index, (le_slice, actual) in enumerate(
                zip(layout.le_slices, decoded.le_segments)
            ):
                expected = encoded[le_slice]
                if expected != actual:
                    diff = sum(1 for a, b in zip(expected, actual) if a != b)
                    yield self.finding(
                        f"PLB {plb.name} ({decoded.name}): LE {index} segment "
                        f"differs from the packed configuration in {diff} bit(s)",
                        location=decoded.name,
                    )


@register
class PDETapRule(ConfiguredRegionRule):
    code = "BIT003"
    name = "pde-tap"
    description = (
        "The stored PDE tap matches the configuration and realises at least "
        "the mapped matched delay; PLBs without a PDE keep tap 0."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        step_ps = context.architecture.plb.pde_step_ps
        for plb, configured, decoded in self._regions(context):
            expected_tap = configured.config.pde_config.tap
            if decoded.pde_tap != expected_tap:
                yield self.finding(
                    f"PLB {plb.name} ({decoded.name}): stored PDE tap "
                    f"{decoded.pde_tap} differs from configured tap {expected_tap}",
                    location=decoded.name,
                )
                continue
            if plb.pde is not None:
                realised = (decoded.pde_tap + 1) * step_ps
                if realised < plb.pde.delay_ps:
                    yield self.finding(
                        f"PLB {plb.name} ({decoded.name}): PDE tap "
                        f"{decoded.pde_tap} realises {realised} ps, below the "
                        f"mapped matched delay {plb.pde.delay_ps} ps",
                        location=decoded.name,
                    )
            elif decoded.pde_tap != 0:
                yield self.finding(
                    f"PLB {plb.name} ({decoded.name}): PDE tap "
                    f"{decoded.pde_tap} set but the PLB maps no delay element",
                    location=decoded.name,
                )


@register
class IMConfigRule(ConfiguredRegionRule):
    code = "BIT004"
    name = "im-config"
    description = (
        "The stored IM routes decode to exactly the configured crossbar, and "
        "every routed net arrives at and leaves from the PLB pin the IM binds "
        "it to."
    )

    def check(self, context: LintContext, config: LintConfig) -> Iterator[Finding]:
        for plb, configured, decoded in self._regions(context):
            if decoded.im_config is None:
                yield self.finding(
                    f"PLB {plb.name} ({decoded.name}): IM segment does not "
                    "decode (selector code beyond the source count)",
                    location=decoded.name,
                )
                continue
            stored = decoded.im_config.routes
            expected = dict(configured.config.im_config.routes)
            if stored != expected:
                missing = sorted(set(expected) - set(stored))
                extra = sorted(set(stored) - set(expected))
                changed = sorted(
                    dest
                    for dest in set(stored) & set(expected)
                    if stored[dest] != expected[dest]
                )
                yield self.finding(
                    f"PLB {plb.name} ({decoded.name}): stored IM routes differ "
                    f"from the configuration (missing {missing}, extra {extra}, "
                    f"changed {changed})",
                    location=decoded.name,
                )
            if context.routing is None:
                continue
            routed: dict[bool, dict[str, str]] = {True: {}, False: {}}
            for assignment in context.routing.pin_assignments:
                if assignment.block == plb.name:
                    routed[assignment.is_driver][assignment.net] = assignment.pin
            for is_driver, bound, side in (
                (False, configured.input_pin_of_net, "input"),
                (True, configured.output_pin_of_net, "output"),
            ):
                pins = routed[is_driver]
                wrong = sorted(
                    net for net in set(pins) | set(bound) if pins.get(net) != bound.get(net)
                )
                if wrong:
                    detail = ", ".join(
                        f"{net} routed to {pins.get(net, 'no pin')}, "
                        f"bound to {bound.get(net, 'no pin')}"
                        for net in wrong
                    )
                    yield self.finding(
                        f"PLB {plb.name} ({decoded.name}): {side} pins disagree "
                        f"with the IM's binding: {detail}",
                        location=decoded.name,
                    )
