"""The Programmable Delay Element (PDE).

The PDE gives the PLB the ability to implement logic styles that need timing
assumptions (Section 3): in bundled-data / micropipeline circuits it realises
the matched delay that guarantees the request arrives after the data has
settled (Figure 3a).

The model is a tap-selectable delay line: the configuration chooses how many
delay taps the signal traverses, each contributing ``step_ps`` picoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def tap_for_delay(delay_ps: int, taps: int, step_ps: int) -> int:
    """The smallest tap of a *taps* x *step_ps* line whose delay is at least *delay_ps*.

    Raises ``ValueError`` when the request exceeds the line's range -- the
    CAD flow reports this as an unrealisable timing assumption.
    """
    if delay_ps <= 0:
        raise ValueError("requested delay must be positive")
    tap = math.ceil(delay_ps / step_ps) - 1
    if tap >= taps:
        raise ValueError(
            f"requested delay {delay_ps} ps exceeds the PDE range "
            f"({taps} taps x {step_ps} ps = {taps * step_ps} ps)"
        )
    return tap


@dataclass(frozen=True)
class PDEConfig:
    """Configuration of one PDE: the selected tap (0 = minimum delay)."""

    tap: int = 0
    used: bool = False

    def __post_init__(self) -> None:
        if self.tap < 0:
            raise ValueError("PDE tap must be non-negative")


class ProgrammableDelayElement:
    """A tap-selectable delay line."""

    def __init__(self, taps: int = 8, step_ps: int = 100, name: str = "pde") -> None:
        if taps < 1:
            raise ValueError("a PDE needs at least one tap")
        if step_ps < 1:
            raise ValueError("the PDE step must be at least 1 ps")
        self.taps = taps
        self.step_ps = step_ps
        self.name = name
        self.config = PDEConfig()

    @property
    def config_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.taps)))

    def configure(self, config: PDEConfig) -> None:
        if config.tap >= self.taps:
            raise ValueError(f"tap {config.tap} out of range (taps={self.taps})")
        self.config = config

    def configure_delay(self, delay_ps: int) -> PDEConfig:
        """Pick the smallest tap whose delay is at least *delay_ps* (see
        :func:`tap_for_delay`)."""
        config = PDEConfig(tap=tap_for_delay(delay_ps, self.taps, self.step_ps), used=True)
        self.configure(config)
        return config

    @property
    def delay_ps(self) -> int:
        """The currently configured propagation delay."""
        return (self.config.tap + 1) * self.step_ps

    def config_vector(self) -> tuple[int, ...]:
        bits = []
        for bit_index in range(self.config_bits):
            bits.append((self.config.tap >> bit_index) & 1)
        return tuple(bits)

    def achievable_delays(self) -> tuple[int, ...]:
        """Every delay the PDE can be programmed to, in ps."""
        return tuple((tap + 1) * self.step_ps for tap in range(self.taps))
