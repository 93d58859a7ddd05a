"""Glitch and monotonicity analysis of simulation traces.

Asynchronous circuits must be hazard-free (Section 2 of the paper): a signal
that is supposed to make a single transition during a handshake phase must not
glitch.  The helpers here post-process the transition traces recorded by the
simulators:

* :func:`count_glitches` counts extra transitions inside a time window where
  only one transition is expected.
* :func:`is_monotonic_transition` checks that a signal changed at most once
  within a window (the QDI requirement for code-word transitions).
* :class:`TransitionTrace` wraps a raw ``(time, value)`` list with convenience
  queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass
class TransitionTrace:
    """A recorded signal trace: a list of ``(time, value)`` changes."""

    net: str
    changes: list[tuple[int, int]]

    def window(self, start: int, end: int) -> list[tuple[int, int]]:
        """Changes with ``start < time <= end`` (excludes the initial state)."""
        return [(time, value) for time, value in self.changes if start < time <= end]

    def value_at(self, time: int) -> int:
        """Signal value at *time* (value of the last change not after it)."""
        current = 0
        for change_time, value in self.changes:
            if change_time > time:
                break
            current = value
        return current

    def transition_count(self, start: int, end: int) -> int:
        return len(self.window(start, end))

    def rising_edges(self, start: int = 0, end: int | None = None) -> list[int]:
        previous = self.value_at(start)
        edges = []
        for time, value in self.changes:
            if time <= start:
                continue
            if end is not None and time > end:
                break
            if value == 1 and previous == 0:
                edges.append(time)
            previous = value
        return edges

    def falling_edges(self, start: int = 0, end: int | None = None) -> list[int]:
        previous = self.value_at(start)
        edges = []
        for time, value in self.changes:
            if time <= start:
                continue
            if end is not None and time > end:
                break
            if value == 0 and previous == 1:
                edges.append(time)
            previous = value
        return edges


def count_glitches(changes: Sequence[tuple[int, int]], start: int, end: int) -> int:
    """Number of *extra* transitions in ``(start, end]`` beyond the first.

    A hazard-free signal transitions at most once per handshake phase, so any
    additional change is a glitch.
    """
    in_window = [change for change in changes if start < change[0] <= end]
    return max(0, len(in_window) - 1)


def is_monotonic_transition(changes: Sequence[tuple[int, int]], start: int, end: int) -> bool:
    """True when the signal changes at most once within ``(start, end]``."""
    return count_glitches(changes, start, end) == 0


def analyse_traces(
    traces: dict[str, list[tuple[int, int]]],
    start: int,
    end: int,
) -> dict[str, int]:
    """Glitch count per net over the window; nets with zero glitches included."""
    return {
        net: count_glitches(changes, start, end) for net, changes in sorted(traces.items())
    }
