"""Minimal VCD (value change dump) writer.

The examples use this to export waveforms of simulated handshakes so they can
be inspected with any standard waveform viewer (GTKWave etc.).  Only scalar
two-valued signals are supported, which is all the simulators produce.
"""

from __future__ import annotations

import string
from typing import Iterable, TextIO


class VcdWriter:
    """Accumulate value changes and render a VCD file."""

    def __init__(self, design_name: str = "repro", timescale: str = "1ps") -> None:
        self.design_name = design_name
        self.timescale = timescale
        self._signals: dict[str, str] = {}
        self._changes: list[tuple[int, str, int]] = []
        self._identifiers = self._identifier_stream()

    @staticmethod
    def _identifier_stream():
        alphabet = string.ascii_letters + string.digits + "!@#$%^&*"
        index = 0
        while True:
            code = []
            value = index
            while True:
                code.append(alphabet[value % len(alphabet)])
                value //= len(alphabet)
                if value == 0:
                    break
            yield "".join(code)
            index += 1

    def declare(self, net_name: str) -> None:
        if net_name not in self._signals:
            self._signals[net_name] = next(self._identifiers)

    def change(self, time: int, net_name: str, value: int) -> None:
        self.declare(net_name)
        self._changes.append((time, net_name, 1 if value else 0))

    def add_trace(self, net_name: str, changes: Iterable[tuple[int, int]]) -> None:
        """Import a whole ``(time, value)`` trace recorded by a simulator."""
        for time, value in changes:
            self.change(time, net_name, value)

    def render(self) -> str:
        lines = [
            "$date reproduced-run $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.design_name} $end",
        ]
        for name, identifier in self._signals.items():
            lines.append(f"$var wire 1 {identifier} {name} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        lines.append("#0")
        lines.append("$dumpvars")
        initial: dict[str, int] = {}
        for time, name, value in sorted(self._changes, key=lambda item: item[0]):
            if name not in initial:
                initial[name] = value if time == 0 else 0
        for name, identifier in self._signals.items():
            lines.append(f"{initial.get(name, 0)}{identifier}")
        lines.append("$end")

        last_time = 0
        for time, name, value in sorted(self._changes, key=lambda item: (item[0])):
            if time == 0:
                continue
            if time != last_time:
                lines.append(f"#{time}")
                last_time = time
            lines.append(f"{value}{self._signals[name]}")
        return "\n".join(lines) + "\n"

    def write(self, stream: TextIO) -> None:
        stream.write(self.render())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            self.write(handle)
