"""Gate-level event-driven simulation of netlists.

:class:`GateLevelSimulator` evaluates a
:class:`~repro.netlist.netlist.Netlist` under a transport-delay model:

* every cell output is recomputed whenever one of its input nets changes;
* the new value is scheduled after the cell's propagation delay (the library
  default, overridable per instance with a ``delay`` attribute);
* state-holding cells (Muller C-elements, latches) read their own current
  output through the ``y`` state variable of their truth table, which is how
  the target architecture realises them (LUT output looped through the PLB's
  interconnection matrix).

The simulator records full transition traces per net, which the hazard
analyser and the protocol checkers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.netlist.celltypes import STATE_VARIABLE
from repro.netlist.netlist import Cell, Netlist
from repro.sim.scheduler import EventScheduler


@dataclass
class _PendingOutput:
    """The one in-flight scheduled change of a driven net."""

    value: int
    sequence: int  # scheduler sequence of the event, for exact cancellation


@dataclass
class SimulationResult:
    """Summary of one :meth:`GateLevelSimulator.run` call."""

    start_time: int
    end_time: int
    events: int
    settled: bool

    @property
    def duration(self) -> int:
        return self.end_time - self.start_time


class GateLevelSimulator:
    """Event-driven two-valued (0/1) simulator for gate netlists."""

    def __init__(
        self,
        netlist: Netlist,
        trace_nets: Iterable[str] | None = None,
        trace_all: bool = False,
        default_delay: int | None = None,
    ) -> None:
        self.netlist = netlist
        self.scheduler = EventScheduler()
        self.values: dict[str, int] = {name: 0 for name in netlist.nets}
        self.default_delay = default_delay
        self.traces: dict[str, list[tuple[int, int]]] = {}
        self._traced: set[str] = set(netlist.nets) if trace_all else set(trace_nets or [])
        for name in self._traced:
            self.traces[name] = [(0, 0)]
        # Driven nets carry at most ONE in-flight event: a newer driver
        # evaluation supersedes (cancels) the older scheduled change instead
        # of queueing behind it.  This is inertial-delay collapse — pulses
        # narrower than the cell delay are absorbed — and it is what keeps
        # state-holding cells stable: with both events queued, every
        # own-output change re-evaluates the driver against the *other*
        # event's value and schedules yet another correction, ping-ponging
        # forever.  Primary-input nets are never driver outputs, so stimulus
        # scheduled via :meth:`set_input` is unaffected.
        self._pending: dict[str, _PendingOutput] = {}
        self._cancelled: set[int] = set()
        # Sink index: net name -> cells reading it.
        self._readers: dict[str, list[Cell]] = {name: [] for name in netlist.nets}
        for cell in netlist.iter_cells():
            for net_name in cell.input_nets().values():
                self._readers[net_name].append(cell)

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.scheduler.now

    def value(self, net_name: str) -> int:
        return self.values[net_name]

    def values_of(self, net_names: Iterable[str]) -> dict[str, int]:
        return {name: self.values[name] for name in net_names}

    def trace(self, net_name: str) -> list[tuple[int, int]]:
        """The recorded ``(time, value)`` transitions of a traced net."""
        if net_name not in self._traced:
            raise KeyError(f"net {net_name!r} was not traced")
        return list(self.traces[net_name])

    # ------------------------------------------------------------------
    # Stimulus
    # ------------------------------------------------------------------
    def set_input(self, net_name: str, value: int, delay: int = 0) -> None:
        """Drive a primary input to *value* after *delay* time units."""
        net = self.netlist.net(net_name)
        if not net.is_primary_input:
            raise ValueError(f"net {net_name!r} is not a primary input")
        self.scheduler.schedule(delay, net_name, 1 if value else 0)

    def set_inputs(self, assignment: Mapping[str, int], delay: int = 0) -> None:
        for name, value in assignment.items():
            self.set_input(name, value, delay=delay)

    def initialise(self, iterations: int = 4) -> None:
        """Settle the circuit from the all-zero state.

        Sequential cells power up with output 0 (their nets start at 0); a few
        evaluation sweeps propagate consistent values through the
        combinational logic before stimulus is applied.
        """
        for _ in range(iterations):
            changed = False
            try:
                order = self.netlist.topological_order()
            except ValueError:
                order = list(self.netlist.iter_cells())
            for cell in order:
                for pin, value in self._evaluate_cell(cell).items():
                    net_name = cell.connections[pin]
                    if self.values[net_name] != value:
                        self.values[net_name] = value
                        self._record(net_name, value)
                        changed = True
            if not changed:
                break

    # ------------------------------------------------------------------
    # Core evaluation
    # ------------------------------------------------------------------
    def _cell_delay(self, cell: Cell) -> int:
        if "delay" in cell.attributes:
            return int(cell.attributes["delay"])  # per-instance override (e.g. DELAY cells)
        if self.default_delay is not None:
            return self.default_delay
        return cell.cell_type.delay

    def _evaluate_cell(self, cell: Cell) -> dict[str, int]:
        """Evaluate every output of *cell* from the current net values."""
        results: dict[str, int] = {}
        for output_pin in cell.cell_type.outputs:
            table = cell.cell_type.table_for(output_pin)
            assignment: dict[str, int] = {}
            for variable in table.inputs:
                if variable == STATE_VARIABLE:
                    assignment[variable] = self.values[cell.connections[output_pin]]
                else:
                    assignment[variable] = self.values[cell.connections[variable]]
            results[output_pin] = table.evaluate(assignment)
        return results

    def _record(self, net_name: str, value: int) -> None:
        if net_name in self._traced:
            self.traces[net_name].append((self.scheduler.now, value))

    def _schedule_output(self, cell: Cell, output_pin: str, value: int) -> None:
        net_name = cell.connections[output_pin]
        pending = self._pending.get(net_name)
        if pending is not None:
            if pending.value == value:
                return  # identical change already in flight
            # This evaluation saw newer input values than the in-flight one;
            # cancel the stale event (last evaluation wins).
            self._cancelled.add(pending.sequence)
            self._pending.pop(net_name, None)
        if self.values[net_name] == value:
            return  # no change and nothing in flight
        event = self.scheduler.schedule(self._cell_delay(cell), net_name, value)
        self._pending[net_name] = _PendingOutput(value=value, sequence=event.sequence)

    def _handle_event(self, event) -> None:
        if event.sequence in self._cancelled:
            self._cancelled.discard(event.sequence)
            return
        net_name = event.target
        value = event.value
        pending = self._pending.get(net_name)
        if pending is not None and pending.sequence == event.sequence:
            self._pending.pop(net_name, None)
        if self.values[net_name] == value:
            return
        self.values[net_name] = value
        self._record(net_name, value)
        for cell in self._readers[net_name]:
            for output_pin, new_value in self._evaluate_cell(cell).items():
                self._schedule_output(cell, output_pin, new_value)
        # Sequential cells also need re-evaluation when their own output net
        # changes (the feedback input), which the loop above covers because a
        # sequential cell's output is not among its reader inputs; evaluate
        # the drivers of this net explicitly if they are sequential.
        driver = self.netlist.driver_of(net_name)
        if driver is not None and driver[0].cell_type.is_sequential:
            cell, _pin = driver
            for output_pin, new_value in self._evaluate_cell(cell).items():
                self._schedule_output(cell, output_pin, new_value)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, max_events: int = 200_000, until: int | None = None) -> SimulationResult:
        """Propagate events until the circuit settles (or a limit is reached)."""
        start = self.scheduler.now
        events = self.scheduler.drain(self._handle_event, max_events=max_events, until=until)
        settled = self.scheduler.empty() or (
            until is not None and (self.scheduler.peek_time() or 0) > until
        )
        return SimulationResult(
            start_time=start, end_time=self.scheduler.now, events=events, settled=settled
        )

    def apply_and_settle(self, assignment: Mapping[str, int], max_events: int = 200_000) -> SimulationResult:
        """Drive primary inputs and run until the circuit is quiescent."""
        self.set_inputs(assignment)
        return self.run(max_events=max_events)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def output_values(self) -> dict[str, int]:
        return {name: self.values[name] for name in self.netlist.primary_outputs}

    def wait_for(
        self,
        net_name: str,
        value: int,
        max_events: int = 200_000,
    ) -> bool:
        """Run until *net_name* holds *value*; returns False if it never does."""
        if self.values[net_name] == value:
            return True
        while not self.scheduler.empty():
            self._handle_event(self.scheduler.pop())
            max_events -= 1
            if max_events <= 0:
                raise RuntimeError(f"event limit reached while waiting for {net_name}={value}")
            if self.values[net_name] == value:
                return True
        return self.values[net_name] == value


def evaluate_combinational(netlist: Netlist, assignment: Mapping[str, int]) -> dict[str, int]:
    """Zero-delay functional evaluation of a netlist for one input vector.

    Sequential cells are iterated to a fixed point, so circuits whose state
    converges for the given inputs (e.g. C-elements with all inputs equal)
    also evaluate correctly.  Used by tests as a golden reference.
    """
    simulator = GateLevelSimulator(netlist, default_delay=1)
    simulator.initialise()
    simulator.set_inputs(assignment)
    simulator.run()
    return simulator.output_values()
