"""Event-driven simulation.

The simulators here validate designs at three levels of abstraction:

* :mod:`~repro.sim.netsim` -- gate-level simulation of
  :class:`~repro.netlist.netlist.Netlist` objects with per-cell delays
  (including the state-holding Muller C-elements and latches).
* :mod:`~repro.sim.lesim` -- simulation of LE-level mapped netlists
  (:class:`repro.cad.lemap.MappedDesign`), evaluating LUT7-3 / LUT2-1
  configurations with feedback through the PLB interconnection matrix.
* :mod:`~repro.sim.fabricsim` -- simulation of a fully placed-and-routed
  design on the fabric, adding routed wire delays.

Support modules:

* :mod:`~repro.sim.scheduler` -- the shared event-queue kernel.
* :mod:`~repro.sim.handshake` -- a circuit's environment: one 4-phase
  producer and one acknowledging consumer for bundled-data and
  delay-insensitive channels alike, a passive consumer, and
  :func:`~repro.sim.handshake.drive`, the one testbench: it picks an agent
  per channel from the circuit's channel interface, pushes tokens through
  any of the three simulators and returns what came out.
* :mod:`~repro.sim.hazards` -- glitch/monotonicity analysis of signal traces.
* :mod:`~repro.sim.checkers` -- protocol checkers (dual-rail legality,
  4-phase alternation).
* :mod:`~repro.sim.vcd` -- a minimal VCD dump writer.
"""

from repro.sim.scheduler import Event, EventScheduler
from repro.sim.netsim import GateLevelSimulator
from repro.sim.handshake import (
    FourPhaseConsumer,
    FourPhaseProducer,
    HandshakeHarness,
    HandshakeRun,
    PassiveDualRailConsumer,
    drive,
)
from repro.sim.hazards import TransitionTrace, count_glitches, is_monotonic_transition
from repro.sim.checkers import DualRailChecker, FourPhaseChecker
from repro.sim.vcd import VcdWriter

__all__ = [
    "Event",
    "EventScheduler",
    "GateLevelSimulator",
    "HandshakeHarness",
    "HandshakeRun",
    "drive",
    "FourPhaseProducer",
    "FourPhaseConsumer",
    "PassiveDualRailConsumer",
    "TransitionTrace",
    "count_glitches",
    "is_monotonic_transition",
    "DualRailChecker",
    "FourPhaseChecker",
    "VcdWriter",
]
