"""Handshake test benches.

The classes here model the *environment* of an asynchronous circuit: producers
that push tokens into input channels and consumers that accept tokens from
output channels, following the 4-phase protocol used throughout the paper's
example (Section 4).

The test bench is rule-based: between two settling runs of the event-driven
simulator each agent looks at the circuit's handshake outputs and decides
whether to change the inputs it drives.  This mirrors how a speed-independent
environment behaves and avoids any timing assumption on the environment side.

:func:`drive` builds the environment from a circuit's channel interface alone
(``input_channels``, ``output_channels``, ``ack_nets`` and ``req_nets``, as
:class:`~repro.styles.base.StyledCircuit` and
:class:`~repro.circuits.adders.BenchmarkCircuit` carry them), one agent per
channel:

* every input channel gets a :class:`FourPhaseProducer` waiting on the
  channel's ``ack_nets`` entry;
* an output channel with a request wire (bundled data) gets a
  :class:`FourPhaseConsumer` on its ``req_nets`` and ``ack_nets`` entries;
* a delay-insensitive output channel whose ``ack_nets`` entry differs from
  the inputs' acknowledge (the first input channel's entry) gets a
  :class:`FourPhaseConsumer` driving that entry: a WCHB pipeline's output;
* any other output channel gets a :class:`PassiveDualRailConsumer` sampling
  it when the inputs' acknowledge rises: a function block's outputs, and
  inputs a composition passes straight through to an output.

A producer and an acknowledging consumer serve both kinds of channel;
:attr:`~repro.asynclogic.channels.Channel.has_request_wire` tells them how a
token is signalled: by a request wire beside the data, or by the data's
code word alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.asynclogic.channels import Channel
from repro.asynclogic.tokens import Token
from repro.sim.netsim import GateLevelSimulator

if TYPE_CHECKING:
    from repro.circuits.adders import BenchmarkCircuit
    from repro.styles.base import StyledCircuit

#: Agent rounds :meth:`HandshakeHarness.run` allows before giving up.
MAX_ITERATIONS = 10_000
#: Events one settling run of the simulator may process.
MAX_EVENTS_PER_STEP = 200_000


class HandshakeDeadlock(RuntimeError):
    """Raised when neither the circuit nor the environment can make progress."""


class EnvironmentAgent:
    """Base class of producers/consumers plugged into a :class:`HandshakeHarness`."""

    def act(self, simulator: GateLevelSimulator) -> bool:
        """Inspect the circuit and possibly drive inputs.

        Returns True when at least one primary input was changed.
        """
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        """True once the agent has no more work to do."""
        raise NotImplementedError


@dataclass
class FourPhaseProducer(EnvironmentAgent):
    """Drives an input channel with a list of values in 4-phase RTZ.

    A bundled-data channel signals a token by raising its request wire one
    time unit after the data and withdraws it by lowering the request; a
    delay-insensitive one signals it by the code word and withdraws it by
    returning the data to neutral.  The *ack_net* is the circuit output
    acknowledging the data (for the paper's QDI full adder this is the
    completion-detection output).
    """

    channel: Channel
    values: Sequence[int]
    ack_net: str
    tokens: list[Token] = field(default_factory=list)
    _index: int = 0
    _state: str = "idle"  # idle -> valid -> rtz -> idle

    def act(self, simulator: GateLevelSimulator) -> bool:
        ack = simulator.value(self.ack_net)
        bundled = self.channel.has_request_wire
        if self._state == "idle":
            if self._index >= len(self.values) or ack != 0:
                return False
            value = self.values[self._index]
            self.tokens.append(Token(value=value, issued_at=simulator.now))
            simulator.set_inputs(self.channel.encode(value))
            if bundled:
                simulator.set_input(self.channel.req_wire, 1, delay=1)
            self._state = "valid"
            return True
        if self._state == "valid":
            if ack != 1:
                return False
            self.tokens[-1].accepted_at = simulator.now
            if bundled:
                simulator.set_input(self.channel.req_wire, 0)
            else:
                simulator.set_inputs(self.channel.neutral())
            self._state = "rtz"
            return True
        if self._state == "rtz":
            if ack != 0:
                return False
            self.tokens[-1].completed_at = simulator.now
            self._index += 1
            self._state = "idle"
            # Immediately try to launch the next token.
            return self.act(simulator)
        return False

    @property
    def finished(self) -> bool:
        return self._index >= len(self.values) and self._state == "idle"


@dataclass
class PassiveDualRailConsumer(EnvironmentAgent):
    """Records values appearing on a DI output channel.

    It drives nothing; it simply samples the output rails whenever the
    *valid_net* (output completion) makes a 0→1 transition.  Suitable for
    function blocks whose outputs are acknowledged by the producer-side
    handshake (the paper's QDI full adder).
    """

    channel: Channel
    valid_net: str
    received: list[int] = field(default_factory=list)
    _last_valid: int = 0

    def act(self, simulator: GateLevelSimulator) -> bool:
        valid = simulator.value(self.valid_net)
        if valid == 1 and self._last_valid == 0:
            value = self.channel.decode(simulator.values_of(self.channel.data_wires()))
            if value is not None:
                self.received.append(value)
        self._last_valid = valid
        return False

    @property
    def finished(self) -> bool:
        return True


@dataclass
class FourPhaseConsumer(EnvironmentAgent):
    """Accepts tokens from an output channel by driving its acknowledge wire.

    A bundled-data channel offers a token by raising its request net
    *req_net* and withdraws it by lowering it; a delay-insensitive one
    offers a valid code word and withdraws it by returning to neutral (a
    WCHB pipeline's output, whose channel has an explicit acknowledge
    input).
    """

    channel: Channel
    ack_net: str
    req_net: str | None = None
    received: list[int] = field(default_factory=list)
    _ack_value: int = 0

    def act(self, simulator: GateLevelSimulator) -> bool:
        wire_values = simulator.values_of(self.channel.data_wires())
        if self.channel.has_request_wire:
            request = simulator.value(self.req_net)
            offered, withdrawn = request == 1, request == 0
        else:
            offered = self.channel.is_valid(wire_values)
            withdrawn = self.channel.is_neutral(wire_values)
        if offered and self._ack_value == 0:
            value = self.channel.decode(wire_values)
            if value is not None:
                self.received.append(value)
            simulator.set_input(self.ack_net, 1)
            self._ack_value = 1
            return True
        if withdrawn and self._ack_value == 1:
            simulator.set_input(self.ack_net, 0)
            self._ack_value = 0
            return True
        return False

    @property
    def finished(self) -> bool:
        return self._ack_value == 0


class HandshakeHarness:
    """Coordinates environment agents around an event-driven simulation."""

    def __init__(self, simulator: GateLevelSimulator, agents: Sequence[EnvironmentAgent]) -> None:
        self.simulator = simulator
        self.agents = list(agents)

    def run(self) -> int:
        """Run until every agent is finished; returns the final simulation time.

        Raises :class:`HandshakeDeadlock` when the circuit is stable, no agent
        can act, and at least one agent still has work to do.
        """
        self.simulator.initialise()
        self.simulator.run(max_events=MAX_EVENTS_PER_STEP)
        for _ in range(MAX_ITERATIONS):
            progress = False
            for agent in self.agents:
                if agent.act(self.simulator):
                    progress = True
            result = self.simulator.run(max_events=MAX_EVENTS_PER_STEP)
            if all(agent.finished for agent in self.agents):
                return self.simulator.now
            if not progress and result.events == 0:
                pending = [agent for agent in self.agents if not agent.finished]
                raise HandshakeDeadlock(
                    f"deadlock at t={self.simulator.now}: {len(pending)} agent(s) stuck "
                    f"({[type(agent).__name__ for agent in pending]})"
                )
        raise RuntimeError(f"handshake harness did not converge in {MAX_ITERATIONS} iterations")


@dataclass
class HandshakeRun:
    """What :func:`drive` pushed into a circuit and what came out."""

    #: One dict per received token, output-channel name -> value; a channel
    #: that received fewer tokens than another is missing from the last dicts.
    outputs: list[dict[str, int]]
    #: Simulated time (ps) once every agent had finished.
    end_time_ps: int
    #: Each input channel's tokens, with their handshake timestamps.
    issued: dict[str, list[Token]]


def drive(
    circuit: "StyledCircuit | BenchmarkCircuit",
    simulator: GateLevelSimulator,
    tokens: Sequence[Mapping[str, int]],
) -> HandshakeRun:
    """Push *tokens* through the circuit *simulator* simulates.

    Each token maps every input-channel name to its value.  The agents are
    chosen from the circuit's channel interface by the rules of the module
    docstring.  Raises :class:`HandshakeDeadlock` when the circuit stops
    acknowledging.
    """
    inputs = circuit.input_channels
    input_ack = circuit.ack_nets[inputs[0].name] if inputs else None
    producers = {
        channel.name: FourPhaseProducer(
            channel, [token[channel.name] for token in tokens], circuit.ack_nets[channel.name]
        )
        for channel in inputs
    }
    consumers: dict[str, FourPhaseConsumer | PassiveDualRailConsumer] = {}
    for channel in circuit.output_channels:
        if channel.has_request_wire or circuit.ack_nets.get(channel.name) not in (None, input_ack):
            consumers[channel.name] = FourPhaseConsumer(
                channel, circuit.ack_nets[channel.name], circuit.req_nets.get(channel.name)
            )
        else:
            consumers[channel.name] = PassiveDualRailConsumer(channel, input_ack)
    end_time = HandshakeHarness(simulator, [*producers.values(), *consumers.values()]).run()

    received = {name: consumer.received for name, consumer in consumers.items()}
    count = max((len(values) for values in received.values()), default=0)
    outputs = [
        {name: values[index] for name, values in received.items() if index < len(values)}
        for index in range(count)
    ]
    issued = {name: producer.tokens for name, producer in producers.items()}
    return HandshakeRun(outputs=outputs, end_time_ps=end_time, issued=issued)
