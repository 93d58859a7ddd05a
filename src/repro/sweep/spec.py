"""Declarative sweep grids.

A sweep is a cartesian product of circuit names (from
:func:`repro.circuits.registry.circuit_registry`), architecture instances and
flow-option sets.  Each cell of the grid is a :class:`SweepPoint`; its
:meth:`SweepPoint.key` is a sha256 content hash of the point's canonical
serialization, which is what the on-disk result store is addressed by.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.cad.flow import FlowOptions
from repro.core.params import ArchitectureParams, stable_digest
from repro.fingerprint import code_fingerprint

#: Version of the stored *record layout* only.  Bump it when the record
#: format itself changes (renamed fields, new envelope).  Behaviour changes in
#: mappers / circuit factories / flow steps need no manual action: the cache
#: key embeds :func:`repro.fingerprint.code_fingerprint`, so editing those
#: sources automatically retires every stale record.  The robustness fields
#: added for the supervised runner (``attempts``, ``duration_s``,
#: ``transient``) are additive and optional, so they did not bump the
#: version: pre-supervision records stay readable and simply report an empty
#: attempt history.
SWEEP_SCHEMA_VERSION = 1

#: The record status vocabulary.  ``ok`` / ``error`` come straight from
#: :func:`repro.sweep.runner.execute_point`; the remaining three are assigned
#: by the runner's supervision layer (see ``docs/robustness.md``):
#:
#: * ``ok``       -- the flow completed; ``summary`` is populated.
#: * ``error``    -- the flow raised; ``error`` carries class + message.
#:   Deterministic flow errors are cacheable, environmental ones
#:   (``transient: true``) are retried per policy and never cached.
#: * ``timeout``  -- the point exceeded the per-point wall-clock budget;
#:   never cached, retried per policy.
#: * ``poisoned`` -- the point killed its worker more than the configured
#:   number of times and was quarantined; cached *with* its attempt history
#:   so ``repro-sweep stats`` can report it (``gc``/``clear`` re-arms it).
#: * ``skipped``  -- the point was never run because ``fail_fast`` stopped
#:   the sweep first; never cached.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_POISONED = "poisoned"
STATUS_SKIPPED = "skipped"
RECORD_STATUSES = (
    STATUS_OK,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    STATUS_POISONED,
    STATUS_SKIPPED,
)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid: run *circuit* on *architecture* with *options*."""

    circuit: str
    architecture: ArchitectureParams
    options: FlowOptions

    def to_dict(self) -> dict[str, object]:
        return {
            "version": SWEEP_SCHEMA_VERSION,
            "circuit": self.circuit,
            "architecture": self.architecture.to_dict(),
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepPoint":
        return cls(
            circuit=str(data["circuit"]),
            architecture=ArchitectureParams.from_dict(dict(data["architecture"])),
            options=FlowOptions.from_dict(dict(data["options"])),
        )

    def key(self) -> str:
        """The content-address of this point in the result store.

        Besides the point description the key hashes a fingerprint of the
        code that executes the point, so results are addressed by the
        semantics that produced them: a behaviour change in the CAD or
        circuit packages misses every pre-change record.
        """
        payload = self.to_dict()
        payload["code_fingerprint"] = code_fingerprint()
        return stable_digest(payload)

    def placement_key(self) -> str:
        """The content-address of this point's *placement* in the result store.

        The record holds the wirelength anneal, which depends on strictly
        less than the full point: the circuit (and the code that maps it,
        folded in via the fingerprint), the fabric *geometry* -- grid size,
        PLB parameters, IO pads per side -- and the annealing seed/effort.
        Routing-side knobs (channel width, connection/switch-box topology,
        bitstream generation) are deliberately **excluded**: two points
        differing only in those share one placement record, which is what
        lets the runner re-route an options-only change without re-placing
        (incremental re-route).  So are the timing knobs: a timing-driven
        flow polishes the cached anneal itself, so timing-driven and default
        points with the same seed share a record.
        """
        arch = self.architecture
        payload = {
            "kind": "placement",
            "circuit": self.circuit,
            "code_fingerprint": code_fingerprint(),
            "fabric": {
                "width": arch.width,
                "height": arch.height,
                "plb": arch.plb.to_dict(),
                "io_pads_per_side": arch.routing.io_pads_per_side,
            },
            "seed": self.options.placement_seed,
            "effort": self.options.placement_effort,
        }
        return stable_digest(payload)

    def label(self) -> str:
        """A short human-readable identifier for tables and logs."""
        arch = self.architecture
        return f"{self.circuit}@{arch.width}x{arch.height}/cw{arch.routing.channel_width}"


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep grid, expanded lazily into :class:`SweepPoint` cells."""

    circuits: tuple[str, ...]
    architectures: tuple[ArchitectureParams, ...]
    options: tuple[FlowOptions, ...]

    @classmethod
    def build(
        cls,
        circuits: Iterable[str],
        architectures: Iterable[ArchitectureParams] | ArchitectureParams,
        options: Iterable[FlowOptions] | FlowOptions | None = None,
    ) -> "SweepSpec":
        """Normalise loose arguments (single values allowed) into a spec."""
        if isinstance(architectures, ArchitectureParams):
            architectures = (architectures,)
        if options is None:
            options = (FlowOptions(),)
        elif isinstance(options, FlowOptions):
            options = (options,)
        return cls(
            circuits=tuple(circuits),
            architectures=tuple(architectures),
            options=tuple(options),
        )

    @classmethod
    def full_registry(
        cls,
        architectures: Iterable[ArchitectureParams] | ArchitectureParams | None = None,
        options: Iterable[FlowOptions] | FlowOptions | None = None,
    ) -> "SweepSpec":
        """Every registered benchmark circuit, by default on the reference fabric."""
        from repro.circuits.registry import circuit_registry

        if architectures is None:
            architectures = (ArchitectureParams(),)
        return cls.build(sorted(circuit_registry()), architectures, options)

    def points(self) -> list[SweepPoint]:
        """The grid cells in deterministic (circuit-major) order."""
        return [
            SweepPoint(circuit=circuit, architecture=arch, options=opts)
            for circuit, arch, opts in itertools.product(
                self.circuits, self.architectures, self.options
            )
        ]

    def __len__(self) -> int:
        return len(self.circuits) * len(self.architectures) * len(self.options)


def as_points(
    spec_or_points: SweepSpec | Sequence[SweepPoint],
) -> list[SweepPoint]:
    """Accept either a spec or an explicit point list."""
    if isinstance(spec_or_points, SweepSpec):
        return spec_or_points.points()
    return list(spec_or_points)
