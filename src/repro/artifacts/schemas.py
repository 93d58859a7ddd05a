"""Keys, envelopes and loaders for stored stage artifacts.

Every artifact record in an :class:`~repro.artifacts.store.ArtifactStore` is
one stage boundary of one flow execution, wrapped in a small envelope:

.. code-block:: text

    {
      "schema":       <ARTIFACT_SCHEMA>,
      "kind":         "artifact",
      "stage":        "mapped" | "packed" | "placement" | "routing"
                      | "timing" | "bitstream",
      "flow_key":     <flow_artifact_key of the producing run>,
      "fingerprint":  <code_fingerprint that produced it>,
      "circuit":      <registry circuit name>,
      "architecture": <ArchitectureParams.to_dict()>,
      "options":      <FlowOptions.to_dict()>,
      "payload":      <the stage class's own to_dict()>,
    }

Addressing follows the sweep store's content-hash discipline: the *flow key*
hashes everything a flow's outputs depend on (circuit, architecture, options,
code fingerprint), and each stage record lives at ``stage_key(flow_key,
stage)``.  A behaviour-bearing source edit changes the fingerprint, silently
retiring every old record; :meth:`ArtifactStore.gc` reclaims them.

The envelope carries the full flow description so a store can be consumed
without out-of-band context — :func:`load_flow_artifacts` rebuilds complete
:class:`StoredFlowArtifacts` views (used by ``repro-lint --artifacts`` and
``repro-sweep export --bitstreams``) from the records alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.params import ArchitectureParams, stable_digest
from repro.core.schema import CorruptArtifactError, decoding, require_version
from repro.fingerprint import code_fingerprint

if TYPE_CHECKING:  # runtime imports stay lazy: cad imports this package
    from repro.artifacts.store import ArtifactStore
    from repro.cad.flow import FlowOptions
    from repro.cad.lemap import MappedDesign
    from repro.cad.place import Placement
    from repro.cad.route import RoutingResult
    from repro.cad.timing import TimingReport
    from repro.core.bitstream import Bitstream
    from repro.core.rrgraph import RoutingResourceGraph

#: The flow's stage boundaries, shallow to deep.  ``CadFlow.run`` checkpoints
#: each once its stage settles it (``placement`` with ``routing``, after the
#: route stage) and a resume consumes a contiguous prefix of them.
STAGES = ("mapped", "packed", "placement", "routing", "timing", "bitstream")

#: Schema version of the artifact *envelope* (each payload carries its own
#: stage schema version on top).
ARTIFACT_SCHEMA = 1


def flow_artifact_key(
    circuit: str,
    architecture: ArchitectureParams,
    options: "FlowOptions",
    fingerprint: str | None = None,
) -> str:
    """The content-address prefix shared by one flow execution's artifacts.

    Hashes everything the flow's outputs depend on — the circuit name, the
    architecture, the (cache-relevant) flow options and the code fingerprint
    — mirroring :meth:`repro.sweep.spec.SweepPoint.key`.  The
    execution-side ``artifact_store`` itself is excluded from
    ``FlowOptions.to_dict`` precisely so it cannot perturb this key.
    """
    return stable_digest(
        {
            "kind": "flow_artifacts",
            "circuit": circuit,
            "architecture": architecture.to_dict(),
            "options": options.to_dict(),
            "code_fingerprint": fingerprint if fingerprint is not None else code_fingerprint(),
        }
    )


def stage_key(flow_key: str, stage: str) -> str:
    """The store key of one stage record of one flow execution."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r} (expected one of {STAGES})")
    return stable_digest({"kind": "artifact", "flow_key": flow_key, "stage": stage})


def encode_envelope(
    stage: str,
    flow_key: str,
    circuit: str,
    architecture: ArchitectureParams,
    options: "FlowOptions",
    payload: Mapping[str, object],
) -> dict[str, object]:
    """Wrap one stage payload in the store envelope."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r} (expected one of {STAGES})")
    return {
        "schema": ARTIFACT_SCHEMA,
        "kind": "artifact",
        "stage": stage,
        "flow_key": flow_key,
        "fingerprint": code_fingerprint(),
        "circuit": circuit,
        "architecture": architecture.to_dict(),
        "options": options.to_dict(),
        "payload": dict(payload),
    }


def decode_envelope(record: Mapping[str, object], stage: str | None = None) -> dict[str, object]:
    """Validate an envelope and return its payload.

    Raises :class:`~repro.core.schema.UnknownSchemaError` /
    :class:`~repro.core.schema.CorruptArtifactError` like the stage codecs;
    pass *stage* to additionally pin the expected stage name.
    """
    require_version(record, "artifact envelope", ARTIFACT_SCHEMA)
    with decoding("artifact envelope"):
        if record["kind"] != "artifact":
            raise CorruptArtifactError(
                f"artifact envelope: kind {record['kind']!r} is not 'artifact'"
            )
        found = str(record["stage"])
        if stage is not None and found != stage:
            raise CorruptArtifactError(
                f"artifact envelope: stage {found!r} where {stage!r} was expected"
            )
        payload = record["payload"]
        if not isinstance(payload, Mapping):
            raise CorruptArtifactError("artifact envelope: payload is not a mapping")
        return dict(payload)


@dataclass
class StoredFlowArtifacts:
    """Every stored stage of one flow execution, decoded on demand.

    ``payloads`` maps stage name → raw payload dict; the accessor methods
    rebuild the stage objects through their ``from_dict`` codecs.  This is
    the read-side view behind ``repro-lint --artifacts`` and ``repro-sweep
    export --bitstreams``.
    """

    flow_key: str
    circuit: str
    architecture: ArchitectureParams
    options: "FlowOptions"
    payloads: dict[str, dict[str, object]] = field(default_factory=dict)

    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(stage for stage in STAGES if stage in self.payloads)

    def label(self) -> str:
        arch = self.architecture
        return f"{self.circuit}@{arch.width}x{arch.height}/cw{arch.routing.channel_width}"

    def design(self) -> "MappedDesign | None":
        """The deepest stored design view: packed if present, else mapped."""
        from repro.cad.lemap import MappedDesign

        payload = self.payloads.get("packed") or self.payloads.get("mapped")
        return MappedDesign.from_dict(payload) if payload is not None else None

    def placement(self) -> "Placement | None":
        from repro.cad.place import Placement

        payload = self.payloads.get("placement")
        return Placement.from_dict(payload) if payload is not None else None

    def routing(self, graph: "RoutingResourceGraph") -> "RoutingResult | None":
        from repro.cad.route import RoutingResult

        payload = self.payloads.get("routing")
        if payload is None:
            return None
        return RoutingResult.from_dict(payload["routing"], graph)

    def timing(self) -> "TimingReport | None":
        from repro.cad.timing import TimingReport

        payload = self.payloads.get("timing")
        return TimingReport.from_dict(payload) if payload is not None else None

    def bitstream(self) -> "Bitstream | None":
        from repro.core.bitstream import Bitstream

        payload = self.payloads.get("bitstream")
        return Bitstream.from_dict(payload) if payload is not None else None

    def render_bitstream(self) -> "Bitstream | None":
        """The stored bitstream, or one re-rendered from packed + placement.

        Bitstream generation is pure, so re-rendering from the shallower
        artifacts is bit-identical to what the producing flow wrote — this is
        what lets ``repro-sweep export --bitstreams`` and the lint audit work
        from a store that only checkpointed the cheap boundaries.
        """
        stored = self.bitstream()
        if stored is not None:
            return stored
        design = self.design()
        placement = self.placement()
        if design is None or placement is None or not design.plbs:
            return None
        from repro.cad.bitgen import generate_bitstream

        bitstream, _configured = generate_bitstream(design, placement, self.architecture)
        return bitstream


def load_flow_artifacts(
    store: "ArtifactStore",
    circuit: str | None = None,
    fingerprint: str | None = None,
) -> list[StoredFlowArtifacts]:
    """Group a store's records into per-flow artifact views.

    Only records stamped with *fingerprint* (default: this process's
    :func:`~repro.fingerprint.code_fingerprint`) are returned — retired
    generations describe a different build's behaviour and are skipped, same
    as a cache miss.  Unreadable or foreign records are ignored.  The result
    is sorted by (circuit, flow key) for deterministic iteration.
    """
    from repro.cad.flow import FlowOptions

    if fingerprint is None:
        fingerprint = code_fingerprint()
    groups: dict[str, StoredFlowArtifacts] = {}
    for _key, record in store.records():
        if record.get("kind") != "artifact" or record.get("schema") != ARTIFACT_SCHEMA:
            continue
        if record.get("fingerprint") != fingerprint:
            continue
        if circuit is not None and record.get("circuit") != circuit:
            continue
        try:
            payload = decode_envelope(record)
            flow_key = str(record["flow_key"])
            stage = str(record["stage"])
            group = groups.get(flow_key)
            if group is None:
                group = StoredFlowArtifacts(
                    flow_key=flow_key,
                    circuit=str(record["circuit"]),
                    architecture=ArchitectureParams.from_dict(dict(record["architecture"])),
                    options=FlowOptions.from_dict(dict(record["options"])),
                )
                groups[flow_key] = group
            group.payloads[stage] = payload
        except (CorruptArtifactError, KeyError, TypeError, ValueError):
            continue
    return sorted(groups.values(), key=lambda group: (group.circuit, group.flow_key))
