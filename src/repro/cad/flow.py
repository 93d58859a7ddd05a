"""The end-to-end CAD flow.

:class:`CadFlow` chains every step -- technology mapping, packing, placement,
routing, timing analysis, metric extraction and bitstream generation -- and
returns a :class:`FlowResult` that the examples, benchmarks and experiments
consume.

Invariants the sweep engine builds on:

* :class:`FlowOptions` is a **frozen** dataclass: option sets are hashable,
  usable as grid axes, and cannot drift after a sweep key was computed from
  them.
* ``FlowOptions.to_dict()`` / ``from_dict()`` round-trip exactly and feed
  ``stable_hash()`` (see :class:`repro.core.params.SerializableParams`), so
  the same options produce the same content-addressed cache key in every
  process and session.
* The flow is **deterministic**: given the same circuit, architecture and
  options (including ``placement_seed``), every run produces bit-identical
  placements, routings and bitstreams.  This is what makes flow summaries
  cacheable and lets :meth:`CadFlow.run` accept an externally cached
  placement (the incremental re-route path) without changing the result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

from repro.cad.bitgen import ConfiguredPLB, configure_plb, generate_bitstream
from repro.cad.lemap import MappedDesign
from repro.cad.metrics import FillingRatioReport, filling_ratio
from repro.cad.pack import pack_design, packing_summary
from repro.cad.place import Placement, TimingObjective, place_design
from repro.cad.route import RoutingResult, refine_critical_nets, route_design
from repro.cad.techmap import MappingError, generic_map, template_map
from repro.cad.timing import TimingEngine, TimingModel, TimingReport, analyse_timing
from repro.core.bitstream import Bitstream
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, SerializableParams
from repro.core.rrgraph import RoutingResourceGraph, cached_rr_graph
from repro.netlist.netlist import Netlist
from repro.styles.base import StyledCircuit

logger = logging.getLogger(__name__)

#: VPR-style criticality sharpening applied before the placer/router blends:
#: raw criticalities of shallow asynchronous netlists cluster near 1.0, and
#: ``crit ** CRITICALITY_EXPONENT`` spreads them so only genuinely critical
#: nets trade congestion for delay.
CRITICALITY_EXPONENT = 8.0


@dataclass(frozen=True)
class FlowOptions(SerializableParams):
    """Knobs of the flow.

    Frozen (hence hashable) so option sets can key sweep grids and the
    on-disk result cache; :meth:`to_dict` / :meth:`from_dict` give a stable
    serialization for content-addressed storage and worker processes.
    """

    use_template_mapping: bool = True
    run_placement: bool = True
    run_routing: bool = True
    generate_bitstream: bool = True
    placement_seed: int = 1
    placement_effort: float = 1.0
    router_max_iterations: int = 30
    timing_model: TimingModel = field(default_factory=TimingModel)
    #: Feed criticality from the timing engine back into the placer's blended
    #: cost and the router's ``crit * delay + (1 - crit) * congestion`` cost,
    #: then post-optimise critical nets for delay (see ``docs/flow.md``).
    timing_driven: bool = False
    #: The placement blend weight (``lambda``): 0.0 anneals pure wirelength,
    #: 1.0 pure criticality-weighted bounding-box delay.  Only meaningful
    #: with ``timing_driven=True``.
    timing_tradeoff: float = 0.5
    #: Run the static verifier (:mod:`repro.verify`) over every produced
    #: stage artifact and the bitstream at the end of the flow.  The gate
    #: never raises; findings land in ``FlowResult.lint_findings`` and the
    #: summary gains ``lint_errors``/``lint_warnings`` counts.
    verify_stages: bool = False
    #: Directory of an :class:`repro.artifacts.ArtifactStore`: when set,
    #: :meth:`CadFlow.run` checkpoints every stage boundary there and
    #: ``run(resume_from=...)`` can skip already-computed prefixes.
    #: **Execution-side knob**: excluded from :meth:`to_dict`, equality and
    #: hashing (``compare=False``) — where results are persisted must never
    #: change what they are, so no cache or artifact key may depend on it.
    artifact_store: str | None = field(default=None, compare=False)
    #: Which stage boundaries to checkpoint (a subset of
    #: :data:`repro.artifacts.STAGES`; ``None`` means all of them).  Only
    #: meaningful with ``artifact_store``; excluded from :meth:`to_dict`
    #: like it.
    checkpoint_stages: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.checkpoint_stages is not None and not isinstance(self.checkpoint_stages, tuple):
            # Normalise JSON-borne lists so the dataclass stays hashable.
            object.__setattr__(self, "checkpoint_stages", tuple(self.checkpoint_stages))

    def to_dict(self) -> dict[str, object]:
        data = super().to_dict()
        # The artifact knobs steer persistence, not semantics: dropping
        # them keeps sweep keys, flow keys and stable_hash() byte-stable
        # whether or not a run checkpoints.
        del data["artifact_store"]
        del data["checkpoint_stages"]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FlowOptions":
        fields_ = dict(data)
        fields_["timing_model"] = TimingModel.from_dict(dict(fields_.get("timing_model", {})))
        return cls(**fields_)


@dataclass
class FlowResult:
    """Everything the flow produced for one circuit."""

    circuit_name: str
    architecture: ArchitectureParams
    mapped: MappedDesign
    placement: Placement | None = None
    routing: RoutingResult | None = None
    timing: TimingReport | None = None
    filling: FillingRatioReport | None = None
    bitstream: Bitstream | None = None
    configured_plbs: dict[str, ConfiguredPLB] = field(default_factory=dict)
    packing: dict[str, object] = field(default_factory=dict)
    #: ``True`` when the placement was served from the sweep engine's
    #: placement cache, ``False`` when a cache was consulted but missed,
    #: ``None`` when no placement cache was involved (plain flow runs).
    placement_cache_hit: bool | None = None
    #: Whether the timing-driven loop drove this flow (criticality-fed
    #: placement/routing plus the critical-net refinement pass).
    timing_driven: bool = False
    #: Critical nets whose trees the refinement pass actually shortened
    #: (``None`` when the pass did not run, e.g. routing failed or off).
    critical_nets_rerouted: int | None = None
    #: Handshake cycle time right after negotiation, before the refinement
    #: pass — the baseline of the reported improvement delta.
    cycle_time_pre_refine_ps: int | None = None
    #: Findings of the ``verify_stages`` lint gate (``None`` when the gate
    #: did not run); each is a :class:`repro.verify.Finding`.
    lint_findings: list | None = None
    # Always "python" (one implementation); perfbench/workloads.py reads it per flow op.
    kernel: ClassVar[str] = "python"

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """A flat, picklable dict of the headline numbers.

        This is the contract consumed by the sweep engine: the dict contains
        only JSON-serializable scalars, so it crosses process boundaries and
        lands in the on-disk result store unchanged.

        Key glossary (keys appear only when the producing step ran):

        ``circuit``, ``style``
            Mapped design name and logic style (``None`` for mixed netlists).
        ``les``, ``plbs``, ``pdes``
            Logic elements, packed PLBs and programmable delay elements used.
        ``decomposed_functions``, ``decomposition_intermediates``
            Only when wide-function decomposition fired: how many over-budget
            functions were split and how many synthetic intermediates that
            introduced.
        ``filling_ratio``, ``filling_ratio_per_plb``
            The paper's Section 5 metric: fraction of LE (resp. PLB) resources
            the mapping actually uses.
        ``le_occupancy``
            Packing quality: mean fraction of each LE's LUT capacity in use.
        ``placement_cost``
            Final half-perimeter wirelength of the annealed placement.
        ``placement_moves``, ``placement_net_evals``
            Annealer perf counters: proposed moves and per-net HPWL
            evaluations spent (the incremental placer's delta evaluation
            keeps the latter far below ``moves * nets``).
        ``placement_cache_hit``
            Only on sweep runs with a placement cache: ``True`` when the
            placement was reused from the cache (incremental re-route),
            ``False`` when it was computed and stored this run.
        ``routed_nets``, ``total_wirelength``, ``routing_success``
            Router outcome; ``routing_success`` is ``False`` when congestion
            remained after ``router_max_iterations``.
        ``router_iterations``, ``router_nets_rerouted``
            PathFinder perf counters: iterations until convergence and total
            net-route operations (the dirty-net router re-routes only nets
            touching overused nodes after the first iteration, so this stays
            well below ``iterations * nets``).
        ``router_node_pops``
            Dijkstra/A* heap pops over the whole routing run — the counter
            the A* geometric lower bound reduces versus plain Dijkstra.
        ``routing_warm_started``
            Only when a routing-tree warm start seeded this run (the sweep
            engine's channel-width ladders): how many nets inherited a
            validated seed tree instead of routing from scratch.
        ``timing_driven``, ``critical_nets_rerouted``,
        ``cycle_time_improvement_ps``
            Only on timing-driven flows: the mode marker, how many critical
            nets the post-route refinement pass actually shortened, and the
            cycle-time delta that pass bought (pre-refinement minus final).
        ``max_net_delay_ps``, ``le_levels``, ``forward_latency_ps``,
        ``cycle_time_ps``
            Timing report (see :mod:`repro.cad.timing`).
        ``bitstream_bits_set``, ``bitstream_bits_total``
            Configuration bits programmed vs available on the fabric.
        ``lint_errors``, ``lint_warnings``
            Only when ``FlowOptions.verify_stages`` ran the static verifier
            over the flow's artifacts: error and warning finding counts
            (see ``docs/lint.md``).
        """
        data: dict[str, object] = {
            "circuit": self.circuit_name,
            "style": self.mapped.style.value if self.mapped.style else None,
            "les": len(self.mapped.les),
            "plbs": len(self.mapped.plbs),
            "pdes": len(self.mapped.pdes),
        }
        decomposition = self.mapped.metadata.get("decomposition")
        if decomposition:
            # Only present when the mapper actually split wide functions, so
            # designs that fit natively keep their historical key set.
            data["decomposed_functions"] = decomposition["functions_decomposed"]
            data["decomposition_intermediates"] = decomposition["intermediate_functions"]
        if self.filling is not None:
            data["filling_ratio"] = round(self.filling.per_le, 4)
            data["filling_ratio_per_plb"] = round(self.filling.per_plb, 4)
        if self.packing:
            data["le_occupancy"] = round(float(self.packing.get("le_occupancy", 0.0)), 4)
        if self.placement is not None:
            data["placement_cost"] = round(self.placement.cost, 2)
            data["placement_moves"] = self.placement.iterations
            data["placement_net_evals"] = self.placement.net_evaluations
        if self.placement_cache_hit is not None:
            # Only present on sweep runs with a placement cache, so plain
            # flows keep their historical key set.
            data["placement_cache_hit"] = self.placement_cache_hit
        if self.routing is not None:
            data["routed_nets"] = len(self.routing.routed)
            data["total_wirelength"] = self.routing.total_wirelength
            data["routing_success"] = self.routing.success
            data["router_iterations"] = self.routing.iterations
            data["router_nets_rerouted"] = self.routing.total_reroutes
            data["router_node_pops"] = self.routing.node_pops
            if self.routing.warm_started_nets:
                # Only present when a warm-start seed actually fired, so
                # plain flows keep their historical key set.
                data["routing_warm_started"] = self.routing.warm_started_nets
        if self.timing is not None:
            data.update(self.timing.as_row())
        if self.timing_driven:
            data["timing_driven"] = True
            data["critical_nets_rerouted"] = self.critical_nets_rerouted or 0
            if (
                self.cycle_time_pre_refine_ps is not None
                and self.timing is not None
            ):
                data["cycle_time_improvement_ps"] = (
                    self.cycle_time_pre_refine_ps - self.timing.cycle_time_ps
                )
            else:
                data["cycle_time_improvement_ps"] = 0
        if self.bitstream is not None:
            data["bitstream_bits_set"] = self.bitstream.used_bits()
            data["bitstream_bits_total"] = self.bitstream.total_bits
        if self.lint_findings is not None:
            # Only present when the verify_stages gate ran, so plain flows
            # keep their historical key set.
            data["lint_errors"] = sum(
                1 for finding in self.lint_findings if finding.severity == "error"
            )
            data["lint_warnings"] = sum(
                1 for finding in self.lint_findings if finding.severity == "warning"
            )
        return data

    def report(self) -> str:
        """A human-readable multi-line report."""
        lines = [f"=== CAD flow report: {self.circuit_name} ==="]
        for key, value in self.summary().items():
            lines.append(f"  {key:>24}: {value}")
        if self.filling is not None:
            lines.append("  per-LE utilisation:")
            for row in self.filling.details.get("per_le_breakdown", []):
                lines.append(
                    f"    {row['le']:>24}: lut {row['lut_inputs_used']}/{row['lut_inputs_total']} in, "
                    f"{row['lut_outputs_used']}/{row['lut_outputs_total']} out, "
                    f"validity {row['validity_outputs_used']}/{row['validity_outputs_total']}"
                )
        if self.timing is not None and self.timing.notes:
            lines.append("  timing notes:")
            for note in self.timing.notes:
                lines.append(f"    - {note}")
        return "\n".join(lines)


class _ArtifactSession:
    """One run's bridge to the artifact store: checkpoint writes, resume reads.

    All ``repro.artifacts`` imports stay inside methods — that package pulls
    in :mod:`repro.sweep.store`, whose package ``__init__`` imports this
    module, so a top-level import would be circular.
    """

    def __init__(
        self,
        architecture: ArchitectureParams,
        options: FlowOptions,
        circuit_name: str,
    ) -> None:
        from repro.artifacts import schemas
        from repro.artifacts.store import ArtifactStore

        self._schemas = schemas
        self.architecture = architecture
        self.options = options
        self.circuit = circuit_name
        self.store = ArtifactStore(options.artifact_store)
        self.flow_key = schemas.flow_artifact_key(circuit_name, architecture, options)
        if options.checkpoint_stages is None:
            self.stages = set(schemas.STAGES)
        else:
            unknown = sorted(set(options.checkpoint_stages) - set(schemas.STAGES))
            if unknown:
                raise ValueError(
                    f"unknown checkpoint stages {unknown}; "
                    f"expected a subset of {schemas.STAGES}"
                )
            self.stages = set(options.checkpoint_stages)
        self.saved = 0

    def load(self, stage: str) -> dict[str, object] | None:
        """The decoded payload stored for *stage*, or ``None`` on a miss.

        A missing or unreadable record is a cache miss (the stage recomputes
        deterministically); a record that *decodes* wrongly raises the typed
        schema errors so corruption never mis-deserializes silently.
        """
        record = self.store.get(self._schemas.stage_key(self.flow_key, stage))
        if record is None:
            return None
        return self._schemas.decode_envelope(record, stage)

    def load_resume(self, resume_from: str) -> dict[str, dict[str, object]]:
        """The stage payloads a resume may consume.

        ``"auto"`` loads the longest contiguous prefix of stored stages;
        an explicit stage name loads every stored stage up to and including
        it and raises a typed error when that stage itself is absent.
        Stages missing from the middle of an explicit prefix simply
        recompute — the flow is deterministic, so recomputation is
        bit-identical to a load.
        """
        from repro.core.schema import ArtifactError

        stages = self._schemas.STAGES
        if resume_from == "auto":
            loaded: dict[str, dict[str, object]] = {}
            for stage in stages:
                payload = self.load(stage)
                if payload is None:
                    break
                loaded[stage] = payload
            return loaded
        if resume_from not in stages:
            raise ValueError(
                f"unknown resume stage {resume_from!r}; expected 'auto' or one of {stages}"
            )
        prefix = stages[: stages.index(resume_from) + 1]
        loaded = {}
        for stage in prefix:
            payload = self.load(stage)
            if payload is not None:
                loaded[stage] = payload
        if resume_from not in loaded:
            raise ArtifactError(
                f"cannot resume {self.circuit!r} from {resume_from!r}: no stored artifact "
                f"under flow key {self.flow_key[:12]}… (stored: {sorted(loaded) or 'none'})"
            )
        return loaded

    def checkpoint(
        self,
        stage: str,
        loaded: Mapping[str, Mapping[str, object]],
        payload: Mapping[str, object],
    ) -> None:
        """Persist *payload* unless the stage was loaded or deselected."""
        if stage not in self.stages or stage in loaded:
            return
        record = self._schemas.encode_envelope(
            stage, self.flow_key, self.circuit, self.architecture, self.options, payload
        )
        self.store.put(self._schemas.stage_key(self.flow_key, stage), record)
        self.saved += 1

    def finish(self) -> None:
        """Apply the store's size bound once per run (cheaper than per put)."""
        if self.saved:
            self.store.enforce_size_bound()


class CadFlow:
    """Run the complete flow for one architecture instance."""

    def __init__(
        self,
        architecture: ArchitectureParams | None = None,
        options: FlowOptions | None = None,
    ) -> None:
        self.architecture = architecture if architecture is not None else ArchitectureParams()
        self.options = options if options is not None else FlowOptions()
        self.fabric = Fabric(self.architecture)
        self._rr_graph: RoutingResourceGraph | None = None

    @property
    def rr_graph(self) -> RoutingResourceGraph:
        """The routing-resource graph (lazy; shared per fabric geometry).

        Served from :func:`repro.core.rrgraph.cached_rr_graph`, so repeated
        flows over the same architecture — a batch sweep, a channel-width
        ladder — reuse one graph instance instead of rebuilding it per
        :class:`CadFlow`.
        """
        if self._rr_graph is None:
            self._rr_graph = cached_rr_graph(self.fabric)
        return self._rr_graph

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _check_premapped(self, mapped: MappedDesign, name: str) -> MappedDesign:
        if mapped.params != self.architecture.plb:
            raise MappingError(
                f"design {name!r} was mapped for different PLB parameters than this "
                "flow's architecture; re-map it (attach a gate_circuit) instead of "
                "reusing the stale mapping"
            )
        if not self.options.use_template_mapping:
            raise MappingError(
                f"design {name!r} is pre-mapped (template-built) but the flow requests "
                "generic mapping; attach a gate_circuit to re-map from, or run with "
                "use_template_mapping=True"
            )
        return mapped

    def _resolve_routing_seed(
        self, routing_seed: Mapping[str, Sequence[str]] | None
    ) -> dict[str, list[int]] | None:
        """Map warm-start trees from node names to this graph's node ids.

        Names that do not exist on this fabric (e.g. tracks beyond a
        narrower channel width) are dropped; the router then validates what
        remains per net and falls back to routing nets whose trees broke.
        """
        if not routing_seed:
            return None
        graph = self.rr_graph
        resolved: dict[str, list[int]] = {}
        for net, names in routing_seed.items():
            ids: list[int] = []
            for name in names:
                try:
                    ids.append(graph.node_by_name(str(name)).node_id)
                except KeyError:
                    continue
            if ids:
                resolved[net] = ids
        return resolved or None

    def map(self, circuit: StyledCircuit | Netlist) -> MappedDesign:
        if isinstance(circuit, StyledCircuit):
            if self.options.use_template_mapping:
                return template_map(circuit, self.architecture.plb)
            return generic_map(circuit.netlist, self.architecture.plb, style=circuit.style)
        return generic_map(circuit, self.architecture.plb)

    def run(
        self,
        circuit: StyledCircuit | Netlist | MappedDesign | object,
        placement: Placement | None = None,
        routing_seed: Mapping[str, Sequence[str]] | None = None,
        resume_from: str | None = None,
    ) -> FlowResult:
        """Execute mapping → packing → placement → routing → analysis.

        Besides styled circuits and raw netlists this also accepts an already
        mapped design (``MappedDesign``) or any workload object carrying one
        in a ``mapped`` attribute (e.g. the registry's ``BenchmarkCircuit``
        ripple adders).  A pre-mapped design is only usable when it was mapped
        for this flow's PLB parameters: if they differ, the design is re-mapped
        from its gate-level circuit when one is attached, and rejected
        otherwise -- silently analysing a design mapped for a different LE
        would report (and cache) numbers for the wrong architecture.

        ``placement`` injects an externally computed (typically cached)
        placement: when it covers exactly the mapped design on this fabric,
        the annealing step is skipped and routing/bitgen run on the injected
        placement -- the **incremental re-route** path used by the sweep
        engine when only routing-side options changed.  An injected placement
        that does not match the design is discarded (the flow re-places and
        reports ``placement_cache_hit=False``) rather than routed blindly.

        ``routing_seed`` warm-starts the router with externally cached
        routed trees, given as node *names* per net (typically a
        neighbouring channel width's legal routing from the sweep engine's
        routing-tree cache).  Seed trees that do not validate on this
        fabric's RR graph are ignored, and a seeded routing that fails to
        converge is retried cold, so a stale seed can never make a routable
        point unroutable.

        With ``options.timing_driven`` the flow runs the criticality loop:
        place with the blended cost, estimate net delays from the placement
        geometry, route with ``crit * delay + (1 - crit) * congestion``
        costs, analyse the routed trees, then re-route critical nets for
        delay until the refinement pass stops improving.

        With ``options.artifact_store`` set, the flow **checkpoints** each
        stage boundary (``options.checkpoint_stages``, default all of
        :data:`repro.artifacts.STAGES`) into a content-addressed
        :class:`~repro.artifacts.ArtifactStore` after computing it, and
        ``resume_from`` **resumes** from those checkpoints: ``"auto"``
        consumes the longest stored contiguous stage prefix, an explicit
        stage name consumes the stored prefix up to that stage (raising a
        typed :class:`~repro.core.schema.ArtifactError` when it is absent).
        Artifacts are keyed by circuit, architecture, options and code
        fingerprint, and every stage is deterministic given its inputs, so a
        resumed run produces bit-identical results to a straight-through
        one — including the final bitstream bytes and ``summary()``.  (Sole
        corner: a timing-driven flow whose *entire* routing fallback ladder
        failed stores only its final placement, so resuming it explicitly
        from ``"placement"`` reproduces the final failed routing rather than
        replaying the ladder's intermediate attempts.)
        """
        # The registry name must resolve *before* mapping: stage artifacts
        # are addressed by (circuit name, architecture, options, code
        # fingerprint), and a resume skips mapping entirely.
        if isinstance(circuit, MappedDesign):
            name = circuit.name
        elif not isinstance(circuit, (StyledCircuit, Netlist)) and hasattr(circuit, "mapped"):
            name = getattr(circuit, "name", circuit.mapped.name)
        else:
            name = circuit.name if isinstance(circuit, (StyledCircuit, Netlist)) else str(circuit)

        session: _ArtifactSession | None = None
        if self.options.artifact_store is not None:
            session = _ArtifactSession(self.architecture, self.options, name)
        elif resume_from is not None:
            raise ValueError("resume_from requires options.artifact_store to be set")
        loaded: dict[str, dict[str, object]] = {}
        if session is not None and resume_from is not None:
            loaded = session.load_resume(resume_from)

        if "packed" in loaded or "mapped" in loaded:
            stored_design = loaded.get("packed") or loaded["mapped"]
            mapped = MappedDesign.from_dict(stored_design)
        elif isinstance(circuit, MappedDesign):
            mapped = self._check_premapped(circuit, name)
        elif not isinstance(circuit, (StyledCircuit, Netlist)) and hasattr(circuit, "mapped"):
            gate = getattr(circuit, "gate_circuit", None)
            needs_remap = (
                circuit.mapped.params != self.architecture.plb
                or not self.options.use_template_mapping
            )
            if needs_remap and isinstance(gate, StyledCircuit):
                mapped = self.map(gate)
            else:
                mapped = self._check_premapped(circuit.mapped, name)
        else:
            mapped = self.map(circuit)
        problems = mapped.validate()
        if problems:
            raise RuntimeError(f"mapping of {name!r} is inconsistent: {problems}")
        if session is not None:
            # The mapped boundary is the pre-pack design; template-built
            # circuits arrive with PLBs already assigned from an earlier
            # pack, so the checkpoint strips them rather than freezing
            # stale assignments into the artifact.
            mapped_payload = mapped.to_dict()
            mapped_payload["plbs"] = []
            session.checkpoint("mapped", loaded, mapped_payload)
        if "packed" not in loaded:
            pack_design(mapped, self.architecture.plb)
            if session is not None:
                session.checkpoint("packed", loaded, mapped.to_dict())

        result = FlowResult(circuit_name=name, architecture=self.architecture, mapped=mapped)
        result.packing = packing_summary(mapped)
        result.filling = filling_ratio(mapped)

        model = self.options.timing_model
        engine: TimingEngine | None = None
        if self.options.timing_driven:
            # Before placement the engine runs on flat default net delays,
            # which already yields structural (depth-based) criticalities —
            # enough signal for the annealer's blended cost.
            engine = TimingEngine(mapped, model)
            result.timing_driven = True

        placement_resumed = False
        baseline_placement: Placement | None = None
        if self.options.run_placement:
            if "placement" in loaded:
                result.placement = Placement.from_dict(loaded["placement"])
                placement_resumed = True
            elif placement is not None and placement.matches_design(mapped, self.fabric):
                result.placement = placement
                result.placement_cache_hit = True
            else:
                # The baseline wirelength anneal — bit-identical to the
                # non-timing-driven flow for the same seed/effort.
                result.placement = place_design(
                    mapped,
                    self.fabric,
                    seed=self.options.placement_seed,
                    effort=self.options.placement_effort,
                )
                if placement is not None:
                    result.placement_cache_hit = False
                if engine is not None:
                    # Timing polish: a short low-temperature anneal under the
                    # blended objective, warm-started from the baseline
                    # layout.  Criticalities come from the baseline
                    # placement's geometry (not just structure), and the
                    # polish cannot tear up the routable layout the way a
                    # full blended anneal can.
                    baseline_placement = result.placement
                    engine.estimate_from_placement(baseline_placement, self.fabric)
                    objective = TimingObjective(
                        engine.criticalities(exponent=CRITICALITY_EXPONENT),
                        tradeoff=self.options.timing_tradeoff,
                        wire_segment_delay_ps=model.wire_segment_delay_ps,
                        switch_delay_ps=model.switch_delay_ps,
                        cbox_delay_ps=model.cbox_delay_ps,
                    )
                    result.placement = place_design(
                        mapped,
                        self.fabric,
                        seed=self.options.placement_seed,
                        effort=self.options.placement_effort * 0.4,
                        objective=objective,
                        initial=baseline_placement,
                        temperature_factor=0.02,
                    )
            if session is not None and result.placement is not None:
                session.checkpoint("placement", loaded, result.placement.to_dict())

        if (
            self.options.run_routing
            and result.placement is not None
            and "routing" in loaded
        ):
            stored_routing = loaded["routing"]
            result.routing = RoutingResult.from_dict(
                stored_routing.get("routing"), self.rr_graph
            )
            pre_refine = stored_routing.get("cycle_time_pre_refine_ps")
            result.cycle_time_pre_refine_ps = (
                int(pre_refine) if pre_refine is not None else None
            )
            reroutes = stored_routing.get("critical_nets_rerouted")
            result.critical_nets_rerouted = int(reroutes) if reroutes is not None else None
            if engine is not None:
                # Reproduce the straight-through engine state: bounding-box
                # estimates for every terminal net (update_from_routing only
                # *merges* routed-net delays over them), then the routed
                # trees folded in by analyse_timing below.
                engine.estimate_from_placement(result.placement, self.fabric)
        elif self.options.run_routing and result.placement is not None:
            criticalities = None
            if engine is not None:
                # Re-estimate every inter-block net from its placed bounding
                # box so the router sees geometry-aware criticalities.
                engine.estimate_from_placement(result.placement, self.fabric)
                criticalities = engine.criticalities(exponent=CRITICALITY_EXPONENT)
            warm_start = self._resolve_routing_seed(routing_seed)

            def attempt(
                target: Placement,
                crits: Mapping[str, float] | None,
                seed: Mapping[str, Sequence[int]] | None,
            ) -> RoutingResult:
                routing = route_design(
                    mapped,
                    target,
                    self.rr_graph,
                    max_iterations=self.options.router_max_iterations,
                    criticalities=crits,
                    timing_model=model if crits is not None else None,
                    warm_start=seed,
                    # Timing-driven rungs are backed by this ladder itself;
                    # only the final congestion rung keeps the router's
                    # internal A*→Dijkstra restart (baseline semantics).
                    restart_on_failure=crits is None,
                )
                if not routing.success:
                    # One record per failed rung of the ladder below, so a
                    # fallback never fires silently.
                    rung = "warm-started " if seed else ""
                    rung += "congestion" if crits is None else "timing-driven"
                    rung += " routing"
                    if baseline_placement is not None:
                        which = "baseline" if target is baseline_placement else "polished"
                        rung += f" on the {which} placement"
                    logger.info(
                        "%s: %s failed after %d iterations with %d overused nodes",
                        name,
                        rung,
                        routing.iterations,
                        routing.overused_nodes,
                    )
                return routing

            routing = attempt(result.placement, criticalities, warm_start)
            if warm_start and not routing.success:
                # A stale seed must never cost routability: retry cold.
                routing = attempt(result.placement, criticalities, None)
            if (
                engine is not None
                and not routing.success
                and baseline_placement is not None
                and baseline_placement is not result.placement
            ):
                # The polished placement made a borderline fabric
                # unroutable: fall back to the baseline layout (already in
                # hand — no re-anneal), still routing timing-driven.
                engine.estimate_from_placement(baseline_placement, self.fabric)
                criticalities = engine.criticalities(exponent=CRITICALITY_EXPONENT)
                retry = attempt(baseline_placement, criticalities, None)
                if retry.success:
                    result.placement = baseline_placement
                    routing = retry
            if criticalities is not None and not routing.success:
                # Nor may timing-driven costs ever cost routability: finish
                # on pure congestion negotiation (bit-identical to the
                # baseline flow when the baseline placement is in use); the
                # refinement pass below still recovers the delay
                # optimisation on the legal result.
                target = (
                    baseline_placement
                    if baseline_placement is not None
                    else result.placement
                )
                retry = attempt(target, None, None)
                # `placement_resumed`: a resumed final placement IS the
                # baseline-equivalent target even though no polish object
                # pair exists to compare identities against.
                if retry.success or target is not result.placement or placement_resumed:
                    result.placement = target
                    routing = retry
            result.routing = routing

            if engine is not None and routing.success:
                engine.update_from_routing(routing, self.rr_graph)
                result.cycle_time_pre_refine_ps = engine.cycle_time_ps
                # The refinement pass may displace non-critical nets onto
                # longer paths; cap the growth at the repo-wide 2% quality
                # budget relative to the negotiated routing.
                wirelength_budget = int(routing.total_wirelength * 1.02)
                improved_total = 0
                best_cycle = engine.cycle_time_ps
                for _refine_pass in range(3):
                    # refine_critical_nets only rebinds dict entries to new
                    # RoutedNet objects, so a shallow copy reverts fully.
                    snapshot = dict(routing.routed)
                    improved = refine_critical_nets(
                        routing,
                        self.rr_graph,
                        engine.criticalities(),
                        model,
                        max_wirelength=wirelength_budget,
                    )
                    if not improved:
                        break
                    engine.update_from_routing(routing, self.rr_graph)
                    if engine.cycle_time_ps > best_cycle:
                        # A displaced net became the new critical path:
                        # revert the pass and stop refining.
                        routing.routed = snapshot
                        routing.critical_reroutes -= improved
                        engine.update_from_routing(routing, self.rr_graph)
                        break
                    best_cycle = engine.cycle_time_ps
                    improved_total += improved
                result.critical_nets_rerouted = improved_total

        if session is not None and result.routing is not None:
            session.checkpoint(
                "routing",
                loaded,
                {
                    "routing": result.routing.to_dict(self.rr_graph),
                    "cycle_time_pre_refine_ps": result.cycle_time_pre_refine_ps,
                    "critical_nets_rerouted": result.critical_nets_rerouted,
                },
            )

        if "timing" in loaded:
            result.timing = TimingReport.from_dict(loaded["timing"])
        else:
            result.timing = analyse_timing(
                mapped,
                routing=result.routing,
                graph=self.rr_graph if result.routing is not None else None,
                model=model,
                placement=result.placement if engine is not None else None,
                fabric=self.fabric if engine is not None else None,
                engine=engine,
            )
            if session is not None:
                session.checkpoint("timing", loaded, result.timing.to_dict())

        if self.options.generate_bitstream and result.placement is not None:
            if "bitstream" in loaded:
                result.bitstream = Bitstream.from_dict(loaded["bitstream"])
                # configure_plb is pure, so the per-PLB views accompanying a
                # stored bitstream are recomputed rather than serialized.
                result.configured_plbs = {
                    plb.name: configure_plb(plb, self.architecture) for plb in mapped.plbs
                }
            else:
                result.bitstream, result.configured_plbs = generate_bitstream(
                    mapped, result.placement, self.architecture
                )
                if session is not None:
                    session.checkpoint("bitstream", loaded, result.bitstream.to_dict())

        if self.options.verify_stages:
            # Lazy import: repro.verify consumes flow artifacts, so a
            # module-level import would be circular.
            from repro.verify.lint import lint_flow_artifacts

            styled = None
            if isinstance(circuit, StyledCircuit):
                styled = circuit
            else:
                gate = getattr(circuit, "gate_circuit", None)
                if isinstance(gate, StyledCircuit):
                    styled = gate
            report = lint_flow_artifacts(result, self, styled=styled)
            result.lint_findings = list(report.findings)

        if session is not None:
            session.finish()
        return result

    # ------------------------------------------------------------------
    # Convenience entry points
    # ------------------------------------------------------------------
    def run_all(self, circuits: list[StyledCircuit]) -> dict[str, FlowResult]:
        return {circuit.name: self.run(circuit) for circuit in circuits}
