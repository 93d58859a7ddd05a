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
from functools import partial
from typing import Callable, ClassVar, Mapping

from repro.cad.bitgen import ConfiguredPLB, configure_plbs, generate_bitstream
from repro.cad.lemap import MappedDesign
from repro.cad.metrics import FillingRatioReport, filling_ratio
from repro.cad.pack import pack_design, packing_summary
from repro.cad.place import Placement, TimingObjective, place_design
from repro.cad.route import RoutingResult, refine_critical_nets, route_design
from repro.cad.techmap import MappingError, generic_map, template_map
from repro.cad.timing import TimingEngine, TimingReport, analyse_timing
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

#: Resumed artifact records by name, as a stage reads them.
_Stored = Mapping[str, Mapping[str, object]]
#: The artifact records a stage settled, as lazy payloads: the loop encodes
#: them only when a store is attached.
_Records = Mapping[str, Callable[[], Mapping[str, object]]]


@dataclass(frozen=True)
class FlowOptions(SerializableParams):
    """Knobs of the flow.

    Frozen (hence hashable) so option sets can key sweep grids and the
    on-disk result cache; :meth:`to_dict` / :meth:`from_dict` give a stable
    serialization for content-addressed storage and worker processes.
    """

    run_placement: bool = True
    run_routing: bool = True
    generate_bitstream: bool = True
    placement_seed: int = 1
    placement_effort: float = 1.0
    #: Feed criticality from the timing engine back into the placer's blended
    #: cost and the router's ``crit * delay + (1 - crit) * congestion`` cost,
    #: then post-optimise critical nets for delay (see ``docs/flow.md``).
    timing_driven: bool = False
    #: The placement blend weight (``lambda``): 0.0 anneals pure wirelength,
    #: 1.0 pure criticality-weighted bounding-box delay.  Only meaningful
    #: with ``timing_driven=True``.
    timing_tradeoff: float = 0.5
    #: Directory of an :class:`repro.artifacts.ArtifactStore`: when set,
    #: :meth:`CadFlow.run` checkpoints every stage boundary there and
    #: ``run(resume_from=...)`` can skip already-computed prefixes.
    #: **Execution-side knob**: excluded from :meth:`to_dict`, equality and
    #: hashing (``compare=False``) — where results are persisted must never
    #: change what they are, so no cache or artifact key may depend on it.
    artifact_store: str | None = field(default=None, compare=False)

    def to_dict(self) -> dict[str, object]:
        data = super().to_dict()
        # The artifact store steers persistence, not semantics: dropping it
        # keeps sweep keys, flow keys and stable_hash() byte-stable whether
        # or not a run checkpoints.
        del data["artifact_store"]
        return data


@dataclass
class FlowResult:
    """Everything the flow produced for one circuit."""

    circuit_name: str
    architecture: ArchitectureParams
    mapped: MappedDesign
    #: The placement the flow routed.
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
    #: The wirelength anneal this run computed or was handed: ``placement``
    #: itself on default flows, the layout the polish started from (and the
    #: routing ladder falls back to) on timing-driven ones.  ``None`` when
    #: the placement was resumed or placement did not run.  The sweep's
    #: placement cache stores it; kept out of :meth:`summary`.
    baseline_placement: Placement | None = None
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
            remained after every rung of the routing ladder.
        ``router_iterations``, ``router_nets_rerouted``
            PathFinder perf counters, summed over every rung of the routing
            ladder that ran on the routed placement: iterations and total
            net-route operations (the dirty-net router re-routes only nets
            touching overused nodes after the first iteration, so this stays
            well below ``iterations * nets``).  A failed timing-driven rung
            on the discarded polished placement is not counted; its INFO
            record on ``repro.cad.flow`` is.
        ``router_node_pops``
            Dijkstra/A* heap pops, summed over the same rungs — the counter
            the A* geometric lower bound reduces versus plain Dijkstra.
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
        #: The records a resume restored; the loop never rewrites them.
        self.loaded: dict[str, dict[str, object]] = {}
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

    def load_resume(self, resume_from: str) -> None:
        """Load the stage payloads a resume may consume into :attr:`loaded`.

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
            for stage in stages:
                payload = self.load(stage)
                if payload is None:
                    break
                self.loaded[stage] = payload
            return
        if resume_from not in stages:
            raise ValueError(
                f"unknown resume stage {resume_from!r}; expected 'auto' or one of {stages}"
            )
        for stage in stages[: stages.index(resume_from) + 1]:
            payload = self.load(stage)
            if payload is not None:
                self.loaded[stage] = payload
        if resume_from not in self.loaded:
            raise ArtifactError(
                f"cannot resume {self.circuit!r} from {resume_from!r}: no stored artifact "
                f"under flow key {self.flow_key[:12]}… (stored: {sorted(self.loaded) or 'none'})"
            )

    def checkpoint(self, stage: str, payload: Callable[[], Mapping[str, object]]) -> None:
        """Persist ``payload()`` unless the stage was loaded."""
        if stage in self.loaded:
            return
        record = self._schemas.encode_envelope(
            stage, self.flow_key, self.circuit, self.architecture, self.options, payload()
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
                "flow's architecture; rebuild it for these parameters instead of "
                "reusing the stale mapping"
            )
        return mapped

    def map(self, circuit: StyledCircuit | Netlist) -> MappedDesign:
        """Template-map a styled circuit; generic-map a raw netlist."""
        if isinstance(circuit, StyledCircuit):
            return template_map(circuit, self.architecture.plb)
        return generic_map(circuit, self.architecture.plb)

    def run(
        self,
        circuit: StyledCircuit | Netlist | MappedDesign | object,
        placement: Placement | None = None,
        resume_from: str | None = None,
    ) -> FlowResult:
        """Execute mapping → packing → placement → routing → analysis.

        The flow is one loop over the stages ``map``, ``pack``, ``place``,
        ``route``, ``timing`` and ``bitgen``.  Each stage either restores its
        resumed artifact record or computes its result; an exception a stage
        raises keeps its class and carries the stage's name as
        ``exc.flow_stage``.

        Besides styled circuits and raw netlists this also accepts an already
        mapped design (``MappedDesign``) or any workload object carrying one
        in a ``mapped`` attribute (e.g. the registry's ``BenchmarkCircuit``
        ripple adders).  A pre-mapped design is only usable when it was mapped
        for this flow's PLB parameters: if they differ, it is rejected --
        silently analysing a design mapped for a different LE would report
        (and cache) numbers for the wrong architecture.

        ``placement`` injects an externally computed (typically cached)
        wirelength anneal, ``FlowResult.baseline_placement`` of an earlier
        run: when it covers exactly the mapped design on this fabric, the
        anneal is skipped and the flow continues from the injected layout --
        the **incremental re-route** path used by the sweep engine when only
        routing-side options changed.  A timing-driven flow still polishes
        it, so the result equals a cold run.  An injected placement that does
        not match the design is discarded (the flow re-places and reports
        ``placement_cache_hit=False``) rather than routed blindly.

        With ``options.timing_driven`` the flow runs the criticality loop:
        polish the wirelength anneal under the blended cost, estimate net
        delays from the placement geometry, route with ``crit * delay +
        (1 - crit) * congestion`` costs, analyse the routed trees, then
        re-route critical nets for delay until the refinement pass stops
        improving.

        With ``options.artifact_store`` set, the loop **checkpoints** every
        stage record (:data:`repro.artifacts.STAGES`) into a content-addressed
        :class:`~repro.artifacts.ArtifactStore`, and ``resume_from``
        **resumes** from them: ``"auto"`` consumes the longest stored
        contiguous stage prefix, an explicit stage name consumes the stored
        prefix up to that stage (raising a typed
        :class:`~repro.core.schema.ArtifactError` when it is absent).  The
        ``placement`` record is the placement the flow routed, written once
        the route stage has settled it.  Artifacts are keyed by circuit,
        architecture, options and code fingerprint, and every stage is
        deterministic given its inputs, so a resumed run produces
        bit-identical results to a straight-through one -- including the
        final bitstream bytes and ``summary()``.
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
            if resume_from is not None:
                session.load_resume(resume_from)
        elif resume_from is not None:
            raise ValueError("resume_from requires options.artifact_store to be set")
        stored = session.loaded if session is not None else {}

        # An empty design until the map stage resolves the real one.
        result = FlowResult(
            circuit_name=name,
            architecture=self.architecture,
            mapped=MappedDesign(name, self.architecture.plb),
            timing_driven=self.options.timing_driven,
        )
        for stage, run_stage in (
            ("map", partial(self._map_stage, circuit=circuit)),
            ("pack", self._pack_stage),
            ("place", partial(self._place_stage, injected=placement)),
            ("route", self._route_stage),
            ("timing", self._timing_stage),
            ("bitgen", self._bitgen_stage),
        ):
            try:
                records = run_stage(result, stored)
            except Exception as exc:
                exc.flow_stage = stage  # type: ignore[attr-defined]
                raise
            if session is not None:
                for record, payload in records.items():
                    session.checkpoint(record, payload)

        if session is not None:
            session.finish()
        return result

    # ------------------------------------------------------------------
    # Stages: each restores its stored record or computes its result, and
    # returns the artifact records it settled as lazy payloads.
    # ------------------------------------------------------------------
    def _map_stage(self, result: FlowResult, stored: _Stored, circuit: object) -> _Records:
        name = result.circuit_name
        if "packed" in stored or "mapped" in stored:
            mapped = MappedDesign.from_dict(stored.get("packed") or stored["mapped"])
        elif isinstance(circuit, MappedDesign):
            mapped = self._check_premapped(circuit, name)
        elif not isinstance(circuit, (StyledCircuit, Netlist)) and hasattr(circuit, "mapped"):
            mapped = self._check_premapped(circuit.mapped, name)
        else:
            mapped = self.map(circuit)
        problems = mapped.validate()
        if problems:
            raise RuntimeError(f"mapping of {name!r} is inconsistent: {problems}")
        result.mapped = mapped
        # The mapped record is the pre-pack design; template-built circuits
        # arrive with PLBs already assigned from an earlier pack, so the
        # record strips them rather than freezing stale assignments.
        return {"mapped": lambda: {**mapped.to_dict(), "plbs": []}}

    def _pack_stage(self, result: FlowResult, stored: _Stored) -> _Records:
        if "packed" not in stored:
            pack_design(result.mapped, self.architecture.plb)
        result.packing = packing_summary(result.mapped)
        result.filling = filling_ratio(result.mapped)
        return {"packed": result.mapped.to_dict}

    def _place_stage(
        self, result: FlowResult, stored: _Stored, injected: Placement | None
    ) -> _Records:
        # The placement record is written by the route stage, which settles
        # which placement the flow routes.
        if not self.options.run_placement:
            return {}
        if "placement" in stored:
            result.placement = Placement.from_dict(stored["placement"])
            return {}
        mapped = result.mapped
        if injected is not None and injected.matches_design(mapped, self.fabric):
            anneal = injected
            result.placement_cache_hit = True
        else:
            anneal = place_design(
                mapped,
                self.fabric,
                seed=self.options.placement_seed,
                effort=self.options.placement_effort,
            )
            if injected is not None:
                result.placement_cache_hit = False
        result.baseline_placement = result.placement = anneal
        if self.options.timing_driven:
            # Timing polish: a short low-temperature anneal under the
            # blended objective, warm-started from the wirelength anneal.
            # Criticalities come from the anneal's geometry (not just
            # structure), and the polish cannot tear up the routable layout
            # the way a full blended anneal can.
            engine = TimingEngine(mapped)
            engine.estimate_from_placement(anneal, self.fabric)
            objective = TimingObjective(
                engine.criticalities(exponent=CRITICALITY_EXPONENT),
                tradeoff=self.options.timing_tradeoff,
            )
            result.placement = place_design(
                mapped,
                self.fabric,
                seed=self.options.placement_seed,
                effort=self.options.placement_effort * 0.4,
                objective=objective,
                initial=anneal,
                temperature_factor=0.02,
            )
        return {}

    def _route_stage(self, result: FlowResult, stored: _Stored) -> _Records:
        if self.options.run_routing and result.placement is not None:
            if "routing" in stored:
                routing = stored["routing"]
                result.routing = RoutingResult.from_dict(routing.get("routing"), self.rr_graph)
                pre_refine = routing.get("cycle_time_pre_refine_ps")
                reroutes = routing.get("critical_nets_rerouted")
                result.cycle_time_pre_refine_ps = None if pre_refine is None else int(pre_refine)
                result.critical_nets_rerouted = None if reroutes is None else int(reroutes)
            else:
                self._route(result)
        records: dict[str, Callable[[], Mapping[str, object]]] = {}
        if result.placement is not None:
            records["placement"] = result.placement.to_dict
        if result.routing is not None:
            records["routing"] = lambda: {
                "routing": result.routing.to_dict(self.rr_graph),
                "cycle_time_pre_refine_ps": result.cycle_time_pre_refine_ps,
                "critical_nets_rerouted": result.critical_nets_rerouted,
            }
        return records

    def _route(self, result: FlowResult) -> None:
        """Route down the fallback ladder until a rung routes, then refine.

        Each rung ``(placement, criticalities on?, A*?)`` runs one
        negotiation, and each failed rung logs one INFO record.  Settles
        ``result.placement`` on the last rung's placement; the reported
        routing's counters sum every rung on that placement.
        """
        mapped = result.mapped
        baseline = result.baseline_placement
        timed = self.options.timing_driven
        # Only a timing-driven flow that placed holds both the polished and
        # the baseline layout; a restored placement is the one to route.
        both_layouts = timed and baseline is not None
        fallback = baseline if baseline is not None else result.placement
        rungs = [(result.placement, True, True)] if timed else []
        if both_layouts:
            rungs.append((baseline, True, True))
        # Timing-driven costs never cost routability: the congestion-only
        # rungs route the baseline as the default flow does.  A* ordering
        # can livelock a borderline negotiation that Dijkstra resolves.
        rungs += [(fallback, False, True), (fallback, False, False)]

        # One engine serves every timing rung: each re-estimates every
        # inter-block net from its placed bounding box.
        engine = TimingEngine(mapped) if timed else None
        spent = RoutingResult()
        for target, critical, astar in rungs:
            if target is not result.placement:
                # A resume restores only the placement the flow routed and
                # re-runs just its rungs, so a discarded placement's failed
                # rung stays out of the counters (its INFO record remains).
                spent = RoutingResult()
            result.placement = target
            criticalities = None
            if critical and engine is not None:
                engine.estimate_from_placement(target, self.fabric)
                criticalities = engine.criticalities(exponent=CRITICALITY_EXPONENT)
            routing = route_design(
                mapped, target, self.rr_graph, criticalities=criticalities, astar=astar
            )
            if not routing.success:
                rung = "timing-driven routing" if critical else "congestion routing"
                if both_layouts:
                    which = "baseline" if target is baseline else "polished"
                    rung += f" on the {which} placement"
                if not critical:
                    rung += " with A*" if astar else " with plain Dijkstra"
                logger.info(
                    "%s: %s failed after %d iterations with %d overused nodes",
                    result.circuit_name,
                    rung,
                    routing.iterations,
                    routing.overused_nodes,
                )
            routing.iterations += spent.iterations
            routing.node_pops += spent.node_pops
            routing.bbox_fallbacks += spent.bbox_fallbacks
            routing.reroutes_per_iteration[:0] = spent.reroutes_per_iteration
            if routing.success:
                break
            spent = routing
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

    def _timing_stage(self, result: FlowResult, stored: _Stored) -> _Records:
        if "timing" in stored:
            result.timing = TimingReport.from_dict(stored["timing"])
        else:
            # Routed trees give every delay; without them a timing-driven
            # flow estimates each net from its placed bounding box.
            timed = self.options.timing_driven and result.placement is not None
            result.timing = analyse_timing(
                result.mapped,
                routing=result.routing,
                graph=self.rr_graph if result.routing is not None else None,
                placement=result.placement if timed else None,
                fabric=self.fabric if timed else None,
            )
        return {"timing": result.timing.to_dict}

    def _bitgen_stage(self, result: FlowResult, stored: _Stored) -> _Records:
        if not self.options.generate_bitstream or result.placement is None:
            return {}
        if "bitstream" in stored:
            result.bitstream = Bitstream.from_dict(stored["bitstream"])
            # configure_plbs is pure, so the per-PLB views accompanying a
            # stored bitstream are recomputed rather than serialized.
            result.configured_plbs = configure_plbs(result.mapped, self.architecture)
        else:
            result.bitstream, result.configured_plbs = generate_bitstream(
                result.mapped, result.placement, self.architecture
            )
        return {"bitstream": result.bitstream.to_dict}
