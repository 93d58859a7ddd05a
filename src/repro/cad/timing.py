"""Static timing analysis: the cost engine of the timing-driven flow.

Asynchronous circuits have no clock, so "timing" means two things here:

* **connection delays** -- how long a signal takes from the output of one LE
  (or IO pad) to the input of another, through the interconnection matrix and
  the routed wires;
* **handshake cycle time** -- an estimate of the time one 4-phase handshake
  takes, derived from the forward/backward path delays of the mapped design.
  For bundled-data designs the analysis also checks (and if needed sizes) the
  matched delay against the worst-case datapath delay -- this is the timing
  assumption the PLB's programmable delay element implements.

Historically this module was a passive post-route reporter.  It is now an
**incremental static-timing engine** (:class:`TimingEngine`) that the placer
and router consume *while they optimise*:

* before placement, net delays default to one average wire traversal, which
  already yields structural (depth-based) per-net criticalities the annealer's
  blended cost can use;
* after placement, :meth:`TimingEngine.estimate_from_placement` re-estimates
  every inter-block net from its bounding box (geometry, no routing needed);
* after routing, :meth:`TimingEngine.update_from_routing` swaps in the exact
  routed-tree delays.

Each update just marks the engine dirty; arrival/required times over the
LE-level timing DAG (feedback edges cut, topological order computed once) are
recomputed lazily in O(V + E) on the next query, so criticality is cheap to
refresh mid-flow -- :attr:`TimingEngine.recomputes` counts how often that
actually happened.

Per-net **criticality** is the classic ratio: the longest path *through* the
net divided by the critical-path delay, clamped to [0, 1].  The nets on the
handshake-cycle critical path have criticality 1.0.

The numbers come from a simple, explicit delay model: the module constants
below and the two net-delay formulas :func:`routed_net_delay` and
:func:`bbox_net_delay`.  They are architecture-relative, not
silicon-accurate, which is all the shape-level experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.cad.lemap import MappedDesign
from repro.core.rrgraph import RoutingResourceGraph
from repro.core.schema import decoding, require_version

if TYPE_CHECKING:  # imported only for type checking: route imports this module
    from repro.cad.place import Placement
    from repro.cad.route import RoutingResult
    from repro.core.fabric import Fabric


# The delay model (picoseconds).
LE_DELAY_PS = 250
IM_DELAY_PS = 50
WIRE_SEGMENT_DELAY_PS = 80
SWITCH_DELAY_PS = 20
CBOX_DELAY_PS = 30
IO_DELAY_PS = 100
#: The flat per-net charge used before any geometry is known.
DEFAULT_NET_DELAY_PS = WIRE_SEGMENT_DELAY_PS + CBOX_DELAY_PS
#: The fixed part of a net's pre-route estimate: a connection box at each
#: end and the wire segment that enters the channel.
NET_BASE_DELAY_PS = 2 * CBOX_DELAY_PS + WIRE_SEGMENT_DELAY_PS
#: The estimate's delay per channel hop: one more segment and the switch
#: before it.
HOP_DELAY_PS = WIRE_SEGMENT_DELAY_PS + SWITCH_DELAY_PS


def routed_net_delay(graph: RoutingResourceGraph, nodes: Iterable[int]) -> int:
    """Delay of one routed tree (conservatively: its total segment count)."""
    is_wire = graph.is_wire
    wires = sum(1 for node_id in nodes if is_wire[node_id])
    switches = max(0, wires - 1)
    return CBOX_DELAY_PS * 2 + wires * WIRE_SEGMENT_DELAY_PS + switches * SWITCH_DELAY_PS


def bbox_net_delay(span: float) -> int:
    """Pre-route delay estimate of a net spanning *span* channel hops.

    *span* is the half-perimeter of the net's terminal bounding box; the
    estimate charges one wire segment per hop plus one to enter the
    channel, with a switch between consecutive segments -- the same
    formula :func:`routed_net_delay` applies to the real tree.
    """
    return NET_BASE_DELAY_PS + int(round(span)) * HOP_DELAY_PS


#: Schema version of :meth:`TimingReport.to_dict` payloads.
TIMING_SCHEMA = 1


@dataclass
class TimingReport:
    """Result of :func:`analyse_timing`."""

    net_delays_ps: dict[str, int] = field(default_factory=dict)
    max_net_delay_ps: int = 0
    le_levels: int = 0
    forward_latency_ps: int = 0
    cycle_time_ps: int = 0
    matched_delays: dict[str, dict[str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Per-net criticality (longest path through the net / critical path).
    criticalities: dict[str, float] = field(default_factory=dict)
    #: The handshake-relevant forward critical path (equals
    #: ``forward_latency_ps``; kept as its own field for clarity at call sites
    #: that reason about paths rather than latencies).
    critical_path_ps: int = 0

    def as_row(self) -> dict[str, object]:
        return {
            "max_net_delay_ps": self.max_net_delay_ps,
            "le_levels": self.le_levels,
            "forward_latency_ps": self.forward_latency_ps,
            "cycle_time_ps": self.cycle_time_ps,
        }

    # ------------------------------------------------------------------
    # Serialization (the "timing" stage artifact)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "schema": TIMING_SCHEMA,
            "net_delays_ps": dict(self.net_delays_ps),
            "max_net_delay_ps": self.max_net_delay_ps,
            "le_levels": self.le_levels,
            "forward_latency_ps": self.forward_latency_ps,
            "cycle_time_ps": self.cycle_time_ps,
            "matched_delays": {net: dict(entry) for net, entry in self.matched_delays.items()},
            "notes": list(self.notes),
            "criticalities": dict(self.criticalities),
            "critical_path_ps": self.critical_path_ps,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TimingReport":
        require_version(data, "timing", TIMING_SCHEMA)
        with decoding("timing"):
            return cls(
                net_delays_ps={str(net): int(d) for net, d in dict(data["net_delays_ps"]).items()},
                max_net_delay_ps=int(data["max_net_delay_ps"]),
                le_levels=int(data["le_levels"]),
                forward_latency_ps=int(data["forward_latency_ps"]),
                cycle_time_ps=int(data["cycle_time_ps"]),
                matched_delays={
                    str(net): {str(k): int(v) for k, v in dict(entry).items()}
                    for net, entry in dict(data["matched_delays"]).items()
                },
                notes=[str(note) for note in data["notes"]],
                criticalities={
                    str(net): float(c) for net, c in dict(data["criticalities"]).items()
                },
                critical_path_ps=int(data["critical_path_ps"]),
            )


#: Source-side pseudo node of a primary input in the timing DAG.
_PI = "pi"


@dataclass(frozen=True)
class _TimingEdge:
    """One connection of the timing DAG: ``pred --net--> succ``.

    ``pred`` is an LE name or :data:`_PI` (primary input); ``succ`` is an LE
    name or ``None`` for the primary-output end of a path.
    """

    pred: str
    succ: str | None
    net: str


class TimingEngine:
    """Incremental static timing over the LE-level connection DAG.

    The DAG is built **once** from the mapped design (a depth-first walk
    that cuts each feedback edge where it closes a cycle); only per-net
    delays change afterwards.  Queries (:meth:`criticality`,
    :attr:`critical_path_ps`, :attr:`cycle_time_ps`) lazily re-run the
    arrival/required sweeps when a delay update dirtied the engine.
    """

    def __init__(self, design: MappedDesign) -> None:
        self.design = design
        self.net_delays_ps: dict[str, int] = {}
        self.recomputes = 0
        self._dirty = True
        self._critical_path_ps = 0
        self._criticalities: dict[str, float] = {}
        self._build_dag()

    # ------------------------------------------------------------------
    # DAG construction (once)
    # ------------------------------------------------------------------
    def _build_dag(self) -> None:
        design = self.design
        drivers = design.net_driver()
        le_by_name = {le.name: le for le in design.les}
        primary_inputs = set(design.primary_inputs)

        order: list[str] = []  # topological (preds before succs)
        state: dict[str, int] = {}  # 0 = on the DFS stack, 1 = done
        in_edges: dict[str, list[_TimingEdge]] = {name: [] for name in le_by_name}

        def visit(le_name: str) -> None:
            if state.get(le_name) == 1:
                return
            state[le_name] = 0
            le = le_by_name[le_name]
            for net in le.external_input_nets:
                driver = drivers.get(net)
                if driver is not None and driver in le_by_name and driver != le_name:
                    if state.get(driver) == 0:
                        continue  # feedback edge: cut
                    visit(driver)
                    in_edges[le_name].append(_TimingEdge(driver, le_name, net))
                elif net in primary_inputs:
                    in_edges[le_name].append(_TimingEdge(_PI, le_name, net))
            state[le_name] = 1
            order.append(le_name)

        for le in design.les:
            visit(le.name)

        out_edges: dict[str, list[_TimingEdge]] = {name: [] for name in le_by_name}
        for edges in in_edges.values():
            for edge in edges:
                if edge.pred != _PI:
                    out_edges[edge.pred].append(edge)
        # Primary-output half-edges terminate paths at the fabric boundary.
        po_edges: dict[str, list[_TimingEdge]] = {name: [] for name in le_by_name}
        for net in design.primary_outputs:
            driver = drivers.get(net)
            if driver is not None and driver in le_by_name:
                po_edges[driver].append(_TimingEdge(driver, None, net))

        # LE levels: the longest LE chain, one pass along the topological order.
        levels: dict[str, int] = {}
        for name in order:
            levels[name] = 1 + max(
                (levels[edge.pred] for edge in in_edges[name] if edge.pred != _PI), default=0
            )

        self._order = order
        self._in_edges = in_edges
        self._out_edges = out_edges
        self._po_edges = po_edges
        self._le_levels = max(levels.values(), default=0)

    # ------------------------------------------------------------------
    # Delay updates (cheap: mark dirty, recompute lazily)
    # ------------------------------------------------------------------
    def set_net_delays(self, delays: Mapping[str, int]) -> None:
        """Merge per-net delays (ps) and mark the engine for recomputation."""
        if delays:
            self.net_delays_ps.update(delays)
            self._dirty = True

    def set_net_delay(self, net: str, delay_ps: int) -> None:
        if self.net_delays_ps.get(net) != delay_ps:
            self.net_delays_ps[net] = delay_ps
            self._dirty = True

    def estimate_from_placement(
        self, placement: "Placement", fabric: "Fabric"
    ) -> dict[str, int]:
        """Per-net delay estimates from placement geometry (no routing yet).

        Every net spanning blocks is charged by the half-perimeter of its
        terminal bounding box (:func:`bbox_net_delay`); the estimates are
        folded into the engine and also returned.
        """
        from repro.cad.place import _build_net_terminals, _net_spans, _pad_position

        io_positions = {
            net: _pad_position(pad, fabric) for net, pad in placement.io_sites.items()
        }
        spans = _net_spans(_build_net_terminals(self.design), placement.plb_sites, io_positions)
        estimates = {net: bbox_net_delay(span) for net, span in spans.items()}
        self.set_net_delays(estimates)
        return estimates

    def update_from_routing(
        self, routing: "RoutingResult", graph: RoutingResourceGraph
    ) -> dict[str, int]:
        """Swap in exact routed-tree delays for every routed net."""
        delays = {
            net: routed_net_delay(graph, routed.nodes)
            for net, routed in routing.routed.items()
        }
        self.set_net_delays(delays)
        return delays

    # ------------------------------------------------------------------
    # Queries (lazily recomputed)
    # ------------------------------------------------------------------
    def _net_delay(self, net: str) -> int:
        return self.net_delays_ps.get(net, DEFAULT_NET_DELAY_PS)

    def _edge_delay(self, edge: _TimingEdge) -> int:
        if edge.pred == _PI:
            return IO_DELAY_PS + self._net_delay(edge.net)
        return LE_DELAY_PS + IM_DELAY_PS + self._net_delay(edge.net)

    def _recompute(self) -> None:
        self.recomputes += 1
        self._dirty = False
        terminal = LE_DELAY_PS + IM_DELAY_PS

        arrival: dict[str, int] = {}
        for name in self._order:
            best = 0
            for edge in self._in_edges[name]:
                pred_arrival = 0 if edge.pred == _PI else arrival[edge.pred]
                best = max(best, pred_arrival + self._edge_delay(edge))
            arrival[name] = best

        tail: dict[str, int] = {}
        for name in reversed(self._order):
            # Every LE at least pays its own compute + matrix delay at the
            # end of a path; onward edges extend that.
            best = terminal
            for edge in self._po_edges[name]:
                best = max(best, terminal + self._net_delay(edge.net))
            for edge in self._out_edges[name]:
                best = max(best, self._edge_delay(edge) + tail[edge.succ])
            tail[name] = best

        critical = max(
            (arrival[name] + tail[name] for name in self._order), default=0
        )

        worst_by_net: dict[str, int] = {}
        for name in self._order:
            for edge in self._in_edges[name]:
                pred_arrival = 0 if edge.pred == _PI else arrival[edge.pred]
                path = pred_arrival + self._edge_delay(edge) + tail[name]
                if path > worst_by_net.get(edge.net, 0):
                    worst_by_net[edge.net] = path
            for edge in self._po_edges[name]:
                path = arrival[name] + terminal + self._net_delay(edge.net)
                if path > worst_by_net.get(edge.net, 0):
                    worst_by_net[edge.net] = path

        self._critical_path_ps = critical
        if critical > 0:
            self._criticalities = {
                net: min(1.0, path / critical) for net, path in worst_by_net.items()
            }
        else:
            self._criticalities = {net: 0.0 for net in worst_by_net}

    def _refresh(self) -> None:
        if self._dirty:
            self._recompute()

    @property
    def le_levels(self) -> int:
        return self._le_levels

    @property
    def critical_path_ps(self) -> int:
        """The worst forward path (LE, matrix and net delays summed)."""
        self._refresh()
        return self._critical_path_ps

    @property
    def cycle_time_ps(self) -> int:
        """Handshake cycle time: four traversals of the forward path.

        One 4-phase handshake needs a forward (set) traversal, an
        acknowledge, a return-to-zero traversal and an acknowledge release --
        approximately four traversals of the forward path for function
        blocks.
        """
        if not self._order:
            return 0
        return 4 * self.critical_path_ps

    def criticalities(self, exponent: float = 1.0) -> dict[str, float]:
        """Per-net criticality in [0, 1] (1.0 == on the critical path).

        Shallow-but-wide asynchronous netlists compress raw criticality into
        a narrow band near 1.0 (most nets lie on *some* near-critical path);
        *exponent* > 1 sharpens the distribution VPR-style (``crit ** exp``)
        so optimisation pressure concentrates on the truly critical nets
        while the rest keep negotiating congestion.
        """
        self._refresh()
        if exponent == 1.0:
            return dict(self._criticalities)
        return {net: crit**exponent for net, crit in self._criticalities.items()}

    def criticality(self, net: str) -> float:
        self._refresh()
        return self._criticalities.get(net, 0.0)


def analyse_timing(
    design: MappedDesign,
    routing: "RoutingResult | None" = None,
    graph: RoutingResourceGraph | None = None,
    placement: "Placement | None" = None,
    fabric: "Fabric | None" = None,
) -> TimingReport:
    """Estimate connection delays and the handshake cycle time.

    Without routing information every inter-LE connection is charged one
    average wire delay (or, when *placement* and *fabric* are given, its
    bounding-box estimate); with a routing result the actual routed tree
    lengths are used.
    """
    engine = TimingEngine(design)
    report = TimingReport()

    if routing is not None and graph is not None:
        report.net_delays_ps = engine.update_from_routing(routing, graph)
    elif placement is not None and fabric is not None:
        report.net_delays_ps = engine.estimate_from_placement(placement, fabric)
    else:
        for le in design.les:
            for net in le.external_input_nets:
                report.net_delays_ps.setdefault(net, DEFAULT_NET_DELAY_PS)

    report.max_net_delay_ps = max(report.net_delays_ps.values(), default=0)
    report.le_levels = engine.le_levels
    report.critical_path_ps = engine.critical_path_ps
    report.forward_latency_ps = engine.critical_path_ps
    report.cycle_time_ps = engine.cycle_time_ps if report.le_levels else 0
    report.criticalities = engine.criticalities()

    # Matched-delay adequacy for bundled-data designs.
    for pde in design.pdes:
        datapath_delay = int((report.le_levels or 1) * (LE_DELAY_PS + IM_DELAY_PS))
        adequate = pde.delay_ps >= datapath_delay
        report.matched_delays[pde.name] = {
            "configured_ps": pde.delay_ps,
            "required_ps": datapath_delay,
            "adequate": int(adequate),
        }
        if not adequate:
            report.notes.append(
                f"matched delay {pde.name} ({pde.delay_ps} ps) is below the estimated "
                f"datapath delay ({datapath_delay} ps)"
            )

    return report
