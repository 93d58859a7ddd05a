"""Routing: a timing-driven negotiated-congestion (PathFinder) router.

Each logical net connecting placed blocks is routed as a tree over the
routing-resource graph (:mod:`repro.core.rrgraph`): A*-accelerated Dijkstra
searches grow the tree towards every sink, and the classic PathFinder cost
update (present + historical congestion) resolves overuse across iterations.

Three cost layers compose in the hot loop:

* **congestion** -- ``base_cost * (1 + pres_fac * overuse) + hist_fac *
  history``, the classic PathFinder node cost, kept in one plain list that
  is rebuilt once per PathFinder iteration and re-costed node by node as
  trees are ripped up and committed;
* **timing** -- with per-net criticalities (from
  :class:`repro.cad.timing.TimingEngine`) the node cost becomes the VPR-style
  blend ``crit * delay + (1 - crit) * congestion``: critical nets chase short
  (low-delay) trees, non-critical nets keep negotiating congestion;
* **A\\*** -- an admissible geometric lower bound prunes the Dijkstra
  frontier: one switch-box or connection-box hop moves at most one unit in
  each coordinate, so ``manhattan / 2`` hops (times the cheapest possible
  per-node cost) never over-estimates the remaining cost.  RR-node
  coordinates take few values (49 grid cells on a 6x6 fabric), so the bound
  is a per-cell table, built once per RR graph.  ``RoutingResult.node_pops``
  counts heap pops, the headline counter A* reduces.  Each search is
  additionally pruned to the net's terminal bounding box (plus a margin); a
  net that cannot be reached inside its box falls back to an unpruned
  search, so pruning never costs routability.

The searches walk the RR graph's wire-only adjacency: a pin belongs to one
net, so each search splices its own target pins in next to their wires
(in a per-call copy; the shared graph is never written) and can reach no
foreign pin.  Out-of-box wires start every search marked visited, so the
relaxation loop tests neither pins nor boxes.

Each sink search pushes only heap entries that can pop.  It keeps the
lowest priority of any target pin it has pushed, and pushes a relaxed node
only at or below it: the heap pops entries in ``(priority, distance,
node)`` order and the first target pop ends the search, so an entry above
a queued target would pop only after the search stopped.  The distance and
predecessor writes stay, so the trees and pops are those of the full
search.  The only pins a search can reach are its spliced targets, so a
pin it relaxes is a target.  One search object allocates its predecessor
array once and memoises each A* row per ``(factor, remaining sink cells)``,
and congestion-only nets relax in a loop without the timing blend.

The router is **incremental**: the first iteration routes every net, but
later iterations rip up and re-route only *dirty* nets — nets whose routed
trees touch an overused node — escalating to full-recovery sweeps when the
negotiation stalls (see ``route_design``).

One call runs one negotiation.  ``route_design(..., incremental=False)``
restores the classic re-route-everything schedule; ``astar=False`` restores
plain Dijkstra (the parity reference for the A* counters, and the last rung
of the flow's fallback ladder in :meth:`repro.cad.flow.CadFlow._route`).

After negotiation, :func:`refine_critical_nets` post-optimises a legal
routing for cycle time: critical nets are ripped up one at a time and
re-routed on a *pure-delay* cost by the same tree search, keeping the new
tree only when its delay actually improved and the routing stays legal.
Refinement's modes are inputs to that search, not a second loop: hard
capacity adds every full node to the blocked bytes, and displacement (take
the minimum-delay tree, relocate the less critical nets in its way) searches
a delay cost list that charges an epsilon per net a full node would lose.

Each net runs from and to the PLB pins :func:`repro.cad.pack.bind_pins`
gives it, the binding the bitstream generator programs the interconnection
matrix from.  Primary inputs/outputs use the IO pads chosen by the placer.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping, Sequence

from repro.cad.lemap import MappedDesign
from repro.cad.pack import bind_pins
from repro.cad.place import Placement
from repro.cad.timing import (
    CBOX_DELAY_PS,
    SWITCH_DELAY_PS,
    WIRE_SEGMENT_DELAY_PS,
    routed_net_delay,
)
from repro.core.rrgraph import RoutingResourceGraph
from repro.core.schema import CorruptArtifactError, decoding, require_version

logger = logging.getLogger(__name__)

#: Schema version of :meth:`RoutingResult.to_dict` payloads.  Node ids are
#: serialized as RR-graph node *names* (stable per fabric across processes);
#: object identity never crosses the boundary.
ROUTING_SCHEMA = 1

#: Criticality is capped below 1.0 so congestion never fully vanishes from a
#: critical net's cost -- negotiation must stay able to resolve overuse.
MAX_CRITICALITY = 0.98

#: Nets at or above this criticality are re-routed by
#: :func:`refine_critical_nets`.
REFINE_CRIT_THRESHOLD = 0.6

#: PathFinder's present-congestion factor at iteration 1 (and after a
#: full-recovery reset), and its per-iteration growth.
PRES_FAC_INITIAL = 0.5
PRES_FAC_MULT = 1.6

#: Weight of the accumulated historical overuse in a node's cost.
HIST_FAC = 0.4

#: Margin (in channel units) added around a net's terminal bounding box for
#: search pruning.
BBOX_MARGIN = 3

#: PathFinder iterations one negotiation may take before it fails.
MAX_ITERATIONS = 30


class RoutingError(RuntimeError):
    """Raised when the router cannot complete (unroutable or pin overflow)."""


@dataclass
class PinAssignment:
    """Physical pin chosen for one logical net at one placed block."""

    net: str
    block: str
    pin: str
    node_id: int
    is_driver: bool


@dataclass
class RoutedNet:
    """The routed tree of one net."""

    net: str
    source_node: int
    sink_nodes: list[int]
    nodes: list[int] = field(default_factory=list)

    @property
    def wirelength(self) -> int:
        return len(self.nodes)


@dataclass
class RoutingResult:
    """Everything the router produced.

    ``reroutes_per_iteration[i]`` is how many nets iteration ``i + 1``
    ripped up and re-routed; with incremental routing the tail entries are
    typically a small fraction of the net count (only nets touching overused
    nodes), which is the router's headline perf counter.  ``node_pops``
    counts Dijkstra/A* heap pops over the whole run -- the counter the A*
    lower bound reduces.
    """

    routed: dict[str, RoutedNet] = field(default_factory=dict)
    pin_assignments: list[PinAssignment] = field(default_factory=list)
    iterations: int = 0
    success: bool = False
    overused_nodes: int = 0
    reroutes_per_iteration: list[int] = field(default_factory=list)
    node_pops: int = 0
    bbox_fallbacks: int = 0
    critical_reroutes: int = 0
    # Always 0 (routing is serial); perfbench/spans.py reads both per traced route.
    parallel_groups: ClassVar[int] = 0
    conflict_replays: ClassVar[int] = 0

    @property
    def total_wirelength(self) -> int:
        return sum(net.wirelength for net in self.routed.values())

    @property
    def total_reroutes(self) -> int:
        """Net-route operations summed over all iterations."""
        return sum(self.reroutes_per_iteration)

    # ------------------------------------------------------------------
    # Serialization (the "routing" stage artifact)
    # ------------------------------------------------------------------
    def to_dict(self, graph: RoutingResourceGraph) -> dict[str, object]:
        """A JSON-safe, schema-versioned rendering keyed by RR node names."""
        nodes = graph.nodes

        def name_of(node_id: int) -> str:
            return nodes[node_id].name

        return {
            "schema": ROUTING_SCHEMA,
            "routed": {
                net: {
                    "source": name_of(tree.source_node),
                    "sinks": [name_of(node) for node in tree.sink_nodes],
                    "nodes": [name_of(node) for node in tree.nodes],
                }
                for net, tree in self.routed.items()
            },
            "pin_assignments": [
                {
                    "net": pin.net,
                    "block": pin.block,
                    "pin": pin.pin,
                    "node": name_of(pin.node_id),
                    "is_driver": pin.is_driver,
                }
                for pin in self.pin_assignments
            ],
            "iterations": self.iterations,
            "success": self.success,
            "overused_nodes": self.overused_nodes,
            "reroutes_per_iteration": list(self.reroutes_per_iteration),
            "node_pops": self.node_pops,
            "bbox_fallbacks": self.bbox_fallbacks,
            "critical_reroutes": self.critical_reroutes,
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], graph: RoutingResourceGraph
    ) -> "RoutingResult":
        require_version(data, "routing", ROUTING_SCHEMA)
        with decoding("routing"):

            def id_of(name: str) -> int:
                try:
                    return graph.node_by_name(str(name)).node_id
                except KeyError:
                    raise CorruptArtifactError(
                        f"routing: node {name!r} does not exist on this fabric"
                    ) from None

            routed = {
                str(net): RoutedNet(
                    net=str(net),
                    source_node=id_of(entry["source"]),
                    sink_nodes=[id_of(name) for name in entry["sinks"]],
                    nodes=[id_of(name) for name in entry["nodes"]],
                )
                for net, entry in dict(data["routed"]).items()
            }
            pin_assignments = [
                PinAssignment(
                    net=str(entry["net"]),
                    block=str(entry["block"]),
                    pin=str(entry["pin"]),
                    node_id=id_of(entry["node"]),
                    is_driver=bool(entry["is_driver"]),
                )
                for entry in data["pin_assignments"]
            ]
            return cls(
                routed=routed,
                pin_assignments=pin_assignments,
                iterations=int(data["iterations"]),
                success=bool(data["success"]),
                overused_nodes=int(data["overused_nodes"]),
                reroutes_per_iteration=[int(n) for n in data["reroutes_per_iteration"]],
                node_pops=int(data["node_pops"]),
                bbox_fallbacks=int(data["bbox_fallbacks"]),
                critical_reroutes=int(data["critical_reroutes"]),
            )


def _collect_net_endpoints(
    design: MappedDesign,
    placement: Placement,
    graph: RoutingResourceGraph,
) -> tuple[dict[str, int], dict[str, list[int]], list[PinAssignment]]:
    """Compute, for every net that leaves a block, its source node and sink nodes."""
    binding = bind_pins(design)
    primary_inputs = set(design.primary_inputs)
    primary_outputs = set(design.primary_outputs)
    assignments: list[PinAssignment] = []
    sources: dict[str, int] = {}
    sinks: dict[str, list[int]] = {}

    for net in sorted(primary_outputs.union(binding.consumers)):
        driver = binding.drivers.get(net)
        # Source: the driving PLB's bound output pin, else the primary
        # input's pad.  A pad-to-pad pass-through (a primary input that is
        # also a primary output) still needs a fabric path from its pad's
        # output pin back to its input pin (small CRC chains shift
        # initial-vector bits straight out).
        if driver is not None:
            pin = binding.outputs[driver][net]
            x, y = placement.site_of(driver)
            node = graph.opin(x, y, pin)
            assignments.append(PinAssignment(net, driver, pin, node.node_id, True))
        elif net in primary_inputs:
            pad = placement.pad_of(net)
            node = graph.io_opin(pad)
            assignments.append(PinAssignment(net, pad.name, "out", node.node_id, True))
        else:
            continue
        sources[net] = node.node_id

        # Sinks: each reading PLB's bound input pin, and the output pad.
        net_sinks: list[int] = []
        for plb_name in binding.consumers.get(net, ()):
            pin = binding.inputs[plb_name][net]
            x, y = placement.site_of(plb_name)
            sink = graph.ipin(x, y, pin)
            assignments.append(PinAssignment(net, plb_name, pin, sink.node_id, False))
            net_sinks.append(sink.node_id)
        if net in primary_outputs:
            pad = placement.pad_of(net)
            sink = graph.io_ipin(pad)
            assignments.append(PinAssignment(net, pad.name, "in", sink.node_id, False))
            net_sinks.append(sink.node_id)
        sinks[net] = net_sinks

    return sources, sinks, assignments


def _delay_costs(graph: RoutingResourceGraph) -> list[float]:
    """Per-node delay cost in HPWL-comparable units (wire segments).

    A wire node costs one segment plus one switch traversal; a pin node one
    connection-box crossing.  Normalising by the wire-segment delay keeps the
    timing term on the same scale as the congestion term (base cost 1.0 per
    node), so the ``crit``-blend stays balanced.
    """
    wire = float(WIRE_SEGMENT_DELAY_PS)
    wire_cost = (WIRE_SEGMENT_DELAY_PS + SWITCH_DELAY_PS) / wire
    pin_cost = CBOX_DELAY_PS / wire
    return [wire_cost if is_wire else pin_cost for is_wire in graph.is_wire]


class _TreeSearch:
    """Grows routing trees over one RR graph: Dijkstra, or A* on a per-cell bound.

    The static tables come from the graph, built once per geometry: the
    wire-only adjacency, each node's grid cell, the per-cell Manhattan rows
    of the A* bound and the pruning-box masks.  One instance serves one
    :func:`route_design` or :func:`refine_critical_nets` call.  It holds its
    own copy of the adjacency's outer list, into which each :meth:`grow`
    splices its target pins and restores the graph's entries afterwards, so
    the graph's shared lists are never written and concurrent calls may
    share one cached graph.  It memoises the blocked bytes of every pruning
    box and the A* row of every ``(factor, remaining sink cells)``, and
    keeps one predecessor array for every sink search: a back-trace reads
    only nodes its own search relaxed and stops at the tree, so a stale
    slot is never read.  ``pops`` counts heap pops over every :meth:`grow`.

    A sink search pushes no entry above the lowest priority of a target pin
    it has pushed, since the first target pop ends it.  This rests on the
    splice: the only pins a search reaches are its own targets, so a pin
    entry is a target entry (over a graph with foreign pins the test would
    have to be ``neighbour in remaining``).
    """

    def __init__(self, graph: RoutingResourceGraph) -> None:
        self.graph = graph
        self.adjacency = graph.wire_adjacency
        self.neighbours = list(self.adjacency)
        self.is_wire = graph.is_wire
        self.cell_of = graph.cell_of
        self.cell_distances = graph.cell_distances
        self.zero_bound = [0.0] * len(graph.cell_distances)
        self.previous = [0] * len(graph)
        # The A* rows, per (factor, remaining sink cells): a net's sink
        # sets recur on every re-route.
        self._bounds: dict[tuple[float, frozenset[int]], list[float]] = {}
        # Wires no search may enter, one byte per node, per pruning box.
        # Boxes recur on every re-route.  No search can reach a foreign pin,
        # so pins are never flagged.
        self._blocked_by_box: dict[tuple[int, int, int, int] | None, bytes] = {
            None: bytes(len(graph))
        }
        self.pops = 0

    def blocked(self, box: tuple[int, int, int, int] | None) -> bytes:
        """Every wire outside *box* (``None``: no box)."""
        blocked = self._blocked_by_box.get(box)
        if blocked is None:
            blocked = self._blocked_by_box[box] = self.graph.wires_outside(*box)
        return blocked

    def grow(
        self,
        source: int,
        targets: Iterable[int],
        cost: Sequence[float],
        blocked: bytes | bytearray,
        factor: float | None,
        crit: float = 0.0,
        delay: Sequence[float] = (),
    ) -> list[int] | None:
        """The sorted nodes of a tree joining *source* to every target.

        Stepping onto node ``n`` costs ``cost[n]``, or the timing blend
        ``crit * delay[n] + (1 - crit) * cost[n]`` when *crit* is nonzero.
        Nodes flagged in *blocked* (other than the source and the targets)
        are never entered, nor is any pin but the source and the targets.
        With an A* *factor* (``None``: plain Dijkstra) the lower bound is
        ``factor`` times the Manhattan distance to the nearest remaining
        target; it is admissible when *factor* is half the cheapest step,
        since one hop moves at most one unit in each coordinate.  ``None``
        when a target cannot be reached.
        """
        adjacency = self.adjacency
        neighbours = self.neighbours
        is_wire = self.is_wire
        remaining = set(targets)
        blocked = bytearray(blocked)
        blocked[source] = 0
        # Splice each target pin in next to its wires, in this instance's
        # copy of the adjacency; the graph's own lists are never written.
        spliced: list[int] = []
        for sink in remaining:
            blocked[sink] = 0
            if not is_wire[sink]:
                for wire in adjacency[sink]:
                    neighbours[wire] = neighbours[wire] + [sink]
                    spliced.append(wire)
        try:
            return self._search(source, remaining, cost, blocked, factor, crit, delay)
        finally:
            for wire in spliced:
                neighbours[wire] = adjacency[wire]

    def _search(
        self,
        source: int,
        remaining: set[int],
        cost: Sequence[float],
        blocked: bytearray,
        factor: float | None,
        crit: float,
        delay: Sequence[float],
    ) -> list[int] | None:
        neighbours = self.neighbours
        is_wire = self.is_wire
        cell_of = self.cell_of
        cell_distances = self.cell_distances
        bounds = self._bounds
        previous = self.previous
        node_count = len(neighbours)
        infinity = float("inf")
        tree: set[int] = {source}
        anti_crit = 1.0 - crit
        pops = 0
        heappush = heapq.heappush
        heappop = heapq.heappop
        while remaining:
            # The A* lower bound, one entry per grid cell.
            if factor is None:
                bound = self.zero_bound
            else:
                cells = frozenset([cell_of[sink] for sink in remaining])
                bound = bounds.get((factor, cells))
                if bound is None:
                    rows = [cell_distances[cell] for cell in cells]
                    nearest = rows[0] if len(rows) == 1 else list(map(min, *rows))
                    bound = bounds[factor, cells] = [factor * distance for distance in nearest]
            # Dijkstra/A* from the current tree to the nearest remaining
            # sink.  Tree nodes sit at distance 0 and every step costs
            # more than 0, so no relaxation ever re-enters the tree.
            distances = [infinity] * node_count
            visited = bytearray(blocked)
            for node_id in tree:
                distances[node_id] = 0.0
            heap = [(bound[cell_of[node_id]], 0.0, node_id) for node_id in tree]
            heapq.heapify(heap)
            # The lowest priority of a target entry in the heap: the first
            # target pop ends the search, so no entry above it is pushed.
            # Every pin a search reaches is a target (see the class docstring).
            best = infinity
            found = -1
            while heap:
                _priority, distance, node_id = heappop(heap)
                pops += 1
                if visited[node_id]:
                    continue
                visited[node_id] = 1
                if node_id in remaining:
                    found = node_id
                    break
                # Two copies of one relaxation, so that a congestion-only net
                # skips the timing blend's per-neighbour test.
                if crit:
                    for neighbour in neighbours[node_id]:
                        if visited[neighbour]:
                            continue
                        new_distance = distance + (
                            crit * delay[neighbour] + anti_crit * cost[neighbour]
                        )
                        if new_distance < distances[neighbour]:
                            distances[neighbour] = new_distance
                            previous[neighbour] = node_id
                            priority = new_distance + bound[cell_of[neighbour]]
                            if priority <= best:
                                if not is_wire[neighbour]:
                                    best = priority
                                heappush(heap, (priority, new_distance, neighbour))
                else:
                    for neighbour in neighbours[node_id]:
                        if visited[neighbour]:
                            continue
                        new_distance = distance + cost[neighbour]
                        if new_distance < distances[neighbour]:
                            distances[neighbour] = new_distance
                            previous[neighbour] = node_id
                            priority = new_distance + bound[cell_of[neighbour]]
                            if priority <= best:
                                if not is_wire[neighbour]:
                                    best = priority
                                heappush(heap, (priority, new_distance, neighbour))
            if found < 0:
                self.pops += pops
                return None
            # Back-trace the path into the tree.
            cursor = found
            while cursor not in tree:
                tree.add(cursor)
                cursor = previous[cursor]
            remaining.discard(found)
        self.pops += pops
        return sorted(tree)


def route_design(
    design: MappedDesign,
    placement: Placement,
    graph: RoutingResourceGraph,
    incremental: bool = True,
    criticalities: Mapping[str, float] | None = None,
    astar: bool = True,
) -> RoutingResult:
    """PathFinder routing of all inter-block nets of a placed design.

    Negotiation runs at most :data:`MAX_ITERATIONS` PathFinder iterations.
    With ``incremental=True`` (the default) only dirty nets — nets whose
    routed trees touch an overused node — are ripped up and re-routed after
    the first iteration; ``incremental=False`` re-routes every net each
    iteration (the classic schedule, kept as the parity/quality reference).

    ``criticalities`` switches the node cost to the timing-driven blend
    ``crit * delay + (1 - crit) * congestion`` (per-net criticality from the
    timing engine, capped at :data:`MAX_CRITICALITY`); the delay numbers are
    the :mod:`repro.cad.timing` constants.

    ``astar`` enables the admissible geometric lower bound (identical path
    costs, fewer heap pops — see ``RoutingResult.node_pops``).  Every search
    is pruned to the net's terminal bounding box plus :data:`BBOX_MARGIN`,
    falling back to an unpruned search when the box turns out too tight.

    One call runs one negotiation: a run still overused after the last
    iteration returns ``success=False`` with its trees and counters, and the
    caller decides what to try next (the flow's fallback ladder).  Each
    PathFinder iteration logs one DEBUG line on this module's logger (dirty
    nets, overused nodes, ``pres_fac``, full recovery on/off).
    """
    sources, sinks, assignments = _collect_net_endpoints(design, placement, graph)

    result = RoutingResult(pin_assignments=assignments)
    if not sources:
        result.success = True
        return result

    node_count = len(graph)
    occupancy = [0] * node_count
    history = [0.0] * node_count
    base_cost = graph.base_cost
    capacity = graph.capacity
    node_x = graph.x
    node_y = graph.y
    search = _TreeSearch(graph)
    routes: dict[str, RoutedNet] = {}

    timing_driven = criticalities is not None
    if timing_driven:
        delay_cost = _delay_costs(graph)
        min_delay_cost = min(delay_cost)
    else:
        delay_cost = []
        min_delay_cost = 0.0
    min_base_cost = min(base_cost)

    # The overused-node set is maintained incrementally as tree occupancies
    # change, so no iteration ever scans all graph nodes for congestion;
    # ``congested`` collects every node that ever gained history.
    overused: set[int] = set()
    congested: set[int] = set()

    def occupy(nodes: list[int]) -> None:
        for node_id in nodes:
            occupancy[node_id] += 1
            if occupancy[node_id] > capacity[node_id]:
                overused.add(node_id)

    def release(nodes: list[int]) -> None:
        for node_id in nodes:
            occupancy[node_id] -= 1
            if occupancy[node_id] <= capacity[node_id]:
                overused.discard(node_id)

    pres_fac = PRES_FAC_INITIAL

    # The PathFinder congestion cost of stepping onto each node, rebuilt at
    # the start of every iteration (pres_fac and history are fixed within
    # one) and re-costed node by node as trees are ripped up and committed.
    cong: list[float] = []

    def node_cong(node_id: int) -> float:
        over = occupancy[node_id] + 1 - capacity[node_id]
        step = base_cost[node_id]
        if over > 0:
            step *= 1.0 + pres_fac * over
        return step + HIST_FAC * history[node_id]

    def recost(nodes: list[int]) -> None:
        for node_id in nodes:
            cong[node_id] = node_cong(node_id)

    def net_box(net: str) -> tuple[int, int, int, int]:
        terminals = [sources[net]] + sinks[net]
        xs = [node_x[node_id] for node_id in terminals]
        ys = [node_y[node_id] for node_id in terminals]
        return (
            min(xs) - BBOX_MARGIN,
            max(xs) + BBOX_MARGIN,
            min(ys) - BBOX_MARGIN,
            max(ys) + BBOX_MARGIN,
        )

    def net_crit(net: str) -> float:
        if not timing_driven:
            return 0.0
        return min(MAX_CRITICALITY, max(0.0, criticalities.get(net, 0.0)))

    def route_net(net: str) -> RoutedNet:
        crit = net_crit(net)
        source = sources[net]
        targets = set(sinks[net])
        # Half the cheapest possible step: the A* bound's factor.
        factor = (
            0.5 * (crit * min_delay_cost + (1.0 - crit) * min_base_cost) if astar else None
        )
        nodes = search.grow(
            source, targets, cong, search.blocked(net_box(net)), factor, crit, delay_cost
        )
        if nodes is None:
            # The pruning box was too tight (congestion pushed the net out of
            # its own bounding box): retry without pruning before declaring
            # the net unroutable.
            result.bbox_fallbacks += 1
            nodes = search.grow(
                source, targets, cong, search.blocked(None), factor, crit, delay_cost
            )
        if nodes is None:
            raise RoutingError(f"net {net!r} is unroutable (no path to a sink)")
        return RoutedNet(net=net, source_node=source, sink_nodes=list(targets), nodes=nodes)

    net_order = sorted(sources)

    iteration = 0
    best_overuse: int | None = None
    stalled = 0
    full_recovery = False
    for iteration in range(1, MAX_ITERATIONS + 1):
        if iteration == 1 or not incremental or full_recovery:
            dirty = net_order
        else:
            # Only nets whose trees touch an overused node must move; the
            # rest keep their (legal) routes and their occupancies.
            dirty = [
                net
                for net in net_order
                if any(node_id in overused for node_id in routes[net].nodes)
            ]
        # An unoccupied node with no history costs exactly its base cost.
        cong = list(base_cost)
        for tree in routes.values():
            recost(tree.nodes)
        recost(congested)
        for net in dirty:
            previous_route = routes.get(net)
            if previous_route is not None:
                release(previous_route.nodes)
                recost(previous_route.nodes)
            routed = route_net(net)
            routes[net] = routed
            occupy(routed.nodes)
            recost(routed.nodes)
        result.node_pops = search.pops
        result.reroutes_per_iteration.append(len(dirty))
        logger.debug(
            "PathFinder iteration %d: %d dirty nets, %d overused nodes, "
            "pres_fac %.4g, full recovery %s",
            iteration,
            len(dirty),
            len(overused),
            pres_fac,
            "on" if full_recovery else "off",
        )

        if not overused:
            result.routed = routes
            result.iterations = iteration
            result.success = True
            result.overused_nodes = 0
            return result
        # Dirty-net-only negotiation can livelock: a handful of nets swap
        # one contested node back and forth while every alternative path is
        # held by clean nets that never move (their paths inflate with
        # pres_fac just as fast as the contested node).  When total overuse
        # stops improving, escalate into *full-recovery* mode: reset the
        # present-congestion pressure to its initial value and re-route every
        # net each iteration — history keeps the long-term congestion signal,
        # and the reset pressure lets the whole net population
        # redistribute the way early iterations do.  Recovery ends at the
        # first improvement, returning to cheap dirty-net iterations.
        # Well-behaved runs (monotonically shrinking overuse) never escalate.
        if incremental:
            total_overuse = sum(
                occupancy[node_id] - capacity[node_id] for node_id in overused
            )
            if best_overuse is None or total_overuse < best_overuse:
                best_overuse = total_overuse
                stalled = 0
                full_recovery = False
            elif not full_recovery:
                stalled += 1
                if stalled >= 3:
                    full_recovery = True
                    stalled = 0
                    pres_fac = PRES_FAC_INITIAL
        for node_id in overused:
            history[node_id] += occupancy[node_id] - capacity[node_id]
        congested.update(overused)
        pres_fac *= PRES_FAC_MULT

    result.routed = routes
    result.iterations = iteration
    result.success = False
    result.overused_nodes = len(overused)
    return result


def refine_critical_nets(
    routing: RoutingResult,
    graph: RoutingResourceGraph,
    criticalities: Mapping[str, float],
    max_wirelength: int | None = None,
) -> int:
    """Re-route critical nets of a *legal* routing for delay, in place.

    Nets with criticality >= :data:`REFINE_CRIT_THRESHOLD` are ripped up one
    at a time (in decreasing criticality) and re-routed on a **pure-delay**
    cost by the router's own tree search.  Two escalation levels keep the
    result legal by construction:

    1. *hard-capacity* re-route: the new tree may only use free resources
       (every full node is blocked; no search enters a foreign pin) — kept
       when its modelled delay strictly improves;
    2. *displacement*: when free resources don't suffice, the net takes its
       minimum-delay tree anyway (full nodes cost an epsilon per net they
       would displace, so the variant displacing fewest wins ties) and every
       **less critical** net squatting on it is relocated on base cost under
       hard capacity; the whole bundle rolls back unless every displaced net
       finds a home, the critical net's delay strictly improves, and the
       total wirelength stays within *max_wirelength* (when given).

    Returns the number of critical nets whose trees actually improved (also
    accumulated on ``routing.critical_reroutes``); heap pops land on
    ``routing.node_pops``.  Delays only ever decrease on the refined nets and
    displaced nets stay legal, so iterating this pass (as the timing-driven
    flow does) monotonically converges.
    """
    if not routing.success or not routing.routed:
        return 0
    search = _TreeSearch(graph)
    capacity = graph.capacity
    base_cost = graph.base_cost
    delay = _delay_costs(graph)
    delay_factor = 0.5 * min(delay)
    base_factor = 0.5 * min(base_cost)
    occupancy = [0] * len(graph)
    # Which nets occupy each node (for displacement bookkeeping).
    users: dict[int, set[str]] = {}
    # The search inputs that follow occupancy, kept current node by node:
    # hard capacity blocks every full node, and the displacement search's
    # cost adds an epsilon per net a node would lose.
    hard_blocked = bytearray(len(graph))
    free_cost = list(delay)

    def restep(node_id: int) -> None:
        over = occupancy[node_id] + 1 - capacity[node_id]
        if over > 0:
            hard_blocked[node_id] = 1
            free_cost[node_id] = delay[node_id] + 0.001 * over
        else:
            hard_blocked[node_id] = 0
            free_cost[node_id] = delay[node_id]

    def occupy(net: str, nodes: Sequence[int]) -> None:
        for node_id in nodes:
            occupancy[node_id] += 1
            users.setdefault(node_id, set()).add(net)
            restep(node_id)

    def release(net: str, nodes: Sequence[int]) -> None:
        for node_id in nodes:
            occupancy[node_id] -= 1
            users[node_id].discard(net)
            restep(node_id)

    for net, routed in routing.routed.items():
        occupy(net, routed.nodes)

    current_wirelength = routing.total_wirelength

    candidates = sorted(
        (net for net in routing.routed if criticalities.get(net, 0.0) >= REFINE_CRIT_THRESHOLD),
        key=lambda net: (-criticalities.get(net, 0.0), net),
    )

    improved = 0
    for net in candidates:
        crit = criticalities.get(net, 0.0)
        old = routing.routed[net]
        old_delay = routed_net_delay(graph, old.nodes)
        source = old.source_node
        release(net, old.nodes)

        accepted: list[int] | None = None
        displaced_moves: list[tuple[str, list[int], list[int]]] = []

        hard_tree = search.grow(source, old.sink_nodes, delay, hard_blocked, delay_factor)
        if hard_tree is not None and routed_net_delay(graph, hard_tree) < old_delay:
            accepted = hard_tree
            occupy(net, accepted)
        else:
            free_tree = search.grow(
                source, old.sink_nodes, free_cost, search.blocked(None), delay_factor
            )
            if (
                free_tree is not None
                and routed_net_delay(graph, free_tree) < old_delay
            ):
                # Who is in the way, and are they all less critical?
                victims: set[str] = set()
                outranked = False
                for node_id in free_tree:
                    if occupancy[node_id] + 1 > capacity[node_id]:
                        for victim in users[node_id]:
                            if criticalities.get(victim, 0.0) >= crit:
                                outranked = True
                                break
                            victims.add(victim)
                    if outranked:
                        break
                if not outranked:
                    for victim in sorted(victims):
                        release(victim, routing.routed[victim].nodes)
                    occupy(net, free_tree)
                    relocated: list[tuple[str, list[int], list[int]]] = []
                    success = True
                    for victim in sorted(victims):
                        victim_old = routing.routed[victim]
                        new_home = search.grow(
                            victim_old.source_node,
                            victim_old.sink_nodes,
                            base_cost,
                            hard_blocked,
                            base_factor,
                        )
                        if new_home is None:
                            success = False
                            break
                        occupy(victim, new_home)
                        relocated.append((victim, victim_old.nodes, new_home))
                    if success:
                        new_total = (
                            current_wirelength
                            - len(old.nodes)
                            + len(free_tree)
                            + sum(
                                len(new) - len(old_nodes)
                                for _v, old_nodes, new in relocated
                            )
                        )
                        if max_wirelength is not None and new_total > max_wirelength:
                            success = False
                    if success:
                        accepted = free_tree
                        displaced_moves = relocated
                    else:
                        # Roll back the bundle: re-seat every relocated
                        # victim on its old tree and vacate the new one.
                        for victim, old_nodes, new_home in relocated:
                            release(victim, new_home)
                        release(net, free_tree)
                        for victim in sorted(victims):
                            occupy(victim, routing.routed[victim].nodes)

        if accepted is None:
            occupy(net, old.nodes)
            continue

        # Both branches have occupied the accepted tree (displacement does so
        # before relocating its victims).
        routing.routed[net] = RoutedNet(
            net=net, source_node=source, sink_nodes=list(old.sink_nodes), nodes=accepted
        )
        for victim, _old_nodes, new_home in displaced_moves:
            victim_routed = routing.routed[victim]
            routing.routed[victim] = RoutedNet(
                net=victim,
                source_node=victim_routed.source_node,
                sink_nodes=list(victim_routed.sink_nodes),
                nodes=new_home,
            )
        current_wirelength = routing.total_wirelength
        improved += 1

    routing.node_pops += search.pops
    routing.critical_reroutes += improved
    return improved
