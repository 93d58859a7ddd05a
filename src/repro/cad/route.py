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
  is a per-cell table.  ``RoutingResult.node_pops`` counts heap pops, the
  headline counter A* reduces.  Each search is additionally pruned to the
  net's terminal bounding box (plus a margin); a net that cannot be reached
  inside its box falls back to an unpruned search, so pruning never costs
  routability.  Foreign pins and out-of-box nodes start every search
  marked visited, so the relaxation loop tests neither.

The router is **incremental**: the first iteration routes every net, but
later iterations rip up and re-route only *dirty* nets — nets whose routed
trees touch an overused node — escalating to full-recovery sweeps when the
negotiation stalls (see ``route_design``).  ``route_design(..., warm_start=
...)`` additionally seeds iteration 1 with externally provided legal trees
(the sweep engine's channel-width-ladder cache), routing only the nets whose
seed trees do not validate on this graph.

``route_design(..., incremental=False)`` restores the classic
re-route-everything schedule; ``astar=False`` restores plain Dijkstra (the
parity reference for the A* counters).

After negotiation, :func:`refine_critical_nets` post-optimises a legal
routing for cycle time: critical nets are ripped up one at a time and
re-routed on a *pure-delay* cost under hard capacity constraints, keeping the
new tree only when its delay actually improved — legality and every other
net's delay are untouched, so the handshake cycle time is monotonically
non-increasing.

Before routing, logical PLB pins are assigned to physical pins: every external
input net of a packed PLB gets one of the PLB's ``in*`` pins and every
externally consumed output one of the ``out*`` pins, in deterministic order.
Primary inputs/outputs use the IO pads chosen by the placer.
"""

from __future__ import annotations

import heapq
import logging
import operator
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

from repro.cad.lemap import MappedDesign
from repro.cad.place import Placement
from repro.cad.timing import TimingModel
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

#: PathFinder's present-congestion factor at iteration 1 (and after a
#: full-recovery reset), and its per-iteration growth.
PRES_FAC_INITIAL = 0.5
PRES_FAC_MULT = 1.6

#: Weight of the accumulated historical overuse in a node's cost.
HIST_FAC = 0.4

#: Margin (in channel units) added around a net's terminal bounding box for
#: search pruning.
BBOX_MARGIN = 3


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
    lower bound reduces; ``warm_started_nets`` how many nets iteration 1
    inherited from a warm-start seed instead of routing.
    """

    routed: dict[str, RoutedNet] = field(default_factory=dict)
    pin_assignments: list[PinAssignment] = field(default_factory=list)
    iterations: int = 0
    success: bool = False
    overused_nodes: int = 0
    reroutes_per_iteration: list[int] = field(default_factory=list)
    node_pops: int = 0
    warm_started_nets: int = 0
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
            "warm_started_nets": self.warm_started_nets,
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
                warm_started_nets=int(data["warm_started_nets"]),
                bbox_fallbacks=int(data["bbox_fallbacks"]),
                critical_reroutes=int(data["critical_reroutes"]),
            )

    def channel_occupancy(self, graph: RoutingResourceGraph) -> dict[int, int]:
        """Usage count per wire node (diagnostics / fabric-exploration bench)."""
        is_wire = graph.is_wire
        usage: dict[int, int] = {}
        for routed in self.routed.values():
            for node_id in routed.nodes:
                if is_wire[node_id]:
                    usage[node_id] = usage.get(node_id, 0) + 1
        return usage


def _collect_net_endpoints(
    design: MappedDesign,
    placement: Placement,
    graph: RoutingResourceGraph,
) -> tuple[dict[str, int], dict[str, list[int]], list[PinAssignment]]:
    """Compute, for every net that leaves a block, its source node and sink nodes."""
    fabric = graph.fabric
    assignments: list[PinAssignment] = []

    driver_plb: dict[str, str] = {}
    for plb in design.plbs:
        for net in plb.output_nets:
            driver_plb[net] = plb.name

    consumers: dict[str, list[str]] = {}
    for plb in design.plbs:
        for net in plb.external_input_nets:
            consumers.setdefault(net, []).append(plb.name)

    sources: dict[str, int] = {}
    sinks: dict[str, list[int]] = {}

    # Per-PLB physical pin allocation.
    input_pin_cursor: dict[str, int] = {plb.name: 0 for plb in design.plbs}
    output_pin_cursor: dict[str, int] = {plb.name: 0 for plb in design.plbs}
    input_pins = fabric.plb_input_pins()
    output_pins = fabric.plb_output_pins()

    def next_input_pin(plb_name: str) -> str:
        cursor = input_pin_cursor[plb_name]
        if cursor >= len(input_pins):
            raise RoutingError(f"PLB {plb_name} needs more than {len(input_pins)} input pins")
        input_pin_cursor[plb_name] = cursor + 1
        return input_pins[cursor]

    def next_output_pin(plb_name: str) -> str:
        cursor = output_pin_cursor[plb_name]
        if cursor >= len(output_pins):
            raise RoutingError(f"PLB {plb_name} needs more than {len(output_pins)} output pins")
        output_pin_cursor[plb_name] = cursor + 1
        return output_pins[cursor]

    interesting_nets: list[str] = []
    for net in sorted(set(list(consumers) + design.primary_outputs)):
        driven_by_plb = net in driver_plb
        consumed_by_plbs = [
            name for name in consumers.get(net, []) if name != driver_plb.get(net)
        ]
        is_primary_output = net in design.primary_outputs
        is_primary_input = net in design.primary_inputs
        needs_routing = (
            (driven_by_plb and (consumed_by_plbs or is_primary_output))
            or (is_primary_input and consumers.get(net))
            # Pad-to-pad pass-through: a primary input that is also a primary
            # output with no PLB consumers still needs a fabric path from its
            # pad's output pin back to its input pin (small CRC chains shift
            # initial-vector bits straight out).
            or (is_primary_input and is_primary_output)
        )
        if needs_routing:
            interesting_nets.append(net)

    for net in interesting_nets:
        # Source.
        if net in driver_plb:
            plb_name = driver_plb[net]
            x, y = placement.site_of(plb_name)
            pin = next_output_pin(plb_name)
            node = graph.opin(x, y, pin)
            assignments.append(PinAssignment(net, plb_name, pin, node.node_id, True))
        elif net in design.primary_inputs:
            pad = placement.pad_of(net)
            node = graph.io_opin(pad)
            assignments.append(PinAssignment(net, pad.name, "out", node.node_id, True))
        else:
            continue
        sources[net] = node.node_id

        # Sinks.
        net_sinks: list[int] = []
        for plb_name in consumers.get(net, []):
            if net in driver_plb and plb_name == driver_plb[net]:
                continue  # internal to the PLB, no routing needed
            x, y = placement.site_of(plb_name)
            pin = next_input_pin(plb_name)
            sink = graph.ipin(x, y, pin)
            assignments.append(PinAssignment(net, plb_name, pin, sink.node_id, False))
            net_sinks.append(sink.node_id)
        if net in design.primary_outputs and (
            net in driver_plb or net in design.primary_inputs
        ):
            pad = placement.pad_of(net)
            sink = graph.io_ipin(pad)
            assignments.append(PinAssignment(net, pad.name, "in", sink.node_id, False))
            net_sinks.append(sink.node_id)
        if net_sinks:
            sinks[net] = net_sinks
        else:
            sources.pop(net, None)

    return sources, sinks, assignments


def _delay_costs(graph: RoutingResourceGraph, model: TimingModel) -> list[float]:
    """Per-node delay cost in HPWL-comparable units (wire segments).

    A wire node costs one segment plus one switch traversal; a pin node one
    connection-box crossing.  Normalising by the wire-segment delay keeps the
    timing term on the same scale as the congestion term (base cost 1.0 per
    node), so the ``crit``-blend stays balanced.
    """
    wire = float(model.wire_segment_delay_ps)
    wire_cost = (model.wire_segment_delay_ps + model.switch_delay_ps) / wire
    pin_cost = model.cbox_delay_ps / wire
    return [wire_cost if is_wire else pin_cost for is_wire in graph.is_wire]


def _validate_warm_tree(
    graph: RoutingResourceGraph,
    nodes: Sequence[int],
    source: int,
    targets: set[int],
) -> list[int] | None:
    """The connected, orphan-free subtree of *nodes*, or ``None`` if unusable.

    A warm-start tree (possibly mapped over from a different channel width)
    is usable when every node id exists on this graph and the source still
    reaches every sink through the tree's own nodes; nodes the source cannot
    reach are dropped rather than occupied for nothing.
    """
    node_count = len(graph)
    tree = {node_id for node_id in nodes if 0 <= node_id < node_count}
    if source not in tree or not targets.issubset(tree):
        return None
    edge_starts = graph.edge_starts
    edge_targets = graph.edge_targets
    reachable = {source}
    frontier = [source]
    while frontier:
        node_id = frontier.pop()
        for neighbour in edge_targets[edge_starts[node_id] : edge_starts[node_id + 1]]:
            if neighbour in tree and neighbour not in reachable:
                reachable.add(neighbour)
                frontier.append(neighbour)
    if not targets.issubset(reachable):
        return None
    return sorted(reachable)


def _cell_geometry(
    graph: RoutingResourceGraph,
) -> tuple[list[int], list[int], list[int]]:
    """Each node's grid-cell index, plus every cell's ``x`` and ``y``.

    RR-node coordinates take few distinct values (7x7 cells on a 6x6
    fabric), so per-cell tables are far smaller than per-node ones.
    """
    x0 = min(graph.x)
    y0 = min(graph.y)
    columns = max(graph.x) - x0 + 1
    rows = max(graph.y) - y0 + 1
    cell_of = [(x - x0) * rows + (y - y0) for x, y in zip(graph.x, graph.y)]
    cell_x = [x0 + cell // rows for cell in range(columns * rows)]
    cell_y = [y0 + cell % rows for cell in range(columns * rows)]
    return cell_of, cell_x, cell_y


def route_design(
    design: MappedDesign,
    placement: Placement,
    graph: RoutingResourceGraph,
    max_iterations: int = 30,
    incremental: bool = True,
    criticalities: Mapping[str, float] | None = None,
    timing_model: TimingModel | None = None,
    astar: bool = True,
    warm_start: Mapping[str, Sequence[int]] | None = None,
    restart_on_failure: bool = True,
) -> RoutingResult:
    """PathFinder routing of all inter-block nets of a placed design.

    With ``incremental=True`` (the default) only dirty nets — nets whose
    routed trees touch an overused node — are ripped up and re-routed after
    the first iteration; ``incremental=False`` re-routes every net each
    iteration (the classic schedule, kept as the parity/quality reference).

    ``criticalities`` switches the node cost to the timing-driven blend
    ``crit * delay + (1 - crit) * congestion`` (per-net criticality from the
    timing engine, capped at :data:`MAX_CRITICALITY`); ``timing_model``
    supplies the delay numbers (defaults to :class:`TimingModel`).

    ``astar`` enables the admissible geometric lower bound (identical path
    costs, fewer heap pops — see ``RoutingResult.node_pops``).  Every search
    is pruned to the net's terminal bounding box plus :data:`BBOX_MARGIN`,
    falling back to an unpruned search when the box turns out too tight.

    ``warm_start`` maps net names to node-id trees (typically a neighbouring
    channel width's legal routing): validating trees seed iteration 1, the
    rest route normally.

    ``restart_on_failure`` controls the built-in escalation: a failed A*
    negotiation restarts once with plain Dijkstra ordering so enabling A*
    can never cost routability.  Callers managing their own fallback ladder
    (the timing-driven flow) disable it to avoid paying twice.

    Each PathFinder iteration logs one DEBUG line on this module's logger
    (dirty nets, overused nodes, ``pres_fac``, full recovery on/off); the
    A*→Dijkstra restart logs at INFO.
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
    is_wire = graph.is_wire
    # Each node's own edge list, shared with the graph (no per-call copies).
    neighbours = [node.edges for node in graph.nodes]
    node_x = graph.x
    node_y = graph.y
    cell_of, cell_x, cell_y = _cell_geometry(graph)
    routes: dict[str, RoutedNet] = {}
    infinity = float("inf")

    timing_driven = criticalities is not None
    if timing_driven:
        model = timing_model if timing_model is not None else TimingModel()
        delay_cost = _delay_costs(graph, model)
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

    # Manhattan distances from every cell to a sink's cell, memoised per
    # call: a net's sink sets recur on every re-route.
    distance_rows: dict[int, list[int]] = {}

    def distances_to(sink: int) -> list[int]:
        row = distance_rows.get(sink)
        if row is None:
            sx = node_x[sink]
            sy = node_y[sink]
            row = [abs(x - sx) + abs(y - sy) for x, y in zip(cell_x, cell_y)]
            distance_rows[sink] = row
        return row

    # Nodes no search may enter, one byte per node: every pin (a pin belongs
    # to exactly one net) and, per pruning box, every node outside it.
    # Memoised per call, since boxes recur on every re-route.  A search
    # copies the bytes into its visited flags and clears its own net's
    # pins, so the inner loop needs no pin or box test of its own.
    pins = bytes(not wire for wire in is_wire)
    blocked_by_box: dict[tuple[int, int, int, int] | None, bytes] = {None: pins}

    def blocked_nodes(box: tuple[int, int, int, int] | None) -> bytes:
        blocked = blocked_by_box.get(box)
        if blocked is None:
            x0, x1, y0, y1 = box
            outside = bytes(
                not (x0 <= x <= x1 and y0 <= y <= y1) for x, y in zip(cell_x, cell_y)
            )
            if any(outside):
                blocked = bytes(map(operator.or_, pins, map(outside.__getitem__, cell_of)))
            else:
                blocked = pins  # the box spans the whole grid
            blocked_by_box[box] = blocked
        return blocked

    zero_bound = [0.0] * len(cell_x)

    def search(
        net: str, crit: float, box: tuple[int, int, int, int] | None
    ) -> tuple[RoutedNet | None, int]:
        """Grow one net's tree; ``(None, pops)`` when the box was too tight."""
        source = sources[net]
        targets = set(sinks[net])
        tree: set[int] = {source}
        remaining = set(targets)
        anti_crit = 1.0 - crit
        # The cheapest possible per-node cost, for the A* lower bound: every
        # hop costs at least this much, and one hop shrinks the Manhattan
        # distance to a sink by at most 2 (a diagonal switch-box step).
        half_fac = 0.5 * (crit * min_delay_cost + anti_crit * min_base_cost)
        blocked = bytearray(blocked_nodes(box))
        blocked[source] = 0
        for sink in targets:
            blocked[sink] = 0
        pops = 0
        heappush = heapq.heappush
        heappop = heapq.heappop
        while remaining:
            # The A* lower bound, one entry per grid cell.
            if astar:
                rows = [distances_to(sink) for sink in remaining]
                nearest = rows[0] if len(rows) == 1 else list(map(min, *rows))
                bound = [half_fac * distance for distance in nearest]
            else:
                bound = zero_bound
            # Dijkstra/A* from the current tree to the nearest remaining
            # sink.  Tree nodes sit at distance 0 and every step costs
            # more than 0, so no relaxation ever re-enters the tree.
            distances = [infinity] * node_count
            previous = [0] * node_count
            visited = bytearray(blocked)
            for node_id in tree:
                distances[node_id] = 0.0
            heap = [(bound[cell_of[node_id]], 0.0, node_id) for node_id in tree]
            heapq.heapify(heap)
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
                for neighbour in neighbours[node_id]:
                    if visited[neighbour]:
                        continue
                    step = cong[neighbour]
                    if crit:
                        step = crit * delay_cost[neighbour] + anti_crit * step
                    new_distance = distance + step
                    if new_distance < distances[neighbour]:
                        distances[neighbour] = new_distance
                        previous[neighbour] = node_id
                        heappush(
                            heap,
                            (
                                new_distance + bound[cell_of[neighbour]],
                                new_distance,
                                neighbour,
                            ),
                        )
            if found < 0:
                return None, pops
            # Back-trace the path into the tree.
            cursor = found
            while cursor not in tree:
                tree.add(cursor)
                cursor = previous[cursor]
            remaining.discard(found)
        routed = RoutedNet(
            net=net, source_node=source, sink_nodes=list(targets), nodes=sorted(tree)
        )
        return routed, pops

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

    def route_net(net: str) -> tuple[RoutedNet, int]:
        crit = net_crit(net)
        routed, pops = search(net, crit, net_box(net))
        if routed is None:
            # The pruning box was too tight (congestion pushed the net out of
            # its own bounding box): retry without pruning before declaring
            # the net unroutable.
            result.bbox_fallbacks += 1
            routed, extra_pops = search(net, crit, None)
            pops += extra_pops
        if routed is None:
            raise RoutingError(f"net {net!r} is unroutable (no path to a sink)")
        return routed, pops

    net_order = sorted(sources)

    warm_started: set[str] = set()
    if warm_start:
        for net in net_order:
            seed = warm_start.get(net)
            if not seed:
                continue
            tree = _validate_warm_tree(graph, seed, sources[net], set(sinks[net]))
            if tree is None:
                continue
            routes[net] = RoutedNet(
                net=net, source_node=sources[net], sink_nodes=list(sinks[net]), nodes=tree
            )
            occupy(tree)
            warm_started.add(net)
    result.warm_started_nets = len(warm_started)

    iteration = 0
    best_overuse: int | None = None
    stalled = 0
    full_recovery = False
    for iteration in range(1, max_iterations + 1):
        if iteration == 1:
            dirty = [net for net in net_order if net not in warm_started]
        elif not incremental or full_recovery:
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
            routed, pops = route_net(net)
            result.node_pops += pops
            routes[net] = routed
            occupy(routed.nodes)
            recost(routed.nodes)
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
        # stops improving, escalate into *full-recovery* mode: restart the
        # present-congestion pressure at its initial value and re-route every
        # net each iteration — history keeps the long-term congestion signal,
        # and the restarted pressure lets the whole net population
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
    if astar and restart_on_failure:
        # A* is a search *accelerator*, not a quality knob: its tie-breaking
        # steers equal-cost paths onto the geometric straight line, which
        # can concentrate traffic enough to livelock a borderline-congested
        # negotiation that classic frontier ordering resolves.  Rather than
        # let the accelerator cost routability, restart the whole
        # negotiation with plain Dijkstra — bit-identical to astar=False —
        # and carry the counters over so the retry's cost stays visible.
        logger.info(
            "A* negotiation failed after %d iterations with %d overused nodes; "
            "restarting with plain Dijkstra",
            iteration,
            len(overused),
        )
        retry = route_design(
            design,
            placement,
            graph,
            max_iterations=max_iterations,
            incremental=incremental,
            criticalities=criticalities,
            timing_model=timing_model,
            astar=False,
            warm_start=warm_start,
        )
        retry.node_pops += result.node_pops
        retry.bbox_fallbacks += result.bbox_fallbacks
        retry.reroutes_per_iteration = (
            result.reroutes_per_iteration + retry.reroutes_per_iteration
        )
        retry.iterations += result.iterations
        return retry
    return result


class _RefineRouter:
    """Single-net searches over a live occupancy map (the refinement pass).

    Three cost modes share one A* search:

    * ``delay-hard`` — pure node delay, nodes that would become overused are
      not expanded (legal by construction);
    * ``delay-free`` — pure node delay with a *tiny* overuse tie-breaker:
      finds the net's minimum-delay tree, preferring the variant that
      displaces the fewest other nets;
    * ``congestion-hard`` — plain base cost under hard capacity, used to
      relocate the nets a critical net displaced.
    """

    def __init__(self, graph: RoutingResourceGraph, model: TimingModel, astar: bool) -> None:
        self.graph = graph
        self.model = model
        self.astar = astar
        self.delay_cost = _delay_costs(graph, model)
        self.min_delay_cost = min(self.delay_cost)
        self.min_base_cost = min(graph.base_cost)
        self.occupancy = [0] * len(graph)
        #: Which nets occupy each node (for displacement bookkeeping).
        self.users: dict[int, set[str]] = {}
        self.pops = 0

    def occupy(self, net: str, nodes: Sequence[int]) -> None:
        for node_id in nodes:
            self.occupancy[node_id] += 1
            self.users.setdefault(node_id, set()).add(net)

    def release(self, net: str, nodes: Sequence[int]) -> None:
        for node_id in nodes:
            self.occupancy[node_id] -= 1
            users = self.users.get(node_id)
            if users is not None:
                users.discard(net)

    def search(
        self, source: int, targets: set[int], mode: str
    ) -> list[int] | None:
        """The tree of one net under *mode*, or ``None`` when unreachable."""
        graph = self.graph
        capacity = graph.capacity
        is_wire = graph.is_wire
        base_cost = graph.base_cost
        edge_starts = graph.edge_starts
        edge_targets = graph.edge_targets
        node_x = graph.x
        node_y = graph.y
        delay_cost = self.delay_cost
        occupancy = self.occupancy
        hard = mode != "delay-free"
        delay_driven = mode != "congestion-hard"
        min_step = self.min_delay_cost if delay_driven else self.min_base_cost

        tree: set[int] = {source}
        all_nodes: set[int] = {source}
        remaining = set(targets)
        infinity = float("inf")
        while remaining:
            sink_coords = [(node_x[s], node_y[s]) for s in remaining]
            if self.astar:

                def lower_bound(node_id: int) -> float:
                    nx = node_x[node_id]
                    ny = node_y[node_id]
                    return (
                        0.5
                        * min_step
                        * min(abs(nx - sx) + abs(ny - sy) for sx, sy in sink_coords)
                    )

            else:

                def lower_bound(node_id: int) -> float:
                    return 0.0

            distances = {node_id: 0.0 for node_id in tree}
            previous: dict[int, int] = {}
            heap = [(lower_bound(node_id), 0.0, node_id) for node_id in tree]
            heapq.heapify(heap)
            visited: set[int] = set()
            found: int | None = None
            while heap:
                _priority, distance, node_id = heapq.heappop(heap)
                self.pops += 1
                if node_id in visited:
                    continue
                visited.add(node_id)
                if node_id in remaining:
                    found = node_id
                    break
                for neighbour in edge_targets[edge_starts[node_id] : edge_starts[node_id + 1]]:
                    if neighbour in visited:
                        continue
                    if not is_wire[neighbour]:
                        if neighbour not in remaining and neighbour != source:
                            continue
                    usage = occupancy[neighbour]
                    if neighbour in all_nodes:
                        usage -= 1
                    over = usage + 1 - capacity[neighbour]
                    if hard and over > 0:
                        continue
                    step = delay_cost[neighbour] if delay_driven else base_cost[neighbour]
                    if not hard and over > 0:
                        # Minimum-delay stays the objective; the epsilon just
                        # prefers the min-delay tree displacing fewest nets.
                        step += 0.001 * over
                    new_distance = distance + step
                    if new_distance < distances.get(neighbour, infinity):
                        distances[neighbour] = new_distance
                        previous[neighbour] = node_id
                        heapq.heappush(
                            heap,
                            (new_distance + lower_bound(neighbour), new_distance, neighbour),
                        )
            if found is None:
                return None
            cursor = found
            while cursor not in tree:
                all_nodes.add(cursor)
                tree.add(cursor)
                cursor = previous[cursor]
            remaining.discard(found)
        return sorted(all_nodes)


def refine_critical_nets(
    routing: RoutingResult,
    graph: RoutingResourceGraph,
    criticalities: Mapping[str, float],
    timing_model: TimingModel | None = None,
    crit_threshold: float = 0.6,
    astar: bool = True,
    displace: bool = True,
    max_wirelength: int | None = None,
) -> int:
    """Re-route critical nets of a *legal* routing for delay, in place.

    Nets with criticality >= *crit_threshold* are ripped up one at a time (in
    decreasing criticality) and re-routed on a **pure-delay** cost.  Two
    escalation levels keep the result legal by construction:

    1. *hard-capacity* re-route: the new tree may only use free resources —
       kept when its modelled delay strictly improves;
    2. *displacement* (``displace=True``): when free resources don't suffice,
       the net takes its minimum-delay tree anyway and every **less
       critical** net squatting on it is relocated under hard capacity; the
       whole bundle rolls back unless every displaced net finds a home, the
       critical net's delay strictly improves, and the total wirelength stays
       within *max_wirelength* (when given).

    Returns the number of critical nets whose trees actually improved (also
    accumulated on ``routing.critical_reroutes``); heap pops land on
    ``routing.node_pops``.  Delays only ever decrease on the refined nets and
    displaced nets stay legal, so iterating this pass (as the timing-driven
    flow does) monotonically converges.
    """
    if not routing.success or not routing.routed:
        return 0
    model = timing_model if timing_model is not None else TimingModel()
    router = _RefineRouter(graph, model, astar)
    for net, routed in routing.routed.items():
        router.occupy(net, routed.nodes)
    capacity = graph.capacity

    current_wirelength = routing.total_wirelength

    candidates = sorted(
        (net for net in routing.routed if criticalities.get(net, 0.0) >= crit_threshold),
        key=lambda net: (-criticalities.get(net, 0.0), net),
    )

    improved = 0
    for net in candidates:
        crit = criticalities.get(net, 0.0)
        old = routing.routed[net]
        old_delay = model.routed_net_delay(graph, old.nodes)
        source = old.source_node
        targets = set(old.sink_nodes)
        router.release(net, old.nodes)

        accepted: list[int] | None = None
        displaced_moves: list[tuple[str, list[int], list[int]]] = []

        hard_tree = router.search(source, targets, "delay-hard")
        if hard_tree is not None and model.routed_net_delay(graph, hard_tree) < old_delay:
            accepted = hard_tree
        elif displace:
            free_tree = router.search(source, targets, "delay-free")
            if (
                free_tree is not None
                and model.routed_net_delay(graph, free_tree) < old_delay
            ):
                # Who is in the way, and are they all less critical?
                victims: set[str] = set()
                blocked = False
                for node_id in free_tree:
                    if router.occupancy[node_id] + 1 > capacity[node_id]:
                        for victim in router.users.get(node_id, ()):
                            if criticalities.get(victim, 0.0) >= crit:
                                blocked = True
                                break
                            victims.add(victim)
                    if blocked:
                        break
                if not blocked:
                    for victim in sorted(victims):
                        router.release(victim, routing.routed[victim].nodes)
                    router.occupy(net, free_tree)
                    relocated: list[tuple[str, list[int], list[int]]] = []
                    success = True
                    for victim in sorted(victims):
                        victim_old = routing.routed[victim]
                        new_home = router.search(
                            victim_old.source_node,
                            set(victim_old.sink_nodes),
                            "congestion-hard",
                        )
                        if new_home is None:
                            success = False
                            break
                        router.occupy(victim, new_home)
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
                            router.release(victim, new_home)
                        router.release(net, free_tree)
                        for victim in sorted(victims):
                            router.occupy(victim, routing.routed[victim].nodes)

        if accepted is None:
            router.occupy(net, old.nodes)
            continue

        if not displaced_moves:
            router.occupy(net, accepted)
        # (with displacement, occupancy was already updated in-flight)
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

    routing.node_pops += router.pops
    routing.critical_reroutes += improved
    return improved
