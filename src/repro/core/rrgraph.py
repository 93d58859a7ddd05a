"""Routing-resource graph construction.

The router operates on a flat graph whose nodes are the physical routing
resources of the fabric:

* ``OPIN`` -- a PLB (or IO pad) output pin,
* ``IPIN`` -- a PLB (or IO pad) input pin,
* ``WIRE`` -- one track of one channel segment.

Edges follow the island-style connectivity: output pins drive a subset of the
tracks of their adjacent channel (connection box, flexibility ``fc_out``),
tracks drive a subset of the input pins alongside them (``fc_in``), and tracks
meeting at a grid corner are joined by the switch box (disjoint or Wilton
pattern).  All wire-to-wire and wire-to-pin connections are modelled
bidirectionally, matching a pass-transistor style routing fabric.

Every node has unit capacity; the PathFinder router negotiates congestion on
top of this graph.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.fabric import Fabric, IOPad


class RRNodeType(enum.Enum):
    OPIN = "opin"
    IPIN = "ipin"
    WIRE = "wire"


@dataclass
class RRNode:
    """One routing resource."""

    node_id: int
    node_type: RRNodeType
    name: str
    x: int
    y: int
    track: int = -1
    capacity: int = 1
    base_cost: float = 1.0
    edges: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RRNode({self.node_id}, {self.node_type.value}, {self.name})"


class RoutingResourceGraph:
    """The routing-resource graph of one fabric instance.

    Besides the :class:`RRNode` object list the graph carries **flattened
    parallel arrays** (:attr:`base_cost`, :attr:`capacity`, :attr:`is_wire`
    and the CSR adjacency :attr:`edge_starts` / :attr:`edge_targets`), built
    once after construction.  The router's hot loops index these plain lists
    instead of chasing ``graph.node(i).attr`` per edge relaxation; the graph
    is immutable after ``__init__``, so the arrays never go stale.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.nodes: list[RRNode] = []
        self._by_name: dict[str, int] = {}
        self._build()
        self._flatten()

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _add_node(self, node_type: RRNodeType, name: str, x: int, y: int, track: int = -1, base_cost: float = 1.0) -> RRNode:
        if name in self._by_name:
            raise ValueError(f"duplicate RR node name {name!r}")
        node = RRNode(
            node_id=len(self.nodes),
            node_type=node_type,
            name=name,
            x=x,
            y=y,
            track=track,
            base_cost=base_cost,
        )
        self.nodes.append(node)
        self._by_name[name] = node.node_id
        return node

    def _add_edge(self, a: int, b: int) -> None:
        if b not in self.nodes[a].edges:
            self.nodes[a].edges.append(b)
        if a not in self.nodes[b].edges:
            self.nodes[b].edges.append(a)

    def node(self, node_id: int) -> RRNode:
        return self.nodes[node_id]

    def node_by_name(self, name: str) -> RRNode:
        return self.nodes[self._by_name[name]]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(node.edges) for node in self.nodes) // 2

    # ------------------------------------------------------------------
    # Name helpers (the router and bitstream use these)
    # ------------------------------------------------------------------
    @staticmethod
    def wire_name(orientation: str, x: int, y: int, track: int) -> str:
        return f"wire_{orientation}_{x}_{y}_t{track}"

    @staticmethod
    def opin_name(x: int, y: int, pin: str) -> str:
        return f"opin_{x}_{y}_{pin}"

    @staticmethod
    def ipin_name(x: int, y: int, pin: str) -> str:
        return f"ipin_{x}_{y}_{pin}"

    @staticmethod
    def io_opin_name(pad: IOPad) -> str:
        return f"opin_{pad.name}"

    @staticmethod
    def io_ipin_name(pad: IOPad) -> str:
        return f"ipin_{pad.name}"

    def opin(self, x: int, y: int, pin: str) -> RRNode:
        return self.node_by_name(self.opin_name(x, y, pin))

    def ipin(self, x: int, y: int, pin: str) -> RRNode:
        return self.node_by_name(self.ipin_name(x, y, pin))

    def io_opin(self, pad: IOPad) -> RRNode:
        return self.node_by_name(self.io_opin_name(pad))

    def io_ipin(self, pad: IOPad) -> RRNode:
        return self.node_by_name(self.io_ipin_name(pad))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        fabric = self.fabric
        routing = fabric.params.routing
        channel_width = routing.channel_width

        # 1. Wire nodes.
        wire_ids: dict[tuple[str, int, int, int], int] = {}
        for x, y in fabric.horizontal_channels():
            for track in range(channel_width):
                node = self._add_node(RRNodeType.WIRE, self.wire_name("h", x, y, track), x, y, track)
                wire_ids[("h", x, y, track)] = node.node_id
        for x, y in fabric.vertical_channels():
            for track in range(channel_width):
                node = self._add_node(RRNodeType.WIRE, self.wire_name("v", x, y, track), x, y, track)
                wire_ids[("v", x, y, track)] = node.node_id

        # 2. Switch boxes: join tracks meeting at each corner.
        for corner_x, corner_y in fabric.switchbox_corners():
            incident = fabric.corner_incident_channels(corner_x, corner_y)
            for track in range(channel_width):
                segment_nodes = [wire_ids[(o, x, y, track)] for o, x, y in incident]
                if routing.switchbox == "disjoint":
                    for i in range(len(segment_nodes)):
                        for j in range(i + 1, len(segment_nodes)):
                            self._add_edge(segment_nodes[i], segment_nodes[j])
                else:  # wilton: rotate the track index between orthogonal segments
                    for i, (orient_a, _xa, _ya) in enumerate(incident):
                        for j in range(i + 1, len(incident)):
                            orient_b = incident[j][0]
                            if orient_a == orient_b:
                                self._add_edge(segment_nodes[i], segment_nodes[j])
                            else:
                                partner = (track + 1) % channel_width
                                other = wire_ids[(incident[j][0], incident[j][1], incident[j][2], partner)]
                                self._add_edge(segment_nodes[i], other)

        # 3. PLB pins and their connection boxes.
        fc_out_tracks = routing.tracks_per_pin(routing.fc_out)
        fc_in_tracks = routing.tracks_per_pin(routing.fc_in)
        for x, y in fabric.plb_sites():
            for pin_index, pin in enumerate(fabric.plb_output_pins()):
                node = self._add_node(RRNodeType.OPIN, self.opin_name(x, y, pin), x, y)
                orientation, cx, cy = fabric.pin_channel(x, y, pin_index)
                for offset in range(fc_out_tracks):
                    track = (pin_index + offset) % channel_width
                    self._add_edge(node.node_id, wire_ids[(orientation, cx, cy, track)])
            for pin_index, pin in enumerate(fabric.plb_input_pins()):
                node = self._add_node(RRNodeType.IPIN, self.ipin_name(x, y, pin), x, y)
                orientation, cx, cy = fabric.pin_channel(x, y, pin_index)
                for offset in range(fc_in_tracks):
                    track = (pin_index + offset) % channel_width
                    self._add_edge(node.node_id, wire_ids[(orientation, cx, cy, track)])

        # 4. IO pads: full connectivity to their boundary channel segment.
        for pad in fabric.io_pads():
            orientation, cx, cy = pad.adjacent_channel(fabric.width, fabric.height)
            opin = self._add_node(RRNodeType.OPIN, self.io_opin_name(pad), cx, cy)
            ipin = self._add_node(RRNodeType.IPIN, self.io_ipin_name(pad), cx, cy)
            for track in range(channel_width):
                wire = wire_ids[(orientation, cx, cy, track)]
                self._add_edge(opin.node_id, wire)
                self._add_edge(ipin.node_id, wire)

    def _flatten(self) -> None:
        """Build the flat parallel arrays the router's inner loops index.

        ``edge_starts[i]:edge_starts[i + 1]`` slices ``edge_targets`` into
        node *i*'s neighbours (classic CSR layout).
        """
        self.base_cost: list[float] = [node.base_cost for node in self.nodes]
        self.capacity: list[int] = [node.capacity for node in self.nodes]
        self.is_wire: list[bool] = [
            node.node_type is RRNodeType.WIRE for node in self.nodes
        ]
        # Node coordinates, flattened for the router's A* lower bound (one
        # switch-box or connection-box hop moves at most one unit in each
        # coordinate, so Manhattan distance / 2 under-counts the hops left).
        self.x: list[int] = [node.x for node in self.nodes]
        self.y: list[int] = [node.y for node in self.nodes]
        starts = [0]
        targets: list[int] = []
        for node in self.nodes:
            targets.extend(node.edges)
            starts.append(len(targets))
        self.edge_starts: list[int] = starts
        self.edge_targets: list[int] = targets

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        by_type = {node_type: 0 for node_type in RRNodeType}
        for node in self.nodes:
            by_type[node.node_type] += 1
        return {
            "nodes": len(self.nodes),
            "edges": self.edge_count,
            "wires": by_type[RRNodeType.WIRE],
            "opins": by_type[RRNodeType.OPIN],
            "ipins": by_type[RRNodeType.IPIN],
        }


#: Bound on the shared graph cache: a sweep's channel-width ladder touches a
#: handful of geometries at a time, and an RR graph of a large fabric is tens
#: of MB — keep the working set small and evict least-recently-used beyond it.
_RR_GRAPH_CACHE_LIMIT = 8
_rr_graph_cache: "OrderedDict[tuple[str, str], RoutingResourceGraph]" = OrderedDict()
_rr_graph_lock = threading.Lock()


def cached_rr_graph(fabric: Fabric) -> RoutingResourceGraph:
    """A shared :class:`RoutingResourceGraph` for *fabric*'s geometry.

    Graph construction is pure in the architecture parameters and the graph
    is immutable after ``__init__`` (the router keeps occupancy externally),
    so one instance can back every flow over the same geometry — a batch
    sweep amortizes construction across all of its points.

    The cache key pairs the parameters' stable hash with the repo's code
    fingerprint: an edited graph builder misses rather than serving a graph
    built by older code.  Entries are LRU-bounded by
    :data:`_RR_GRAPH_CACHE_LIMIT`.
    """
    from repro.fingerprint import code_fingerprint

    key = (fabric.params.stable_hash(), code_fingerprint())
    with _rr_graph_lock:
        cached = _rr_graph_cache.get(key)
        if cached is not None:
            _rr_graph_cache.move_to_end(key)
            return cached
    graph = RoutingResourceGraph(fabric)
    with _rr_graph_lock:
        existing = _rr_graph_cache.get(key)
        if existing is not None:
            # A concurrent build won the race; keep the first instance so
            # every caller shares one graph.
            _rr_graph_cache.move_to_end(key)
            return existing
        _rr_graph_cache[key] = graph
        while len(_rr_graph_cache) > _RR_GRAPH_CACHE_LIMIT:
            _rr_graph_cache.popitem(last=False)
    return graph
