"""The CAD hot paths: the placer's cost cache and the router's tree search.

The annealer runs one cost cache, :class:`repro.cad.place.NetCostCache`,
which proposes moves by terminal id over flat coordinate lists.
:class:`ReferenceCache` below is the name-keyed incremental path it
replaced, kept here as the oracle.  A hypothesis-driven random anneal
protocol (single moves and swaps of PLB and IO terminals, then commit or
reject) runs both move by move under both objectives and demands the same
delta, total and counters at every step, and the plain total equal to the
full :func:`repro.cad.place._hpwl` recompute.  The oracle boxes every net
and counts by the cache's rule; deterministic cases pin that rule on each
kind of net, and check that the nets the cache prices from their members
(two to four terminals) never touch a box.

The router's ``_TreeSearch`` walks the RR graph's wire-only adjacency and
splices each search's target pins in; :func:`reference_grow` is the search
it replaced (full edge lists, pins blocked by byte, per-sink bound rows),
and a hypothesis test demands the same tree and heap pops from both on
random inputs, and no more heap pushes from the search.  Another grows two
to four such cases back to back on one search object, whose predecessor
array and A* rows outlive each grow, and a fixed fanout net pins the push
cutoff (at least 1.2x fewer pushes than the reference).  Threads routing
on one cached graph must reproduce their serial runs.  The acceptance
benches (``qdi_multiplier_2x2``, ``gen:mult8x8@micropipeline``) must route
under default options, and a flow and a one-point sweep must route in a
process where numpy cannot be imported.  Exact flow outputs are pinned by
``tests/test_golden_digests.py``.
"""

import functools
import heapq
import operator
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cad import place as place_module
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.place import NetCostCache, TimingObjective, WirelengthObjective, _hpwl
from repro.cad.route import _delay_costs, _TreeSearch, route_design
from repro.circuits.registry import build_circuit
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, RoutingParams
from repro.core.rrgraph import RoutingResourceGraph, cached_rr_graph

#: The standard routable fabric (the golden multiplier test's geometry).
ROUTABLE = ArchitectureParams(routing=RoutingParams(channel_width=10))

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Blocks numpy from import, then routes a flow and a one-point sweep.
_NO_NUMPY_SCRIPT = """
import sys

sys.modules["numpy"] = None
import repro.api
from repro.cad.flow import CadFlow
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams
from repro.sweep import SweepRunner, SweepSpec

result = CadFlow(ArchitectureParams()).run(build_circuit("qdi_full_adder"))
assert result.summary()["routing_success"] is True
report = SweepRunner().run(SweepSpec.build(["qdi_full_adder"], ArchitectureParams()))
assert report.ok_count == 1, report.rows()
assert report.outcomes[0].summary["routing_success"] is True
print("routed")
"""


def test_flow_and_sweep_route_with_numpy_blocked():
    # The package needs nothing outside the standard library.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "routed"


# ----------------------------------------------------------------------
# Acceptance benches: default options route
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["qdi_multiplier_2x2", "gen:mult8x8@micropipeline"]
)
def test_acceptance_benches_route_under_default_options(name):
    if name.startswith("gen:mult8x8"):
        from repro.circuits.generate import recommended_fabric
        from repro.circuits.specs import build_from_spec

        bench = build_from_spec(name)
        params = recommended_fabric(bench)
    else:
        bench = build_circuit(name)
        params = ROUTABLE
    summary = CadFlow(params, FlowOptions()).run(bench).summary()
    assert summary["routing_success"] is True


# ----------------------------------------------------------------------
# Placement cache parity against the reference, property-based
# ----------------------------------------------------------------------
class ReferenceCache:
    """The name-keyed incremental cost path the annealer used to run.

    It holds live references to the caller's position dicts, which must
    already hold the new coordinates when :meth:`propose_moves` is called
    with ``(terminal, old_xy, new_xy)`` per moved terminal.  Each touched
    net's box is shifted move by move (x axis first), and rescanned from
    the dicts when a terminal leaves an extreme it alone occupied.  The
    delta is ``sum(new) - sum(old)`` in first-touch order and
    :meth:`commit` folds the total in that order.

    It boxes every net, but counts by the cache's rule: a net touched by
    one move counts one evaluation when it has up to four terminals, and
    otherwise one box update per shift or one evaluation for the rescan;
    a net touched by both moves of a swap counts nothing.
    """

    def __init__(self, nets, plb_sites, io_positions, objective=None):
        self.plb_sites = plb_sites
        self.io_positions = io_positions
        self.terminals = list(nets.values())
        self.objective = objective if objective is not None else WirelengthObjective()
        self.objective.bind(list(nets))
        self._nets_of = {}
        for index, terminals in enumerate(self.terminals):
            for terminal in terminals:
                self._nets_of.setdefault(terminal, []).append(index)
        self.evaluations = len(self.terminals)
        self.bbox_updates = 0
        self.boxes = [self._scan_box(index) for index in range(len(self.terminals))]
        self.costs = [self._box_cost(index, box) for index, box in enumerate(self.boxes)]
        self.total = sum(self.costs)
        self._pending = []

    def _term_position(self, terminal):
        if terminal.startswith("io:"):
            return self.io_positions[terminal[3:]]
        x, y = self.plb_sites[terminal]
        return (float(x), float(y))

    def _scan_box(self, index):
        positions = [self._term_position(t) for t in self.terminals[index]]
        xs = [p[0] for p in positions]
        ys = [p[1] for p in positions]
        xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
        return [xmin, xmax, ymin, ymax, xs.count(xmin), xs.count(xmax), ys.count(ymin), ys.count(ymax)]

    def _box_cost(self, index, box):
        return self.objective.net_cost(index, box[1] - box[0], box[3] - box[2])

    @staticmethod
    def _shift_axis(box, low, high, old, new):
        """Move one coordinate on one axis; ``False`` needs a rescan."""
        if new == old:
            return True
        if old == box[low]:
            if box[low + 4] == 1:
                return False
            box[low + 4] -= 1
        if old == box[high]:
            if box[high + 4] == 1:
                return False
            box[high + 4] -= 1
        if new < box[low]:
            box[low] = new
            box[low + 4] = 1
        elif new == box[low]:
            box[low + 4] += 1
        if new > box[high]:
            box[high] = new
            box[high + 4] = 1
        elif new == box[high]:
            box[high + 4] += 1
        return True

    def propose_moves(self, moves):
        touches = [
            index for terminal, _old, _new in moves for index in self._nets_of.get(terminal, ())
        ]
        self._pending = []
        for index in dict.fromkeys(touches):  # first-touch order
            counted = touches.count(index) == 1
            boxed = len(self.terminals[index]) > 4
            box = self.boxes[index]
            for terminal, old, new in moves:
                if terminal not in self.terminals[index]:
                    continue
                candidate = list(box)
                if self._shift_axis(candidate, 0, 1, old[0], new[0]) and self._shift_axis(
                    candidate, 2, 3, old[1], new[1]
                ):
                    box = candidate
                    if counted and boxed:
                        self.bbox_updates += 1
                else:
                    box = self._scan_box(index)  # reads every move's new position
                    if counted and boxed:
                        self.evaluations += 1
                    break
            if counted and not boxed:
                self.evaluations += 1
            self._pending.append((index, box, self._box_cost(index, box)))
        return sum(cost for _i, _b, cost in self._pending) - sum(
            self.costs[index] for index, _b, _c in self._pending
        )

    def commit(self):
        for index, box, cost in self._pending:
            self.total += cost - self.costs[index]
            self.costs[index] = cost
            self.boxes[index] = box
        self._pending = []

    def reject(self):
        self._pending = []


#: IO coordinates drawn from a handful of boundary spots, so that several
#: terminals share one (the default fabric puts 96 pads on 24 positions).
_IO_SPOTS = [(-1.0, 0.0), (-1.0, 2.0), (0.0, -1.0), (2.0, 4.0)]


@st.composite
def _anneal_protocol(draw):
    """Random nets and a random move/swap/commit protocol over them."""
    # A small grid makes shared coordinates and degenerate boxes common:
    # that is where box updates and rescans branch.
    coord = st.integers(min_value=0, max_value=3)
    n_plbs = draw(st.integers(min_value=2, max_value=5))
    plb_names = [f"plb{i}" for i in range(n_plbs)]
    io_names = ["in0", "in1", "out0"]
    # Nets of two to four terminals are priced from their members; five or
    # six terminals keep a box.
    terminals = plb_names + [f"io:{name}" for name in io_names]
    n_nets = draw(st.integers(min_value=1, max_value=7))
    nets = {
        f"net{i}": draw(
            st.lists(st.sampled_from(terminals), min_size=2, max_size=6, unique=True)
        )
        for i in range(n_nets)
    }
    plb_sites = {name: (draw(coord), draw(coord)) for name in plb_names}
    io_positions = {name: draw(st.sampled_from(_IO_SPOTS)) for name in io_names}
    step = st.one_of(
        st.tuples(st.just("move"), st.sampled_from(terminals), coord, coord, st.booleans()),
        st.tuples(st.just("swap"), st.sampled_from(terminals), st.sampled_from(terminals),
                  st.just(0), st.booleans()),
        # Swap two terminals of one net (both ends, on a two-terminal net).
        st.tuples(st.just("net"), st.sampled_from(sorted(nets)), st.just(""),
                  st.just(0), st.booleans()),
    )
    steps = draw(st.lists(step, min_size=1, max_size=20))
    crits = {net: draw(st.floats(min_value=0.0, max_value=1.0)) for net in nets}
    return nets, plb_sites, io_positions, steps, crits


def _swap_pair(kind, first, second, nets):
    """The two same-kind terminals a swap step exchanges, or ``None``."""
    if kind == "net":
        plbs = [t for t in nets[first] if not t.startswith("io:")]
        ios = [t for t in nets[first] if t.startswith("io:")]
        pair = plbs[:2] if len(plbs) >= 2 else ios[:2]
        return tuple(pair) if len(pair) == 2 else None
    if first == second or first.startswith("io:") != second.startswith("io:"):
        return None  # the annealer swaps two PLBs or two IO pads
    return first, second


@settings(max_examples=150, deadline=None)
@given(_anneal_protocol())
def test_flat_cache_matches_reference_and_full_hpwl(protocol):
    _check_against_reference(protocol, timing=False)


@settings(max_examples=150, deadline=None)
@given(_anneal_protocol())
def test_cache_matches_reference_under_timing_objective(protocol):
    # Blended costs are not integer-valued: equal deltas and totals need
    # the reference's float order, not just its arithmetic.
    _check_against_reference(protocol, timing=True)


def _check_against_reference(protocol, timing):
    """Run *protocol* on the cache and the oracle; compare after every step.

    Returns the cache's ``(evaluations, bbox_updates)`` before the first
    step and after each step it ran.
    """
    nets, plb_sites, io_positions, steps, crits = protocol

    def objective():
        return TimingObjective(crits, tradeoff=0.6) if timing else None

    live_sites = dict(plb_sites)
    live_io = dict(io_positions)
    reference = ReferenceCache(nets, live_sites, live_io, objective())
    cache = NetCostCache(nets, plb_sites, io_positions, objective())

    def position(terminal):
        if terminal.startswith("io:"):
            return live_io[terminal[3:]]
        x, y = live_sites[terminal]
        return (float(x), float(y))

    def place(terminal, xy):
        if terminal.startswith("io:"):
            live_io[terminal[3:]] = xy
        else:
            live_sites[terminal] = xy

    def same_state():
        assert cache.total == reference.total
        assert cache.evaluations == reference.evaluations
        assert cache.bbox_updates == reference.bbox_updates
        if timing:
            assert cache.audit_matches()
        else:
            assert cache.total == _hpwl(nets, live_sites, live_io)

    same_state()
    counts = [(cache.evaluations, cache.bbox_updates)]
    for kind, first, second, y, commit in steps:
        if kind == "move":
            old = position(first)
            new = _IO_SPOTS[second % len(_IO_SPOTS)] if first.startswith("io:") else (
                float(second), float(y)
            )
            place(first, new)
            expected = reference.propose_moves([(first, old, new)])
            delta = cache.propose_move(cache.tid_of[first], *new)
            undo = [(first, old)]
        else:
            pair = _swap_pair(kind, first, second, nets)
            if pair is None:
                continue
            a, b = pair
            pos_a, pos_b = position(a), position(b)
            place(a, pos_b)
            place(b, pos_a)
            expected = reference.propose_moves([(a, pos_a, pos_b), (b, pos_b, pos_a)])
            delta = cache.propose_swap(cache.tid_of[a], cache.tid_of[b])
            undo = [(a, pos_a), (b, pos_b)]
        assert delta == expected
        if commit:
            reference.commit()
            cache.commit()
        else:
            for terminal, xy in undo:
                place(terminal, xy)
            reference.reject()
            cache.reject()
        same_state()
        counts.append((cache.evaluations, cache.bbox_updates))
    return counts


def _forbidden(*args):
    raise AssertionError("the box path ran where no box applies")


#: On every net it is on, ``a`` alone holds the low corner and ``d`` alone
#: the top; ``b`` lies inside them, and ``f`` is on none.
_SITES = {"a": (0, 0), "b": (1, 1), "c": (3, 3), "d": (1, 4), "e": (3, 1), "f": (2, 2)}


@pytest.mark.parametrize("timing", [False, True])
@pytest.mark.parametrize(
    ("members", "mover", "partner", "counts"),
    [
        # Each pricing of a net of two to four terminals is one evaluation.
        (["a", "b"], "b", "f", [(1, 0), (2, 0), (3, 0)]),
        (["a", "b", "c"], "b", "f", [(1, 0), (2, 0), (3, 0)]),
        (["a", "b", "c", "d"], "b", "f", [(1, 0), (2, 0), (3, 0)]),
        # A box: b's move updates it; a leaves the minima it alone held,
        # which rescans.
        (["a", "b", "c", "d", "e"], "b", "f", [(1, 0), (1, 1), (2, 1)]),
        # The other way round: a's move rescans, then a leaves a minimum it
        # shares, which updates.
        (["a", "b", "c", "d", "e"], "a", "f", [(1, 0), (2, 0), (2, 1)]),
        # A swap of two members permutes the net: it counts nothing.
        (["a", "b", "c", "d", "e"], "b", "b", [(1, 0), (1, 1), (1, 1)]),
    ],
    ids=["pair", "triple", "quad", "five", "five-rescan-first", "both-swapped"],
)
def test_counters_count_pricings_box_updates_and_rescans(
    monkeypatch, members, mover, partner, counts, timing
):
    # Counts after construction, after *mover* moves to (2, 1), and after a
    # swaps with *partner*; the reference counts by the same rule.
    if len(members) < 5:
        monkeypatch.setattr(place_module, "_shift_box", _forbidden)
        monkeypatch.setattr(NetCostCache, "_scan_box", _forbidden)
    steps = [("move", mover, 2, 1, True), ("swap", "a", partner, 0, True)]
    protocol = ({"n0": members}, _SITES, {}, steps, {"n0": 0.5})
    assert _check_against_reference(protocol, timing) == counts


def test_swap_inside_a_net_keeps_its_cost_and_box(monkeypatch):
    # One net of each kind holds both a and b; the swap reads none of their
    # boxes, counts nothing for them and re-prices only a's pair with f.
    nets = {
        "pair": ["a", "b"],
        "triple": ["a", "b", "c"],
        "quad": ["a", "b", "c", "d"],
        "five": ["a", "b", "c", "d", "e"],
        "af": ["a", "f"],
    }
    cache = NetCostCache(nets, _SITES, {}, TimingObjective(dict.fromkeys(nets, 0.5)))
    boxes = list(cache.boxes)
    costs = list(cache.costs)
    monkeypatch.setattr(place_module, "_shift_box", _forbidden)
    monkeypatch.setattr(NetCostCache, "_scan_box", _forbidden)
    delta = cache.propose_swap(cache.tid_of["a"], cache.tid_of["b"])
    cache.commit()
    assert delta == cache.costs[4] - costs[4] < 0
    assert cache.costs[:4] == costs[:4]
    assert cache.boxes == boxes and cache.boxes[3] is boxes[3]
    assert (cache.evaluations, cache.bbox_updates) == (6, 0)
    assert cache.audit_matches()


# ----------------------------------------------------------------------
# Router tree search against the reference, property-based
# ----------------------------------------------------------------------
def reference_grow(graph, source, targets, cost, blocked, factor, crit=0.0, delay=()):
    """The router's tree search before it walked a wire-only adjacency.

    It relaxes every node's full ``edges`` list, keeps foreign pins out
    with one blocked byte per pin, and builds the A* bound per node from
    each remaining sink's Manhattan distance.  *blocked* flags the other
    nodes to keep out (outside the box, full).  Returns ``(tree, pops)``,
    with ``None`` for the tree when a target cannot be reached.
    """
    count = len(graph)
    start = bytearray(flag or not wire for flag, wire in zip(blocked, graph.is_wire))
    start[source] = 0
    for sink in targets:
        start[sink] = 0
    anti_crit = 1.0 - crit
    tree = {source}
    remaining = set(targets)
    pops = 0
    while remaining:
        if factor is None:
            bound = [0.0] * count
        else:
            bound = [
                factor * min(abs(x - graph.x[s]) + abs(y - graph.y[s]) for s in remaining)
                for x, y in zip(graph.x, graph.y)
            ]
        distances = [float("inf")] * count
        previous = [0] * count
        visited = bytearray(start)
        for node_id in tree:
            distances[node_id] = 0.0
        heap = [(bound[node_id], 0.0, node_id) for node_id in tree]
        heapq.heapify(heap)
        found = -1
        while heap:
            _priority, distance, node_id = heapq.heappop(heap)
            pops += 1
            if visited[node_id]:
                continue
            visited[node_id] = 1
            if node_id in remaining:
                found = node_id
                break
            for neighbour in graph.nodes[node_id].edges:
                if visited[neighbour]:
                    continue
                step = cost[neighbour]
                if crit:
                    step = crit * delay[neighbour] + anti_crit * step
                new_distance = distance + step
                if new_distance < distances[neighbour]:
                    distances[neighbour] = new_distance
                    previous[neighbour] = node_id
                    heapq.heappush(
                        heap, (new_distance + bound[neighbour], new_distance, neighbour)
                    )
        if found < 0:
            return None, pops
        cursor = found
        while cursor not in tree:
            tree.add(cursor)
            cursor = previous[cursor]
        remaining.discard(found)
    return sorted(tree), pops


@functools.cache
def _search_graph(switchbox):
    """A 4x4 fabric with IO pads, and its adjacency as first built."""
    routing = RoutingParams(channel_width=4, switchbox=switchbox, io_pads_per_side=2)
    graph = RoutingResourceGraph(Fabric(ArchitectureParams(width=4, height=4, routing=routing)))
    return graph, tuple(map(tuple, graph.wire_adjacency))


@st.composite
def _search_net(draw, graph):
    """A source pin and one to four other pins as its targets."""
    pins = [node_id for node_id, wire in enumerate(graph.is_wire) if not wire]
    source = draw(st.sampled_from(pins))
    targets = draw(
        st.lists(st.sampled_from(pins), min_size=1, max_size=4, unique=True).filter(
            lambda targets: source not in targets
        )
    )
    return source, targets


@st.composite
def _search_inputs(draw, graph, net):
    """One grow of *net* on *graph*: costs, box, full nodes, criticality, A*."""
    count = len(graph)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # PathFinder costs: base 1.0, with present overuse and history on a
    # fifth of the nodes, so most steps tie.
    cost = [1.0] * count
    for node_id in rng.sample(range(count), count // 5):
        cost[node_id] = 1.0 + 0.5 * rng.randint(1, 3) + 0.4 * rng.randint(0, 3)
    # None, inside the grid (0..4 here), spilling past it, or empty.
    box = draw(st.none() | st.tuples(*[st.integers(-3, 7)] * 4))
    # Refinement's hard capacity: full nodes, pins included.
    full = bytes(rng.random() < 0.1 for _ in range(count)) if draw(st.booleans()) else None
    crit = draw(st.sampled_from([0.0, 0.3, 0.98]))
    astar = draw(st.booleans())
    return (graph, *net, cost, box, full, crit, astar)


@st.composite
def _search_case(draw):
    graph, _adjacency = _search_graph(draw(st.sampled_from(["disjoint", "wilton"])))
    return draw(_search_inputs(graph, draw(_search_net(graph))))


@st.composite
def _search_sequence(draw):
    """Two to four grows on one graph, of nets drawn from a pool of one or two.

    A net grown again sees its sink cells again, under another criticality
    (so another A* factor), box or set of full nodes.
    """
    graph, _adjacency = _search_graph(draw(st.sampled_from(["disjoint", "wilton"])))
    nets = draw(st.lists(_search_net(graph), min_size=1, max_size=2))
    picks = draw(st.lists(st.sampled_from(nets), min_size=2, max_size=4))
    return graph, [draw(_search_inputs(graph, net)) for net in picks]


def _grow_like_the_reference(search, case):
    """Grow *case* on *search*, demand the reference's tree and heap pops,
    and return the heap pushes of the search and of the reference."""
    graph, source, targets, cost, box, full, crit, astar = case
    delay = _delay_costs(graph)
    factor = 0.5 * (crit * min(delay) + (1.0 - crit) * min(cost)) if astar else None
    blocked = search.blocked(box)
    if box is None:
        outside = bytes(len(graph))
    else:
        x0, x1, y0, y1 = box
        outside = bytes(
            not (x0 <= x <= x1 and y0 <= y <= y1) for x, y in zip(graph.x, graph.y)
        )
    if full is not None:
        blocked = bytes(map(operator.or_, blocked, full))
        outside = bytes(map(operator.or_, outside, full))

    pushes = [0]
    real_push = heapq.heappush

    def counting_push(heap, item):
        pushes[0] += 1
        real_push(heap, item)

    pops = search.pops
    # Both searches look heappush up on the heapq module at call time.
    heapq.heappush = counting_push
    try:
        tree = search.grow(source, targets, cost, blocked, factor, crit, delay)
        grown = pushes[0]
        expected = reference_grow(graph, source, targets, cost, outside, factor, crit, delay)
    finally:
        heapq.heappush = real_push
    assert (tree, search.pops - pops) == expected
    return grown, pushes[0] - grown


@settings(max_examples=200, deadline=None)
@given(_search_case())
def test_tree_search_matches_reference_search(case):
    graph = case[0]
    search = _TreeSearch(graph)
    pushes, reference_pushes = _grow_like_the_reference(search, case)
    # The search pushes no entry the reference does not.
    assert pushes <= reference_pushes
    # The splice lives in the search's own copy, and is undone after the grow.
    assert all(map(operator.is_, search.neighbours, graph.wire_adjacency))
    assert tuple(map(tuple, graph.wire_adjacency)) == _search_graph(
        graph.fabric.params.routing.switchbox
    )[1]


def _fanout_case(crit):
    """A four-sink net around its driver on base costs, with A*."""
    graph, _adjacency = _search_graph("wilton")
    pin = graph.node_by_name
    source = pin("opin_1_1_out6").node_id
    sinks = ("ipin_2_3_in6", "ipin_0_1_in12", "ipin_1_0_in13", "ipin_2_2_in6")
    targets = [pin(name).node_id for name in sinks]
    return (graph, source, targets, [1.0] * len(graph), None, None, crit, True)


@settings(max_examples=100, deadline=None)
@given(_search_sequence())
# The same sink cells under two A* factors.
@example((_fanout_case(0.0)[0], [_fanout_case(0.0), _fanout_case(0.98)]))
def test_tree_search_state_carries_across_grows(sequence):
    # One search object serves a whole route call: its predecessor array
    # and its A* rows outlive each grow, and no grow may see another's.
    graph, cases = sequence
    search = _TreeSearch(graph)
    for case in cases:
        _grow_like_the_reference(search, case)


def test_tree_search_pushes_only_entries_that_can_pop():
    # Each sink search stops pushing once a target entry is queued below
    # the new entries: 123 pushes against the reference's 291.
    graph = _fanout_case(0.0)[0]
    pushes, reference_pushes = _grow_like_the_reference(_TreeSearch(graph), _fanout_case(0.0))
    assert reference_pushes >= 1.2 * pushes, (pushes, reference_pushes)


# ----------------------------------------------------------------------
# Concurrent routes on one shared cached RR graph
# ----------------------------------------------------------------------
def test_threads_routing_on_one_cached_graph_match_serial_runs():
    # Four threads, more than the CPUs, switching every microsecond, each
    # route their own placed design several times on the same cached graph.
    cases = [
        ("qdi_full_adder", 1),
        ("micropipeline_full_adder", 2),
        ("qdi_ripple_adder_2", 3),
        ("wchb_fifo_4", 4),
    ]
    graph = cached_rr_graph(Fabric(ROUTABLE))
    placed = []
    for name, seed in cases:
        flow = CadFlow(ROUTABLE, FlowOptions(placement_seed=seed, generate_bitstream=False))
        result = flow.run(build_circuit(name))
        assert flow.rr_graph is graph
        placed.append((result.mapped, result.placement))

    def outcome(design, placement):
        routing = route_design(design, placement, graph)
        trees = {net: tree.nodes for net, tree in routing.routed.items()}
        return trees, routing.node_pops, routing.success

    serial = [outcome(*pair) for pair in placed]
    repeats = 3
    results = [[] for _ in placed]
    errors = []

    def work(index):
        try:
            for _ in range(repeats):
                results[index].append(outcome(*placed[index]))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(placed))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert all(success for _trees, _pops, success in serial)
    assert results == [[expected] * repeats for expected in serial]
