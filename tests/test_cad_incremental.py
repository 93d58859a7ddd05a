"""Incremental place & route: invariants, parity and quality gates.

Three families of guarantees introduced by the delta-HPWL placer and the
dirty-net PathFinder router:

* the placer's per-net cost cache equals a full ``_hpwl`` recompute at every
  step of any move sequence (property tests), and the in-anneal audit holds
  on the default anneal and on the timing polish, and still raises under
  ``python -O``;
* dirty-net re-routing stays *legal* (no overused node in a successful
  result) and is never worse than full re-routing in success or channel
  width across registry circuits × seeds;
* the paper's ``qdi_multiplier_2x2`` quality gate: routed success and
  wirelength at channel width 10 no worse than the full re-route reference,
  and the minimum routable channel width no higher.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cad import route as route_module
from repro.cad.flow import CadFlow
from repro.cad.pack import pack_design
from repro.cad.place import (
    NetCostCache,
    TimingObjective,
    _build_net_terminals,
    _hpwl,
    _pad_position,
    place_design,
)
from repro.cad.route import route_design
from repro.cad.timing import TimingEngine
from repro.circuits.registry import build_circuit
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, RoutingParams
from repro.core.rrgraph import RoutingResourceGraph

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Delta-HPWL == full recompute: property test over random move sequences
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_blocks=st.integers(1, 6),
    n_io=st.integers(0, 4),
    n_nets=st.integers(1, 10),
    n_moves=st.integers(1, 60),
)
def test_delta_hpwl_equals_full_recompute_after_random_moves(
    seed, n_blocks, n_io, n_nets, n_moves
):
    rng = random.Random(seed)
    width, height = rng.randint(3, 7), rng.randint(3, 7)
    blocks = [f"b{index}" for index in range(n_blocks)]
    io_nets = [f"pi{index}" for index in range(n_io)]
    terminals = blocks + [f"io:{net}" for net in io_nets]

    def random_site():
        return (rng.randrange(width), rng.randrange(height))

    def random_io_position():
        # Boundary-style integer-valued coordinates, as _pad_position yields.
        return (float(rng.randrange(-1, width + 1)), float(rng.randrange(-1, height + 1)))

    plb_sites = {name: random_site() for name in blocks}
    io_positions = {net: random_io_position() for net in io_nets}
    nets = {}
    for index in range(n_nets):
        size = rng.randint(2, len(terminals)) if len(terminals) >= 2 else 0
        if size:
            nets[f"n{index}"] = rng.sample(terminals, size)
    if not nets:
        return

    cache = NetCostCache(nets, plb_sites, io_positions)
    assert cache.total == _hpwl(nets, plb_sites, io_positions)
    tid_of = cache.tid_of

    for _ in range(n_moves):
        before = _hpwl(nets, plb_sites, io_positions)
        kind = rng.choice(["move", "swap", "io"] if io_nets else ["move", "swap"])
        if kind == "move":
            name = rng.choice(blocks)
            saved = plb_sites[name]
            plb_sites[name] = random_site()
            delta = cache.propose_move(tid_of[name], *map(float, plb_sites[name]))
        elif kind == "swap":
            a, b = rng.choice(blocks), rng.choice(blocks)
            if a == b:
                continue  # the annealer never swaps a block with itself
            saved = (plb_sites[a], plb_sites[b])
            plb_sites[a], plb_sites[b] = plb_sites[b], plb_sites[a]
            delta = cache.propose_swap(tid_of[a], tid_of[b])
        else:
            name = rng.choice(io_nets)
            saved = io_positions[name]
            io_positions[name] = random_io_position()
            delta = cache.propose_move(tid_of[f"io:{name}"], *io_positions[name])
        # The delta is exactly the change of the full recompute.
        assert delta == _hpwl(nets, plb_sites, io_positions) - before
        if rng.random() < 0.5:
            cache.commit()
            assert math.isfinite(cache.total)
        else:
            cache.reject()
            if kind == "move":
                plb_sites[name] = saved
            elif kind == "swap":
                plb_sites[a], plb_sites[b] = saved
            else:
                io_positions[name] = saved
        # The headline invariant: the cached total is *exactly* the full
        # recompute (integer-valued coordinates make float sums exact).
        assert cache.total == _hpwl(nets, plb_sites, io_positions)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_blocks=st.integers(1, 6),
    n_io=st.integers(0, 4),
    n_nets=st.integers(1, 10),
    n_moves=st.integers(1, 60),
)
def test_incremental_bbox_updates_equal_full_recompute(
    seed, n_blocks, n_io, n_nets, n_moves
):
    # The propose_moves path: bounding boxes updated from the moved
    # terminal's old/new coordinates (edge-occupancy counts), rescanning a
    # net only when a terminal leaves an extreme it alone defined.  The
    # cached total must stay *exactly* a full recompute, move after move.
    rng = random.Random(seed)
    width, height = rng.randint(3, 7), rng.randint(3, 7)
    blocks = [f"b{index}" for index in range(n_blocks)]
    io_nets = [f"pi{index}" for index in range(n_io)]
    terminals = blocks + [f"io:{net}" for net in io_nets]

    def random_site():
        return (rng.randrange(width), rng.randrange(height))

    def random_io_position():
        return (float(rng.randrange(-1, width + 1)), float(rng.randrange(-1, height + 1)))

    plb_sites = {name: random_site() for name in blocks}
    io_positions = {net: random_io_position() for net in io_nets}
    nets = {}
    for index in range(n_nets):
        size = rng.randint(2, len(terminals)) if len(terminals) >= 2 else 0
        if size:
            nets[f"n{index}"] = rng.sample(terminals, size)
    if not nets:
        return

    cache = NetCostCache(nets, plb_sites, io_positions)
    assert cache.total == _hpwl(nets, plb_sites, io_positions)
    tid_of = cache.tid_of

    for _ in range(n_moves):
        kind = rng.choice(["move", "swap", "io"] if io_nets else ["move", "swap"])
        if kind == "move":
            name = rng.choice(blocks)
            saved = plb_sites[name]
            plb_sites[name] = random_site()
            cache.propose_move(tid_of[name], *map(float, plb_sites[name]))
        elif kind == "swap":
            a, b = rng.choice(blocks), rng.choice(blocks)
            if a == b:
                continue  # the annealer never swaps a block with itself
            saved = (plb_sites[a], plb_sites[b])
            plb_sites[a], plb_sites[b] = plb_sites[b], plb_sites[a]
            cache.propose_swap(tid_of[a], tid_of[b])
        else:
            name = rng.choice(io_nets)
            saved = io_positions[name]
            io_positions[name] = random_io_position()
            cache.propose_move(tid_of[f"io:{name}"], *io_positions[name])
        if rng.random() < 0.5:
            cache.commit()
        else:
            cache.reject()
            if kind == "move":
                plb_sites[name] = saved
            elif kind == "swap":
                plb_sites[a], plb_sites[b] = saved
            else:
                io_positions[name] = saved
        assert cache.total == _hpwl(nets, plb_sites, io_positions)
        assert cache.audit_matches()


def test_cache_rejects_unplaced_terminals_short_nets_and_repeats():
    # Every terminal has a position and every net two distinct terminals:
    # the cache prices no other kind of net.
    plb_sites = {"a": (0, 0), "b": (4, 4)}
    with pytest.raises(ValueError, match="net 'n0' has an unplaced terminal 'io:float'"):
        NetCostCache({"n0": ["a", "io:float"]}, plb_sites, {})
    with pytest.raises(ValueError, match="net 'n0' has an unplaced terminal 'c'"):
        NetCostCache({"n0": ["a", "b", "c"]}, plb_sites, {})
    with pytest.raises(ValueError, match="net 'n1' has fewer than two terminals"):
        NetCostCache({"n0": ["a", "b"], "n1": ["a"]}, plb_sites, {})
    # A net listing a terminal twice has no single box update per move.
    with pytest.raises(ValueError, match="net 'n0' lists a terminal twice"):
        NetCostCache({"n0": ["a", "b", "a"]}, plb_sites, {})


def test_bbox_update_avoids_rescan_for_interior_terminal_of_a_five_terminal_net():
    # Deterministic check that the O(1) path actually fires: moving a
    # terminal strictly inside its net's bounding box must not rescan.
    # Nets of up to four terminals keep no box, so the box path starts at
    # five.
    nets = {"n0": ["a", "b", "c", "d", "e"]}
    plb_sites = {"a": (0, 0), "b": (4, 4), "c": (2, 2), "d": (3, 1), "e": (1, 3)}
    cache = NetCostCache(nets, plb_sites, {})
    assert cache.boxes == [[0.0, 4.0, 0.0, 4.0, 1, 1, 1, 1]]
    scans_before = cache.evaluations
    delta = cache.propose_move(cache.tid_of["c"], 1.0, 3.0)  # still interior
    cache.commit()
    assert delta == 0.0
    assert cache.bbox_updates == 1
    assert cache.evaluations == scans_before  # no terminal rescan happened
    assert cache.boxes == [[0.0, 4.0, 0.0, 4.0, 1, 1, 1, 1]]
    # Moving the sole terminal off an extreme degenerates into a rescan.
    cache.propose_move(cache.tid_of["b"], 1.0, 1.0)
    cache.commit()
    assert cache.evaluations == scans_before + 1
    assert cache.boxes == [[0.0, 3.0, 0.0, 3.0, 1, 1, 1, 2]]
    moved = {"a": (0, 0), "b": (1, 1), "c": (1, 3), "d": (3, 1), "e": (1, 3)}
    assert cache.total == _hpwl(nets, moved, {})


def test_place_design_audited_anneal_and_final_cost():
    # audit_interval=1 asserts cache == full recompute inside every move of
    # the real anneal; the final cost must also match an independent
    # recompute from the returned placement.
    circuit = build_circuit("qdi_full_adder")
    flow = CadFlow(ArchitectureParams(width=5, height=5))
    design = flow.map(circuit)
    pack_design(design, flow.architecture.plb)
    placement = place_design(design, flow.fabric, seed=3, audit_interval=1)

    nets = _build_net_terminals(design)
    io_positions = {
        net: _pad_position(pad, flow.fabric) for net, pad in placement.io_sites.items()
    }
    assert placement.cost == _hpwl(nets, placement.plb_sites, io_positions)
    assert placement.net_count == len(nets)
    assert placement.iterations >= 200
    assert 0 < placement.moves_accepted <= placement.iterations


def test_timing_polish_audited_anneal():
    # The flow's polish: the blended objective from the engine's
    # criticalities, warm-started from the baseline at low temperature.
    # audit_interval=1 checks the cache against a full recompute on every
    # move, and the audit must not perturb the anneal.
    circuit = build_circuit("qdi_full_adder")
    flow = CadFlow(ArchitectureParams(width=5, height=5))
    design = flow.map(circuit)
    pack_design(design, flow.architecture.plb)
    baseline = place_design(design, flow.fabric, seed=3)
    engine = TimingEngine(design)
    engine.estimate_from_placement(baseline, flow.fabric)
    criticalities = engine.criticalities()
    assert any(0.0 < crit < 1.0 for crit in criticalities.values())

    def polish(audit_interval):
        return place_design(
            design,
            flow.fabric,
            seed=3,
            effort=0.4,
            audit_interval=audit_interval,
            objective=TimingObjective(criticalities, tradeoff=0.5),
            initial=baseline,
            temperature_factor=0.02,
        )

    audited = polish(1)
    assert audited.to_dict() == polish(0).to_dict()
    assert audited.matches_design(design, flow.fabric)
    assert audited.moves_accepted > 0


#: Under ``python -O``: an audit that fails must still raise.
_OPTIMISED_AUDIT_SCRIPT = """
import sys

assert sys.flags.optimize, "run under python -O"
from repro.cad.flow import CadFlow
from repro.cad.pack import pack_design
from repro.cad.place import NetCostCache, place_design
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams

flow = CadFlow(ArchitectureParams(width=5, height=5))
design = flow.map(build_circuit("qdi_full_adder"))
pack_design(design, flow.architecture.plb)
NetCostCache.audit_matches = lambda self: False
try:
    place_design(design, flow.fabric, seed=3, effort=0.1, audit_interval=7)
except AssertionError as exc:
    print(exc)
else:
    print("no audit")
"""


def test_audit_interval_raises_under_python_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMISED_AUDIT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("incremental cost drifted at move 7:"), proc.stdout


def test_incremental_placer_saves_net_evaluations():
    # The reason the rewrite exists: far fewer per-net evaluations than the
    # full-recompute annealer's moves * nets (at least the perf floor's 5x).
    adder = build_circuit("qdi_ripple_adder_4")
    design = adder.mapped
    pack_design(design)
    fabric = Fabric(ArchitectureParams(width=7, height=7))
    placement = place_design(design, fabric, seed=1)
    full_equivalent = placement.iterations * placement.net_count
    assert placement.net_evaluations * 5 < full_equivalent


def test_placement_counters_serialize():
    adder = build_circuit("qdi_ripple_adder_2")
    design = adder.mapped
    pack_design(design)
    fabric = Fabric(ArchitectureParams(width=6, height=6))
    placement = place_design(design, fabric, seed=5)
    from repro.cad.place import Placement

    rebuilt = Placement.from_dict(placement.to_dict())
    assert rebuilt.net_evaluations == placement.net_evaluations
    assert rebuilt.moves_accepted == placement.moves_accepted
    assert rebuilt.net_count == placement.net_count
    assert rebuilt.plb_sites == placement.plb_sites


# ----------------------------------------------------------------------
# Router parity: dirty-net vs full re-routing
# ----------------------------------------------------------------------
PARITY_CIRCUITS = (
    "qdi_full_adder",
    "qdi_full_adder_1of4",
    "micropipeline_full_adder",
    "qdi_ripple_adder_2",
    "qdi_ripple_adder_4",
    "micropipeline_ripple_adder_4",
    "wchb_fifo_4",
    "wchb_fifo_8",
)


def _place_and_graph(name: str, seed: int):
    circuit = build_circuit(name)
    arch = ArchitectureParams(routing=RoutingParams(channel_width=10))
    flow = CadFlow(arch)
    design = circuit.mapped if hasattr(circuit, "mapped") else flow.map(circuit)
    pack_design(design, arch.plb)
    side = max(4, int(len(design.plbs) ** 0.5) + 2)
    params = ArchitectureParams(
        width=side, height=side, routing=RoutingParams(channel_width=10, io_pads_per_side=8)
    )
    fabric = Fabric(params)
    graph = RoutingResourceGraph(fabric)
    placement = place_design(design, fabric, seed=seed)
    return design, placement, graph


def _assert_legal(routing, graph):
    occupancy = [0] * len(graph)
    for routed in routing.routed.values():
        for node_id in routed.nodes:
            occupancy[node_id] += 1
    assert all(
        occupancy[node_id] <= graph.capacity[node_id] for node_id in range(len(graph))
    )


@pytest.mark.parametrize("name", PARITY_CIRCUITS)
@pytest.mark.parametrize("seed", [1, 7])
def test_dirty_net_routing_parity_with_full_rerouting(name, seed):
    design, placement, graph = _place_and_graph(name, seed)
    incremental = route_design(design, placement, graph, incremental=True)
    full = route_design(design, placement, graph, incremental=False)

    # Success parity: dirty-net routing converges wherever full does.
    assert incremental.success or not full.success
    if incremental.success:
        _assert_legal(incremental, graph)
        assert incremental.routed.keys() == full.routed.keys()
        # Quality gate: within 2% of the full re-route wirelength.
        if full.success:
            assert incremental.total_wirelength <= full.total_wirelength * 1.02
    # The perf point: after the first iteration, dirty iterations re-route
    # only a subset of the nets (recovery sweeps excepted).
    per_iteration = incremental.reroutes_per_iteration
    if incremental.iterations > 1:
        assert any(count < per_iteration[0] for count in per_iteration[1:])


def test_dirty_net_first_iteration_routes_every_net():
    design, placement, graph = _place_and_graph("qdi_full_adder", 1)
    incremental = route_design(design, placement, graph, incremental=True)
    assert incremental.reroutes_per_iteration[0] == len(incremental.routed)
    # Later iterations touch only dirty nets.
    assert all(
        count <= incremental.reroutes_per_iteration[0]
        for count in incremental.reroutes_per_iteration
    )


def test_empty_pruning_box_falls_back_to_the_unpruned_search(monkeypatch):
    # A margin of -100 empties every net's pruning box, so each search fails
    # in its box (one pop: the source, whose wires are all blocked) and
    # retries unpruned; a margin of 100 spans the grid, which is the same.
    design, placement, graph = _place_and_graph("qdi_ripple_adder_2", 1)
    monkeypatch.setattr(route_module, "BBOX_MARGIN", -100)
    empty = route_design(design, placement, graph)
    monkeypatch.setattr(route_module, "BBOX_MARGIN", 100)
    spanning = route_design(design, placement, graph)

    assert empty.success and spanning.success
    _assert_legal(empty, graph)
    assert empty.bbox_fallbacks == empty.total_reroutes > 0
    assert spanning.bbox_fallbacks == 0
    assert {net: tree.nodes for net, tree in empty.routed.items()} == {
        net: tree.nodes for net, tree in spanning.routed.items()
    }
    assert empty.reroutes_per_iteration == spanning.reroutes_per_iteration
    assert empty.node_pops == spanning.node_pops + empty.bbox_fallbacks


# ----------------------------------------------------------------------
# The paper's multiplier: channel-width / wirelength quality gate
# ----------------------------------------------------------------------
def _multiplier_route(channel_width: int, incremental: bool, astar: bool = True):
    arch = ArchitectureParams(routing=RoutingParams(channel_width=channel_width))
    flow = CadFlow(arch)
    design = flow.map(build_circuit("qdi_multiplier_2x2"))
    pack_design(design, arch.plb)
    placement = place_design(design, flow.fabric, seed=1)
    routing = route_design(
        design, placement, flow.rr_graph, incremental=incremental, astar=astar
    )
    return routing, flow


def test_multiplier_quality_gate_channel_width_10():
    incremental, flow = _multiplier_route(10, incremental=True)
    full, _ = _multiplier_route(10, incremental=False)
    assert incremental.success and full.success
    _assert_legal(incremental, flow.rr_graph)
    # Wirelength within the repo-wide 2% parity tolerance of the full
    # re-route reference (A* tie-breaking makes exact equality schedule-
    # dependent; both schedules route cost-optimal searches).
    assert incremental.total_wirelength <= full.total_wirelength * 1.02


def test_multiplier_routes_at_default_channel_width_8():
    # The seed router needed channel width 10; the incremental router's
    # recovery schedule closes the ROADMAP gap and routes the decomposed
    # multiplier on the paper's default fabric (channel width 8).  Only
    # plain Dijkstra ordering converges here, the flow's last ladder rung.
    incremental, flow = _multiplier_route(8, incremental=True, astar=False)
    assert incremental.success
    _assert_legal(incremental, flow.rr_graph)
