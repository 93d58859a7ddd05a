"""The incremental timing engine and the timing-driven flow.

Four families of guarantees introduced by the criticality-fed CAD refactor:

* **engine invariants** — criticalities live in [0, 1] with the critical
  path at exactly 1.0, delay updates are monotone (a slower net can only
  become more critical and the cycle time can only grow), and recomputation
  is lazy (queries after no update are free);
* **golden cycle times** — the reported ``cycle_time_ps`` of registry
  circuits on the paper-default fabric is locked, so a timing-model or
  engine refactor that drifts the reproduced numbers must be deliberate;
* **timing-driven quality gate** — at the paper-default channel width 8 the
  timing-driven flow strictly reduces cycle time on several circuits
  (including the decomposed 2×2 multiplier) with routed legality and at
  most 2% total-wirelength regression;
* **A\\* router** — routed parity with plain Dijkstra while popping fewer
  heap nodes on the largest benchmarked fabric.

The routing fallbacks are pinned too: ``route_design`` runs one negotiation,
the flow's ladder logs one INFO record per failed rung and sums the counters
of every rung on the placement it routed, and PathFinder logs one DEBUG line
per iteration.
"""

import copy
import logging
import random

import pytest

from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.pack import pack_design
from repro.cad.place import NetCostCache, TimingObjective, place_design
from repro.cad import route as route_module
from repro.cad.route import RoutedNet, RoutingResult, refine_critical_nets, route_design
from repro.cad.timing import TimingEngine, analyse_timing, routed_net_delay
from repro.circuits.registry import build_circuit
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, RoutingParams
from repro.core.rrgraph import RoutingResourceGraph

PAPER_ARCH = lambda: ArchitectureParams(routing=RoutingParams(channel_width=8))  # noqa: E731


def _mapped(name):
    circuit = build_circuit(name)
    flow = CadFlow(PAPER_ARCH())
    if hasattr(circuit, "mapped") and circuit.mapped.params == flow.architecture.plb:
        design = circuit.mapped
    else:
        design = flow.map(circuit)
    pack_design(design, flow.architecture.plb)
    return design, flow


# ----------------------------------------------------------------------
# Engine invariants
# ----------------------------------------------------------------------
def test_criticalities_bounded_and_critical_path_at_one():
    design, _flow = _mapped("qdi_full_adder")
    engine = TimingEngine(design)
    crits = engine.criticalities()
    assert crits, "a mapped design must expose timed nets"
    assert all(0.0 <= crit <= 1.0 for crit in crits.values())
    assert max(crits.values()) == 1.0
    assert engine.critical_path_ps > 0
    assert engine.cycle_time_ps == 4 * engine.critical_path_ps


def test_criticality_monotone_in_net_delay():
    design, _flow = _mapped("qdi_full_adder")
    engine = TimingEngine(design)
    baseline_cycle = engine.cycle_time_ps
    crits = engine.criticalities()
    for net in sorted(crits)[:6]:
        before = engine.criticality(net)
        engine.set_net_delay(net, engine.net_delays_ps.get(net, 110) + 5000)
        after = engine.criticality(net)
        # Slowing a net down can only raise its own criticality ...
        assert after >= before - 1e-9
        # ... and can never shorten the handshake cycle.
        assert engine.cycle_time_ps >= baseline_cycle
        baseline_cycle = engine.cycle_time_ps


def test_engine_recomputes_lazily():
    design, _flow = _mapped("qdi_ripple_adder_2")
    engine = TimingEngine(design)
    engine.criticalities()
    engine.criticalities()
    engine.cycle_time_ps
    assert engine.recomputes == 1  # queries without updates are free
    engine.set_net_delay(next(iter(engine.criticalities())), 9999)
    engine.criticalities()
    engine.criticality("nonexistent")
    assert engine.recomputes == 2


def test_estimate_and_routed_delays_feed_the_engine():
    design, flow = _mapped("qdi_full_adder")
    placement = place_design(design, flow.fabric, seed=1)
    engine = TimingEngine(design)
    flat_cycle = engine.cycle_time_ps
    estimates = engine.estimate_from_placement(placement, flow.fabric)
    assert estimates and all(delay > 0 for delay in estimates.values())

    routing = route_design(design, placement, flow.rr_graph)
    assert routing.success
    exact = engine.update_from_routing(routing, flow.rr_graph)
    assert exact.keys() == routing.routed.keys()
    for net, routed in routing.routed.items():
        assert exact[net] == routed_net_delay(flow.rr_graph, routed.nodes)
    assert engine.cycle_time_ps > 0
    assert flat_cycle > 0


def test_analyse_timing_report_carries_criticalities():
    design, flow = _mapped("qdi_full_adder")
    report = analyse_timing(design)
    assert report.criticalities
    assert report.critical_path_ps == report.forward_latency_ps
    assert report.cycle_time_ps == 4 * report.forward_latency_ps


# ----------------------------------------------------------------------
# Golden cycle times (paper-default fabric, channel width 8)
# ----------------------------------------------------------------------
GOLDEN_CYCLE_TIMES_PS = {
    "qdi_full_adder": 13440,
    "micropipeline_full_adder": 10880,
    "qdi_ripple_adder_2": 22320,
    "wchb_fifo_4": 30080,
    "qdi_multiplier_2x2": 26720,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CYCLE_TIMES_PS))
def test_golden_cycle_times(name):
    flow = CadFlow(PAPER_ARCH(), FlowOptions(generate_bitstream=False))
    result = flow.run(build_circuit(name))
    summary = result.summary()
    assert summary["routing_success"] is True
    assert summary["cycle_time_ps"] == GOLDEN_CYCLE_TIMES_PS[name]


# ----------------------------------------------------------------------
# Timing-driven quality gate (the PR's acceptance criterion)
# ----------------------------------------------------------------------
#: Circuits whose handshake cycle the timing-driven flow must strictly
#: improve at the paper-default channel width 8 (incl. one multiplier).
TIMING_GATE_CIRCUITS = (
    "qdi_full_adder",
    "qdi_multiplier_2x2",
    "micropipeline_full_adder",
    "wchb_fifo_4",
)


def _assert_legal(routing, graph):
    occupancy = [0] * len(graph)
    for routed in routing.routed.values():
        for node_id in routed.nodes:
            occupancy[node_id] += 1
    assert all(
        occupancy[node_id] <= graph.capacity[node_id] for node_id in range(len(graph))
    )


@pytest.mark.parametrize("name", TIMING_GATE_CIRCUITS)
def test_timing_driven_reduces_cycle_time_at_default_channel_width(name):
    arch = PAPER_ARCH()
    baseline = CadFlow(arch, FlowOptions(generate_bitstream=False)).run(
        build_circuit(name)
    )
    flow = CadFlow(arch, FlowOptions(generate_bitstream=False, timing_driven=True))
    timed = flow.run(build_circuit(name))
    base_summary = baseline.summary()
    timed_summary = timed.summary()

    assert base_summary["routing_success"] is True
    assert timed_summary["routing_success"] is True
    _assert_legal(timed.routing, flow.rr_graph)
    # Strict cycle-time reduction ...
    assert timed_summary["cycle_time_ps"] < base_summary["cycle_time_ps"]
    # ... within the 2% total-wirelength budget.
    assert (
        timed_summary["total_wirelength"]
        <= base_summary["total_wirelength"] * 1.02
    )
    # The mode is visible in the summary contract.
    assert timed_summary["timing_driven"] is True
    assert timed_summary["critical_nets_rerouted"] >= 0
    assert timed_summary["cycle_time_improvement_ps"] >= 0


def test_timing_driven_summary_key_set():
    from test_regression_golden import FULL_FLOW_SUMMARY_KEYS

    result = CadFlow(
        ArchitectureParams(width=5, height=5), FlowOptions(timing_driven=True)
    ).run(build_circuit("qdi_full_adder"))
    assert set(result.summary().keys()) == FULL_FLOW_SUMMARY_KEYS | {
        "timing_driven",
        "critical_nets_rerouted",
        "cycle_time_improvement_ps",
    }


def _record_flow_routes(monkeypatch) -> list:
    """Wrap the flow's ``route_design`` and return the list it fills: one
    ``(placement, success, iterations)`` per rung, as the rung returned."""
    import repro.cad.flow as flow_module

    attempts = []

    def recording_route_design(design, placement, *args, **kwargs):
        routing = route_design(design, placement, *args, **kwargs)
        attempts.append((placement, routing.success, routing.iterations))
        return routing

    monkeypatch.setattr(flow_module, "route_design", recording_route_design)
    return attempts


def test_timing_driven_flow_logs_each_failed_routing_rung(caplog, monkeypatch):
    # Seed 5 on 6x6/cw10 fails the first timing-driven rung (the polished
    # placement) and recovers further down the ladder: every failed rung
    # must leave exactly one INFO record, so no fallback fires silently.
    attempts = _record_flow_routes(monkeypatch)
    arch = ArchitectureParams(width=6, height=6, routing=RoutingParams(channel_width=10))
    options = FlowOptions(timing_driven=True, placement_seed=5, generate_bitstream=False)
    with caplog.at_level(logging.DEBUG, logger="repro.cad"):
        result = CadFlow(arch, options).run(build_circuit("qdi_multiplier_2x2"))

    summary = result.summary()
    assert summary["routing_success"] is True
    failed = [attempt for attempt in attempts if not attempt[1]]
    assert failed
    rungs = [r for r in caplog.records if r.name == "repro.cad.flow"]
    assert [r.levelno for r in rungs] == [logging.INFO] * len(failed)
    assert "timing-driven routing on the polished placement failed" in rungs[0].getMessage()
    # One DEBUG line per PathFinder iteration across every rung.
    iterations = [
        r for r in caplog.records if r.name == "repro.cad.route" and r.levelno == logging.DEBUG
    ]
    assert len(iterations) == sum(attempt[2] for attempt in attempts)
    # The reported counters sum every rung on the placement the flow routed;
    # the failed rung on the discarded polished placement shows in its record.
    assert result.placement is result.baseline_placement
    assert summary["router_iterations"] == sum(
        attempt[2] for attempt in attempts if attempt[0] is result.placement
    )
    assert f"failed after {failed[0][2]} iterations" in rungs[0].getMessage()


# ----------------------------------------------------------------------
# Critical-net refinement
# ----------------------------------------------------------------------
def test_refine_critical_nets_improves_multiplier_and_stays_legal():
    design, flow = _mapped("qdi_multiplier_2x2")
    placement = place_design(design, flow.fabric, seed=1)
    # Plain Dijkstra: A* ordering does not converge on this instance.
    routing = route_design(design, placement, flow.rr_graph, astar=False)
    assert routing.success
    engine = TimingEngine(design)
    engine.update_from_routing(routing, flow.rr_graph)
    before_cycle = engine.cycle_time_ps
    before_wirelength = routing.total_wirelength
    before = {
        net: routed_net_delay(flow.rr_graph, routed.nodes)
        for net, routed in routing.routed.items()
    }

    improved = refine_critical_nets(
        routing,
        flow.rr_graph,
        engine.criticalities(),
        max_wirelength=int(before_wirelength * 1.02),
    )
    assert improved > 0  # the displacement pass finds real detours to cut
    assert routing.critical_reroutes == improved
    _assert_legal(routing, flow.rr_graph)
    assert routing.total_wirelength <= before_wirelength * 1.02
    engine.update_from_routing(routing, flow.rr_graph)
    assert engine.cycle_time_ps <= before_cycle
    # Refined critical nets only ever got faster.
    crits = engine.criticalities()
    for net, routed in routing.routed.items():
        after = routed_net_delay(flow.rr_graph, routed.nodes)
        if crits.get(net, 0.0) >= 0.999:
            assert after <= before[net]


def test_refine_noop_on_failed_routing():
    design, flow = _mapped("qdi_full_adder")
    placement = place_design(design, flow.fabric, seed=1)
    routing = route_design(design, placement, flow.rr_graph)
    failed = copy.deepcopy(routing)
    failed.success = False
    assert refine_critical_nets(failed, flow.rr_graph, {"any": 1.0}) == 0


def test_refine_victimless_displacement_occupies_its_tree_once(monkeypatch):
    # Net "a" takes the displacement branch (its hard-capacity search fails)
    # with a free-node tree that displaces nobody.  That tree must count once
    # on the capacity-2 node it shares with net "b"'s faster tree, so "b"'s
    # hard-capacity search still finds the node open.
    graph = RoutingResourceGraph(Fabric(ArchitectureParams()))
    wires = [node for node, is_wire in enumerate(graph.is_wire) if is_wire]
    pins = [node for node, is_wire in enumerate(graph.is_wire) if not is_wire]
    shared = wires[0]
    graph.capacity[shared] = 2
    a_src, a_sink, b_src, b_sink = pins[:4]
    routing = RoutingResult(
        routed={
            "a": RoutedNet("a", a_src, [a_sink], sorted([a_src, a_sink, *wires[1:5]])),
            "b": RoutedNet("b", b_src, [b_sink], sorted([b_src, b_sink, *wires[5:9]])),
        },
        success=True,
    )
    faster = {a_src: sorted([a_src, a_sink, shared]), b_src: sorted([b_src, b_sink, shared])}
    searches = []

    def grow(self, source, targets, cost, blocked, factor, crit=0.0, delay=()):
        searches.append(source)
        if source == a_src and searches.count(a_src) == 1:
            return None
        return None if blocked[shared] else faster[source]

    monkeypatch.setattr(route_module._TreeSearch, "grow", grow)
    assert refine_critical_nets(routing, graph, {"a": 1.0, "b": 0.9}) == 2
    # "b" was accepted on its hard-capacity search, not outranked by "a".
    assert searches == [a_src, a_src, b_src]
    assert routing.routed["b"].nodes == faster[b_src]
    _assert_legal(routing, graph)


# ----------------------------------------------------------------------
# A*: routed parity with plain Dijkstra, fewer pops
# ----------------------------------------------------------------------
def _largest_fabric_route(astar: bool):
    adder = build_circuit("qdi_ripple_adder_8")
    design = adder.mapped
    pack_design(design)
    side = max(4, int(len(design.plbs) ** 0.5) + 2)
    params = ArchitectureParams(
        width=side, height=side, routing=RoutingParams(channel_width=10, io_pads_per_side=6)
    )
    fabric = Fabric(params)
    graph = RoutingResourceGraph(fabric)
    placement = place_design(design, fabric, seed=1)
    return route_design(design, placement, graph, astar=astar), graph


def test_astar_parity_and_pop_reduction_on_largest_fabric():
    accelerated, graph = _largest_fabric_route(astar=True)
    plain, _ = _largest_fabric_route(astar=False)
    assert accelerated.success and plain.success
    _assert_legal(accelerated, graph)
    assert accelerated.routed.keys() == plain.routed.keys()
    # Both orderings run cost-optimal searches; quality stays within the
    # repo-wide 2% parity tolerance and the lower bound must actually prune:
    # plain Dijkstra pops at least 5% more nodes (the perf floor's bound).
    assert accelerated.total_wirelength <= plain.total_wirelength * 1.02
    assert plain.node_pops >= 1.05 * accelerated.node_pops


def test_failed_astar_negotiation_runs_once(caplog, monkeypatch):
    # The knife-edge instance: the decomposed multiplier at channel width 8
    # does not converge under A* ordering.  route_design reports the failure
    # after MAX_ITERATIONS and runs no second negotiation.
    design, flow = _mapped("qdi_multiplier_2x2")
    placement = place_design(design, flow.fabric, seed=1)
    calls = []

    def counting_route_design(*args, **kwargs):
        calls.append(kwargs.get("astar", True))
        return route_design(*args, **kwargs)

    monkeypatch.setattr(route_module, "route_design", counting_route_design)
    with caplog.at_level(logging.DEBUG, logger="repro.cad.route"):
        accelerated = route_module.route_design(design, placement, flow.rr_graph)
    assert calls == [True]
    assert not accelerated.success and accelerated.overused_nodes > 0
    assert accelerated.iterations == route_module.MAX_ITERATIONS
    assert len(accelerated.reroutes_per_iteration) == route_module.MAX_ITERATIONS
    records = [r for r in caplog.records if r.name == "repro.cad.route"]
    assert [r.levelno for r in records] == [logging.DEBUG] * route_module.MAX_ITERATIONS


def test_default_flow_routes_knife_edge_on_the_dijkstra_rung(caplog, monkeypatch):
    # The same instance through the default flow: the A* rung fails, logs
    # one record, and the plain Dijkstra rung routes the trees a direct
    # astar=False call returns, with both rungs' counters in the summary.
    attempts = _record_flow_routes(monkeypatch)
    flow = CadFlow(ArchitectureParams(), FlowOptions(generate_bitstream=False))
    with caplog.at_level(logging.INFO, logger="repro.cad.flow"):
        result = flow.run(build_circuit("qdi_multiplier_2x2"))
    assert [attempt[1] for attempt in attempts] == [False, True]
    assert all(attempt[0] is result.placement for attempt in attempts)
    plain = route_design(result.mapped, result.placement, flow.rr_graph, astar=False)
    assert plain.success
    assert {net: tree.nodes for net, tree in result.routing.routed.items()} == {
        net: tree.nodes for net, tree in plain.routed.items()
    }
    assert result.summary()["router_iterations"] == route_module.MAX_ITERATIONS + plain.iterations
    records = [r for r in caplog.records if r.name == "repro.cad.flow"]
    assert [r.levelno for r in records] == [logging.INFO]
    message = records[0].getMessage()
    assert "congestion routing with A* failed" in message
    assert f"after {route_module.MAX_ITERATIONS} iterations" in message


# ----------------------------------------------------------------------
# Placement injection across grid sizes
# ----------------------------------------------------------------------
def test_smaller_grid_placement_injects_into_larger_fabric():
    # A smaller grid's PLB sites and pad names all exist on a larger grid,
    # so a 6x6 anneal injected into an 8x8 flow is reused as-is and routes
    # legally there.
    small = CadFlow(
        ArchitectureParams(width=6, height=6, routing=RoutingParams(channel_width=8)),
        FlowOptions(generate_bitstream=False),
    )
    small_result = small.run(build_circuit("qdi_full_adder"))
    assert small_result.routing is not None and small_result.routing.success
    large = CadFlow(
        ArchitectureParams(width=8, height=8, routing=RoutingParams(channel_width=8)),
        FlowOptions(generate_bitstream=False),
    )
    injected = large.run(build_circuit("qdi_full_adder"), placement=small_result.placement)
    assert injected.routing is not None and injected.routing.success
    _assert_legal(injected.routing, large.rr_graph)
    assert injected.summary()["placement_cache_hit"] is True


# ----------------------------------------------------------------------
# Blended placement objective
# ----------------------------------------------------------------------
def test_timing_objective_cache_tracks_full_recompute_under_random_moves():
    rng = random.Random(7)
    blocks = [f"b{index}" for index in range(5)]
    nets = {
        f"n{index}": rng.sample(blocks, rng.randint(2, len(blocks)))
        for index in range(8)
    }
    plb_sites = {name: (rng.randrange(6), rng.randrange(6)) for name in blocks}
    crits = {net: rng.random() for net in nets}
    objective = TimingObjective(crits, tradeoff=0.6)
    cache = NetCostCache(nets, plb_sites, {}, objective=objective)
    for _ in range(120):
        name = rng.choice(blocks)
        if rng.random() < 0.5:
            new = (rng.randrange(6), rng.randrange(6))
            cache.propose_move(cache.tid_of[name], float(new[0]), float(new[1]))
        else:
            other = rng.choice([block for block in blocks if block != name])
            cache.propose_swap(cache.tid_of[name], cache.tid_of[other])
        if rng.random() < 0.5:
            cache.commit()
        else:
            cache.reject()
        assert cache.audit_matches()


def test_blended_placement_beats_wirelength_placement_on_timing_cost():
    design, flow = _mapped("qdi_full_adder")
    engine = TimingEngine(design)
    objective = TimingObjective(engine.criticalities(), tradeoff=0.5)
    plain = place_design(design, flow.fabric, seed=3)
    polished = place_design(
        design,
        flow.fabric,
        seed=3,
        objective=objective,
        initial=plain,
        temperature_factor=0.02,
        effort=0.4,
    )
    assert polished.matches_design(design, flow.fabric)
    # The polish anneals the blended objective mostly downhill from the
    # plain layout; the low temperature bounds any uphill wander tightly.
    assert polished.cost <= plain_cost_under(objective, design, flow, plain) * 1.1
    # Pure wirelength is tracked separately and stays available.
    assert polished.wirelength > 0


def plain_cost_under(objective, design, flow, placement):
    from repro.cad.place import _build_net_terminals, _pad_position

    nets = _build_net_terminals(design)
    io_positions = {
        net: _pad_position(pad, flow.fabric) for net, pad in placement.io_sites.items()
    }
    cache = NetCostCache(nets, dict(placement.plb_sites), io_positions, objective=objective)
    return cache.total
