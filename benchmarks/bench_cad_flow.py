"""EXP-EXT4 -- CAD flow cost and quality scaling, plus the perf harness.

Two entry points share the instrumented flow runner below:

* **pytest-benchmark tests** (``test_*``): runtime-quality behaviour of the
  packer, placer and router as the design grows (QDI ripple adders of
  increasing width on a fabric sized to fit).
* **``python benchmarks/bench_cad_flow.py``**: the machine-readable perf
  harness.  It emits ``BENCH_cad.json`` — per-stage wall-clock, placement
  moves/sec, per-net cost evaluations saved by the incremental placer, nets
  re-routed per PathFinder iteration, A* node-pop reduction versus plain
  Dijkstra, and the timing-driven flow's cycle time and wall-clock versus
  the baseline flow — and, with ``--check-floor``, fails when placement
  move-throughput regresses more than ``regression_factor``× below the
  checked-in floor (``benchmarks/perf_floor.json``), the incremental
  placer's evaluation reduction drops under ``min_eval_reduction``, the A*
  router stops popping fewer nodes than Dijkstra on the largest fabric
  (``min_astar_pop_reduction``), the timing-driven flow's throughput on
  the largest design falls more than ``regression_factor``× below
  ``timing_driven_flows_per_s``, or the router's wall-clock on the largest
  design exceeds ``router_route_s`` by more than the same factor.

The place and route stages are timed **best-of-N** (``--rounds``,
deterministic reruns — the minimum filters out scheduler noise), and the
route stage calls ``route_design`` with its defaults, the same router the
flow runs.  Registry circuits (``qdi_multiplier_2x2``) join the generated
specs as full-flow records.  The document records ``cpu_count`` next to
the python version and platform.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.analysis.tables import format_table
from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.lemap import MappedDesign
from repro.cad.pack import pack_design
from repro.cad.place import place_design
from repro.cad.route import route_design
from repro.circuits.adders import qdi_ripple_adder
from repro.core.fabric import Fabric
from repro.core.params import ArchitectureParams, RoutingParams
from repro.core.rrgraph import cached_rr_graph

WIDTHS = (1, 2, 4)
HARNESS_WIDTHS = (1, 2, 4, 8)
#: Generator-family circuits the harness runs end to end (bitgen included)
#: on their recommended fabrics, alongside the adder ladder.
GENERATED_SPECS = ("gen:mult8x8@micropipeline",)
#: Registry circuits the harness runs as full flows on the standard
#: routable fabric (the decomposed multiplier).
REGISTRY_CIRCUITS = ("qdi_multiplier_2x2",)
BENCH_SCHEMA = 6
#: Deterministic stage reruns per timing measurement; the minimum is kept.
TIMING_ROUNDS = 5
DEFAULT_FLOOR_FILE = Path(__file__).with_name("perf_floor.json")


def _best_of(run, rounds: int):
    """``(result, seconds)`` of *run*, timed as the best of *rounds* calls.

    Every stage measured this way is deterministic (same seed, immutable
    graph), so each rerun returns a bit-identical result and the minimum
    wall-clock is an honest estimate with scheduler noise filtered out.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, int(rounds))):
        t0 = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return result, best


def instrumented_flow(
    bits: int, seed: int = 1, rounds: int = TIMING_ROUNDS
) -> dict[str, object]:
    """Pack, place and route one synthetic adder, timing each stage.

    Returns a flat record of the stage wall-clocks plus the incremental
    placer/router counters — the unit of ``BENCH_cad.json``.  The place and
    route stages are timed best-of-*rounds*.
    """
    adder = qdi_ripple_adder(bits)
    design: MappedDesign = adder.mapped

    t0 = time.perf_counter()
    pack_design(design)
    t1 = time.perf_counter()

    side = max(4, int(len(design.plbs) ** 0.5) + 2)
    params = ArchitectureParams(
        width=side, height=side, routing=RoutingParams(channel_width=10, io_pads_per_side=6)
    )
    fabric = Fabric(params)
    graph = cached_rr_graph(fabric)

    placement, place_s = _best_of(
        lambda: place_design(design, fabric, seed=seed), rounds
    )
    routing, route_s = _best_of(lambda: route_design(design, placement, graph), rounds)

    # A* counter reference: the identical route with the lower bound off.
    t5 = time.perf_counter()
    dijkstra = route_design(design, placement, graph, astar=False)
    t6 = time.perf_counter()

    # Timing quality + wall-clock: the full flow, baseline vs timing-driven.
    t7 = time.perf_counter()
    baseline_flow = CadFlow(params, FlowOptions(generate_bitstream=False)).run(adder)
    t8 = time.perf_counter()
    timing_flow = CadFlow(
        params, FlowOptions(generate_bitstream=False, timing_driven=True)
    ).run(adder)
    t9 = time.perf_counter()
    baseline_s = t8 - t7
    timing_s = t9 - t8
    full_equiv_evals = placement.iterations * placement.net_count
    return {
        "name": f"qdi_ripple_adder_{bits}",
        "bits": bits,
        "grid": f"{side}x{side}",
        "les": len(design.les),
        "plbs": len(design.plbs),
        "timing_rounds": max(1, int(rounds)),
        "stages_s": {
            "pack": round(t1 - t0, 6),
            "place": round(place_s, 6),
            "route": round(route_s, 6),
        },
        "placement": {
            "cost": round(placement.cost, 1),
            "moves": placement.iterations,
            "moves_accepted": placement.moves_accepted,
            "moves_per_s": round(placement.iterations / place_s, 1) if place_s > 0 else 0.0,
            "net_count": placement.net_count,
            "net_evals": placement.net_evaluations,
            "full_recompute_evals": full_equiv_evals,
            "eval_reduction": (
                round(full_equiv_evals / placement.net_evaluations, 2)
                if placement.net_evaluations
                else 0.0
            ),
        },
        "routing": {
            "success": routing.success,
            "nets": len(routing.routed),
            "iterations": routing.iterations,
            "reroutes_per_iteration": list(routing.reroutes_per_iteration),
            "total_reroutes": routing.total_reroutes,
            "full_reroute_equiv": routing.iterations * len(routing.routed),
            "wirelength": routing.total_wirelength,
        },
        "astar": {
            "pops": routing.node_pops,
            "dijkstra_pops": dijkstra.node_pops,
            "pop_reduction": (
                round(dijkstra.node_pops / routing.node_pops, 2)
                if routing.node_pops
                else 0.0
            ),
            "dijkstra_route_s": round(t6 - t5, 6),
            "parity": routing.success == dijkstra.success,
        },
        "timing": {
            "cycle_time_ps": baseline_flow.summary().get("cycle_time_ps", 0),
            "timing_driven_cycle_time_ps": timing_flow.summary().get("cycle_time_ps", 0),
            "critical_nets_rerouted": timing_flow.summary().get(
                "critical_nets_rerouted", 0
            ),
            "baseline_flow_s": round(baseline_s, 6),
            "timing_driven_flow_s": round(timing_s, 6),
            "timing_driven_flows_per_s": (
                round(1.0 / timing_s, 3) if timing_s > 0 else 0.0
            ),
            "timing_driven_slowdown": (
                round(timing_s / baseline_s, 2) if baseline_s > 0 else 0.0
            ),
        },
    }


def _flow_record(
    name: str, bench, params: ArchitectureParams, seed: int
) -> dict[str, object]:
    """Full flow (bitstream included) of one circuit."""
    t0 = time.perf_counter()
    result = CadFlow(params, FlowOptions(placement_seed=seed)).run(bench)
    flow_s = time.perf_counter() - t0
    summary = result.summary()
    return {
        "name": name,
        "grid": f"{params.width}x{params.height}",
        "channel_width": params.routing.channel_width,
        "les": summary["les"],
        "plbs": summary["plbs"],
        "flow_s": round(flow_s, 6),
        "routing_success": summary.get("routing_success", False),
        "total_wirelength": summary.get("total_wirelength", 0),
        "cycle_time_ps": summary.get("cycle_time_ps", 0),
        "bitstream_bits_set": summary.get("bitstream_bits_set", 0),
    }


def generated_flow_record(spec_name: str, seed: int = 1) -> dict[str, object]:
    """Full flow (bitstream included) of one generated circuit.

    The fabric comes from ``recommended_fabric``, so this also exercises the
    architecture-sizing heuristic (grid side, PDE tap widening, channel-width
    scaling) the generator layer ships with.
    """
    from repro.circuits.generate import recommended_fabric
    from repro.circuits.specs import build_from_spec

    bench = build_from_spec(spec_name)
    return _flow_record(spec_name, bench, recommended_fabric(bench), seed)


def registry_flow_record(name: str, seed: int = 1) -> dict[str, object]:
    """Full flow of one registry circuit on the standard routable fabric."""
    from repro.circuits.registry import build_circuit

    params = ArchitectureParams(routing=RoutingParams(channel_width=10))
    return _flow_record(name, build_circuit(name), params, seed)


def run_harness(
    widths=HARNESS_WIDTHS, seed: int = 1, rounds: int = TIMING_ROUNDS
) -> dict[str, object]:
    """The full ``BENCH_cad.json`` document for the given adder widths."""
    designs = [instrumented_flow(bits, seed=seed, rounds=rounds) for bits in widths]
    registry = [registry_flow_record(name, seed=seed) for name in REGISTRY_CIRCUITS]
    generated = [generated_flow_record(spec, seed=seed) for spec in GENERATED_SPECS]
    largest = designs[-1]
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": "bench_cad_flow",
        "generated_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "timing_rounds": max(1, int(rounds)),
        "designs": designs,
        "registry": registry,
        "generated": generated,
        "headline": {
            "largest_design": largest["name"],
            "placement_moves_per_s": largest["placement"]["moves_per_s"],
            "router_route_s": largest["stages_s"]["route"],
            "placement_eval_reduction": largest["placement"]["eval_reduction"],
            "router_total_reroutes": largest["routing"]["total_reroutes"],
            "router_full_reroute_equiv": largest["routing"]["full_reroute_equiv"],
            "astar_pop_reduction": largest["astar"]["pop_reduction"],
            "cycle_time_ps": largest["timing"]["cycle_time_ps"],
            "timing_driven_cycle_time_ps": largest["timing"][
                "timing_driven_cycle_time_ps"
            ],
            "timing_driven_flows_per_s": largest["timing"]["timing_driven_flows_per_s"],
            "timing_driven_slowdown": largest["timing"]["timing_driven_slowdown"],
        },
    }


def check_floor(document: dict[str, object], floor: dict[str, object]) -> list[str]:
    """Floor violations of a harness document (empty list == healthy).

    The floor file records an *expected* throughput; the check only fails
    when the measured value regresses more than ``regression_factor`` below
    it, so slower CI machines don't flap while a real algorithmic regression
    (the asymptotic kind this PR removed) still trips it.
    """
    problems: list[str] = []
    for design in document["designs"]:
        if not design["routing"]["success"]:
            problems.append(
                f"{design['name']} failed to route — the throughput numbers "
                "below would be measured on a broken router"
            )
    for design in document.get("registry", []):
        if not design["routing_success"]:
            problems.append(f"{design['name']} failed to route")
    for design in document.get("generated", []):
        if not design["routing_success"]:
            problems.append(
                f"{design['name']} failed to route on its recommended fabric"
            )
    headline = document["headline"]
    floor_moves = float(floor.get("placement_moves_per_s", 0.0))
    factor = float(floor.get("regression_factor", 3.0))
    measured = float(headline["placement_moves_per_s"])
    if floor_moves > 0 and measured * factor < floor_moves:
        problems.append(
            f"placement throughput {measured:.0f} moves/s is more than "
            f"{factor:g}x below the floor {floor_moves:.0f} moves/s"
        )
    min_reduction = float(floor.get("min_eval_reduction", 0.0))
    reduction = float(headline["placement_eval_reduction"])
    if reduction < min_reduction:
        problems.append(
            f"placement eval reduction {reduction:.2f}x is below the "
            f"required {min_reduction:g}x (incremental delta-HPWL broken?)"
        )
    min_pop_reduction = float(floor.get("min_astar_pop_reduction", 0.0))
    pop_reduction = float(headline.get("astar_pop_reduction", 0.0))
    if min_pop_reduction > 0 and pop_reduction < min_pop_reduction:
        problems.append(
            f"A* pop reduction {pop_reduction:.2f}x on the largest fabric is "
            f"below the required {min_pop_reduction:g}x (admissible lower "
            "bound broken or disabled?)"
        )
    floor_td = float(floor.get("timing_driven_flows_per_s", 0.0))
    measured_td = float(headline.get("timing_driven_flows_per_s", 0.0))
    if floor_td > 0 and measured_td * factor < floor_td:
        problems.append(
            f"timing-driven throughput {measured_td:.3f} flows/s is more than "
            f"{factor:g}x below the floor {floor_td:.3f} flows/s"
        )
    floor_route = float(floor.get("router_route_s", 0.0))
    measured_route = float(headline.get("router_route_s", 0.0))
    if floor_route > 0 and measured_route > floor_route * factor:
        problems.append(
            f"router wall-clock {measured_route:.4f}s on the largest design "
            f"is more than {factor:g}x above the floor {floor_route:.4f}s"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", type=Path, default=Path("BENCH_cad.json"),
        help="where to write the machine-readable results (default: %(default)s)",
    )
    parser.add_argument(
        "--widths", type=lambda text: tuple(int(part) for part in text.split(",")),
        default=HARNESS_WIDTHS, metavar="N,N,...",
        help="adder widths to run (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=1, help="placement seed")
    parser.add_argument(
        "--rounds", type=int, default=TIMING_ROUNDS, metavar="N",
        help="deterministic reruns per place/route timing, best kept "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--check-floor", type=Path, nargs="?", const=DEFAULT_FLOOR_FILE, default=None,
        metavar="FLOOR.json",
        help="fail (exit 1) when throughput regresses below the checked-in floor",
    )
    args = parser.parse_args(argv)

    document = run_harness(widths=args.widths, seed=args.seed, rounds=args.rounds)
    args.json.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    rows = [
        {
            "design": design["name"],
            "grid": design["grid"],
            "place_s": design["stages_s"]["place"],
            "route_s": design["stages_s"]["route"],
            "moves/s": design["placement"]["moves_per_s"],
            "eval_reduction": f'{design["placement"]["eval_reduction"]}x',
            "astar_pops": f'{design["astar"]["pop_reduction"]}x',
            "cycle_ps": design["timing"]["cycle_time_ps"],
            "td_cycle_ps": design["timing"]["timing_driven_cycle_time_ps"],
            "td_slowdown": f'{design["timing"]["timing_driven_slowdown"]}x',
            "routed": design["routing"]["success"],
        }
        for design in document["designs"]
    ]
    print(format_table(rows))
    print(f"best of {document['timing_rounds']} rounds")
    for design in document["registry"]:
        print(
            f"registry {design['name']}: grid {design['grid']} "
            f"cw {design['channel_width']}, {design['les']} LEs / "
            f"{design['plbs']} PLBs, routed={design['routing_success']} "
            f"in {design['flow_s']:.2f}s"
        )
    for design in document["generated"]:
        print(
            f"generated {design['name']}: grid {design['grid']} "
            f"cw {design['channel_width']}, {design['les']} LEs / "
            f"{design['plbs']} PLBs, routed={design['routing_success']}, "
            f"cycle {design['cycle_time_ps']} ps in {design['flow_s']:.2f}s"
        )
    print(f"wrote {args.json}")

    if args.check_floor is not None:
        floor = json.loads(args.check_floor.read_text(encoding="utf-8"))
        problems = check_floor(document, floor)
        for problem in problems:
            print(f"PERF FLOOR VIOLATION: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            "perf floor ok: "
            f"{document['headline']['placement_moves_per_s']:.0f} moves/s, "
            f"route {document['headline']['router_route_s']:.4f}s, "
            f"{document['headline']['placement_eval_reduction']}x fewer net evals, "
            f"{document['headline']['astar_pop_reduction']}x fewer A* pops, "
            f"timing-driven {document['headline']['timing_driven_flows_per_s']:.3f} flows/s"
        )
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark tests (CI's benchmark smoke)
# ----------------------------------------------------------------------
def test_cad_flow_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [instrumented_flow(bits) for bits in WIDTHS], rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            [
                {
                    "bits": row["bits"],
                    "grid": row["grid"],
                    "plbs": row["plbs"],
                    "hpwl": row["placement"]["cost"],
                    "wirelength": row["routing"]["wirelength"],
                    "routed": row["routing"]["success"],
                }
                for row in rows
            ]
        )
    )
    assert all(row["routing"]["success"] for row in rows)
    wirelengths = [row["routing"]["wirelength"] for row in rows]
    assert wirelengths == sorted(wirelengths)


def test_placement_benchmark_small(benchmark):
    """Micro-benchmark of the annealer itself on the 4-bit adder."""
    adder = qdi_ripple_adder(2)
    pack_design(adder.mapped)
    fabric = Fabric(ArchitectureParams(width=6, height=6))
    placement = benchmark.pedantic(
        place_design, args=(adder.mapped, fabric), kwargs={"seed": 3}, rounds=1, iterations=1
    )
    assert len(placement.plb_sites) == len(adder.mapped.plbs)


def test_full_flow_benchmark(benchmark):
    """End-to-end flow latency for the paper's QDI full adder."""
    flow = CadFlow(ArchitectureParams(width=5, height=5), FlowOptions())

    from repro.circuits.fulladder import qdi_full_adder

    result = benchmark.pedantic(flow.run, args=(qdi_full_adder(),), rounds=1, iterations=1)
    assert result.routing is not None and result.routing.success


if __name__ == "__main__":
    raise SystemExit(main())
