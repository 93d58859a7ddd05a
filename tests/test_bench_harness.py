"""The CAD perf harness: BENCH_cad.json schema and the regression floor.

``benchmarks/bench_cad_flow.py`` doubles as a CLI that emits the
machine-readable perf trajectory CI uploads per build.  These tests pin the
document schema (what dashboards and the floor check consume) and the floor
check's pass/fail behaviour, on a small grid so tier-1 stays fast.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_cad_flow  # noqa: E402  (path shim above)


def test_harness_document_schema(tmp_path):
    # --rounds 1 keeps it fast (the timing fields are still populated).
    exit_code = bench_cad_flow.main(
        [
            "--json", str(tmp_path / "BENCH_cad.json"),
            "--widths", "1,2",
            "--rounds", "1",
        ]
    )
    assert exit_code == 0
    document = json.loads((tmp_path / "BENCH_cad.json").read_text(encoding="utf-8"))

    assert document["schema"] == bench_cad_flow.BENCH_SCHEMA
    assert document["benchmark"] == "bench_cad_flow"
    assert document["timing_rounds"] == 1
    assert document["cpu_count"] >= 1
    assert [design["bits"] for design in document["designs"]] == [1, 2]
    for design in document["designs"]:
        assert set(design["stages_s"]) == {"pack", "place", "route"}
        placement = design["placement"]
        assert placement["moves_per_s"] > 0
        assert placement["net_evals"] <= placement["full_recompute_evals"]
        assert placement["eval_reduction"] > 1.0
        routing = design["routing"]
        assert routing["success"] is True
        assert sum(routing["reroutes_per_iteration"]) == routing["total_reroutes"]
        assert routing["reroutes_per_iteration"][0] == routing["nets"]
        astar = design["astar"]
        assert astar["parity"] is True
        assert astar["pops"] > 0 and astar["dijkstra_pops"] > 0
        assert astar["pop_reduction"] > 0
        timing = design["timing"]
        assert timing["cycle_time_ps"] > 0
        assert timing["timing_driven_cycle_time_ps"] > 0
        assert timing["timing_driven_flow_s"] > 0
        assert timing["timing_driven_flows_per_s"] > 0
    registry = document["registry"]
    assert [record["name"] for record in registry] == list(
        bench_cad_flow.REGISTRY_CIRCUITS
    )
    for record in registry:
        assert record["routing_success"] is True
    headline = document["headline"]
    assert headline["largest_design"] == document["designs"][-1]["name"]
    assert headline["router_route_s"] > 0
    assert headline["astar_pop_reduction"] > 0
    assert headline["timing_driven_flows_per_s"] > 0


def test_floor_check_passes_and_fails_correctly():
    document = bench_cad_flow.run_harness(widths=(1, 2), rounds=1)
    # A floor far below any real machine: healthy.
    assert bench_cad_flow.check_floor(
        document, {"placement_moves_per_s": 1.0, "regression_factor": 3}
    ) == []
    # An impossibly high floor: the regression trips.
    problems = bench_cad_flow.check_floor(
        document, {"placement_moves_per_s": 1e12, "regression_factor": 3}
    )
    assert problems and "below the floor" in problems[0]
    # A broken delta evaluator would trip the eval-reduction guard.
    problems = bench_cad_flow.check_floor(
        document, {"placement_moves_per_s": 1.0, "min_eval_reduction": 1e6}
    )
    assert problems and "eval reduction" in problems[0]
    # A router that stops converging on a harness design fails the check
    # even when throughput is healthy.
    import copy

    broken = copy.deepcopy(document)
    broken["designs"][-1]["routing"]["success"] = False
    problems = bench_cad_flow.check_floor(
        broken, {"placement_moves_per_s": 1.0, "regression_factor": 3}
    )
    assert problems and "failed to route" in problems[0]
    # A disabled / broken A* lower bound trips the pop-reduction guard.
    problems = bench_cad_flow.check_floor(
        document, {"placement_moves_per_s": 1.0, "min_astar_pop_reduction": 1e6}
    )
    assert problems and "pop reduction" in problems[0]
    # A timing-driven mode 3x+ below its throughput floor trips the guard.
    problems = bench_cad_flow.check_floor(
        document,
        {
            "placement_moves_per_s": 1.0,
            "timing_driven_flows_per_s": 1e9,
            "regression_factor": 3,
        },
    )
    assert problems and "timing-driven throughput" in problems[0]
    # A router that blows past its wall-clock floor trips the guard.
    problems = bench_cad_flow.check_floor(
        document,
        {"placement_moves_per_s": 1.0, "router_route_s": 1e-9, "regression_factor": 3},
    )
    assert problems and "router wall-clock" in problems[0]


def test_checked_in_floor_file_is_well_formed():
    floor = json.loads(
        (ROOT / "benchmarks" / "perf_floor.json").read_text(encoding="utf-8")
    )
    assert floor["placement_moves_per_s"] > 0
    assert floor["router_route_s"] > 0
    assert floor["regression_factor"] >= 1
    assert floor["min_eval_reduction"] >= 1
    assert floor["min_astar_pop_reduction"] >= 1
    assert floor["timing_driven_flows_per_s"] > 0
    # One implementation, one set of floors; they only ever tighten.
    assert "kernels" not in floor
    assert floor["placement_moves_per_s"] >= 100000
    assert floor["router_route_s"] <= 0.07
