"""Tests for the differential flow fuzzer and its regression corpus."""

import json
from pathlib import Path

import pytest

import repro.cad.flow as flow_module
import repro.fuzz as fuzz
from repro.cad.flow import CadFlow
from repro.cad.route import RoutingError
from repro.circuits.registry import build_circuit
from repro.fuzz import (
    FuzzConfig,
    FuzzFailure,
    FuzzResult,
    corpus_entry,
    fuzz_campaign,
    netlist_from_dict,
    netlist_to_dict,
    random_netlist,
    replay_corpus,
    run_pipeline,
    shrink,
    write_corpus_entry,
)
from repro.sim.netsim import GateLevelSimulator, evaluate_combinational

CORPUS_DIR = Path(__file__).parent / "corpus"


# ----------------------------------------------------------------------
# Generation and serialization
# ----------------------------------------------------------------------
def test_random_netlist_is_deterministic():
    first = netlist_to_dict(random_netlist(5))
    second = netlist_to_dict(random_netlist(5))
    assert first == second
    assert first != netlist_to_dict(random_netlist(6))


def test_random_netlists_are_acyclic():
    for seed in range(8):
        netlist = random_netlist(seed)
        netlist.topological_order()  # raises on a combinational cycle


def test_netlist_serialization_round_trips():
    netlist = random_netlist(3)
    data = netlist_to_dict(netlist)
    assert netlist_to_dict(netlist_from_dict(data)) == data
    # JSON-safe: survives an actual encode/decode.
    assert netlist_to_dict(netlist_from_dict(json.loads(json.dumps(data)))) == data


# ----------------------------------------------------------------------
# Pipeline smoke: seeded netlists and degenerate topologies
# ----------------------------------------------------------------------
def test_seeded_pipeline_smoke():
    for seed in range(12):
        outcome = run_pipeline(random_netlist(seed), seed=seed)
        assert outcome.ok, f"seed {seed}: {outcome.failure}"


def _pipeline_ok(data):
    outcome = run_pipeline(netlist_from_dict(data), seed=0)
    assert outcome.ok, outcome.failure
    return outcome


def test_single_cell_netlist():
    _pipeline_ok(
        {
            "name": "single",
            "inputs": ["a", "b"],
            "outputs": ["z"],
            "cells": [{"name": "u0", "type": "AND2", "connections": {"a0": "a", "a1": "b", "z": "z"}}],
        }
    )


def test_passthrough_input_as_output():
    _pipeline_ok(
        {
            "name": "passthrough",
            "inputs": ["a", "b"],
            "outputs": ["a", "z"],
            "cells": [{"name": "u0", "type": "AND2", "connections": {"a0": "a", "a1": "b", "z": "z"}}],
        }
    )


def test_constant_function_from_tied_inputs():
    # XOR2 with both pins tied to one net computes the constant 0; the
    # mapper used to crash building a truth table with duplicate inputs.
    _pipeline_ok(
        {
            "name": "tied",
            "inputs": ["a"],
            "outputs": ["z"],
            "cells": [{"name": "u0", "type": "XOR2", "connections": {"a0": "a", "a1": "a", "z": "z"}}],
        }
    )


def test_fanout_free_output_cones():
    _pipeline_ok(
        {
            "name": "cones",
            "inputs": ["a", "b", "c"],
            "outputs": ["p", "q"],
            "cells": [
                {"name": "u0", "type": "MAJ3", "connections": {"a0": "a", "a1": "b", "a2": "c", "z": "p"}},
                {"name": "u1", "type": "NOR3", "connections": {"a0": "a", "a1": "b", "a2": "c", "z": "q"}},
            ],
        }
    )


# ----------------------------------------------------------------------
# Stage attribution: the fuzzer blames the flow stage that failed
# ----------------------------------------------------------------------
ONE_GATE = {
    "name": "one_gate",
    "inputs": ["a", "b"],
    "outputs": ["z"],
    "cells": [{"name": "u0", "type": "AND2", "connections": {"a0": "a", "a1": "b", "z": "z"}}],
}


def test_stage_exception_keeps_its_class_and_names_its_stage(monkeypatch):
    def broken_route_design(*args, **kwargs):
        raise RoutingError("injected routing fault")

    monkeypatch.setattr(flow_module, "route_design", broken_route_design)
    with pytest.raises(RoutingError) as caught:
        CadFlow().run(build_circuit("qdi_full_adder"))
    assert type(caught.value) is RoutingError
    assert caught.value.flow_stage == "route"
    outcome = run_pipeline(netlist_from_dict(ONE_GATE), seed=0)
    assert outcome.failure is not None
    assert outcome.failure.signature == ("route", "exception")
    assert "injected routing fault" in outcome.failure.message


def test_failed_invariant_is_blamed_on_its_stage(monkeypatch):
    analyse_timing = flow_module.analyse_timing

    def zero_cycle_time(*args, **kwargs):
        report = analyse_timing(*args, **kwargs)
        report.cycle_time_ps = 0
        return report

    monkeypatch.setattr(flow_module, "analyse_timing", zero_cycle_time)
    outcome = run_pipeline(netlist_from_dict(ONE_GATE), seed=0)
    assert outcome.failure is not None
    assert outcome.failure.signature == ("timing", "cycle-time")


# ----------------------------------------------------------------------
# Committed corpus replays clean
# ----------------------------------------------------------------------
def test_corpus_replays_clean():
    results = replay_corpus(CORPUS_DIR)
    assert len(results) >= 6
    for path, outcome in results.items():
        assert outcome.ok, f"{path}: {outcome.failure}"


def test_netsim_c_element_livelock_regression():
    # Direct regression for the inertial-collapse fix: a stale same-timestamp
    # C-element evaluation used to schedule a conflicting output event, after
    # which the net oscillated forever (event-limit blowup).
    entry = json.loads(
        (CORPUS_DIR / "equivalence_exception_b9a693ac8b97.json").read_text()
    )
    netlist = netlist_from_dict(entry["netlist"])
    values = evaluate_combinational(netlist, {name: 1 for name in netlist.primary_inputs})
    assert set(values) == set(netlist.primary_outputs)
    simulator = GateLevelSimulator(netlist)
    simulator.initialise()
    simulator.set_inputs({name: 1 for name in netlist.primary_inputs})
    result = simulator.run(max_events=10_000)
    assert result.settled


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def test_shrink_minimises_to_failing_core(monkeypatch):
    # Fake failure oracle: the pipeline "fails" iff an OR3 cell is present.
    def fake_pipeline(netlist, seed=0, config=None, placement_seed=1):
        if any(cell.type_name == "OR3" for cell in netlist.iter_cells()):
            return FuzzResult(failure=FuzzFailure("map", "fake", "OR3 present"), stages_run=["map"])
        return FuzzResult(failure=None, stages_run=["map"])

    monkeypatch.setattr(fuzz, "run_pipeline", fake_pipeline)
    netlist = netlist_from_dict(
        {
            "name": "bloated",
            "inputs": ["a", "b", "c"],
            "outputs": ["z"],
            "cells": [
                {"name": "u0", "type": "AND2", "connections": {"a0": "a", "a1": "b", "z": "n0"}},
                {"name": "u1", "type": "XOR2", "connections": {"a0": "n0", "a1": "c", "z": "n1"}},
                {"name": "u2", "type": "OR3", "connections": {"a0": "n1", "a1": "a", "a2": "b", "z": "z"}},
            ],
        }
    )
    reduced = shrink(netlist, ("map", "fake"))
    types = sorted(cell.type_name for cell in reduced.iter_cells())
    assert types == ["OR3"]


# ----------------------------------------------------------------------
# Campaign driver, corpus writing and the CLI
# ----------------------------------------------------------------------
def test_campaign_smoke_is_clean(tmp_path):
    seen = []
    failures = fuzz_campaign(
        6, seed_base=100, corpus_dir=tmp_path, progress=lambda s, f: seen.append((s, f))
    )
    assert failures == []
    assert [s for s, _ in seen] == list(range(100, 106))
    assert all(f is None for _, f in seen)
    assert list(tmp_path.glob("*.json")) == []


def test_corpus_entry_writes_and_replays(tmp_path):
    config = FuzzConfig()
    netlist = random_netlist(2, config)
    failure = FuzzFailure("route", "invariant", "synthetic example")
    path = write_corpus_entry(tmp_path, corpus_entry(netlist, failure, 2, config))
    assert path.name.startswith("route_invariant_")
    results = replay_corpus(tmp_path)
    assert list(results) == [str(path)]
    assert results[str(path)].ok  # the netlist itself is healthy


def test_cli_run_and_replay(tmp_path, capsys):
    assert fuzz.main(["run", "--count", "3", "--seed-base", "40", "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert fuzz.main(["replay", str(CORPUS_DIR)]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out
