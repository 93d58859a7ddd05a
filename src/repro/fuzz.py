"""Differential fuzzer for the CAD flow (``repro-fuzz``).

The fuzzer generates seeded random gate netlists — bounded-width,
bounded-depth DAGs over the standard cell library — maps each one with
``generic_map`` and runs :meth:`repro.cad.flow.CadFlow.run` on the mapped
design, the flow users run (pack -> place -> route -> timing -> bitgen).

Two kinds of oracle run along the way:

* **Differential simulation equivalence**: the mapped LE network is simulated
  against the pre-map gate netlist (:func:`repro.sim.netsim.evaluate_combinational`
  as the golden model) over a deterministic vector set.  Any disagreement on
  a primary output is a mapping/decomposition bug.
* **Invariants of the finished flow**: ``MappedDesign.validate()`` is clean
  and LEs fit the LE budget after mapping; once the flow has run, packing
  covers every LE within PLB capacity, the placement covers exactly the
  design with no double-booked site or pad, every routed tree is connected
  and capacity-respecting and every net that leaves a block got routed, and
  the timing report has a positive cycle time.  An exception is blamed on
  the flow stage that raised it (``exc.flow_stage``).

Failures **shrink** to a minimal reproducer (greedy cell removal while the
same stage/check keeps failing) and serialize to a corpus directory; corpus
entries replay as regression tests (``repro-fuzz replay`` or
``tests/test_fuzz.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Mapping, Sequence

from repro.cad.flow import CadFlow, FlowOptions
from repro.cad.lemap import MappedDesign
from repro.cad.techmap import generic_map
from repro.circuits.generate import recommended_fabric
from repro.netlist.celltypes import STANDARD_LIBRARY
from repro.netlist.netlist import Netlist, PortDirection
from repro.sim.lesim import simulate_mapped_design
from repro.sim.netsim import evaluate_combinational
from repro.verify.invariants import (
    le_budget_problems,
    mapping_problems,
    packing_capacity_problems,
    packing_coverage_problem,
    placement_problem,
    routing_problem,
    timing_problem,
)

#: Serialization format version of corpus entries.
CORPUS_FORMAT = 1

#: Combinational cell types the generator draws from (sequential C-elements
#: are added with low probability, matched-delay cells likewise).
COMBINATIONAL_POOL = (
    "BUF", "INV",
    "AND2", "AND3", "AND4", "OR2", "OR3", "OR4",
    "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
    "XOR2", "XOR3", "XNOR2", "XNOR3",
    "MAJ3", "MUX2",
)
SEQUENTIAL_POOL = ("C2", "C3")


# ======================================================================
# Configuration / result records
# ======================================================================
@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the random netlist generator and the checking budget."""

    max_inputs: int = 6
    max_cells: int = 24
    #: Probability that a generated cell is a matched-delay element.
    p_delay: float = 0.06
    #: Probability that a generated cell is a Muller C-element.
    p_sequential: float = 0.08
    #: Probability that one extra primary input is also exported as a
    #: primary output (pad-to-pad pass-through, a known-degenerate shape).
    p_passthrough: float = 0.15
    #: Probability that a cell input repeats an already-picked net (drives
    #: constant-output cones like ``XOR(a, a)``).
    p_repeat_input: float = 0.1
    #: Random simulation vectors when the input count is too large to
    #: enumerate exhaustively.
    vectors: int = 16

    def to_dict(self) -> dict[str, object]:
        return {
            "max_inputs": self.max_inputs,
            "max_cells": self.max_cells,
            "p_delay": self.p_delay,
            "p_sequential": self.p_sequential,
            "p_passthrough": self.p_passthrough,
            "p_repeat_input": self.p_repeat_input,
            "vectors": self.vectors,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "FuzzConfig":
        known = {f: data[f] for f in FuzzConfig.__dataclass_fields__ if f in data}
        return FuzzConfig(**known)  # type: ignore[arg-type]


@dataclass
class FuzzFailure:
    """One pipeline check that did not hold for one netlist."""

    stage: str
    check: str
    message: str

    @property
    def signature(self) -> tuple[str, str]:
        """What the shrinker preserves: the failing stage and check."""
        return (self.stage, self.check)


@dataclass
class FuzzResult:
    """Outcome of pushing one netlist through the pipeline."""

    failure: FuzzFailure | None = None
    stages_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failure is None


# ======================================================================
# Netlist serialization (corpus format)
# ======================================================================
def netlist_to_dict(netlist: Netlist) -> dict[str, object]:
    """A JSON-safe structural description of *netlist*."""
    return {
        "name": netlist.name,
        "inputs": list(netlist.primary_inputs),
        "outputs": list(netlist.primary_outputs),
        "cells": [
            {
                "name": cell.name,
                "type": cell.type_name,
                "connections": dict(cell.connections),
                **({"attributes": dict(cell.attributes)} if cell.attributes else {}),
            }
            for cell in netlist.iter_cells()
        ],
    }


def netlist_from_dict(data: Mapping[str, object]) -> Netlist:
    """Rebuild a netlist from :func:`netlist_to_dict` output."""
    netlist = Netlist(str(data.get("name", "fuzz")), library=STANDARD_LIBRARY)
    for name in data.get("inputs", []):
        netlist.add_port(str(name), PortDirection.INPUT)
    for cell in data.get("cells", []):
        netlist.add_cell(
            str(cell["name"]),
            str(cell["type"]),
            {str(k): str(v) for k, v in cell["connections"].items()},
            **{str(k): v for k, v in cell.get("attributes", {}).items()},
        )
    for name in data.get("outputs", []):
        netlist.add_port(str(name), PortDirection.OUTPUT)
    return netlist


# ======================================================================
# Random netlist generation
# ======================================================================
def random_netlist(seed: int, config: FuzzConfig | None = None) -> Netlist:
    """A seeded random DAG over the supported cell types.

    Cells only read nets that already exist (primary inputs or earlier cell
    outputs), so the result is combinationally acyclic by construction.
    Degenerate shapes are produced on purpose: single-cell netlists,
    pad-to-pad pass-through nets, repeated cell inputs (constant cones) and
    fanout-free output cones all appear with tuned probabilities.
    """
    config = config if config is not None else FuzzConfig()
    rng = Random(seed)
    netlist = Netlist(f"fuzz_{seed}", library=STANDARD_LIBRARY)

    n_inputs = rng.randint(1, config.max_inputs)
    available = [f"i{k}" for k in range(n_inputs)]
    for name in available:
        netlist.add_port(name, PortDirection.INPUT)

    n_cells = rng.randint(1, config.max_cells)
    for index in range(n_cells):
        roll = rng.random()
        if roll < config.p_delay:
            type_name = "DELAY"
        elif roll < config.p_delay + config.p_sequential:
            type_name = rng.choice(SEQUENTIAL_POOL)
        else:
            type_name = rng.choice(COMBINATIONAL_POOL)
        cell_type = STANDARD_LIBRARY.get(type_name)
        output_net = f"n{index}"
        connections = {cell_type.outputs[0]: output_net}
        picked: list[str] = []
        for pin in cell_type.inputs:
            if picked and rng.random() < config.p_repeat_input:
                connections[pin] = rng.choice(picked)
            else:
                # Bias toward recent nets so depth actually grows.
                pool = available[-8:] if rng.random() < 0.6 else available
                connections[pin] = rng.choice(pool)
            picked.append(connections[pin])
        attributes: dict[str, object] = {}
        if type_name == "DELAY":
            attributes["delay"] = rng.randrange(100, 1300, 100)
        netlist.add_cell(f"u{index}", cell_type, connections, **attributes)
        available.append(output_net)

    # Primary outputs: every sink-less cell output (fanout-free cones stay),
    # plus occasionally an internal net with fanout and a pass-through input.
    internal = [f"n{index}" for index in range(n_cells)]
    sinkless = [net for net in internal if not netlist.nets[net].sinks]
    outputs = set(sinkless)
    with_fanout = [net for net in internal if net not in outputs]
    if with_fanout and rng.random() < 0.5:
        outputs.add(rng.choice(with_fanout))
    if rng.random() < config.p_passthrough:
        outputs.add(rng.choice(netlist.primary_inputs))
    if not outputs:
        outputs.add(rng.choice(internal))
    for net in sorted(outputs):
        netlist.add_port(net, PortDirection.OUTPUT)
    return netlist


def _simulation_vectors(netlist: Netlist, seed: int, config: FuzzConfig) -> list[dict[str, int]]:
    inputs = list(netlist.primary_inputs)
    if len(inputs) <= 4:
        return [
            {name: (row >> k) & 1 for k, name in enumerate(inputs)}
            for row in range(1 << len(inputs))
        ]
    rng = Random(seed ^ 0x5EED)
    vectors = [
        {name: 0 for name in inputs},
        {name: 1 for name in inputs},
    ]
    vectors.extend(
        {name: rng.randint(0, 1) for name in inputs} for _ in range(config.vectors)
    )
    return vectors


# ======================================================================
# Pipeline with invariant checks
# ======================================================================
def _race_free_outputs(netlist: Netlist) -> list[str]:
    """Primary outputs with no state-holding cell in their transitive fan-in.

    Only those have delay-independent values: a C-element's final state
    depends on the input arrival order, and remapping (cone collapse, LE
    delays) legitimately changes that order.  Sequential cones still run
    through every structural stage check; they are just excluded from the
    differential simulation oracle.
    """
    tainted: set[str] = set()
    frontier = deque(
        net for cell in netlist.sequential_cells() for net in cell.output_nets().values()
    )
    while frontier:
        net = frontier.popleft()
        if net in tainted:
            continue
        tainted.add(net)
        for cell_name, _pin in netlist.nets[net].sinks:
            frontier.extend(netlist.cell(cell_name).output_nets().values())
    return [net for net in netlist.primary_outputs if net not in tainted]


def _check_equivalence(
    netlist: Netlist, mapped: MappedDesign, seed: int, config: FuzzConfig
) -> str | None:
    """Compare mapped-LE simulation against the gate netlist; None when equal."""
    outputs = _race_free_outputs(netlist)
    if not outputs:
        return None
    for assignment in _simulation_vectors(netlist, seed, config):
        golden = evaluate_combinational(netlist, assignment)
        simulator = simulate_mapped_design(mapped)
        simulator.initialise()
        simulator.set_inputs({n: assignment[n] for n in mapped.primary_inputs})
        simulator.run()
        for net in outputs:
            got = simulator.value(net)
            if got != golden[net]:
                vector = "".join(str(assignment[n]) for n in netlist.primary_inputs)
                return (
                    f"output {net!r} = {got}, golden {golden[net]} "
                    f"(inputs {list(netlist.primary_inputs)} = {vector})"
                )
    return None


def run_pipeline(
    netlist: Netlist,
    seed: int = 0,
    config: FuzzConfig | None = None,
    placement_seed: int = 1,
) -> FuzzResult:
    """Map *netlist*, check equivalence, then run and check the whole flow."""
    config = config if config is not None else FuzzConfig()
    result = FuzzResult()

    def fail(stage: str, check: str, message: str) -> FuzzResult:
        result.failure = FuzzFailure(stage=stage, check=check, message=message)
        return result

    result.stages_run.append("map")
    try:
        mapped = generic_map(netlist)
    except Exception:
        return fail("map", "exception", traceback.format_exc(limit=4))
    issues = mapping_problems(mapped)
    if issues:
        return fail("map", "validate", "; ".join(issues))
    budget_problems = le_budget_problems(mapped)
    if budget_problems:
        return fail("map", "le-budget", budget_problems[0])

    result.stages_run.append("equivalence")
    try:
        mismatch = _check_equivalence(netlist, mapped, seed, config)
    except Exception:
        return fail("equivalence", "exception", traceback.format_exc(limit=4))
    if mismatch:
        return fail("equivalence", "mismatch", mismatch)

    if not mapped.les:
        # A netlist of only DELAY cells maps to PDEs alone; there is nothing
        # to pack or place, which the backend rejects by design.
        return result

    result.stages_run.append("flow")
    try:
        # A deliberately generous fabric: routing failure then signals a
        # bug.  Sizing it packs the design, so its failures are packing's.
        flow = CadFlow(
            recommended_fabric(mapped, slack=2), FlowOptions(placement_seed=placement_seed)
        )
        flowed = flow.run(mapped)
    except Exception as exc:
        return fail(getattr(exc, "flow_stage", "pack"), "exception", traceback.format_exc(limit=4))
    design, placement = flowed.mapped, flowed.placement
    problem = packing_coverage_problem(design)
    if problem:
        return fail("pack", "coverage", problem)
    capacity = packing_capacity_problems(design)
    if capacity:
        return fail("pack", "capacity", capacity[0])
    problem = placement_problem(design, placement, flow.fabric)
    if problem:
        return fail("place", "legality", problem)
    problem = routing_problem(design, placement, flow.rr_graph, flowed.routing)
    if problem:
        return fail("route", "invariant", problem)
    problem = timing_problem(design, flowed.timing)
    if problem:
        return fail("timing", "cycle-time", problem)
    return result


# ======================================================================
# Shrinking
# ======================================================================
def _dead_cell_elimination(netlist: Netlist) -> Netlist:
    """Drop cells whose outputs reach no primary output (iterated)."""
    data = netlist_to_dict(netlist)
    while True:
        rebuilt = netlist_from_dict(data)
        dead = [
            cell.name
            for cell in rebuilt.iter_cells()
            if all(
                not rebuilt.nets[net].sinks and not rebuilt.nets[net].is_primary_output
                for net in cell.output_nets().values()
            )
        ]
        if not dead:
            return rebuilt
        data["cells"] = [c for c in data["cells"] if c["name"] not in dead]


def _removal_candidates(netlist: Netlist) -> list[dict[str, object]]:
    """Variants of *netlist* with one cell removed (output promoted to a PI)."""
    base = netlist_to_dict(netlist)
    variants = []
    for removed in base["cells"]:
        cells = [c for c in base["cells"] if c["name"] != removed["name"]]
        out_nets = [
            net
            for pin, net in removed["connections"].items()
            if pin not in STANDARD_LIBRARY.get(removed["type"]).inputs
        ]
        inputs = list(base["inputs"])
        for net in out_nets:
            still_read = any(
                net in (c["connections"][p] for p in STANDARD_LIBRARY.get(c["type"]).inputs)
                for c in cells
            )
            if (still_read or net in base["outputs"]) and net not in inputs:
                inputs.append(net)
        variants.append(
            {"name": base["name"], "inputs": inputs, "outputs": list(base["outputs"]), "cells": cells}
        )
    return variants


def shrink(
    netlist: Netlist,
    signature: tuple[str, str],
    seed: int = 0,
    config: FuzzConfig | None = None,
    max_rounds: int = 40,
) -> Netlist:
    """Greedy minimisation: remove cells while the same stage/check fails.

    Removed cells have their output nets promoted to primary inputs so the
    remaining structure stays a valid netlist; unused primary inputs and
    unreferenced outputs are pruned at the end.
    """

    def still_fails(candidate: Netlist) -> bool:
        outcome = run_pipeline(candidate, seed=seed, config=config)
        return outcome.failure is not None and outcome.failure.signature == signature

    current = _dead_cell_elimination(netlist)
    if not still_fails(current):
        current = netlist  # the dead cone was load-bearing for the failure
    for _ in range(max_rounds):
        for variant in _removal_candidates(current):
            candidate = _dead_cell_elimination(netlist_from_dict(variant))
            if candidate.cells and still_fails(candidate):
                current = candidate
                break
        else:
            break
    # Prune primary inputs nothing reads (unless they pass straight through).
    data = netlist_to_dict(current)
    used = {
        net
        for cell in data["cells"]
        for pin, net in cell["connections"].items()
        if pin in STANDARD_LIBRARY.get(cell["type"]).inputs
    }
    pruned = [n for n in data["inputs"] if n in used or n in data["outputs"]]
    if pruned != data["inputs"]:
        data["inputs"] = pruned
        candidate = netlist_from_dict(data)
        if still_fails(candidate):
            current = candidate
    return current


# ======================================================================
# Corpus
# ======================================================================
def corpus_entry(
    netlist: Netlist,
    failure: FuzzFailure,
    seed: int,
    config: FuzzConfig,
) -> dict[str, object]:
    return {
        "format": CORPUS_FORMAT,
        "seed": seed,
        "config": config.to_dict(),
        "stage": failure.stage,
        "check": failure.check,
        "message": failure.message,
        "netlist": netlist_to_dict(netlist),
    }


def write_corpus_entry(directory: Path, entry: Mapping[str, object]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(entry, indent=2, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    path = directory / f"{entry['stage']}_{entry['check']}_{digest}.json"
    path.write_text(blob + "\n", encoding="utf-8")
    return path


def replay_entry(entry: Mapping[str, object]) -> FuzzResult:
    """Re-run one corpus entry's netlist through the pipeline."""
    config = FuzzConfig.from_dict(entry.get("config", {}))
    netlist = netlist_from_dict(entry["netlist"])
    return run_pipeline(netlist, seed=int(entry.get("seed", 0)), config=config)


def replay_corpus(directory: Path) -> dict[str, FuzzResult]:
    """Replay every ``*.json`` entry under *directory* (sorted, recursive)."""
    results: dict[str, FuzzResult] = {}
    for path in sorted(directory.rglob("*.json")):
        entry = json.loads(path.read_text(encoding="utf-8"))
        results[str(path)] = replay_entry(entry)
    return results


# ======================================================================
# Campaign driver
# ======================================================================
def fuzz_campaign(
    count: int,
    seed_base: int = 0,
    config: FuzzConfig | None = None,
    corpus_dir: Path | None = None,
    progress=None,
) -> list[tuple[int, FuzzFailure, Netlist]]:
    """Run *count* seeded netlists; shrink and record every failure."""
    config = config if config is not None else FuzzConfig()
    failures: list[tuple[int, FuzzFailure, Netlist]] = []
    for offset in range(count):
        seed = seed_base + offset
        netlist = random_netlist(seed, config)
        outcome = run_pipeline(netlist, seed=seed, config=config)
        if outcome.ok:
            if progress:
                progress(seed, None)
            continue
        reduced = shrink(netlist, outcome.failure.signature, seed=seed, config=config)
        final = run_pipeline(reduced, seed=seed, config=config)
        failure = final.failure if final.failure is not None else outcome.failure
        failures.append((seed, failure, reduced))
        if corpus_dir is not None:
            write_corpus_entry(corpus_dir, corpus_entry(reduced, failure, seed, config))
        if progress:
            progress(seed, failure)
    return failures


# ======================================================================
# CLI
# ======================================================================
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Differential fuzzer for the async-FPGA CAD flow",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="fuzz N random netlists through the flow")
    run.add_argument("--count", type=int, default=50, help="netlists to generate")
    run.add_argument("--seed-base", type=int, default=0, help="first seed of the range")
    run.add_argument("--corpus", type=Path, default=None, help="directory for shrunk reproducers")
    run.add_argument("--max-cells", type=int, default=FuzzConfig.max_cells)
    run.add_argument("--max-inputs", type=int, default=FuzzConfig.max_inputs)
    run.add_argument("--vectors", type=int, default=FuzzConfig.vectors)
    run.set_defaults(handler=_cmd_run)

    replay = subparsers.add_parser("replay", help="re-run saved corpus reproducers")
    replay.add_argument("paths", nargs="+", type=Path, help="corpus directories or entry files")
    replay.set_defaults(handler=_cmd_replay)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        max_inputs=args.max_inputs, max_cells=args.max_cells, vectors=args.vectors
    )

    def progress(seed: int, failure: FuzzFailure | None) -> None:
        if failure is not None:
            print(f"seed {seed}: FAIL {failure.stage}/{failure.check}: {failure.message}")

    failures = fuzz_campaign(
        args.count,
        seed_base=args.seed_base,
        config=config,
        corpus_dir=args.corpus,
        progress=progress,
    )
    print(
        f"fuzzed {args.count} netlists (seeds {args.seed_base}.."
        f"{args.seed_base + args.count - 1}): {len(failures)} failure(s)"
    )
    if failures and args.corpus is not None:
        print(f"shrunk reproducers written to {args.corpus}")
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    failed = 0
    total = 0
    for path in args.paths:
        if path.is_dir():
            results = replay_corpus(path)
        elif path.exists():
            results = {str(path): replay_entry(json.loads(path.read_text(encoding="utf-8")))}
        else:
            print(f"error: no such corpus path: {path}", file=sys.stderr)
            return 2
        for name, outcome in results.items():
            total += 1
            if outcome.ok:
                print(f"PASS {name}")
            else:
                failed += 1
                print(
                    f"FAIL {name}: {outcome.failure.stage}/{outcome.failure.check}: "
                    f"{outcome.failure.message}"
                )
    print(f"replayed {total} entries, {failed} failing")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
