#!/usr/bin/env python3
"""Sweep engine demo: the Python API and the ``repro-sweep`` CLI.

Part 1 (API): runs the full circuit registry over two fabric sizes in
parallel (cold cache), once more to show the content-addressed store serving
every point, and writes CSV/JSON reports.

Part 2 (CLI): drives the same engine through the ``repro-sweep`` subcommands
-- ``run`` (twice: the second run demonstrates the placement cache serving an
options-only channel-width change), ``stats``, ``gc`` and ``export`` -- by
calling :func:`repro.cli.main` in-process, so the demo works without
installing the console script.  From a shell the equivalent is::

    repro-sweep run --circuit qdi_full_adder --channel-width 8 --store CACHE
    repro-sweep run --circuit qdi_full_adder --channel-width 10 --store CACHE
    repro-sweep stats --store CACHE
    repro-sweep gc --store CACHE
    repro-sweep export --store CACHE --csv out.csv

Run with::

    PYTHONPATH=src python examples/sweep_demo.py
"""

import tempfile
from pathlib import Path

from repro import api, cli
from repro.cad.flow import FlowOptions
from repro.core.params import ArchitectureParams
from repro.sweep import RunnerConfig, format_report, write_csv, write_json


def demo_api(cache_dir: str) -> None:
    architectures = (ArchitectureParams(), ArchitectureParams().scaled(8, 8))
    options = FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
    config = RunnerConfig(executor="process", workers=4)

    print("=== Cold run: 4 workers, empty cache ===")
    report = api.run_sweep(
        architectures=architectures, options=options, store=cache_dir, config=config
    )
    print(format_report(report))
    print()

    print("=== Warm run: every point served from the store ===")
    cached = api.run_sweep(
        architectures=architectures, options=options, store=cache_dir, config=config
    )
    print(f"stats: {cached.stats()}")
    assert cached.flow_executions == 0, "second run must not re-execute any flow"
    assert cached.summaries() == report.summaries(), "cache must be transparent"
    print()

    out_dir = Path(tempfile.gettempdir()) / "repro-sweep-reports"
    csv_path = write_csv(report, out_dir / "registry_sweep.csv")
    json_path = write_json(report, out_dir / "registry_sweep.json")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    print()


def demo_cli(cache_dir: str) -> None:
    def run(*argv: str) -> None:
        print(f"$ repro-sweep {' '.join(argv)}")
        code = cli.main(list(argv))
        assert code == 0, f"repro-sweep {argv[0]} exited {code}"
        print()

    print("=== The same engine from the shell: repro-sweep ===")
    run(
        "run", "--circuit", "qdi_full_adder",
        "--channel-width", "8", "--store", cache_dir,
    )
    # Channel width is routing-only: the second run misses the summary cache
    # (different result!) but reuses the cached placement -- watch the
    # placement_cache_hit column flip to True.
    run(
        "run", "--circuit", "qdi_full_adder",
        "--channel-width", "10", "--store", cache_dir,
    )
    run("stats", "--store", cache_dir)
    run("gc", "--store", cache_dir, "--dry-run")
    out_dir = Path(tempfile.gettempdir()) / "repro-sweep-reports"
    run("export", "--store", cache_dir, "--csv", str(out_dir / "cli_export.csv"))


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as cache_dir:
        demo_api(cache_dir)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-cli-") as cache_dir:
        demo_cli(cache_dir)


if __name__ == "__main__":
    main()
