"""``repro-sweep``: the command-line interface to the batch sweep engine.

Six subcommands over :func:`repro.api.run_sweep` and
:class:`repro.sweep.SweepResultStore`:

* ``run``    -- execute a (circuit × architecture × options) grid, optionally
  cached, parallel and exported to CSV/JSON; ``--timeout`` / ``--retries`` /
  ``--backoff`` / ``--fail-fast`` drive the supervision layer
  (``docs/robustness.md``);
* ``stats``  -- store observability: record counts, on-disk bytes, how many
  records belong to retired code fingerprints, per-status breakdowns and
  the quarantine;
* ``gc``     -- delete retired-fingerprint records (``--keep-latest N``
  spares the N most recent retired generations; ``--dry-run`` previews) and
  reap the quarantine;
* ``export`` -- render a populated store to CSV / JSON / a text table
  without re-running anything;
* ``clear``  -- delete every record;
* ``chaos``  -- run a seeded fault-injection campaign
  (:func:`repro.sweep.chaos.run_campaign`) and verify every recovery path:
  crashes retried, repeat-killers poisoned, torn writes quarantined,
  unaffected summaries bit-identical to a fault-free run.

Installed as a console script by ``setup.py``; also runnable without
installation as ``python -m repro.cli``.  See ``docs/sweep.md`` for a
walk-through of the cache lifecycle the commands operate on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cad.flow import FlowOptions
from repro.core.params import ArchitectureParams, RoutingParams
from repro.sweep import (
    StoreLockTimeout,
    SweepResultStore,
    available_executors,
    format_report,
    format_stats,
    report_from_records,
    write_csv,
    write_json,
)


def _parse_grid(text: str) -> tuple[int, int]:
    """``"6x6"`` → ``(6, 6)``; raised errors become argparse messages."""
    try:
        width, _, height = text.lower().partition("x")
        return (int(width), int(height))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must look like WIDTHxHEIGHT (e.g. 6x6), got {text!r}"
        ) from None


def _positive_float(text: str) -> float:
    """A strictly positive float; violations exit 2 like any usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _probability(text: str) -> float:
    value = _nonnegative_float(text)
    if value > 1:
        raise argparse.ArgumentTypeError(f"must be a probability in [0, 1], got {text!r}")
    return value


def _attempts(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _architectures(args: argparse.Namespace) -> list[ArchitectureParams]:
    """The architecture axis: every grid × every channel width."""
    grids = args.grid or [(None, None)]
    widths = args.channel_width or [None]
    reference = ArchitectureParams()
    architectures = []
    for grid in grids:
        for channel_width in widths:
            routing = (
                RoutingParams(channel_width=channel_width)
                if channel_width is not None
                else reference.routing
            )
            architectures.append(
                ArchitectureParams(
                    width=grid[0] if grid[0] is not None else reference.width,
                    height=grid[1] if grid[1] is not None else reference.height,
                    routing=routing,
                )
            )
    return architectures


def _options(args: argparse.Namespace) -> list[FlowOptions]:
    """The options axis: seeds × placement efforts × timing tradeoffs."""
    seeds = args.seed or [1]
    if args.analysis_only:
        return [
            FlowOptions(
                run_placement=False,
                run_routing=False,
                generate_bitstream=False,
                placement_seed=seed,
            )
            for seed in seeds
        ]
    efforts = args.placement_effort or [1.0]
    timing_driven = bool(args.timing_driven)
    tradeoffs = args.timing_tradeoff or [0.5]
    if args.timing_tradeoff and not timing_driven:
        # An explicit tradeoff axis implies the timing-driven flow.
        timing_driven = True
    return [
        FlowOptions(
            placement_seed=seed,
            placement_effort=effort,
            timing_driven=timing_driven,
            timing_tradeoff=tradeoff,
        )
        for seed in seeds
        for effort in efforts
        for tradeoff in tradeoffs
    ]


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import api

    report = api.run_sweep(
        circuits=args.circuit or None,
        architectures=_architectures(args),
        options=_options(args),
        workers=args.workers,
        cache_dir=args.store,
        executor=args.executor,
        placement_cache=not args.no_placement_cache,
        routing_cache=args.routing_cache,
        artifact_dir=args.artifacts,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        fail_fast=args.fail_fast,
        fallback=tuple(args.fallback or ()),
    )
    if args.csv:
        print(f"wrote {write_csv(report, args.csv)}")
    if args.json:
        print(f"wrote {write_json(report, args.json)}")
    if args.quiet:
        print(format_stats(report))
    else:
        print(format_report(report))
    if args.strict and report.error_count:
        return 1
    return 0


def _open_store(args: argparse.Namespace) -> SweepResultStore:
    """Open an existing store for inspection; never create one as a side effect."""
    return SweepResultStore(args.store, create=False)


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        stats = _open_store(args).stats()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in stats.items():
        print(f"{key:>20}: {value}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    try:
        outcome = _open_store(args).gc(
            keep_latest=args.keep_latest,
            dry_run=args.dry_run,
            max_bytes=args.max_bytes,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StoreLockTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verb = "would remove" if args.dry_run else "removed"
    message = (
        f"{verb} {outcome['removed']} record(s) "
        f"({outcome['bytes_freed']} bytes) across "
        f"{outcome['generations_removed']} retired generation(s); "
        f"kept {outcome['kept_current']} current + "
        f"{outcome['kept_retired']} spared retired record(s)"
    )
    if args.max_bytes is not None:
        message += f"; {outcome['size_evicted']} evicted for the size bound"
    print(message)
    return 0


def _export_bitstreams(args: argparse.Namespace) -> int:
    """Render one ``.bit`` file per stored flow from its stage artifacts."""
    import re
    from pathlib import Path

    from repro.artifacts import ArtifactStore, load_flow_artifacts

    try:
        artifact_store = ArtifactStore(args.artifacts, create=False)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    views = load_flow_artifacts(artifact_store)
    outdir = Path(args.bitstreams)
    outdir.mkdir(parents=True, exist_ok=True)
    written = 0
    skipped = 0
    for view in views:
        bitstream = view.render_bitstream()
        if bitstream is None:
            skipped += 1
            continue
        arch = view.architecture
        circuit = re.sub(r"[^A-Za-z0-9_.-]+", "_", view.circuit)
        name = (
            f"{circuit}_{arch.width}x{arch.height}"
            f"_cw{arch.routing.channel_width}_{view.flow_key[:12]}.bit"
        )
        (outdir / name).write_bytes(bitstream.to_bytes())
        written += 1
    if not written:
        print(
            "no renderable flow artifacts in the store for the current "
            "code fingerprint"
        )
        return 1
    message = f"wrote {written} bitstream(s) to {outdir}"
    if skipped:
        message += f" ({skipped} flow(s) lacked renderable artifacts)"
    print(message)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.fingerprint import code_fingerprint

    if args.bitstreams and not args.artifacts:
        print("error: --bitstreams requires --artifacts DIR", file=sys.stderr)
        return 2
    try:
        store = _open_store(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bitstreams:
        code = _export_bitstreams(args)
        if code:
            return code
        if not (args.csv or args.json or args.text):
            return 0
    report = report_from_records(
        store.records(),
        current_fingerprint=None if args.all_generations else code_fingerprint(),
    )
    if not report.outcomes:
        print("store holds no flow records" + (
            "" if args.all_generations else " for the current code fingerprint"
        ))
        return 1
    wrote_file = False
    if args.csv:
        print(f"wrote {write_csv(report, args.csv)}")
        wrote_file = True
    if args.json:
        print(f"wrote {write_json(report, args.json)}")
        wrote_file = True
    if args.text or not wrote_file:
        print(format_report(report))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault-injection campaign and audit its recovery paths."""
    import json as json_module

    from repro.sweep.chaos import FaultPlan, run_campaign
    from repro.sweep.runner import RetryPolicy
    from repro.sweep.spec import SweepSpec

    widths = args.channel_width or [8, 10]
    architectures = [
        ArchitectureParams(routing=RoutingParams(channel_width=width))
        for width in widths
    ]
    options = (
        FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
        if args.analysis_only
        else FlowOptions()
    )
    spec = SweepSpec.build(args.circuit or ["qdi_full_adder"], architectures, options)
    labels = [point.label() for point in spec.points()]
    unknown = [label for label in (args.poison or []) if label not in labels]
    if unknown:
        print(
            f"error: --poison label(s) {', '.join(unknown)} not in the grid "
            f"({', '.join(labels)})",
            file=sys.stderr,
        )
        return 2

    plan = FaultPlan.build(
        seed=args.seed,
        p_crash=args.crash,
        p_hang=args.hang,
        p_oserror=args.oserror,
        p_torn_write=args.torn,
        faulted_attempts=args.faulted_attempts,
        poison=args.poison or (),
    )
    outcome = run_campaign(
        spec,
        plan,
        store=args.store,
        executor=args.executor,
        workers=args.workers,
        timeout_s=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries),
        max_point_crashes=args.max_point_crashes,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(outcome, handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    print(json_module.dumps(outcome, indent=1, sort_keys=True))

    failures: list[str] = []
    if not outcome["completed"]:
        failures.append("the campaign did not produce a record for every point")
    if not outcome["summaries_match"]:
        failures.append(
            "surviving summaries diverged from the fault-free baseline: "
            + ", ".join(outcome["summary_mismatches"])  # type: ignore[arg-type]
        )
    poisoned = outcome["statuses"]["poisoned"]  # type: ignore[index]
    if args.poison and poisoned < len(args.poison):
        failures.append(
            f"expected >= {len(args.poison)} poisoned point(s), got {poisoned}"
        )
    if outcome["torn_keys"] and outcome["quarantined"] < len(outcome["torn_keys"]):  # type: ignore[arg-type]
        failures.append(
            f"{len(outcome['torn_keys'])} torn write(s) but only "  # type: ignore[arg-type]
            f"{outcome['quarantined']} quarantined file(s)"
        )
    if failures:
        for failure in failures:
            print(f"chaos: FAIL: {failure}", file=sys.stderr)
        return 1
    print("chaos: all recovery paths held")
    return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    try:
        removed = SweepResultStore(args.store).clear()
    except StoreLockTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"removed {removed} record(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run, cache and inspect CAD-flow sweeps of the "
        "multi-style asynchronous FPGA reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="execute a sweep grid (cached when --store is given)"
    )
    run.add_argument(
        "--circuit",
        action="append",
        metavar="NAME",
        help="registry circuit name; repeatable (default: the full registry)",
    )
    run.add_argument(
        "--grid",
        action="append",
        type=_parse_grid,
        metavar="WxH",
        help="fabric grid size, e.g. 6x6; repeatable (default: the reference 6x6)",
    )
    run.add_argument(
        "--channel-width",
        action="append",
        type=int,
        metavar="N",
        help="routing channel width; repeatable (default: the reference 8)",
    )
    run.add_argument(
        "--seed",
        action="append",
        type=int,
        metavar="N",
        help="placement seed; repeatable (default: 1)",
    )
    run.add_argument(
        "--analysis-only",
        action="store_true",
        help="skip placement/routing/bitstream (map + pack + metrics only)",
    )
    run.add_argument(
        "--placement-effort",
        action="append",
        type=float,
        metavar="X",
        help="annealing effort multiplier; repeatable axis (default: 1.0)",
    )
    run.add_argument(
        "--timing-driven",
        action="store_true",
        help="run the timing-driven flow (criticality-fed placement/routing "
        "+ critical-net re-route; adds cycle_time improvement columns)",
    )
    run.add_argument(
        "--timing-tradeoff",
        action="append",
        type=float,
        metavar="L",
        help="placement blend weight lambda in [0,1]; repeatable axis "
        "(implies --timing-driven; default: 0.5)",
    )
    run.add_argument(
        "--routing-cache",
        action="store_true",
        help="warm-start PathFinder across channel-width ladders from cached "
        "routing trees (requires --store; quality-gated, not bit-identical)",
    )
    run.add_argument("--workers", type=int, default=1, help="pool size (default: 1)")
    run.add_argument(
        "--executor",
        choices=available_executors(),
        help="execution backend (default: serial, or process when --workers > 1)",
    )
    run.add_argument("--store", metavar="DIR", help="result-store directory (enables caching)")
    run.add_argument(
        "--artifacts",
        metavar="DIR",
        help="stage-artifact store directory: checkpoint every executed "
        "flow's stage boundaries there (enables export --bitstreams, "
        "repro-lint --artifacts and flow resumes)",
    )
    run.add_argument(
        "--no-placement-cache",
        action="store_true",
        help="disable placement caching / incremental re-route",
    )
    run.add_argument(
        "--timeout",
        type=_positive_float,
        metavar="SECONDS",
        help="per-point wall-clock budget; overruns record status=timeout "
        "and are never cached",
    )
    run.add_argument(
        "--retries",
        type=_attempts,
        default=1,
        metavar="N",
        help="total attempts per point for transient failures and timeouts "
        "(default: 1 = no retries)",
    )
    run.add_argument(
        "--backoff",
        type=_nonnegative_float,
        default=0.0,
        metavar="SECONDS",
        help="base delay of the deterministic exponential backoff between "
        "attempts (default: 0 = retry immediately)",
    )
    run.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop submitting after the first non-ok point; the rest of the "
        "grid records status=skipped",
    )
    run.add_argument(
        "--fallback",
        action="append",
        choices=("serial", "thread", "process"),
        metavar="NAME",
        help="executor degradation ladder, engaged in order after repeated "
        "worker-pool failures; repeatable (e.g. --fallback thread "
        "--fallback serial)",
    )
    run.add_argument("--csv", metavar="PATH", help="also write the report as CSV")
    run.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    run.add_argument("--quiet", action="store_true", help="print only the stats footer")
    run.add_argument(
        "--strict", action="store_true", help="exit 1 when any point errored"
    )
    run.set_defaults(handler=_cmd_run)

    stats = subparsers.add_parser(
        "stats", help="record counts, bytes and retired-fingerprint breakdown"
    )
    stats.add_argument("--store", metavar="DIR", required=True)
    stats.set_defaults(handler=_cmd_stats)

    gc = subparsers.add_parser("gc", help="delete retired-fingerprint records")
    gc.add_argument("--store", metavar="DIR", required=True)
    gc.add_argument(
        "--keep-latest",
        type=int,
        default=0,
        metavar="N",
        help="spare the N most recently written retired generations",
    )
    gc.add_argument("--dry-run", action="store_true", help="report without deleting")
    gc.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="after the fingerprint pass, evict oldest records until the "
        "store fits N bytes (artifact stores apply this bound themselves)",
    )
    gc.set_defaults(handler=_cmd_gc)

    export = subparsers.add_parser(
        "export", help="render the stored flow records without re-running"
    )
    export.add_argument("--store", metavar="DIR", required=True)
    export.add_argument("--csv", metavar="PATH", help="write CSV")
    export.add_argument("--json", metavar="PATH", help="write JSON")
    export.add_argument(
        "--all-generations",
        action="store_true",
        help="include retired-fingerprint records (points may then appear "
        "once per code generation)",
    )
    export.add_argument(
        "--text", action="store_true", help="print the text table (default when no file given)"
    )
    export.add_argument(
        "--artifacts",
        metavar="DIR",
        help="stage-artifact store directory (required by --bitstreams)",
    )
    export.add_argument(
        "--bitstreams",
        metavar="OUTDIR",
        help="write one .bit file per stored flow, re-rendered from the "
        "stage artifacts in --artifacts when no bitstream was checkpointed",
    )
    export.set_defaults(handler=_cmd_export)

    clear = subparsers.add_parser("clear", help="delete every record in the store")
    clear.add_argument("--store", metavar="DIR", required=True)
    clear.set_defaults(handler=_cmd_clear)

    chaos = subparsers.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign and verify every "
        "recovery path (see docs/robustness.md)",
    )
    chaos.add_argument(
        "--circuit",
        action="append",
        metavar="NAME",
        help="registry circuit name; repeatable (default: qdi_full_adder)",
    )
    chaos.add_argument(
        "--channel-width",
        action="append",
        type=int,
        metavar="N",
        help="routing channel width axis; repeatable (default: 8 and 10)",
    )
    chaos.add_argument(
        "--analysis-only",
        action="store_true",
        help="skip placement/routing/bitstream for a faster campaign",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, metavar="N", help="fault-plan seed (default: 0)"
    )
    chaos.add_argument(
        "--crash",
        type=_probability,
        default=0.0,
        metavar="P",
        help="per-attempt worker-crash probability",
    )
    chaos.add_argument(
        "--hang",
        type=_probability,
        default=0.0,
        metavar="P",
        help="per-attempt hang-past-timeout probability",
    )
    chaos.add_argument(
        "--oserror",
        type=_probability,
        default=0.0,
        metavar="P",
        help="per-attempt transient-OSError probability",
    )
    chaos.add_argument(
        "--torn",
        type=_probability,
        default=0.0,
        metavar="P",
        help="per-record torn-store-write probability (needs --store)",
    )
    chaos.add_argument(
        "--poison",
        action="append",
        metavar="LABEL",
        help="point label (circuit@WxH/cwN) that crashes on every attempt; "
        "repeatable -- each must end status=poisoned",
    )
    chaos.add_argument(
        "--faulted-attempts",
        type=_attempts,
        default=1,
        metavar="N",
        help="only the first N attempts of a point may fault (default: 1)",
    )
    chaos.add_argument(
        "--timeout",
        type=_positive_float,
        default=120.0,
        metavar="SECONDS",
        help="per-point wall-clock budget during the campaign (default: 120)",
    )
    chaos.add_argument(
        "--retries",
        type=_attempts,
        default=3,
        metavar="N",
        help="retry policy attempts during the campaign (default: 3)",
    )
    chaos.add_argument(
        "--max-point-crashes",
        type=_attempts,
        default=2,
        metavar="N",
        help="crashes a point survives before it is poisoned (default: 2)",
    )
    chaos.add_argument(
        "--executor",
        choices=("serial", "thread", "process"),
        default="serial",
        help="inner backend the chaos wrapper drives (default: serial)",
    )
    chaos.add_argument("--workers", type=int, default=1, help="pool size (default: 1)")
    chaos.add_argument(
        "--store",
        metavar="DIR",
        help="result-store directory for the chaos run (enables torn-write "
        "injection and the quarantine check)",
    )
    chaos.add_argument("--json", metavar="PATH", help="also write the campaign report as JSON")
    chaos.set_defaults(handler=_cmd_chaos)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
