"""Tests of the ``repro-sweep`` CLI: every subcommand against a real store."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.fingerprint import code_fingerprint
from repro.sweep import RunnerConfig, SweepResultStore

RUN_ARGS = [
    "run",
    "--circuit",
    "qdi_full_adder",
    "--circuit",
    "micropipeline_full_adder",
    "--analysis-only",
]


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    for subcommand in ("run", "stats", "gc", "export", "clear", "chaos"):
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, "--help"])
        assert excinfo.value.code == 0


def test_run_stats_gc_round_trip(tmp_path, capsys):
    store_dir = str(tmp_path / "store")

    # run: cold, then warm (served from the store)
    assert main(RUN_ARGS + ["--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "qdi_full_adder" in out and "cache_misses=2" in out
    assert main(RUN_ARGS + ["--store", store_dir, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "cache_hits=2" in out and "flow_executions=0" in out

    # stats: both records are current (this process's fingerprint)
    assert main(["stats", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "records: 2" in out and "retired_records: 0" in out

    # simulate a retired generation, then gc it
    store = SweepResultStore(store_dir)
    store.put("ee" + "0" * 62, {"kind": "flow", "fingerprint": "retired-gen"})
    assert main(["gc", "--store", store_dir, "--dry-run"]) == 0
    assert "would remove 1" in capsys.readouterr().out
    assert store.stats()["retired_records"] == 1  # dry run deleted nothing
    assert main(["gc", "--store", store_dir]) == 0
    assert "removed 1" in capsys.readouterr().out
    stats = store.stats()
    assert stats["retired_records"] == 0 and stats["records"] == 2


def test_export_and_clear(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    assert main(RUN_ARGS + ["--store", store_dir, "--quiet"]) == 0
    capsys.readouterr()

    assert main(
        ["export", "--store", store_dir, "--csv", str(csv_path), "--json", str(json_path)]
    ) == 0
    with csv_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {row["circuit"] for row in rows} == {
        "qdi_full_adder",
        "micropipeline_full_adder",
    }
    document = json.loads(json_path.read_text(encoding="utf-8"))
    assert len(document["rows"]) == 2

    # text export (no file arguments) prints the table
    assert main(["export", "--store", store_dir]) == 0
    assert "qdi_full_adder" in capsys.readouterr().out

    assert main(["clear", "--store", store_dir]) == 0
    assert "removed" in capsys.readouterr().out
    assert len(SweepResultStore(store_dir)) == 0
    assert main(["export", "--store", store_dir]) == 1  # nothing left to export


def test_export_filters_retired_generations(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main(RUN_ARGS + ["--store", store_dir, "--quiet"]) == 0
    store = SweepResultStore(store_dir)
    stale = dict(next(store.records())[1])
    stale["fingerprint"] = "pre-edit-generation"
    store.put("ff" + "0" * 62, stale)
    capsys.readouterr()

    default_csv = tmp_path / "current.csv"
    assert main(["export", "--store", store_dir, "--csv", str(default_csv)]) == 0
    all_csv = tmp_path / "all.csv"
    assert main(
        ["export", "--store", store_dir, "--csv", str(all_csv), "--all-generations"]
    ) == 0
    capsys.readouterr()
    with default_csv.open(encoding="utf-8", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 2  # current generation only
    with all_csv.open(encoding="utf-8", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 3  # stale duplicate included


def test_run_writes_reports_and_strict_flag(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(RUN_ARGS + ["--csv", str(csv_path), "--quiet"]) == 0
    capsys.readouterr()
    assert csv_path.is_file()

    # qdi_multiplier_4x4 cannot place on the default 6x6 fabric: without
    # --strict that is a recorded outcome (exit 0), with --strict exit 1.
    failing = ["run", "--circuit", "qdi_multiplier_4x4"]
    assert main(failing + ["--quiet"]) == 0
    assert main(failing + ["--quiet", "--strict"]) == 1
    capsys.readouterr()


def test_grid_and_channel_width_axes(tmp_path, capsys):
    assert (
        main(
            RUN_ARGS[:3]  # run --circuit qdi_full_adder
            + ["--grid", "5x5", "--grid", "6x6", "--channel-width", "8", "--quiet"]
        )
        == 0
    )
    assert "points=2" in capsys.readouterr().out
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--grid", "not-a-grid"])


def test_timing_and_effort_axes(tmp_path, capsys):
    csv_path = tmp_path / "timing.csv"
    assert (
        main(
            RUN_ARGS[:3]  # run --circuit qdi_full_adder
            + [
                "--timing-tradeoff", "0.3",
                "--timing-tradeoff", "0.6",
                "--placement-effort", "0.5",
                "--csv", str(csv_path),
                "--quiet",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "points=2" in out  # two tradeoffs x one effort
    with csv_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    for row in rows:
        # --timing-tradeoff implies the timing-driven flow, and the timing
        # columns land in the report.
        assert row["timing_driven"] == "True"
        assert int(row["cycle_time_ps"]) > 0
        assert row["cycle_time_improvement_ps"] != ""


def test_run_rejects_unknown_executor():
    with pytest.raises(SystemExit):
        main(["run", "--circuit", "qdi_full_adder", "--executor", "slurm"])


def test_stats_reports_current_fingerprint(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    SweepResultStore(store_dir)  # create empty
    assert main(["stats", "--store", store_dir]) == 0
    assert code_fingerprint() in capsys.readouterr().out

def test_readonly_commands_fail_on_missing_store(tmp_path, capsys):
    # Regression: stats/export/gc used to silently create an empty store at
    # a mistyped --store path and exit 0.  They must fail and not mkdir.
    missing = tmp_path / "no-such-store"
    for argv in (
        ["stats", "--store", str(missing)],
        ["export", "--store", str(missing)],
        ["gc", "--store", str(missing), "--dry-run"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "sweep result store does not exist" in captured.err
        assert not missing.exists(), argv


def test_store_create_false_requires_existing_directory(tmp_path):
    missing = tmp_path / "absent"
    with pytest.raises(FileNotFoundError):
        SweepResultStore(missing, create=False)
    assert not missing.exists()
    SweepResultStore(missing)  # default still creates
    assert missing.is_dir()
    SweepResultStore(missing, create=False)  # and then opens read-only fine


def test_run_artifacts_and_bitstream_export(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    artifacts = str(tmp_path / "arts")
    outdir = tmp_path / "bits"
    args = ["run", "--circuit", "qdi_full_adder", "--store", store_dir,
            "--artifacts", artifacts, "--quiet"]
    assert main(args) == 0
    capsys.readouterr()

    # --bitstreams without --artifacts is a usage error.
    assert main(["export", "--store", store_dir, "--bitstreams", str(outdir)]) == 2
    assert "--artifacts" in capsys.readouterr().err
    # A mistyped artifact directory fails without creating it.
    missing = tmp_path / "no-such-arts"
    assert main(
        ["export", "--store", store_dir, "--artifacts", str(missing),
         "--bitstreams", str(outdir)]
    ) == 2
    assert not missing.exists()
    capsys.readouterr()

    assert main(
        ["export", "--store", store_dir, "--artifacts", artifacts,
         "--bitstreams", str(outdir)]
    ) == 0
    out = capsys.readouterr().out
    assert "wrote 1 bitstream(s)" in out
    written = sorted(outdir.glob("*.bit"))
    assert len(written) == 1
    assert "qdi_full_adder" in written[0].name

    # The rendered file is bit-identical to a direct flow on the stored
    # architecture and options.
    from repro.artifacts import ArtifactStore, load_flow_artifacts
    from repro.cad.flow import CadFlow
    from repro.circuits.registry import build_circuit

    view = load_flow_artifacts(ArtifactStore(artifacts))[0]
    assert view.flow_key[:12] in written[0].name
    direct = CadFlow(view.architecture, view.options).run(build_circuit(view.circuit))
    assert written[0].read_bytes() == direct.bitstream.to_bytes()


def test_gc_max_bytes_reports_size_evictions(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    assert main(RUN_ARGS + ["--store", store_dir, "--quiet"]) == 0
    capsys.readouterr()
    store = SweepResultStore(store_dir)
    assert store.stats()["records"] == 2

    assert main(["gc", "--store", store_dir, "--dry-run", "--max-bytes", "1"]) == 0
    out = capsys.readouterr().out
    assert "would remove 2" in out and "2 evicted for the size bound" in out
    assert store.stats()["records"] == 2  # dry run deleted nothing

    assert main(["gc", "--store", store_dir, "--max-bytes", "1"]) == 0
    assert "2 evicted for the size bound" in capsys.readouterr().out
    assert store.stats()["records"] == 0

    # Without --max-bytes the size-bound clause stays out of the message.
    assert main(["gc", "--store", store_dir]) == 0
    assert "size bound" not in capsys.readouterr().out


def test_supervision_flags_reject_bad_values():
    # Usage errors must exit 2 (argparse convention), not crash or run.
    for argv in (
        ["run", "--circuit", "qdi_full_adder", "--timeout", "0"],
        ["run", "--circuit", "qdi_full_adder", "--timeout", "-3"],
        ["run", "--circuit", "qdi_full_adder", "--timeout", "soon"],
        ["run", "--circuit", "qdi_full_adder", "--retries", "0"],
        ["run", "--circuit", "qdi_full_adder", "--retries", "many"],
        ["run", "--circuit", "qdi_full_adder", "--backoff", "-1"],
        ["run", "--circuit", "qdi_full_adder", "--fallback", "slurm"],
        ["chaos", "--crash", "1.5"],
        ["chaos", "--hang", "-0.1"],
        ["chaos", "--retries", "0"],
        ["chaos", "--timeout", "0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv


def test_run_rejects_timing_tradeoff_outside_unit_interval(monkeypatch):
    # The blend weight is checked while parsing: no point runs, and the
    # command exits 2 instead of caching one ValueError per grid point.
    import repro.api as api

    runners = []
    monkeypatch.setattr(api, "SweepRunner", lambda *args: runners.append(args))
    for value in ("1.5", "-0.1", "half"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--circuit", "qdi_full_adder", "--timing-tradeoff", value])
        assert excinfo.value.code == 2, value
    assert runners == []


def test_run_accepts_supervision_flags(tmp_path, capsys, monkeypatch):
    import repro.api as api

    configs = []
    runner = api.SweepRunner

    def recording_runner(store, config, *rest):
        configs.append(config)
        return runner(store, config, *rest)

    monkeypatch.setattr(api, "SweepRunner", recording_runner)
    store_dir = str(tmp_path / "store")
    assert (
        main(
            RUN_ARGS
            + [
                "--store",
                store_dir,
                "--timeout",
                "120",
                "--retries",
                "2",
                "--backoff",
                "0.001",
                "--fail-fast",
                "--quiet",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ok=2" in out and "poisoned=0" in out and "skipped=0" in out
    config = configs[0]
    assert (config.timeout_s, config.max_attempts, config.backoff_s) == (120.0, 2, 0.001)
    assert config.fail_fast and config.executor == "serial"
    # --workers alone keeps the documented default: process when > 1, and
    # --executor overrides it.  Every point is cached by now, so no pool starts.
    assert main(RUN_ARGS + ["--store", store_dir, "--workers", "2", "--quiet"]) == 0
    assert configs[1] == RunnerConfig(executor="process", workers=2)
    argv = RUN_ARGS + ["--store", store_dir, "--workers", "2", "--executor", "thread"]
    assert main(argv + ["--quiet"]) == 0
    assert configs[2] == RunnerConfig(executor="thread", workers=2)


def test_chaos_rejects_unknown_poison_label(capsys):
    assert main(["chaos", "--poison", "no_such@9x9/cw1", "--analysis-only"]) == 2
    assert "--poison label(s)" in capsys.readouterr().err


def test_chaos_campaign_smoke(tmp_path, capsys):
    store_dir = str(tmp_path / "chaos-store")
    report_path = tmp_path / "chaos.json"
    assert (
        main(
            [
                "chaos",
                "--analysis-only",
                "--seed",
                "3",
                "--crash",
                "0.5",
                "--oserror",
                "0.3",
                "--torn",
                "0.6",
                "--poison",
                "qdi_full_adder@6x6/cw8",
                "--store",
                store_dir,
                "--json",
                str(report_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "chaos: all recovery paths held" in out
    outcome = json.loads(report_path.read_text())
    assert outcome["completed"] and outcome["summaries_match"]
    assert outcome["statuses"]["poisoned"] >= 1
    # The torn records are sitting in the store's quarantine.
    store = SweepResultStore(store_dir)
    assert len(store.quarantined()) == outcome["quarantined"]
