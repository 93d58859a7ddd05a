"""Tests of the batch sweep engine: spec hashing, store, runner, reporters."""

import csv
import dataclasses
import json
import logging

import pytest

from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.registry import build_circuit, circuit_registry
from repro.core.params import ArchitectureParams, RoutingParams
from repro.sweep import (
    RunnerConfig,
    SweepPoint,
    SweepResultStore,
    SweepRunner,
    SweepSpec,
    available_executors,
    execute_point,
    format_report,
    register_executor,
    report_from_records,
    write_csv,
    write_json,
)

ANALYSIS_ONLY = FlowOptions(run_placement=False, run_routing=False, generate_bitstream=False)
TWO_PROCESSES = RunnerConfig(executor="process", workers=2)


# ----------------------------------------------------------------------
# Serialization and stable hashing
# ----------------------------------------------------------------------
def test_architecture_params_round_trip():
    params = ArchitectureParams(
        width=4, height=7, routing=RoutingParams(channel_width=12, switchbox="wilton")
    )
    rebuilt = ArchitectureParams.from_dict(params.to_dict())
    assert rebuilt == params
    assert rebuilt.stable_hash() == params.stable_hash()


def test_flow_options_round_trip_and_hashable():
    options = FlowOptions(placement_seed=7, timing_tradeoff=0.25)
    rebuilt = FlowOptions.from_dict(options.to_dict())
    assert rebuilt == options
    assert hash(rebuilt) == hash(options)  # frozen dataclass
    assert rebuilt.stable_hash() == options.stable_hash()
    assert options.stable_hash() != FlowOptions(placement_seed=8).stable_hash()


def test_sweep_point_key_is_content_addressed():
    point = SweepPoint("qdi_full_adder", ArchitectureParams(), ANALYSIS_ONLY)
    same = SweepPoint.from_dict(point.to_dict())
    assert same == point
    assert same.key() == point.key()
    other_arch = SweepPoint(
        "qdi_full_adder", ArchitectureParams().scaled(8, 8), ANALYSIS_ONLY
    )
    other_circuit = SweepPoint("wchb_fifo_4", ArchitectureParams(), ANALYSIS_ONLY)
    assert len({point.key(), other_arch.key(), other_circuit.key()}) == 3


def test_sweep_spec_grid_expansion():
    spec = SweepSpec.build(
        ["a", "b"],
        (ArchitectureParams(), ArchitectureParams().scaled(8, 8)),
        (ANALYSIS_ONLY, FlowOptions()),
    )
    points = spec.points()
    assert len(spec) == len(points) == 8
    assert points == spec.points()  # deterministic order
    assert [p.circuit for p in points[:4]] == ["a", "a", "a", "a"]


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
def test_store_put_get_roundtrip(tmp_path):
    store = SweepResultStore(tmp_path / "cache")
    key = "ab" + "0" * 62
    record = {"status": "ok", "summary": {"les": 5}}
    assert store.get(key) is None
    path = store.put(key, record)
    assert path.is_file()
    assert store.get(key) == record
    assert key in store
    assert list(store.keys()) == [key]
    assert store.clear() == 1
    assert store.get(key) is None


def test_store_writes_compact_canonical_json(tmp_path):
    from repro.sweep.store import CHECKSUM_KEY, record_checksum

    store = SweepResultStore(tmp_path)
    key = "ef" + "2" * 62
    record = {"status": "ok", "summary": {"les": 5, "routed": ["a", "b"]}, "error": None}
    path = store.put(key, record)
    stamped = dict(record)
    stamped[CHECKSUM_KEY] = record_checksum(record)
    compact = json.dumps(stamped, sort_keys=True, separators=(",", ":"), default=str)
    assert path.read_bytes() == compact.encode("utf-8")
    # A record written indented, as stores used to hold them, still reads back.
    indented_key = "ef" + "3" * 62
    store.path_for(indented_key).write_text(
        json.dumps(stamped, sort_keys=True, indent=1), encoding="utf-8"
    )
    assert store.get(indented_key) == record


def test_store_tolerates_corrupt_records(tmp_path):
    store = SweepResultStore(tmp_path)
    key = "cd" + "1" * 62
    store.put(key, {"status": "ok"})
    store.path_for(key).write_text("{not json", encoding="utf-8")
    assert store.get(key) is None  # treated as a miss, not a crash


# ----------------------------------------------------------------------
# Runner: serial fallback is bit-identical to the single-flow path
# ----------------------------------------------------------------------
def test_serial_sweep_matches_direct_flow():
    arch = ArchitectureParams()
    spec = SweepSpec.build(
        ["qdi_full_adder", "micropipeline_full_adder"], arch, ANALYSIS_ONLY
    )
    report = SweepRunner(store=None).run(spec)
    assert report.cache_hits == 0
    assert report.flow_executions == 2
    for outcome in report.outcomes:
        direct = CadFlow(arch, ANALYSIS_ONLY).run(build_circuit(outcome.point.circuit))
        assert outcome.ok
        assert outcome.summary == direct.summary()


def test_sweep_captures_flow_errors_per_point():
    # The composed 4x4 multiplier maps but cannot *place* on the default 6x6
    # fabric; the sweep must record the failure (class + message) per point
    # instead of aborting.
    points = [
        SweepPoint("qdi_multiplier_4x4", ArchitectureParams(), FlowOptions()),
        SweepPoint("qdi_full_adder", ArchitectureParams(), ANALYSIS_ONLY),
    ]
    report = SweepRunner().run(points)
    assert [o.status for o in report.outcomes] == ["error", "ok"]
    failed = report.outcomes[0]
    assert failed.error is not None and failed.error["type"] == "PlacementError"
    assert failed.error["message"]  # class AND message are recorded
    assert report.ok_count == 1 and report.error_count == 1


def test_multiplier_decomposes_and_sweeps_successfully():
    # The 2x2 multiplier's 9-input rail functions used to be a hard
    # MappingError; wide-function decomposition makes the full registry
    # sweepable.  On a channel-width-10 fabric the whole flow succeeds.
    from repro.core.params import RoutingParams

    routable = ArchitectureParams(routing=RoutingParams(channel_width=10))
    report = SweepRunner().run(
        SweepSpec.build(["qdi_multiplier_2x2"], routable, FlowOptions())
    )
    outcome = report.outcomes[0]
    assert outcome.ok
    assert outcome.summary["decomposed_functions"] == 8
    assert outcome.summary["decomposition_intermediates"] > 0
    assert outcome.summary["routing_success"] is True
    assert outcome.summary["bitstream_bits_set"] > 0


def test_mapping_errors_are_recorded_but_never_cached(tmp_path):
    # A MappingError is exactly what a mapper fix changes: replaying it from
    # the cache would hide the fix, so it must be re-attempted every run.
    from repro.core.params import LEParams, PLBParams

    wide_le = ArchitectureParams(plb=PLBParams(le=LEParams(lut_inputs=10)))
    spec = SweepSpec.build(["qdi_ripple_adder_2"], wide_le, ANALYSIS_ONLY)
    store = SweepResultStore(tmp_path)
    report = SweepRunner(store=store).run(spec)
    assert report.outcomes[0].status == "error"
    assert report.outcomes[0].error["type"] == "MappingError"
    assert len(store) == 0  # not cached ...
    rerun = SweepRunner(store=store).run(spec)
    assert rerun.cache_misses == 1  # ... so the rerun re-attempts the point


def test_premapped_circuit_rejected_on_mismatched_plb_params():
    # Registry ripple adders come pre-mapped for the default PLB; sweeping
    # them on a different LE must not silently report default-LE numbers.
    from repro.core.params import LEParams, PLBParams

    wide_le = ArchitectureParams(plb=PLBParams(le=LEParams(lut_inputs=10)))
    spec = SweepSpec.build(["qdi_ripple_adder_2"], (ArchitectureParams(), wide_le), ANALYSIS_ONLY)
    report = SweepRunner().run(spec)
    default_run, mismatched = report.outcomes
    assert default_run.ok  # matching params: pre-mapped design is accepted
    assert mismatched.status == "error"
    assert mismatched.error["type"] == "MappingError"
    assert "different PLB parameters" in mismatched.error["message"]


def test_transient_errors_are_not_cached(tmp_path, monkeypatch):
    import repro.circuits.registry as registry_module

    def explode(name):
        raise OSError("disk full")

    monkeypatch.setattr(registry_module, "build_circuit", explode)
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
    store = SweepResultStore(tmp_path)
    report = SweepRunner(store=store).run(spec)
    assert report.outcomes[0].status == "error"
    assert len(store) == 0  # environmental failure: retried next run

    monkeypatch.undo()
    retried = SweepRunner(store=store).run(spec)
    assert retried.outcomes[0].ok and retried.cache_misses == 1
    assert len(store) == 1  # the deterministic success is cached


def test_row_keeps_registry_circuit_name():
    spec = SweepSpec.build(["qdi_ripple_adder_2"], ArchitectureParams(), ANALYSIS_ONLY)
    report = SweepRunner().run(spec)
    row = report.rows()[0]
    assert row["circuit"] == "qdi_ripple_adder_2"
    assert row["design"] == report.outcomes[0].summary["circuit"]
    assert row["design"] != row["circuit"]  # mapped design uses its own name


def test_unknown_circuit_is_an_error_outcome_and_never_cached(tmp_path):
    # Registry lookups depend on code state: caching the KeyError would keep
    # serving it after the circuit gets registered.
    spec = SweepSpec.build(["no_such_circuit"], ArchitectureParams(), ANALYSIS_ONLY)
    store = SweepResultStore(tmp_path)
    report = SweepRunner(store=store).run(spec)
    assert report.outcomes[0].status == "error"
    assert report.outcomes[0].error["type"] == "KeyError"
    assert len(store) == 0


# ----------------------------------------------------------------------
# Code-fingerprint cache keys: results are addressed by the code semantics
# ----------------------------------------------------------------------
def test_code_fingerprint_changes_when_sources_change(tmp_path):
    from repro.fingerprint import hash_sources

    module = tmp_path / "mapper.py"
    module.write_text("BUDGET = 7\n", encoding="utf-8")
    before = hash_sources([module])
    assert before == hash_sources([module])  # stable across calls
    module.write_text("BUDGET = 8\n", encoding="utf-8")
    assert hash_sources([module]) != before


def test_sweep_key_embeds_code_fingerprint(monkeypatch):
    point = SweepPoint("qdi_full_adder", ArchitectureParams(), ANALYSIS_ONLY)
    original = point.key()
    assert point.key() == original  # deterministic within one code state
    import repro.sweep.spec as spec_module

    monkeypatch.setattr(spec_module, "code_fingerprint", lambda: "simulated-edit")
    assert point.key() != original


def test_store_migration_mapper_change_misses_old_entry(tmp_path, monkeypatch):
    # The headline bugfix: a cached record must become unreachable as soon as
    # the code that produced it changes, so a mapper fix re-executes the
    # point instead of replaying the pre-fix result.
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
    store = SweepResultStore(tmp_path)
    first = SweepRunner(store=store).run(spec)
    assert first.cache_misses == 1
    warm = SweepRunner(store=store).run(spec)
    assert warm.cache_hits == 1 and warm.flow_executions == 0

    import repro.sweep.spec as spec_module

    monkeypatch.setattr(spec_module, "code_fingerprint", lambda: "post-fix-code")
    after_edit = SweepRunner(store=store).run(spec)
    assert after_edit.cache_hits == 0
    assert after_edit.flow_executions == 1  # the old entry was missed
    # Both generations coexist on disk; stats() exposes the retired records.
    assert store.stats()["records"] == 2
    assert store.stats()["bytes"] > 0


# ----------------------------------------------------------------------
# Runner: parallel == serial, cache makes reruns free (acceptance criterion)
# ----------------------------------------------------------------------
def test_parallel_full_registry_sweep_matches_serial_and_caches(tmp_path):
    architectures = (ArchitectureParams(), ArchitectureParams().scaled(8, 8))
    spec = SweepSpec.full_registry(architectures, ANALYSIS_ONLY)
    assert len(spec) == 2 * len(circuit_registry())

    serial = SweepRunner(store=None).run(spec)
    parallel = SweepRunner(store=tmp_path / "cache", config=TWO_PROCESSES).run(spec)
    assert parallel.workers == 2
    assert parallel.summaries() == serial.summaries()
    assert [o.status for o in parallel.outcomes] == [o.status for o in serial.outcomes]
    assert parallel.cache_misses == len(spec)

    rerun = SweepRunner(store=tmp_path / "cache", config=TWO_PROCESSES).run(spec)
    assert rerun.flow_executions == 0  # zero flow re-executions
    assert rerun.cache_hits == len(spec)
    assert all(outcome.cached for outcome in rerun.outcomes)
    assert rerun.summaries() == serial.summaries()


def test_cache_shared_between_serial_and_parallel_runners(tmp_path):
    spec = SweepSpec.build(["wchb_fifo_4"], ArchitectureParams(), ANALYSIS_ONLY)
    first = SweepRunner(store=tmp_path).run(spec)
    second = SweepRunner(store=tmp_path, config=TWO_PROCESSES).run(spec)
    assert first.cache_misses == 1
    assert second.cache_hits == 1 and second.flow_executions == 0
    assert second.summaries() == first.summaries()


# ----------------------------------------------------------------------
# Executor backends: parity and registration
# ----------------------------------------------------------------------
def test_executor_parity_serial_thread_process():
    # The backend is pure orchestration: every registered in-tree executor
    # must produce identical records for the same grid.
    spec = SweepSpec.build(
        ["qdi_full_adder", "micropipeline_full_adder", "wchb_fifo_4"],
        ArchitectureParams(),
        ANALYSIS_ONLY,
    )
    reports = {
        name: SweepRunner(store=None, config=RunnerConfig(executor=name, workers=2)).run(spec)
        for name in ("serial", "thread", "process")
    }
    serial = reports["serial"]
    for name, report in reports.items():
        assert report.stats()["executor"] == name
        assert report.summaries() == serial.summaries()
        assert [o.status for o in report.outcomes] == [o.status for o in serial.outcomes]


def test_runner_config_fields_and_serial_default():
    # Every execution setting of a sweep is one of these fields.
    assert [field.name for field in dataclasses.fields(RunnerConfig)] == [
        "executor",
        "workers",
        "timeout_s",
        "max_attempts",
        "backoff_s",
        "max_point_crashes",
        "fallback",
        "fail_fast",
    ]
    config = SweepRunner().config
    assert (config.executor, config.workers, config.max_attempts) == ("serial", 1, 1)
    explicit = RunnerConfig(executor="thread", workers=2)
    assert SweepRunner(config=explicit).config == explicit


def test_unknown_executor_raises_with_known_names(tmp_path):
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
    slurm = RunnerConfig(executor="slurm")
    with pytest.raises(ValueError, match="slurm"):
        SweepRunner(config=slurm).run(spec)
    # A typo'd backend must fail fast even when every point is cached.
    SweepRunner(store=tmp_path).run(spec)
    with pytest.raises(ValueError, match="slurm"):
        SweepRunner(store=tmp_path, config=slurm).run(spec)
    for name in ("serial", "thread", "process"):
        assert name in available_executors()


def test_third_party_executor_registration():
    # The cluster-backend hook: anything honouring the Executor protocol and
    # calling execute_point produces records identical to the serial backend.
    calls = {"submitted": 0, "shutdown": False}

    class RecordingExecutor:
        def submit(self, fn, payload):
            calls["submitted"] += 1
            return fn(payload)

        def result(self, token, timeout=None):
            return token

        def rebuild(self):
            pass

        def shutdown(self):
            calls["shutdown"] = True

    register_executor("recording", lambda config: RecordingExecutor())
    try:
        spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
        report = SweepRunner(config=RunnerConfig(executor="recording")).run(spec)
        assert report.stats()["executor"] == "recording"
        assert calls == {"submitted": 1, "shutdown": True}
        assert report.summaries() == SweepRunner().run(spec).summaries()
    finally:
        import repro.sweep.runner as runner_module

        runner_module._EXECUTOR_FACTORIES.pop("recording", None)


def test_incomplete_executor_is_rejected():
    # A backend without result/rebuild cannot be supervised; the sweep must
    # refuse it instead of recording every point as an infrastructure error.
    class GatherOnlyExecutor:
        def submit(self, fn, payload):
            return fn(payload)

        def gather(self, tokens):
            return list(tokens)

        def shutdown(self):
            pass

    register_executor("gather-only", lambda config: GatherOnlyExecutor())
    try:
        spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
        with pytest.raises(TypeError, match="submit, result, rebuild and shutdown"):
            SweepRunner(config=RunnerConfig(executor="gather-only")).run(spec)
    finally:
        import repro.sweep.runner as runner_module

        runner_module._EXECUTOR_FACTORIES.pop("gather-only", None)


def test_execute_point_is_self_contained():
    # The contract offered to third-party backends: a plain payload dict in,
    # a plain record dict out, no runner state required.
    payload = SweepPoint("qdi_full_adder", ArchitectureParams(), ANALYSIS_ONLY).to_dict()
    record = execute_point(payload)
    assert record["status"] == "ok"
    assert record["kind"] == "flow"
    assert record["fingerprint"]  # stamped for stats()/gc()


# ----------------------------------------------------------------------
# Store: fingerprint-aware stats and garbage collection
# ----------------------------------------------------------------------
def test_store_gc_removes_retired_generations(tmp_path, monkeypatch):
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
    store = SweepResultStore(tmp_path)
    SweepRunner(store=store).run(spec)

    # Simulate a code edit: both the key side (spec imported the symbol) and
    # the stamp side (execute_point / stats import lazily) must move.
    import repro.fingerprint as fingerprint_module
    import repro.sweep.spec as spec_module

    monkeypatch.setattr(fingerprint_module, "code_fingerprint", lambda: "post-edit")
    monkeypatch.setattr(spec_module, "code_fingerprint", lambda: "post-edit")
    SweepRunner(store=store).run(spec)  # second generation under new key
    # Both generations on disk; only the post-edit one is current.
    assert store.stats()["records"] == 2
    assert store.stats()["retired_records"] == 1

    outcome = store.gc(dry_run=True)
    assert outcome["removed"] == 1 and outcome["dry_run"] is True
    assert store.stats()["records"] == 2  # dry run deleted nothing

    outcome = store.gc()
    assert outcome["removed"] == 1 and outcome["kept_current"] == 1
    stats = store.stats()
    assert stats["records"] == 1 and stats["retired_records"] == 0
    # The surviving record is still served.
    rerun = SweepRunner(store=store).run(spec)
    assert rerun.flow_executions == 0


def test_store_gc_keep_latest_spares_recent_generations(tmp_path):
    store = SweepResultStore(tmp_path)
    import os
    import time

    for index, fingerprint in enumerate(("gen-a", "gen-b", "gen-c")):
        key = f"{index:02d}" + "0" * 62
        store.put(key, {"kind": "flow", "fingerprint": fingerprint})
        # Distinct mtimes so generation recency is well defined.
        stamp = time.time() - (100 - index)
        os.utime(store.path_for(key), (stamp, stamp))

    outcome = store.gc(current_fingerprint="current", keep_latest=2)
    assert outcome["removed"] == 1  # only the oldest generation went
    assert outcome["kept_retired"] == 2
    remaining = {record["fingerprint"] for _key, record in store.records()}
    assert remaining == {"gen-b", "gen-c"}


def test_store_stats_counts_unstamped_records_as_retired(tmp_path):
    store = SweepResultStore(tmp_path)
    store.put("ab" + "0" * 62, {"status": "ok"})  # pre-stamping record layout
    stats = store.stats(current_fingerprint="whatever")
    assert stats["retired_records"] == 1
    assert store.gc(current_fingerprint="whatever")["removed"] == 1


def test_report_from_records_round_trips_store(tmp_path):
    spec = SweepSpec.build(
        ["qdi_full_adder", "micropipeline_full_adder"], ArchitectureParams(), ANALYSIS_ONLY
    )
    live = SweepRunner(store=tmp_path).run(spec)
    rebuilt = report_from_records(SweepResultStore(tmp_path).records())
    assert len(rebuilt.outcomes) == 2
    assert all(outcome.cached for outcome in rebuilt.outcomes)
    by_circuit = {o.point.circuit: o.summary for o in rebuilt.outcomes}
    for outcome in live.outcomes:
        assert by_circuit[outcome.point.circuit] == outcome.summary


def test_store_gc_collects_corrupt_records(tmp_path):
    # A corrupt record is a permanent cache miss: any read that touches it
    # (stats() included) quarantines the file, and gc() reaps the
    # quarantine, so the disk always comes back.
    store = SweepResultStore(tmp_path)
    key = "ab" + "0" * 62
    store.put(key, {"kind": "flow", "fingerprint": "x"})
    store.path_for(key).write_text("{not json", encoding="utf-8")
    stats = store.stats(current_fingerprint="x")
    assert stats["records"] == 0
    assert stats["quarantined_records"] == 1
    outcome = store.gc(current_fingerprint="x", keep_latest=99)
    assert outcome["removed"] == 1  # never spared, even by keep_latest
    assert outcome["quarantine_reaped"] == 1
    after = store.stats(current_fingerprint="x")
    assert after["records"] == 0
    assert after["quarantined_records"] == 0


def test_report_from_records_filters_by_fingerprint(tmp_path):
    store = SweepResultStore(tmp_path)
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
    SweepRunner(store=store).run(spec)
    # A retired generation of the same point.
    stale = dict(next(store.records())[1])
    stale["fingerprint"] = "pre-edit"
    store.put("ff" + "0" * 62, stale)

    from repro.fingerprint import code_fingerprint

    everything = report_from_records(store.records())
    assert len(everything.outcomes) == 2  # one per generation
    current_only = report_from_records(
        store.records(), current_fingerprint=code_fingerprint()
    )
    assert len(current_only.outcomes) == 1


def test_report_from_records_counts_undecodable_records(tmp_path, caplog):
    store = SweepResultStore(tmp_path)
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), ANALYSIS_ONLY)
    SweepRunner(store=store).run(spec)
    # A retired generation whose options carry a field FlowOptions lost.
    retired = json.loads(json.dumps(next(store.records())[1]))
    retired["point"]["options"]["kernel"] = "numpy"
    store.put("ff" + "0" * 62, retired)

    with caplog.at_level(logging.WARNING, logger="repro.sweep.runner"):
        report = report_from_records(store.records())
    assert len(report.outcomes) == 1
    warnings = [r for r in caplog.records if r.name == "repro.sweep.runner"]
    assert [r.levelno for r in warnings] == [logging.WARNING]
    assert "skipped 1 stored flow record" in warnings[0].getMessage()


def test_placement_cache_disabled_strips_flag_from_cache_hits(tmp_path):
    # A store populated by a placement-caching run must not leak the
    # placement_cache_hit marker into a placement_cache=False runner.
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), FlowOptions())
    SweepRunner(store=tmp_path, placement_cache=True).run(spec)
    baseline = SweepRunner(store=None).run(spec)
    warm = SweepRunner(store=tmp_path, placement_cache=False).run(spec)
    assert warm.cache_hits == 1
    assert warm.summaries() == baseline.summaries()  # bit-identical, no flag


def test_report_from_records_skips_placement_records(tmp_path):
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), FlowOptions())
    SweepRunner(store=tmp_path).run(spec)
    store = SweepResultStore(tmp_path)
    assert store.stats()["placement_records"] == 1
    rebuilt = report_from_records(store.records())
    assert len(rebuilt.outcomes) == 1  # the flow record only


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_reporters_render_all_outcomes(tmp_path):
    points = [
        SweepPoint("qdi_full_adder", ArchitectureParams(), ANALYSIS_ONLY),
        # Maps (decomposition) but does not place on the default fabric.
        SweepPoint("qdi_multiplier_4x4", ArchitectureParams(), FlowOptions()),
    ]
    report = SweepRunner().run(points)

    text = format_report(report)
    assert "qdi_full_adder" in text and "cache_hits=0" in text

    csv_path = write_csv(report, tmp_path / "out" / "sweep.csv")
    with csv_path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert {row["status"] for row in rows} == {"ok", "error"}
    assert "error" in rows[0]  # union-of-keys columns include sparse ones

    json_path = write_json(report, tmp_path / "out" / "sweep.json")
    document = json.loads(json_path.read_text(encoding="utf-8"))
    assert document["stats"]["points"] == 2
    assert len(document["rows"]) == 2


# ----------------------------------------------------------------------
# Store-level locking (concurrent gc / clear)
# ----------------------------------------------------------------------
def test_store_lock_serializes_and_times_out(tmp_path):
    from repro.sweep import StoreLockTimeout

    store = SweepResultStore(tmp_path)
    with store.lock():
        assert store.lock_path.is_file()
        with pytest.raises(StoreLockTimeout):
            with store.lock(timeout=0.2):
                pass  # pragma: no cover - the acquire must fail
    # Released on exit: immediately reacquirable (the flock file itself may
    # legitimately persist — unlinking a flock file is the classic race).
    with store.lock(timeout=0.2):
        pass


def test_store_lock_survives_crashed_holder_leftovers(tmp_path):
    import os
    import time

    store = SweepResultStore(tmp_path)
    # A crashed holder's leftover lock file (flock died with the process;
    # on the fallback path it is older than stale_after): not fatal.
    store.lock_path.write_text("12345\n", encoding="utf-8")
    ancient = time.time() - 3600
    os.utime(store.lock_path, (ancient, ancient))
    with store.lock(timeout=0.5, stale_after=60.0):
        assert store.lock_path.is_file()


def test_store_lock_fallback_token_scheme(tmp_path, monkeypatch):
    # Exercise the non-POSIX O_EXCL token path explicitly.
    import time

    import repro.sweep.store as store_module
    from repro.sweep import StoreLockTimeout

    monkeypatch.setattr(store_module, "fcntl", None)
    store = SweepResultStore(tmp_path)
    with store.lock():
        assert store.lock_path.is_file()
        with pytest.raises(StoreLockTimeout):
            with store.lock(timeout=0.2):
                pass  # pragma: no cover - the acquire must fail
    assert not store.lock_path.is_file()  # token release unlinks its own lock
    # Stale leftovers are stolen (atomic rename), then normally reacquired.
    store.lock_path.write_text("stale-token\n", encoding="utf-8")
    ancient = time.time() - 3600
    import os

    os.utime(store.lock_path, (ancient, ancient))
    with store.lock(timeout=0.5, stale_after=60.0):
        assert store.lock_path.read_text(encoding="ascii") != "stale-token\n"


def test_store_gc_tolerates_files_vanishing_mid_walk(tmp_path, monkeypatch):
    # A rival collector (or operator rm) deleting records between the key
    # walk and the stat/unlink must be skipped, not raised.
    store = SweepResultStore(tmp_path)
    keys = [f"{index:02x}" + "0" * 62 for index in range(4)]
    for key in keys:
        store.put(key, {"kind": "flow", "fingerprint": "old-gen"})

    real_keys = SweepResultStore.keys

    def keys_then_rival_deletes(self):
        listed = list(real_keys(self))
        self.path_for(listed[0]).unlink()  # rival wins the race on one file
        return iter(listed)

    monkeypatch.setattr(SweepResultStore, "keys", keys_then_rival_deletes)
    outcome = store.gc(current_fingerprint="current")
    # The vanished record is no longer reported as removed by *this* gc.
    assert outcome["removed"] == len(keys) - 1
    monkeypatch.undo()
    assert len(store) == 0


def test_concurrent_gc_invocations_never_double_count(tmp_path):
    import threading

    store = SweepResultStore(tmp_path)
    for index in range(30):
        store.put(f"{index:02x}" + "0" * 62, {"kind": "flow", "fingerprint": "old"})

    results: list[dict[str, object]] = []

    def collect():
        results.append(
            SweepResultStore(tmp_path).gc(current_fingerprint="new", keep_latest=0)
        )

    threads = [threading.Thread(target=collect) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(store) == 0
    # The lock serializes the collectors: every record is reclaimed by
    # exactly one of them.
    assert sum(outcome["removed"] for outcome in results) == 30


def test_gc_and_clear_release_lock_on_success(tmp_path):
    store = SweepResultStore(tmp_path)
    store.put("ab" + "0" * 62, {"kind": "flow", "fingerprint": "old"})
    store.gc(current_fingerprint="new")
    store.put("cd" + "0" * 62, {"kind": "flow", "fingerprint": "old"})
    assert store.clear() == 1
    # The lock is released after each maintenance call: reacquirable at once.
    with store.lock(timeout=0.2):
        pass
