"""Tests of the sweep supervision layer and the chaos harness.

Everything here is deterministic: faults come from seeded
:class:`~repro.sweep.chaos.FaultPlan` schedules (or fork-inherited
monkeypatches for the real-process-crash test), so every scenario replays
bit-identically -- the property the chaos harness itself exists to prove.
"""

import json
import multiprocessing
import os
import shutil
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fingerprint as fingerprint_module
from repro.artifacts import ArtifactStore
from repro.cad.flow import FlowOptions
from repro.core.params import ArchitectureParams, RoutingParams
from repro.sweep import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POISONED,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    ChaosStore,
    FaultPlan,
    RetryPolicy,
    RunnerConfig,
    SweepResultStore,
    SweepRunner,
    SweepSpec,
    execute_point,
    run_campaign,
    write_csv,
)
from repro.sweep.chaos import chaos_executor

ANALYSIS_ONLY = FlowOptions(
    run_placement=False, run_routing=False, generate_bitstream=False
)


def _spec(widths=(8,), circuits=("qdi_full_adder",), options=ANALYSIS_ONLY):
    return SweepSpec.build(
        circuits,
        [
            ArchitectureParams(routing=RoutingParams(channel_width=width))
            for width in widths
        ],
        options,
    )


def _chaos_config(**kwargs):
    defaults = dict(executor="chaos", workers=1)
    defaults.update(kwargs)
    return RunnerConfig(**defaults)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_backoff_is_deterministic_and_serializable():
    policy = RetryPolicy(max_attempts=4, backoff_s=0.5, backoff_factor=3.0, seed=9)
    delays = [policy.delay_s(n, "point@6x6/cw8") for n in (1, 2, 3)]
    assert delays == [policy.delay_s(n, "point@6x6/cw8") for n in (1, 2, 3)]
    # Exponential growth dominates the +-10% jitter.
    assert delays[0] < delays[1] < delays[2]
    assert delays[0] == pytest.approx(0.5, rel=policy.jitter)
    assert delays[1] == pytest.approx(1.5, rel=policy.jitter)
    # A different point jitters differently (seeded per token).
    assert policy.delay_s(1, "other@6x6/cw8") != delays[0]
    assert RetryPolicy.from_dict(policy.to_dict()) == policy
    assert RetryPolicy(max_attempts=2).delay_s(1, "x") == 0.0  # no backoff_s


# ----------------------------------------------------------------------
# Record schema: duration + attempts
# ----------------------------------------------------------------------
def test_execute_point_records_duration_and_attempt_history():
    point = _spec().points()[0]
    record = execute_point(point.to_dict())
    assert record["status"] == STATUS_OK
    assert record["transient"] is False
    assert record["duration_s"] > 0
    assert record["attempts"] == [
        {"outcome": STATUS_OK, "error": None, "duration_s": record["duration_s"]}
    ]


def test_reporters_surface_attempts_and_duration(tmp_path):
    report = SweepRunner(store=None).run(_spec())
    rows = report.rows()
    assert rows[0]["attempts"] == 1
    assert rows[0]["duration_s"] > 0
    path = write_csv(report, tmp_path / "report.csv")
    header = path.read_text().splitlines()[0].split(",")
    assert "attempts" in header and "duration_s" in header
    stats = report.stats()
    for key in ("timeouts", "poisoned", "skipped", "retried", "pool_rebuilds"):
        assert stats[key] == 0


# ----------------------------------------------------------------------
# Retries of transient failures
# ----------------------------------------------------------------------
def test_transient_flow_error_is_retried_and_recovers(monkeypatch):
    import repro.circuits.registry as registry

    real = registry.build_circuit
    calls = {"n": 0}

    def flaky(name, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("simulated transient I/O failure")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(registry, "build_circuit", flaky)
    config = RunnerConfig(executor="serial", retry=RetryPolicy(max_attempts=2))
    report = SweepRunner(store=None, config=config).run(_spec())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_OK
    assert outcome.retried
    assert [a["outcome"] for a in outcome.attempts] == [STATUS_ERROR, STATUS_OK]
    assert outcome.attempts[0]["error"]["type"] == "OSError"
    assert report.retried_count == 1


def test_transient_error_exhausting_retries_is_not_cached(tmp_path, monkeypatch):
    import repro.circuits.registry as registry

    def always_transient(name, *args, **kwargs):
        raise OSError("persistently flaky environment")

    monkeypatch.setattr(registry, "build_circuit", always_transient)
    config = RunnerConfig(executor="serial", retry=RetryPolicy(max_attempts=3))
    store = SweepResultStore(tmp_path)
    report = SweepRunner(store=store, config=config).run(_spec())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_ERROR
    assert len(outcome.attempts) == 3
    # Transient errors are never cached: the store holds no flow record.
    assert store.get(outcome.point.key()) is None


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
def test_cooperative_timeout_on_serial_backend(tmp_path):
    # The serial backend cannot preempt, so an impossible budget is
    # detected after the fact; the result is discarded and never cached.
    store = SweepResultStore(tmp_path)
    config = RunnerConfig(executor="serial", timeout_s=1e-9)
    report = SweepRunner(store=store, config=config).run(_spec())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_TIMEOUT
    assert report.timeout_count == 1
    assert outcome.attempts[0]["error"]["type"] == "TimeoutError"
    assert store.get(outcome.point.key()) is None
    # Retries make it attempt the point again before giving up.
    config = RunnerConfig(
        executor="serial", timeout_s=1e-9, retry=RetryPolicy(max_attempts=2)
    )
    report = SweepRunner(store=None, config=config).run(_spec())
    assert len(report.outcomes[0].attempts) == 2


def test_injected_hang_recovers_on_retry():
    label = _spec().points()[0].label()
    plan = FaultPlan.build(scripted={label: ("hang",)})
    with chaos_executor(plan):
        config = _chaos_config(timeout_s=60.0, retry=RetryPolicy(max_attempts=2))
        report = SweepRunner(store=None, config=config).run(_spec())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_OK
    assert [a["outcome"] for a in outcome.attempts] == [STATUS_TIMEOUT, STATUS_OK]


# ----------------------------------------------------------------------
# Worker-crash recovery and poisoning
# ----------------------------------------------------------------------
def test_injected_crash_is_resubmitted_and_recovers():
    spec = _spec(widths=(8, 10))
    label = spec.points()[0].label()
    plan = FaultPlan.build(scripted={label: ("crash",)})
    with chaos_executor(plan) as instances:
        report = SweepRunner(store=None, config=_chaos_config()).run(spec)
    assert [o.status for o in report.outcomes] == [STATUS_OK, STATUS_OK]
    assert report.pool_rebuilds == 1
    crashed = report.outcomes[0]
    assert [a["outcome"] for a in crashed.attempts] == ["crash", STATUS_OK]
    assert instances[0].rebuilds == 1  # plan state survived the rebuild


def test_repeat_killer_is_poisoned_and_cached(tmp_path):
    spec = _spec(widths=(8, 10))
    points = spec.points()
    poison_label = points[0].label()
    plan = FaultPlan.build(poison=[poison_label])
    store = SweepResultStore(tmp_path)
    with chaos_executor(plan):
        config = _chaos_config(max_point_crashes=2)
        report = SweepRunner(store=store, config=config).run(spec)
    poisoned = report.outcomes[0]
    assert poisoned.status == STATUS_POISONED
    assert report.poisoned_count == 1
    # 3 crashes: the initial attempt plus max_point_crashes resubmissions.
    assert [a["outcome"] for a in poisoned.attempts] == ["crash"] * 3
    # The healthy point of the grid is unaffected.
    assert report.outcomes[1].status == STATUS_OK
    # Poisoned records are cached with their attempt history...
    cached = store.get(points[0].key())
    assert cached["status"] == STATUS_POISONED
    assert len(cached["attempts"]) == 3
    # ...so a re-run serves them from the store instead of re-crashing.
    with chaos_executor(plan):
        warm = SweepRunner(store=store, config=_chaos_config()).run(spec)
    assert warm.cache_hits == 2
    assert warm.outcomes[0].status == STATUS_POISONED
    # stats() reports the poisoned record.
    assert store.stats()["poisoned_records"] == 1


def test_fail_fast_skips_the_rest_of_the_grid(tmp_path):
    spec = _spec(widths=(8, 10, 12))
    plan = FaultPlan.build(poison=[spec.points()[0].label()])
    store = SweepResultStore(tmp_path)
    with chaos_executor(plan):
        config = _chaos_config(max_point_crashes=0, fail_fast=True)
        report = SweepRunner(store=store, config=config).run(spec)
    statuses = [o.status for o in report.outcomes]
    assert statuses == [STATUS_POISONED, STATUS_SKIPPED, STATUS_SKIPPED]
    assert report.skipped_count == 2
    skipped = report.outcomes[1]
    assert skipped.error["type"] == "FailFast"
    # Skipped points are never cached: a later run re-attempts them.
    assert store.get(spec.points()[1].key()) is None


def test_fallback_ladder_degrades_to_a_working_backend():
    spec = _spec(widths=(8, 10))
    # Poisoning every label makes the chaos backend crash on every attempt;
    # with a zero rebuild budget the supervisor must degrade to the serial
    # backend (no faults there) and complete the grid cleanly.
    plan = FaultPlan.build(poison=[p.label() for p in spec.points()])
    with chaos_executor(plan):
        config = _chaos_config(max_pool_rebuilds=0, fallback=("serial",))
        report = SweepRunner(store=None, config=config).run(spec)
    assert report.fallbacks == ["serial"]
    assert [o.status for o in report.outcomes] == [STATUS_OK, STATUS_OK]
    assert report.pool_rebuilds >= 1


@pytest.mark.skipif(
    sys.platform != "linux" or multiprocessing.get_start_method() != "fork",
    reason="needs fork-inherited monkeypatching of pool workers",
)
def test_real_process_pool_crash_recovery(tmp_path, monkeypatch):
    # A genuine BrokenProcessPool: the worker os._exit()s mid-point on its
    # first attempt (fork propagates the patched registry into workers
    # created after the patch; the flag file makes the crash one-shot).
    import repro.circuits.registry as registry

    flag = tmp_path / "crashed-once"
    real = registry.build_circuit

    def crash_once(name, *args, **kwargs):
        if not flag.exists():
            flag.write_text("crashing")
            os._exit(17)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(registry, "build_circuit", crash_once)
    config = RunnerConfig(executor="process", workers=1)
    report = SweepRunner(store=None, config=config).run(_spec())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_OK
    assert report.pool_rebuilds >= 1
    assert outcome.attempts[0]["outcome"] == "crash"
    assert outcome.attempts[-1]["outcome"] == STATUS_OK


# ----------------------------------------------------------------------
# Corrupt-placement-cache observability (the once-silent fallback)
# ----------------------------------------------------------------------
def test_corrupt_placement_cache_is_observable(tmp_path, caplog):
    spec = SweepSpec.build(["qdi_full_adder"], ArchitectureParams(), FlowOptions())
    point = spec.points()[0]
    store = SweepResultStore(tmp_path)
    SweepRunner(store=store).run(spec)
    # Corrupt the cached placement (valid JSON, bogus payload) and retire
    # the flow record so the point re-executes against the bad cache.
    store.put(
        point.placement_key(),
        {"kind": "placement", "placement": {"not": "a placement"}},
    )
    store.path_for(point.key()).unlink()
    with caplog.at_level("WARNING", logger="repro.sweep.runner"):
        report = SweepRunner(store=store).run(spec)
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_OK  # fell back to a fresh placement
    record = store.get(point.key())
    assert record["placement_cache_corrupt"] is True
    assert any("corrupt placement-cache record" in m for m in caplog.messages)


# ----------------------------------------------------------------------
# Torn writes, checksums, quarantine (property tests)
# ----------------------------------------------------------------------
@given(
    offset_fraction=st.floats(min_value=0.0, max_value=1.0),
    mode=st.sampled_from(["truncate", "flip"]),
)
@settings(max_examples=40, deadline=None)
def test_corrupt_record_quarantines_and_continues(offset_fraction, mode):
    root = tempfile.mkdtemp()
    try:
        store = SweepResultStore(root)
        good_key = "aa" + "1" * 62
        bad_key = "ab" + "2" * 62
        store.put(good_key, {"kind": "flow", "status": "ok", "summary": {"x": 1}})
        store.put(bad_key, {"kind": "flow", "status": "ok", "summary": {"y": 2}})
        path = store.path_for(bad_key)
        blob = bytearray(path.read_bytes())
        offset = min(int(offset_fraction * len(blob)), len(blob) - 1)
        if mode == "truncate":
            path.write_bytes(bytes(blob[:offset]))
        else:
            blob[offset] ^= 0xFF
            path.write_bytes(bytes(blob))
        # Quarantine-and-continue: the corrupt record reads as a miss...
        assert store.get(bad_key) is None
        assert len(store.quarantined()) == 1
        # ...while the intact record keeps being served.
        assert store.get(good_key)["summary"] == {"x": 1}
        assert list(store.keys()) == [good_key]
        stats = store.stats(current_fingerprint="irrelevant")
        assert stats["quarantined_records"] == 1
        assert stats["quarantined_bytes"] > 0 or mode == "truncate"
        # gc reaps the quarantine (and honours dry_run first).
        dry = store.gc(current_fingerprint="irrelevant", dry_run=True, keep_latest=99)
        assert dry["quarantine_reaped"] == 1
        assert len(store.quarantined()) == 1
        wet = store.gc(current_fingerprint="irrelevant", keep_latest=99)
        assert wet["quarantine_reaped"] == 1
        assert store.quarantined() == []
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_artifact_store_inherits_checksums_and_quarantine(tmp_path):
    store = ArtifactStore(tmp_path, max_bytes=None)
    key = "cd" + "3" * 62
    store.put(key, {"kind": "artifact", "payload": [1, 2, 3]})
    path = store.path_for(key)
    data = json.loads(path.read_text())
    data["payload"] = [4, 5, 6]  # valid JSON, stale checksum
    path.write_text(json.dumps(data))
    assert store.get(key) is None
    assert len(store.quarantined()) == 1
    assert store.stats()["quarantined_records"] == 1
    outcome = store.gc(max_bytes=None)
    assert outcome["quarantine_reaped"] == 1


def test_torn_chaos_store_writes_are_quarantined_on_read(tmp_path):
    plan = FaultPlan(p_torn_write=1.0, seed=5)
    store = ChaosStore(tmp_path, plan)
    key = "ef" + "4" * 62
    store.put(key, {"kind": "flow", "status": "ok"})
    assert store.torn_keys == [key]
    assert store.get(key) is None
    assert len(store.quarantined()) == 1


# ----------------------------------------------------------------------
# The full campaign: determinism and bit-identical unaffected summaries
# ----------------------------------------------------------------------
def test_chaos_campaign_replays_bit_identically(tmp_path):
    spec = _spec(widths=(8, 10, 12), options=FlowOptions(run_routing=False))
    labels = [p.label() for p in spec.points()]
    plan = FaultPlan.build(
        seed=7,
        p_crash=0.4,
        p_hang=0.3,
        p_oserror=0.3,
        p_torn_write=0.5,
        poison=[labels[0]],
    )
    kwargs = dict(
        timeout_s=60.0, retry=RetryPolicy(max_attempts=3), max_point_crashes=2
    )
    first = run_campaign(spec, plan, store=str(tmp_path / "a"), **kwargs)
    # Crashes, hangs, OSErrors and torn writes all fired, yet the campaign
    # completed, the repeat-killer poisoned out, torn records quarantined,
    # and every surviving summary equals the fault-free baseline.
    assert first["completed"] and first["summaries_match"]
    assert first["statuses"]["poisoned"] == 1
    assert first["injected"]  # at least one fault actually fired
    assert first["torn_keys"] and first["quarantined"] >= len(first["torn_keys"])
    # Deterministic replay: same plan, fresh store, identical trajectory.
    second = run_campaign(spec, plan, store=str(tmp_path / "b"), **kwargs)
    for key in ("statuses", "injected", "faulted_labels", "torn_keys", "plan"):
        assert first[key] == second[key]
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_torn_writes_do_not_depend_on_the_code_fingerprint(tmp_path, monkeypatch):
    # Store keys embed the code fingerprint; the torn set must not, or every
    # source edit would re-roll which records a seeded campaign tears.
    spec = _spec(widths=(8, 10, 12))
    plan = FaultPlan(seed=7, p_torn_write=0.5)
    torn_labels = []
    store_keys = []
    for fingerprint in ("0" * 16, "f" * 16):
        monkeypatch.setattr(fingerprint_module, "_process_fingerprint", fingerprint)
        label_of = {point.key(): point.label() for point in spec.points()}
        outcome = run_campaign(spec, plan, store=str(tmp_path / fingerprint))
        torn_labels.append(sorted(label_of[key] for key in outcome["torn_keys"]))
        store_keys.append(set(label_of))
    assert store_keys[0].isdisjoint(store_keys[1])
    assert torn_labels[0] and torn_labels[0] == torn_labels[1]
