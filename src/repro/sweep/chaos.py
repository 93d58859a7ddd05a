"""Deterministic fault injection for the sweep supervision loop.

The chaos harness exists to *prove* the robustness contract in
``docs/robustness.md``: a sweep survives worker crashes, hangs past the
timeout, transient I/O errors and torn store writes, retrying and
quarantining per policy, and every point the faults did not ultimately
kill produces a summary bit-identical to a fault-free run.

Everything here is **seeded and deterministic**: whether attempt *n* of
point *label* faults (and how) is a pure function of
``(FaultPlan.seed, label, n)`` via sha256, exactly like the fuzzer's seed
streams and :meth:`RetryPolicy.delay_s`'s jitter.  Re-running a campaign
with the same plan replays the same faults in the same order, which is
what lets the test suite assert exact statuses and lets
``repro-sweep chaos`` be a CI smoke step instead of a flake machine.

Three pieces:

* :class:`FaultPlan` -- the serializable fault schedule (probabilities per
  fault kind, labels to poison outright, optional per-label scripts).
* :class:`ChaosExecutor` -- an :class:`~repro.sweep.runner.Executor`
  wrapper that injects faults at ``result()`` time: ``crash`` raises
  :class:`~concurrent.futures.BrokenExecutor` (what a dead worker pool
  raises), ``hang`` raises :class:`TimeoutError` (what a result wait past
  the deadline raises), ``oserror`` raises a transient :class:`OSError`.
  Its :meth:`ChaosExecutor.rebuild` preserves the plan state -- the
  supervision loop rebuilds the *inner* pool, so injected crash counts
  survive recovery exactly like a real poisoned point's would.
* :class:`ChaosStore` -- a :class:`~repro.sweep.store.SweepResultStore`
  that tears selected writes (truncating the record file at a seeded
  offset), exercising the checksum/quarantine read path.

:func:`run_campaign` wires them together and is what both the tests and
the ``repro-sweep chaos`` subcommand run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.sweep.runner import (
    _EXECUTOR_FACTORIES,
    BrokenExecutor,
    Executor,
    RetryPolicy,
    RunnerConfig,
    SweepRunner,
    register_executor,
)
from repro.sweep.spec import SweepPoint, SweepSpec, as_points
from repro.sweep.store import SweepResultStore

#: The injectable fault kinds, in the order probabilities stack.
FAULT_KINDS = ("crash", "hang", "oserror")


def _unit(seed: int, *parts: str) -> float:
    """A deterministic float in ``[0, 1)`` from ``(seed, *parts)``."""
    digest = hashlib.sha256(
        "|".join((str(seed), *parts)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A serializable, seeded schedule of faults to inject.

    Whether attempt *n* of a point faults is decided by hashing
    ``(seed, label, n)`` into a unit float and comparing it against the
    stacked probabilities ``p_crash`` / ``p_hang`` / ``p_oserror`` -- so
    the *same* attempt of the same point always faults (or not) the same
    way, across processes and reruns.  By default only the **first**
    attempt of a point can fault (``faulted_attempts=1``): the retried
    attempt then succeeds, which is the shape of a transient fault and
    keeps campaigns convergent.  Raise ``faulted_attempts`` to test
    retry exhaustion.

    ``poison`` lists labels that crash on *every* attempt -- the
    guaranteed repeat-killers that must end ``status="poisoned"``.
    ``scripted`` pins exact per-label fault sequences (attempt 1, 2, ...;
    ``"none"`` for a clean attempt), for tests that need one precise
    trajectory rather than a probability.
    """

    seed: int = 0
    p_crash: float = 0.0
    p_hang: float = 0.0
    p_oserror: float = 0.0
    p_torn_write: float = 0.0
    faulted_attempts: int = 1
    poison: tuple[str, ...] = ()
    scripted: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @classmethod
    def build(
        cls,
        scripted: Mapping[str, Sequence[str]] | None = None,
        poison: Sequence[str] = (),
        **kwargs: object,
    ) -> "FaultPlan":
        """Normalise mapping/sequence arguments into the frozen tuples."""
        return cls(
            poison=tuple(poison),
            scripted=tuple(
                (label, tuple(kinds)) for label, kinds in (scripted or {}).items()
            ),
            **kwargs,  # type: ignore[arg-type]
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "p_crash": self.p_crash,
            "p_hang": self.p_hang,
            "p_oserror": self.p_oserror,
            "p_torn_write": self.p_torn_write,
            "faulted_attempts": self.faulted_attempts,
            "poison": list(self.poison),
            "scripted": {label: list(kinds) for label, kinds in self.scripted},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        known = {
            f: data[f]
            for f in cls.__dataclass_fields__
            if f in data and f not in ("poison", "scripted")
        }
        return cls.build(
            scripted=data.get("scripted") or {},  # type: ignore[arg-type]
            poison=data.get("poison") or (),  # type: ignore[arg-type]
            **known,  # type: ignore[arg-type]
        )

    def fault_for(self, label: str, attempt: int) -> str | None:
        """The fault to inject into *attempt* (1-based) of *label*, if any."""
        for scripted_label, kinds in self.scripted:
            if scripted_label == label:
                if attempt <= len(kinds) and kinds[attempt - 1] in FAULT_KINDS:
                    return kinds[attempt - 1]
                return None
        if label in self.poison:
            return "crash"
        if attempt > self.faulted_attempts:
            return None
        unit = _unit(self.seed, "fault", label, str(attempt))
        cumulative = 0.0
        for kind, probability in zip(
            FAULT_KINDS, (self.p_crash, self.p_hang, self.p_oserror)
        ):
            cumulative += probability
            if unit < cumulative:
                return kind
        return None

    def torn_for(self, label: str) -> bool:
        """Whether the store write of the record for *label* gets torn."""
        if self.p_torn_write <= 0:
            return False
        return _unit(self.seed, "torn", label) < self.p_torn_write

    def torn_offset(self, label: str, size: int) -> int:
        """The seeded byte offset the torn file is truncated at."""
        if size <= 1:
            return 0
        return int(_unit(self.seed, "offset", label) * (size - 1))


class _FaultToken:
    """A submit token whose ``result()`` raises instead of computing."""

    __slots__ = ("kind", "label", "attempt")

    def __init__(self, kind: str, label: str, attempt: int) -> None:
        self.kind = kind
        self.label = label
        self.attempt = attempt


def _label_of(payload: Mapping[str, object]) -> str:
    """The point label inside a worker payload (runner side-channel keys
    like ``placement_store`` stripped), or a stable fallback."""
    data = {
        key: value
        for key, value in payload.items()
        if key not in ("placement_store", "routing_store", "artifact_store")
    }
    try:
        return SweepPoint.from_dict(data).label()
    except Exception:
        return repr(sorted(payload))


class ChaosExecutor:
    """Wrap *inner* and inject :class:`FaultPlan` faults at result time.

    Faulted attempts never reach the inner backend at all: ``submit``
    hands back a :class:`_FaultToken` and ``result`` raises the mapped
    exception, so a "crash" looks to the supervision loop exactly like a
    worker pool dying mid-point (:class:`BrokenExecutor`), a "hang"
    exactly like a result wait blowing its deadline (:class:`TimeoutError`)
    and an "oserror" exactly like transient I/O trouble.  Attempt counts
    are per label and survive :meth:`rebuild` -- the supervision loop
    rebuilds the *inner* pool after a crash, and recreating the wrapper
    would amnesia the plan into re-injecting the same fault forever.
    """

    def __init__(self, inner: Executor, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        #: Faults injected so far, by kind.
        self.injected: Counter[str] = Counter()
        #: Labels that received at least one injected fault.
        self.faulted_labels: set[str] = set()
        #: Times the supervision loop asked for a pool rebuild.
        self.rebuilds = 0
        self._attempt_counts: Counter[str] = Counter()

    def submit(self, fn, payload):
        label = _label_of(payload)
        self._attempt_counts[label] += 1
        attempt = self._attempt_counts[label]
        kind = self.plan.fault_for(label, attempt)
        if kind is not None:
            return _FaultToken(kind, label, attempt)
        return self.inner.submit(fn, payload)

    def result(self, token, timeout: float | None = None):
        if isinstance(token, _FaultToken):
            self.injected[token.kind] += 1
            self.faulted_labels.add(token.label)
            if token.kind == "crash":
                raise BrokenExecutor(
                    f"chaos: worker crashed on {token.label} "
                    f"(attempt {token.attempt})"
                )
            if token.kind == "hang":
                raise TimeoutError(
                    f"chaos: {token.label} hung past the timeout "
                    f"(attempt {token.attempt})"
                )
            raise OSError(
                f"chaos: transient I/O fault on {token.label} "
                f"(attempt {token.attempt})"
            )
        return self.inner.result(token, timeout)  # type: ignore[attr-defined]

    def gather(self, tokens):
        return [self.result(token) for token in tokens]

    def rebuild(self) -> None:
        self.rebuilds += 1
        rebuild = getattr(self.inner, "rebuild", None)
        if rebuild is not None:
            rebuild()

    def shutdown(self) -> None:
        self.inner.shutdown()


@contextlib.contextmanager
def chaos_executor(
    plan: FaultPlan, inner: str = "serial", name: str = "chaos"
) -> Iterator[list[ChaosExecutor]]:
    """Temporarily register a ``ChaosExecutor`` backend called *name*.

    The inner backend is created from the same :class:`RunnerConfig` the
    runner passes down (so ``workers`` etc. apply), and every wrapper
    instance the factory builds is appended to the yielded list -- the
    caller reads injection counters off it after the run.
    """
    instances: list[ChaosExecutor] = []

    def factory(config: RunnerConfig) -> ChaosExecutor:
        inner_backend = _EXECUTOR_FACTORIES[inner](
            dataclasses.replace(config, executor=inner)
        )
        executor = ChaosExecutor(inner_backend, plan)
        instances.append(executor)
        return executor

    previous = _EXECUTOR_FACTORIES.get(name)
    register_executor(name, factory)
    try:
        yield instances
    finally:
        if previous is not None:
            _EXECUTOR_FACTORIES[name] = previous
        else:
            _EXECUTOR_FACTORIES.pop(name, None)


class ChaosStore(SweepResultStore):
    """A result store whose selected writes are torn mid-file.

    :meth:`put` writes the record normally (atomic temp + replace), then
    -- when the plan selects the record -- truncates the file at a seeded
    offset, simulating the torn/partial write a crash between ``write``
    and ``fsync`` leaves behind.  The next :meth:`get` of that key must
    quarantine-and-miss rather than raise; ``torn_keys`` records what was
    torn so campaigns know which records to expect in ``.quarantine/``.

    The roll uses the record's point ``label``, not the store key: keys
    embed the code fingerprint, and which records tear must not change
    with every source edit.  Records without a label roll on their key.
    """

    def __init__(
        self, root, plan: FaultPlan, create: bool = True
    ) -> None:
        super().__init__(root, create=create)
        self.plan = plan
        self.torn_keys: list[str] = []

    def put(self, key: str, record: dict[str, object]) -> Path:
        path = super().put(key, record)
        label = str(record.get("label", key))
        if self.plan.torn_for(label):
            size = path.stat().st_size
            offset = self.plan.torn_offset(label, size)
            with path.open("r+b") as handle:
                handle.truncate(offset)
            self.torn_keys.append(key)
        return path


def run_campaign(
    spec_or_points: SweepSpec | Sequence[SweepPoint],
    plan: FaultPlan,
    store: str | None = None,
    executor: str = "serial",
    workers: int = 1,
    timeout_s: float | None = None,
    retry: RetryPolicy | None = None,
    max_point_crashes: int = 2,
    fallback: tuple[str, ...] = (),
) -> dict[str, object]:
    """Run one seeded chaos campaign and audit every recovery path.

    Three steps: a fault-free serial baseline (no store), the chaos run
    (faults injected per *plan*, results written to *store* when given,
    torn writes applied there), and the audit -- every chaos outcome that
    still carries a summary must match the baseline **bit-identically**
    (``summaries_match``), repeat-killers must end ``poisoned``, torn
    records must land in ``.quarantine/`` on the next read.  The returned
    dict is JSON-serializable; ``repro-sweep chaos`` prints it and CI
    asserts on it.
    """
    points = as_points(spec_or_points)
    retry = retry or RetryPolicy()

    baseline = SweepRunner(store=None).run(points)
    expected = {
        outcome.point.label(): outcome.summary for outcome in baseline.outcomes
    }

    chaos_store = ChaosStore(store, plan) if store is not None else None
    with chaos_executor(plan, inner=executor) as instances:
        config = RunnerConfig(
            executor="chaos",
            workers=workers,
            timeout_s=timeout_s,
            retry=retry,
            max_point_crashes=max_point_crashes,
            fallback=fallback,
        )
        # placement_cache off: its summaries are documented bit-identical
        # to store-less runs, which is what makes the baseline comparison
        # exact (the cache would add a placement_cache_hit provenance key).
        report = SweepRunner(
            store=chaos_store, config=config, placement_cache=False
        ).run(points)

    injected: Counter[str] = Counter()
    faulted_labels: set[str] = set()
    rebuilds_seen = 0
    for instance in instances:
        injected.update(instance.injected)
        faulted_labels.update(instance.faulted_labels)
        rebuilds_seen += instance.rebuilds
    torn_keys = list(chaos_store.torn_keys) if chaos_store is not None else []

    mismatches = [
        outcome.point.label()
        for outcome in report.outcomes
        if outcome.summary is not None
        and outcome.summary != expected.get(outcome.point.label())
    ]
    quarantined = 0
    if chaos_store is not None:
        # Reading the torn keys exercises the quarantine path right here.
        for key in torn_keys:
            assert chaos_store.get(key) is None
        quarantined = len(chaos_store.quarantined())

    stats = report.stats()
    return {
        "points": len(points),
        "plan": plan.to_dict(),
        "statuses": {
            "ok": report.ok_count,
            "errors": stats["errors"],
            "timeouts": report.timeout_count,
            "poisoned": report.poisoned_count,
            "skipped": report.skipped_count,
            "retried": report.retried_count,
        },
        "injected": dict(injected),
        "faulted_labels": sorted(faulted_labels),
        "pool_rebuilds": report.pool_rebuilds,
        "fallbacks": list(report.fallbacks),
        "torn_keys": torn_keys,
        "quarantined": quarantined,
        "summary_mismatches": mismatches,
        "summaries_match": not mismatches,
        "completed": len(report.outcomes) == len(points),
    }
