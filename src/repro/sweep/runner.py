"""Pluggable execution of sweep grids with result and placement caching.

:class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec` (or an
explicit point list), consults the content-addressed
:class:`~repro.sweep.store.SweepResultStore` for each point, executes the
misses on a named :class:`Executor` backend and returns a
:class:`SweepReport` with per-point outcomes plus cache hit/miss counters.

Executor backends
-----------------
Execution is behind the :class:`Executor` protocol (``submit`` / ``result`` /
``rebuild`` / ``shutdown``) so the fan-out strategy is orthogonal to the flow
itself.
Three backends ship in-tree, selected by name through :class:`RunnerConfig`
(which is deliberately independent of :class:`~repro.cad.flow.FlowOptions`:
*how* points run never changes *what* they compute):

* ``serial`` -- in-process, bit-identical to running
  :class:`~repro.cad.flow.CadFlow` by hand; the reference semantics.
* ``thread`` -- a ``ThreadPoolExecutor``; the flow is pure Python so this
  buys little for compute-bound sweeps, but is the right backend for
  I/O-light mostly-cached sweeps (no process spawn or pickling cost).
* ``process`` -- a ``ProcessPoolExecutor``; true parallelism for cold
  compute-bound sweeps.  Payloads and records are plain dicts so they
  pickle cleanly.

Third-party backends (cluster schedulers, job queues) plug in via
:func:`register_executor`; anything honouring the protocol and calling
:func:`execute_point` on its workers produces records identical to the
serial backend.

Failure handling
----------------
Flow failures (unroutable architecture, unplaceable design, ...) are captured
as ``status="error"`` records -- with the exception class and message -- rather
than aborting the sweep.  Most flow failures are deterministic and therefore
cacheable; mapping failures are deliberately *not* cached, so re-running a
sweep after fixing the mapper re-attempts the point instead of replaying the
stale error (the code-fingerprint cache key would retire the record anyway,
but an uncached error also survives e.g. a restored store snapshot).

Supervision (timeouts, retries, crash recovery)
-----------------------------------------------
Cache misses run under a supervision loop (see ``docs/robustness.md``):

* a per-point wall-clock ``timeout_s`` is enforced for every in-tree backend
  (preemptively where the backend can wait with a deadline, cooperatively --
  by discarding an overrun result -- where it cannot), producing
  ``status="timeout"`` records that are never cached;
* **transient** failures (``OSError`` / ``MemoryError``, plus anything the
  executor infrastructure itself raises) are re-attempted up to
  ``max_attempts`` times, the delay doubling from ``backoff_s``;
* a broken worker pool (``BrokenProcessPool`` and friends) no longer aborts
  the sweep: the pool is rebuilt, in-flight points are resubmitted, and a
  point that kills its worker more than ``max_point_crashes`` times is
  quarantined as ``status="poisoned"`` -- cached *with* its attempt history
  so ``repro-sweep stats`` can report it;
* an opt-in ``fallback`` ladder degrades the backend (e.g. process -> thread
  -> serial) after :data:`MAX_POOL_REBUILDS` rebuilds of the same backend;
* ``fail_fast`` stops submitting after the first non-ok point and marks the
  rest ``status="skipped"``.

Every backend runs under this loop: ``result(token, timeout)`` is how it
waits for a point and ``rebuild()`` how it recovers a broken pool, so a
registered backend that lacks either is rejected with ``TypeError`` when the
sweep creates it.

Incremental re-route
--------------------
When a store is attached, each flow's wirelength anneal
(``FlowResult.baseline_placement``) is cached under
:meth:`~repro.sweep.spec.SweepPoint.placement_key`, which hashes only what
the anneal depends on (circuit + code fingerprint, fabric geometry, seed,
effort), together with the packed design it placed.  A later point
differing only in routing-side or timing options (channel width,
``timing_driven``, ...) misses the flow-summary cache but *hits* the
placement cache: the runner hands the stored design and anneal to
:meth:`CadFlow.run`, which neither builds nor maps the circuit (it still
re-packs the design), skips annealing (a timing-driven flow still polishes
it) and goes on to routing.  The summary then carries
``placement_cache_hit`` (``True``/``False``), and — because the design and
the anneal are deterministic in their key — the result is bit-identical to
a cold run.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.sweep.spec import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POISONED,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    SWEEP_SCHEMA_VERSION,
    SweepPoint,
    SweepSpec,
    as_points,
)
from repro.sweep.store import SweepResultStore

logger = logging.getLogger(__name__)

#: Exception classes whose flow failures are *environmental* rather than
#: deterministic: never cached, and retried in-run by the supervision loop
#: while ``RunnerConfig.max_attempts`` allows.  ``TimeoutError`` is an
#: ``OSError`` subclass, so backend timeouts classify as transient too.
TRANSIENT_EXCEPTIONS = (OSError, MemoryError)

#: Pool rebuilds tolerated per backend before the ``fallback`` ladder
#: degrades to the next backend (when one is configured).
MAX_POOL_REBUILDS = 3


def _flow_record_header(point: SweepPoint) -> dict[str, object]:
    """The keys that open every flow record: schema, kind, code and point."""
    from repro.fingerprint import code_fingerprint

    return {
        "version": SWEEP_SCHEMA_VERSION,
        "kind": "flow",
        "fingerprint": code_fingerprint(),
        "point": point.to_dict(),
        "label": point.label(),
    }


def execute_point(point_data: Mapping[str, object]) -> dict[str, object]:
    """Run one sweep point (given as a plain dict) and return its record.

    Module-level and dict-in / dict-out so it pickles cleanly into worker
    processes.  Every failure mode of the flow is folded into the record.

    Besides the :meth:`SweepPoint.to_dict` fields the payload may carry a
    ``placement_store`` key (a directory path): the worker then consults the
    placement cache first and persists any freshly computed wirelength
    anneal, with the packed design it placed, after a successful flow.  A
    hit runs the flow from the stored design, so it calls neither
    ``build_circuit`` nor the mapper.  A record whose placement or design
    does not decode is flagged ``placement_cache_corrupt`` and the
    point runs as a miss.  Store writes are atomic, so parallel workers can
    share one directory.

    An ``artifact_store`` key (a directory path) makes the worker checkpoint
    every stage boundary of each executed flow into a
    :class:`~repro.artifacts.ArtifactStore` there (see ``docs/artifacts.md``).
    The path is injected into the executed :class:`FlowOptions` only — it is
    excluded from ``FlowOptions.to_dict`` and therefore never perturbs cache
    keys or stored records.
    """
    # Imports stay inside the function so worker processes pay them lazily
    # and a broken optional subsystem cannot poison runner import time.
    from repro.cad.flow import CadFlow
    from repro.cad.lemap import MappedDesign
    from repro.cad.place import Placement
    from repro.cad.techmap import MappingError
    from repro.circuits.registry import build_circuit
    from repro.fingerprint import code_fingerprint

    data = dict(point_data)
    placement_store_root = data.pop("placement_store", None)
    artifact_store_root = data.pop("artifact_store", None)
    point = SweepPoint.from_dict(data)
    record = _flow_record_header(point)
    placement_store = (
        SweepResultStore(placement_store_root) if placement_store_root else None
    )
    started = time.perf_counter()
    try:
        injected: Placement | None = None
        design: MappedDesign | None = None
        placement_key: str | None = None
        if placement_store is not None and point.options.run_placement:
            placement_key = point.placement_key()
            cached = placement_store.get(placement_key)
            if cached is not None and cached.get("kind") == "placement":
                try:
                    injected = Placement.from_dict(cached["placement"])  # type: ignore[arg-type]
                    design = MappedDesign.from_dict(cached["design"])  # type: ignore[arg-type]
                except (KeyError, TypeError, ValueError) as exc:
                    # Corrupt cached record: fall back to building, mapping
                    # and placing, but observably -- the silent swallow used
                    # to hide cache corruption entirely.
                    injected = design = None
                    record["placement_cache_corrupt"] = True
                    logger.warning(
                        "corrupt placement-cache record %s for %s (%s: %s); "
                        "falling back to a fresh placement",
                        placement_key,
                        point.label(),
                        type(exc).__name__,
                        exc,
                    )

        # A hit runs from the packed design its anneal placed: the placement
        # key hashes every input of that design, so re-building and
        # re-mapping the circuit would reproduce it exactly.
        circuit = design if design is not None else build_circuit(point.circuit)
        flow_options = point.options
        if artifact_store_root:
            flow_options = dataclasses.replace(
                flow_options, artifact_store=str(artifact_store_root)
            )
        result = CadFlow(point.architecture, flow_options).run(circuit, placement=injected)

        if placement_store is not None and point.options.run_placement:
            if result.placement_cache_hit is None:
                result.placement_cache_hit = False  # cache consulted, missed
            anneal = result.baseline_placement
            if anneal is not None and not result.placement_cache_hit:
                placement_store.put(
                    placement_key,  # type: ignore[arg-type]
                    {
                        "version": SWEEP_SCHEMA_VERSION,
                        "kind": "placement",
                        "fingerprint": code_fingerprint(),
                        "circuit": point.circuit,
                        "seed": point.options.placement_seed,
                        "placement": anneal.to_dict(),
                        # The design as it left the pack stage (no later
                        # stage changes it): hits run from it.
                        "design": result.mapped.to_dict(),
                    },
                )

        record["status"] = STATUS_OK
        record["summary"] = result.summary()
        record["error"] = None
        record["cacheable"] = True
        record["transient"] = False
    except Exception as exc:
        record["status"] = STATUS_ERROR
        record["summary"] = None
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        # Flow-domain failures (unroutable, unplaceable, ...) are as
        # deterministic as successes and therefore cacheable.  Environmental
        # ones (disk full, out of memory) must be retried on the next run;
        # KeyError (unknown circuit) depends on the registry contents; and a
        # MappingError is what a mapper fix is *supposed* to change, so it is
        # recorded (class + message) but never cached -- the next run after a
        # fix re-attempts the point instead of replaying the old failure.
        record["cacheable"] = not isinstance(
            exc, TRANSIENT_EXCEPTIONS + (KeyError, MappingError)
        )
        # Transient (environmental) failures are additionally retried
        # *in-run* by the supervision loop while max_attempts allows.
        record["transient"] = isinstance(exc, TRANSIENT_EXCEPTIONS)
    record["duration_s"] = round(time.perf_counter() - started, 6)
    # A single-attempt history; the supervision loop replaces it with the
    # full per-attempt trail when retries / crashes / timeouts occurred.
    record["attempts"] = [
        {
            "outcome": record["status"],
            "error": record["error"],
            "duration_s": record["duration_s"],
        }
    ]
    return record


# ----------------------------------------------------------------------
# Executor protocol and in-tree backends
# ----------------------------------------------------------------------
@runtime_checkable
class Executor(Protocol):
    """How sweep-point payloads get executed (submit / result / rebuild / shutdown).

    Implementations receive a picklable function plus one picklable payload
    per :meth:`submit` call and return an opaque token; :meth:`result` waits
    for one token's record, raising ``TimeoutError`` once *timeout* seconds
    pass and ``BrokenExecutor`` when the pool died under it; :meth:`rebuild`
    replaces a broken pool; :meth:`shutdown` releases any pool resources
    (always called, even when a point raised).  Register new backends with
    :func:`register_executor`.
    """

    def submit(
        self, fn: Callable[[Mapping[str, object]], dict[str, object]],
        payload: Mapping[str, object],
    ) -> object: ...

    def result(self, token: object, timeout: float | None = None) -> dict[str, object]: ...

    def rebuild(self) -> None: ...

    def shutdown(self) -> None: ...


class SerialExecutor:
    """In-process execution, one payload at a time, in submission order.

    The reference backend: bit-identical to calling the flow by hand, no
    pickling, exceptions propagate with their original tracebacks.  Work is
    deferred to :meth:`result`, so the supervision loop's per-point timing
    measures the point itself, not queue wait.  Timeouts are
    **cooperative** here -- an in-process flow cannot be preempted, so an
    overrun is detected (and the result discarded) after the fact.
    """

    def submit(self, fn, payload):
        return (fn, payload)

    def result(self, token, timeout: float | None = None):
        fn, payload = token
        return fn(payload)

    def rebuild(self) -> None:
        pass  # nothing pooled to rebuild

    def shutdown(self) -> None:
        pass


class _PoolExecutor:
    """Shared submit/result/rebuild/shutdown over a ``concurrent.futures`` pool.

    Holding the pool *factory* rather than the pool itself is what makes
    :meth:`rebuild` possible: when a worker dies and the pool reports
    itself broken, the supervision loop discards it and builds a fresh one
    without losing the executor's identity (or, for wrappers such as the
    chaos executor, their fault-plan state).
    """

    def __init__(self, pool_factory) -> None:
        self._pool_factory = pool_factory
        self._pool = pool_factory()

    def submit(self, fn, payload) -> Future:
        return self._pool.submit(fn, payload)

    def result(self, token, timeout: float | None = None):
        return token.result(timeout)

    def rebuild(self) -> None:
        # The broken pool's shutdown returns immediately; cancel_futures
        # clears anything still queued (the supervisor resubmits it).
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._pool_factory()

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


class ThreadExecutor(_PoolExecutor):
    """``ThreadPoolExecutor`` backend: cheap fan-out for I/O-light sweeps.

    The flow is CPU-bound pure Python, so threads do not speed up cold
    sweeps; they shine when most points are served from the store and the
    remaining work is file I/O, or when payloads are unpicklable.
    """

    def __init__(self, workers: int) -> None:
        super().__init__(lambda: ThreadPoolExecutor(max_workers=max(1, workers)))


class ProcessExecutor(_PoolExecutor):
    """``ProcessPoolExecutor`` backend: true parallelism for cold sweeps."""

    def __init__(self, workers: int) -> None:
        super().__init__(lambda: ProcessPoolExecutor(max_workers=max(1, workers)))


@dataclass(frozen=True)
class RunnerConfig:
    """How a sweep executes -- independent of what it computes.

    Deliberately separate from :class:`~repro.cad.flow.FlowOptions`: executor
    choice, worker count and the supervision knobs never enter cache keys,
    so the same grid run on any backend shares one store.
    """

    executor: str = "serial"
    workers: int = 1
    #: Per-point wall-clock budget in seconds; ``None`` disables the check.
    #: Pool backends enforce it preemptively (the result wait times out);
    #: the serial backend detects overruns cooperatively after the fact.
    #: Either way the point records ``status="timeout"`` and is never cached.
    timeout_s: float | None = None
    #: Total attempts per point (1 = no retries).  Only transient outcomes
    #: are re-attempted: environmental flow failures (``OSError`` /
    #: ``MemoryError``), timeouts and executor-infrastructure errors.
    #: Deterministic flow failures would fail identically every time, and
    #: worker crashes are budgeted by ``max_point_crashes`` instead.
    max_attempts: int = 1
    #: Delay before the first re-attempt; re-attempt *n* waits
    #: ``backoff_s * 2 ** (n - 1)`` seconds.  0 re-attempts at once.
    backoff_s: float = 0.0
    #: A point that breaks the worker pool more than this many times is
    #: quarantined as ``status="poisoned"`` instead of being resubmitted.
    max_point_crashes: int = 2
    #: Opt-in graceful-degradation ladder, e.g. ``("thread", "serial")``.
    fallback: tuple[str, ...] = ()
    #: Stop submitting after the first non-ok point; the rest of the grid
    #: is recorded as ``status="skipped"``.
    fail_fast: bool = False


_EXECUTOR_FACTORIES: dict[str, Callable[[RunnerConfig], Executor]] = {}


def register_executor(name: str, factory: Callable[[RunnerConfig], Executor]) -> None:
    """Register an executor backend under *name* (overwrites silently).

    *factory* takes the :class:`RunnerConfig` and returns an object honouring
    the :class:`Executor` protocol.  This is the hook for third-party cluster
    or job-queue backends; in-tree names are ``serial``, ``thread`` and
    ``process``.
    """
    _EXECUTOR_FACTORIES[name] = factory


def available_executors() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_EXECUTOR_FACTORIES))


def check_executor(name: str) -> None:
    """Raise ``ValueError`` unless *name* is a registered backend."""
    if name not in _EXECUTOR_FACTORIES:
        raise ValueError(
            f"unknown executor {name!r}; "
            f"registered: {', '.join(available_executors())}"
        )


register_executor("serial", lambda config: SerialExecutor())
register_executor("thread", lambda config: ThreadExecutor(config.workers))
register_executor("process", lambda config: ProcessExecutor(config.workers))


# ----------------------------------------------------------------------
# Supervision: timeouts, retries, crash recovery, poisoning, fallback
# ----------------------------------------------------------------------
class _PointRun:
    """Mutable supervision state for one cache-missed point."""

    __slots__ = ("payload", "point", "attempts", "failures", "crashes", "record")

    def __init__(self, payload: dict[str, object], point: SweepPoint) -> None:
        self.payload = payload
        self.point = point
        #: Full per-attempt trail: ``{"outcome", "error", "duration_s"}``.
        self.attempts: list[dict[str, object]] = []
        #: Attempts consumed against ``RunnerConfig.max_attempts`` (timeouts,
        #: transient flow errors, infrastructure errors -- NOT crashes).
        self.failures = 0
        #: Worker-pool breakages blamed on this point (poison budget).
        self.crashes = 0
        self.record: dict[str, object] | None = None


class _Supervisor:
    """Drive cache misses through a backend with fault tolerance.

    One supervisor lives for the whole :meth:`SweepRunner.run` call (both
    placement-dedup waves share its backend, crash counters and fail-fast
    trip wire).  Every backend it creates must implement the whole
    :class:`Executor` protocol.
    """

    def __init__(self, config: RunnerConfig) -> None:
        ladder = [config.executor, *config.fallback]
        for name in ladder:
            check_executor(name)
        self.config = config
        self._ladder = ladder
        self._rung = 0
        self.backend: Executor = self._create(config.executor)
        self.executor_name = config.executor
        self.pool_rebuilds = 0
        self.fallbacks: list[str] = []
        self._rebuilds_this_backend = 0
        self._submit_failures = 0
        self._tripped = False  # fail_fast fired

    # -- backend lifecycle --------------------------------------------
    def _create(self, name: str) -> Executor:
        backend = _EXECUTOR_FACTORIES[name](
            dataclasses.replace(self.config, executor=name)
        )
        if not isinstance(backend, Executor):
            raise TypeError(
                f"executor {name!r} must implement submit, result, rebuild and shutdown"
            )
        return backend

    def shutdown(self) -> None:
        self.backend.shutdown()

    def _note_pool_failure(self) -> None:
        """Rebuild the broken pool, degrading down the ladder when due."""
        self.pool_rebuilds += 1
        self._rebuilds_this_backend += 1
        if (
            self._rebuilds_this_backend > MAX_POOL_REBUILDS
            and self._rung + 1 < len(self._ladder)
        ):
            self._rung += 1
            name = self._ladder[self._rung]
            try:
                self.backend.shutdown()
            except Exception:  # the pool is broken; releasing is best-effort
                pass
            self.backend = self._create(name)
            self.executor_name = name
            self.fallbacks.append(name)
            self._rebuilds_this_backend = 0
            logger.warning(
                "worker pool failed %d time(s); falling back to the %r backend",
                self.pool_rebuilds,
                name,
            )
            return
        self.backend.rebuild()

    def _note_submit_failure(self) -> None:
        """A pool that breaks before accepting work attaches no blame --
        but it must not loop forever either."""
        self._submit_failures += 1
        budget = (MAX_POOL_REBUILDS + 1) * len(self._ladder) + 4
        if self._submit_failures > budget:
            raise BrokenExecutor(
                f"worker pool keeps breaking before accepting work "
                f"(gave up after {self.pool_rebuilds} rebuild(s)); "
                f"run with executor='serial' to bypass pooling"
            )
        self._note_pool_failure()

    # -- record construction ------------------------------------------
    def _attempt(
        self,
        run: _PointRun,
        outcome: str,
        error: dict[str, object] | None,
        duration_s: float,
    ) -> None:
        run.attempts.append(
            {"outcome": outcome, "error": error, "duration_s": round(duration_s, 6)}
        )

    def _stub(
        self,
        run: _PointRun,
        status: str,
        error: dict[str, object] | None,
        cacheable: bool,
        transient: bool,
    ) -> dict[str, object]:
        return {
            **_flow_record_header(run.point),
            "status": status,
            "summary": None,
            "error": error,
            "cacheable": cacheable,
            "transient": transient,
            "duration_s": round(
                sum(float(a.get("duration_s") or 0.0) for a in run.attempts), 6
            ),
            "attempts": run.attempts,
        }

    def _finalise(self, run: _PointRun, record: dict[str, object]) -> None:
        record["attempts"] = run.attempts
        run.record = record
        if self.config.fail_fast and record.get("status") != STATUS_OK:
            self._tripped = True

    def _finalise_skipped(self, run: _PointRun) -> None:
        run.record = self._stub(
            run,
            STATUS_SKIPPED,
            {
                "type": "FailFast",
                "message": "sweep stopped by fail_fast before this point ran",
            },
            cacheable=False,
            transient=False,
        )

    # -- the supervision loop -----------------------------------------
    def run_wave(
        self, entries: Sequence[tuple[dict[str, object], SweepPoint]]
    ) -> list[dict[str, object]]:
        """Execute one wave of payloads; returns records in entry order."""
        runs = [_PointRun(payload, point) for payload, point in entries]
        pending = list(runs)
        while pending:
            if self._tripped:
                for run in pending:
                    self._finalise_skipped(run)
                break
            batch, pending = pending, []
            # Backoff: one sleep per resubmission round, for the batch's
            # most re-attempted point (the delay doubles per re-attempt).
            reattempt = max(len(run.attempts) for run in batch)
            if reattempt and self.config.backoff_s > 0:
                time.sleep(self.config.backoff_s * 2 ** (reattempt - 1))
            tokens: list[object] = []
            accepted = True
            for run in batch:
                try:
                    tokens.append(self.backend.submit(execute_point, run.payload))
                except BrokenExecutor:
                    self._note_submit_failure()
                    accepted = False
                    break
            if not accepted:
                pending = batch  # nobody ran; resubmit the whole batch
                continue
            for index, run in enumerate(batch):
                if self._tripped:
                    self._finalise_skipped(run)
                    continue
                waited = time.perf_counter()
                try:
                    record = self.backend.result(tokens[index], self.config.timeout_s)
                except TimeoutError:
                    self._on_timeout(run, time.perf_counter() - waited, pending)
                except BrokenExecutor as exc:
                    # The pool died under this point: blame it, rebuild, and
                    # resubmit everything the breakage took down with it.
                    self._on_crash(run, exc, time.perf_counter() - waited, pending)
                    pending.extend(batch[index + 1 :])
                    break
                except Exception as exc:
                    self._on_infra_error(run, exc, time.perf_counter() - waited, pending)
                else:
                    self._on_record(run, record, pending)
        return [run.record for run in runs]  # type: ignore[misc]

    def _retryable(self, run: _PointRun) -> bool:
        return run.failures < self.config.max_attempts

    def _on_timeout(self, run: _PointRun, elapsed: float, pending: list) -> None:
        budget = self.config.timeout_s
        error = {
            "type": "TimeoutError",
            "message": f"point exceeded the {budget:g}s wall-clock budget"
            if budget is not None
            else "point reported a hang",
        }
        run.failures += 1
        self._attempt(run, STATUS_TIMEOUT, error, elapsed)
        if self._retryable(run):
            pending.append(run)
        else:
            self._finalise(
                run,
                self._stub(run, STATUS_TIMEOUT, error, cacheable=False, transient=True),
            )

    def _on_crash(
        self, run: _PointRun, exc: BaseException, elapsed: float, pending: list
    ) -> None:
        run.crashes += 1
        error = {
            "type": type(exc).__name__,
            "message": str(exc) or "worker pool broke while this point ran",
        }
        self._attempt(run, "crash", error, elapsed)
        self._note_pool_failure()
        if run.crashes > self.config.max_point_crashes:
            self._finalise(
                run,
                self._stub(
                    run,
                    STATUS_POISONED,
                    {
                        "type": "WorkerCrash",
                        "message": (
                            f"point killed its worker {run.crashes} time(s); "
                            f"quarantined as poisoned"
                        ),
                    },
                    # Poisoned records ARE cached, with their attempt
                    # history: stats() reports them, and a deliberate
                    # gc/clear (or a code-fingerprint change) re-arms them.
                    cacheable=True,
                    transient=False,
                ),
            )
        else:
            pending.append(run)

    def _on_infra_error(
        self, run: _PointRun, exc: BaseException, elapsed: float, pending: list
    ) -> None:
        # The executor infrastructure (not the flow) failed: pickling, IPC,
        # an injected chaos fault...  Always transient, never cached.
        error = {"type": type(exc).__name__, "message": str(exc)}
        run.failures += 1
        self._attempt(run, STATUS_ERROR, error, elapsed)
        if self._retryable(run):
            pending.append(run)
        else:
            self._finalise(
                run,
                self._stub(run, STATUS_ERROR, error, cacheable=False, transient=True),
            )

    def _on_record(
        self, run: _PointRun, record: dict[str, object], pending: list
    ) -> None:
        duration = float(record.get("duration_s") or 0.0)
        error = record.get("error")
        if (
            self.config.timeout_s is not None
            and duration > self.config.timeout_s
        ):
            # Cooperative overrun (the serial backend cannot preempt): the
            # result arrived but blew the budget, so it is discarded.
            run.failures += 1
            timeout_error = {
                "type": "TimeoutError",
                "message": (
                    f"point ran {duration:.3f}s against the "
                    f"{self.config.timeout_s:g}s wall-clock budget"
                ),
            }
            self._attempt(run, STATUS_TIMEOUT, timeout_error, duration)
            if self._retryable(run):
                pending.append(run)
            else:
                self._finalise(
                    run,
                    self._stub(
                        run, STATUS_TIMEOUT, timeout_error, cacheable=False, transient=True
                    ),
                )
            return
        self._attempt(run, str(record.get("status", STATUS_ERROR)), error, duration)  # type: ignore[arg-type]
        if (
            record.get("status") == STATUS_ERROR
            and record.get("transient")
        ):
            run.failures += 1
            if self._retryable(run):
                pending.append(run)
                return
        self._finalise(run, record)


@dataclass
class SweepOutcome:
    """One executed (or cache-served) sweep point."""

    point: SweepPoint
    status: str
    summary: dict[str, object] | None
    error: dict[str, object] | None
    cached: bool
    #: Per-attempt trail (``outcome`` / ``error`` / ``duration_s`` each);
    #: empty for records predating the supervised runner.
    attempts: list[dict[str, object]] = field(default_factory=list)
    #: Wall-clock seconds of the recorded (final) flow execution.
    duration_s: float | None = None

    @classmethod
    def from_record(
        cls, point: SweepPoint, record: Mapping[str, object], cached: bool
    ) -> "SweepOutcome":
        """The outcome a stored or fresh flow record describes."""
        return cls(
            point=point,
            status=str(record.get("status", "error")),
            summary=record.get("summary"),  # type: ignore[arg-type]
            error=record.get("error"),  # type: ignore[arg-type]
            cached=cached,
            attempts=list(record.get("attempts") or []),  # type: ignore[arg-type]
            duration_s=record.get("duration_s"),  # type: ignore[arg-type]
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> bool:
        """Whether this point needed more than one attempt."""
        return len(self.attempts) > 1

    def row(self) -> dict[str, object]:
        """A flat dict for tables / CSV; summary keys are inlined."""
        data: dict[str, object] = {
            "label": self.point.label(),
            "circuit": self.point.circuit,
            "status": self.status,
            "cached": self.cached,
            "attempts": max(1, len(self.attempts)),
            "duration_s": self.duration_s,
        }
        if self.summary:
            data.update(self.summary)
            # The summary's own "circuit" key is the mapped design name,
            # which can differ from the registry name (e.g. the ripple
            # adders); keep both under distinct columns.
            data["design"] = self.summary.get("circuit")
            data["circuit"] = self.point.circuit
        if self.error:
            data["error"] = f"{self.error.get('type')}: {self.error.get('message')}"
        return data


@dataclass
class SweepReport:
    """Everything one :meth:`SweepRunner.run` call produced."""

    outcomes: list[SweepOutcome] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    executor: str = "serial"
    elapsed_s: float = 0.0
    #: Worker-pool rebuilds the supervision loop performed this run.
    pool_rebuilds: int = 0
    #: Fallback-ladder backends engaged, in order (empty: none needed).
    fallbacks: list[str] = field(default_factory=list)

    @property
    def flow_executions(self) -> int:
        """Flows actually run in this call (== cache misses)."""
        return self.cache_misses

    @property
    def ok_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def error_count(self) -> int:
        """Every non-ok outcome (errors, timeouts, poisoned, skipped)."""
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    def _status_count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def timeout_count(self) -> int:
        return self._status_count(STATUS_TIMEOUT)

    @property
    def poisoned_count(self) -> int:
        return self._status_count(STATUS_POISONED)

    @property
    def skipped_count(self) -> int:
        return self._status_count(STATUS_SKIPPED)

    @property
    def retried_count(self) -> int:
        """Points that needed more than one attempt."""
        return sum(1 for outcome in self.outcomes if outcome.retried)

    def rows(self) -> list[dict[str, object]]:
        return [outcome.row() for outcome in self.outcomes]

    def summaries(self) -> list[dict[str, object] | None]:
        """Per-point flow summaries (``None`` where the flow errored)."""
        return [outcome.summary for outcome in self.outcomes]

    def stats(self) -> dict[str, object]:
        return {
            "points": len(self.outcomes),
            "ok": self.ok_count,
            "errors": self.error_count,
            "timeouts": self.timeout_count,
            "poisoned": self.poisoned_count,
            "skipped": self.skipped_count,
            "retried": self.retried_count,
            "pool_rebuilds": self.pool_rebuilds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "flow_executions": self.flow_executions,
            "workers": self.workers,
            "executor": self.executor,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def report_from_records(
    records: Iterable[tuple[str, Mapping[str, object]]],
    current_fingerprint: str | None = None,
) -> SweepReport:
    """Rebuild a :class:`SweepReport` from stored flow records.

    This is what ``repro-sweep export`` uses: every readable ``kind="flow"``
    record (placement records are skipped) becomes a cached outcome, so a
    populated store can be rendered to CSV/JSON/text without re-running
    anything.  Records are sorted by label for a stable export order.

    A store spanning a code edit holds several *generations* of the same
    points; pass *current_fingerprint* to keep only records stamped with it
    (what the CLI does by default) -- otherwise every generation is included
    and points can appear once per generation.  A retired generation whose
    point no longer decodes (its options carry a field this code removed)
    is skipped, and one WARNING counts the skipped records.
    """
    report = SweepReport(executor="store")
    undecodable = 0
    for _key, record in records:
        if record.get("kind", "flow") != "flow":
            continue
        if (
            current_fingerprint is not None
            and record.get("fingerprint") != current_fingerprint
        ):
            continue
        try:
            point = SweepPoint.from_dict(record["point"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            undecodable += 1
            continue
        report.outcomes.append(SweepOutcome.from_record(point, record, cached=True))
    if undecodable:
        logger.warning(
            "skipped %d stored flow records whose point does not decode", undecodable
        )
    report.outcomes.sort(key=lambda outcome: outcome.point.label())
    report.cache_hits = len(report.outcomes)
    return report


class SweepRunner:
    """Execute sweep grids against an optional on-disk result store.

    Parameters
    ----------
    store:
        A :class:`SweepResultStore`, a directory path to open one in, or
        ``None`` to disable caching entirely.
    config:
        How the misses execute: the backend (``serial`` / ``thread`` /
        ``process`` or anything registered via :func:`register_executor`),
        its worker count and the supervision settings.  The default runs
        serially, one attempt per point.
    placement_cache:
        When a store is attached, also cache wirelength anneals with the
        packed designs they placed, and re-route incrementally on
        routing-side or timing option changes (adds the
        ``placement_cache_hit`` summary key on placement-running sweeps).
        Disable for summaries bit-identical to store-less runs.
    artifacts:
        Directory of an :class:`~repro.artifacts.ArtifactStore`; each
        executed flow then checkpoints its stage boundaries there (mapped /
        packed / placement / routing / timing / bitstream), enabling
        ``repro-sweep export --bitstreams``, ``repro-lint --artifacts`` and
        out-of-band flow resumes.  Purely additive: summaries, records and
        cache keys are byte-identical with or without it.
    """

    def __init__(
        self,
        store: SweepResultStore | str | None = None,
        config: RunnerConfig = RunnerConfig(),
        placement_cache: bool = True,
        artifacts: str | None = None,
    ) -> None:
        if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
            store = SweepResultStore(store)
        self.store: SweepResultStore | None = store
        self.config = config
        self.placement_cache = placement_cache
        self.artifacts = str(artifacts) if artifacts is not None else None

    def run(
        self,
        spec_or_points: SweepSpec | Sequence[SweepPoint],
        progress: Callable[[str], None] | None = None,
    ) -> SweepReport:
        """Run every point of the grid, serving repeats from the store."""
        points = as_points(spec_or_points)
        started = time.perf_counter()
        # Fail fast on typo'd backend names even when every point is cached;
        # the fallback ladder must name real backends too.
        for name in (self.config.executor, *self.config.fallback):
            check_executor(name)
        report = SweepReport(workers=self.config.workers, executor=self.config.executor)

        keys = [point.key() for point in points]
        records: list[dict[str, object] | None] = [None] * len(points)
        miss_indices: list[int] = []
        for index, point in enumerate(points):
            cached = self.store.get(keys[index]) if self.store is not None else None
            if cached is not None and cached.get("version") == SWEEP_SCHEMA_VERSION:
                if not self.placement_cache:
                    # The record may come from a placement-caching run; strip
                    # the provenance marker so this runner's summaries stay
                    # bit-identical to store-less runs, as documented.
                    summary = cached.get("summary")
                    if isinstance(summary, dict) and "placement_cache_hit" in summary:
                        cached = dict(cached)
                        cached["summary"] = {
                            key: value
                            for key, value in summary.items()
                            if key != "placement_cache_hit"
                        }
                records[index] = cached
                report.cache_hits += 1
            else:
                miss_indices.append(index)
        report.cache_misses = len(miss_indices)
        if progress is not None:
            progress(
                f"sweep: {len(points)} points, {report.cache_hits} cached, "
                f"{report.cache_misses} to run on {self.config.executor}"
                f"[{self.config.workers} worker(s)]"
            )

        if miss_indices:
            placement_store = (
                str(self.store.root)
                if self.store is not None and self.placement_cache
                else None
            )
            miss_payloads: list[dict[str, object]] = []
            for index in miss_indices:
                payload = points[index].to_dict()
                if placement_store is not None:
                    payload["placement_store"] = placement_store
                if self.artifacts is not None:
                    payload["artifact_store"] = self.artifacts
                miss_payloads.append(payload)

            # Points sharing a placement key must not race: if they all ran
            # concurrently, each would miss the placement cache, re-anneal,
            # and record placement_cache_hit=False -- parallel runs would
            # compute (and cache) different records than serial ones.  So
            # misses run in two waves: one *leader* per placement key first
            # (grid order, matching what serial execution would pick), then
            # everyone else, who now deterministically hit the leader's
            # cached placement.
            leader_positions: list[int] = []
            follower_positions: list[int] = []
            if placement_store is not None:
                seen_placement_keys: set[str] = set()
                for position, index in enumerate(miss_indices):
                    point = points[index]
                    if point.options.run_placement:
                        placement_key = point.placement_key()
                        if placement_key in seen_placement_keys:
                            follower_positions.append(position)
                            continue
                        seen_placement_keys.add(placement_key)
                    leader_positions.append(position)
            else:
                leader_positions = list(range(len(miss_indices)))

            fresh: list[dict[str, object] | None] = [None] * len(miss_indices)
            supervisor = _Supervisor(self.config)
            try:
                for wave in (leader_positions, follower_positions):
                    if not wave:
                        continue
                    entries = [
                        (miss_payloads[position], points[miss_indices[position]])
                        for position in wave
                    ]
                    for position, record in zip(wave, supervisor.run_wave(entries)):
                        fresh[position] = record
            finally:
                supervisor.shutdown()
            report.pool_rebuilds = supervisor.pool_rebuilds
            report.fallbacks = list(supervisor.fallbacks)
            for index, record in zip(miss_indices, fresh):
                assert record is not None  # every position is in exactly one wave
                records[index] = record
                if self.store is not None and record.get("cacheable", True):
                    self.store.put(keys[index], record)

        missed = set(miss_indices)
        for index, (point, record) in enumerate(zip(points, records)):
            assert record is not None  # every index is either a hit or a miss
            report.outcomes.append(
                SweepOutcome.from_record(point, record, cached=index not in missed)
            )
        report.elapsed_s = time.perf_counter() - started
        return report
