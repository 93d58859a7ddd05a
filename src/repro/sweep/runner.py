"""Pluggable execution of sweep grids with result and placement caching.

:class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec` (or an
explicit point list), consults the content-addressed
:class:`~repro.sweep.store.SweepResultStore` for each point, executes the
misses on a named :class:`Executor` backend and returns a
:class:`SweepReport` with per-point outcomes plus cache hit/miss counters.

Executor backends
-----------------
Execution is behind the :class:`Executor` protocol (``submit`` / ``gather`` /
``shutdown``) so the fan-out strategy is orthogonal to the flow itself.
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
  executor infrastructure itself raises) are retried per the seeded
  :class:`RetryPolicy` with deterministic exponential backoff;
* a broken worker pool (``BrokenProcessPool`` and friends) no longer aborts
  the sweep: the pool is rebuilt, in-flight points are resubmitted, and a
  point that kills its worker more than ``max_point_crashes`` times is
  quarantined as ``status="poisoned"`` -- cached *with* its attempt history
  so ``repro-sweep stats`` can report it;
* an opt-in ``fallback`` ladder degrades the backend (e.g. process -> thread
  -> serial) after ``max_pool_rebuilds`` rebuilds of the same backend;
* ``fail_fast`` stops submitting after the first non-ok point and marks the
  rest ``status="skipped"``.

Third-party backends that only implement the minimal submit/gather protocol
keep the historical semantics (no timeout, no retry, no crash recovery);
supervision engages for any backend that also offers ``result(token,
timeout)`` (and, for crash recovery, ``rebuild()``).

Incremental re-route
--------------------
When a store is attached, successful placements are cached under
:meth:`~repro.sweep.spec.SweepPoint.placement_key`, which hashes only what
placement depends on (circuit + code fingerprint, fabric geometry, seed,
effort).  A later point differing only in routing-side options (channel
width, router iterations, ...) misses the flow-summary cache but *hits* the
placement cache: the runner injects the stored placement into
:meth:`CadFlow.run`, which skips annealing and goes straight to routing.
The summary then carries ``placement_cache_hit`` (``True``/``False``), and —
because placement is deterministic in its key — the re-routed result is
bit-identical to a cold run.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
#: when the :class:`RetryPolicy` grants attempts.  ``TimeoutError`` is an
#: ``OSError`` subclass, so backend timeouts classify as transient too.
TRANSIENT_EXCEPTIONS = (OSError, MemoryError)


def _seed_trees_from_record(record: Mapping[str, object]) -> dict[str, list[str]] | None:
    """Warm-start trees (node names per net) from a routing-cache record.

    Current records embed the schema-versioned
    :meth:`~repro.cad.route.RoutingResult.to_dict` payload under
    ``"routing"``; records written before the artifact schema stored a bare
    ``"trees"`` mapping, which is still honoured so a pre-upgrade store keeps
    seeding.  Returns ``None`` when neither layout yields trees.
    """
    routing = record.get("routing")
    if isinstance(routing, Mapping):
        routed = routing.get("routed")
        if isinstance(routed, Mapping):
            trees = {
                str(net): [str(name) for name in entry.get("nodes", [])]
                for net, entry in routed.items()
                if isinstance(entry, Mapping)
            }
            if trees:
                return trees
    legacy = record.get("trees")
    if isinstance(legacy, Mapping):
        return {
            str(net): [str(name) for name in names]
            for net, names in legacy.items()
            if isinstance(names, (list, tuple))
        } or None
    return None


def execute_point(point_data: Mapping[str, object]) -> dict[str, object]:
    """Run one sweep point (given as a plain dict) and return its record.

    Module-level and dict-in / dict-out so it pickles cleanly into worker
    processes.  Every failure mode of the flow is folded into the record.

    Besides the :meth:`SweepPoint.to_dict` fields the payload may carry a
    ``placement_store`` key (a directory path): the worker then consults the
    placement cache before placing and persists any freshly computed
    placement after a successful flow.  Store writes are atomic, so parallel
    workers can share one directory.

    A ``routing_store`` key (same directory convention) additionally enables
    the **routing-tree warm-start cache**: under
    :meth:`SweepPoint.routing_base_key` — the point minus its swept fabric
    geometry (channel width and grid size) — the worker looks for a
    neighbouring fabric's legal routed trees (stored as node *names*) and
    seeds PathFinder with them, then persists its own trees after a
    successful route for the next rung of the ladder.  The summary carries
    ``routing_warm_started`` whenever a seed actually fired.

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
    from repro.cad.place import Placement
    from repro.cad.techmap import MappingError
    from repro.circuits.registry import build_circuit
    from repro.fingerprint import code_fingerprint

    data = dict(point_data)
    placement_store_root = data.pop("placement_store", None)
    routing_store_root = data.pop("routing_store", None)
    artifact_store_root = data.pop("artifact_store", None)
    point = SweepPoint.from_dict(data)
    record: dict[str, object] = {
        "version": SWEEP_SCHEMA_VERSION,
        "kind": "flow",
        "fingerprint": code_fingerprint(),
        "point": point.to_dict(),
        "label": point.label(),
    }
    placement_store = (
        SweepResultStore(placement_store_root) if placement_store_root else None
    )
    routing_store = SweepResultStore(routing_store_root) if routing_store_root else None
    started = time.perf_counter()
    try:
        circuit = build_circuit(point.circuit)
        flow_options = point.options
        if artifact_store_root:
            flow_options = dataclasses.replace(
                flow_options, artifact_store=str(artifact_store_root)
            )
        flow = CadFlow(point.architecture, flow_options)

        injected: Placement | None = None
        placement_key: str | None = None
        if placement_store is not None and point.options.run_placement:
            placement_key = point.placement_key()
            cached = placement_store.get(placement_key)
            if cached is not None and cached.get("kind") == "placement":
                try:
                    injected = Placement.from_dict(cached["placement"])  # type: ignore[arg-type]
                except (KeyError, TypeError, ValueError) as exc:
                    # Corrupt cached placement: fall back to placing, but
                    # observably -- the silent swallow used to hide cache
                    # corruption entirely.
                    injected = None
                    record["placement_cache_corrupt"] = True
                    logger.warning(
                        "corrupt placement-cache record %s for %s (%s: %s); "
                        "falling back to a fresh placement",
                        placement_key,
                        point.label(),
                        type(exc).__name__,
                        exc,
                    )

        routing_seed = None
        routing_key: str | None = None
        if (
            routing_store is not None
            and point.options.run_placement
            and point.options.run_routing
        ):
            routing_key = point.routing_base_key()
            cached_trees = routing_store.get(routing_key)
            if cached_trees is not None and cached_trees.get("kind") == "routing_trees":
                # Seed only across a genuine geometry step (channel width or
                # grid size); a record from the identical fabric means the
                # point would have hit the flow-summary cache anyway.
                # Legacy records predate the width/height keys, hence .get.
                same_geometry = (
                    cached_trees.get("channel_width")
                    == point.architecture.routing.channel_width
                    and cached_trees.get("width") == point.architecture.width
                    and cached_trees.get("height") == point.architecture.height
                )
                trees = _seed_trees_from_record(cached_trees)
                if not same_geometry and trees:
                    # Trees are stored as node names; the flow remaps them
                    # onto this fabric's RR graph and validates per net.
                    routing_seed = trees

        result = flow.run(circuit, placement=injected, routing_seed=routing_seed)

        if (
            routing_store is not None
            and routing_key is not None
            and result.routing is not None
            and result.routing.success
        ):
            routing_store.put(
                routing_key,
                {
                    "version": SWEEP_SCHEMA_VERSION,
                    "kind": "routing_trees",
                    "fingerprint": code_fingerprint(),
                    "circuit": point.circuit,
                    "channel_width": point.architecture.routing.channel_width,
                    "width": point.architecture.width,
                    "height": point.architecture.height,
                    # The full schema-versioned routing artifact; seed trees
                    # are extracted from it on read (the pre-artifact
                    # "trees" layout is still honoured there).
                    "routing": result.routing.to_dict(flow.rr_graph),
                },
            )

        if placement_store is not None and point.options.run_placement:
            if result.placement_cache_hit is None:
                result.placement_cache_hit = False  # cache consulted, missed
            if result.placement is not None and not result.placement_cache_hit:
                placement_store.put(
                    placement_key,  # type: ignore[arg-type]
                    {
                        "version": SWEEP_SCHEMA_VERSION,
                        "kind": "placement",
                        "fingerprint": code_fingerprint(),
                        "circuit": point.circuit,
                        "seed": point.options.placement_seed,
                        "placement": result.placement.to_dict(),
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
        # *in-run* by the supervision loop when the RetryPolicy allows.
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
    """How sweep-point payloads get executed (submit / gather / shutdown).

    Implementations receive a picklable function plus one picklable payload
    per :meth:`submit` call and return an opaque token; :meth:`gather` turns
    a sequence of tokens back into results **in submission order**;
    :meth:`shutdown` releases any pool resources (always called, even when a
    point raised).  Register new backends with :func:`register_executor`.
    """

    def submit(
        self, fn: Callable[[Mapping[str, object]], dict[str, object]],
        payload: Mapping[str, object],
    ) -> object: ...

    def gather(self, tokens: Sequence[object]) -> list[dict[str, object]]: ...

    def shutdown(self) -> None: ...


class SerialExecutor:
    """In-process execution, one payload at a time, in submission order.

    The reference backend: bit-identical to calling the flow by hand, no
    pickling, exceptions propagate with their original tracebacks.  Work is
    deferred to :meth:`result` / :meth:`gather`, so the supervision loop's
    per-point timing measures the point itself, not queue wait.  Timeouts
    are **cooperative** here -- an in-process flow cannot be preempted, so
    an overrun is detected (and the result discarded) after the fact.
    """

    def submit(self, fn, payload):
        return (fn, payload)

    def gather(self, tokens):
        return [fn(payload) for fn, payload in tokens]

    def result(self, token, timeout: float | None = None):
        fn, payload = token
        return fn(payload)

    def rebuild(self) -> None:
        pass  # nothing pooled to rebuild

    def shutdown(self) -> None:
        pass


class _PoolExecutor:
    """Shared submit/gather/result/rebuild over a ``concurrent.futures`` pool.

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

    def gather(self, tokens):
        return [token.result() for token in tokens]

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
class RetryPolicy:
    """When and how the supervision loop re-attempts a failed point.

    Only **transient** outcomes are retried: environmental flow failures
    (``OSError`` / ``MemoryError``, marked ``transient`` in the record),
    per-point timeouts, and executor-infrastructure errors.  Deterministic
    flow failures (unroutable, unplaceable, mapping errors...) would fail
    identically on every attempt, so they are never retried.  Worker
    crashes are governed separately by ``RunnerConfig.max_point_crashes``
    -- a crashed point is always resubmitted until it poisons out.

    The policy is fully serializable and its backoff is **deterministic**:
    the jitter for retry *n* of a given point is derived from
    ``(seed, token, n)`` via sha256, so a replayed sweep sleeps the exact
    same schedule (the chaos harness relies on this for bit-identical
    replays).
    """

    #: Total attempts per point (1 = no retries).
    max_attempts: int = 1
    #: Base delay before the first retry; 0 disables backoff entirely.
    backoff_s: float = 0.0
    #: Exponential growth factor between consecutive retries.
    backoff_factor: float = 2.0
    #: Fractional +- jitter applied to each delay (0.1 = +-10%).
    jitter: float = 0.1
    #: Seed for the deterministic jitter stream.
    seed: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RetryPolicy":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)  # type: ignore[arg-type]

    def delay_s(self, retry: int, token: str = "") -> float:
        """Deterministic backoff before the *retry*-th re-attempt (1-based)."""
        if self.backoff_s <= 0:
            return 0.0
        base = self.backoff_s * (self.backoff_factor ** max(0, retry - 1))
        if self.jitter <= 0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{token}|{retry}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


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
    #: Transient-failure retry policy (attempts, deterministic backoff).
    retry: RetryPolicy = RetryPolicy()
    #: A point that breaks the worker pool more than this many times is
    #: quarantined as ``status="poisoned"`` instead of being resubmitted.
    max_point_crashes: int = 2
    #: Pool rebuilds tolerated per backend before the opt-in ``fallback``
    #: ladder degrades to the next backend (when one is configured).
    max_pool_rebuilds: int = 3
    #: Opt-in graceful-degradation ladder, e.g. ``("thread", "serial")``.
    fallback: tuple[str, ...] = ()
    #: Stop submitting after the first non-ok point; the rest of the grid
    #: is recorded as ``status="skipped"``.
    fail_fast: bool = False

    @classmethod
    def from_workers(cls, workers: int, executor: str | None = None) -> "RunnerConfig":
        """The historical ``workers`` contract: ``<= 1`` serial, else process."""
        workers = max(1, int(workers))
        if executor is None:
            executor = "process" if workers > 1 else "serial"
        return cls(executor=executor, workers=workers)


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


def create_executor(config: RunnerConfig) -> Executor:
    """Instantiate the backend *config* names."""
    check_executor(config.executor)
    return _EXECUTOR_FACTORIES[config.executor](config)


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
        #: Attempts consumed against ``RetryPolicy.max_attempts`` (timeouts,
        #: transient flow errors, infrastructure errors -- NOT crashes).
        self.failures = 0
        #: Worker-pool breakages blamed on this point (poison budget).
        self.crashes = 0
        self.record: dict[str, object] | None = None


class _Supervisor:
    """Drive cache misses through a backend with fault tolerance.

    One supervisor lives for the whole :meth:`SweepRunner.run` call (both
    placement-dedup waves share its backend, crash counters and fail-fast
    trip wire).  Backends without a ``result(token, timeout)`` method --
    minimal third-party registrations -- run on the historical
    submit/gather path with none of the supervision semantics.
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
        return _EXECUTOR_FACTORIES[name](
            dataclasses.replace(self.config, executor=name)
        )

    @property
    def supervised(self) -> bool:
        return hasattr(self.backend, "result")

    def shutdown(self) -> None:
        self.backend.shutdown()

    def _note_pool_failure(self) -> None:
        """Rebuild the broken pool, degrading down the ladder when due."""
        self.pool_rebuilds += 1
        self._rebuilds_this_backend += 1
        if (
            self._rebuilds_this_backend > self.config.max_pool_rebuilds
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
        rebuild = getattr(self.backend, "rebuild", None)
        if rebuild is not None:
            rebuild()
        else:  # no rebuild hook: recreate from the factory
            try:
                self.backend.shutdown()
            except Exception:
                pass
            self.backend = self._create(self._ladder[self._rung])

    def _note_submit_failure(self) -> None:
        """A pool that breaks before accepting work attaches no blame --
        but it must not loop forever either."""
        self._submit_failures += 1
        budget = (self.config.max_pool_rebuilds + 1) * len(self._ladder) + 4
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
        from repro.fingerprint import code_fingerprint

        return {
            "version": SWEEP_SCHEMA_VERSION,
            "kind": "flow",
            "fingerprint": code_fingerprint(),
            "point": run.point.to_dict(),
            "label": run.point.label(),
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
        if not self.supervised:
            # Historical minimal-protocol path: no timeout, no retry, no
            # crash recovery.  Records come back exactly as executed.
            tokens = [self.backend.submit(execute_point, run.payload) for run in runs]
            return list(self.backend.gather(tokens))

        pending = list(runs)
        while pending:
            if self._tripped:
                for run in pending:
                    self._finalise_skipped(run)
                break
            batch, pending = pending, []
            # Deterministic backoff: one sleep per resubmission round, the
            # longest of the batch's per-point delays.
            delay = max(
                (
                    self.config.retry.delay_s(len(run.attempts), run.point.label())
                    for run in batch
                    if run.attempts
                ),
                default=0.0,
            )
            if delay > 0:
                time.sleep(delay)
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
                    record = self.backend.result(tokens[index], self.config.timeout_s)  # type: ignore[attr-defined]
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
        return run.failures < self.config.retry.max_attempts

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
    and points can appear once per generation.
    """
    report = SweepReport(executor="store")
    for _key, record in records:
        if record.get("kind", "flow") != "flow":
            continue
        if (
            current_fingerprint is not None
            and record.get("fingerprint") != current_fingerprint
        ):
            continue
        point_data = record.get("point")
        if not isinstance(point_data, Mapping):
            continue
        try:
            point = SweepPoint.from_dict(point_data)
        except (KeyError, TypeError, ValueError):
            continue
        report.outcomes.append(
            SweepOutcome(
                point=point,
                status=str(record.get("status", "error")),
                summary=record.get("summary"),  # type: ignore[arg-type]
                error=record.get("error"),  # type: ignore[arg-type]
                cached=True,
                attempts=list(record.get("attempts") or []),  # type: ignore[arg-type]
                duration_s=record.get("duration_s"),  # type: ignore[arg-type]
            )
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
    workers:
        Pool size for the parallel backends.  Without an explicit
        ``executor`` the historical contract applies: ``<= 1`` runs serial,
        ``> 1`` selects the process backend.
    executor:
        Backend name (``serial`` / ``thread`` / ``process`` or anything
        registered via :func:`register_executor`); overrides the
        workers-based default.  A full :class:`RunnerConfig` may be passed
        instead of the two scalars via ``config``.
    placement_cache:
        When a store is attached, also cache placements and re-route
        incrementally on routing-only option changes (adds the
        ``placement_cache_hit`` summary key on placement-running sweeps).
        Disable for summaries bit-identical to store-less runs.
    routing_cache:
        When a store is attached, additionally cache each point's legal
        routed trees under :meth:`SweepPoint.routing_base_key` and seed
        PathFinder with a neighbouring channel width's trees (the
        **warm-start cache** for channel-width ladders).  Off by default:
        warm-started routings are legal and quality-gated but not
        bit-identical to cold ones, so enabling it trades strict summary
        determinism for ladder throughput (the summary records the trade via
        ``routing_warm_started``).
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
        workers: int = 1,
        executor: str | None = None,
        config: RunnerConfig | None = None,
        placement_cache: bool = True,
        routing_cache: bool = False,
        artifacts: str | None = None,
    ) -> None:
        if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
            store = SweepResultStore(store)
        self.store: SweepResultStore | None = store
        if config is None:
            config = RunnerConfig.from_workers(workers, executor)
        elif workers != 1 or executor is not None:
            raise ValueError(
                "pass either config or the workers/executor scalars, not both"
            )
        self.config = config
        self.placement_cache = placement_cache
        self.routing_cache = routing_cache
        self.artifacts = str(artifacts) if artifacts is not None else None

    @property
    def workers(self) -> int:
        return self.config.workers

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
            routing_store = (
                str(self.store.root)
                if self.store is not None and self.routing_cache
                else None
            )
            miss_payloads: list[dict[str, object]] = []
            for index in miss_indices:
                payload = points[index].to_dict()
                if placement_store is not None:
                    payload["placement_store"] = placement_store
                if routing_store is not None:
                    payload["routing_store"] = routing_store
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
                SweepOutcome(
                    point=point,
                    status=str(record.get("status", "error")),
                    summary=record.get("summary"),  # type: ignore[arg-type]
                    error=record.get("error"),  # type: ignore[arg-type]
                    cached=index not in missed,
                    attempts=list(record.get("attempts") or []),  # type: ignore[arg-type]
                    duration_s=record.get("duration_s"),  # type: ignore[arg-type]
                )
            )
        report.elapsed_s = time.perf_counter() - started
        return report
