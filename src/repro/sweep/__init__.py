"""Batch sweep engine: grids of (circuit × architecture × options) flows.

The subsystem has six pieces:

* :mod:`repro.sweep.spec` -- :class:`SweepPoint` / :class:`SweepSpec`, the
  declarative description of a sweep grid with stable content hashing (both
  the flow-summary key and the placement key embed the code fingerprint, so
  behaviour changes retire stale records automatically), plus the record
  status vocabulary (``ok`` / ``error`` / ``timeout`` / ``poisoned`` /
  ``skipped``);
* :mod:`repro.sweep.store` -- :class:`SweepResultStore`, a content-addressed
  on-disk cache of flow summaries and placements with checksum-verified
  reads (corrupt files quarantine to ``.quarantine/`` instead of raising)
  and fingerprint-aware :meth:`~repro.sweep.store.SweepResultStore.stats`
  and :meth:`~repro.sweep.store.SweepResultStore.gc`;
* :mod:`repro.sweep.runner` -- :class:`SweepRunner` over the pluggable
  :class:`Executor` protocol (``serial`` / ``thread`` / ``process`` backends
  in-tree, third-party ones via :func:`register_executor`), with cache
  hit/miss accounting, incremental re-route from cached placements, and a
  supervision layer (retries with doubling backoff, per-point timeouts,
  worker-crash recovery, poison quarantine, executor fallback), every
  setting of which is a field of one :class:`RunnerConfig`;
* :mod:`repro.sweep.chaos` -- the deterministic fault-injection harness
  (:class:`FaultPlan` / :class:`ChaosExecutor` / :class:`ChaosStore` /
  :func:`run_campaign`) that proves the supervision layer's recovery paths;
* :mod:`repro.sweep.report` -- CSV / JSON / text reporters;
* :mod:`repro.cli` -- the ``repro-sweep`` command-line interface over all of
  the above (``run`` / ``stats`` / ``gc`` / ``export`` / ``clear`` /
  ``chaos``).

See ``docs/sweep.md`` and ``docs/robustness.md`` for the walk-throughs.
"""

from repro.sweep.chaos import ChaosExecutor, ChaosStore, FaultPlan, run_campaign
from repro.sweep.report import format_report, format_stats, write_csv, write_json
from repro.sweep.runner import (
    Executor,
    ProcessExecutor,
    RunnerConfig,
    SerialExecutor,
    SweepOutcome,
    SweepReport,
    SweepRunner,
    ThreadExecutor,
    available_executors,
    execute_point,
    register_executor,
    report_from_records,
)
from repro.sweep.spec import (
    RECORD_STATUSES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_POISONED,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    SweepPoint,
    SweepSpec,
)
from repro.sweep.store import StoreLockTimeout, SweepResultStore, record_checksum

__all__ = [
    "ChaosExecutor",
    "ChaosStore",
    "Executor",
    "FaultPlan",
    "ProcessExecutor",
    "RECORD_STATUSES",
    "RunnerConfig",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_POISONED",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "SerialExecutor",
    "StoreLockTimeout",
    "SweepOutcome",
    "SweepPoint",
    "SweepReport",
    "SweepResultStore",
    "SweepRunner",
    "SweepSpec",
    "ThreadExecutor",
    "available_executors",
    "execute_point",
    "format_report",
    "format_stats",
    "record_checksum",
    "register_executor",
    "report_from_records",
    "run_campaign",
    "write_csv",
    "write_json",
]
