"""Content-addressed on-disk store of flow summaries and placements.

Each record is one JSON file named after its content hash
(:meth:`SweepPoint.key` for flow summaries, :meth:`SweepPoint.placement_key`
for cached placements), sharded into 256 two-hex-digit subdirectories to keep
directories small.  Writes are atomic (temp file + ``os.replace``) so a
crashed or concurrent sweep never leaves a half-written record behind, and
records carry the full point description so a store can be audited without
the code that produced it.

Integrity: :meth:`SweepResultStore.put` stamps every record with a sha256
checksum (:data:`CHECKSUM_KEY`) over its canonical JSON form;
:meth:`SweepResultStore.get` verifies it and moves any file that fails to
decode — torn write, truncation, bit rot, checksum mismatch — into a
``.quarantine/`` sidecar directory instead of raising mid-sweep.  Quarantined
files are counted by :meth:`SweepResultStore.stats` and reaped by
:meth:`SweepResultStore.gc` (see ``docs/robustness.md``).

Cache lifecycle: keys embed :func:`repro.fingerprint.code_fingerprint`, so a
behaviour-bearing source edit silently *retires* every old record (new keys
miss them) without deleting anything.  The runner stamps each record with the
fingerprint that produced it, which is what lets :meth:`SweepResultStore.stats`
count retired records and :meth:`SweepResultStore.gc` delete them.

Concurrency: readers and writers need no coordination (atomic single-file
operations), but multi-file maintenance — :meth:`SweepResultStore.gc` and
:meth:`SweepResultStore.clear` — serializes on a store-level lock file
(:meth:`SweepResultStore.lock`), so two simultaneous ``repro-sweep gc``
invocations cannot race each other's ``stat()``/``unlink()`` and
double-report the reclaimed space.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Record key carrying the integrity checksum.  Dunder-named so it can never
#: collide with a real record field, and stripped before the record is
#: handed back to callers.
CHECKSUM_KEY = "__checksum__"

#: Directory (under the store root) where corrupt record files are moved.
QUARANTINE_DIR = ".quarantine"


def _safe_size(path: Path) -> int | None:
    try:
        return path.stat().st_size
    except OSError:
        return None


def record_checksum(record: dict[str, object]) -> str:
    """sha256 over the canonical JSON serialization of *record*.

    The canonical form (sorted keys, compact separators, ``default=str``)
    is chosen so the digest is identical whether computed over the
    original Python objects *before* :meth:`SweepResultStore.put` writes
    them or over the parsed JSON *after* :meth:`SweepResultStore.get`
    reads them back: tuples serialize as arrays either way, non-string
    dict keys coerce to strings either way, and anything non-JSON is
    stringified the same way on both sides.
    """
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class StoreLockTimeout(RuntimeError):
    """Raised when the store-level lock cannot be acquired in time."""


class SweepResultStore:
    """A directory of ``<key[:2]>/<key>.json`` flow-summary records.

    ``create=False`` opens an existing store without touching the
    filesystem and raises ``FileNotFoundError`` when the directory does not
    exist — read-only consumers (``repro-sweep stats``/``export``/``gc
    --dry-run``) use it so a mistyped ``--store`` path fails loudly instead
    of silently conjuring an empty store.
    """

    def __init__(self, root: str | os.PathLike[str], create: bool = True) -> None:
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise FileNotFoundError(f"sweep result store does not exist: {self.root}")

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        if len(key) < 3:
            raise ValueError(f"store key too short: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_path(self) -> Path:
        """Sidecar directory holding record files that failed to decode."""
        return self.root / QUARANTINE_DIR

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, object] | None:
        """The stored record for *key*, or ``None`` on a miss or corrupt file.

        Corruption — unparseable JSON, a non-object top level, or a
        checksum mismatch against the embedded :data:`CHECKSUM_KEY` — is
        *quarantined*: the file is moved to ``.quarantine/`` (so the next
        read of the same key is a plain miss and a sweep re-runs the
        point) and ``None`` is returned instead of raising mid-sweep.
        Records written before checksum stamping carry no
        :data:`CHECKSUM_KEY` and are trusted as-is.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # ValueError covers both JSONDecodeError and the
            # UnicodeDecodeError a flipped byte's invalid UTF-8 raises.
            self._quarantine(path)
            return None
        if not isinstance(record, dict):
            self._quarantine(path)
            return None
        stored_checksum = record.pop(CHECKSUM_KEY, None)
        if stored_checksum is not None and stored_checksum != record_checksum(record):
            self._quarantine(path)
            return None
        return record

    def _quarantine(self, path: Path) -> bool:
        """Move *path* into ``.quarantine/``; best-effort, never raises.

        The same key can be corrupted, quarantined, rewritten, and
        corrupted again, so the destination name gets a numeric suffix
        instead of overwriting earlier evidence.
        """
        try:
            self.quarantine_path.mkdir(parents=True, exist_ok=True)
            destination = self.quarantine_path / path.name
            suffix = 0
            while destination.exists():
                suffix += 1
                destination = self.quarantine_path / f"{path.stem}.{suffix}{path.suffix}"
            os.replace(path, destination)
            return True
        except OSError:
            return False

    def put(self, key: str, record: dict[str, object]) -> Path:
        """Atomically persist *record* under *key*, stamped with its checksum."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stamped = dict(record)
        stamped[CHECKSUM_KEY] = record_checksum(record)
        fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(stamped, handle, sort_keys=True, indent=1, default=str)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        for shard in sorted(self.root.iterdir()) if self.root.is_dir() else []:
            # Dot-directories (.quarantine) hold non-record files.
            if not shard.is_dir() or shard.name.startswith("."):
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    def quarantined(self) -> list[Path]:
        """The quarantined files, oldest name first (for stats/gc/tests)."""
        if not self.quarantine_path.is_dir():
            return []
        return sorted(p for p in self.quarantine_path.iterdir() if p.is_file())

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def records(self) -> Iterator[tuple[str, dict[str, object]]]:
        """Every readable ``(key, record)`` pair, in key order."""
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield key, record

    # ------------------------------------------------------------------
    # Store-level locking
    # ------------------------------------------------------------------
    @property
    def lock_path(self) -> Path:
        return self.root / ".lock"

    @contextlib.contextmanager
    def lock(self, timeout: float = 10.0, stale_after: float = 300.0):
        """Advisory store-wide lock on the ``.lock`` file.

        Record reads and writes never need this — they are individually
        atomic — but *multi-file* maintenance (:meth:`gc`, :meth:`clear`)
        does: two concurrent collectors racing ``stat()``/``unlink()`` on
        the same files would double-count their reclaim reports.

        On POSIX this is ``fcntl.flock`` on a persistent ``.lock`` file: the
        kernel releases the lock when the holder exits *for any reason*, so
        a crashed collector can never wedge the store and there is no
        staleness heuristic to race on (the file itself is left in place —
        unlinking a flock file reopens the classic stale-inode race).  Where
        ``fcntl`` is unavailable the fallback is a best-effort
        ``O_CREAT | O_EXCL`` token file whose *stale_after*-old leftovers
        are broken via atomic rename; its release-vs-steal window is narrow
        but nonzero, which is why the fallback is exactly that.  Raises
        :class:`StoreLockTimeout` after *timeout* seconds of contention.
        """
        path = self.lock_path
        deadline = time.monotonic() + timeout
        if fcntl is not None:
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            try:
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise StoreLockTimeout(
                                f"store {self.root} is locked (flock on {path} "
                                f"held by another process) after {timeout:g}s"
                            )
                        time.sleep(0.05)
                # For operators peeking at a busy store: who holds it.
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                yield
            finally:
                os.close(fd)  # closing the descriptor drops the flock
            return

        # Non-POSIX fallback: exclusive-create token file.
        token = f"{os.getpid()}-{os.urandom(8).hex()}"
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    # Holder likely just released it — but bound the retry so
                    # a persistently failing stat() cannot spin forever.
                    if time.monotonic() >= deadline:
                        raise StoreLockTimeout(
                            f"store {self.root} is locked and its lock file "
                            f"{path} cannot be inspected"
                        )
                    continue
                if age > stale_after:
                    # Steal the stale lock atomically: the rename succeeds
                    # for exactly one waiter, and the O_EXCL create above
                    # then decides the new owner.
                    grave = path.with_name(f".lock-stale-{token}")
                    with contextlib.suppress(OSError):
                        os.rename(path, grave)
                        os.unlink(grave)
                    continue
                if time.monotonic() >= deadline:
                    raise StoreLockTimeout(
                        f"store {self.root} is locked (lock file {path} held "
                        f"for {age:.1f}s); remove it if the holder crashed"
                    )
                time.sleep(0.05)
                continue
            try:
                os.write(fd, token.encode("ascii"))
            finally:
                os.close(fd)
            break
        try:
            yield
        finally:
            with contextlib.suppress(OSError):
                if path.read_text(encoding="ascii") == token:
                    path.unlink()

    # ------------------------------------------------------------------
    # Observability and garbage collection
    # ------------------------------------------------------------------
    def stats(self, current_fingerprint: str | None = None) -> dict[str, object]:
        """Record counts and on-disk footprint (bytes) of the store.

        Records keyed by retired code fingerprints are not reachable through
        current :meth:`SweepPoint.key` values but still live here; they are
        counted separately (``retired_records`` / ``retired_bytes``) against
        *current_fingerprint* (defaulting to this process's
        :func:`repro.fingerprint.code_fingerprint`) so :meth:`gc` has an
        honest before/after.  Records predating fingerprint stamping count as
        retired.  The legacy ``records`` / ``bytes`` totals cover every
        readable record, current or not.

        Walking the store decodes every record through :meth:`get`, so any
        corrupt file encountered is quarantined on the spot; the
        ``.quarantine/`` sidecar is tallied afterwards
        (``quarantined_records`` / ``quarantined_bytes``) so those files —
        including ones quarantined by this very call — show up in the
        report.  Flow records are additionally bucketed by the supervision
        status vocabulary (``ok_records`` / ``error_records`` /
        ``poisoned_records``; see ``docs/robustness.md``) so
        ``repro-sweep stats`` can report fault outcomes.
        """
        if current_fingerprint is None:
            from repro.fingerprint import code_fingerprint

            current_fingerprint = code_fingerprint()
        totals = {
            "records": 0,
            "bytes": 0,
            "current_records": 0,
            "current_bytes": 0,
            "retired_records": 0,
            "retired_bytes": 0,
            "placement_records": 0,
            "flow_records": 0,
            "ok_records": 0,
            "error_records": 0,
            "poisoned_records": 0,
        }
        fingerprints: set[str] = set()
        for key in self.keys():
            record = self.get(key)
            if record is None:
                # Vanished under our feet, or corrupt (now quarantined —
                # tallied below); either way no longer a live record.
                continue
            totals["records"] += 1
            size = 0
            try:
                size = self.path_for(key).stat().st_size
            except OSError:
                pass
            totals["bytes"] += size
            fingerprint = record.get("fingerprint")
            if isinstance(fingerprint, str):
                fingerprints.add(fingerprint)
            if record.get("kind") == "placement":
                totals["placement_records"] += 1
            else:
                totals["flow_records"] += 1
                status = record.get("status")
                if isinstance(status, str) and f"{status}_records" in totals:
                    totals[f"{status}_records"] += 1
            if fingerprint == current_fingerprint:
                totals["current_records"] += 1
                totals["current_bytes"] += size
            else:
                totals["retired_records"] += 1
                totals["retired_bytes"] += size
        quarantined = self.quarantined()
        totals["quarantined_records"] = len(quarantined)
        totals["quarantined_bytes"] = sum(
            size
            for path in quarantined
            if (size := _safe_size(path)) is not None
        )
        totals["fingerprints"] = len(fingerprints)
        totals["current_fingerprint"] = current_fingerprint
        return totals

    def gc(
        self,
        current_fingerprint: str | None = None,
        keep_latest: int = 0,
        dry_run: bool = False,
        max_bytes: int | None = None,
    ) -> dict[str, object]:
        """Delete records whose code fingerprint is not *current*.

        Retired records (fingerprint differs from *current_fingerprint*,
        which defaults to this process's
        :func:`repro.fingerprint.code_fingerprint`) are unreachable through
        any current cache key, so deleting them only reclaims disk.
        ``keep_latest=N`` spares the N most recently written retired
        *generations* (records grouped by their stored fingerprint, newest
        file mtime first) — a safety net for e.g. comparing results across a
        code change.  Records with no fingerprint stamp form their own
        "unknown" generation; **unreadable/corrupt** files are quarantined
        by the walk itself (see :meth:`get`) and the ``.quarantine/``
        sidecar is then reaped in full (``quarantine_reaped`` in the
        report) — quarantined files are never spared.  ``dry_run`` reports
        without deleting.

        ``max_bytes=N`` additionally bounds the store's footprint: after the
        fingerprint pass, surviving records are evicted oldest-mtime-first
        until at most N bytes remain (this is the size bound the artifact
        store enforces after every checkpointed flow).  Size eviction ignores
        fingerprints — a current-generation record can be evicted once the
        store outgrows the bound, which only ever costs a cache miss.

        Concurrent ``gc`` invocations serialize on :meth:`lock` (so their
        reclaim reports never double-count a file), and a record deleted
        under our feet by anything else is skipped, not an error.
        """
        if current_fingerprint is None:
            from repro.fingerprint import code_fingerprint

            current_fingerprint = code_fingerprint()
        with self.lock():
            outcome = self._gc_locked(current_fingerprint, keep_latest, dry_run)
            if max_bytes is not None:
                evicted, evicted_bytes = self._evict_to_size_locked(max_bytes, dry_run)
                outcome["removed"] = int(outcome["removed"]) + evicted
                outcome["bytes_freed"] = int(outcome["bytes_freed"]) + evicted_bytes
                outcome["size_evicted"] = evicted
            return outcome

    def _evict_to_size_locked(self, max_bytes: int, dry_run: bool) -> tuple[int, int]:
        """Evict oldest-mtime records until at most *max_bytes* remain.

        Returns ``(records_evicted, bytes_evicted)``.  In a dry run the
        would-be evictions are counted against the current sizes without
        deleting anything.
        """
        entries: list[tuple[float, int, str]] = []
        total = 0
        for key in self.keys():
            try:
                stat = self.path_for(key).stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, key))
            total += stat.st_size
        entries.sort()
        evicted = 0
        evicted_bytes = 0
        for mtime, size, key in entries:
            if total <= max_bytes:
                break
            try:
                if not dry_run:
                    self.path_for(key).unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            evicted_bytes += size
        return evicted, evicted_bytes

    def _gc_locked(
        self,
        current_fingerprint: str,
        keep_latest: int,
        dry_run: bool,
    ) -> dict[str, object]:
        # Group retired records into generations by stored fingerprint.
        # Keys are enumerated directly (not via records()) so corrupt files
        # get quarantined by the walk and reaped below.
        generations: dict[str, list[str]] = {}
        newest_mtime: dict[str, float] = {}
        kept_current = 0
        for key in self.keys():
            record = self.get(key)
            if record is None:
                # Corrupt (just quarantined) or vanished; the quarantine
                # reap below accounts for it.
                continue
            fingerprint = record.get("fingerprint")
            if fingerprint == current_fingerprint:
                kept_current += 1
                continue
            generation = fingerprint if isinstance(fingerprint, str) else "unknown"
            generations.setdefault(generation, []).append(key)
            try:
                mtime = self.path_for(key).stat().st_mtime
            except OSError:
                mtime = 0.0
            newest_mtime[generation] = max(newest_mtime.get(generation, 0.0), mtime)

        spared = set(
            sorted(generations, key=lambda g: newest_mtime[g], reverse=True)[
                : max(0, keep_latest)
            ]
        )
        removed = 0
        bytes_freed = 0
        kept_retired = 0
        collectable: list[str] = []
        for generation, keys in generations.items():
            if generation in spared:
                kept_retired += len(keys)
                continue
            collectable.extend(keys)
        for key in collectable:
            path = self.path_for(key)
            try:
                size = path.stat().st_size
                if not dry_run:
                    path.unlink()
            except OSError:
                continue
            removed += 1
            bytes_freed += size
        # Reap the quarantine: corrupt files are permanent cache misses, so
        # a gc pass is where their disk comes back.
        quarantine_reaped = 0
        for path in self.quarantined():
            size = _safe_size(path)
            if size is None:
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            quarantine_reaped += 1
            removed += 1
            bytes_freed += size
        return {
            "removed": removed,
            "bytes_freed": bytes_freed,
            "kept_current": kept_current,
            "kept_retired": kept_retired,
            "quarantine_reaped": quarantine_reaped,
            "generations_removed": len(generations) - len(spared),
            "generations_kept": len(spared),
            "dry_run": dry_run,
        }

    def clear(self) -> int:
        """Delete every record (and quarantined file); returns the count.

        Serializes on :meth:`lock` like :meth:`gc` (both walk and delete
        multiple files).
        """
        removed = 0
        with self.lock():
            for key in list(self.keys()):
                try:
                    self.path_for(key).unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.quarantined():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
