"""The result store: a directory of fingerprint-sharded JSONL files.

:class:`ShardedResultStore` caches one record per cache key (the record's
``key``: fingerprint, detector, config digest) in ``shard-<prefix>.jsonl``
files addressed by the fingerprint's leading hex characters.  Appends take
the shard's :class:`~repro.service.locks.FileLock`, so any number of
processes (schedulers, CLI invocations, the watch daemon) share one store;
readers pick up other writers' appends lazily, re-replaying a shard only
when its (mtime, size) signature changed.  Replay skips unreadable lines (a
writer killed mid-append) with a warning, and the next append terminates
such a fragment first (:func:`repro.utils.jsonl.append_line`).

Sidecars (stats, spans, metrics, the ``fleet/`` queue) live inside the
store directory (:func:`sidecar_path`).  A legacy single-file ``.jsonl``
store is only read, by :func:`stream_records`: ``python -m repro store
merge --store <dir> --source <file>`` imports it.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..utils.jsonl import append_line
from ..utils.logging import get_logger
from .locks import FileLock, atomic_write
from .records import RepairRecord, ScanRecord, record_from_dict

__all__ = ["ShardedResultStore", "stream_records", "STATS_NAME", "SPANS_NAME",
           "METRICS_NAME", "sidecar_path"]

#: Record types a store line may decode to (see ``records.record_from_dict``).
StoreRecord = Union[ScanRecord, RepairRecord]

_LOG = get_logger("repro.service.store")

#: Manifest file written at the root of a store directory.
MANIFEST_NAME = "store.json"
#: File name of the daemon's stats endpoint inside a store directory.
STATS_NAME = "stats.json"
#: File name of the trace-span JSONL sidecar inside a store directory.
SPANS_NAME = "spans.jsonl"
#: File name of the Prometheus metrics sidecar inside a store directory.
METRICS_NAME = "metrics.prom"
#: Current sharded-store format version (checked on open).
STORE_FORMAT = 1
#: Default number of leading fingerprint hex chars used as the shard id
#: (2 -> up to 256 shards, plenty for a uniformly distributed SHA-256 prefix).
DEFAULT_SHARD_WIDTH = 2


def _store_dir(path: Union[str, os.PathLike]) -> str:
    """``path`` as a string, without a trailing separator."""
    return os.fspath(path).rstrip(os.sep) or os.sep


def sidecar_path(store_path: str, name: str) -> str:
    """Path of a store sidecar file: ``<store_path>/<name>``.

    Args:
        store_path: The store directory (a trailing separator is ignored).
        name: Sidecar name (:data:`STATS_NAME`, :data:`SPANS_NAME`,
            :data:`METRICS_NAME`, or ``fleet`` for the fleet queue).
    """
    return os.path.join(_store_dir(store_path), name)


def _shard_names(root: str) -> List[str]:
    """Sorted names of the shard files in store directory ``root``."""
    if not os.path.isdir(root):
        return []
    return sorted(entry for entry in os.listdir(root)
                  if entry.startswith("shard-") and entry.endswith(".jsonl"))


def _iter_jsonl_records(path: str) -> Iterator[StoreRecord]:
    """Yield the parseable record lines of a JSONL file.

    Lines decode through :func:`repro.service.records.record_from_dict`, so
    one file may mix :class:`ScanRecord` and :class:`RepairRecord` lines.
    Unreadable lines (torn final append, foreign garbage) are counted and
    skipped with one warning per file — a store replay never fails on them.
    """
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield record_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                skipped += 1
    if skipped:
        _LOG.warning("%s: skipped %d unreadable line(s).", path, skipped)


def _encode(record: StoreRecord) -> bytes:
    """One canonical JSONL line (newline-terminated bytes) for ``record``.

    Transient trace spans are stripped here: they belong in the span sink
    (``spans.jsonl``), not in every store line, and stripping at the encode
    choke point keeps them out even when a caller forgot ``pop_spans()``.
    """
    payload = record.to_dict()
    payload.pop("spans", None)
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class ShardedResultStore:
    """Multi-writer result store: one JSONL shard per fingerprint prefix.

    Args:
        path: Store directory (created on demand, along with a ``store.json``
            manifest recording the shard width).  An existing regular file,
            or a ``*.jsonl`` path that is not an existing directory, raises
            :class:`ValueError` pointing at ``store merge``: a legacy
            single-file store is imported, not opened.
        shard_width: Leading fingerprint hex chars per shard id; read back
            from the manifest when the store already exists.
        lock_timeout: Seconds an append/compaction waits for a shard lock
            before raising :class:`~repro.service.locks.LockTimeout`.

    Layout::

        <path>/store.json            # manifest: {"format": 1, "shard_width": 2}
        <path>/shard-<prefix>.jsonl  # records whose fingerprint starts <prefix>
        <path>/locks/<shard>.lock    # advisory per-shard writer locks
        <path>/stats.json            # daemon stats endpoint (optional)
    """

    def __init__(self, path: str, shard_width: int = DEFAULT_SHARD_WIDTH,
                 lock_timeout: Optional[float] = 30.0) -> None:
        self.path = _store_dir(path)
        if os.path.isfile(self.path) or (self.path.endswith(".jsonl")
                                         and not os.path.isdir(self.path)):
            raise ValueError(
                f"{self.path}: a result store is a directory, not a .jsonl "
                "file; import a legacy file with `python -m repro store merge "
                f"--store <dir> --source {self.path}`.")
        self.lock_timeout = lock_timeout
        self._index: Dict[str, StoreRecord] = {}
        #: shard file name -> (mtime_ns, size) signature at last replay.
        self._shard_state: Dict[str, Tuple[int, int]] = {}
        self.shard_width = self._load_or_init_manifest(int(shard_width))
        self.refresh()

    # ------------------------------------------------------------------ #
    # Layout helpers
    # ------------------------------------------------------------------ #
    def _load_or_init_manifest(self, shard_width: int) -> int:
        """Read the manifest (creating it for a fresh store); return the width."""
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            fmt = int(manifest.get("format", 0))
            if fmt != STORE_FORMAT:
                raise ValueError(f"{self.path}: unsupported store format {fmt} "
                                 f"(this build reads format {STORE_FORMAT}).")
            return int(manifest["shard_width"])
        if shard_width < 1 or shard_width > 8:
            raise ValueError(f"shard_width must be in [1, 8], got {shard_width}.")
        os.makedirs(self.path, exist_ok=True)
        with FileLock(os.path.join(self.path, "locks", "store.lock"),
                      timeout=self.lock_timeout):
            # Another writer may have raced us to the manifest.
            if os.path.exists(manifest_path):
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    return int(json.load(handle)["shard_width"])
            atomic_write(manifest_path,
                         json.dumps({"format": STORE_FORMAT,
                                     "shard_width": shard_width},
                                    sort_keys=True) + "\n")
        return shard_width

    def shard_name(self, key: str) -> str:
        """Shard file name for a record ``key`` (fingerprint-prefix addressed)."""
        return f"shard-{key[:self.shard_width]}.jsonl"

    def _shard_path(self, name: str) -> str:
        return os.path.join(self.path, name)

    def _shard_lock(self, name: str) -> FileLock:
        return FileLock(os.path.join(self.path, "locks", f"{name}.lock"),
                        timeout=self.lock_timeout)

    def shard_names(self) -> List[str]:
        """Sorted names of the shard files currently on disk."""
        return _shard_names(self.path)

    # ------------------------------------------------------------------ #
    # Loading / multi-writer visibility
    # ------------------------------------------------------------------ #
    @staticmethod
    def _signature(path: str) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(path)
        except FileNotFoundError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _replay_shard(self, name: str) -> None:
        """(Re-)read one shard into the index; latest line per key wins."""
        path = self._shard_path(name)
        signature = self._signature(path)
        if signature is None or self._shard_state.get(name) == signature:
            return
        for record in _iter_jsonl_records(path):
            self._index[record.key] = record
        self._shard_state[name] = signature

    def refresh(self) -> None:
        """Pick up appends from other writers: re-replay every changed shard."""
        for name in self.shard_names():
            self._replay_shard(name)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[StoreRecord]:
        """Latest record stored under ``key``, or ``None``.

        A miss re-checks the one shard that could hold the key, so records
        appended by concurrent writers become visible without a full reload.
        """
        record = self._index.get(key)
        if record is not None:
            return record
        self._replay_shard(self.shard_name(key))
        return self._index.get(key)

    def __contains__(self, key: str) -> bool:
        """True when ``key`` has a stored record (refreshing its shard)."""
        return self.lookup(key) is not None

    def __len__(self) -> int:
        """Number of distinct keys across all shards (after a refresh)."""
        self.refresh()
        return len(self._index)

    def records(self) -> List[StoreRecord]:
        """All records (one per key, latest wins) after a full refresh."""
        self.refresh()
        return list(self._index.values())

    def scan_records(self) -> List[ScanRecord]:
        """Only the :class:`ScanRecord` entries of :meth:`records`."""
        return [r for r in self.records() if isinstance(r, ScanRecord)]

    def repair_records(self) -> List[RepairRecord]:
        """Only the :class:`RepairRecord` entries of :meth:`records`."""
        return [r for r in self.records() if isinstance(r, RepairRecord)]

    def __iter__(self) -> Iterator[StoreRecord]:
        """Iterate over :meth:`records`."""
        return iter(self.records())

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def add(self, record: StoreRecord) -> None:
        """Append ``record`` to its shard (lock + single ``O_APPEND`` write).

        The shard's replay signature is deliberately *not* refreshed here:
        the post-append (mtime, size) may already include another writer's
        lines this index never replayed, and recording it would mask them
        forever.  Leaving the stale signature in place makes the next
        :meth:`refresh`/miss re-replay the shard, picking up both.
        """
        name = self.shard_name(record.key)
        path = self._shard_path(name)
        os.makedirs(self.path, exist_ok=True)
        with self._shard_lock(name):
            append_line(path, _encode(record))
        self._index[record.key] = record

    def add_all(self, records: Iterable[StoreRecord]) -> None:
        """Append every record in ``records`` (see :meth:`add`)."""
        for record in records:
            self.add(record)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def compact(self) -> Dict[str, int]:
        """Drop superseded records: rewrite each shard with one line per key.

        Every shard is rewritten atomically under its writer lock (concurrent
        appends either land before the rewrite and survive deduplication, or
        wait for the lock and land after), so compaction is safe while other
        writers are live.

        Returns:
            Counters summed over shards: ``lines_before``, ``records_after``,
            ``dropped``, ``shards``.
        """
        totals = {"lines_before": 0, "records_after": 0, "dropped": 0,
                  "shards": 0}
        for name in self.shard_names():
            path = self._shard_path(name)
            with self._shard_lock(name):
                latest: Dict[str, StoreRecord] = {}
                lines = 0
                for record in _iter_jsonl_records(path):
                    latest[record.key] = record
                    lines += 1
                atomic_write(path, b"".join(_encode(r) for r in latest.values()
                                            ).decode("utf-8"))
                signature = self._signature(path)
            self._index.update(latest)
            if signature is not None:
                self._shard_state[name] = signature
            totals["lines_before"] += lines
            totals["records_after"] += len(latest)
            totals["dropped"] += lines - len(latest)
            totals["shards"] += 1
        return totals

    def merge(self, source: Union[str, os.PathLike]) -> Dict[str, int]:
        """Fold a foreign store in, cache-key-aware.

        Keys already present locally are skipped — a merge never replaces a
        verdict that lookups are already hitting; unknown keys are appended
        to their shards, immediately becoming cache hits here.

        Args:
            source: A store directory, or a legacy single-file ``.jsonl``
                store (this is its import path); read through
                :func:`stream_records`.

        Returns:
            Counters: ``merged``, ``skipped``.
        """
        merged = skipped = 0
        for record in stream_records(source):
            if self.lookup(record.key) is not None:
                skipped += 1
                continue
            self.add(record)
            merged += 1
        return {"merged": merged, "skipped": skipped}


def stream_records(path: Union[str, os.PathLike]) -> Iterator[StoreRecord]:
    """Stream a store's records shard by shard, without a full index.

    Yields the same records in the same order as opening the store and
    calling ``records()`` — one record per key, latest line wins — but the
    working set is bounded by the *largest shard* instead of the whole
    store: read-only consumers (``repro report``, ``store merge``, ad-hoc
    scripts) never pay for the in-memory index the store builds on open.

    Per-shard deduplication is sufficient because a record's shard is
    addressed by its key's fingerprint prefix: a key never spans shards,
    and replaying shards in sorted name order reproduces the index's
    insertion order exactly.  A legacy single-file ``.jsonl`` store is
    read as one shard (the import path of ``store merge``).  A missing
    path yields nothing.

    Args:
        path: Store directory, or a legacy JSONL store file.

    Yields:
        :class:`~repro.service.records.ScanRecord` /
        :class:`~repro.service.records.RepairRecord` instances.
    """
    text = _store_dir(path)
    files = ([text] if os.path.isfile(text) else
             [os.path.join(text, name) for name in _shard_names(text)])
    for file in files:
        latest: Dict[str, StoreRecord] = {}
        for record in _iter_jsonl_records(file):
            latest[record.key] = record
        yield from latest.values()
