"""Tests for the sharded multi-writer store: locks, concurrency, compact, merge.

The multi-process tests fork real OS processes (no mocks): two writers
hammering one shard must lose no records and tear no lines, and the
serial-vs-concurrent parity test runs real (tiny) scans from two processes
against one shared store.
"""

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.nn.serialization import save_model
from repro.service import (
    FileLock,
    LockTimeout,
    ScanRequest,
    ScanScheduler,
    ShardedResultStore,
    atomic_write,
)
from repro.service.cli import main as cli_main
from repro.service.records import ScanRecord


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _record(i, fingerprint=None, detector="usb", seconds=1.0):
    fingerprint = fingerprint or f"{i:02d}" * 32
    digest = f"{i:016x}"
    return ScanRecord(
        key=f"{fingerprint}:{detector}:{digest}", fingerprint=fingerprint,
        config_digest=digest, checkpoint=f"ckpt_{i}.npz", model="basic_cnn",
        dataset="cifar10", detector=detector, is_backdoored=bool(i % 2),
        flagged_classes=(i % 3,) if i % 2 else (), suspect_class=None,
        seconds=seconds)


def _writer_proc(store_path, start, count, barrier):
    """Append ``count`` records (ids start..start+count) after the barrier."""
    store = ShardedResultStore(store_path)
    barrier.wait()
    for i in range(start, start + count):
        # One shared fingerprint prefix forces every record onto ONE shard,
        # maximizing writer contention.
        store.add(_record(i, fingerprint="ab" + f"{i:04d}" * 15 + "xy"))


def _save_tiny(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path), metadata={"model": "basic_cnn",
                                           "dataset": "cifar10",
                                           "image_size": 12})


def _tiny_request(path, detector="usb", **overrides):
    defaults = dict(checkpoint=str(path), detector=detector,
                    classes=(0, 1, 2), clean_budget=10, samples_per_class=3,
                    iterations=2, uap_passes=1, seed=0)
    defaults.update(overrides)
    return ScanRequest(**defaults)


def _scan_proc(store_path, checkpoints, barrier):
    """One concurrent scheduler process: scan every checkpoint into the store."""
    scheduler = ScanScheduler(store=ShardedResultStore(store_path), workers=0)
    barrier.wait()
    scheduler.scan([_tiny_request(path) for path in checkpoints])


def _hold_lock_proc(lock_path, held):
    """Take the lock, tell the parent, then hold it until killed."""
    FileLock(lock_path).acquire()
    held.set()
    time.sleep(60)


def _lock_proc(lock_path, counter_path, rounds, barrier):
    """Read-modify-write a counter file under the lock (non-atomic without it)."""
    barrier.wait()
    for _ in range(rounds):
        with FileLock(lock_path, timeout=30.0):
            value = int(open(counter_path).read())
            time.sleep(0.001)  # widen the race window
            with open(counter_path, "w") as handle:
                handle.write(str(value + 1))


# ---------------------------------------------------------------------- #
# Locks
# ---------------------------------------------------------------------- #
class TestFileLock:
    def test_mutual_exclusion_across_processes(self, tmp_path):
        lock_path = str(tmp_path / "locks" / "counter.lock")
        counter = str(tmp_path / "counter.txt")
        with open(counter, "w") as handle:
            handle.write("0")
        barrier = multiprocessing.Barrier(2)
        procs = [multiprocessing.Process(
            target=_lock_proc, args=(lock_path, counter, 25, barrier))
            for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        # Without mutual exclusion the sleep inside the critical section
        # makes lost updates near-certain.
        assert int(open(counter).read()) == 50

    def test_timeout_raises(self, tmp_path):
        lock_path = str(tmp_path / "x.lock")
        holder = FileLock(lock_path)
        holder.acquire()
        try:
            # A second *file descriptor* must time out while the first holds
            # the flock (same-process but distinct fd, which flock serializes).
            waiter = FileLock(lock_path, timeout=0.2, poll_interval=0.02)
            with pytest.raises(LockTimeout):
                waiter.acquire()
        finally:
            holder.release()
        with FileLock(lock_path, timeout=1.0):
            pass  # released locks are re-acquirable

    def test_killed_holder_releases_the_lock(self, tmp_path):
        lock_path = str(tmp_path / "locks" / "shard.lock")
        held = multiprocessing.Event()
        holder = multiprocessing.Process(target=_hold_lock_proc,
                                         args=(lock_path, held))
        holder.start()
        try:
            assert held.wait(10.0)
            with pytest.raises(LockTimeout):
                FileLock(lock_path, timeout=0.1, poll_interval=0.02).acquire()
        finally:
            holder.kill()
            holder.join()
        assert holder.exitcode == -signal.SIGKILL
        # The kernel dropped the dead holder's flock: no recovery step.
        with FileLock(lock_path, timeout=2.0):
            pass

    def test_atomic_write_replaces_content(self, tmp_path):
        path = str(tmp_path / "sub" / "stats.json")
        atomic_write(path, "first")
        atomic_write(path, "second")
        assert open(path).read() == "second"
        assert [e for e in os.listdir(tmp_path / "sub")
                if e.startswith("stats.json.tmp.")] == []


# ---------------------------------------------------------------------- #
# Sharded store basics
# ---------------------------------------------------------------------- #
class TestShardedStore:
    def test_roundtrip_and_layout(self, tmp_path):
        store = ShardedResultStore(str(tmp_path / "store"))
        records = [_record(i) for i in range(6)]
        store.add_all(records)
        assert len(store) == 6
        for record in records:
            hit = store.lookup(record.key)
            assert hit is not None and hit.to_dict() == record.to_dict()
        # Records shard by fingerprint prefix; distinct prefixes -> files.
        names = store.shard_names()
        assert names and all(n.startswith("shard-") and n.endswith(".jsonl")
                             for n in names)
        for record in records:
            assert store.shard_name(record.key) in names

    def test_reopen_replays(self, tmp_path):
        path = str(tmp_path / "store")
        ShardedResultStore(path).add_all(_record(i) for i in range(4))
        reopened = ShardedResultStore(path)
        assert len(reopened) == 4
        assert reopened.shard_width == 2  # from the manifest

    def test_other_writers_become_visible(self, tmp_path):
        path = str(tmp_path / "store")
        reader = ShardedResultStore(path)
        writer = ShardedResultStore(path)
        record = _record(1)
        writer.add(record)
        # The reader's index was built before the write; lookup refreshes
        # the one shard that can hold the key.
        assert reader.lookup(record.key) is not None

    def test_own_append_does_not_mask_interleaved_writer(self, tmp_path):
        """Writing must not freeze the shard signature over foreign lines.

        Regression: A's append used to record the post-write (mtime, size) —
        which already contained B's unreplayed line — so B's record became
        permanently invisible to A.
        """
        path = str(tmp_path / "store")
        a = ShardedResultStore(path)
        b = ShardedResultStore(path)
        shared = "ab" + "0" * 62
        ra1 = _record(1, fingerprint=shared)
        rb = _record(2, fingerprint=shared)
        ra2 = _record(3, fingerprint=shared)
        a.add(ra1)
        b.add(rb)       # interleaved foreign append, same shard
        a.add(ra2)      # A writes again without ever replaying rb
        assert a.lookup(rb.key) is not None

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedResultStore(path)
        record = _record(1)
        store.add(record)
        shard = os.path.join(path, store.shard_name(record.key))
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn')  # simulated mid-append crash
        reopened = ShardedResultStore(path)
        assert len(reopened) == 1
        assert reopened.lookup(record.key) is not None

    def test_manifest_width_is_authoritative(self, tmp_path):
        path = str(tmp_path / "store")
        ShardedResultStore(path, shard_width=1).add(_record(1))
        assert ShardedResultStore(path, shard_width=3).shard_width == 1

    def test_append_after_torn_tail_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        store = ShardedResultStore(path)
        store.add(_record(1, fingerprint="ab" * 32))
        with open(os.path.join(path, "shard-ab.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write('{"key": "torn')  # writer killed mid-append
        survivor = _record(2, fingerprint="ab" + "cd" * 31)
        store.add(survivor)  # same shard as the fragment
        reopened = ShardedResultStore(path)
        assert len(reopened) == 2
        assert reopened.lookup(survivor.key) is not None

    def test_short_write_raises_and_is_not_indexed(self, tmp_path,
                                                  monkeypatch):
        path = str(tmp_path / "store")
        store = ShardedResultStore(path)
        real_write = os.write
        monkeypatch.setattr(  # a full disk: half the line reaches the file
            os, "write", lambda fd, data: real_write(fd, data[:len(data) // 2]))
        lost = _record(1, fingerprint="ab" * 32)
        with pytest.raises(OSError, match="short append"):
            store.add(lost)
        monkeypatch.setattr(os, "write", real_write)
        assert store.lookup(lost.key) is None
        survivor = _record(2, fingerprint="ab" + "cd" * 31)
        store.add(survivor)
        reopened = ShardedResultStore(path)
        assert reopened.lookup(survivor.key) is not None
        assert reopened.lookup(lost.key) is None

    def test_directory_named_jsonl_opens_as_store(self, tmp_path):
        os.makedirs(tmp_path / "existing.jsonl")
        store = ShardedResultStore(str(tmp_path / "existing.jsonl") + os.sep)
        store.add(_record(1))
        assert len(ShardedResultStore(str(tmp_path / "existing.jsonl"))) == 1


# ---------------------------------------------------------------------- #
# Concurrent writers
# ---------------------------------------------------------------------- #
class TestConcurrentWriters:
    def test_two_processes_one_shard_no_lost_or_torn_records(self, tmp_path):
        path = str(tmp_path / "store")
        ShardedResultStore(path)  # create manifest up front
        barrier = multiprocessing.Barrier(2)
        count = 40
        procs = [multiprocessing.Process(
            target=_writer_proc, args=(path, start, count, barrier))
            for start in (0, count)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        store = ShardedResultStore(path)
        assert len(store) == 2 * count  # no lost records
        # Every line parses (no torn/interleaved writes) and all shards
        # carry the shared "ab" prefix.
        assert store.shard_names() == ["shard-ab.jsonl"]
        with open(os.path.join(path, "shard-ab.jsonl"), encoding="utf-8") as f:
            lines = [line for line in f if line.strip()]
        assert len(lines) == 2 * count
        for line in lines:
            json.loads(line)

    def test_serial_vs_concurrent_scheduler_parity(self, tmp_path):
        """Two concurrent scheduler processes == one serial run, verdict-wise."""
        checkpoints = []
        for seed in (1, 2):
            ckpt = tmp_path / f"model_{seed}.npz"
            _save_tiny(ckpt, seed=seed)
            checkpoints.append(str(ckpt))

        serial = ScanScheduler(store=None, workers=0)
        reference = serial.scan([_tiny_request(c) for c in checkpoints])

        store_path = str(tmp_path / "store")
        ShardedResultStore(store_path)
        barrier = multiprocessing.Barrier(2)
        procs = [multiprocessing.Process(
            target=_scan_proc, args=(store_path, checkpoints, barrier))
            for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0

        store = ShardedResultStore(store_path)
        assert len(store) == len(reference)
        for expected in reference:
            stored = store.lookup(expected.key)
            assert stored is not None
            assert stored.is_backdoored == expected.is_backdoored
            assert stored.flagged_classes == expected.flagged_classes
            assert stored.suspect_class == expected.suspect_class
            assert (stored.to_detection_result().anomaly_indices
                    == expected.to_detection_result().anomaly_indices)


# ---------------------------------------------------------------------- #
# Compact / merge
# ---------------------------------------------------------------------- #
class TestCompactMerge:
    def test_compact_drops_superseded_records(self, tmp_path):
        store = ShardedResultStore(str(tmp_path / "store"))
        old = _record(1, seconds=1.0)
        new = _record(1, seconds=9.0)  # same key, newer content
        other = _record(2)
        store.add_all([old, new, other])
        result = store.compact()
        assert result["lines_before"] == 3
        assert result["records_after"] == 2
        assert result["dropped"] == 1
        # Latest record per key survives, and a reopen agrees.
        assert store.lookup(old.key).seconds == 9.0
        reopened = ShardedResultStore(str(tmp_path / "store"))
        assert len(reopened) == 2
        assert reopened.lookup(old.key).seconds == 9.0

    def test_merge_is_cache_key_aware(self, tmp_path):
        dest = ShardedResultStore(str(tmp_path / "dest"))
        shared_old = _record(1, seconds=1.0)
        dest.add_all([shared_old, _record(2)])
        foreign = ShardedResultStore(str(tmp_path / "foreign"))
        shared_new = _record(1, seconds=9.0)
        foreign.add_all([shared_new, _record(3)])

        result = dest.merge(str(tmp_path / "foreign"))
        assert result == {"merged": 1, "skipped": 1}
        assert len(dest) == 3
        # Existing keys keep their record: lookups that were hits before the
        # merge return the identical verdict after it.
        assert dest.lookup(shared_old.key).seconds == 1.0
        assert dest.lookup(_record(3).key) is not None

    def test_merge_makes_foreign_scans_cache_hits(self, tmp_path):
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=3)
        request = _tiny_request(ckpt)
        # Scan into a "foreign" store...
        foreign_path = str(tmp_path / "foreign")
        ScanScheduler(store=ShardedResultStore(foreign_path),
                      workers=0).scan([request])
        # ...merge into a fresh one: the same request is now a cache hit.
        dest = ShardedResultStore(str(tmp_path / "dest"))
        dest.merge(foreign_path)
        scheduler = ScanScheduler(store=dest, workers=0)
        record = scheduler.scan([request])[0]
        assert record.cache_hit
        assert scheduler.cache_hits == 1 and scheduler.cache_misses == 0

    def test_merge_from_legacy_into_sharded(self, tmp_path):
        legacy = _write_legacy_file(tmp_path / "old.jsonl",
                                    [_record(i) for i in range(3)])
        dest = ShardedResultStore(str(tmp_path / "dest"))
        assert dest.merge(legacy)["merged"] == 3
        assert len(dest) == 3


# ---------------------------------------------------------------------- #
# Migrating a legacy single-file store
# ---------------------------------------------------------------------- #
def _write_legacy_file(path, records):
    """A single-file store in the old line format: one sorted-key JSON line
    per record (spans stripped), the latest line per key winning."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            payload = record.to_dict()
            payload.pop("spans", None)
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
    return str(path)


class TestLegacyImport:
    def test_store_merge_cli_imports_legacy_file(self, tmp_path, capsys):
        ckpt = tmp_path / "m.npz"
        _save_tiny(ckpt, seed=4)
        request = _tiny_request(ckpt)
        computed = ScanScheduler(store=None, workers=0).scan([request])[0]
        legacy = _write_legacy_file(
            tmp_path / "scan_results.jsonl",
            [_record(1, seconds=1.0), _record(1, seconds=7.0), computed])
        store_dir = str(tmp_path / "scan_results")
        assert cli_main(["store", "merge", "--store", store_dir,
                         "--source", legacy]) == 0
        assert "merged 2 record(s)" in capsys.readouterr().out
        store = ShardedResultStore(store_dir)
        assert store.lookup(_record(1).key).seconds == 7.0  # latest line
        scheduler = ScanScheduler(store=store, workers=0)
        hit = scheduler.scan([request])[0]
        assert hit.cache_hit and scheduler.cache_misses == 0
        assert hit.flagged_classes == computed.flagged_classes

    def test_opening_legacy_file_points_at_store_merge(self, tmp_path):
        legacy = _write_legacy_file(tmp_path / "old.jsonl", [_record(1)])
        for path in (legacy, str(tmp_path / "fresh.jsonl")):
            with pytest.raises(ValueError, match="store merge"):
                ShardedResultStore(path)
        assert not os.path.exists(tmp_path / "fresh.jsonl")
