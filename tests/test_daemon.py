"""Tests for the watch daemon: watcher, job queue, timeouts/retries, stats.

The timeout and fault-injection tests use real child processes (the pool's
kill path is the feature under test); the end-to-end smoke runs a real tiny
scan through ``WatchDaemon`` and the ``python -m repro watch`` CLI.
"""

import functools
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
    CheckpointWatcher,
    DaemonConfig,
    JobQueue,
    JobTimeoutError,
    PoolBackend,
    RepairRecord,
    ScanRecord,
    ScanScheduler,
    ServiceMetrics,
    ShardedResultStore,
    WatchDaemon,
    execute_resolved,
)
from repro.service.cli import main as cli_main
from repro.service.scheduler import LATENCY_WINDOW


# ---------------------------------------------------------------------- #
# Module-level helpers (pickled into child processes)
# ---------------------------------------------------------------------- #
def _hang_scan(resolved):
    """A scan that never finishes (the kill path's guinea pig)."""
    time.sleep(60)


def _boom_scan(resolved):
    """A scan that always fails."""
    raise RuntimeError("boom")


def _flaky_scan(marker_path, resolved):
    """Fails on the first attempt, then delegates to the real scan."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return execute_resolved(resolved)


def _missing_key(resolved):
    """A scan that fails with a non-RuntimeError exception."""
    raise KeyError("no-such-layer")


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args (custom signature)."""

    def __init__(self, layer, reason):
        super().__init__(f"{layer}: {reason}")


def _two_arg_error(resolved):
    raise _TwoArgError("conv1", "exploded")


def _sigkill_once(payload):
    """SIGKILLs its own process on the first attempt (marker unset)."""
    marker, value = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _hang_once(payload):
    """Hangs on the first attempt (marker unset), then returns its value."""
    marker, value = payload
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        time.sleep(60)
    return value


def _sleep_seconds(seconds):
    time.sleep(seconds)
    return seconds


def _fail_once_then_double(payload):
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient")
    return value * 2


def _fake_backdoored_scan(resolved):
    """A scan that instantly claims BACKDOORED (auto-repair trigger)."""
    from repro.core.detection import DetectionResult
    detection = DetectionResult(detector="nc", triggers=[],
                                anomaly_indices={0: 9.0}, flagged_classes=[0],
                                is_backdoored=True)
    return ScanRecord.from_detection(
        key=resolved.key, fingerprint=resolved.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=resolved.request.checkpoint, model=resolved.model,
        dataset=resolved.dataset, detection=detection)


def _fake_repair(resolved):
    """A repair worker stub returning an instant successful RepairRecord."""
    return RepairRecord(
        key=resolved.key, fingerprint=resolved.scan.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=resolved.request.scan.checkpoint,
        model=resolved.scan.model, dataset=resolved.scan.dataset,
        detector=resolved.request.scan.detector,
        strategy=resolved.request.strategy, was_backdoored=True,
        repaired=True, success=True, accuracy_before=0.9,
        accuracy_after=0.9, report={"strategy": resolved.request.strategy})


def _save_tiny(path, seed=0):
    model = build_model("basic_cnn", num_classes=10, in_channels=3,
                        image_size=12, rng=np.random.default_rng(seed))
    save_model(model, str(path), metadata={"model": "basic_cnn",
                                           "dataset": "cifar10",
                                           "image_size": 12})


_TINY_OPTIONS = dict(classes=(0, 1, 2), clean_budget=10, samples_per_class=3,
                     iterations=2, uap_passes=1, seed=0)


def _daemon(tmp_path, **overrides):
    drop = tmp_path / "drop"
    drop.mkdir(exist_ok=True)
    config_kwargs = dict(
        watch_dir=str(drop), store_path=str(tmp_path / "store"),
        detectors=("usb",), poll_interval=0.01, settle_polls=0,
        max_retries=1, request_options=dict(_TINY_OPTIONS))
    config_kwargs.update(overrides)
    return WatchDaemon(DaemonConfig(**config_kwargs))


# ---------------------------------------------------------------------- #
# Job queue
# ---------------------------------------------------------------------- #
class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        queue.push("late-low", priority=1)
        queue.push("first-high", priority=0)
        queue.push("second-high", priority=0)
        assert [queue.pop().payload for _ in range(3)] == [
            "first-high", "second-high", "late-low"]


# ---------------------------------------------------------------------- #
# Scheduler run_jobs: timeout + retries through the planning core
# ---------------------------------------------------------------------- #
class TestRunJobsRetries:
    def test_serial_retry_recovers(self, tmp_path):
        scheduler = ScanScheduler(workers=0, job_retries=1)
        marker = str(tmp_path / "marker")
        results = scheduler.run_jobs(_fail_once_then_double, [(marker, 21)])
        assert results == [42]
        assert scheduler.metrics.retries == 1
        assert scheduler.metrics.failures == 0

    def test_serial_retries_exhausted_raises(self, tmp_path):
        scheduler = ScanScheduler(workers=0, job_retries=2)
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run_jobs(_boom_scan, [None, None])
        # Both failing jobs retry in rounds (2 each); the final round
        # finishes before the batch fails, so both count as failures.
        assert scheduler.metrics.retries == 4
        assert scheduler.metrics.failures == 2

    def test_pool_retry_recovers(self, tmp_path):
        scheduler = ScanScheduler(workers=2, job_retries=1)
        markers = [str(tmp_path / f"m{i}") for i in range(2)]
        results = scheduler.run_jobs(_fail_once_then_double,
                                     [(markers[0], 1), (markers[1], 2)])
        assert results == [2, 4]
        assert scheduler.metrics.retries == 2

    def test_negative_retry_budget_is_rejected(self, tmp_path):
        marker = str(tmp_path / "marker")
        with pytest.raises(ValueError, match="retries must be >= 0"):
            ScanScheduler(workers=0).run_jobs(_fail_once_then_double,
                                              [(marker, 1)], retries=-1)
        assert not os.path.exists(marker)  # rejected before any attempt

    @pytest.mark.parametrize("command",
                             [["watch", "drop"], ["serve", "store"]])
    def test_cli_rejects_negative_retries(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(command + ["--retries", "-1"])
        assert exit_info.value.code == 2
        assert "--retries: must be >= 0, got -1" in capsys.readouterr().err

    def test_pool_timeout_raises_job_timeout(self):
        scheduler = ScanScheduler(workers=2)
        with pytest.raises(JobTimeoutError):
            scheduler.run_jobs(_sleep_seconds, [0.01, 1.2], timeout=0.3)
        assert scheduler.metrics.failures == 1


# ---------------------------------------------------------------------- #
# Checkpoint watcher
# ---------------------------------------------------------------------- #
class TestCheckpointWatcher:
    def test_detects_new_files_once(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        assert watcher.poll() == []
        (tmp_path / "a.npz").write_bytes(b"x")
        assert watcher.poll() == [str(tmp_path / "a.npz")]
        assert watcher.poll() == []  # unchanged files report once

    def test_settle_polls_delays_half_copied_files(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=1)
        path = tmp_path / "a.npz"
        path.write_bytes(b"partial")
        assert watcher.poll() == []  # first sighting: not yet stable
        path.write_bytes(b"partial-more")  # still being copied
        assert watcher.poll() == []  # signature changed: stability reset
        assert watcher.poll() == [str(path)]  # stable for one full poll

    def test_changed_file_retriggers(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        path = tmp_path / "a.npz"
        path.write_bytes(b"v1")
        assert watcher.poll() == [str(path)]
        time.sleep(0.01)  # ensure a new mtime_ns
        path.write_bytes(b"v2-longer")
        assert watcher.poll() == [str(path)]

    def test_non_matching_files_ignored(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        (tmp_path / "notes.txt").write_text("hi")
        assert watcher.poll() == []

    def test_deleted_then_recreated_retriggers(self, tmp_path):
        watcher = CheckpointWatcher(str(tmp_path), settle_polls=0)
        path = tmp_path / "a.npz"
        path.write_bytes(b"v1")
        assert watcher.poll() == [str(path)]
        path.unlink()
        assert watcher.poll() == []
        path.write_bytes(b"v1")
        assert watcher.poll() == [str(path)]


# ---------------------------------------------------------------------- #
# Pool children: hard timeout and fault injection
# ---------------------------------------------------------------------- #
def _pool(workers=1):
    """A scheduler whose run_jobs goes through the pool backend."""
    return ScanScheduler(workers=workers, backend="pool")


class TestPoolChildren:
    def test_timeout_kills_the_child(self):
        start = time.monotonic()
        with pytest.raises(JobTimeoutError):
            _pool().run_jobs(_hang_scan, [None], timeout=0.3)
        assert time.monotonic() - start < 5.0  # killed, not waited out

    def test_child_error_is_reported(self):
        with pytest.raises(RuntimeError, match="boom"):
            _pool().run_jobs(_boom_scan, [None], timeout=5.0)

    def test_child_error_keeps_its_type_and_remote_traceback(self):
        with pytest.raises(KeyError, match="no-such-layer") as caught:
            _pool().run_jobs(_missing_key, [None])
        assert "_missing_key" in str(caught.value.__cause__)

    def test_unrebuildable_child_error_becomes_runtime_error(self):
        with pytest.raises(RuntimeError, match="_TwoArgError: conv1: exploded"):
            _pool().run_jobs(_two_arg_error, [None])

    def test_sigkilled_job_is_retried(self, tmp_path):
        scheduler = _pool(workers=2)
        results = scheduler.run_jobs(
            _sigkill_once, [(str(tmp_path / "marker"), 1), (None, 2)],
            retries=1)
        assert results == [2, 4]
        assert scheduler.metrics.retries == 1
        assert scheduler.metrics.failures == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hung_jobs_are_killed_and_retried_ahead_of_the_queue(
            self, tmp_path, workers):
        # Every worker starts on a job that hangs once; the quick job queued
        # behind them still runs, and the hung jobs succeed on retry.
        hung = [(str(tmp_path / f"marker{i}"), i) for i in range(workers)]
        scheduler = _pool(workers=workers)
        start = time.monotonic()
        results = scheduler.run_jobs(_hang_once, hung + [(None, 99)],
                                     timeout=0.5, retries=1)
        assert results == list(range(workers)) + [99]
        assert scheduler.metrics.retries == workers
        assert time.monotonic() - start < 10.0

    def test_timeout_leaves_no_children_behind(self):
        with pytest.raises(JobTimeoutError):
            _pool(workers=2).run_jobs(_sleep_seconds, [30, 30, 0.01],
                                      timeout=0.3)
        assert multiprocessing.active_children() == []

    def test_run_reports_each_outcome_once_without_raising(self, tmp_path):
        outcomes = PoolBackend(workers=1).run(
            _fail_once_then_double, [(str(tmp_path / "marker"), 1)] * 2)
        # One child per payload, in order: the first fails and leaves the
        # marker, the second then succeeds; nothing is retried or raised.
        (first_ok, error), second = outcomes
        assert not first_ok and isinstance(error, RuntimeError)
        assert str(error) == "transient"
        assert second == (True, 2)


# ---------------------------------------------------------------------- #
# Daemon loop
# ---------------------------------------------------------------------- #
class TestWatchDaemon:
    def test_smoke_dropped_checkpoint_lands_in_store(self, tmp_path):
        daemon = _daemon(tmp_path, job_timeout=120.0)
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)

        store = ShardedResultStore(str(tmp_path / "store"))
        records = store.records()
        assert len(records) == 1
        assert records[0].detector == "USB"
        assert records[0].checkpoint.endswith("model.npz")

        stats = json.loads(open(daemon.stats_path).read())
        assert stats["scans_served"] == 1
        assert stats["cache_misses"] == 1
        assert stats["checkpoints_seen"] == 1
        assert stats["latency_p50_s"] > 0
        assert stats["latency_p95_s"] >= stats["latency_p50_s"]
        for field in ("cache_hit_ratio", "failures", "retries", "queue_depth",
                      "iterations", "updated_at", "store_path"):
            assert field in stats

    def test_second_daemon_serves_from_cache(self, tmp_path):
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        _daemon(tmp_path, job_timeout=120.0).run(max_iterations=2)
        # A fresh daemon over the same drop dir + store: pure cache hit.
        rerun = _daemon(tmp_path, job_timeout=120.0)
        rerun.run(max_iterations=2)
        stats = rerun.stats()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 0
        assert stats["cache_hit_ratio"] == 1.0
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 1

    def test_retry_then_success(self, tmp_path):
        marker = str(tmp_path / "marker")
        daemon = _daemon(tmp_path, job_timeout=120.0,
                         scan_fn=functools.partial(_flaky_scan, marker))
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)
        stats = daemon.stats()
        assert stats["retries"] == 1
        assert stats["failures"] == 0
        assert stats["scans_served"] == 1
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 1

    def test_bounded_retries_then_failure_keeps_daemon_alive(self, tmp_path):
        daemon = _daemon(tmp_path, max_retries=1, scan_fn=_boom_scan)
        _save_tiny(tmp_path / "drop" / "bad.npz", seed=1)
        _save_tiny(tmp_path / "drop" / "zz_other.npz", seed=2)
        daemon.run(max_iterations=2)
        stats = daemon.stats()
        # Both checkpoints were attempted (1 + 1 retry each), both failed,
        # and the loop survived to write stats.
        assert stats["failures"] == 2
        assert stats["retries"] == 2
        assert stats["queue_depth"] == 0
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 0

    def test_timeout_counts_as_failure(self, tmp_path):
        daemon = _daemon(tmp_path, job_timeout=0.2, max_retries=0,
                         scan_fn=_hang_scan)
        _save_tiny(tmp_path / "drop" / "slow.npz", seed=1)
        start = time.monotonic()
        daemon.run(max_iterations=2)
        assert time.monotonic() - start < 10.0
        assert daemon.stats()["failures"] == 1

    def test_unresolvable_checkpoint_is_a_failure_not_a_crash(self, tmp_path):
        daemon = _daemon(tmp_path)
        (tmp_path / "drop" / "garbage.npz").write_bytes(b"not a checkpoint")
        daemon.run(max_iterations=2)
        assert daemon.stats()["failures"] == 1

    def test_default_stats_path(self, tmp_path):
        assert _daemon(tmp_path, store_path=str(tmp_path / "storedir")
                       ).stats_path == str(tmp_path / "storedir" / "stats.json")


class TestAutoRepair:
    def _auto_daemon(self, tmp_path):
        return _daemon(tmp_path, auto_repair=True,
                       scan_fn=_fake_backdoored_scan, repair_fn=_fake_repair,
                       repair_options={"strategy": "unlearn",
                                       "rescan": False})

    def test_flagged_checkpoint_is_auto_repaired(self, tmp_path):
        daemon = self._auto_daemon(tmp_path)
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)

        store = ShardedResultStore(str(tmp_path / "store"))
        scans = store.scan_records()
        repairs = store.repair_records()
        assert len(scans) == 1 and scans[0].is_backdoored
        assert len(repairs) == 1
        assert repairs[0].strategy == "unlearn" and repairs[0].success
        assert repairs[0].key != scans[0].key

        stats = json.loads(open(daemon.stats_path).read())
        assert stats["repairs_completed"] == 1
        assert stats["auto_repair"] is True
        assert stats["scans_served"] == 2  # the scan + the repair job
        assert stats["failures"] == 0

    def test_auto_repair_cache_hit_on_rerun(self, tmp_path):
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        self._auto_daemon(tmp_path).run(max_iterations=2)
        rerun = self._auto_daemon(tmp_path)
        rerun.run(max_iterations=2)
        stats = rerun.stats()
        # scan hit re-enqueues the repair, which is itself a hit
        assert stats["cache_hits"] == 2 and stats["cache_misses"] == 0
        assert stats["repairs_completed"] == 0  # nothing recomputed
        assert len(ShardedResultStore(str(tmp_path / "store"))) == 2

    def test_repaired_outputs_are_not_reingested(self, tmp_path):
        # Regression: the repair pipeline writes *.repaired-<digest>.npz
        # next to the original; a watcher that picked those up would make
        # an auto-repair daemon loop on its own outputs forever.
        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=1)
        _save_tiny(drop / "model.repaired-abcd1234.npz", seed=1)
        watcher = CheckpointWatcher(str(drop), settle_polls=0)
        assert [os.path.basename(p) for p in watcher.poll()] == ["model.npz"]

    def test_no_auto_repair_for_clean_models(self, tmp_path):
        # The real tiny scan comes back clean -> no repair is queued.
        daemon = _daemon(tmp_path, job_timeout=120.0, auto_repair=True,
                         repair_options={"strategy": "unlearn"})
        _save_tiny(tmp_path / "drop" / "model.npz", seed=1)
        daemon.run(max_iterations=2)
        store = ShardedResultStore(str(tmp_path / "store"))
        assert len(store.scan_records()) == 1
        assert not store.scan_records()[0].is_backdoored
        assert store.repair_records() == []
        assert daemon.stats()["repairs_completed"] == 0


class TestServiceMetrics:
    def test_percentiles_pinned_on_known_sequence(self):
        metrics = ServiceMetrics()
        for value in (40.0, 10.0, 30.0, 20.0):
            metrics.record_latency(value)
        assert metrics.latency_percentile(50) == pytest.approx(25.0)
        assert metrics.latency_percentile(95) == pytest.approx(38.5)
        assert metrics.latency_percentile(0) == pytest.approx(10.0)
        assert metrics.latency_percentile(100) == pytest.approx(40.0)
        snapshot = metrics.snapshot()
        assert snapshot["latency_p50_s"] == pytest.approx(25.0)
        assert snapshot["latency_p95_s"] == pytest.approx(38.5)

    def test_percentiles_match_numpy_convention(self):
        rng = np.random.default_rng(0)
        metrics = ServiceMetrics()
        values = rng.uniform(0.01, 5.0, size=257)
        for value in values:
            metrics.record_latency(float(value))
        for q in (10, 50, 90, 95, 99):
            assert metrics.latency_percentile(q) == pytest.approx(
                float(np.percentile(values, q)))

    def test_window_is_bounded_and_evicts_oldest(self):
        metrics = ServiceMetrics()
        total = LATENCY_WINDOW + 100
        values = np.random.default_rng(1).uniform(0.1, 9.0, size=total)
        for value in values:
            metrics.record_latency(float(value))
        assert len(metrics.latencies) == LATENCY_WINDOW
        window = values[-LATENCY_WINDOW:]
        assert metrics.latencies == tuple(float(v) for v in window)
        assert metrics.latency_percentile(95) == pytest.approx(
            float(np.percentile(window, 95)))

    def test_empty_window_is_zero(self):
        assert ServiceMetrics().latency_percentile(50) == 0.0


# ---------------------------------------------------------------------- #
# CLI integration
# ---------------------------------------------------------------------- #
class TestWatchCli:
    def test_watch_then_report_surfaces_metrics(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=1)
        rc = cli_main([
            "watch", str(drop), "--store", "scans", "--detectors", "usb",
            "--poll-interval", "0.01", "--settle-polls", "0",
            "--max-iterations", "2", "--retries", "1", "--job-timeout", "120",
            "--classes", "0,1,2", "--clean-budget", "10",
            "--samples-per-class", "3", "--iterations", "2"])
        assert rc == 0
        capsys.readouterr()

        assert cli_main(["report", "--store", "scans"]) == 0
        out = capsys.readouterr().out
        assert "1 record(s)" in out
        assert "daemon stats" in out
        assert "cache-hit ratio" in out
        assert "p50=" in out and "p95=" in out

        assert cli_main(["report", "--store", "scans", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 1
        assert payload["stats"]["scans_served"] == 1

    def test_store_cli_compact_and_merge(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        drop = tmp_path / "drop"
        drop.mkdir()
        _save_tiny(drop / "model.npz", seed=1)
        args = ["--classes", "0,1,2", "--clean-budget", "10",
                "--samples-per-class", "3", "--iterations", "2"]
        assert cli_main(["scan", str(drop / "model.npz"), "--store", "scans"]
                        + args) == 0
        assert cli_main(["store", "compact", "--store", "scans"]) == 0
        assert "compacted" in capsys.readouterr().out
        assert cli_main(["store", "merge", "--store", "merged",
                         "--source", "scans"]) == 0
        assert "merged 1 record(s)" in capsys.readouterr().out
        # The merged store serves the same request as a cache hit.
        assert cli_main(["scan", str(drop / "model.npz"), "--store", "merged"]
                        + args) == 0
        assert "cache hit" in capsys.readouterr().out
