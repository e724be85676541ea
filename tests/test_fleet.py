"""Lease protocol tests for the distributed worker fleet.

Three layers, matching the guarantees :mod:`repro.service.fleet` documents:

* deterministic :class:`FleetQueue` unit tests driven by an injected fake
  clock — acquire/renew/expire/fail transitions and ownership checks
  across independent queue instances;
* a hypothesis rule-based state machine interleaving submit / acquire /
  renew / complete / error / time-advance and asserting the two fleet
  invariants after every step: **no double ownership** (a stale owner can
  never publish over the current one, and a job is leased at most once)
  and **no lost jobs** (every submitted job stays visible and terminates
  ``done`` or ``failed``);
* a kill-a-worker-mid-scan integration test: a real ``python -m repro
  worker`` subprocess is SIGKILLed while holding a lease, its job fails on
  expiry, and the planning core's resubmission is completed by a second
  worker process;
* one retry contract driven through ``ScanScheduler.run_jobs`` on the
  inline, pool and fleet backends alike.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service.cli import main as cli_main
from repro.service.fleet import (
    FleetBackend,
    FleetQueue,
    FleetWorker,
    JobKind,
    LeaseLostError,
    fleet_dir,
    fleet_snapshot,
    kind_for,
    probe_job,
    register_kind,
    run_worker,
)
from repro.service.planning import JobTimeoutError
from repro.service.scheduler import ScanScheduler

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LEASE = 10.0


class FakeClock:
    """Deterministic, manually advanced time source for lease tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "store")


def make_queue(store, clock, reader_id="reader"):
    return FleetQueue(store, clock=clock, reader_id=reader_id)


class TestFleetQueue:
    """Deterministic lease-machine transitions under a fake clock."""

    def test_submit_acquire_complete_roundtrip(self, store, clock):
        queue = make_queue(store, clock)
        first = queue.submit("probe", {"value": 1})
        second = queue.submit("probe", {"value": 2})
        claim = queue.acquire("w1", pid=101, lease_seconds=LEASE)
        assert claim is not None
        assert claim.job_id == first  # FIFO within a priority
        queue.complete(first, "w1", {"value": 1, "pid": 101})
        state = queue.poll([first, second])
        assert state[first].status == "done"
        assert state[first].result == {"value": 1, "pid": 101}
        assert state[second].status == "queued"

    def test_torn_jobs_tail_does_not_swallow_next_submit(self, store, clock):
        queue = make_queue(store, clock)
        queue.submit("probe", {"value": 1})
        jobs_log = os.path.join(fleet_dir(store), "jobs.jsonl")
        with open(jobs_log, "a", encoding="utf-8") as handle:
            handle.write('{"event": "submit", "job": "torn')  # killed writer
        job_id = queue.submit("probe", {"value": 2})
        assert job_id in queue.poll()
        fresh = make_queue(store, clock, reader_id="fresh")
        assert fresh.poll([job_id])[job_id].payload == {"value": 2}

    def test_lower_priority_number_runs_first(self, store, clock):
        queue = make_queue(store, clock)
        slow = queue.submit("probe", {}, priority=5)
        fast = queue.submit("probe", {}, priority=0)
        claim = queue.acquire("w1", pid=1, lease_seconds=LEASE)
        assert claim.job_id == fast
        queue.complete(fast, "w1", {})
        assert queue.acquire("w1", pid=1, lease_seconds=LEASE).job_id == slow

    def test_expired_lease_fails_and_stale_owner_cannot_publish(
            self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {"value": 9})
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE + 1)
        # Any reader fails the expired lease: w2's acquire reaps it and
        # finds nothing to claim — the job is never leased twice.
        assert queue.acquire("w2", pid=2, lease_seconds=LEASE) is None
        with pytest.raises(LeaseLostError):
            queue.complete(job_id, "w1", {"stale": True})
        job = queue.poll([job_id])[job_id]
        assert job.status == "failed" and job.expired is True
        assert job.result is None
        snapshot = queue.snapshot()
        assert snapshot["leases_expired_total"] == 1
        assert snapshot["jobs_failed"] == 1

    def test_expiry_past_retry_budget_fails_terminally(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {})
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE + 1)
        job = queue.poll([job_id])[job_id]
        assert job.status == "failed"
        assert job.expired is True
        assert "lease expired" in job.error

    def test_error_fails_the_job(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {})
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        queue.error(job_id, "w1", "boom")
        job = queue.poll([job_id])[job_id]
        assert job.status == "failed"
        assert job.expired is False
        assert job.error == "boom"
        assert queue.acquire("w2", pid=2, lease_seconds=LEASE) is None
        with pytest.raises(LeaseLostError):
            queue.error(job_id, "w1", "again")

    def test_renew_extends_the_deadline(self, store, clock):
        queue = make_queue(store, clock)
        job_id = queue.submit("probe", {})
        queue.acquire("w1", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE - 2)
        deadline = queue.renew(job_id, "w1", LEASE)
        assert deadline == clock.now + LEASE
        clock.advance(LEASE - 2)
        assert queue.poll([job_id])[job_id].status == "leased"
        clock.advance(3)
        assert queue.poll([job_id])[job_id].status == "failed"
        with pytest.raises(LeaseLostError):
            queue.renew(job_id, "w1", LEASE)

    def test_independent_queue_instances_converge(self, store, clock):
        """Two FleetQueue objects sharing a directory see one state."""
        q1 = make_queue(store, clock, reader_id="r1")
        q2 = make_queue(store, clock, reader_id="r2")
        job_id = q1.submit("probe", {"value": 3})
        assert q2.poll([job_id])[job_id].status == "queued"
        assert q1.acquire("w1", pid=1, lease_seconds=LEASE).job_id == job_id
        # No double ownership: a second worker through a second instance
        # finds nothing queued while the lease is live.
        assert q2.acquire("w2", pid=2, lease_seconds=LEASE) is None
        assert q2.poll([job_id])[job_id].owner == "w1"
        with pytest.raises(LeaseLostError):
            q2.complete(job_id, "w2", {"stale": True})
        q1.complete(job_id, "w1", {"value": 3})
        assert q2.poll([job_id])[job_id].result == {"value": 3}

    def test_snapshot_counts_and_tenant_depth(self, store, clock):
        queue = make_queue(store, clock)
        queue.submit("probe", {}, tenant="acme")
        queue.submit("probe", {}, tenant="acme")
        running = queue.submit("probe", {}, tenant="zeta")
        queue.acquire("w1", pid=1, lease_seconds=LEASE)  # leases first acme job
        snapshot = queue.snapshot()
        assert snapshot["backend"] == "fleet"
        assert snapshot["workers_live"] == 1
        assert snapshot["leases_held"] == 1
        assert snapshot["jobs_queued"] == 2
        assert snapshot["queue_depth"] == {"acme": 2, "zeta": 1}
        assert running in queue.poll()

    def test_fleet_snapshot_none_without_fleet_dir(self, store):
        assert fleet_snapshot(store) is None
        assert not os.path.isdir(fleet_dir(store))


class FleetLeaseMachine(RuleBasedStateMachine):
    """Hypothesis model of the lease protocol.

    The machine interleaves every queue operation (including time advancing
    past lease deadlines) and checks the fleet's two invariants after each
    step; claims are deliberately kept around after they go stale so that
    late ``renew`` / ``complete`` / ``error`` calls exercise the
    :class:`LeaseLostError` ownership checks.
    """

    WORKERS = ("w1", "w2", "w3")

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="repro_fleet_hyp_")
        self.clock = FakeClock()
        self.queue = FleetQueue(os.path.join(self.tmp, "store"),
                                clock=self.clock, reader_id="machine")
        self.submitted = set()
        self.completed_by = {}
        self.claims = []

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _claim(self, index):
        return self.claims[index % len(self.claims)]

    @rule(priority=st.integers(0, 2))
    def submit(self, priority):
        self.submitted.add(self.queue.submit("probe", {}, priority=priority))

    @rule(worker=st.sampled_from(WORKERS))
    def acquire(self, worker):
        claim = self.queue.acquire(worker, pid=1, lease_seconds=LEASE)
        if claim is not None:
            assert claim.job_id in self.submitted
            # A fleet job is one attempt: it is never leased twice.
            assert all(job_id != claim.job_id for _, job_id in self.claims)
            job = self.queue.poll([claim.job_id])[claim.job_id]
            assert job.status == "leased" and job.owner == worker
            self.claims.append((worker, claim.job_id))

    @rule(seconds=st.floats(0.1, LEASE * 1.5))
    def advance_time(self, seconds):
        self.clock.advance(seconds)

    @precondition(lambda self: self.claims)
    @rule(index=st.integers(0, 64))
    def renew(self, index):
        worker, job_id = self._claim(index)
        try:
            self.queue.renew(job_id, worker, LEASE)
        except LeaseLostError:
            job = self.queue.poll([job_id])[job_id]
            assert job.owner != worker or job.status != "leased"
        else:
            job = self.queue.poll([job_id])[job_id]
            assert job.status == "leased" and job.owner == worker

    @precondition(lambda self: self.claims)
    @rule(index=st.integers(0, 64))
    def complete(self, index):
        worker, job_id = self._claim(index)
        try:
            self.queue.complete(job_id, worker, {"by": worker})
        except LeaseLostError:
            job = self.queue.poll([job_id])[job_id]
            assert job.owner != worker or job.status != "leased"
        else:
            # No double ownership: only one publish can ever succeed.
            assert job_id not in self.completed_by
            self.completed_by[job_id] = worker
            assert self.queue.poll([job_id])[job_id].status == "done"

    @precondition(lambda self: self.claims)
    @rule(index=st.integers(0, 64))
    def error(self, index):
        worker, job_id = self._claim(index)
        try:
            self.queue.error(job_id, worker, "induced")
        except LeaseLostError:
            job = self.queue.poll([job_id])[job_id]
            assert job.owner != worker or job.status != "leased"
        else:
            assert self.queue.poll([job_id])[job_id].status == "failed"

    @rule()
    def reap_via_poll(self):
        self.queue.poll()

    @invariant()
    def no_lost_jobs(self):
        state = self.queue.poll()
        assert self.submitted == set(state)
        claimed = {job_id for _, job_id in self.claims}
        for job_id, job in state.items():
            assert job.status in ("queued", "leased", "done", "failed")
            assert not (job.done and job.failed)
            if job.status != "queued":
                assert job_id in claimed  # only a leased job can end
            if job.status == "leased":
                assert job.owner in self.WORKERS
            if job_id in self.completed_by:
                assert job.status == "done"
                assert job.result == {"by": self.completed_by[job_id]}


FleetLeaseMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None)
TestFleetLeaseInvariants = FleetLeaseMachine.TestCase


class TestFleetBackend:
    """The ExecutionBackend adapter over real (threaded) workers."""

    def _serve(self, store, max_jobs):
        thread = threading.Thread(
            target=run_worker, args=(store,),
            kwargs={"max_jobs": max_jobs, "lease_seconds": 5.0,
                    "poll_interval": 0.01},
            daemon=True)
        thread.start()
        return thread

    def test_batch_round_trips_in_order(self, store):
        backend = FleetBackend(store, poll_interval=0.01)
        thread = self._serve(store, max_jobs=4)
        outcomes = backend.run(probe_job, [{"value": i} for i in range(4)])
        thread.join(timeout=30)
        assert [ok for ok, _ in outcomes] == [True] * 4
        assert [value["value"] for _, value in outcomes] == [0, 1, 2, 3]
        snapshot = fleet_snapshot(store)
        assert snapshot["jobs_done"] == 4
        assert snapshot["jobs_failed"] == 0

    def test_terminal_failure_raises_and_counts(self, store):
        scheduler = ScanScheduler(
            backend=FleetBackend(store, poll_interval=0.01))
        thread = self._serve(store, max_jobs=2)  # two attempts, then exit
        with pytest.raises(RuntimeError, match="induced"):
            scheduler.run_jobs(probe_job, [{"fail": "induced"}], retries=1)
        thread.join(timeout=30)
        assert scheduler.metrics.failures == 1
        assert scheduler.metrics.retries == 1  # the resubmission
        # Each attempt was its own fleet job, and each failed.
        jobs = FleetQueue(store).poll().values()
        assert [job.status for job in jobs] == ["failed", "failed"]
        assert all("induced" in job.error for job in jobs)

    def test_tenant_is_stamped_on_submitted_jobs(self, store):
        backend = FleetBackend(store, poll_interval=0.01)
        backend.tenant = "acme"
        thread = self._serve(store, max_jobs=1)
        backend.run(probe_job, [{"value": 1}])
        thread.join(timeout=30)
        job = FleetQueue(store).poll().popitem()[1]
        assert job.tenant == "acme"

    def test_unregistered_callable_is_rejected(self, store):
        backend = FleetBackend(store)
        with pytest.raises(ValueError, match="no registered fleet job kind"):
            backend.run(lambda payload: payload, [{"value": 1}])

    def test_empty_batch_is_a_no_op(self, store):
        backend = FleetBackend(store)
        assert backend.run(probe_job, []) == []
        snapshot = fleet_snapshot(store)
        assert snapshot["jobs_queued"] == 0
        assert snapshot["jobs_done"] == 0

    def test_registered_kinds_cover_scheduler_and_repair(self):
        from repro.service.repair import execute_repair
        from repro.service.scheduler import execute_resolved
        assert kind_for(execute_resolved).name == "scan"
        assert kind_for(execute_repair).name == "repair"
        assert kind_for(probe_job).name == "probe"


class TestKillWorkerMidScan:
    """A SIGKILLed worker's lease expires; the resubmitted job finishes."""

    def _spawn_worker(self, store):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", store,
             "--lease-seconds", "0.6", "--poll-interval", "0.05",
             "--max-jobs", "1"],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def _wait_for(self, check, timeout, message):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            value = check()
            if value is not None:
                return value
            time.sleep(0.05)
        pytest.fail(message)

    def test_killed_worker_job_requeues_and_survivor_completes(self, store):
        queue = FleetQueue(store, reader_id="test")
        scheduler = ScanScheduler(
            backend=FleetBackend(store, poll_interval=0.05))
        outcome = {}

        def submit():
            try:
                outcome["results"] = scheduler.run_jobs(
                    probe_job, [{"sleep": 2.0, "value": 42}], retries=1)
            except Exception as error:  # noqa: BLE001 - captured for asserts
                outcome["error"] = error

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        victim = self._spawn_worker(store)
        survivor = None
        try:
            killed_id = self._wait_for(
                lambda: next((job_id for job_id, job in queue.poll().items()
                              if job.owner), None), timeout=30,
                message="worker never leased the probe job")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            survivor = self._spawn_worker(store)
            submitter.join(timeout=60)
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert not submitter.is_alive(), "job never completed after the kill"
        assert "error" not in outcome, outcome.get("error")
        [result] = outcome["results"]
        assert result["value"] == 42
        assert result["pid"] == survivor.pid
        assert result["pid"] != victim.pid
        # The victim's fleet job failed as expired; the core resubmitted
        # the payload once as a new fleet job, which the survivor ran.
        state = queue.poll()
        assert state[killed_id].status == "failed"
        assert state[killed_id].expired is True
        assert len(state) == 2
        assert scheduler.metrics.retries == 1
        assert scheduler.metrics.failures == 0
        snapshot = fleet_snapshot(store)
        assert snapshot["leases_expired_total"] >= 1
        assert snapshot["jobs_done"] == 1
        assert snapshot["jobs_failed"] == 1

    def test_worker_cli_reports_jobs_executed(self, store):
        queue = FleetQueue(store, reader_id="test")
        queue.submit("probe", {"value": 7})
        worker = self._spawn_worker(store)
        assert worker.wait(timeout=60) == 0
        job = queue.poll().popitem()[1]
        assert job.status == "done"
        assert job.result["value"] == 7
        assert job.result["pid"] == worker.pid


class TestLeaseDuration:
    """A lease must outlive its acquire: non-positive durations are refused."""

    @pytest.mark.parametrize("seconds", [0, -1.5])
    def test_worker_rejects_non_positive_lease(self, store, seconds):
        with pytest.raises(ValueError, match="lease_seconds must be > 0"):
            FleetWorker(store, lease_seconds=seconds)

    def test_worker_cli_rejects_zero_lease(self, store, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["worker", store, "--lease-seconds", "0"])
        assert exit_info.value.code == 2
        assert "--lease-seconds: must be > 0" in capsys.readouterr().err
        assert not os.path.isdir(fleet_dir(store))


class TestExpiredLeaseBackendSemantics:
    """Exhausted-by-expiry batches surface as JobTimeoutError, like the pool."""

    def test_expired_job_raises_job_timeout(self, store, clock):
        backend = FleetBackend(store, poll_interval=0.01)
        backend.queue = make_queue(store, clock, reader_id="submitter")
        # A second instance for the test's own reads/acquires, as a real
        # ghost worker would have (instances are thread-safe, but separate
        # ones model separate processes).
        queue = make_queue(store, clock, reader_id="ghost")
        # Lease the lone job, then let it expire with no retries left: the
        # submitter's own poll reaps it into a terminal expiry failure.
        result = {}
        scheduler = ScanScheduler(backend=backend)

        def submit_and_wait():
            try:
                scheduler.run_jobs(probe_job, [{"value": 1}], retries=0)
            except Exception as error:  # noqa: BLE001 - captured for asserts
                result["error"] = error

        thread = threading.Thread(target=submit_and_wait, daemon=True)
        thread.start()
        self._wait_queue(queue)
        queue.acquire("ghost", pid=1, lease_seconds=LEASE)
        clock.advance(LEASE + 1)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert isinstance(result.get("error"), JobTimeoutError)
        assert "lease expired" in str(result["error"])

    @staticmethod
    def _wait_queue(queue, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if queue.poll():
                return
            time.sleep(0.01)
        raise AssertionError("job never appeared in the fleet queue")


def _fails_once(payload):
    """Fails on its first attempt (marker unset), then doubles its value."""
    if not os.path.exists(payload["marker"]):
        with open(payload["marker"], "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient failure")
    return payload["value"] * 2


def _always_fails(payload):
    """Logs one line per attempt, then fails."""
    with open(payload["log"], "a") as handle:
        handle.write("attempt\n")
    raise RuntimeError("permanent failure")


for _job in (_fails_once, _always_fails):
    register_kind(JobKind(name=f"test{_job.__name__}", fn=_job,
                          encode=dict, decode=dict,
                          encode_result=lambda value: value,
                          decode_result=lambda value: value))


class TestRetryContract:
    """One retry budget, counted the same way, whichever backend runs it."""

    @pytest.mark.parametrize("backend", ["inline", "pool", "fleet"])
    def test_retries_and_failures_match_across_backends(self, backend, store,
                                                        tmp_path):
        worker = None
        if backend == "fleet":
            worker = threading.Thread(
                target=run_worker, args=(store,),
                kwargs={"max_jobs": 4, "lease_seconds": 5.0,
                        "poll_interval": 0.01},
                daemon=True)
            worker.start()
            scheduler = ScanScheduler(
                backend=FleetBackend(store, poll_interval=0.01))
        else:
            scheduler = ScanScheduler(workers=2, backend=backend)
        results = scheduler.run_jobs(
            _fails_once, [{"marker": str(tmp_path / "marker"), "value": 21}],
            retries=1)
        assert results == [42]
        metrics = scheduler.metrics
        assert (metrics.retries, metrics.failures) == (1, 0)

        log = tmp_path / "attempts.log"
        with pytest.raises(RuntimeError, match="permanent failure") as caught:
            scheduler.run_jobs(_always_fails, [{"log": str(log)}], retries=1)
        assert type(caught.value) is RuntimeError
        assert log.read_text().count("attempt") == 2
        assert (metrics.retries, metrics.failures) == (2, 1)
        if worker is not None:
            worker.join(timeout=30)
            assert not worker.is_alive()
