"""Execution backends: where a planned batch of jobs actually runs.

The planning core (:mod:`repro.service.planning`) decides *what* to run;
an :class:`ExecutionBackend` decides *where*.  Three implementations ship:

* :class:`InlineBackend` — serial, in-process: jobs run in order in
  the caller, bit-identical to the pool path minus the process hop (the
  test suite's default);
* :class:`PoolBackend` — one killable child process per job, at most
  ``workers`` at a time: a job past its wall-clock timeout is killed;
* :class:`~repro.service.fleet.FleetBackend` — independent worker
  processes pulling from a store-adjacent shared queue with lease-based
  ownership (imported lazily via :func:`create_backend` so the scheduler
  never pays for it).

All three satisfy the same contract — ``run(fn, payloads)`` executes each
payload exactly once and returns one ``(ok, value)`` pair per payload, in
order — and none of them retries.  Attempts belong to the planning core:
:meth:`~repro.service.scheduler.ScanScheduler.run_jobs` wraps the backend in
:func:`~repro.service.planning.run_attempts`, so the repair driver, the
watch daemon, and the HTTP API get one retry policy whichever backend the
operator selected (``--backend inline|pool|fleet``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .planning import JobTimeoutError

__all__ = ["ExecutionBackend", "InlineBackend", "PoolBackend",
           "create_backend", "BACKEND_NAMES"]

#: Backend specs accepted by :func:`create_backend` (and the CLI flag).
BACKEND_NAMES = ("inline", "pool", "fleet")


class ExecutionBackend:
    """Contract every execution backend implements.

    A backend applies a module-level function to a sequence of picklable
    payloads, once each, and reports every outcome in order.  It owns no
    resolve/cache logic and no retry policy — callers hand it
    already-planned work and decide what to run again.
    """

    #: Short identifier rendered in logs, metrics, and ``repro report``.
    name = "abstract"

    def run(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None) -> List[Tuple[bool, Any]]:
        """Apply ``fn`` to every payload exactly once, preserving order.

        Args:
            fn: Module-level callable (must pickle for process-based
                backends).
            payloads: Job inputs; outcomes come back in the same order.
            timeout: Per-job wall-clock budget in seconds (``None``
                disables it; inline execution cannot be preempted, so only
                process-based backends enforce it).

        Returns:
            One ``(True, fn(p))`` or ``(False, error)`` pair per payload;
            a job past its budget reports a
            :class:`~repro.service.planning.JobTimeoutError`.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        """``<BackendClass 'name'>`` for logs and debugging."""
        return f"<{type(self).__name__} {self.name!r}>"


class InlineBackend(ExecutionBackend):
    """Serial in-process execution: the deterministic reference path.

    Jobs run in order inside the calling process — bit-identical to the
    pool path (pool children fork with the same seeds), just without the
    process hop, which also means a per-job ``timeout`` cannot be enforced.
    """

    name = "inline"

    def run(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None) -> List[Tuple[bool, Any]]:
        """Run every payload inline, in order (see the base contract)."""
        outcomes: List[Tuple[bool, Any]] = []
        for payload in payloads:
            try:
                outcomes.append((True, fn(payload)))
            # A job's error is its outcome: reported to the caller, which
            # re-runs the job or raises it.
            except Exception as error:  # repro-lint: disable=exception-hygiene
                outcomes.append((False, error))
        return outcomes


class _RemoteTraceback(Exception):
    """A child's formatted traceback, chained as its re-raised error's cause."""


def _portable(error: BaseException) -> Exception:
    """``error`` itself when it survives a pickle round trip, else a stand-in.

    Non-``Exception`` errors (``SystemExit``, ``KeyboardInterrupt`` raised in
    a job) also become a :class:`RuntimeError`, so a job can never stop the
    process that re-raises it.
    """
    if isinstance(error, Exception):
        try:
            pickle.loads(pickle.dumps(error))
            return error
        except (pickle.PickleError, AttributeError, TypeError):
            pass  # unpicklable attributes or a custom __init__ signature
    return RuntimeError(f"{type(error).__name__}: {error}")


def _child_entry(conn: Connection, fn: Callable[[Any], Any],
                 payload: Any) -> None:
    """Child-process entry: run one job and send its outcome to the parent.

    Sends ``("ok", result)``, or ``("error", exception, traceback_text)``
    when ``fn`` raises or its result does not pickle.
    """
    try:
        conn.send(("ok", fn(payload)))
    # Process boundary: every failure (incl. KeyboardInterrupt/SystemExit) is
    # forwarded over the pipe as the job's outcome — nothing is swallowed.
    except BaseException as error:  # repro-lint: disable=exception-hygiene
        conn.send(("error", _portable(error), traceback.format_exc()))
    finally:
        conn.close()


@dataclass
class _Child:
    """One running pool job: its batch index, process, and result pipe."""

    index: int
    process: multiprocessing.Process
    conn: Connection
    started: float

    def outcome(self) -> Tuple[bool, Any]:
        """``(True, result)`` or ``(False, error)`` once the child is done."""
        try:
            reply = self.conn.recv() if self.conn.poll() else None
        except EOFError:
            reply = None
        if reply is None:
            return False, RuntimeError(
                f"job {self.index} died without reporting a result "
                f"(exit code {self.process.exitcode}).")
        if reply[0] == "ok":
            return True, reply[1]
        error = reply[1]
        error.__cause__ = _RemoteTraceback(reply[2])
        return False, error

    def reap(self, kill: bool = False) -> None:
        """Close the pipe and wait for the process (SIGKILL it first if asked)."""
        if kill:
            self.process.kill()
        self.conn.close()
        self.process.join()


class PoolBackend(ExecutionBackend):
    """Out-of-process execution: each job runs in its own killable child.

    Args:
        workers: Concurrency ceiling; a batch runs at most
            ``max(1, min(workers, len(payloads)))`` children at once.

    Every job forks a fresh :class:`multiprocessing.Process` and sends its
    result back over a :func:`multiprocessing.Pipe`, so ``fn``, its
    payloads and its results must pickle.  A job past ``timeout`` is killed
    (SIGKILL) and fails with :class:`JobTimeoutError`; a child that dies
    without answering fails with a :class:`RuntimeError` carrying its exit
    code; a job's own exception is reported with its type (when it
    pickles) and the child's traceback chained as its cause.  A failure is
    one job's outcome, so one hung or killed job never holds a worker or
    breaks the batch.  Nothing outlives a batch: if it is interrupted, its
    running children are killed and reaped first.
    """

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        self.name = "pool"

    def run(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            timeout: Optional[float] = None) -> List[Tuple[bool, Any]]:
        """Run the batch in killable child processes (see the base contract)."""
        items = list(payloads)
        outcomes: List[Tuple[bool, Any]] = [(False, None)] * len(items)
        queued = deque(enumerate(items))
        capacity = max(1, min(self.workers, len(items)))
        running: List[_Child] = []
        try:
            while queued or running:
                while queued and len(running) < capacity:
                    running.append(self._start(fn, *queued.popleft()))
                budget = None
                if timeout is not None:
                    budget = max(0.0, min(child.started for child in running)
                                 + timeout - time.monotonic())
                ready = set(wait([handle for child in running for handle in
                                  (child.conn, child.process.sentinel)],
                                 timeout=budget))
                now = time.monotonic()
                for child in list(running):
                    if child.conn in ready or child.process.sentinel in ready:
                        ok, value = child.outcome()
                    elif timeout is not None and now - child.started >= timeout:
                        ok, value = False, JobTimeoutError(
                            f"job {child.index} exceeded {timeout:.1f}s and "
                            "was killed.")
                    else:
                        continue
                    running.remove(child)
                    child.reap(kill=not ok)
                    outcomes[child.index] = (ok, value)
        finally:
            for child in running:
                child.reap(kill=True)
        return outcomes

    @staticmethod
    def _start(fn: Callable[[Any], Any], index: int, payload: Any) -> _Child:
        """Fork the child that runs one job and return its handle."""
        receiver, sender = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(target=_child_entry,
                                          args=(sender, fn, payload))
        process.start()
        # Only the child holds the sending end, so its death reads as EOF.
        sender.close()
        return _Child(index, process, receiver, time.monotonic())


def create_backend(spec: str, workers: int = 0,
                   store_path: Optional[str] = None,
                   **fleet_options: Any) -> ExecutionBackend:
    """Build the backend a ``--backend`` spec names.

    Args:
        spec: One of :data:`BACKEND_NAMES` (``inline`` / ``pool`` /
            ``fleet``).
        workers: Pool size for the ``pool`` backend (ignored otherwise).
        store_path: Store path the ``fleet`` backend coordinates through
            (required for ``fleet``: its job/lease tables live next to the
            store so every worker sharing the filesystem sees them).
        **fleet_options: Forwarded to
            :class:`~repro.service.fleet.FleetBackend` (``lease_seconds``,
            ``poll_interval``, ``tenant``, ...).

    Returns:
        A ready :class:`ExecutionBackend`.

    Raises:
        ValueError: Unknown spec, or ``fleet`` without a ``store_path``.
    """
    kind = str(spec).lower()
    if kind == "inline":
        return InlineBackend()
    if kind == "pool":
        return PoolBackend(workers=workers)
    if kind == "fleet":
        if not store_path:
            raise ValueError(
                "--backend fleet needs a store path: the fleet queue lives "
                "next to the store so workers can find it.")
        from .fleet import FleetBackend
        return FleetBackend(store_path, **fleet_options)
    raise ValueError(f"Unknown backend '{spec}'. "
                     f"Available: {', '.join(BACKEND_NAMES)}")
