"""The two grid workloads: ``mega_cold_grid`` and ``batched_pool_grid``.

A *unit* is one :meth:`ScanScheduler.scan` call over a cold sharded store
(a fresh directory per unit) scanning grid checkpoints with ``usb`` and
``nc``.  Units repeat until the run's seconds are spent.

* ``mega_cold_grid`` — ``inversion_mode="mega"`` on the inline backend;
* ``batched_pool_grid`` — the default ``batched`` engine through
  ``backend="pool"`` with one worker per CPU.  Its verdicts are checked once,
  in set-up, against the same requests run inline.

The grid is trained in three slices of one backdoored and one clean model.
A mega unit scans the whole grid (the engine fuses it into one pool); a pool
unit scans ``ceil(nproc / 2)`` checkpoints, in rotation, so every pool has
at least one job per worker and a run holds several pools.
``scans_per_s`` is scans completed over the time the units took; a run
measures whole rotations through the grid.
"""

from __future__ import annotations

import math
import os
import time
from typing import Any, Dict, List, Tuple

from repro.service import ScanRequest, ScanScheduler, ShardedResultStore
from repro.service import scheduler as scheduler_module

from . import spans
from .context import SETUP_REPEATS, RunContext, timed_setups
from .layers import layer_values
from .report import percentile
from .zoo import train_slice, verdict_correct

__all__ = ["run_grid", "DETECTORS", "GRID_ITERATIONS"]

DETECTORS = ("usb", "nc")
#: Alg. 2 iterations per scan (bench scale; the request default is 40).
GRID_ITERATIONS = 5


def _verdicts(records: List[Any]) -> List[Tuple[str, bool, Tuple[int, ...]]]:
    return [(r.key, bool(r.is_backdoored), tuple(r.flagged_classes))
            for r in records]


def _install_pool_worker_hook(trace_dir: str) -> None:
    """Time the pool's job function and ship worker spans to the parent.

    The replacement keeps the original's module and name, so the pool
    pickles it by reference and forked workers resolve it to this wrapper.
    """
    original = scheduler_module.execute_resolved
    parent = os.getpid()

    def execute_resolved(resolved: Any) -> Any:
        spans.RECORDER.check_fork()
        start = time.perf_counter()
        try:
            return original(resolved)
        finally:
            spans.RECORDER.sample("service.pool.worker_exec_s",
                                  time.perf_counter() - start)
            if os.getpid() != parent:
                spans.flush(trace_dir, "pool")

    execute_resolved.__module__ = original.__module__
    execute_resolved.__qualname__ = original.__qualname__
    spans.install(scheduler_module, "execute_resolved", execute_resolved)


def run_grid(ctx: RunContext, mode: str) -> Dict[str, Any]:
    """Run one grid workload; returns the workload outcome for run.py."""
    backend = "inline" if mode == "mega" else "pool"
    workers = 0 if mode == "mega" else ctx.nproc

    # Set-up trains the grid in slices (one backdoored + one clean model
    # each); setup_s is the median slice.
    slices, setup_s = timed_setups(
        ctx, lambda index: train_slice(ctx.path("zoo"), ctx.seed, index))
    models = [model for grid_slice in slices for model in grid_slice]
    for model in models:
        ctx.log(f"model: {model.describe()}")

    def grid(part: List[Any]) -> List[ScanRequest]:
        # Detector-major order: the slower USB scans start first, so a
        # pool's workers finish close together.
        return [ScanRequest(m.checkpoint, detector=d, seed=ctx.seed,
                            iterations=GRID_ITERATIONS, inversion_mode=mode)
                for d in DETECTORS for m in part]

    # The mega engine fuses a whole grid into one pool, so its unit is the
    # whole grid.  A pool unit holds at least one job per worker (each
    # checkpoint gives one job per detector), so a run holds several pools
    # and their noisy makespans average out.  Units wrap around the grid.
    if mode == "mega":
        groups = [grid(models)]
    else:
        per_unit = min(len(models), math.ceil(workers / len(DETECTORS)))
        groups = [grid([models[(start + i) % len(models)]
                        for i in range(per_unit)])
                  for start in range(0, len(models), per_unit)]
    units = [0]

    def scan_unit(unit_backend: str, unit_workers: int,
                  requests: List[ScanRequest]) -> Tuple[float, list]:
        units[0] += 1
        store = ShardedResultStore(ctx.path(f"store-{units[0]}"))
        scheduler = ScanScheduler(store=store, workers=unit_workers,
                                  backend=unit_backend)
        start = time.perf_counter()
        records = scheduler.scan(requests)
        elapsed = time.perf_counter() - start
        spans.RECORDER.count("service.pool.retries",
                             float(scheduler.metrics.retries))
        ctx.check(len(records) == len(requests),
                  f"{len(requests)} requests returned {len(records)} records")
        ctx.check(not any(r.cache_hit for r in records),
                  "a cold-store grid served a cache hit")
        return elapsed, records

    #: key -> (key, verdict, flagged) as first seen in this run.
    seen: Dict[str, Tuple[str, bool, Tuple[int, ...]]] = {}
    if mode != "mega":
        # Verdicts through the pool must equal the same requests run inline
        # (checked once, on the first unit).
        _, inline_records = scan_unit("inline", 0, groups[0])
        seen.update((v[0], v) for v in _verdicts(inline_records))
    latest: Dict[str, Any] = {}

    def phase(seconds: float) -> Tuple[List[float], List[float]]:
        durations: List[float] = []
        latencies: List[float] = []
        # Whole rotations only, so every run measures the same checkpoints
        # however fast the host is.
        while sum(durations) < seconds or len(durations) % len(groups):
            requests = groups[len(durations) % len(groups)]
            elapsed, records = scan_unit(backend, workers, requests)
            for verdict in _verdicts(records):
                ctx.check(seen.setdefault(verdict[0], verdict) == verdict,
                          "verdicts differ between runs of one request at "
                          "one seed" if mode == "mega" else
                          "verdicts differ between runs of one request or "
                          "from the inline reference")
            latest.update((r.key, r) for r in records)
            durations.append(elapsed)
            # Every request of a unit is submitted together and gets its
            # record when the scan call returns.
            latencies.extend([elapsed] * len(records))
            ctx.log(f"unit {units[0]}: {len(records)} scans in "
                    f"{elapsed:.3f} s")
        return durations, latencies

    durations, latencies = phase(ctx.seconds)
    scans = len(latencies)
    by_checkpoint = {m.checkpoint: m for m in models}
    scored = []
    for record in latest.values():
        ctx.log(f"verdict: {os.path.basename(record.checkpoint)} "
                f"{record.detector} flagged={list(record.flagged_classes)}")
        correct = verdict_correct(by_checkpoint[record.checkpoint],
                                  list(record.flagged_classes))
        if correct is not None:
            scored.append(correct)
    accuracy = (sum(scored) / len(scored)) if scored else 0.0
    ctx.log(f"verdict_accuracy: {accuracy:.3f} over {len(scored)} scored "
            "scans")
    plain = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "scans_per_s": (scans / sum(durations), scans),
        "verdict_accuracy": (accuracy, len(scored)),
        "failed_share": (0.0, scans),
        "scrape_latency_p50_s": (0.0, 0),
    }
    # Every grid request is a cold miss; grids never scrape.
    for name, p in (("latency_p50_s", 0.5), ("latency_p90_s", 0.9),
                    ("miss_latency_p50_s", 0.5)):
        value = percentile(latencies, p)
        plain[name] = (value if value is not None else 0.0, len(latencies))
    outcome: Dict[str, Any] = {"plain": plain, "attempted": scans,
                               "failed": 0}
    if ctx.trace:
        trace_dir = ctx.path("spans")
        spans.RECORDER.reset()
        spans.install_kernel_hooks()
        spans.install_service_hooks()
        if mode != "mega":
            _install_pool_worker_hook(trace_dir)
            spans.RECORDER.count("service.pool.workers",
                                 float(min(workers, len(groups[0]))))
        try:
            traced_durations, traced_latencies = phase(ctx.seconds)
        finally:
            spans.unhook_all()
        spans.merge_dir(trace_dir)
        traced_rate = len(traced_latencies) / sum(traced_durations)
        outcome["layers"] = layer_values(
            spans.RECORDER, len(traced_latencies),
            {"bench.tracing_overhead_share": (
                1.0 - traced_rate / plain["scans_per_s"][0],
                len(traced_latencies))})
        outcome["attempted"] += len(traced_latencies)
    return outcome
