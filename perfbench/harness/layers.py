"""Per-layer metrics from the traced phase of a run.

Times are self seconds per completed scan request (``s/scan``), counts are
per scan request (``1/scan``) unless the catalog unit says otherwise.  A
layer that does no work on a workload reports 0 — the prediction for that
pairing is "no change".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .report import percentile
from .spans import Recorder

__all__ = ["PER_SCAN_TIMES", "layer_values"]

#: Span names reported as self seconds per scan.
PER_SCAN_TIMES = (
    "nn.conv2d.fwd_s", "nn.im2col.s", "nn.col2im.s", "nn.backward.s",
    "nn.load_checkpoint.s", "utils.ssim.s", "core.uap_sweep.s",
    "core.mega.run_s", "core.mega.coarse_sweep_s",
    "core.mega.finalist_resume_s", "core.batched.s", "core.detect.s",
    "data.clean_sample.s", "service.resolve.s", "service.fingerprint.s",
    "service.plan.s", "service.store.lookup.s", "service.store.add.s",
    "service.store.refresh.s", "service.pool.run_s",
)

#: Counters reported per scan.
PER_SCAN_COUNTS = (
    "nn.col2im.bytes", "core.mega.fused_steps", "core.mega.iterations",
    "core.batched.iterations", "service.fingerprint.bytes",
    "service.store.add.calls",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(recorder: Recorder, scans: int,
                 extra: Optional[Dict[str, Tuple[float, int]]] = None
                 ) -> Dict[str, Tuple[float, int]]:
    """Every per-layer value derivable from ``recorder``, as (value, samples).

    Args:
        recorder: The merged traced-phase recorder (parent plus children).
        scans: Scan requests completed during the traced phase.
        extra: Workload-specific values (fleet tables, API samples, ...)
            that override or add to the derived ones.
    """
    data = recorder.to_dict()
    self_s, calls, counts = data["self_s"], data["calls"], data["counts"]
    samples = data["samples"]
    values: Dict[str, Tuple[float, int]] = {}
    for name in PER_SCAN_TIMES:
        values[name] = (_ratio(self_s.get(name, 0.0), scans),
                        int(calls.get(name, 0)))
    for name in PER_SCAN_COUNTS:
        values[name] = (_ratio(counts.get(name, 0.0), scans), scans)
    values["nn.load_checkpoint.calls"] = (
        _ratio(calls.get("nn.load_checkpoint.s", 0), scans), scans)
    values["core.mega.finalist_share"] = (
        _ratio(counts.get("core.mega.finalists", 0.0),
               counts.get("core.mega.items", 0.0)),
        int(counts.get("core.mega.items", 0)))
    values["service.cache_hit_ratio"] = (
        _ratio(counts.get("service.lookup_hits", 0.0),
               counts.get("service.lookups", 0.0)),
        int(counts.get("service.lookups", 0)))
    exec_samples = samples.get("service.pool.worker_exec_s", [])
    workers = max(1.0, counts.get("service.pool.workers", 1.0))
    pool_run = self_s.get("service.pool.run_s", 0.0)
    values["service.pool.dispatch_overhead_s"] = (
        _ratio(pool_run - sum(exec_samples) / workers, scans) if pool_run
        else 0.0, len(exec_samples))
    values["service.pool.retries"] = (counts.get("service.pool.retries", 0.0),
                                      scans)
    for name in ("service.api.handler_s", "service.api.queue_wait_s",
                 "service.fleet.queue_wait_s", "service.fleet.exec_s"):
        observed = samples.get(name, [])
        value = percentile(observed, 0.5)
        values[name + "_p50"] = (value if value is not None else 0.0,
                                 len(observed))
    scrapes = calls.get("obs.scrape.build_s", 0)
    values["obs.scrape.build_s"] = (_ratio(self_s.get("obs.scrape.build_s",
                                                      0.0), scrapes), scrapes)
    values["obs.scrape.rows"] = (_ratio(counts.get("obs.scrape.rows", 0.0),
                                        scrapes), scrapes)
    values["service.api.polls_per_job"] = (
        _ratio(counts.get("service.api.polls", 0.0),
               counts.get("service.api.jobs", 0.0)),
        int(counts.get("service.api.jobs", 0)))
    for name in ("service.fleet.requeues", "service.fleet.idle_poll_share"):
        values.setdefault(name, (0.0, 0))
    values.update(extra or {})
    return values
