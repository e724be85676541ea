"""Parallel scan scheduling over a process pool, with a cached fast path.

The :class:`ScanScheduler` takes batches of
:class:`~repro.service.records.ScanRequest` and returns one
:class:`~repro.service.records.ScanRecord` per request, in order:

1. every request is *resolved* in the parent — the checkpoint is read, its
   state dict fingerprinted, and the detector config digested into the cache
   key — so cache hits never reach a worker;
2. duplicate keys inside one batch collapse to a single computation;
3. the remaining misses run through the execution backend — one child
   process per job on the pool (or inline when ``workers <= 1``, the serial
   path the test suite uses) — each job loading the checkpoint from disk
   and running the detector's batched ``detect()`` path;
4. fresh records are appended to the attached result store, making the next
   identical request a hit.

Worker entry points (:func:`execute_scan`, and whatever job function callers
hand to :meth:`ScanScheduler.run_jobs`) are module-level so they pickle under
every multiprocessing start method.

**Layering.**  This module owns *planning*: request resolution, cache keys,
store lookups, and batch bookkeeping.  Where the planned work actually runs
is an :class:`~repro.service.backends.ExecutionBackend` — serial
(``inline``), process pool (``pool``), or the lease-coordinated worker
fleet (``fleet``, :mod:`repro.service.fleet`) — selected per scheduler via
the ``backend`` argument (every CLI entry point exposes it as
``--backend``).  Backends run each job once; the queue, the retry loop
(:func:`~repro.service.planning.run_attempts`) and the metrics live in
:mod:`repro.service.planning`; :class:`JobQueue`, :class:`QueuedJob`,
:class:`JobTimeoutError`, :class:`ServiceMetrics`, and
:data:`LATENCY_WINDOW` are re-exported here for compatibility.

**Metrics.**  Every scheduler carries a :class:`ServiceMetrics` accumulator
(scans served, cache-hit ratio, p50/p95 scan latency, failures, retries)
whose :meth:`ServiceMetrics.snapshot` is what the daemon publishes to its
stats endpoint file and ``python -m repro report`` renders.
"""

from __future__ import annotations

import os
import time
from dataclasses import (dataclass, field as dataclass_field,
                         replace as dataclass_replace)
from datetime import datetime, timezone
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar, Union)

import numpy as np

from ..attacks.base import SCENARIO_ALL_TO_ONE, scan_pairs_for
from ..core.detection import detect_mega_fleet
from ..core.mega import CleanActivationCache
from ..core.trigger_optimizer import TriggerOptimizationConfig
from ..core.uap import TargetedUAPConfig
from ..core.usb import USBConfig, USBDetector
from ..data import DATASET_SPECS, load_dataset, stratified_sample
from ..data.dataset import Dataset
from ..defenses import (
    NeuralCleanseConfig,
    NeuralCleanseDetector,
    TaborConfig,
    TaborDetector,
)
from ..models import build_model
from ..nn.layers import Module
from ..nn.serialization import load_checkpoint, validate_state_dict
from ..obs.metrics import PROFILER
from ..obs.trace import (TRACER, new_trace_id, span as _span,
                         telemetry_enabled, write_spans)
from ..utils.logging import get_logger
from .backends import ExecutionBackend, create_backend
from .fingerprint import digest_config, fingerprint_state_dict, scan_key
from .planning import (CachePlanner, JobQueue, JobTimeoutError, LATENCY_WINDOW,
                       QueuedJob, ServiceMetrics, run_attempts)
from .records import ScanRecord, ScanRequest
from .store import ShardedResultStore

__all__ = ["ResolvedScan", "ScanScheduler", "resolve_request", "execute_scan",
           "execute_resolved", "execute_mega_group", "build_request_detector",
           "JobQueue", "QueuedJob", "JobTimeoutError", "ServiceMetrics",
           "activation_cache_bytes"]

_LOG = get_logger("repro.service.scheduler")

_JobT = TypeVar("_JobT")
_ResultT = TypeVar("_ResultT")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------------- #
# Request resolution (parent side: cheap, cache-key producing)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResolvedScan:
    """A request with metadata applied and its cache key computed."""

    request: ScanRequest
    model: str
    dataset: str
    image_size: int
    fingerprint: str
    config_digest: str
    key: str
    #: Extra ``build_model`` kwargs from the checkpoint metadata (fleet
    #: checkpoints record their ``ExperimentScale.model_kwargs`` here so
    #: non-default architectures rebuild correctly).
    model_kwargs: Dict[str, object] = dataclass_field(default_factory=dict)
    #: Telemetry context stamped by the scheduler before dispatch: a
    #: non-empty ``trace_id`` tells the executing process to record spans
    #: under this trace, parented on the scheduler's root span.  These are
    #: transport fields only — they never enter the cache-key digest.
    trace_id: str = ""
    parent_span_id: str = ""


def _detector_config(request: ScanRequest):
    """The concrete detector config a request resolves to (digest input)."""
    kind = request.detector.lower()
    if kind == "usb":
        return USBConfig(
            uap=TargetedUAPConfig(max_passes=request.uap_passes),
            optimization=TriggerOptimizationConfig(
                iterations=request.iterations, ssim_weight=1.0,
                mask_l1_weight=0.01),
            anomaly_threshold=request.anomaly_threshold)
    if kind == "nc":
        return NeuralCleanseConfig(
            optimization=TriggerOptimizationConfig(
                iterations=request.iterations, ssim_weight=0.0,
                mask_l1_weight=0.01),
            anomaly_threshold=request.anomaly_threshold)
    if kind == "tabor":
        return TaborConfig(
            optimization=TriggerOptimizationConfig(
                iterations=request.iterations, ssim_weight=0.0,
                mask_l1_weight=0.01, mask_tv_weight=0.002,
                outside_pattern_weight=0.002),
            anomaly_threshold=request.anomaly_threshold)
    raise ValueError(f"Unknown detector '{request.detector}'.")


def build_request_detector(request: ScanRequest, clean_data: Dataset,
                           rng: np.random.Generator):
    """Instantiate the detector a request asks for."""
    kind = request.detector.lower()
    config = _detector_config(request)
    if kind == "usb":
        return USBDetector(clean_data, config, rng=rng)
    if kind == "nc":
        return NeuralCleanseDetector(clean_data, config, rng=rng)
    return TaborDetector(clean_data, config, rng=rng)


def resolve_request(request: ScanRequest,
                    checkpoint_cache: Optional[Dict[str, tuple]] = None
                    ) -> ResolvedScan:
    """Fill in metadata defaults and compute the request's cache key.

    ``checkpoint_cache`` (path -> (state, metadata, fingerprint)) lets batch
    callers resolve many requests against the same file with one read and
    one SHA-256 — a grid scans each checkpoint once per detector, and the
    weights do not change between those requests.
    """
    cached = checkpoint_cache.get(request.checkpoint) if checkpoint_cache else None
    if cached is not None:
        state, metadata, fingerprint = cached
    else:
        state, metadata = load_checkpoint(request.checkpoint)
        with _span("scan.fingerprint", checkpoint=request.checkpoint):
            fingerprint = fingerprint_state_dict(state)
        if checkpoint_cache is not None:
            checkpoint_cache[request.checkpoint] = (state, metadata, fingerprint)
    model = request.model or metadata.get("model")
    dataset = request.dataset or metadata.get("dataset")
    if model is None or dataset is None:
        raise ValueError(
            f"{request.checkpoint}: checkpoint metadata does not name a "
            "model/dataset — pass --model and --dataset (or ScanRequest.model/"
            ".dataset) explicitly.")
    if dataset not in DATASET_SPECS:
        raise KeyError(f"Unknown dataset '{dataset}'. "
                       f"Available: {sorted(DATASET_SPECS)}")
    spec = DATASET_SPECS[dataset]
    image_size = int(request.image_size or metadata.get("image_size")
                     or spec.image_size)
    # The digest covers everything besides the weights that can change the
    # verdict: detector config, clean-data provenance, the class subset, and
    # the scenario axis — cached verdicts must never collide across
    # scenarios (an all-to-one scan and a source-conditional pair sweep of
    # the same weights are different results).
    digest_payload = {
        "detector": request.detector.lower(),
        "config": _detector_config(request),
        "dataset": dataset,
        "image_size": image_size,
        "clean_budget": request.clean_budget,
        "samples_per_class": request.samples_per_class,
        "classes": list(request.classes) if request.classes is not None else None,
        "seed": request.seed,
        "scenario": request.scenario,
        "source_classes": (list(request.source_classes)
                           if request.source_classes is not None else None),
    }
    # The default engine predates the knob; only deviations enter the digest
    # so verdicts cached before ``inversion_mode`` existed stay addressable.
    if request.inversion_mode != "batched":
        digest_payload["inversion_mode"] = request.inversion_mode
    digest = digest_config(digest_payload)
    return ResolvedScan(
        request=request, model=model, dataset=dataset, image_size=image_size,
        fingerprint=fingerprint, config_digest=digest,
        key=scan_key(fingerprint, request.detector, digest),
        model_kwargs=dict(metadata.get("model_kwargs") or {}))


# ---------------------------------------------------------------------- #
# Worker entry point
# ---------------------------------------------------------------------- #
def _build_scan_model(resolved: ResolvedScan, state) -> Module:
    spec = DATASET_SPECS[resolved.dataset]
    model = build_model(resolved.model, num_classes=spec.num_classes,
                        in_channels=spec.channels,
                        image_size=resolved.image_size,
                        rng=np.random.default_rng(0),
                        **resolved.model_kwargs)
    validate_state_dict(model, state, source=resolved.request.checkpoint)
    model.load_state_dict(state)
    return model


def _clean_sample(resolved: ResolvedScan, rng: np.random.Generator) -> Dataset:
    request = resolved.request
    spec = DATASET_SPECS[resolved.dataset]
    per_class = max(1, -(-request.clean_budget // spec.num_classes))
    _, test_set = load_dataset(
        resolved.dataset, samples_per_class=request.samples_per_class,
        test_per_class=max(per_class, 2), seed=request.seed,
        image_size=resolved.image_size)
    return stratified_sample(test_set, request.clean_budget, rng)


def _clean_key(resolved: ResolvedScan) -> str:
    request = resolved.request
    return (f"{resolved.dataset}:{resolved.image_size}:"
            f"s{request.seed}:b{request.clean_budget}")


def _scan_telemetry(resolved: ResolvedScan, detection,
                    detector) -> Dict[str, Any]:
    """The per-record ``telemetry`` block from the live profiler state."""
    telemetry: Dict[str, Any] = dict(PROFILER.snapshot())
    if resolved.trace_id:
        telemetry["trace_id"] = resolved.trace_id
    telemetry["iterations"] = sum(int(t.iterations)
                                  for t in detection.triggers)
    pool_stats = getattr(detector, "last_mega_stats", None)
    if pool_stats:
        telemetry["pool"] = dict(pool_stats)
    return telemetry


def execute_resolved(resolved: ResolvedScan) -> ScanRecord:
    """Run one already-resolved scan: the worker-side half of a request.

    Runs inside pool workers (and inline for the serial fallback); must stay
    module-level and depend only on the picklable ``resolved`` payload.  The
    checkpoint is loaded exactly once here — the fingerprint and cache key
    were computed during resolution, so no re-hashing happens in the worker.

    Telemetry crosses the process boundary by value: a forked worker first
    resets the tracer/profiler state inherited from the parent
    (:meth:`~repro.obs.trace.Tracer.check_fork`), then *adopts* the trace
    stamped on ``resolved`` — its spans and per-phase profile ride back on
    the returned record (``record.spans`` / ``record.telemetry``) where the
    parent stitches them into the request's tree.  When the tracer is
    already live (the serial in-parent fallback), spans go straight to the
    parent buffer and nothing rides on the record.
    """
    request = resolved.request
    TRACER.check_fork()
    PROFILER.check_fork()
    adopted = bool(resolved.trace_id) and not TRACER.enabled
    if adopted:
        TRACER.enable()
        PROFILER.enable()
    profiling = PROFILER.enabled
    if profiling:
        PROFILER.reset()
    try:
        with TRACER.context(resolved.trace_id, resolved.parent_span_id):
            with _span("worker.scan", detector=request.detector,
                       checkpoint=request.checkpoint):
                rng = np.random.default_rng(request.seed)
                state, _ = load_checkpoint(request.checkpoint)
                model = _build_scan_model(resolved, state)
                clean = _clean_sample(resolved, rng)
                detector = build_request_detector(request, clean, rng)
                if request.inversion_mode == "mega":
                    # Daemon children and pool workers run mega scans in a
                    # fresh process; give them a real activation cache so
                    # their telemetry reports actual hit/miss traffic.
                    detector.activation_cache = CleanActivationCache(
                        max_bytes=activation_cache_bytes())
                    detector.model_key = resolved.fingerprint
                    detector.clean_key = _clean_key(resolved)
                classes = (list(request.classes)
                           if request.classes is not None else None)
                pairs = None
                if request.scenario != SCENARIO_ALL_TO_ONE:
                    candidate_classes = (classes if classes is not None
                                         else list(range(clean.num_classes)))
                    pairs = scan_pairs_for(request.scenario, candidate_classes,
                                           source_classes=request.source_classes)
                start = time.perf_counter()
                detection = detector.detect(model, classes=classes, pairs=pairs,
                                            mode=request.inversion_mode)
                detection.seconds_total = time.perf_counter() - start
        telemetry = (_scan_telemetry(resolved, detection, detector)
                     if profiling else {})
        record = ScanRecord.from_detection(
            key=resolved.key, fingerprint=resolved.fingerprint,
            config_digest=resolved.config_digest, checkpoint=request.checkpoint,
            model=resolved.model, dataset=resolved.dataset, detection=detection,
            created_at=_utc_now(), worker_pid=os.getpid(), telemetry=telemetry)
        if adopted:
            record.spans = TRACER.drain()
        return record
    finally:
        if adopted:
            TRACER.reset()
            PROFILER.disable()
            PROFILER.reset()


def execute_scan(request: ScanRequest) -> ScanRecord:
    """One-shot convenience entry: resolve ``request`` and scan it."""
    return execute_resolved(resolve_request(request))


def activation_cache_bytes() -> int:
    """Clean-activation cache budget: ``REPRO_ACTIVATION_CACHE_MB`` (MB).

    Defaults to 256 MB; see ``docs/ops.md`` for sizing guidance.
    """
    try:
        megabytes = int(os.environ.get("REPRO_ACTIVATION_CACHE_MB", "256"))
    except ValueError:
        megabytes = 256
    return max(1, megabytes) * 1024 * 1024


def _mega_record(resolved: ResolvedScan, detection) -> ScanRecord:
    return ScanRecord.from_detection(
        key=resolved.key, fingerprint=resolved.fingerprint,
        config_digest=resolved.config_digest,
        checkpoint=resolved.request.checkpoint, model=resolved.model,
        dataset=resolved.dataset, detection=detection,
        created_at=_utc_now(), worker_pid=os.getpid())


def execute_mega_group(group: Sequence[ResolvedScan],
                       cache: Optional[CleanActivationCache] = None
                       ) -> List[ScanRecord]:
    """Run a batch of ``inversion_mode="mega"`` scans as one mega-batch.

    Every scan in ``group`` — classic (all-to-one) *and* pair-mode — folds
    its (model × cell) grid into a single
    :func:`~repro.core.detection.detect_mega_fleet` pool: a 5-checkpoint
    grid becomes one cross-model tensor program instead of five sequential
    scans, and pair sweeps from different models interleave their forwards
    in the same pool (each job keeps its own MAD selection group, so
    verdicts match the per-model path exactly).

    Per-request setup replays :func:`execute_resolved` exactly — fresh RNG
    from the request seed, same checkpoint load, same clean sample — so a
    mega record differs from a worker record only by its inversion engine.

    Telemetry follows the same adopt-by-value protocol as
    :func:`execute_resolved`, keyed off the first stamped ``trace_id`` in
    the group.  The fused sweep is one computation shared by every request,
    so its spans and pool stats attach to the *first* fleet request's trace
    and record — per-request records still carry their own iteration counts,
    and summing pool stats across the group would double-count.
    """
    group_list = list(group)
    if not group_list:
        return []
    TRACER.check_fork()
    PROFILER.check_fork()
    lead = next((item for item in group_list if item.trace_id), None)
    adopted = lead is not None and not TRACER.enabled
    if adopted:
        TRACER.enable()
        PROFILER.enable()
    profiling = PROFILER.enabled
    if profiling:
        PROFILER.reset()
    if cache is None:
        cache = CleanActivationCache(max_bytes=activation_cache_bytes())
    cache_before = (cache.hits, cache.misses)
    records: List[Optional[ScanRecord]] = [None] * len(group_list)
    fleet: List[Tuple[int, ResolvedScan]] = []
    fleet_jobs: List[Tuple[Any, Module, Optional[List[int]]]] = []
    try:
        for position, resolved in enumerate(group_list):
            request = resolved.request
            rng = np.random.default_rng(request.seed)
            state, _ = load_checkpoint(request.checkpoint)
            model = _build_scan_model(resolved, state)
            clean = _clean_sample(resolved, rng)
            detector = build_request_detector(request, clean, rng)
            detector.activation_cache = cache
            detector.model_key = resolved.fingerprint
            detector.clean_key = _clean_key(resolved)
            classes = (list(request.classes)
                       if request.classes is not None else None)
            pairs = None
            if request.scenario != SCENARIO_ALL_TO_ONE:
                candidate_classes = (classes if classes is not None
                                     else list(range(clean.num_classes)))
                pairs = scan_pairs_for(request.scenario, candidate_classes,
                                       source_classes=request.source_classes)
            fleet.append((position, resolved))
            fleet_jobs.append((detector, model, classes, pairs))
        if fleet_jobs:
            lead_fleet = fleet[0][1]
            with TRACER.context(lead_fleet.trace_id,
                                lead_fleet.parent_span_id):
                with _span("mega.fleet", models=len(fleet_jobs)):
                    detections = detect_mega_fleet(fleet_jobs, cache=cache)
            for slot, ((position, resolved), detection) in enumerate(
                    zip(fleet, detections)):
                record = _mega_record(resolved, detection)
                if profiling:
                    record.telemetry = _scan_telemetry(resolved, detection,
                                                       fleet_jobs[slot][0])
                    if slot > 0:
                        # Shared-run stats live on the first record only.
                        record.telemetry.pop("pool", None)
                        record.telemetry.pop("phases", None)
                        record.telemetry.pop("counts", None)
                records[position] = record
        kept = [record for record in records if record is not None]
        if profiling and kept:
            cache_delta = {"hits": cache.hits - cache_before[0],
                           "misses": cache.misses - cache_before[1]}
            kept[0].telemetry.setdefault("pool", {})["cache"] = cache_delta
        if adopted and kept:
            kept[0].spans = TRACER.drain()
        return kept
    finally:
        if adopted:
            TRACER.reset()
            PROFILER.disable()
            PROFILER.reset()


# ---------------------------------------------------------------------- #
# Scheduler
# ---------------------------------------------------------------------- #
class ScanScheduler:
    """Runs scan batches over an execution backend with result-store caching.

    Args:
        store: Optional :class:`~repro.service.ShardedResultStore`;
            without one every request is computed fresh.
        workers: Concurrency ceiling for the ``pool`` backend.  With the
            default ``backend=None``, ``workers <= 1`` selects the serial
            ``inline`` backend: jobs run in the parent, in queue order —
            bit-identical to the pool path (children fork with the same
            seeds), just without the process hop.
        job_timeout: Default per-job wall-clock budget (seconds) for
            :meth:`run_jobs` on the pool path; ``None`` disables it.
        job_retries: Default retry budget per job — a failed (or timed-out)
            job runs again up to this many times before the batch fails.
        telemetry: Record trace spans and per-phase profiles for every
            request.  ``None`` (the default) follows ``REPRO_TELEMETRY``
            (on unless set falsy); pass False for library callers that
            must not touch the process-wide tracer.
        span_sink: Optional ``spans.jsonl`` path; finished spans of every
            batch are appended there (see
            :func:`repro.service.store.sidecar_path`).
        backend: Where planned jobs execute — an
            :class:`~repro.service.backends.ExecutionBackend` instance or a
            spec string (``inline`` / ``pool`` / ``fleet``).  ``None`` (the
            default) picks ``pool`` — one killable child process per job,
            at most ``workers`` at a time — when ``workers > 1`` and
            ``inline`` otherwise.  ``fleet`` requires a store (its queue
            lives next to it) and verdicts stay identical across backends —
            only the processes doing the work change.
    """

    def __init__(self, store: Optional[ShardedResultStore] = None,
                 workers: int = 0, job_timeout: Optional[float] = None,
                 job_retries: int = 0, telemetry: Optional[bool] = None,
                 span_sink: Optional[str] = None,
                 backend: Union[ExecutionBackend, str, None] = None) -> None:
        self.store = store
        self.workers = int(workers)
        self.job_timeout = job_timeout
        self.job_retries = int(job_retries)
        self.telemetry = (telemetry_enabled() if telemetry is None
                          else bool(telemetry))
        self.span_sink = span_sink
        self.backend = self._resolve_backend(backend)
        #: Cumulative counters over the scheduler's life (never reset).
        self.metrics = ServiceMetrics()
        #: Lazily-created activation cache shared by every mega batch this
        #: scheduler runs in-parent, so repeated scans of the same weights
        #: hit across batches (and the hit ratio is worth exporting).
        self._activation_cache: Optional[CleanActivationCache] = None

    def _resolve_backend(self, backend: Union[ExecutionBackend, str, None]
                         ) -> ExecutionBackend:
        """Materialize the ``backend`` argument into an instance."""
        if isinstance(backend, ExecutionBackend):
            return backend
        if backend is None:
            backend = "pool" if self.workers > 1 else "inline"
        store_path = getattr(self.store, "path", None)
        return create_backend(backend, workers=self.workers,
                              store_path=store_path)

    @property
    def cache_hits(self) -> int:
        """Requests served from the store so far (see :class:`ServiceMetrics`)."""
        return self.metrics.cache_hits

    @property
    def cache_misses(self) -> int:
        """Requests that required a fresh computation so far."""
        return self.metrics.cache_misses

    def _mega_cache(self) -> CleanActivationCache:
        """The scheduler-lifetime clean-activation cache for mega batches."""
        if self._activation_cache is None:
            self._activation_cache = CleanActivationCache(
                max_bytes=activation_cache_bytes())
        return self._activation_cache

    # ------------------------------------------------------------------ #
    # Generic dispatch through the execution backend
    # ------------------------------------------------------------------ #
    def run_jobs(self, fn: Callable[[_JobT], _ResultT],
                 payloads: Sequence[_JobT],
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> List[_ResultT]:
        """Apply a module-level ``fn`` to every payload, preserving order.

        The backend runs each job once per round (process-based backends
        enforce ``timeout`` seconds of wall clock per job) and
        :func:`~repro.service.planning.run_attempts` re-runs failures within
        the retry budget, counting into :attr:`metrics`.  A job that
        exhausts its retries re-raises its last error
        (:class:`JobTimeoutError` for timeouts and expired fleet leases).

        Args:
            fn: Module-level callable (must pickle for the pool path; must
                have a registered job kind for the fleet path).
            payloads: Job inputs; results come back in the same order.
            timeout: Per-job budget override (default: ``job_timeout``).
                Inline (serial) execution cannot be preempted, so the budget
                only applies on the pool path.
            retries: Retry budget override (default: ``job_retries``).

        Returns:
            ``[fn(p) for p in payloads]``.
        """
        timeout = self.job_timeout if timeout is None else timeout
        retries = self.job_retries if retries is None else retries
        return run_attempts(
            lambda batch: self.backend.run(fn, batch, timeout=timeout),
            payloads, retries, metrics=self.metrics)

    # ------------------------------------------------------------------ #
    # Cached scanning
    # ------------------------------------------------------------------ #
    @staticmethod
    def _served_copy(record: ScanRecord, item: ResolvedScan) -> ScanRecord:
        """A cache-hit copy of ``record``, relabelled for the current request.

        The verdict is addressed by weights, not by file, so a hit may have
        been computed from a different checkpoint path with identical
        weights — the copy reports the path/model/dataset the caller asked
        about.
        """
        copy = ScanRecord.from_dict(record.to_dict())
        copy.cache_hit = True
        copy.checkpoint = item.request.checkpoint
        copy.model = item.model
        copy.dataset = item.dataset
        return copy

    def scan(self, requests: Sequence[ScanRequest]) -> List[ScanRecord]:
        """Scan a batch, serving store hits and computing the rest in parallel.

        Args:
            requests: Scan jobs; the returned records line up with them.

        Returns:
            One :class:`~repro.service.records.ScanRecord` per request, in
            order — cache hits flagged via ``cache_hit``, fresh records
            appended to the attached store.
        """
        tracing = False
        if self.telemetry:
            TRACER.check_fork()
            PROFILER.check_fork()
            TRACER.enable()
            PROFILER.enable()
            tracing = True

        # Each request gets its own trace rooted at a ``scan.request`` span;
        # resolution (and its fingerprint span) runs inside that context so
        # parent-side work parents correctly before dispatch.  When a caller
        # already holds a trace context (the HTTP API roots one span per
        # request, the triage router runs stages under it), the roots join
        # that trace instead of opening fresh ones — the whole escalation
        # plan renders as one stitched tree.
        ambient_trace, ambient_parent = TRACER.current() if tracing else ("", "")
        checkpoint_cache: Dict[str, tuple] = {}
        resolved: List[ResolvedScan] = []
        roots = []
        for request in requests:
            root = (TRACER.begin("scan.request",
                                 trace_id=ambient_trace or new_trace_id(),
                                 parent_id=ambient_parent,
                                 detector=request.detector,
                                 checkpoint=request.checkpoint)
                    if tracing else None)
            with TRACER.context_of(root):
                item = resolve_request(request,
                                       checkpoint_cache=checkpoint_cache)
            if root is not None:
                item = dataclass_replace(item, trace_id=root.trace_id,
                                         parent_span_id=root.span_id)
            roots.append(root)
            resolved.append(item)
        del checkpoint_cache  # free the cached state dicts before dispatch

        planner = CachePlanner(self.store, self.metrics)
        results, pending = planner.plan(resolved, roots, self._served_copy,
                                        span_name="scan.cache_lookup")

        if pending:
            _LOG.info("Scanning %d/%d request(s) (%d served from cache) "
                      "via the %s backend.", len(pending), len(resolved),
                      sum(r is not None for r in results), self.backend.name)
            # Mega-mode requests batch across models/checkpoints, so they run
            # as one in-parent pool instead of fanning out to workers.
            mega = [(index, item) for index, item in pending
                    if item.request.inversion_mode == "mega"]
            rest = [(index, item) for index, item in pending
                    if item.request.inversion_mode != "mega"]
            computed: List[Tuple[int, ScanRecord]] = []
            if mega:
                _LOG.info("Pooling %d mega-mode scan(s) into one mega-batch.",
                          len(mega))
                cache = self._mega_cache()
                before = (cache.hits, cache.misses)
                mega_records = execute_mega_group([item for _, item in mega],
                                                  cache=cache)
                self.metrics.record_activation_cache(
                    cache.hits - before[0], cache.misses - before[1])
                computed.extend(zip((index for index, _ in mega),
                                    mega_records))
            if rest:
                fresh = self.run_jobs(execute_resolved,
                                      [item for _, item in rest])
                computed.extend(zip((index for index, _ in rest), fresh))
            for index, record in computed:
                # Stitch worker-recorded spans (pool path) into this
                # process's buffer; serial-path spans are already here.
                worker_spans = record.pop_spans()
                if tracing:
                    TRACER.add(worker_spans)
                results[index] = record
                self.metrics.record_latency(float(record.seconds))
                if self.store is not None:
                    self.store.add(record)

        # Fan computed records out to duplicate requests within the batch.
        by_key = {record.key: record for record in results if record is not None}
        for index, item in enumerate(resolved):
            if results[index] is None:
                results[index] = self._served_copy(by_key[item.key], item)
        if tracing:
            for root in roots:
                TRACER.finish(root)
            spans = TRACER.drain()
            if self.span_sink:
                write_spans(self.span_sink, spans)
        return [record for record in results if record is not None]

    def scan_one(self, request: ScanRequest) -> ScanRecord:
        """Convenience wrapper for single-request callers (the CLI)."""
        return self.scan([request])[0]
