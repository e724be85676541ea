"""Wrapper spans around the program's public layer boundaries.

A traced run replaces functions and methods with timing wrappers *from the
outside*: no program file changes.  Each wrapper records a span; a span's
*self* time is its duration minus the time its child spans cover, so nested
layers (``conv2d`` calling ``im2col``) are never double-counted.

Wrappers must hook the attribute each caller actually looks up: a class
method, or every module global bound to the function (call sites import
names at load time, so patching only the defining module misses them).

Child processes (forked pool workers, fleet workers started through
:mod:`harness.fleet_worker`) record into their own :data:`RECORDER` and
:func:`flush` it into a directory the parent merges with :func:`merge_dir`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Recorder", "RECORDER", "install", "hook_function", "hook_method",
           "install_kernel_hooks", "install_service_hooks", "flush",
           "merge_dir", "unhook_all"]


class Recorder:
    """Thread-safe span totals: self seconds, calls, counters, samples."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def check_fork(self) -> None:
        """In a forked child, drop the state inherited from the parent."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._lock = threading.Lock()
            self._local = threading.local()
            self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self.self_s: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, float] = defaultdict(float)
            self.samples: Dict[str, List[float]] = defaultdict(list)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``; returns its result."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                self.self_s[name] += duration - children
                self.calls[name] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Append one observation to sample list ``name``."""
        with self._lock:
            self.samples[name].append(float(value))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot."""
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                    "counts": dict(self.counts),
                    "samples": {k: list(v) for k, v in self.samples.items()}}

    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict` snapshot (from a child) into this one."""
        with self._lock:
            for key, value in payload.get("self_s", {}).items():
                self.self_s[key] += value
            for key, value in payload.get("calls", {}).items():
                self.calls[key] += value
            for key, value in payload.get("counts", {}).items():
                self.counts[key] += value
            for key, values in payload.get("samples", {}).items():
                self.samples[key].extend(values)


RECORDER = Recorder()

#: (owner, attribute, original) for every installed hook, so a run can
#: restore the untraced program.
_INSTALLED: List[tuple] = []


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro"
                                       or name.startswith("repro."))]


def install(owner: Any, attribute: str, replacement: Any) -> None:
    """Set ``owner.attribute`` (a module or class) until :func:`unhook_all`."""
    _INSTALLED.append((owner, attribute, vars(owner)[attribute]))
    setattr(owner, attribute, replacement)


def _timed(original: Callable[..., Any], span_name: str,
           after: Optional[Callable[..., None]]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = RECORDER.timed(span_name, original, *args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def hook_function(module_name: str, attribute: str, span_name: str,
                  after: Optional[Callable[..., None]] = None) -> None:
    """Wrap a module-level function wherever a ``repro`` module binds it.

    ``after(result, *args, **kwargs)`` runs after each call (counters that
    need the arguments or the result, e.g. bytes computed from shapes).
    """
    original = getattr(sys.modules[module_name], attribute)
    wrapper = _timed(original, span_name, after)
    for owner in _repro_modules():
        if getattr(owner, attribute, None) is original:
            install(owner, attribute, wrapper)


def hook_method(cls: type, attribute: str, span_name: str,
                after: Optional[Callable[..., None]] = None) -> None:
    """Wrap ``cls.attribute`` (callers look methods up on the class)."""
    install(cls, attribute, _timed(vars(cls)[attribute], span_name, after))


def unhook_all() -> None:
    """Restore every hooked attribute (newest first)."""
    while _INSTALLED:
        owner, attribute, original = _INSTALLED.pop()
        setattr(owner, attribute, original)


def install_kernel_hooks() -> None:
    """Hooks for the compute layers: nn kernels, ssim, UAP, engines, data."""
    import numpy as np
    from repro.core import mega, trigger_optimizer
    from repro.core.detection import TriggerReverseEngineeringDetector
    from repro.nn.tensor import Tensor
    import repro.core.uap  # noqa: F401  (bind the module for hook_function)
    import repro.nn.functional  # noqa: F401
    import repro.nn.serialization  # noqa: F401
    import repro.service.scheduler  # noqa: F401
    import repro.utils.ssim  # noqa: F401

    def col2im_bytes(result: Any, cols: Any, *args: Any,
                     **kwargs: Any) -> None:
        # Bytes the scatter reads (the column matrix) and writes (the image).
        RECORDER.count("nn.col2im.bytes", float(np.asarray(cols).nbytes
                                                + np.asarray(result).nbytes))

    hook_function("repro.nn.functional", "conv2d", "nn.conv2d.fwd_s")
    hook_function("repro.nn.functional", "im2col", "nn.im2col.s")
    hook_function("repro.nn.functional", "col2im", "nn.col2im.s",
                  after=col2im_bytes)
    hook_method(Tensor, "backward", "nn.backward.s")
    hook_function("repro.nn.serialization", "load_checkpoint",
                  "nn.load_checkpoint.s")
    for name in ("ssim", "ssim_tensor", "ssim_x_stats"):
        hook_function("repro.utils.ssim", name, "utils.ssim.s")
    for name in ("generate_targeted_uaps", "generate_targeted_uap"):
        hook_function("repro.core.uap", name, "core.uap_sweep.s")

    def mega_stats(result: Any, *args: Any, **kwargs: Any) -> None:
        stats = kwargs.get("stats") or {}
        for key in ("fused_steps", "iterations", "items", "finalists"):
            RECORDER.count(f"core.mega.{key}", float(stats.get(key, 0)))

    hook_function("repro.core.mega", "run_mega_inversion", "core.mega.run_s",
                  after=mega_stats)
    # The pool's run() is called once for the coarse sweep and, when any
    # cell earns the full budget, once more for the finalists.
    original_run = vars(mega.MegaInversionPool)["run"]

    @functools.wraps(original_run)
    def pool_run(self: Any) -> None:
        phase = getattr(self, "_perfbench_runs", 0)
        self._perfbench_runs = phase + 1
        name = ("core.mega.coarse_sweep_s" if phase == 0
                else "core.mega.finalist_resume_s")
        RECORDER.timed(name, original_run, self)

    install(mega.MegaInversionPool, "run", pool_run)

    def batched_iterations(result: Any, *args: Any, **kwargs: Any) -> None:
        RECORDER.count("core.batched.iterations",
                       float(sum(int(r.iterations) for r in result)))

    hook_method(trigger_optimizer.BatchedTriggerMaskOptimizer, "optimize",
                "core.batched.s", after=batched_iterations)
    hook_method(TriggerReverseEngineeringDetector, "detect", "core.detect.s")
    hook_function("repro.core.detection", "detect_mega_fleet",
                  "core.detect.s")
    hook_function("repro.service.scheduler", "_clean_sample",
                  "data.clean_sample.s")


def install_service_hooks() -> None:
    """Hooks for the service layers run in the benchmark's own process."""
    import numpy as np
    from repro.service import planning, store
    from repro.service.backends import PoolBackend
    import repro.service.fingerprint  # noqa: F401

    def fingerprint_bytes(result: Any, state: Any, *args: Any,
                          **kwargs: Any) -> None:
        RECORDER.count("service.fingerprint.bytes", float(
            sum(np.asarray(v).nbytes for v in state.values())))

    hook_function("repro.service.scheduler", "resolve_request",
                  "service.resolve.s")
    hook_function("repro.service.fingerprint", "fingerprint_state_dict",
                  "service.fingerprint.s", after=fingerprint_bytes)
    hook_method(planning.CachePlanner, "plan", "service.plan.s")

    def lookup_outcome(result: Any, *args: Any, **kwargs: Any) -> None:
        RECORDER.count("service.lookups")
        if result is not None:
            RECORDER.count("service.lookup_hits")

    hook_method(planning.CachePlanner, "_lookup", "service.plan.s",
                after=lookup_outcome)
    hook_method(store.ShardedResultStore, "lookup", "service.store.lookup.s")
    hook_method(store.ShardedResultStore, "add", "service.store.add.s",
                after=lambda *_, **__: RECORDER.count(
                    "service.store.add.calls"))
    hook_method(store.ShardedResultStore, "refresh", "service.store.refresh.s")
    hook_method(PoolBackend, "run", "service.pool.run_s")


def flush(directory: str, tag: str) -> None:
    """Write this process's recorder to ``directory`` and reset it."""
    payload = RECORDER.to_dict()
    RECORDER.reset()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{tag}-{os.getpid()}-"
                                   f"{time.monotonic_ns()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def merge_dir(directory: str) -> int:
    """Fold every child snapshot in ``directory`` into :data:`RECORDER`."""
    if not os.path.isdir(directory):
        return 0
    merged = 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            RECORDER.merge(json.load(handle))
        merged += 1
    return merged
