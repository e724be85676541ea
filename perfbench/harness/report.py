"""Statistics, host metadata, memory sampling and the result line.

Percentiles follow one rule everywhere: a percentile is reported only when
at least ten samples lie beyond it (above its interpolation position);
otherwise it is ``None``.  Failed requests count as
attempted and as infinitely slow, so they miss every latency.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import subprocess
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = ["MIN_BEYOND", "percentile", "latency_samples", "load_catalog",
           "host_metadata", "RssSampler", "build_result"]

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """The ``p`` quantile (0 < p < 1) by linear interpolation, or ``None``.

    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond it, or
    when the quantile falls on a failed (infinite) sample.
    """
    values = sorted(float(v) for v in samples)
    n = len(values)
    position = p * (n - 1)
    low = int(math.floor(position))
    if n == 0 or n - 1 - low < MIN_BEYOND:
        return None
    high = min(low + 1, n - 1)
    value = values[low] + (values[high] - values[low]) * (position - low)
    return value if math.isfinite(value) else None


def latency_samples(outcomes: Iterable[Dict[str, Any]]) -> List[float]:
    """Latencies of ``outcomes``; a failed one counts as ``inf`` (a miss)."""
    return [float(o["latency"]) if o.get("ok") else math.inf
            for o in outcomes]


def load_catalog(root: str) -> Dict[str, Dict[str, Any]]:
    """``BENCHMARK.json`` metric entries by name, tagged with their list."""
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    catalog: Dict[str, Dict[str, Any]] = {}
    for group in ("end_to_end", "per_layer"):
        for entry in spec[group]:
            catalog[entry["name"]] = dict(entry, group=group)
    return catalog


def _blas_threads() -> Optional[int]:
    """OpenBLAS's live thread count, read through the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                return int(function())
    return None


def _git_sha(root: str) -> Optional[str]:
    """The checkout's git sha, or ``None`` when it is not a repository."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if sha.returncode != 0:
        return None
    return sha.stdout.strip() or None


def host_metadata(root: str, seed: int, workload: str) -> Dict[str, Any]:
    """Host and run metadata recorded with every result."""
    import numpy as np
    blas = {}
    try:
        blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="utf-8") as handle:
                found.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return found


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", encoding="utf-8") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak resident memory of this process plus all its descendants.

    A daemon thread sums the RSS of the process tree every ``interval``
    seconds and keeps the maximum; pool workers, fleet workers and the load
    process are included while they live.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-rss")

    def _sample(self) -> None:
        total = 0
        pending = [os.getpid()]
        seen = set()
        while pending:
            pid = pending.pop()
            if pid in seen:
                continue
            seen.add(pid)
            total += _rss_bytes(pid)
            pending.extend(_children(pid))
        self.peak = max(self.peak, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> "RssSampler":
        """Start sampling; returns self."""
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self._stop.set()
        self._thread.join()
        self._sample()
        return self.peak / float(1 << 20)


def build_result(catalog: Dict[str, Dict[str, Any]], group: str,
                 values: Dict[str, Any], correct: bool, attempted: int,
                 failed: int) -> Dict[str, Any]:
    """The contract's last output line for one run.

    ``values`` maps metric name to ``(value, samples)``; every metric of
    ``group`` in the catalog must be present, with a finite value.

    Raises:
        KeyError: A catalog metric of ``group`` was not measured.
        ValueError: A value is missing or not finite.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in catalog.items():
        if entry["group"] != group:
            continue
        if name not in values:
            raise KeyError(f"metric {name!r} was not measured")
        value = values[name][0]
        if value is None or not math.isfinite(float(value)):
            raise ValueError(f"metric {name!r} has no finite value "
                             f"({value!r})")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
