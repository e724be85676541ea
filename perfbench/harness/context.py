"""What one benchmark run knows: paths, seed, run length, trace flag."""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["RunContext", "CheckFailed", "SETUP_REPEATS", "timed_setups"]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class CheckFailed(AssertionError):
    """An output check failed: the run exits 1 without a result line."""


@dataclass
class RunContext:
    """One run's parameters and scratch space (inside the checkout)."""

    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)

    def path(self, *parts: str) -> str:
        """A path under the run's work directory."""
        return os.path.join(self.work, *parts)

    def log(self, message: str) -> None:
        """One report line (stdout; the result is always the last line)."""
        print(message, flush=True)

    def check(self, condition: bool, message: str) -> None:
        """Fail the run's output checks unless ``condition`` holds."""
        if not condition:
            print(f"CHECK FAILED: {message}", file=sys.stderr, flush=True)
            raise CheckFailed(message)


def timed_setups(ctx: RunContext, setup: Callable[[int], Any],
                 teardown: Optional[Callable[[Any], None]] = None
                 ) -> Tuple[List[Any], float]:
    """Run ``setup(i)`` :data:`SETUP_REPEATS` times and time each.

    Returns ``(environments, median seconds)``.  With ``teardown``, every
    environment but the last is torn down as soon as the next one is timed
    (repeats of one set-up); without it all are kept (set-up in slices).
    """
    seconds: List[float] = []
    envs: List[Any] = []
    for index in range(SETUP_REPEATS):
        if teardown is not None and envs:
            teardown(envs[-1])
        start = time.perf_counter()
        envs.append(setup(index))
        seconds.append(time.perf_counter() - start)
    ctx.log(f"setup: {SETUP_REPEATS} set-ups, "
            + ", ".join(f"{s:.2f}" for s in seconds) + " s")
    return envs, statistics.median(seconds)
