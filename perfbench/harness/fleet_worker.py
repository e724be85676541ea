#!/usr/bin/env python3
"""Fleet worker entry for the benchmark.

Usage::

    python3 fleet_worker.py STORE [--trace-dir DIR]

Without ``--trace-dir`` this is exactly ``repro.service.fleet.run_worker``
with its defaults.  With it, the layer wrappers are installed first and the
worker's span totals are written to ``DIR`` after every job, where the
benchmark process merges them.  SIGTERM stops the worker cleanly.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(HERE))


def _stop(signum: int, frame: object) -> None:
    raise SystemExit(0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)

    from repro.service import fleet

    if args.trace_dir:
        from harness import spans
        spans.install_kernel_hooks()
        from repro.service.scheduler import execute_resolved
        kind = fleet.kind_for(execute_resolved)

        def traced_scan(payload: object) -> object:
            try:
                return kind.fn(payload)
            finally:
                spans.flush(args.trace_dir, "fleet")

        fleet.register_kind(dataclasses.replace(kind, fn=traced_scan))
    fleet.run_worker(args.store)
    return 0


if __name__ == "__main__":
    sys.exit(main())
