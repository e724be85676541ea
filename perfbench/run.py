#!/usr/bin/env python3
"""Run one benchmark workload at a seed and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mega_cold_grid --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
the program untouched.  ``--trace 1`` first repeats that untraced phase,
then wraps the program's layer boundaries and measures again; it prints the
per-layer metrics and the tracing overhead.  Report lines (host metadata,
ground truth, sample counts) come first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Output checks
that fail make the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("mega_cold_grid", "batched_pool_grid", "api_warm_mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _shrink() -> None:
    """Tiny sizes for the harness self-test (``PERFBENCH_TINY=1``)."""
    from harness import api_mix, grids, zoo
    zoo.EPOCHS = 1
    grids.GRID_ITERATIONS = 2
    api_mix.PREFILL_RECORDS = 200


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    # Everything the run and its children write stays inside the checkout.
    os.environ["TMPDIR"] = work

    if os.environ.get("PERFBENCH_TINY"):
        _shrink()
    from harness.context import CheckFailed, RunContext
    from harness.report import (RssSampler, build_result, host_metadata,
                                load_catalog)

    catalog = load_catalog(ROOT)
    ctx = RunContext(root=ROOT, work=work, seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace))
    ctx.log("host: " + json.dumps(host_metadata(ROOT, args.seed,
                                                args.workload),
                                  sort_keys=True))
    sampler = RssSampler().start()
    try:
        if args.workload == "api_warm_mix":
            from harness.api_mix import run_api_mix
            outcome = run_api_mix(ctx)
        else:
            from harness.grids import run_grid
            outcome = run_grid(ctx, "mega" if args.workload ==
                               "mega_cold_grid" else "batched")
    except CheckFailed:
        return 1
    except Exception:  # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
        return 1
    finally:
        peak_mb = sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
    values = dict(outcome["plain"])
    values["peak_rss_mb"] = (peak_mb, 1)
    for name, (value, samples) in sorted(values.items()):
        unit = catalog.get(name, {}).get("unit", "")
        ctx.log(f"metric: {name} = {value:.6g} {unit} (samples={samples})")
    group = "end_to_end"
    if args.trace:
        values.update(outcome["layers"])
        group = "per_layer"
        for name, (value, samples) in sorted(outcome["layers"].items()):
            unit = catalog.get(name, {}).get("unit", "")
            ctx.log(f"layer: {name} = {value:.6g} {unit} (samples={samples})")
    result = build_result(catalog, group, values, correct=True,
                          attempted=outcome["attempted"],
                          failed=outcome["failed"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
