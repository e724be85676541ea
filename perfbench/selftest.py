#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py          # unit checks, about a second
    python3 perfbench/selftest.py --runs   # plus every workload at tiny sizes

The unit checks cover the reporting rules: a percentile is reported only
when at least ten samples lie beyond it, and failed requests count against
attempts and as missed latency.  ``--runs`` runs each workload with
``PERFBENCH_TINY=1`` for one second, traced and untraced, and checks that
every metric name in ``BENCHMARK.json`` is emitted with its unit.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness.report import (build_result, latency_samples,  # noqa: E402
                            load_catalog, percentile)



def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def unit_checks() -> None:
    # The median needs ten samples above it, p90 needs ten beyond it.
    check(percentile(list(range(19)), 0.5) is None, "p50 of 19 samples")
    check(percentile(list(range(20)), 0.5) == 9.5, "p50 of 20 samples")
    check(percentile(list(range(91)), 0.9) is None, "p90 of 91 samples")
    check(percentile(list(range(92)), 0.9) is not None, "p90 of 92")
    # A failed request is attempted and misses every latency.
    outcomes = ([{"ok": True, "latency": 0.1}] * 10
                + [{"ok": False, "latency": 0.01}] * 11)
    samples = latency_samples(outcomes)
    check(len(samples) == 21, "failed requests must stay in the samples")
    check(sum(math.isinf(s) for s in samples) == 11,
          "failed requests count as infinitely slow")
    check(percentile(samples, 0.5) is None,
          "a median that falls on failed requests is not reported")
    catalog = load_catalog(ROOT)
    for group in ("end_to_end", "per_layer"):
        names = [n for n, e in catalog.items() if e["group"] == group]
        result = build_result(catalog, group, {n: (1.0, 1) for n in names},
                              correct=True, attempted=21, failed=11)
        check(result["attempted"] == 21 and result["failed"] == 11,
              "attempted/failed pass through")
        check(sorted(result["metrics"]) == sorted(names),
              f"{group}: every catalog metric is emitted")
        try:
            build_result(catalog, group, {}, True, 1, 0)
        except KeyError:
            pass
        else:
            raise AssertionError("a missing metric must fail the run")
    print("unit checks OK")


def tiny_runs() -> None:
    catalog = load_catalog(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    env = dict(os.environ, PERFBENCH_TINY="1")
    for workload in workloads:
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            check(done.returncode == 0,
                  f"{workload} trace={trace} exited {done.returncode}:\n"
                  f"{done.stderr[-2000:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], "result keys")
            group = "per_layer" if trace else "end_to_end"
            expected = {n: e["unit"] for n, e in catalog.items()
                        if e["group"] == group}
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            check(emitted == expected,
                  f"{workload} trace={trace}: metrics/units differ from "
                  "BENCHMARK.json")
            print(f"{workload} trace={trace} OK "
                  f"(attempted={result['attempted']})")


def main() -> int:
    unit_checks()
    if "--runs" in sys.argv[1:]:
        tiny_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
