"""Scanning-service throughput harness: serial vs scheduled fleet + cache.

Two measurements around the Table 5 fleet (MNIST, clean vs BadNet):

* **fleet dispatch** — the same experiment run serially in-process and
  dispatched through the :class:`~repro.service.ScanScheduler` worker pool,
  asserting the two paths report identical paper-style rows (the service
  layer must never change a verdict);
* **cache throughput** — a ``grid`` batch over the fleet's fingerprinted
  checkpoints, first cold (every scan computed) and then warm (every scan a
  store hit), reporting the cold/warm wall-clock ratio.
"""

import os
import time

from bench_config import BENCH_SEED, bench_scale
from conftest import save_result

from repro.eval import format_scan_records, run_experiment, table5_config
from repro.service import ScanRequest, ScanScheduler, ShardedResultStore

#: Worker-pool width for the dispatch measurement (the box may have fewer
#: cores; ProcessPoolExecutor degrades gracefully).
WORKERS = 2


def _config():
    return table5_config(bench_scale(image_size=24))


def test_fleet_dispatch_parity(benchmark, results_dir, tmp_path):
    config = _config()
    serial = run_experiment(config, seed=BENCH_SEED + 30)

    scheduler = ScanScheduler(
        store=ShardedResultStore(str(tmp_path / "fleet")), workers=WORKERS)

    def _dispatch():
        return run_experiment(config, seed=BENCH_SEED + 30, scheduler=scheduler,
                              checkpoint_dir=str(tmp_path / "ckpts"))

    dispatched = benchmark.pedantic(_dispatch, rounds=1, iterations=1)
    assert dispatched.rows() == serial.rows()
    assert len(scheduler.store) == len(config.cases) * len(config.detectors)


def test_grid_cache_throughput(results_dir, tmp_path):
    config = _config()
    store = ShardedResultStore(str(tmp_path / "scan"))
    checkpoint_dir = str(tmp_path / "ckpts")
    scheduler = ScanScheduler(store=store, workers=WORKERS)
    run_experiment(config, seed=BENCH_SEED + 31, scheduler=scheduler,
                   checkpoint_dir=checkpoint_dir)

    requests = [
        ScanRequest(checkpoint=os.path.join(checkpoint_dir, name),
                    detector=detector, classes=tuple(range(4)),
                    clean_budget=40, samples_per_class=10, iterations=20)
        for name in sorted(os.listdir(checkpoint_dir))
        for detector in ("usb", "nc")
    ]

    grid_store = ShardedResultStore(str(tmp_path / "grid"))
    cold_scheduler = ScanScheduler(store=grid_store, workers=WORKERS)
    start = time.perf_counter()
    cold = cold_scheduler.scan(requests)
    cold_seconds = time.perf_counter() - start

    warm_scheduler = ScanScheduler(store=grid_store, workers=WORKERS)
    start = time.perf_counter()
    warm = warm_scheduler.scan(requests)
    warm_seconds = time.perf_counter() - start

    assert all(not record.cache_hit for record in cold)
    assert all(record.cache_hit for record in warm)
    assert [r.is_backdoored for r in cold] == [r.is_backdoored for r in warm]

    table = format_scan_records(
        cold, title=(f"Service grid — {len(requests)} scans, {WORKERS} workers: "
                     f"cold {cold_seconds:.1f}s, warm (cached) {warm_seconds:.3f}s "
                     f"({cold_seconds / max(warm_seconds, 1e-9):.0f}x)"))
    save_result(results_dir, "service_grid_throughput", table)
