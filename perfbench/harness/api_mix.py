"""The ``api_warm_mix`` workload: the HTTP front door over a worker fleet.

Set-up trains the first grid slice, prefills a sharded store with
:data:`PREFILL_RECORDS` realistic records, starts one fleet worker per CPU
and an in-process ``ApiServer(backend="fleet")``, and scans the hit set cold
through the API.  One load process (:mod:`harness.load`) then runs two
closed-loop clients over a fixed mix per :data:`CYCLE`: store hits on the
grid checkpoints and tiny fresh scans with new seeds (the fleet executes
them and the store appends them).  A scraper thread in the load process
fetches ``GET /metrics`` every :data:`SCRAPE_INTERVAL` seconds.  A scrape
replays the whole store and holds the interpreter lock for seconds, so a
fixed cadence keeps the number of scrapes per run, and with it the load
they add, the same from run to run.

The traffic shape is an assumption, not a measurement: no traffic record
of the service exists.  The 14:6 hit:miss cycle makes most requests reads
while keeping appends a steady share; the scrape interval is the 15 s of
Prometheus's example configuration.  Every run logs the share of the
window each kind of request took (``load share:``), so a change can be
read against what this workload weights.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.service import (ApiServer, ScanRequest, ScanScheduler,
                           ShardedResultStore, api as api_module)
from repro.service.fingerprint import scan_key
from repro.service.fleet import fleet_dir, fleet_snapshot
from repro.service.records import ScanRecord
from repro.service.scheduler import execute_scan

from . import spans
from .context import RunContext, timed_setups
from .grids import DETECTORS
from .layers import layer_values
from .report import latency_samples, percentile
from .zoo import GridModel, train_slice, zoo_signature

__all__ = ["run_api_mix", "PREFILL_RECORDS", "CYCLE", "TINY"]

PREFILL_RECORDS = 10000
CLIENTS = 2
#: Ops per client cycle, by kind (shuffled per client from the seed).
CYCLE = {"hit": 14, "miss": 6}
#: Seconds between ``GET /metrics`` scrapes (Prometheus's example config).
SCRAPE_INTERVAL = 15.0
#: The tiny scan every hit and miss request uses.
TINY = {"iterations": 3, "clean_budget": 20, "samples_per_class": 4,
        "classes": [0, 1, 2]}
POLL_INTERVAL = 0.01
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class ApiEnv:
    """A live server, its fleet workers, and the cold hit records."""

    models: List[GridModel]
    store_path: str
    server: ApiServer
    workers: List[subprocess.Popen]
    cold: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    hit_payloads: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def signature(self) -> Tuple[Dict[str, str], Dict[str, Any]]:
        return (zoo_signature(self.models),
                {key: (rec["is_backdoored"], rec["flagged_classes"])
                 for key, rec in sorted(self.cold.items())})


def _start_workers(ctx: RunContext, store_path: str,
                   trace_dir: Optional[str]) -> List[subprocess.Popen]:
    command = [sys.executable, os.path.join(HERE, "fleet_worker.py"),
               store_path]
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    workers = []
    label = os.path.basename(store_path) + ("-traced" if trace_dir
                                            else "-plain")
    for index in range(ctx.nproc):
        log = open(ctx.path(f"worker-{label}-{index}.log"), "w",
                   encoding="utf-8")
        workers.append(subprocess.Popen(command, stdout=log, stderr=log,
                                        cwd=ctx.root))
        log.close()
    return workers


def _await_workers(store_path: str, count: int, timeout: float = 60.0) -> None:
    """Block until ``count`` fleet workers have announced themselves."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = fleet_snapshot(store_path)
        if snapshot is not None and snapshot["workers_live"] >= count:
            return
        time.sleep(POLL_INTERVAL)
    raise RuntimeError(f"{count} fleet workers did not start in {timeout} s")


def _stop_workers(workers: List[subprocess.Popen]) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    for worker in workers:
        try:
            worker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()


def _prefill(store_path: str, template: ScanRecord, count: int,
             seed: int) -> None:
    """Append ``count`` records shaped like ``template`` under fresh keys."""
    rng = np.random.default_rng(seed)
    store = ShardedResultStore(store_path)
    base = template.to_dict()
    for _ in range(count):
        fingerprint = rng.bytes(32).hex()
        payload = dict(base, fingerprint=fingerprint,
                       key=scan_key(fingerprint, base["detector"],
                                    base["config_digest"]))
        store.add(ScanRecord.from_dict(payload))


def _scan_via_api(server: ApiServer, payload: Dict[str, Any]
                  ) -> Dict[str, Any]:
    """Submit one scan in-process and wait for its result payload."""
    request = ScanRequest.from_dict(payload)
    job = server.submit("scan", request)
    while True:
        current = server.job(job.job_id)
        if current.status in ("done", "failed"):
            break
        time.sleep(POLL_INTERVAL)
    if current.status != "done":
        raise RuntimeError(f"cold scan failed: {current.error}")
    return dict(current.result)


def _comparable(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in record.items() if k not in ("cache_hit", "spans")}


def _cycles(seed: int, hit_payloads: List[Dict[str, Any]],
            miss_payloads: List[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
    cycles = []
    for client in range(CLIENTS):
        rng = random.Random(seed * 1000 + client)
        kinds = [kind for kind, n in CYCLE.items() for _ in range(n)]
        rng.shuffle(kinds)
        ops = []
        for position, kind in enumerate(kinds):
            if kind == "hit":
                payload = hit_payloads[(position + client) % len(hit_payloads)]
            else:
                payload = miss_payloads[(position + client)
                                        % len(miss_payloads)]
            ops.append({"kind": kind, "payload": payload})
        cycles.append(ops)
    return cycles


def _install_api_hooks() -> None:
    """Wrappers on the API's submit, dispatch, request-timing and scrape paths.

    Handler times are the durations the server itself feeds into
    ``repro_http_request_latency_seconds`` (:meth:`ApiServer.observe_http`).
    """
    recorder = spans.RECORDER
    submitted: Dict[str, float] = {}
    server_cls = api_module.ApiServer

    original_submit = server_cls.__dict__["submit"]

    @functools.wraps(original_submit)
    def submit(self: Any, *args: Any, **kwargs: Any) -> Any:
        job = original_submit(self, *args, **kwargs)
        submitted[job.job_id] = time.perf_counter()
        recorder.count("service.api.jobs")
        return job

    original_execute = server_cls.__dict__["_execute"]

    @functools.wraps(original_execute)
    def execute(self: Any, job: Any) -> Any:
        if job.job_id in submitted:
            recorder.sample("service.api.queue_wait_s",
                            time.perf_counter() - submitted.pop(job.job_id))
        return original_execute(self, job)

    original_observe = server_cls.__dict__["observe_http"]

    @functools.wraps(original_observe)
    def observe_http(self: Any, method: str, route: str, code: int,
                     seconds: float) -> None:
        recorder.sample("service.api.handler_s", seconds)
        if route == "/v1/jobs/{id}":
            recorder.count("service.api.polls")
        original_observe(self, method, route, code, seconds)

    spans.install(server_cls, "submit", submit)
    spans.install(server_cls, "_execute", execute)
    spans.install(server_cls, "observe_http", observe_http)
    spans.hook_function("repro.service.api", "build_service_registry",
                        "obs.scrape.build_s",
                        after=lambda result, rows, *a, **k: recorder.count(
                            "obs.scrape.rows", float(len(rows))))


def _fleet_tables(store_path: str, since: float,
                  until: float) -> Dict[str, Tuple[float, int]]:
    """Fleet per-layer values from the job and lease tables of a window."""
    directory = fleet_dir(store_path)
    events: List[Dict[str, Any]] = []
    for name in ("jobs.jsonl", "leases.jsonl"):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            events.extend(json.loads(line) for line in handle if line.strip())
    events = [e for e in events if since <= float(e.get("ts", 0.0)) <= until]
    submitted: Dict[str, float] = {}
    leased: Dict[str, float] = {}
    waits: List[float] = []
    runs: List[float] = []
    heartbeats = acquires = requeues = 0
    for event in sorted(events, key=lambda e: e["ts"]):
        kind, job = event.get("event"), event.get("job")
        if kind == "submit":
            submitted[job] = event["ts"]
        elif kind == "acquire":
            acquires += 1
            leased[job] = event["ts"]
            if job in submitted:
                waits.append(event["ts"] - submitted[job])
        elif kind == "done" and job in leased:
            runs.append(event["ts"] - leased[job])
        elif kind == "heartbeat":
            heartbeats += 1
        elif kind == "requeue":
            requeues += 1
    values: Dict[str, Tuple[float, int]] = {}
    for name, observed in (("service.fleet.queue_wait_s_p50", waits),
                           ("service.fleet.exec_s_p50", runs)):
        value = percentile(observed, 0.5)
        values[name] = (value if value is not None else 0.0, len(observed))
    values["service.fleet.requeues"] = (float(requeues), acquires)
    values["service.fleet.idle_poll_share"] = (
        (heartbeats - acquires) / heartbeats if heartbeats else 0.0,
        heartbeats)
    return values


def run_api_mix(ctx: RunContext) -> Dict[str, Any]:
    """Run the API workload; returns the workload outcome for run.py."""

    def setup(index: int) -> ApiEnv:
        store_path = ctx.path(f"store-{index}")
        workers = _start_workers(ctx, store_path, None)
        server = None
        try:
            models = train_slice(ctx.path(f"zoo-{index}"), ctx.seed, 0)
            hit_payloads = [dict(TINY, checkpoint=m.checkpoint, detector=d,
                                 seed=ctx.seed)
                            for m in models for d in DETECTORS]
            template = execute_scan(ScanRequest.from_dict(hit_payloads[0]))
            _prefill(store_path, template, PREFILL_RECORDS, ctx.seed)
            server = ApiServer(store_path, backend="fleet").start()
            env = ApiEnv(models, store_path, server, workers,
                         hit_payloads=hit_payloads)
            for payload in hit_payloads:
                record = _scan_via_api(server, payload)
                env.cold[record["key"]] = _comparable(record)
            return env
        except BaseException:
            if server is not None:
                server.close()
            _stop_workers(workers)
            raise

    def teardown(env: ApiEnv) -> None:
        env.server.close()
        _stop_workers(env.workers)

    envs, setup_s = timed_setups(ctx, setup, teardown)
    env = envs[-1]
    try:
        ctx.check(all(e.signature == env.signature for e in envs),
                  "repeated set-ups at one seed disagree (weights or cold "
                  "verdicts)")
        for model in env.models:
            ctx.log(f"model: {model.describe()}")
        miss_payloads = [dict(TINY, checkpoint=m.checkpoint, detector=d)
                         for m in env.models for d in DETECTORS]
        cycles = _cycles(ctx.seed, env.hit_payloads, miss_payloads)
        phase_index = [0]

        def phase() -> Tuple[Dict[str, Any], float, float]:
            phase_index[0] += 1
            plan_path = ctx.path(f"plan-{phase_index[0]}.json")
            out_path = ctx.path(f"load-{phase_index[0]}.json")
            with open(plan_path, "w", encoding="utf-8") as handle:
                json.dump({"port": env.server.port, "seconds": ctx.seconds,
                           "poll_interval": POLL_INTERVAL, "op_timeout": 120,
                           "scrape_interval": SCRAPE_INTERVAL,
                           "miss_seed_base": 1000000 * (phase_index[0] + 1),
                           "cycles": cycles}, handle)
            since = time.time()
            subprocess.run([sys.executable, os.path.join(HERE, "load.py"),
                            plan_path, out_path], check=True, cwd=ctx.root,
                           timeout=ctx.seconds + 150)
            until = time.time()
            with open(out_path, encoding="utf-8") as handle:
                return json.load(handle), since, until

        load, since, until = phase()
        outcome = _score(ctx, env, load)
        if ctx.trace:
            trace_dir = ctx.path("spans")
            _stop_workers(env.workers)
            env.workers = _start_workers(ctx, env.store_path, trace_dir)
            _await_workers(env.store_path, len(env.workers))
            spans.RECORDER.reset()
            spans.install_kernel_hooks()
            spans.install_service_hooks()
            _install_api_hooks()
            # Fleet timings come from the fleet's own tables, so they are
            # read for the untraced phase.
            extra = _fleet_tables(env.store_path, since, until)
            try:
                traced, _, _ = phase()
            finally:
                spans.unhook_all()
            _stop_workers(env.workers)
            spans.merge_dir(trace_dir)
            traced_outcome = _score(ctx, env, traced)
            plain_rate = outcome["plain"]["scans_per_s"][0]
            traced_rate = traced_outcome["plain"]["scans_per_s"][0]
            extra["bench.tracing_overhead_share"] = (
                1.0 - traced_rate / plain_rate,
                traced_outcome["plain"]["scans_per_s"][1])
            outcome["layers"] = layer_values(
                spans.RECORDER, traced_outcome["plain"]["scans_per_s"][1],
                extra)
            outcome["attempted"] += traced_outcome["attempted"]
        outcome["plain"]["setup_s"] = (setup_s, len(envs))
        return outcome
    finally:
        teardown(env)


def _score(ctx: RunContext, env: ApiEnv, load: Dict[str, Any]
           ) -> Dict[str, Any]:
    """Check one load phase's outputs and compute its end-to-end values."""
    outcomes = load["outcomes"]
    failed = [o for o in outcomes if not o.get("ok")]
    for outcome in failed[:5]:
        ctx.log(f"failed op: {outcome}")
    ctx.check(not failed, f"{len(failed)} of {len(outcomes)} requests failed "
                          "or were lost")
    scans = [o for o in outcomes if o["kind"] != "scrape"]
    misses = [o for o in outcomes if o["kind"] == "miss"]
    scrapes = [o for o in outcomes if o["kind"] == "scrape"]
    for outcome in scans:
        record = outcome["result"]
        if outcome["kind"] == "hit":
            ctx.check(bool(record.get("cache_hit")),
                      f"hit request {record['key']} was not served from "
                      "the store")
            ctx.check(_comparable(record) == env.cold.get(record["key"]),
                      f"cache-hit record {record['key']} differs from its "
                      "cold record")
        else:
            ctx.check(not record.get("cache_hit"),
                      "a fresh-seed scan was served from the store")
    # Fleet verdicts must match the same requests run inline.
    for outcome in misses[:2]:
        payload = dict(TINY, checkpoint=outcome["result"]["checkpoint"],
                       detector=outcome["result"]["detector"].lower(),
                       seed=outcome["seed"])
        inline = ScanScheduler(backend="inline", telemetry=False).scan_one(
            ScanRequest.from_dict(payload))
        ctx.check(
            (inline.key, inline.is_backdoored, list(inline.flagged_classes))
            == (outcome["result"]["key"], outcome["result"]["is_backdoored"],
                list(outcome["result"]["flagged_classes"])),
            "a fleet verdict differs from the same request run inline")
    window = float(load["window"])
    all_latency = latency_samples(scans)
    values: Dict[str, Tuple[float, int]] = {
        "scans_per_s": (len(scans) / window, len(scans)),
        "failed_share": (len(failed) / len(outcomes), len(outcomes)),
        "verdict_accuracy": (0.0, 0),
    }
    for name, samples, p in (
            ("latency_p50_s", all_latency, 0.5),
            ("latency_p90_s", all_latency, 0.9),
            ("miss_latency_p50_s", latency_samples(misses), 0.5),
            ("scrape_latency_p50_s", latency_samples(scrapes), 0.5)):
        value = percentile(samples, p)
        values[name] = (value if value is not None else 0.0, len(samples))
    hits = [o for o in scans if o["kind"] == "hit"]
    means = ", ".join(
        f"{kind} {sum(o['latency'] for o in group) / len(group):.3f} s"
        for kind, group in (("hit", hits), ("miss", misses),
                            ("scrape", scrapes)) if group)
    ctx.log(f"load: {len(scans)} scans ({len(misses)} fresh), "
            f"{len(scrapes)} scrapes in {window:.2f} s; mean latency {means}")
    # Hits and misses share the clients' time; the scraper runs beside them.
    busy = {kind: sum(o["latency"] for o in group)
            for kind, group in (("hit", hits), ("miss", misses),
                                ("scrape", scrapes))}
    ctx.log("load share: " + ", ".join(
        f"{kind} {busy[kind] / (CLIENTS * window):.3f} of client time"
        for kind in ("hit", "miss"))
        + f", scrape {busy['scrape'] / window:.3f} of the window")
    return {"plain": values, "attempted": len(outcomes),
            "failed": len(failed)}
