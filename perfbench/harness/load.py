#!/usr/bin/env python3
"""Closed-loop load process for the ``api_warm_mix`` workload.

Usage::

    python3 load.py PLAN.json OUT.json

``PLAN.json`` holds ``port``, ``seconds``, ``poll_interval``,
``scrape_interval`` and one op cycle per client; each op is
``{"kind": "hit"|"miss", "payload": {...}}``.  Every client thread replays
its cycle until ``seconds`` have passed, each op only after the previous one
completed.  A scan op submits, polls the job to ``done``/``failed`` and
fetches the result; its latency runs from submit to result fetched.  A miss
op gets a fresh request seed (``miss_seed_base + 100000 * client + op
index``) so it is never cached.  A scraper thread fetches ``GET /metrics``
every ``scrape_interval`` seconds, as a metrics server would.  ``OUT.json``
receives every op's outcome and the measured window.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from typing import Any, Dict, List, Tuple


def _request(conn: http.client.HTTPConnection, method: str, path: str,
             body: Any = None) -> Tuple[int, bytes]:
    headers = {}
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def _scan(conn: http.client.HTTPConnection, payload: Dict[str, Any],
          poll_interval: float) -> Dict[str, Any]:
    status, body = _request(conn, "POST", "/v1/scans", payload)
    if status != 202:
        return {"ok": False, "error": f"submit {status}: {body[:200]!r}"}
    job_id = json.loads(body)["job_id"]
    polls = 0
    while True:
        status, body = _request(conn, "GET", f"/v1/jobs/{job_id}")
        polls += 1
        state = json.loads(body).get("status") if status == 200 else None
        if state in ("done", "failed") or status != 200:
            break
        time.sleep(poll_interval)
    status, body = _request(conn, "GET", f"/v1/jobs/{job_id}/result")
    payload = json.loads(body) if status == 200 else {}
    if state != "done" or "result" not in payload:
        return {"ok": False, "polls": polls,
                "error": f"job {job_id} {state}: {payload.get('error')}"}
    return {"ok": True, "polls": polls, "result": payload["result"]}


def _client(index: int, plan: Dict[str, Any], deadline: float,
            outcomes: List[Dict[str, Any]]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", int(plan["port"]),
                                      timeout=float(plan["op_timeout"]))
    cycle = plan["cycles"][index]
    op_index = 0
    while time.perf_counter() < deadline:
        op = cycle[op_index % len(cycle)]
        payload = dict(op.get("payload") or {})
        if op["kind"] == "miss":
            payload["seed"] = (int(plan["miss_seed_base"]) + 100000 * index
                               + op_index)
        op_index += 1
        start = time.perf_counter()
        try:
            outcome = _scan(conn, payload, float(plan["poll_interval"]))
        except (OSError, http.client.HTTPException, ValueError) as error:
            outcome = {"ok": False,
                       "error": f"{type(error).__name__}: {error}"}
            conn.close()
            conn = http.client.HTTPConnection(
                "127.0.0.1", int(plan["port"]),
                timeout=float(plan["op_timeout"]))
        end = time.perf_counter()
        outcome.update(kind=op["kind"], client=index, start=start, end=end,
                       latency=end - start, seed=payload.get("seed"))
        outcomes.append(outcome)
    conn.close()


def _scraper(plan: Dict[str, Any], start: float, deadline: float,
             outcomes: List[Dict[str, Any]]) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", int(plan["port"]),
                                      timeout=float(plan["op_timeout"]))
    due = start
    while due < deadline:
        time.sleep(max(0.0, due - time.perf_counter()))
        # Timed from when the scrape was due, so a late scrape counts.
        try:
            status, body = _request(conn, "GET", "/metrics")
            outcome = {"ok": status == 200 and b"repro_" in body,
                       "bytes": len(body)}
        except (OSError, http.client.HTTPException) as error:
            outcome = {"ok": False,
                       "error": f"{type(error).__name__}: {error}"}
            conn.close()
        end = time.perf_counter()
        outcome.update(kind="scrape", client=-1, start=due, end=end,
                       latency=end - due)
        outcomes.append(outcome)
        due += float(plan["scrape_interval"])
    conn.close()


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    outcomes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    deadline = start + float(plan["seconds"])
    threads = [threading.Thread(target=_client, args=(i, plan, deadline,
                                                      outcomes))
               for i in range(len(plan["cycles"]))]
    threads.append(threading.Thread(target=_scraper,
                                    args=(plan, start, deadline, outcomes)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max([o["end"] for o in outcomes], default=time.perf_counter())
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump({"window": end - start, "outcomes": outcomes}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
