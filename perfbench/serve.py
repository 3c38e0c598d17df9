"""The ``serve`` workload: corpus imports through ``repro serve`` over HTTP.

The benchmark process is the client.  It starts ``python -m repro
serve --port 0 --workers 2`` (or, traced, the same CLI under
``tracer.py``), waits for ``/healthz``, and then two client threads run
a closed loop: POST one corpus case as an ``ImportRequest`` job to
``/v1/jobs``, read ``/v1/jobs/{id}/events`` until the job's ``done``
event, compare the streamed row with the case's ``golden.json``, take
the next case.  Cases come in seeded order, a block of all 9 at a time.

:func:`run` is the plain, timed run.  :func:`run_paired` is the traced
run: one server under ``tracer.py``, each scored block sent untraced
and then again with the server's wrappers switched on (``SIGUSR1``).
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads as wl

CLIENTS = 2
SERVER_WORKERS = 2
_TIMEOUT_S = 120.0
_LISTEN = re.compile(r"listening on http://([^:\s]+):(\d+)")


class Server:
    """One ``repro serve`` subprocess, ready once ``/healthz`` answers.
    With ``spans_out`` it runs under ``tracer.py``, wrappers off until
    :meth:`set_trace` switches them on."""

    def __init__(self, root: Path, env: dict, spans_out=None) -> None:
        cli = ["serve", "--port", "0", "--workers", str(SERVER_WORKERS)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                   str(spans_out), "--", *cli]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE)
        try:
            line = self.proc.stdout.readline()
            match = _LISTEN.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            deadline = started + _TIMEOUT_S
            while self._get("/healthz")[0] != 200:
                if self.proc.poll() is not None:
                    raise RuntimeError("repro serve exited before /healthz "
                                       f"answered ({self.proc.returncode})")
                if time.perf_counter() > deadline:
                    raise RuntimeError("/healthz did not answer within "
                                       f"{_TIMEOUT_S:.0f} s")
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _conn(self):
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=_TIMEOUT_S)

    def _get(self, path: str):
        conn = self._conn()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except OSError:
            return None, b""
        finally:
            conn.close()

    def job_latency(self, jobs: int = 0) -> tuple:
        """``(count, summed seconds)`` of the server's job latency
        histogram from ``GET /v1/metrics``, once it counts at least
        ``jobs`` (a job's ``done`` event goes out just before the
        histogram records it)."""
        deadline = time.perf_counter() + _TIMEOUT_S
        while True:
            status, body = self._get("/v1/metrics")
            if status != 200:
                raise RuntimeError(f"/v1/metrics answered {status}")
            text = body.decode()
            found = [re.search(rf"^repro_jobs_latency_seconds_{key}\s+(\S+)$",
                               text, re.M) for key in ("count", "sum")]
            count, total = (float(m.group(1)) if m else 0.0 for m in found)
            if count >= jobs:
                return count, total
            if time.perf_counter() > deadline:
                raise RuntimeError(f"/v1/metrics counts {count:.0f} of "
                                   f"{jobs} jobs")
            time.sleep(0.002)

    def set_trace(self, on: bool) -> None:
        """Switch the server's wrappers on or off and wait for its
        acknowledgement (only under ``tracer.py``)."""
        self.proc.send_signal(signal.SIGUSR1)
        want = f"TRACE {int(on)}"
        while (line := self.proc.stdout.readline()) and line.strip() != want:
            pass
        if not line:
            raise RuntimeError("repro serve exited while switching tracing")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def run_op(self, body: bytes, tracer) -> tuple:
        """Submit one job and wait for its end;
        ``(status, job id, row, error)``."""
        conn = self._conn()
        t0 = time.perf_counter()
        try:
            conn.request("POST", "/v1/jobs", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            reply = resp.read()
        finally:
            conn.close()
        tracer.add("service.submit_s", time.perf_counter() - t0)
        if resp.status != 202:
            return (resp.status, None, None,
                    reply.decode(errors="replace")[:200])
        job_id = json.loads(reply)["job"]["job_id"]
        conn = self._conn()
        row, state, error = None, None, None
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()
            for line in resp:
                event = json.loads(line)
                if event["event"] == "row":
                    row = event["data"]
                elif event["event"] == "done":
                    state, error = event["state"], event.get("error")
                    break
        finally:
            conn.close()
        if state != "done":
            return 202, job_id, None, f"job {job_id} ended {state}: {error}"
        return 202, job_id, row, None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


class _Dispenser:
    """Hands out ops block by block and stops at a block boundary:
    after blocks ``first`` to ``end - 1``, or, with ``seconds``, once
    those are done, ``seconds`` have passed and ``MIN_OPS`` ops ran."""

    def __init__(self, cases, seed, first, end, seconds=None) -> None:
        self.cases, self.seed, self.seconds = cases, seed, seconds
        self.block, self.end = first - 1, end
        self.lock = threading.Lock()
        self.order, self.k = [], first * len(cases)
        self.first_k = self.k
        self.started = time.perf_counter()

    def next(self):
        with self.lock:
            if not self.order:
                if self.block + 1 >= self.end and (
                        self.seconds is None
                        or (self.k - self.first_k >= wl.MIN_OPS
                            and time.perf_counter() - self.started
                            >= self.seconds)):
                    return None
                self.block += 1
                self.order = wl.serve_block(self.cases, self.seed, self.block)
            k, self.k = self.k, self.k + 1
            return k, self.block, self.order.pop(0)


def _drive(server: Server, bodies: dict, dispenser: _Dispenser,
           tracer) -> tuple:
    """``CLIENTS`` threads run the dispenser's ops in a closed loop;
    ``(records by op id, wall seconds, 429 refusals)``."""
    records: dict = {}
    rejected = [0]
    finished = []

    def client() -> None:
        try:
            while (item := dispenser.next()) is not None:
                one_op(*item)
        finally:
            finished.append(time.perf_counter())

    def one_op(k, block, case) -> None:
        name, _req, golden = case
        t0 = time.perf_counter()
        try:
            with tracer.span("service.op", op=k):
                status, job_id, row, error = server.run_op(bodies[name],
                                                           tracer)
        except (OSError, http.client.HTTPException, ValueError,
                KeyError) as exc:
            status, job_id, row, error = None, None, None, repr(exc)
        latency = time.perf_counter() - t0
        if status == 429:
            rejected[0] += 1
        problems = ([error] if error is not None
                    else wl.check_serve(row, golden))
        records[k] = (latency, block, row, problems, job_id)

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, max(finished) - dispenser.started, rejected[0]


def _bodies(cases) -> dict:
    return {name: json.dumps({"request": req.to_dict()}).encode()
            for name, req, _golden in cases}


def _summary(records: dict) -> dict:
    ops = [records[k] for k in sorted(records)]
    problems = [p for r in ops for p in r[3]]
    return {
        "latencies": [r[0] for r in ops],
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r[3]),
        "problems": problems[:5],
        "digests": [wl.row_digest(r[2]) if r[2] is not None else None
                    for r in ops],
        "qor": wl.qor("serve", [r[2] for r in ops if r[2] is not None
                                and r[1] < wl.SCORED_BLOCKS["serve"]]),
    }


def run(root: Path, env: dict, seed: int, seconds: float,
        setup_samples: int) -> dict:
    """One plain serve run; the dict mirrors what ``worker.py``
    prints."""
    cases = wl.corpus_cases(root)
    bodies = _bodies(cases)

    def setup_only(n: int) -> list:
        samples = []
        for _ in range(n):
            extra = Server(root, env)
            samples.append(extra.setup_s)
            extra.stop()
        return samples

    setups = setup_only((setup_samples - 1) // 2)
    server = Server(root, env)
    setups.append(server.setup_s)
    try:
        dispenser = _Dispenser(cases, seed, 0, wl.SCORED_BLOCKS["serve"],
                               seconds)
        records, wall, rejected = _drive(server, bodies, dispenser,
                                         tracing.NullTracer())
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += setup_only(setup_samples - len(setups))
    return dict(_summary(records), workload="serve", seed=seed,
                blocks=dispenser.block + 1, setup_samples=setups,
                wall_s=wall, peak_rss_mb=rss, rejected=rejected)


def run_paired(root: Path, env: dict, seed: int, out_dir: Path) -> dict:
    """The traced serve run: each scored block untraced, then traced,
    on one server.  Server spans come back as ``doc["server_trace"]``;
    ``server_job_s`` is the traced jobs' time on the server."""
    cases = wl.corpus_cases(root)
    bodies = _bodies(cases)
    spans_out = Path(out_dir) / f"server-spans-{seed}.json"
    server = Server(root, env, spans_out)
    tracer = tracing.Tracer()
    plain, traced = {}, {}
    wall, job_s, rejected = 0.0, 0.0, 0
    try:
        # one unrecorded block first: the server's substrate cache is
        # then as warm for the first untraced pass as for the traced one
        warm, _, _ = _drive(server, bodies, _Dispenser(cases, seed, 0, 1),
                            tracing.NullTracer())
        jobs, _ = server.job_latency(len(warm))
        for block in range(wl.SCORED_BLOCKS["serve"]):
            records, _, refused = _drive(
                server, bodies, _Dispenser(cases, seed, block, block + 1),
                tracing.NullTracer())
            plain.update(records)
            jobs, before = server.job_latency(jobs + len(records))
            server.set_trace(True)
            records, block_wall, refused2 = _drive(
                server, bodies, _Dispenser(cases, seed, block, block + 1),
                tracer)
            traced.update(records)
            jobs, after = server.job_latency(jobs + len(records))
            server.set_trace(False)
            wall += block_wall
            job_s += after - before
            rejected += refused + refused2
    finally:
        server.stop()
    doc = _summary(traced)
    untraced = _summary(plain)
    doc.update(
        workload="serve", seed=seed, blocks=wl.SCORED_BLOCKS["serve"],
        wall_s=wall, client_wall_s=wall * CLIENTS,
        attempted=doc["attempted"] + untraced["attempted"],
        failed=doc["failed"] + untraced["failed"],
        problems=untraced["problems"] + doc["problems"],
        untraced={"latencies": untraced["latencies"],
                  "digests": untraced["digests"]},
        server_job_s=job_s, rejected=rejected,
        job_ops={r[4]: k for k, r in traced.items() if r[4] is not None},
        trace=dict(tracer.snapshot(), origin=tracing.clock_origin()),
        server_trace=json.loads(spans_out.read_text()),
    )
    spans_out.unlink()
    return doc
