"""One in-process benchmark worker (the map, sweep and yield workloads).

Spawned by ``run.py``; never run by hand except to debug::

    PYTHONPATH=src python3 perfbench/worker.py --workload map --seed 1 \
        --mode run --seconds 15 --trace 0

The worker imports the program, builds a ``Session``, warms it up and
prints ``READY`` (the parent times set-up from spawn to that line).
``--mode setup`` exits there.  ``--mode run`` then drives the
workload's seeded request blocks through ``Session.run`` /
``Session.stream`` in a closed loop, checks every output, and prints
one JSON document as its last line.

``--trace 0`` runs whole blocks until ``--seconds`` have passed and
``workloads.MIN_OPS`` ops are done.  ``--trace 1`` runs the scored
blocks twice each, back to back: untraced, then with the outside-in
tracer (``tracer.py``) installed.  Each pass starts from a fresh,
warmed ``Session``, so both do the same work; their op
latencies pair up for ``trace.overhead_frac`` and their rows for the
traced-equals-untraced check.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import tracer as tracing
import workloads as wl

_CHECK_LIMIT = 5  # problems reported verbatim; the rest are counted


def _setup(workload: str) -> tuple:
    t0 = time.perf_counter()
    import repro.api as api

    t1 = time.perf_counter()
    session = api.Session()
    t2 = time.perf_counter()
    _warm_up(workload, session, api)
    t3 = time.perf_counter()
    return api, session, {"import_s": t1 - t0, "session_s": t2 - t1,
                          "warmup_s": t3 - t2}


def _warm_up(workload: str, session, api) -> None:
    """Leave the session as a user's would be before the first op."""
    ExecutionConfig = api.ExecutionConfig
    if workload == "map":
        # build every substrate the draw maps onto (one per workload x
        # context count); the first request also imports verification
        for w in api.WORKLOADS:
            for c in wl.MAP_CONTEXTS:
                session.run(api.MapRequest(
                    workload=w, contexts=c, verify=(c == wl.MAP_CONTEXTS[0]),
                    execution=ExecutionConfig(seed=0, effort=0.01),
                ))
    elif workload == "sweep":
        from repro.arch.compiled import clear_rrg_cache

        session.run(api.SweepRequest(what="fc", workload="parity", grid=3,
                                     values=(1.0,)))
        clear_rrg_cache()
    elif workload == "yield":
        session.run(api.YieldRequest(workload="parity", grid=4, width=6,
                                     rates=(0.05,), trials=1))


class _Loop:
    """Closed loop: one op at a time, outputs checked."""

    def __init__(self, workload, session, tracer, seed) -> None:
        self.workload = workload
        self.session = session
        self.tracer = tracer
        self.seed = seed
        self.latencies: list = []
        self.failed = 0
        self.problems: list = []
        self.digests: list = []
        self.scored_rows: list = []
        self.rows_profile: dict = {}
        self.rows_counters: dict = {}
        self.histogram: dict = {}
        self.dies = 0
        self.request_digests: list = []
        self.raised = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def _finish_op(self, latency: float, row, problems, scored: bool) -> None:
        self.latencies.append(latency)
        doc = wl.row_doc(row)
        self.digests.append(wl.row_digest(doc))
        if scored:
            self.scored_rows.append(doc)
        if problems:
            self.failed += 1
            if len(self.problems) < _CHECK_LIMIT:
                self.problems.extend(problems[:1])

    def _serialize(self, row, k: int) -> None:
        with self.tracer.span("api.serialize", op=k):
            json.dumps(row.to_dict())

    def _absorb_observations(self, row) -> None:
        """Yield rows of the traced run carry the program's own phase
        blocks and counters; fold them into the run totals."""
        for name, entry in (getattr(row, "profile", None) or {}).items():
            self.rows_profile[name] = (self.rows_profile.get(name, 0.0)
                                       + entry.get("seconds", 0.0))
        metrics = getattr(row, "metrics", None) or {}
        for key, value in (metrics.get("counters") or {}).items():
            self.rows_counters[key] = self.rows_counters.get(key, 0) + value

    def run_block(self, block: int, scored: bool) -> None:
        requests = wl.BLOCKS[self.workload](self.seed, block)
        self.request_digests.append(wl.request_digest(requests))
        for request in requests:
            request = (wl.traced_variant(self.workload, request)
                       if self.tracer.enabled else request)
            try:
                if self.workload == "map":
                    self._map_op(request, scored)
                else:
                    self._stream_ops(request, scored)
            except Exception as exc:  # a failed op is a result, not a crash
                self.raised += 1
                self.failed += 1
                if len(self.problems) < _CHECK_LIMIT:
                    self.problems.append(f"{type(exc).__name__}: {exc}")

    def _map_op(self, request, scored: bool) -> None:
        k = self.ops
        started = time.perf_counter()
        with self.tracer.op(k), self.tracer.span("api.session", op=k):
            result = self.session.run(request)
        self._serialize(result, k)
        latency = time.perf_counter() - started
        self._finish_op(latency, result, wl.check_map(result), scored)

    def _stream_ops(self, request, scored: bool) -> None:
        started = time.perf_counter()
        session = self.session
        if self.workload == "sweep":
            # a fresh `repro sweep` process: empty substrate cache and a
            # new Session (placement cache) per request
            from repro.api import Session
            from repro.arch.compiled import clear_rrg_cache

            clear_rrg_cache()
            session = Session()
        stream = session.stream(request)
        while True:
            k = self.ops
            with self.tracer.op(k), self.tracer.span("api.session", op=k):
                row = next(stream, None)
            if row is None:
                break
            self._serialize(row, k)
            latency = time.perf_counter() - started
            if self.workload == "sweep":
                problems = wl.check_sweep(request, row)
            else:
                problems = wl.check_yield(request, row)
                self._absorb_observations(row)
                self.dies += row.trials
                for rung, n in row.repair_histogram.items():
                    self.histogram[rung] = self.histogram.get(rung, 0) + n
            self._finish_op(latency, row, problems, scored)
            started = time.perf_counter()
        if session is not self.session:
            session.close()


def _timed_run(workload: str, seed: int, seconds: float, session) -> dict:
    """Whole blocks, untraced, until ``seconds`` and ``MIN_OPS``."""
    loop = _Loop(workload, session, tracing.NullTracer(), seed)
    scored_blocks = wl.SCORED_BLOCKS[workload]
    t0 = time.perf_counter()
    block = 0
    while (block < scored_blocks or loop.ops < wl.MIN_OPS
           or time.perf_counter() - t0 < seconds):
        loop.run_block(block, scored=block < scored_blocks)
        block += 1
    return {
        "blocks": block,
        "wall_s": time.perf_counter() - t0,
        "latencies": loop.latencies,
        "attempted": loop.ops + loop.raised,
        "failed": loop.failed,
        "problems": loop.problems,
        "qor": wl.qor(workload, loop.scored_rows),
    }


def _paired_run(workload: str, seed: int, blocks: int, api) -> dict:
    """Each block untraced, then traced, in this process."""
    tracer = tracing.Tracer()
    plain = _Loop(workload, None, tracing.NullTracer(), seed)
    traced = _Loop(workload, None, tracer, seed)
    wall = 0.0
    for block in range(blocks):
        for loop in (plain, traced):
            # a fresh, warmed Session per pass: the first pass must not
            # leave the second cached programs or golden mappings
            loop.session = api.Session()
            _warm_up(workload, loop.session, api)
            undo = tracing.install(tracer) if loop is traced else []
            t0 = time.perf_counter()
            try:
                loop.run_block(block, scored=True)
            finally:
                tracing.uninstall(undo)
            if loop is traced:
                wall += time.perf_counter() - t0
            loop.session.close()
    trace = tracer.snapshot()
    trace["origin"] = tracing.clock_origin()
    return {
        "blocks": blocks,
        "wall_s": wall,
        "latencies": traced.latencies,
        "attempted": traced.ops + traced.raised + plain.ops + plain.raised,
        "failed": traced.failed + plain.failed,
        "problems": plain.problems + traced.problems,
        "qor": wl.qor(workload, traced.scored_rows),
        "digests": traced.digests,
        "untraced": {"latencies": plain.latencies, "digests": plain.digests},
        "request_digests": traced.request_digests,
        "rows_profile": traced.rows_profile,
        "rows_counters": traced.rows_counters,
        "histogram": traced.histogram,
        "dies": traced.dies,
        "trace": trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    api, session, startup = _setup(args.workload)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.trace:
        session.close()
        doc = _paired_run(args.workload, args.seed,
                          wl.SCORED_BLOCKS[args.workload], api)
    else:
        doc = _timed_run(args.workload, args.seed, args.seconds, session)
    doc.update(
        workload=args.workload,
        seed=args.seed,
        startup=startup,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
