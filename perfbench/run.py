"""The repository's benchmark: four seeded closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload map --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``map``, ``sweep``, ``yield``, ``serve`` (see
``workloads.py`` and ``README.md``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs each scored
block twice in one process, untraced and then traced, and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a human summary goes
to standard error.  The traced run also writes a Chrome trace (load it
in Perfetto) to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per untraced run (the reported ``setup_s`` is their median):
#: the working process, with the set-up-only ones split before and after
#: it, so that the samples span the run rather than one moment of it.
SETUP_SAMPLES = 5
#: Seconds one worker may take before the run is abandoned.
WORKER_TIMEOUT_S = 160.0

END_TO_END = ("setup_s", "ops_per_s", "latency_p50_s", "latency_p90_s",
              "ok_frac", "peak_rss_mb")


class BenchError(RuntimeError):
    """A run that cannot produce a result (the program failed or is
    missing); reported on stderr with a nonzero exit."""


# ---------------------------------------------------------------------- #
# in-process workers
# ---------------------------------------------------------------------- #
class Worker:
    """A ``worker.py`` subprocess; ``setup_s`` is spawn-to-READY."""

    def __init__(self, env: dict, *args: str) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"worker failed during set-up: {line!r}")

    def finish(self) -> dict | None:
        try:
            out, _ = self.proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker timed out") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def run_worker(env, workload, seed, seconds, trace=0,
               setup_samples=1) -> dict:
    """The worker that runs the ops, with ``setup_samples - 1``
    set-up-only workers around it; ``doc["setup_samples"]`` has every
    spawn-to-READY."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]

    def setup_only(n: int) -> list:
        samples = []
        for _ in range(n):
            extra = Worker(env, *args, "--mode", "setup")
            extra.finish()
            samples.append(extra.setup_s)
        return samples

    before = setup_only((setup_samples - 1) // 2)
    worker = Worker(env, *args)
    doc = worker.finish()
    if doc is None:
        raise BenchError("worker printed no result")
    after = setup_only(setup_samples - 1 - len(before))
    doc["setup_samples"] = before + [worker.setup_s] + after
    return doc


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: ``q=0.9`` of 100 samples leaves 10
    samples above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(doc: dict) -> dict:
    lat = doc["latencies"]
    attempted = doc["attempted"]
    return {
        "setup_s": statistics.median(doc["setup_samples"]),
        "ops_per_s": len(lat) / doc["wall_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": percentile(lat, 0.9),
        "ok_frac": (attempted - doc["failed"]) / attempted,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def _counter(counters: dict, name: str) -> float:
    """Sum of every labelled series of one program counter."""
    return sum(v for k, v in counters.items() if k.split("{", 1)[0] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, traced: dict, spans: list,
              server: dict | None) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is
    not on the workload's path)."""
    import tracer

    by_name = tracer.self_times(spans)
    layers = tracer.layer_times(by_name)
    trace = traced["trace"]
    counts = dict(trace["counts"])
    counters = dict(trace["counters"])
    for key, value in traced.get("rows_counters", {}).items():
        counters[key] = counters.get(key, 0) + value
    if server is not None:
        for key, value in server["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in server["counters"].items():
            counters[key] = counters.get(key, 0) + value
    phases = traced.get("rows_profile", {})
    hist = traced.get("histogram", {})
    inclusive: dict = {}
    for s in spans:
        inclusive[s[3]] = inclusive.get(s[3], 0.0) + s[5]
    route_search = layers["route"] - by_name.get("route.timing", 0.0)
    proposed = _counter(counters, "placer.moves_proposed")
    accepted = _counter(counters, "placer.moves_accepted")
    salvaged = _counter(counters, "router.warm.salvaged_sinks")
    researched = _counter(counters, "router.warm.researched_sinks")
    pops = _counter(counters, "router.pops")
    startup = traced.get("startup", {})
    client_wall = traced.get("client_wall_s", traced["wall_s"])
    m = {
        "place.busy_s": layers["place"],
        "place.calls": tracer.span_calls(spans, "place."),
        "place.moves_proposed": proposed,
        "place.moves_accepted": accepted,
        "place.accept_ratio": _ratio(accepted, proposed),
        "place.rounds": _counter(counters, "placer.rounds"),
        "route.busy_s": layers["route"],
        "route.calls": tracer.span_calls(spans, "route.route_"),
        "route.pops": pops,
        "route.pops_per_s": _ratio(pops, route_search),
        "route.ripup_iterations": _counter(counters,
                                           "router.ripup_iterations"),
        "route.ripped_nets": _counter(counters, "router.ripped_nets"),
        "route.repriced_nodes": _counter(counters, "router.repriced_nodes"),
        "route.overused_census": _counter(counters,
                                          "router.overused_census"),
        "route.warm_adopted_nets": _counter(counters,
                                            "router.warm.adopted_nets"),
        "route.warm_fresh_nets": _counter(counters, "router.warm.fresh_nets"),
        "route.salvage_ratio": _ratio(salvaged, salvaged + researched),
        "route.timing_s": by_name.get("route.timing", 0.0),
        "core.stats_s": by_name.get("core.stats", 0.0),
        "analysis.busy_s": layers["analysis"],
        "analysis.verify_s": by_name.get("analysis.verify_mapped", 0.0),
        "arch.busy_s": layers["arch"],
        "arch.builds": counts.get("arch.builds", 0),
        "arch.nodes": counts.get("arch.nodes", 0),
        "arch.edges": counts.get("arch.edges", 0),
        "reliability.busy_s": layers["reliability"],
        "reliability.sample_s": phases.get("trial.sample", 0.0),
        "reliability.detect_s": phases.get("repair.detect", 0.0),
        "reliability.route_around_s": phases.get("repair.route_around", 0.0),
        "reliability.reroute_s": phases.get("repair.reroute", 0.0),
        "reliability.replace_s": phases.get("repair.replace", 0.0),
        "reliability.golden_s": inclusive.get("reliability.golden", 0.0),
        "reliability.dies": traced.get("dies", 0),
        "netlist.busy_s": layers["netlist"],
        "netlist.parse_s": by_name.get("netlist.parse_source", 0.0),
        "netlist.luts": counts.get("netlist.luts", 0),
        "api.busy_s": layers["api"],
        "api.serialize_s": by_name.get("api.serialize", 0.0),
        "api.session_self_s": by_name.get("api.session", 0.0),
        "service.busy_s": layers["service"],
        "service.submit_s": counts.get("service.submit_s", 0.0),
        "service.server_job_s": traced.get("server_job_s", 0.0),
        "service.http_overhead_s": (
            sum(traced["latencies"]) - traced["server_job_s"]
            if "server_job_s" in traced else 0.0),
        "service.rejected": traced.get("rejected", 0),
        "startup.import_s": startup.get("import_s", 0.0),
        "startup.session_s": startup.get("session_s", 0.0),
        "startup.warmup_s": startup.get("warmup_s", 0.0),
        "trace.ops": len(traced["latencies"]),
        "trace.overhead_frac": statistics.median(
            t / u for t, u in zip(traced["latencies"],
                                  traced["untraced"]["latencies"])
        ) - 1.0,
        "trace.coverage": sum(by_name.values()) / client_wall,
    }
    for rung in ("none", "route_around", "reroute", "replace", "fail"):
        m[f"reliability.rung_{rung}"] = hist.get(rung, 0)
    for name, value in traced["qor"].items():
        m[f"qor.{name}"] = value
    return m


def units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


# ---------------------------------------------------------------------- #
# the two modes
# ---------------------------------------------------------------------- #
def _env() -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() \
            or not (ROOT / "regression_tests").is_dir():
        raise BenchError(f"the program is not under {ROOT}: need src/repro "
                         "and regression_tests/")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def plain_run(workload: str, seed: int, seconds: float) -> dict:
    env = _env()
    if workload == "serve":
        import serve

        doc = serve.run(ROOT, env, seed, seconds, SETUP_SAMPLES)
    else:
        doc = run_worker(env, workload, seed, seconds,
                         setup_samples=SETUP_SAMPLES)
    metrics = end_to_end(doc)
    print(f"[perfbench] {workload} seed={seed}: {len(doc['latencies'])} ops "
          f"in {doc['wall_s']:.2f}s over {doc['blocks']} blocks "
          f"(latency samples n={len(doc['latencies'])}); "
          f"setup samples {[round(s, 3) for s in doc['setup_samples']]}; "
          f"qor {doc['qor']}", file=sys.stderr)
    for problem in doc["problems"]:
        print(f"[perfbench] check failed: {problem}", file=sys.stderr)
    return _result(doc["attempted"], doc["failed"], metrics)


def traced_run(workload: str, seed: int) -> dict:
    """Each scored block untraced, then traced; per-layer metrics."""
    import tracer

    env = _env()
    OUT_DIR.mkdir(exist_ok=True)
    if workload == "serve":
        import serve

        traced = serve.run_paired(ROOT, env, seed, OUT_DIR)
    else:
        traced = run_worker(env, workload, seed, 0, trace=1)
    spans = [list(s) for s in traced["trace"]["spans"]]
    tracks = [(traced["trace"]["pid"], f"{workload} client", spans,
               traced["trace"]["origin"])]
    server = traced.get("server_trace")
    if server is not None:
        server_spans = _link_server_spans(spans, server, traced["job_ops"])
        spans = spans + server_spans
        tracks.append((server["pid"], "repro serve", server_spans,
                       server["origin"]))
        traced["startup"] = dict(server["startup"])
    metrics = per_layer(workload, traced, spans, server)
    plain_digests = traced["untraced"]["digests"]
    mismatched = sum(1 for a, b in zip(plain_digests, traced["digests"])
                     if a != b)
    mismatched += abs(len(plain_digests) - len(traced["digests"]))
    for problem in traced["problems"]:
        print(f"[perfbench] check failed: {problem}", file=sys.stderr)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps(tracer.chrome_trace(tracks)))
    layers = tracer.layer_times(tracer.self_times(spans))
    total = sum(layers.values()) or 1.0
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    print(f"[perfbench] {workload} seed={seed} traced: "
          + ", ".join(f"{k} {v / total:.0%}" for k, v in ranked if v)
          + f"; coverage {metrics['trace.coverage']:.3f}, overhead "
          f"{metrics['trace.overhead_frac']:+.3f}; rows mismatched "
          f"{mismatched}; trace -> {trace_path.relative_to(ROOT)}",
          file=sys.stderr)
    failed = traced["failed"] + mismatched
    return _result(traced["attempted"], failed, metrics)


def _link_server_spans(client_spans, server, job_ops):
    """Server spans, re-numbered apart from the client's, each job's
    root span hung under the client op that submitted it and tagged
    with that op's id."""
    offset = max((s[0] for s in client_spans), default=0) + 1
    op_span = {s[2]: s[0] for s in client_spans if s[3] == "service.op"}
    linked = []
    for sid, parent, job_id, name, start, dur, tid in server["spans"]:
        k = job_ops.get(job_id, job_id)
        if parent is None:
            parent = op_span.get(k)
        else:
            parent += offset
        linked.append([sid + offset, parent, k, name, start, dur, tid])
    return linked


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    unit = units()
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("map", "sweep", "yield", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = plain_run(args.workload, args.seed, args.seconds)
    except (RuntimeError, OSError) as exc:  # BenchError included
        print(f"[perfbench] error: {exc}", file=sys.stderr)
        return 1
    print(f"[perfbench] seed={args.seed} workload={args.workload} "
          f"trace={args.trace}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
