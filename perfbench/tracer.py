"""Outside-in span tracer for the benchmark.

The program under test carries no benchmark spans of its own.  This
module times each layer from outside: :func:`install` replaces the
public functions one layer calls in another (at the call site's module
attribute, so the caller picks the wrapper up) with thin wrappers that
record a span, and :func:`uninstall` puts the originals back.  Layers
are named after the ``src/repro/`` packages; a span's name is
``<layer>.<what>``.

Spans are kept in memory.  Each carries the id of the span that was
open on the same thread when it started (its parent) and the op id
bound on that thread, so one op's spans share an id.  A layer's self
time is its span duration minus the durations of its child spans
(:func:`self_times`).  :func:`chrome_trace` writes the spans as Chrome
trace-event JSON, which Perfetto loads.

Run as a script, ``python3 perfbench/tracer.py SPANS_OUT -- <repro CLI
args>`` runs the repro CLI (``serve``, for the serve workload) with the
server-side wrappers ready but off.  Each ``SIGUSR1`` installs or
uninstalls them and prints ``TRACE 1`` or ``TRACE 0``.  The spans and
counters go to ``SPANS_OUT`` when the CLI returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager, nullcontext

#: The layers spans are timed in, in pipeline order (``startup`` is
#: timed by the worker itself, before any span).
LAYERS = ("netlist", "arch", "place", "route", "core", "analysis",
          "reliability", "api", "service")

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same shared no-op context."""

    enabled = False

    def span(self, name: str, op=None):
        return _NULL

    def op(self, op_id):
        return _NULL

    def add(self, name: str, value=1) -> None:
        pass


class Tracer:
    """Span buffer plus the counts recorded at the wrapped boundaries."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []   # [id, parent, op, name, start_s, dur_s, tid]
        self.counts: dict = {}  # boundary counts: arch.builds, ...
        self.collectors: list = []  # repro Telemetry, one per op/thread
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.pid = os.getpid()

    # -- recording ------------------------------------------------------ #
    def add(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op=None):
        """Record ``name`` around the block.  ``op`` rebinds the op id
        for this span and everything under it (an op's root span)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        prev_op = getattr(self._tls, "op", None)
        op = prev_op if op is None else op
        self._tls.op = op
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            self.spans.append([span_id, parent, op, name, start, dur,
                               threading.get_ident()])
            self._tls.op = prev_op

    @contextmanager
    def op(self, op_id):
        """Bind ``op_id`` and a fresh repro ``Telemetry`` collector on
        this thread, so the program's own counters (``placer.*``,
        ``router.*``) are read for the op."""
        from repro.utils.telemetry import Telemetry, collecting

        tel = Telemetry(f"perfbench-{op_id}")
        with self._lock:
            self.collectors.append(tel)
        prev_op = getattr(self._tls, "op", None)
        self._tls.op = op_id
        try:
            with collecting(tel):
                yield tel
        finally:
            self._tls.op = prev_op

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``.  ``after(result, state)``
        records counts from the call's result; ``state`` is what
        ``after.before()`` returned just before the call, if it has
        that attribute."""
        before = getattr(after, "before", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before is not None else None
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, state)
            return result

        return wrapper

    # -- export --------------------------------------------------------- #
    def counters(self) -> dict:
        """The program's counters summed over every bound collector."""
        total: dict = {}
        for tel in self.collectors:
            for key, value in tel.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def snapshot(self) -> dict:
        return {"pid": self.pid, "spans": list(self.spans),
                "counts": dict(self.counts), "counters": self.counters()}


# ---------------------------------------------------------------------- #
# installing the wrappers
# ---------------------------------------------------------------------- #
def _luts_of_program(tracer, _fn):
    def after(result, _state):
        program = result[0] if isinstance(result, tuple) else result
        contexts = getattr(program, "contexts", None)
        if contexts is not None:
            tracer.add("netlist.luts", sum(len(nl.luts()) for nl in contexts))
    return after


def _arch_build(tracer, fn):
    """Count a build when the call missed the substrate cache."""
    info = fn.cache_info

    def after(result, misses_before):
        if info().misses > misses_before:
            tracer.add("arch.builds")
            tracer.add("arch.nodes", int(result.n_nodes))
            tracer.add("arch.edges", int(result.n_edges))
    after.before = lambda: info().misses
    return after


def _call_sites():
    """``(module, attribute, span name, after-factory)`` for every
    boundary the trace times.  Imported lazily: the program is only on
    the path once the worker has set it up."""
    import repro.analysis.engine as engine
    import repro.analysis.experiments as experiments
    import repro.analysis.sweep as sweep
    import repro.api.session as session
    import repro.arch.compiled as compiled
    import repro.netlist.frontend as frontend
    import repro.reliability.repair as repair
    import repro.reliability.yield_runner as yield_runner
    import repro.route.timing as timing

    return [
        # netlist: workload construction and the import frontend
        (session, "build_circuit", "netlist.build_circuit", None),
        (session, "build_program", "netlist.build_program", _luts_of_program),
        (frontend, "load_program", "netlist.load_program", _luts_of_program),
        (frontend, "parse_source", "netlist.parse_source", None),
        # arch: substrate build + compile (a cache hit is a dict lookup)
        (engine, "compiled_rrg_for", "arch.compiled_rrg_for", _arch_build),
        (engine, "flat_rrg_for", "arch.flat_rrg_for", _arch_build),
        (compiled, "flat_rrg_for", "arch.flat_rrg_for", _arch_build),
        # place: every entry into the annealer
        (engine, "place_program", "place.place_program", None),
        (sweep, "place", "place.place", None),
        (repair, "place", "place.place", None),
        # route: search + congestion, and timing analysis
        (engine, "route_program_compiled", "route.route_program", None),
        (sweep, "route_context_compiled", "route.route_context", None),
        (repair, "route_context_compiled", "route.route_context", None),
        (repair, "route_context_warm", "route.route_warm", None),
        (sweep, "critical_path", "route.timing", None),
        (repair, "critical_path", "route.timing", None),
        (timing, "critical_path", "route.timing", None),
        # analysis: functional verification and sweep points
        (experiments, "verify_mapped", "analysis.verify_mapped", None),
        (sweep, "evaluate_point", "analysis.evaluate_point", None),
        # reliability: campaign goldens, trials, sampling, the ladder
        (yield_runner, "evaluate_trial", "reliability.trial", None),
        (yield_runner, "repair_mapping", "reliability.repair", None),
    ]


def _class_sites():
    """``(class, attribute, span name)`` for methods timed in place."""
    from repro.analysis.experiments import MappedProgram
    from repro.reliability.yield_runner import YieldRunner

    return [
        (MappedProgram, "stats", "core.stats"),
        (YieldRunner, "golden_for", "reliability.golden"),
    ]


def install(tracer: Tracer) -> list:
    """Wrap every boundary; returns the undo list for :func:`uninstall`."""
    undo = []
    for module, attr, name, after_factory in _call_sites():
        fn = getattr(module, attr)
        after = after_factory(tracer, fn) if after_factory else None
        setattr(module, attr, tracer.wrap(fn, name, after))
        undo.append((module, attr, fn))
    for cls, attr, name in _class_sites():
        fn = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(fn, name))
        undo.append((cls, attr, fn))
    # DefectMap.sample is a classmethod: wrap the function underneath
    from repro.reliability.defect_map import DefectMap

    sample = DefectMap.__dict__["sample"]
    DefectMap.sample = classmethod(
        tracer.wrap(sample.__func__, "reliability.sample")
    )
    undo.append((DefectMap, "sample", sample))
    return undo


def install_server(tracer: Tracer) -> list:
    """The in-process wrappers plus the job boundary of ``repro serve``:
    each job runs as one op (id = job id) with its own collector,
    ``Session._run_import`` is the Session's share of the job and
    ``JobManager._row`` (``to_dict`` of the streamed row) its
    serialization."""
    from repro.api.session import Session
    from repro.service.jobs import JobManager

    undo = install(tracer)
    execute = JobManager.__dict__["_execute"]

    def traced_execute(self, job):
        with tracer.op(job.job_id), tracer.span("service.job", op=job.job_id):
            return execute(self, job)

    JobManager._execute = traced_execute
    undo.append((JobManager, "_execute", execute))
    for owner, attr, name in ((Session, "_run_import", "api.session"),
                              (JobManager, "_row", "api.serialize")):
        fn = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(fn, name))
        undo.append((owner, attr, fn))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# roll-up and export
# ---------------------------------------------------------------------- #
def self_times(spans) -> dict:
    """Self seconds per span name: duration minus child durations."""
    child = {}
    for sid, parent, _op, _name, _start, dur, _tid in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + dur
    out: dict = {}
    for sid, _parent, _op, name, _start, dur, _tid in spans:
        out[name] = out.get(name, 0.0) + max(0.0, dur - child.get(sid, 0.0))
    return out


def layer_times(by_name: dict) -> dict:
    """Self seconds per layer (the name's first dotted component)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def span_calls(spans, prefix: str) -> int:
    return sum(1 for s in spans if s[3].startswith(prefix))


def chrome_trace(tracks) -> dict:
    """Chrome trace-event JSON for ``[(pid, label, spans, origin)]``.

    ``origin`` converts a track's ``perf_counter`` readings to epoch
    seconds, so tracks from different processes share one timeline.
    """
    events = []
    for pid, label, spans, origin in tracks:
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        tids: dict = {}
        for sid, parent, op, name, start, dur, tid in spans:
            events.append({
                "ph": "X", "cat": name.split(".", 1)[0], "name": name,
                "pid": pid, "tid": tids.setdefault(tid, len(tids) + 1),
                "ts": (origin + start) * 1e6, "dur": dur * 1e6,
                "args": {"op": op, "id": sid, "parent": parent},
            })
    events.sort(key=lambda ev: (ev["pid"], ev.get("ts", -1.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def clock_origin() -> float:
    """Epoch seconds minus ``perf_counter`` on this process's clock."""
    return time.time() - time.perf_counter()


def _serve_main(argv) -> int:
    """``tracer.py SPANS_OUT -- <repro CLI args>`` (see module doc)."""
    out_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: tracer.py SPANS_OUT -- <repro CLI args>",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import repro.api  # noqa: F401  (timed: startup.import_s)
    import repro.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    marks = {}
    from repro.service.http import ReproService

    start = ReproService.__dict__["start"]

    def timed_start(self):
        bound = start(self)
        marks["listening"] = time.perf_counter()
        return bound

    ReproService.start = timed_start
    undo: list = []

    def toggle(_signum, _frame) -> None:
        if undo:
            uninstall(undo)
            undo.clear()
        else:
            undo.extend(install_server(tracer))
        # os.write: a signal handler must not re-enter buffered stdout
        os.write(1, f"TRACE {int(bool(undo))}\n".encode())

    signal.signal(signal.SIGUSR1, toggle)
    try:
        rc = cli.main(cli_args)
    finally:
        uninstall(undo)
        ReproService.start = start
        doc = tracer.snapshot()
        doc["origin"] = clock_origin()
        doc["startup"] = {
            "import_s": import_s,
            "session_s": marks.get("listening", t0) - t0 - import_s,
        }
        tmp = out_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, out_path)
    return rc


if __name__ == "__main__":
    sys.exit(_serve_main(sys.argv[1:]))
