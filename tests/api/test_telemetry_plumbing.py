"""Telemetry threads end-to-end: rows unchanged, spans cross processes."""

import os
from dataclasses import replace

from repro.api import ExecutionConfig, Session, SweepRequest, YieldRequest
from repro.utils.telemetry import GLOBAL, chrome_trace

VALUES = (6, 7)


def _sweep(execution):
    return Session().run(SweepRequest(what="channel-width", grid=5,
                                      values=VALUES, execution=execution))


class TestSweepTelemetry:
    def test_metrics_block_attached_and_rows_unchanged(self):
        on = _sweep(ExecutionConfig(effort=0.2, telemetry=True))
        off = _sweep(ExecutionConfig(effort=0.2))
        m = on.metrics
        pops = [v for k, v in m["counters"].items()
                if k.startswith("router.pops")]
        assert pops and sum(pops) > 0
        assert m["counters"]["router.contexts_routed"] == len(VALUES)
        assert [w["pid"] for w in m["workers"]] == [os.getpid()]
        assert any(s[0] == "point.route" for s in m["workers"][0]["spans"])
        # with telemetry off the result is byte-identical to pre-PR
        d_on, d_off = on.to_dict(), off.to_dict()
        assert "metrics" not in d_off
        assert all("metrics" not in p for p in d_off["points"])
        d_on.pop("metrics")
        for p in d_on["points"]:
            p.pop("metrics", None)
        assert d_on == d_off

    def test_worker_counters_absorbed_into_global_registry(self):
        before = GLOBAL.counter("router.contexts_routed")
        _sweep(ExecutionConfig(effort=0.2, telemetry=True))
        assert GLOBAL.counter("router.contexts_routed") \
            >= before + len(VALUES)

    def test_analytic_sweeps_carry_no_metrics(self):
        r = Session().run(SweepRequest(
            what="change-rate", values=(0.01, 0.05),
            execution=ExecutionConfig(telemetry=True),
        ))
        assert r.metrics is None
        assert "metrics" not in r.to_dict()


class TestProcessBackendTelemetry:
    def test_spans_ride_back_from_worker_processes(self):
        req = YieldRequest(
            workload="adder", grid=5, width=8, rates=(0.0, 0.02), trials=4,
            execution=ExecutionConfig(effort=0.2, backend="process",
                                      workers=2, telemetry=True),
        )
        r = Session().run(req)
        m = r.metrics
        pids = {w["pid"] for w in m["workers"]}
        # spans came from worker processes, not the parent
        assert pids and os.getpid() not in pids
        assert all(w["spans"] for w in m["workers"])
        pops = sum(v for k, v in m["counters"].items()
                   if k.startswith("router.pops"))
        assert pops > 0  # summed across workers
        trace = chrome_trace(m)
        assert {ev["pid"] for ev in trace["traceEvents"]} == pids
        # rows (minus telemetry payloads) identical to sequential
        seq = Session().run(YieldRequest(
            workload="adder", grid=5, width=8, rates=(0.0, 0.02), trials=4,
            execution=ExecutionConfig(effort=0.2),
        ))
        d_p = [dict(p.to_dict()) for p in r.points]
        for p in d_p:
            p.pop("metrics", None)
        assert d_p == [p.to_dict() for p in seq.points]


class TestProfilePhaseNames:
    """The phase names that consumers of ``profile`` blocks read."""

    #: ladder rung -> the phase that rung's repair runs in
    RUNG_PHASES = {"route_around": "repair.route_around",
                   "reroute": "repair.reroute",
                   "replace": "repair.replace"}

    def test_phase_names_pinned_across_backends(self):
        seq = ExecutionConfig(effort=0.2)
        proc = ExecutionConfig(effort=0.2, backend="process", workers=2)
        yield_req = YieldRequest(workload="adder", grid=5, width=7,
                                 rates=(0.03, 0.08), trials=4, profile=True)
        sweep_req = SweepRequest(what="channel-width", grid=5,
                                 values=VALUES, profile=True)
        session = Session()
        yield_seq = session.run(replace(yield_req, execution=seq))

        # a campaign that reaches the ladder carries the rungs it ran
        reached = set()
        for pt in yield_seq.points:
            phases = set(pt.profile)
            assert {"trial.sample", "trial.repair",
                    "repair.detect"} <= phases
            for rung, phase in self.RUNG_PHASES.items():
                if pt.repair_histogram[rung]:
                    reached.add(rung)
                    assert phase in phases, (rung, sorted(phases))
        assert reached, "campaign never left the NONE rung"

        # the process backend names the same phases as sequential
        sweep_seq = session.run(replace(sweep_req, execution=seq))
        assert all({"point.route", "point.timing"} <= set(pt.profile)
                   for pt in sweep_seq.points)
        with Session() as workers:
            yield_proc = workers.run(replace(yield_req, execution=proc))
            sweep_proc = workers.run(replace(sweep_req, execution=proc))
        for a, b in ((yield_seq, yield_proc), (sweep_seq, sweep_proc)):
            assert [set(pt.profile) for pt in a.points] == \
                [set(pt.profile) for pt in b.points]
