"""The ``profile`` block: per-phase rollup of telemetry spans and the
ambient binding that feeds it."""

import json

from repro.utils.telemetry import (
    Telemetry,
    collecting,
    current_collector,
    phase_rollup,
    span,
)


def _calls(tel):
    return {name: v["calls"]
            for name, v in phase_rollup(tel.snapshot()).items()}


class TestPhaseProfiler:
    def test_span_accumulates_seconds_and_calls(self):
        tel = Telemetry(None)
        for name in ("a", "b", "a"):
            with tel.span(name):
                pass
        rolled = phase_rollup(tel.snapshot())
        assert _calls(tel) == {"a": 2, "b": 1}
        assert rolled["a"]["seconds"] >= 0.0
        assert set(rolled) == {"a", "b"}

    def test_to_dict_sorted_and_json_plain(self):
        tel = Telemetry(None)
        for name in ("z", "a", "m"):
            with tel.span(name):
                pass
        rolled = phase_rollup(tel.snapshot())
        assert list(rolled) == ["a", "m", "z"]
        assert json.loads(json.dumps(rolled)) == rolled


class TestAmbientBinding:
    def test_no_profiler_bound_by_default(self):
        assert current_collector() is None

    def test_span_is_noop_without_profiler(self):
        with span("anything"):
            pass  # must not raise, must not bind a collector
        assert current_collector() is None

    def test_profiling_binds_and_restores(self):
        tel = Telemetry(None)
        with collecting(tel) as bound:
            assert bound is tel
            assert current_collector() is tel
            with span("phase"):
                pass
        assert current_collector() is None
        assert _calls(tel) == {"phase": 1}

    def test_nested_binding_restores_outer(self):
        outer, inner = Telemetry("o"), Telemetry("i")
        with collecting(outer):
            with collecting(inner):
                with span("in"):
                    pass
            with span("out"):
                pass
        assert _calls(inner) == {"in": 1}
        assert _calls(outer) == {"out": 1}
