"""Self time, span nesting, program-span naming and method wrapping."""

import json

import pytest

from repro.obs import Collector

from perfbench.common import BENCH_SPANS, rename_program_span
from perfbench.tracing import (
    Tracer,
    build_tree,
    chrome_trace,
    collector_spans,
    self_time_by_layer,
    wrapped,
)


def test_self_time_is_span_minus_child_coverage():
    spans = [
        ("parent", 0.0, 10.0),
        ("a", 1.0, 3.0),
        ("b", 5.0, 6.0),
        ("a.child", 1.5, 2.0),
    ]
    parents, own = build_tree(spans)
    assert parents == [-1, 0, 0, 1]
    assert own == pytest.approx([10.0 - 3.0, 2.0 - 0.5, 1.0, 0.5])
    assert sum(own) == pytest.approx(10.0)


def test_overlapping_or_overhanging_children_are_not_counted_twice():
    # Rounding can make a child end a hair after its parent.
    spans = [("p", 0.0, 4.0), ("c1", 1.0, 2.0), ("c2", 3.0, 4.0 + 1e-12)]
    _, own = build_tree(spans)
    assert own[0] == pytest.approx(2.0)
    assert own[0] >= 0.0


def test_layers_plus_unattributed_equal_the_wall():
    spans = [
        ["bench.setup", 0.0, 2.0],
        ["build.dtree", 0.5, 1.5],
        ["bench.step", 3.0, 7.0],
        ["engine.run.dtree", 3.5, 6.5],
        ["engine.run", 3.6, 6.4],
        ["engine.trace", 3.7, 5.0],
        ["engine.timeline", 5.0, 6.0],
    ]
    layers, unattributed, wall, _, names = self_time_by_layer(
        spans, BENCH_SPANS, rename_program_span
    )
    assert wall == pytest.approx(6.0)
    assert sum(layers.values()) + unattributed == pytest.approx(wall)
    assert unattributed == pytest.approx(1.0 + 1.0)
    # The engine's outer span merges into the benchmark layer; trace and
    # timeline become layers of their own.
    assert layers["engine.run.dtree"] == pytest.approx(0.2 + 0.1 + 0.4)
    assert layers["engine.trace.dtree"] == pytest.approx(1.3)
    assert layers["engine.timeline"] == pytest.approx(1.0)
    assert "engine.trace.dtree" in names


def test_program_spans_elsewhere_belong_to_the_calling_layer():
    assert rename_program_span("sim.run", "simulation.run.trap") == "simulation.run.trap"
    assert rename_program_span("engine.trace", "engine.compile.rstar") == "engine.compile.rstar"


class _Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return cls, x


class _Child(_Thing):
    pass


def test_benchmark_and_program_span_names_do_not_overlap():
    # Program spans are told apart from the benchmark's by name alone.
    for program_name in ("engine.run", "engine.trace", "engine.timeline",
                         "engine.summary", "sim.run"):
        assert program_name not in BENCH_SPANS
    assert {"bench.step", "engine.run.dtree", "dynamic.maintain.rstar"} <= BENCH_SPANS


def test_benchmark_spans_share_the_program_collector_clock():
    collector = Collector()
    tracer = Tracer(collector)
    with tracer.span("bench.step"):
        with collector.span("engine.run"):
            pass
    (run, start_r, end_r), (step, start_s, end_s) = collector_spans(collector)
    assert (run, step) == ("engine.run", "bench.step")
    assert start_s <= start_r <= end_r <= end_s
    parents, _ = build_tree(collector_spans(collector))
    assert parents == [1, -1]


def test_wrapped_times_calls_and_restores_methods():
    collector = Collector()
    tracer = Tracer(collector)
    tracer.phase = "run"
    original_method = _Thing.__dict__["method"]
    original_make = _Thing.__dict__["make"]
    targets = [
        (_Thing, "method", "thing.method"),
        (_Child, "make", lambda phase: f"make.{phase}"),
        (_Thing, "method", "duplicate ignored"),
    ]
    with wrapped(tracer, targets):
        assert _Thing().method(1) == 2
        assert _Child.make(3) == (_Child, 3)
        tracer.phase = "check"
        _Thing().method(1)  # not recorded while answers are checked
    assert _Thing.__dict__["method"] is original_method
    assert _Thing.__dict__["make"] is original_make
    assert "make" not in _Child.__dict__
    spans = collector_spans(collector)
    assert [s[0] for s in spans] == ["thing.method", "make.run"]
    assert all(s[2] >= s[1] for s in spans)


def test_chrome_trace_is_trace_event_json():
    spans = [["bench.step", 1.0, 2.0], ["fleet.workload.chunk", 1.1, 1.2]]
    parents, _ = build_tree(spans)
    doc = chrome_trace(
        spans, parents, [s[0] for s in spans], BENCH_SPANS, {"workload": "w"}, limit=1
    )
    json.dumps(doc)
    (event,) = doc["traceEvents"]
    assert event["ph"] == "X" and event["ts"] == 0.0
    assert event["dur"] == pytest.approx(1e6)
    assert doc["metadata"]["dropped_events"] == 1
