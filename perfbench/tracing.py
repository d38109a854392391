"""Benchmark-side spans, method wrappers, self time and Chrome export.

The traced run records every span in one ``repro.obs`` collector: the
benchmark's own spans around each call it makes into a program layer
(and, through :func:`wrapped`, around a few methods the program calls
internally), and the program's own spans, all on the collector's clock.
Spans stay in memory and are written out when the run ends.

A layer's *self time* is its spans' duration minus the part of each
interval its child spans cover; summed over every span it equals the
wall time of the top-level spans exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import null_span

#: Top-level benchmark spans.  Their self time is benchmark glue inside
#: the measured wall — the ``unattributed_s`` residual.
TOP_LEVEL = ("bench.setup", "bench.step", "bench.input")


class Tracer:
    """Where a run's spans go, and which phase the run is in.

    The traced run records through a ``repro.obs`` collector; the
    untraced run (``Tracer()``) through the shared no-op span.  Parents
    are not stored with the spans: spans of one thread nest, so
    :func:`build_tree` recovers every parent by interval containment.
    """

    def __init__(self, collector=None) -> None:
        self.span = collector.span if collector is not None else null_span
        #: ``"setup"``, ``"run"`` or ``"check"`` — lets one wrapped method
        #: report under a different layer name during set-up and the
        #: timed phase, and not at all while answers are checked.
        self.phase = "setup"


#: A layer name, or a function of the tracer's phase giving one.
SpanName = Union[str, Callable[[str], str]]


def _timed(func: Callable, tracer: Tracer, name: SpanName) -> Callable:
    span = tracer.span

    def timed(*args, **kwargs):
        if tracer.phase == "check":
            # Answer checking replays program calls outside the wall.
            return func(*args, **kwargs)
        with span(name if isinstance(name, str) else name(tracer.phase)):
            return func(*args, **kwargs)

    timed.__wrapped__ = func
    return timed


@contextmanager
def wrapped(tracer: Tracer, targets: Iterable[Tuple[type, str, SpanName]]):
    """Time every call of ``cls.attr`` for the ``with`` body.

    Each target is replaced on its class (plain methods and
    classmethods alike) and restored on exit, even on error.  A class
    named twice is wrapped once.
    """
    saved = []
    seen = set()
    try:
        for cls, attr, name in targets:
            if (cls, attr) in seen:
                continue
            seen.add((cls, attr))
            own = cls.__dict__.get(attr)
            current = next(k.__dict__[attr] for k in cls.__mro__ if attr in k.__dict__)
            if isinstance(current, classmethod):
                replacement = classmethod(_timed(current.__func__, tracer, name))
            else:
                replacement = _timed(current, tracer, name)
            saved.append((cls, attr, own))
            setattr(cls, attr, replacement)
        yield
    finally:
        for cls, attr, own in reversed(saved):
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)


def collector_spans(collector) -> List[Tuple[str, float, float]]:
    """The collector's spans as ``(name, start, end)`` on its clock."""
    return [(r.name, r.start_s, r.start_s + r.elapsed_s) for r in collector.spans]


def build_tree(spans: Sequence[Sequence]) -> Tuple[List[int], List[float]]:
    """Parent index and self time of every ``(name, start, end)`` span.

    Spans are ordered by start (longer first on ties); a span's parent
    is the innermost open span whose interval it starts inside.  Self
    time is the span's duration minus the union of its children's
    intervals, clipped to the span, so rounding at the edges can never
    make it negative or count a child twice.
    """
    n = len(spans)
    order = sorted(range(n), key=lambda i: (spans[i][1], -spans[i][2]))
    parents = [-1] * n
    covered = [0.0] * n
    cover_end = [0.0] * n
    stack: List[int] = []
    for i in order:
        start, end = spans[i][1], spans[i][2]
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            p = stack[-1]
            parents[i] = p
            lo = max(start, cover_end[p])
            hi = min(end, spans[p][2])
            if hi > lo:
                covered[p] += hi - lo
            cover_end[p] = max(cover_end[p], hi)
        cover_end[i] = start
        stack.append(i)
    self_times = [
        max(0.0, (spans[i][2] - spans[i][1]) - covered[i]) for i in range(n)
    ]
    return parents, self_times


def layer_names(
    spans: Sequence[Sequence],
    parents: Sequence[int],
    bench_names: Collection[str],
    rename: Callable[[str, str], str],
) -> List[str]:
    """Final layer name of every span.

    Benchmark spans (names in *bench_names*) keep their names.  Any
    other span is the program's own, named by
    ``rename(program_name, enclosing_benchmark_layer)``.
    """
    names: List[Optional[str]] = [None] * len(spans)
    bench_ancestor = [""] * len(spans)

    def resolve(i: int) -> None:
        chain = []
        j = i
        while j >= 0 and names[j] is None:
            chain.append(j)
            j = parents[j]
        outer = bench_ancestor[j] if j >= 0 else ""
        for k in reversed(chain):
            raw = spans[k][0]
            if raw in bench_names:
                names[k] = raw
                outer = raw
            else:
                names[k] = rename(raw, outer)
            bench_ancestor[k] = outer

    for i in range(len(spans)):
        if names[i] is None:
            resolve(i)
    return names  # type: ignore[return-value]


def self_time_by_layer(
    spans: Sequence[Sequence],
    bench_names: Collection[str],
    rename: Callable[[str, str], str],
) -> Tuple[Dict[str, float], float, float, List[int], List[str]]:
    """Per-layer self time, the unattributed residual and the wall time.

    Wall time is the summed duration of the top-level benchmark spans;
    the residual is their own self time.  Every span lies inside one of
    them, so the per-layer self times plus the residual equal the wall.
    """
    parents, own = build_tree(spans)
    names = layer_names(spans, parents, bench_names, rename)
    layers: Dict[str, float] = {}
    unattributed = 0.0
    wall = 0.0
    for i, name in enumerate(names):
        if name in TOP_LEVEL:
            unattributed += own[i]
            if parents[i] < 0:
                wall += spans[i][2] - spans[i][1]
        else:
            layers[name] = layers.get(name, 0.0) + own[i]
    return layers, unattributed, wall, parents, names


def chrome_trace(
    spans: Sequence[Sequence],
    parents: Sequence[int],
    names: Sequence[str],
    bench_names: Collection[str],
    metadata: dict,
    limit: int = 250_000,
) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds).

    Opens in Perfetto and ``chrome://tracing``.  At most *limit* events
    are written, in start order; the rest are counted in the metadata.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms", "metadata": metadata}
    t0 = min(s[1] for s in spans)
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    events = []
    for i in order[:limit]:
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        p = parents[i]
        events.append(
            {
                "name": names[i],
                "cat": "perfbench" if name in bench_names else "repro.obs",
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": names[p] if p >= 0 else None},
            }
        )
    meta = dict(metadata)
    meta["dropped_events"] = max(0, len(spans) - limit)
    return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}
