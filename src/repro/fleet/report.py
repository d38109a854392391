"""Streaming, mergeable fleet reports.

A :class:`~repro.simulation.report.SimulationReport` keeps every
per-query array — the right call for a 10k-query experiment, fatal for a
10M-query fleet.  The fleet layer instead folds each chunk into a
:class:`FleetReport` the moment it is evaluated: per-metric counts,
compensated sums, exact min/max and a mergeable quantile sketch, plus
the (small) per-query answer array for parity checking.  A worker ships
a few kilobytes back to the parent regardless of chunk size.

Merge algebra
-------------

:class:`StreamingReport` holds the one merge algebra of the streaming
reports (:class:`FleetReport` and
:class:`~repro.mobility.report.MobilityReport`): ``merge`` is
associative with the empty report as identity, and — because chunk
results are folded **in chunk order** and sums use Neumaier-compensated
accumulation — a merged report is exactly equal (counters, sums,
sketches) to the report a single worker would have produced over the
same chunking.  Worker count therefore never changes a reported number;
see DESIGN.md §12.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.fleet.sketch import QuantileSketch
from repro.simulation.report import PERCENTILES, reconcile_labels

#: The per-query metrics every fleet report aggregates.
METRIC_FIELDS = ("access_latency", "tuning_time", "energy_joules")


class MetricAggregate:
    """Count / compensated sum / min / max / sketch of one metric stream.

    Cross-chunk sums use Neumaier's variant of Kahan summation: each
    chunk contributes one ``np.sum`` (pairwise inside the chunk) and the
    running total carries a compensation term, so a billion-chunk fleet
    sum matches ``math.fsum`` of the chunk sums to the last bit in
    practice and never drifts with the number of chunks or merge order
    (for a fixed fold order).
    """

    __slots__ = ("count", "_sum", "_comp", "minimum", "maximum", "sketch")

    def __init__(self, alpha: float = 0.01) -> None:
        self.count = 0
        self._sum = 0.0
        self._comp = 0.0  # Neumaier compensation (sum of lost low bits)
        self.minimum = math.inf
        self.maximum = -math.inf
        self.sketch = QuantileSketch(alpha=alpha)

    # -- compensated accumulation -------------------------------------------

    def _add(self, value: float) -> None:
        t = self._sum + value
        if abs(self._sum) >= abs(value):
            self._comp += (self._sum - t) + value
        else:
            self._comp += (value - t) + self._sum
        self._sum = t

    def observe_chunk(self, values) -> None:
        """Fold one chunk's values (array) into the aggregate."""
        arr = np.asarray(values, np.float64)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.minimum = min(self.minimum, float(arr.min()))
        self.maximum = max(self.maximum, float(arr.max()))
        self._add(float(np.sum(arr)))
        self.sketch.observe_batch(arr)

    def merge(self, other: "MetricAggregate") -> "MetricAggregate":
        """Fold *other* into this aggregate (in place)."""
        self.count += other.count
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        # Fold the other side's compensated pair through the same
        # Neumaier update: for chunk-ordered folds this reproduces the
        # sequential accumulation exactly.
        self._add(other._sum)
        self._add(other._comp)
        self.sketch.merge(other.sketch)
        return self

    # -- reductions ----------------------------------------------------------

    @property
    def total(self) -> float:
        """The compensated sum."""
        return self._sum + self._comp

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            **{f"p{q}": self.percentile(q) for q in PERCENTILES},
        }

    def __repr__(self) -> str:
        return f"MetricAggregate(n={self.count}, mean={self.mean:.4g})"


class StreamingReport:
    """The merge algebra shared by the streaming reports.

    A subclass declares its ``LABELS`` (reconciled on merge: an empty
    side takes the other side's), its ``COUNTERS`` (added on merge; the
    first counts the report's items, so 0 marks an empty report) and its
    ``METRICS`` (one :class:`MetricAggregate` each), and folds chunks in
    its own ``observe_chunk``.  Every report also carries, keyed by
    chunk index, the per-item answer (region id) arrays — 8 bytes per
    item, the one per-item artifact kept so that worker-count invariance
    can be asserted array-exactly — and the total read ``attempts``,
    which ``to_dict`` leaves out.
    """

    __slots__ = (
        "attempts", "metrics", "answers", "chunk_count", "elapsed_seconds"
    )

    LABELS: Tuple[str, ...] = ()
    COUNTERS: Tuple[str, ...] = ()
    METRICS: Tuple[str, ...] = ()
    #: What the reports are called in merge errors.
    KIND = "streaming"

    def __init__(self, alpha: float, **labels: str) -> None:
        for name, value in labels.items():
            setattr(self, name, value)
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.attempts = 0
        self.metrics: Dict[str, MetricAggregate] = {
            name: MetricAggregate(alpha=alpha) for name in self.METRICS
        }
        #: chunk index -> int64 answer array (region ids) for that chunk.
        self.answers: Dict[int, np.ndarray] = {}
        self.chunk_count = 0
        #: Wall-clock of the run; filled by the runner, ignored by merge
        #: equality concerns (it is not part of the determinism contract).
        self.elapsed_seconds: Optional[float] = None

    # -- recording ------------------------------------------------------------

    def _check_new_chunk(self, chunk_index: int) -> None:
        if chunk_index in self.answers:
            raise ReproError(f"chunk {chunk_index} folded twice")

    def _close_chunk(self, chunk_index: int, answers, keep_answers: bool) -> None:
        if keep_answers:
            self.answers[chunk_index] = np.asarray(answers, np.int64)
        self.chunk_count += 1

    # -- merging --------------------------------------------------------------

    def merge(self, other: "StreamingReport") -> "StreamingReport":
        """Fold *other* into this report (in place, associative; an
        all-default report is the identity)."""
        if not isinstance(other, type(self)):
            raise ReproError(
                f"cannot merge {type(self).__name__} with "
                f"{type(other).__name__}"
            )
        size = self.COUNTERS[0]
        labels = reconcile_labels(
            self, other, self.LABELS,
            getattr(self, size) == 0, getattr(other, size) == 0,
            f"{self.KIND} reports", ReproError,
        )
        overlap = self.answers.keys() & other.answers.keys()
        if overlap:
            raise ReproError(
                f"{self.KIND} reports overlap on chunks {sorted(overlap)}"
            )
        for name, value in labels.items():
            setattr(self, name, value)
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.attempts += other.attempts
        for name in self.METRICS:
            self.metrics[name].merge(other.metrics[name])
        self.answers.update(other.answers)
        self.chunk_count += other.chunk_count
        return self

    # -- reductions ------------------------------------------------------------

    def merged_answers(self) -> np.ndarray:
        """All retained answers concatenated in chunk order — equal to
        the monolithic run's answer array regardless of worker count."""
        if not self.answers:
            return np.zeros(0, np.int64)
        return np.concatenate(
            [self.answers[i] for i in sorted(self.answers)]
        )

    def percentiles(self, metric: str) -> Dict[str, float]:
        """Sketch-backed ``{"p50": ..., "p95": ..., "p99": ...}``."""
        agg = self.metrics[metric]
        return {f"p{q}": agg.percentile(q) for q in PERCENTILES}

    def to_dict(self) -> dict:
        """JSON-ready summary (answers excluded; they are a parity
        artifact, not a result)."""
        out = {"mode": self.mode}
        out.update((name, getattr(self, name)) for name in self.LABELS)
        out.update((name, getattr(self, name)) for name in self.COUNTERS)
        out["chunks"] = self.chunk_count
        out["elapsed_seconds"] = self.elapsed_seconds
        out["metrics"] = {
            name: agg.to_dict() for name, agg in self.metrics.items()
        }
        return out


class FleetReport(StreamingReport):
    """Aggregated outcome of a fleet run (any number of chunks/workers).

    Carries, per metric, a :class:`MetricAggregate`; globally, the query
    and loss counters; and the per-query answer arrays.  Answer
    retention can be disabled (``keep_answers=False`` upstream) for
    fleets where even that is too much.  ``mode`` is ``"engine"``
    (error-free batched engine) or ``"simulate"``.
    """

    LABELS = ("mode", "index_kind", "policy", "error_model")
    COUNTERS = ("queries", "losses")
    METRICS = METRIC_FIELDS
    KIND = "fleet"
    __slots__ = LABELS + COUNTERS

    def __init__(
        self,
        mode: str = "?",
        index_kind: str = "?",
        policy: str = "?",
        error_model: str = "?",
        alpha: float = 0.01,
    ) -> None:
        super().__init__(
            alpha, mode=mode, index_kind=index_kind, policy=policy,
            error_model=error_model,
        )

    def observe_chunk(
        self,
        chunk_index: int,
        region_ids: np.ndarray,
        access_latency: np.ndarray,
        tuning_time: np.ndarray,
        energy_joules: np.ndarray,
        losses: int = 0,
        attempts: Optional[int] = None,
        keep_answers: bool = True,
    ) -> None:
        """Fold one evaluated chunk into the report."""
        self._check_new_chunk(chunk_index)
        self.queries += len(region_ids)
        self.losses += int(losses)
        self.attempts += (
            int(attempts)
            if attempts is not None
            else int(np.sum(tuning_time))
        )
        self.metrics["access_latency"].observe_chunk(access_latency)
        self.metrics["tuning_time"].observe_chunk(tuning_time)
        self.metrics["energy_joules"].observe_chunk(energy_joules)
        self._close_chunk(chunk_index, region_ids, keep_answers)

    def summary(self) -> Dict[str, float]:
        """Flat summary row mirroring ``SimulationReport.summary()``
        (percentiles come from the sketch, hence within its ~1 %
        relative-accuracy contract of the exact order statistics)."""
        out: Dict[str, float] = {
            "queries": float(self.queries),
            "losses": float(self.losses),
            "mean_attempts": (
                self.attempts / self.queries
                if self.queries
                else float("nan")
            ),
        }
        for metric, label in (
            ("access_latency", "latency"),
            ("tuning_time", "tuning"),
            ("energy_joules", "energy_j"),
        ):
            agg = self.metrics[metric]
            out[f"{label}_mean"] = agg.mean
            for key, value in self.percentiles(metric).items():
                out[f"{label}_{key}"] = value
        return out

    def __repr__(self) -> str:
        return (
            f"FleetReport({self.index_kind}, mode={self.mode}, "
            f"n={self.queries}, chunks={self.chunk_count}, "
            f"losses={self.losses})"
        )


def render_fleet_report(report: FleetReport) -> str:
    """Human-readable block for the CLI."""
    s = report.summary()
    lines: List[str] = [
        f"fleet: {report.queries} queries over {report.chunk_count} chunks "
        f"({report.mode}, index={report.index_kind})",
    ]
    if report.mode == "simulate":
        lines.append(
            f"  channel: {report.error_model}, policy={report.policy}, "
            f"losses={report.losses}"
        )
    if report.elapsed_seconds:
        rate = report.queries / report.elapsed_seconds
        lines.append(
            f"  elapsed: {report.elapsed_seconds:.2f}s "
            f"({rate:,.0f} queries/s)"
        )
    for metric, label, unit in (
        ("access_latency", "latency", "packets"),
        ("tuning_time", "tuning", "reads"),
        ("energy_joules", "energy", "mJ"),
    ):
        scale = 1000.0 if unit == "mJ" else 1.0
        p = report.percentiles(metric)
        lines.append(
            f"  {label:<8} mean={report.metrics[metric].mean * scale:.2f} "
            f"p50={p['p50'] * scale:.2f} p95={p['p95'] * scale:.2f} "
            f"p99={p['p99'] * scale:.2f} {unit}"
        )
    return "\n".join(lines)
