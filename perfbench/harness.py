"""Run loop, statistics, failure accounting and the provenance stamp.

Every workload is a closed loop: the harness hands the program its next
input (a chunk, a trajectory or an update) only after the previous step
returned.  A step is timed from the first program call to the last
return; the benchmark's own input preparation and answer checking run
outside that clock.
"""

from __future__ import annotations

import heapq
import math
import os
import platform
import resource
import sys
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from perfbench.tracing import Tracer

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10
#: Steps every run makes at least, so that p90 has MIN_TAIL samples
#: beyond it.
MIN_STEPS = 100
#: Median probe-kernel time on the reference machine (a 2-vCPU Xeon VM),
#: over one minute.  Every timed end-to-end metric is scaled to a host
#: running the probe at this speed; see :func:`speed_probe_s`.
REFERENCE_PROBE_S = 0.00174
#: Wall time between two probes in the timed phase.
PROBE_EVERY_S = 0.1
#: Width of the band along the area's outer frame, as a share of the
#: area's width, in which failures are the known closed-domain defect.
#: Probing 1500 points along each edge of the 200- and 1000-region
#: UNIFORM maps, trap fails up to 1e-8 from the edge, trian up to 3e-7,
#: and no family at 1e-6 or beyond.
FRAME_BAND = 1e-6


# -- statistics ---------------------------------------------------------------


def highest_percentile(n: int) -> int:
    """The highest whole percentile with at least MIN_TAIL of *n* samples
    beyond it (0 when there are too few samples for any)."""
    if n <= MIN_TAIL:
        return 0
    return int(math.floor(100.0 * (n - MIN_TAIL) / n + 1e-9))


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile of *samples*, refused when fewer than
    MIN_TAIL samples lie beyond it."""
    if q > highest_percentile(len(samples)):
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL} samples beyond it; "
            f"{len(samples)} samples support up to "
            f"p{highest_percentile(len(samples))}"
        )
    return float(np.percentile(np.asarray(samples, np.float64), q))


# -- failure accounting -------------------------------------------------------


def on_frame(area, xs, ys) -> np.ndarray:
    """True where a point lies within FRAME_BAND of the closed outer
    frame of *area*."""
    band = FRAME_BAND * (area.max_x - area.min_x)
    xs = np.asarray(xs, np.float64)
    ys = np.asarray(ys, np.float64)
    return (
        (np.abs(xs - area.min_x) <= band) | (np.abs(xs - area.max_x) <= band)
        | (np.abs(ys - area.min_y) <= band) | (np.abs(ys - area.max_y) <= band)
    )


class Accounting:
    """Attempted and failed answers, with no early abort.

    An answer fails when it differs from the oracle, when the program
    raised instead of answering, or when the oracle itself has no region
    for the point.  Every failure counts.  Each is also sorted into one
    of the closed-domain defects the repository already knows about —

    * ``frame``: the point lies on the closed outer frame of the area,
      or within FRAME_BAND of it;
    * ``tiebreak``: the answer's region holds the point on its boundary,
      but the oracle's lowest-id tie-break picked a neighbour —

    or ``other``.  A run with any ``other`` failure is not correct.
    """

    def __init__(self, area) -> None:
        self.area = area
        self.attempted = 0
        self.failed = 0
        self.failed_frame = 0
        self.failed_tiebreak = 0
        self.failed_other = 0
        #: Clients (or chunks) whose evaluation raised.
        self.raised = 0

    def answers(self, got, expected, xs, ys, subdivision) -> None:
        """Score answers against the oracle (-1 = no oracle region)."""
        from repro.errors import ReproError
        from repro.geometry.point import Point

        got = np.asarray(got, np.int64)
        expected = np.asarray(expected, np.int64)
        bad = np.flatnonzero((got != expected) | (expected < 0))
        self.attempted += int(got.size)
        if not bad.size:
            return
        self.failed += int(bad.size)
        xs = np.asarray(xs, np.float64)
        ys = np.asarray(ys, np.float64)
        frame = on_frame(self.area, xs[bad], ys[bad])
        self.failed_frame += int(np.count_nonzero(frame))
        for i in bad[~frame].tolist():
            tiebreak = False
            if expected[i] >= 0:
                try:
                    polygon = subdivision.region(int(got[i])).polygon
                except ReproError:
                    polygon = None
                tiebreak = (
                    polygon is not None
                    and polygon.classify_point(Point(float(xs[i]), float(ys[i]))) == 1
                )
            if tiebreak:
                self.failed_tiebreak += 1
            else:
                self.failed_other += 1

    def raised_unit(self, attempted: int, raising_xy: Sequence) -> None:
        """A whole client or chunk raised: all of its answers fail.

        *raising_xy* are the points at which the program raises when
        replayed one by one; the failure is a frame failure only if
        there is at least one and all of them lie on the frame.
        """
        self.attempted += attempted
        self.failed += attempted
        self.raised += 1
        frame = bool(raising_xy) and all(
            bool(on_frame(self.area, [x], [y])[0]) for x, y in raising_xy
        )
        if frame:
            self.failed_frame += attempted
        else:
            self.failed_other += attempted

    @property
    def correct(self) -> bool:
        return self.failed_other == 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def breakdown(self) -> Dict[str, int]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frame": self.failed_frame,
            "failed_tiebreak": self.failed_tiebreak,
            "failed_other": self.failed_other,
            "raised_units": self.raised,
        }


def oracle_regions(subdivision, xs, ys) -> np.ndarray:
    """Oracle region per point, -1 where no region covers it.

    The compiled batch locate agrees with ``Subdivision.locate`` on
    every point; when it raises for the batch, the points are located
    one by one so that only the uncovered ones are marked.
    """
    from repro.errors import QueryError
    from repro.geometry.point import Point

    try:
        return subdivision.compiled().locate_coords(xs, ys)
    except QueryError:
        out = np.empty(len(xs), np.int64)
        for i, (x, y) in enumerate(zip(np.asarray(xs).tolist(), np.asarray(ys).tolist())):
            try:
                out[i] = subdivision.locate(Point(x, y))
            except QueryError:
                out[i] = -1
        return out


def raising_points(paged_index, xs, ys) -> List[tuple]:
    """Points of a batch at which the paged index's own trace raises."""
    from repro.errors import QueryError
    from repro.geometry.point import Point

    found = []
    for x, y in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist()):
        try:
            paged_index.trace(Point(x, y))
        except QueryError:
            found.append((x, y))
    return found


# -- provenance ---------------------------------------------------------------


def git_sha(root: str) -> Optional[str]:
    """HEAD's sha with ``-dirty`` for uncommitted changes, by the
    repository's own recorder convention, or None when *root* is not
    itself a git checkout (git would otherwise report an enclosing one)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    from benchmarks._recorder import resolve_git_sha

    return resolve_git_sha(root)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


#: A fixed array the probe kernel's numpy part works on.
_PROBE_ARRAY = np.linspace(0.0, 1.0, 2048)


def _probe_kernel() -> int:
    """A fixed mix of interpreter work (an arithmetic loop, then a heap
    of freshly allocated tuples) and small-array numpy work, like the
    program's own mix of scalar clients, object-heavy index code and
    batched kernels."""
    total = 0
    for i in range(5000):
        total += i * i
    heap: list = []
    for i in range(800):
        heapq.heappush(heap, ((i * 7919) % 1009, i, (i, i + 1)))
    while heap:
        total += heapq.heappop(heap)[0]
    x = _PROBE_ARRAY
    for _ in range(10):
        x = np.sqrt(x * 1.0001 + 0.5)
        np.argsort(x[:512])
    return total


def speed_probe_s(reps: int) -> float:
    """Median time of the probe kernel over *reps* runs, in seconds.

    On a shared virtual machine another tenant can slow this one by up
    to 1.5x for minutes at a time without showing in its load average,
    and the probe slows with it (across 10- to 30-second windows its
    time and the workloads' step times correlate at about 0.9).  The probe
    runs only benchmark code, so a change to the program cannot move
    it.
    """
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _probe_kernel()
        times.append(perf_counter() - t0)
    return float(np.median(times))


def host_scale(probe_s: float) -> float:
    """Factor that turns a time measured while the probe took *probe_s*
    into the time on the reference host (see REFERENCE_PROBE_S)."""
    return REFERENCE_PROBE_S / probe_s


def machine_stamp(root: str, workload: str, seed: int) -> Dict[str, object]:
    """Who measured what, where: keyed into every per-run record."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(root),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg_before": list(os.getloadavg()),
        "speed_probe_ms_before": speed_probe_s(15) * 1000.0,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


# -- the run loop -------------------------------------------------------------


class Phase:
    """One pass over a workload: its step latencies and measured wall."""

    def __init__(self) -> None:
        self.step_s: List[float] = []
        #: Probe times in the order taken (one more after the last
        #: step), and for each step the index of the last probe before
        #: it.
        self.probe_s: List[float] = []
        self.step_probe: List[int] = []
        #: Point queries answered and client epochs evaluated per step.
        self.queries: List[int] = []
        self.epochs: List[int] = []
        #: Wall spent in program input generation outside the steps.
        self.input_s = 0.0

    @property
    def busy_s(self) -> float:
        return float(sum(self.step_s))

    @property
    def scaled_step_s(self) -> List[float]:
        """Step latencies on the reference host, each scaled by the
        mean of the probes just before and just after it."""
        probes = self.probe_s
        return [
            s * host_scale((probes[j] + probes[j + 1]) / 2.0)
            for s, j in zip(self.step_s, self.step_probe)
        ]


def planned_steps(workload, seconds: float, min_steps: int = MIN_STEPS) -> int:
    """Steps for a run of about *seconds* on the reference machine.

    The work is fixed by ``--seconds`` rather than by a clock, so every
    count a run reports (answers, failures, the paper's metrics) is the
    same on every machine for one seed; only the times vary.
    """
    return max(min_steps, int(round(seconds * workload.steps_per_second)))


def timed_phase(
    workload, state, acct: Accounting, steps: int, tracer: Optional[Tracer] = None
) -> Phase:
    """Run *steps* steps, checking each one after its clock stops
    (untraced unless a recording *tracer* is given).

    Every PROBE_EVERY_S of wall, between two steps, and once after the
    last step, the host's speed is probed; each step records which
    probe came last before it.
    """
    if tracer is None:
        tracer = Tracer()
    phase = Phase()
    inputs: Iterator = workload.inputs(state, tracer, phase)
    span = tracer.span
    probed_at = -math.inf
    for _ in range(steps):
        item = next(inputs)
        if perf_counter() - probed_at >= PROBE_EVERY_S:
            # Outside every span: the probe is not part of the wall.
            phase.probe_s.append(speed_probe_s(5))
            probed_at = perf_counter()
        phase.step_probe.append(len(phase.probe_s) - 1)
        with span("bench.step"):
            t0 = perf_counter()
            outcome = workload.step(state, item, tracer)
            dt = perf_counter() - t0
        phase.step_s.append(dt)
        tracer.phase = "check"
        queries, epochs = workload.check(state, item, outcome, acct)
        tracer.phase = "run"
        phase.queries.append(queries)
        phase.epochs.append(epochs)
    phase.probe_s.append(speed_probe_s(5))
    return phase
