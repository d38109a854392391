"""One benchmark run: untraced end-to-end metrics or the traced per-layer run."""

from __future__ import annotations

import gc
import os
import statistics
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.obs import Collector, collecting

from perfbench.common import BENCH_SPANS, rename_program_span
from perfbench.harness import (
    MIN_STEPS,
    Accounting,
    highest_percentile,
    host_scale,
    peak_rss_mb,
    planned_steps,
    speed_probe_s,
    tail_percentile,
    timed_phase,
)
from perfbench.lossy_fleet import LossyFleet
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES
from perfbench.moving_fleet import MovingFleet
from perfbench.static_fleet import StaticFleet
from perfbench.tracing import (
    Tracer,
    chrome_trace,
    collector_spans,
    self_time_by_layer,
    wrapped,
)
from perfbench.update_churn import UpdateChurn

#: name -> workload class, in BENCHMARK.json order.
WORKLOADS = {
    cls.name: cls for cls in (StaticFleet, LossyFleet, MovingFleet, UpdateChurn)
}
assert tuple(WORKLOADS) == WORKLOAD_NAMES


def _timed_setup(workload) -> Tuple[object, float, float]:
    """A set-up's state, its wall time and the host's probe time (the
    mean of one probe before and one after)."""
    # Start every set-up from a heap without the previous one's garbage.
    gc.collect()
    before = speed_probe_s(9)
    t0 = perf_counter()
    state = workload.setup(Tracer())
    elapsed = perf_counter() - t0
    return state, elapsed, (before + speed_probe_s(9)) / 2.0


def run_untraced(
    workload, seconds: float, min_steps: int = MIN_STEPS,
    setup_reps: Optional[int] = None,
) -> Tuple[Dict[str, float], Accounting, dict]:
    """End-to-end metrics of one untraced run.

    Set-up runs *setup_reps* times (by default the workload's own
    ``setup_reps``; each from scratch; ``setup_s`` is the median) and
    the last one is measured.  Every time is scaled to the reference
    host by the probe taken with it (see ``harness.speed_probe_s``);
    the record keeps the raw times and the probes.
    """
    if setup_reps is None:
        setup_reps = workload.setup_reps
    setups = []
    setup_probes = []
    state = None
    for _ in range(setup_reps):
        state = None  # release the previous set-up first
        state, elapsed, probe = _timed_setup(workload)
        setups.append(elapsed)
        setup_probes.append(probe)
    acct = Accounting(state.subdivision.service_area)
    gc.collect()
    phase = timed_phase(workload, state, acct, planned_steps(workload, seconds, min_steps))
    scaled = phase.scaled_step_s
    step_ms = [s * 1000.0 for s in scaled]
    busy_s = sum(scaled)
    metrics = {
        "setup_s": statistics.median(
            s * host_scale(p) for s, p in zip(setups, setup_probes)
        ),
        "queries_per_s": sum(phase.queries) / busy_s,
        "epochs_per_s": sum(phase.epochs) / busy_s,
    }
    metrics.update(workload.paper_metrics(state))
    metrics["cycle_ms_p50"] = tail_percentile(step_ms, 50)
    metrics["cycle_ms_p90"] = tail_percentile(step_ms, 90)
    metrics["peak_rss_mb"] = peak_rss_mb()
    missing = set(END_TO_END) ^ set(metrics)
    if missing:
        raise RuntimeError(f"end-to-end metrics out of step with metrics.py: {missing}")
    details = {
        "setup_s_reps": setups,
        "setup_probe_s": setup_probes,
        "cycle_samples": len(step_ms),
        "highest_valid_percentile": highest_percentile(len(step_ms)),
        "step_s_total": phase.busy_s,
        "scaled_step_s_total": busy_s,
        "input_s_total": phase.input_s,
        "failed_frac": acct.failed_frac,
        **acct.breakdown(),
        "step_s": phase.step_s,
        "probe_s": phase.probe_s,
        "step_probe": phase.step_probe,
        "step_queries": phase.queries,
        "step_epochs": phase.epochs,
    }
    return metrics, acct, details


def run_traced(
    workload, seconds: float, min_steps: int = MIN_STEPS
) -> Tuple[Dict[str, float], Accounting, dict, dict]:
    """Per-layer metrics: an untraced pass, then the same steps traced.

    The untraced pass (one set-up, half the work of an untraced run)
    gives the reference wall time for ``trace_overhead_frac``.  Both
    walls are scaled to the reference host by their passes' median
    probe, so that the host's speed drifting between the passes does
    not show as overhead.  Per-layer self times are raw.
    """
    state, setup_a, probe_a = _timed_setup(workload)
    acct = Accounting(state.subdivision.service_area)
    # Per-layer times need no tail percentile, so half the untraced
    # minimum is enough here.
    steps = planned_steps(workload, seconds / 2.0, min_steps // 2)
    phase_a = timed_phase(workload, state, acct, steps)
    wall_a = setup_a + phase_a.busy_s + phase_a.input_s
    scale_a = host_scale(statistics.median([probe_a] + phase_a.probe_s))
    state = None
    gc.collect()

    collector = Collector(max_spans=10_000_000)
    tracer = Tracer(collector)
    probe_b = speed_probe_s(9)
    with collecting(collector), wrapped(tracer, workload.setup_methods()):
        with tracer.span("bench.setup"):
            state = workload.setup(tracer)
        setup_counters = dict(collector.counters)
        tracer.phase = "run"
        with wrapped(tracer, workload.step_methods(state)):
            phase_b = timed_phase(workload, state, acct, steps, tracer)
    counters = {
        name: value - setup_counters.get(name, 0)
        for name, value in collector.counters.items()
    }
    if collector.dropped_spans:
        raise RuntimeError(f"{collector.dropped_spans} spans dropped; self times would be wrong")
    spans = collector_spans(collector)
    layers, unattributed, wall_b, parents, names = self_time_by_layer(
        spans, BENCH_SPANS, rename_program_span
    )

    metrics = {name: 0.0 for name in PER_LAYER}
    unknown = []
    for name, seconds_ in layers.items():
        key = f"{name}_s"
        if key in metrics:
            metrics[key] = seconds_
        else:
            unknown.append(name)
    if unknown:
        raise RuntimeError(f"layers missing from metrics.py: {sorted(unknown)}")
    bases = {}
    for name, (value, _unit, base_name, base_value) in workload.layer_counts(
        state, counters
    ).items():
        metrics[name] = value
        bases[name] = {"base": base_name, "base_value": base_value}
    metrics["unattributed_s"] = unattributed
    scale_b = host_scale(statistics.median([probe_b] + phase_b.probe_s))
    metrics["trace_overhead_frac"] = (wall_b * scale_b) / (wall_a * scale_a) - 1.0
    metrics["failed_frac"] = acct.failed_frac
    metrics["cycle_samples"] = len(phase_b.step_s)
    bases["trace_overhead_frac"] = {
        "base": "scaled_untraced_wall_s", "base_value": wall_a * scale_a
    }
    bases["failed_frac"] = {"base": "attempted", "base_value": acct.attempted}
    bases["unattributed_s"] = {"base": "traced_wall_s", "base_value": wall_b}

    details = {
        "traced_wall_s": wall_b,
        "untraced_wall_s": wall_a,
        "host_scale_untraced": scale_a,
        "host_scale_traced": scale_b,
        "layer_self_s_sum": sum(layers.values()),
        "spans": len(spans),
        "ratio_bases": bases,
        "counters": counters,
        **acct.breakdown(),
    }
    trace = chrome_trace(spans, parents, names, BENCH_SPANS, {"workload": workload.name})
    return metrics, acct, details, trace


def output_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path
