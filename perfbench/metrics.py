"""The benchmark's metric names and units — the names BENCHMARK.json fixes.

End-to-end metrics come from untraced runs (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``).  Every run prints every
metric of its kind; a layer a workload never enters reads 0.
"""

from __future__ import annotations

from typing import Dict

#: The workloads, in the order BENCHMARK.json lists them.
WORKLOAD_NAMES = ("static-fleet", "lossy-fleet", "moving-fleet", "update-churn")
#: The paper's four index families, in figure order.
FAMILIES = ("dtree", "rstar", "trap", "trian")
DYNAMIC_FAMILIES = ("dtree", "rstar")

#: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "queries_per_s": "q/s",
    "epochs_per_s": "epochs/s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p90": "ms",
    "tuning_packets_mean": "packets",
    "latency_packets_mean": "packets",
    "peak_rss_mb": "MB",
}


def _per_layer() -> Dict[str, str]:
    seconds = ["datasets.generate", "broadcast.schedule", "mobility.boundary_index",
               "dynamic.server"]
    for f in FAMILIES:
        seconds += [f"build.{f}", f"page.{f}", f"engine.compile.{f}", f"warmup.{f}"]
    # static-fleet
    seconds += ["fleet.workload.chunk", "engine.timeline", "simulation.energy",
                "fleet.report.fold"]
    seconds += [f"engine.run.{f}" for f in FAMILIES]
    seconds += [f"engine.trace.{f}" for f in FAMILIES]
    # lossy-fleet
    seconds += [f"simulation.run.{f}" for f in FAMILIES]
    # moving-fleet
    seconds += ["mobility.workload.chunk", "mobility.exit_bound",
                "broadcast.client_query", "broadcast.trace"]
    seconds += [f"mobility.evaluate.{f}" for f in FAMILIES]
    # update-churn
    seconds += ["tessellation.sites_subdivision", "dynamic.diff", "dynamic.read"]
    for f in DYNAMIC_FAMILIES:
        seconds += [f"dynamic.apply.{f}", f"dynamic.maintain.{f}", f"dynamic.page.{f}"]
    seconds.append("unattributed")
    out = {f"{name}_s": "s" for name in seconds}
    out.update({f"engine.index_packets_per_query.{f}": "packets" for f in FAMILIES})
    out.update({
        "sim.useful_read_frac": "fraction",
        "sim.retries_per_query": "1/query",
        "sim.fallbacks_per_query": "1/query",
        "sim.cache.hit_frac": "fraction",
        "mobility.skip_frac": "fraction",
        "mobility.retunes_per_km": "1/km",
        "mobility.failed_clients": "count",
        "cache.hit_frac": "fraction",
        "dynamic.retry_frac": "fraction",
        "dynamic.wasted_tuning_per_read": "packets",
    })
    out.update({f"dynamic.incremental_frac.{f}": "fraction" for f in DYNAMIC_FAMILIES})
    out.update({
        "trace_overhead_frac": "fraction",
        "failed_frac": "fraction",
        "cycle_samples": "count",
    })
    return out


#: name -> unit.
PER_LAYER: Dict[str, str] = _per_layer()
