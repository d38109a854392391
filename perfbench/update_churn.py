"""update-churn: region updates landing mid-read on a versioned broadcast.

Each step is one update cycle for the two families with incremental
maintainers (D-tree splice or full rebuild, R*-tree delete/insert).  The
benchmark first moves one Voronoi site and re-tessellates — the input,
outside the cycle.  The cycle then runs the cycle's reads through a
``DynamicBroadcastClient``; at a packet position drawn from the seed,
the ``on_packet_read`` hook diffs the new map against the airing one
and applies it to the ``DynamicBroadcastServer``, so the read in flight
sees a version skew and retries.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

from repro.datasets import uniform_dataset
from repro.datasets.catalog import SERVICE_AREA
from repro.dynamic import (
    MAINTAINER_REGISTRY,
    DynamicBroadcastClient,
    DynamicBroadcastServer,
    churn_sites,
    diff_subdivisions,
    sites_subdivision,
)
from repro.engine import index_family
from repro.errors import QueryError

from perfbench.common import MAP_SEED, PACKET_CAPACITY, Workload
from perfbench.harness import Accounting, oracle_regions

#: The families with incremental maintainers; trap and trian only
#: rebuild, which ``setup_s`` on the other workloads already times.
KINDS = ("dtree", "rstar")
#: Local site moves of 2% of the service width: low churn, where only
#: the moved cell's Voronoi neighbourhood reshapes.
MOVE_SCALE = 0.02
#: Versions kept: a read is stamped with the old or the new one.
HISTORY = 2
WARMUP_READS = 32


class _UpdateHook:
    """``on_packet_read`` hook applying one pending update at a packet."""

    def __init__(self, server, tracer, kind: str) -> None:
        self.server = server
        self.tracer = tracer
        self.apply_span = f"dynamic.apply.{kind}"
        self.pending = None
        self.trigger = 0
        self.reads = 0

    def arm(self, new_subdivision, trigger: int) -> None:
        self.pending = new_subdivision
        self.trigger = trigger
        self.reads = 0

    def __call__(self, stage: str, attempt: int) -> None:
        self.reads += 1
        if self.reads == self.trigger:
            self.apply()

    def apply(self) -> None:
        span = self.tracer.span
        area = self.pending.service_area
        with span("dynamic.diff"):
            batch = diff_subdivisions(
                self.server.subdivision, self.pending,
                tolerance=1e-9 * (area.max_x - area.min_x),
            )
        with span(self.apply_span):
            self.server.apply_updates(self.pending, batch)
        self.pending = None


class UpdateChurn(Workload):
    name = "update-churn"

    #: Steps per second of ``--seconds``: the work of a run, sized to the
    #: reference machine (2-vCPU Xeon VM, 125 to 200 ms a cycle).
    steps_per_second = 8

    def __init__(self, seed: int, regions: int = 200, reads: int = 256) -> None:
        self.seed = seed
        self.regions = regions
        self.reads = reads

    def setup(self, tracer):
        with tracer.span("datasets.generate"):
            dataset = uniform_dataset(n=self.regions, seed=MAP_SEED)
            sites = {i: p for i, p in enumerate(dataset.points)}
            subdivision = sites_subdivision(sites, SERVICE_AREA)
        state = _State(sites, subdivision)
        warm = random.Random(f"warmup:{self.seed}")
        points = subdivision.random_points(WARMUP_READS, warm)
        for kind in KINDS:
            with tracer.span("dynamic.server"):
                server = DynamicBroadcastServer(
                    kind, subdivision, packet_capacity=PACKET_CAPACITY,
                    seed=MAP_SEED, history_limit=HISTORY,
                )
            hook = _UpdateHook(server, tracer, kind)
            client = DynamicBroadcastClient(server, on_packet_read=hook)
            with tracer.span(f"warmup.{kind}"):
                for p in points:
                    client.query(p, warm.uniform(0, server.schedule.cycle_length))
            state.servers[kind] = _Served(server, client, hook, hook.reads / len(points))
        return state

    def setup_methods(self):
        targets = []
        for kind in KINDS:
            index_cls = index_family(kind).index_cls
            targets += [
                (index_cls, "build", f"build.{kind}"),
                (index_cls, "page", _page_name(kind)),
                (MAINTAINER_REGISTRY[kind], "apply", f"dynamic.maintain.{kind}"),
            ]
        return targets

    def inputs(self, state, tracer, phase):
        # The map's evolution is fixed like the map itself; the seed
        # drives the reads and where in them each update lands.  (Which
        # sites move decides splice versus rebuild, and so most of the
        # cycle time.)
        churn = random.Random(MAP_SEED)
        rng = random.Random(self.seed)
        sites = state.sites
        area = SERVICE_AREA
        move = MOVE_SCALE * (area.max_x - area.min_x)
        while True:
            t0 = perf_counter()
            with tracer.span("bench.input"):
                with tracer.span("tessellation.sites_subdivision"):
                    sites = churn_sites(sites, area, n_move=1, move_scale=move, rng=churn)
                    new = sites_subdivision(sites, area)
                points = new.random_points(self.reads, rng)
                offsets = [rng.random() for _ in points]
                triggers = {
                    kind: rng.randrange(1, max(2, int(self.reads * served.packet_reads_per_query)))
                    for kind, served in state.servers.items()
                }
            phase.input_s += perf_counter() - t0
            yield new, points, offsets, triggers

    def step(self, state, item, tracer):
        new, points, offsets, triggers = item
        span = tracer.span
        out = []
        for kind, served in state.servers.items():
            served.hook.arm(new, triggers[kind])
            query = served.client.query
            server = served.server
            results = []
            for point, offset in zip(points, offsets):
                try:
                    with span("dynamic.read"):
                        result = query(point, offset * server.schedule.cycle_length)
                except QueryError:
                    result = None
                results.append(result)
            if served.hook.pending is not None:
                served.hook.apply()  # every read finished before the trigger
            out.append((served, results))
        return out

    def check(self, state, item, outcome, acct: Accounting):
        points = item[1]
        xs = np.array([p.x for p in points])
        ys = np.array([p.y for p in points])
        for served, results in outcome:
            by_version = {}
            for i, result in enumerate(results):
                if result is None:
                    acct.raised_unit(1, [(xs[i], ys[i])])
                    continue
                by_version.setdefault(result.version, []).append(i)
                state.reads += 1
                state.tuning += result.total_tuning_time
                state.latency += result.access_latency
                state.wasted += result.wasted_tuning
                state.retried += result.attempts > 1
            for version, idx in by_version.items():
                subdivision = served.server.history[version][0]
                got = [results[i].region_id for i in idx]
                acct.answers(
                    got, oracle_regions(subdivision, xs[idx], ys[idx]),
                    xs[idx], ys[idx], subdivision,
                )
        reads = sum(len(results) for _, results in outcome)
        return reads, reads

    def paper_metrics(self, state):
        return {
            "tuning_packets_mean": state.tuning / state.reads,
            "latency_packets_mean": state.latency / state.reads,
        }

    def layer_counts(self, state, counters):
        out = {
            "dynamic.retry_frac": (
                state.retried / state.reads if state.reads else 0.0,
                "fraction", "reads", state.reads,
            ),
            "dynamic.wasted_tuning_per_read": (
                state.wasted / state.reads if state.reads else 0.0,
                "packets", "reads", state.reads,
            ),
        }
        for kind, served in state.servers.items():
            m = served.server.maintainer
            updates = m.incremental_applies + m.full_rebuilds
            out[f"dynamic.incremental_frac.{kind}"] = (
                m.incremental_applies / updates if updates else 0.0,
                "fraction", "updates", updates,
            )
        return out


def _page_name(kind: str):
    def name(phase: str) -> str:
        return f"page.{kind}" if phase == "setup" else f"dynamic.page.{kind}"

    return name


class _Served:
    def __init__(self, server, client, hook, packet_reads_per_query: float) -> None:
        self.server = server
        self.client = client
        self.hook = hook
        #: Mean hook calls (packet reads: probe, index, data) per query in
        #: the warm-up; scales the drawn trigger position to the cycle.
        self.packet_reads_per_query = packet_reads_per_query


class _State:
    def __init__(self, sites, subdivision) -> None:
        self.sites = sites
        self.subdivision = subdivision
        self.servers = {}
        self.reads = 0
        self.tuning = 0
        self.latency = 0.0
        self.wasted = 0
        self.retried = 0
