"""lossy-fleet: the same point traffic through the faulty-channel simulator.

Each step hands every family one chunk of ``UniformFleetWorkload``
queries and runs the fleet's simulate-mode chunk evaluation on it:
``ChannelSimulator.run`` (the scalar per-query client of
``repro.simulation``) under bursty Gilbert–Elliott loss, the
``retry-next-segment`` policy and a packet cache smaller than every
index, then the report fold.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.fleet import FleetReport, UniformFleetWorkload, spawned_seed
from repro.geometry.kernels import point_coords
from repro.simulation import ChannelSimulator, make_error_model

from perfbench.common import Workload, build_families, generate_dataset
from perfbench.harness import Accounting, oracle_regions, raising_points

WARMUP_START = 1 << 40
ERROR_MODEL = "gilbert"
ERROR_RATE = 0.05
MEAN_BURST = 4.0
POLICY = "retry-next-segment"
#: Index packets the client may cache: fewer than the smallest index
#: (32 packets for the D-tree at 200 regions), so the cache evicts.
CACHE_PACKETS = 16


class LossyFleet(Workload):
    name = "lossy-fleet"

    #: Steps per second of ``--seconds``: the work of a run, sized to the
    #: reference machine (2-vCPU Xeon VM, 85 to 150 ms a step).
    steps_per_second = 10

    def __init__(self, seed: int, regions: int = 200, chunk: int = 500,
                 warmup: int = 200, cache_packets: int = CACHE_PACKETS) -> None:
        self.seed = seed
        self.regions = regions
        self.chunk = chunk
        self.warmup = warmup
        self.cache_packets = cache_packets

    def setup(self, tracer):
        dataset = generate_dataset(self.regions, tracer)
        subdivision = dataset.subdivision
        families = build_families(subdivision, tracer)
        for kind, fam in families.items():
            if len(fam.paged.packets) <= self.cache_packets:
                raise ValueError(
                    f"{kind} index has {len(fam.paged.packets)} packets; the "
                    f"{self.cache_packets}-packet cache would never evict"
                )
            fam.simulator = ChannelSimulator(
                fam.paged, fam.schedule,
                error_model=make_error_model(ERROR_MODEL, ERROR_RATE, MEAN_BURST),
                policy=POLICY, cache_packets=self.cache_packets, index_kind=kind,
            )
            fam.workload = UniformFleetWorkload(
                subdivision.service_area, fam.schedule.cycle_length,
                seed=self.seed,
            )
            fam.report = FleetReport(mode="simulate", index_kind=kind)
            fam.run_span = f"simulation.run.{kind}"
            with tracer.span(f"warmup.{kind}"):
                points, times = fam.workload.chunk(WARMUP_START, self.warmup)
                fam.simulator.run(points, issue_times=times, seed=self.seed)
        return _State(subdivision, families)

    def step(self, state, index, tracer):
        span = tracer.span
        start = index * self.chunk
        channel_seed = spawned_seed(self.seed, index)
        out = []
        for fam in state.families.values():
            with span("fleet.workload.chunk"):
                points, times = fam.workload.chunk(start, self.chunk)
            try:
                with span(fam.run_span):
                    sim = fam.simulator.run(
                        points, issue_times=times, seed=channel_seed
                    )
            except QueryError:
                out.append((fam, points, None))
                continue
            with span("fleet.report.fold"):
                fam.report.observe_chunk(
                    index, sim.region_ids, sim.access_latency, sim.tuning_time,
                    sim.energy_joules, losses=sim.total_losses,
                    attempts=int(np.sum(sim.read_attempts)), keep_answers=False,
                )
            out.append((fam, points, sim))
        return out

    def check(self, state, index, outcome, acct: Accounting):
        xs, ys = point_coords(outcome[0][1])
        expected = oracle_regions(state.subdivision, xs, ys)
        answered = 0
        for fam, points, sim in outcome:
            if sim is None:
                acct.raised_unit(len(points), raising_points(fam.paged, xs, ys))
                continue
            acct.answers(sim.region_ids, expected, xs, ys, state.subdivision)
            answered += len(sim.region_ids)
        state.queries += answered
        return answered, answered

    def paper_metrics(self, state):
        reports = [f.report for f in state.families.values()]
        answered = state.queries
        return {
            # Read attempts: every packet received, lost or not, retries
            # included — the paper's energy metric under loss.
            "tuning_packets_mean": sum(r.metrics["tuning_time"].total for r in reports) / answered,
            "latency_packets_mean": sum(r.metrics["access_latency"].total for r in reports) / answered,
        }

    def layer_counts(self, state, c):
        queries = c.get("sim.queries", 0)
        attempts = c.get("sim.read_attempts", 0)
        hits = c.get("sim.cache.hits", 0)
        lookups = hits + c.get("sim.cache.misses", 0)
        return {
            "sim.useful_read_frac": (
                1.0 - c.get("sim.losses", 0) / attempts if attempts else 0.0,
                "fraction", "sim.read_attempts", attempts,
            ),
            "sim.retries_per_query": (
                c.get("sim.retries", 0) / queries if queries else 0.0,
                "1/query", "sim.queries", queries,
            ),
            "sim.fallbacks_per_query": (
                c.get("sim.fallbacks", 0) / queries if queries else 0.0,
                "1/query", "sim.queries", queries,
            ),
            "sim.cache.hit_frac": (
                hits / lookups if lookups else 0.0,
                "fraction", "sim.cache.lookups", lookups,
            ),
        }


class _State:
    def __init__(self, subdivision, families) -> None:
        self.subdivision = subdivision
        self.families = families
        self.queries = 0
