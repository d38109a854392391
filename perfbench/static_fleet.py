"""static-fleet: error-free point queries through the batched engine.

Each step hands every family one chunk of ``UniformFleetWorkload``
queries and runs the fleet's engine-mode chunk evaluation on it —
workload chunk, ``QueryEngine.run``, energy, report fold — the same
calls ``repro.fleet`` makes per chunk, with ``workers=1``.
"""

from __future__ import annotations

import numpy as np

from repro.engine import QueryEngine
from repro.errors import QueryError
from repro.fleet import FleetReport, UniformFleetWorkload
from repro.geometry.kernels import point_coords
from repro.simulation import EnergyModel

from perfbench.common import Workload, build_families, generate_dataset
from perfbench.harness import Accounting, oracle_regions, raising_points

#: Query index the warm-up chunk starts at: far beyond any timed chunk.
WARMUP_START = 1 << 40


class StaticFleet(Workload):
    name = "static-fleet"

    #: Steps per second of ``--seconds``: the work of a run, sized to the
    #: reference machine (2-vCPU Xeon VM, 115 to 190 ms a step).
    steps_per_second = 10
    #: A set-up builds four indexes over 1000 regions (4 to 7 s), so
    #: fewer repeats than the smaller workloads make.
    setup_reps = 3

    def __init__(self, seed: int, regions: int = 1000, chunk: int = 3000,
                 warmup: int = 2000) -> None:
        self.seed = seed
        self.regions = regions
        self.chunk = chunk
        self.warmup = warmup

    # -- set-up ---------------------------------------------------------------

    def setup(self, tracer):
        dataset = generate_dataset(self.regions, tracer)
        subdivision = dataset.subdivision
        families = build_families(subdivision, tracer)
        energy = EnergyModel()
        state = _State(subdivision, families, energy)
        for kind, fam in families.items():
            fam.engine = QueryEngine(fam.paged, fam.schedule)
            fam.workload = UniformFleetWorkload(
                subdivision.service_area, fam.schedule.cycle_length,
                seed=self.seed,
            )
            fam.report = FleetReport(
                mode="engine", index_kind=kind, policy="none",
                error_model="error-free",
            )
            fam.run_span = f"engine.run.{kind}"
            with tracer.span(f"engine.compile.{kind}"):
                points, times = fam.workload.chunk(WARMUP_START, self.warmup)
                fam.engine.run(points, issue_times=times)
        return state

    # -- the closed loop --------------------------------------------------------

    def step(self, state, index, tracer):
        span = tracer.span
        start = index * self.chunk
        out = []
        for fam in state.families.values():
            with span("fleet.workload.chunk"):
                points, times = fam.workload.chunk(start, self.chunk)
            try:
                with span(fam.run_span):
                    result = fam.engine.run(points, issue_times=times)
            except QueryError:
                out.append((fam, points, None))
                continue
            tuning = result.total_tuning_time
            with span("simulation.energy"):
                energy = state.energy.batch_joules(
                    tuning, result.access_latency, fam.params.packet_capacity
                )
            with span("fleet.report.fold"):
                fam.report.observe_chunk(
                    index, result.region_ids, result.access_latency, tuning,
                    energy, losses=0, attempts=int(np.sum(tuning)),
                    keep_answers=False,
                )
            out.append((fam, points, result))
        return out

    def check(self, state, index, outcome, acct: Accounting):
        # Every family's chunk draws the same coordinates (one Philox
        # stream per seed; only issue times scale with the cycle).
        xs, ys = point_coords(outcome[0][1])
        expected = oracle_regions(state.subdivision, xs, ys)
        answered = 0
        for fam, points, result in outcome:
            if result is None:
                acct.raised_unit(len(points), raising_points(fam.paged, xs, ys))
                continue
            acct.answers(result.region_ids, expected, xs, ys, state.subdivision)
            state.index_packets[fam.kind] += int(np.sum(result.index_tuning_time))
            state.queries[fam.kind] += len(result)
            answered += len(result)
        return answered, answered

    # -- results ----------------------------------------------------------------

    def paper_metrics(self, state):
        answered = sum(state.queries.values())
        tuning = sum(f.report.metrics["tuning_time"].total for f in state.families.values())
        latency = sum(f.report.metrics["access_latency"].total for f in state.families.values())
        return {
            "tuning_packets_mean": tuning / answered,
            "latency_packets_mean": latency / answered,
        }

    def layer_counts(self, state, counters):
        return {
            f"engine.index_packets_per_query.{kind}": (
                state.index_packets[kind] / max(state.queries[kind], 1),
                "packets", "queries", state.queries[kind],
            )
            for kind in state.families
        }


class _State:
    def __init__(self, subdivision, families, energy) -> None:
        self.subdivision = subdivision
        self.families = families
        self.energy = energy
        self.queries = {kind: 0 for kind in families}
        self.index_packets = {kind: 0 for kind in families}
