"""The discrete-event channel simulator: workloads over a lossy channel.

:class:`ChannelSimulator` drives an
:class:`~repro.simulation.client.UnreliableBroadcastClient` through a
whole workload and reduces the per-query outcomes to a
:class:`~repro.simulation.report.SimulationReport`.  It accepts any
paged index satisfying the :class:`~repro.broadcast.packets.PagedIndex`
protocol — all four registered :class:`~repro.engine.AirIndex` families
run under *identical* fault schedules because the error model's rng is
reseeded per run from the workload seed, independently of the index.

A run is batched where that changes nothing: the whole workload is
traced once through the family's compiled tracer
(:func:`~repro.engine.batched_trace` with its search paths), and the
client walks each query from its path slice
(:meth:`~repro.broadcast.access.AccessClient.walk_path`), in issue
order, writing outcomes straight into the report's arrays.  Loss draws,
cache updates and arithmetic are those of a per-query
``client.query(point, t)`` loop, so the report is bit-for-bit the one
that loop would give.  Tracing ahead of walking has one visible edge: a
workload with a point the index rejects raises its ``QueryError``
before any query has walked, so the client's cache is left untouched.

Determinism contract: ``run(...)`` with the same seed (and the same
simulator configuration) produces an identical report, bit for bit —
issue times come from ``random.Random(seed)`` (the same stream the
batched :class:`~repro.engine.QueryEngine` uses, so the zero-error
property test can compare elementwise) and channel randomness from a
stream derived from the seed but not shared with it.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import BroadcastError
from repro.obs import active_collector, null_span
from repro.broadcast.packets import PagedIndex
from repro.broadcast.params import SystemParameters
from repro.broadcast.plan import workload_timeline
from repro.engine.batch import workload_points
from repro.engine.trace import batched_trace
from repro.simulation.client import UnreliableBroadcastClient
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import ErrorModel, make_error_model
from repro.simulation.policies import RecoveryPolicy
from repro.simulation.report import SimulationReport


class ChannelSimulator:
    """Simulates one (paged index, schedule) pair under channel faults."""

    def __init__(
        self,
        paged_index: PagedIndex,
        schedule,
        *,
        error_model: Optional[ErrorModel] = None,
        policy: Union[str, RecoveryPolicy] = "retry-next-segment",
        energy_model: Optional[EnergyModel] = None,
        cache_packets: int = 0,
        index_kind: str = "?",
    ) -> None:
        self.client = UnreliableBroadcastClient(
            paged_index,
            schedule,
            error_model=error_model,
            policy=policy,
            energy_model=energy_model,
            cache_packets=cache_packets,
        )
        self.index_kind = index_kind

    def run_workload(
        self,
        workload,
        *,
        issue_times: Optional[Sequence[float]] = None,
        seed: int = 0,
        rng=None,
    ) -> SimulationReport:
        """Simulate *workload* under the shared keyword-only workload
        signature (see :func:`repro.broadcast.client.run_workload`).

        ``rng`` injects the issue-time stream; without it the stream is
        ``random.Random(seed)``, the exact stream of the batched engine.
        """
        return self.run(workload, issue_times=issue_times, seed=seed, rng=rng)

    def run(
        self,
        workload,
        issue_times: Optional[Sequence[float]] = None,
        seed: int = 0,
        rng=None,
    ) -> SimulationReport:
        """Simulate every query of *workload*.

        Issue times default to uniform-random instants from
        ``random.Random(seed)`` — the exact stream of the batched
        engine's :meth:`~repro.engine.QueryEngine.run`.  The channel's
        rng is re-derived from the seed, so repeated calls with one seed
        replay the identical fault schedule.
        """
        points = workload_points(workload)
        n = len(points)
        if n == 0:
            raise BroadcastError("need at least one query point")
        if issue_times is None:
            if rng is None:
                rng = random.Random(seed)
            issue_times = [
                rng.uniform(0, self.client.cycle_length) for _ in range(n)
            ]
        elif len(issue_times) != n:
            raise BroadcastError(
                f"{len(issue_times)} issue times for {n} query points"
            )
        # Independent, reproducible channel stream: a fresh rng seeded
        # from the run seed but offset so it never mirrors issue times.
        client = self.client
        client.error_model.reset(random.Random(f"channel:{seed}"))

        col = active_collector()
        span = col.span if col is not None else null_span
        if col is not None:
            col.count("sim.runs")
            col.count(f"sim.index.{self.index_kind}.queries", n)
            col.observe("sim.batch_size", n)
        times = np.asarray(issue_times, np.float64)
        latency = np.empty(n, np.float64)
        tuning = np.empty(n, np.int64)
        losses = np.empty(n, np.int64)
        with span("sim.run"):
            with span("sim.trace"):
                traces = batched_trace(client.paged_index, points, paths=True)
            with span("sim.walk"):
                walk = client.walk_path
                packets = traces.path_packets.tolist()
                bounds = traces.path_start.tolist()
                for i, (region, lo, hi, t) in enumerate(zip(
                    traces.region_ids.tolist(), bounds, bounds[1:], times.tolist()
                )):
                    latency[i], tuning[i], losses[i] = walk(
                        region, packets[lo:hi], t
                    )
        return SimulationReport(
            index_kind=self.index_kind,
            policy=client.policy.name,
            error_model=repr(client.error_model),
            issue_times=times,
            region_ids=traces.region_ids,
            access_latency=latency,
            tuning_time=tuning,
            energy_joules=client.energy_model.batch_joules(
                tuning, latency, client.schedule.params.packet_capacity
            ),
            packet_losses=losses,
            # Under loss the tuning time is the read-attempt count.
            read_attempts=tuning.copy(),
        )


def simulate_workload(
    paged_index: PagedIndex,
    region_ids: Sequence[int],
    params: SystemParameters,
    workload,
    *,
    error_rate: float = 0.0,
    error_model: Union[str, ErrorModel] = "bernoulli",
    mean_burst: float = 4.0,
    policy: Union[str, RecoveryPolicy] = "retry-next-segment",
    energy_model: Optional[EnergyModel] = None,
    cache_packets: int = 0,
    seed: int = 0,
    m: Optional[int] = None,
    schedule=None,
    plan=None,
    index_kind: str = "?",
) -> SimulationReport:
    """Faulty-channel counterpart of :func:`repro.engine.evaluate_workload`.

    Builds the flat (1, m) schedule unless one is provided, instantiates
    the error model by name at *error_rate*, and runs the whole workload
    through the :class:`ChannelSimulator`.  Pass ``plan=`` (a
    :class:`~repro.broadcast.plan.BroadcastPlan`) to simulate a
    multi-channel broadcast instead of a single timeline.
    """
    points = workload_points(workload)
    if not points:
        raise BroadcastError("need at least one query point")
    schedule = workload_timeline(paged_index, region_ids, params, m, schedule, plan)
    if isinstance(error_model, str):
        error_model = make_error_model(error_model, error_rate, mean_burst)
    simulator = ChannelSimulator(
        paged_index,
        schedule,
        error_model=error_model,
        policy=policy,
        energy_model=energy_model,
        cache_packets=cache_packets,
        index_kind=index_kind,
    )
    return simulator.run(points, seed=seed)
