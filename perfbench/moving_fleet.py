"""moving-fleet: predictive continuous-query clients, one trajectory a step.

Each step hands every family the next client's trajectory (alternately
``RandomWaypointWorkload`` and ``BoundaryHuggingWorkload``) and runs its
whole session through ``make_query_client`` + ``evaluate_trajectory``:
scope-exit bounds, re-tune decisions and the scalar broadcast client
with a per-client packet cache.
"""

from __future__ import annotations

from repro.broadcast.caching import CachingBroadcastClient
from repro.broadcast.client import BroadcastClient
from repro.errors import QueryError
from repro.mobility import (
    DEFAULT_KM_PER_UNIT,
    BoundaryHuggingWorkload,
    RandomWaypointWorkload,
    RegionBoundaryIndex,
    default_epoch_slots,
    evaluate_trajectory,
    make_query_client,
    units_per_slot,
)

from perfbench.common import (
    PACKET_CAPACITY,
    Workload,
    build_families,
    generate_dataset,
)
from perfbench.harness import Accounting, oracle_regions, raising_points

SPEED_KMH = (30.0, 90.0)
WAYPOINTS = 3
MAX_EPOCHS = 32
#: Per-client packet cache (survives the client's own re-tunes).
CACHE_PACKETS = 8
#: Client index of the warm-up trajectory: far beyond any timed client.
WARMUP_CLIENT = 1 << 30


class MovingFleet(Workload):
    name = "moving-fleet"

    #: Steps per second of ``--seconds``: the work of a run, sized to the
    #: reference machine (2-vCPU Xeon VM, 7 to 10 ms a step).
    steps_per_second = 120

    def __init__(self, seed: int, regions: int = 200) -> None:
        self.seed = seed
        self.regions = regions

    def setup(self, tracer):
        dataset = generate_dataset(self.regions, tracer)
        subdivision = dataset.subdivision
        families = build_families(subdivision, tracer)
        with tracer.span("mobility.boundary_index"):
            boundary = RegionBoundaryIndex(subdivision)
        speeds = tuple(units_per_slot(s, PACKET_CAPACITY) for s in SPEED_KMH)
        for kind, fam in families.items():
            cycle = fam.schedule.cycle_length
            fam.epoch_slots = default_epoch_slots(cycle)
            fam.workloads = (
                RandomWaypointWorkload(
                    subdivision.service_area, cycle, waypoints=WAYPOINTS,
                    speed_range=speeds, seed=self.seed,
                ),
                BoundaryHuggingWorkload(
                    subdivision, cycle, waypoints=WAYPOINTS,
                    speed_range=speeds, seed=self.seed,
                ),
            )
            fam.eval_span = f"mobility.evaluate.{kind}"
            with tracer.span(f"warmup.{kind}"):
                for workload in fam.workloads:
                    trajectory = workload.chunk(WARMUP_CLIENT, 1)[0]
                    client = make_query_client(
                        fam.paged, fam.schedule, cache_packets=CACHE_PACKETS
                    )
                    try:
                        evaluate_trajectory(
                            trajectory, client, boundary, fam.epoch_slots,
                            predictive=True, max_epochs=MAX_EPOCHS,
                        )
                    except QueryError:
                        pass  # scored only in the timed phase
        return _State(subdivision, families, boundary)

    def step_methods(self, state):
        targets = [
            (RegionBoundaryIndex, "exit_bound", "mobility.exit_bound"),
            (BroadcastClient, "query", "broadcast.client_query"),
            (CachingBroadcastClient, "query", "broadcast.client_query"),
        ]
        for fam in state.families.values():
            targets.append((type(fam.paged), "trace", "broadcast.trace"))
        return targets

    def step(self, state, client, tracer):
        span = tracer.span
        kind_index, number = client % 2, client // 2
        out = []
        for fam in state.families.values():
            with span("mobility.workload.chunk"):
                trajectory = fam.workloads[kind_index].chunk(number, 1)[0]
            try:
                with span(fam.eval_span):
                    query_client = make_query_client(
                        fam.paged, fam.schedule, cache_packets=CACHE_PACKETS
                    )
                    outcome = evaluate_trajectory(
                        trajectory, query_client, state.boundary,
                        fam.epoch_slots, predictive=True, max_epochs=MAX_EPOCHS,
                    )
            except QueryError:
                outcome = None
            out.append((fam, trajectory, outcome))
        return out

    def check(self, state, client, outcome, acct: Accounting):
        epochs = 0
        for fam, trajectory, result in outcome:
            if result is None:
                times = trajectory.epoch_times(fam.epoch_slots, MAX_EPOCHS)
                xs, ys = trajectory.positions_at(times)
                acct.raised_unit(times.size, raising_points(fam.paged, xs, ys))
                epochs += times.size
                state.failed_clients += 1
                continue
            xs, ys = trajectory.positions_at(result.epoch_times)
            acct.answers(
                result.answers, oracle_regions(state.subdivision, xs, ys),
                xs, ys, state.subdivision,
            )
            epochs += result.epochs
            state.epochs += result.epochs
            state.retunes += result.retunes
            state.tuning += result.tuning_sum
            state.latency += result.latency_sum
            state.km += result.distance_units * DEFAULT_KM_PER_UNIT
        state.clients += len(outcome)
        # Each client session through one family is one continuous
        # query.  The re-tunes inside it are the program's own choice, so
        # they do not count: skipping more epochs must not lower the rate.
        return len(outcome), epochs

    def paper_metrics(self, state):
        return {
            # Per epoch: a skipped epoch receives nothing.
            "tuning_packets_mean": state.tuning / state.epochs,
            "latency_packets_mean": state.latency / state.retunes,
        }

    def layer_counts(self, state, counters):
        hits = counters.get("cache.hit", 0)
        lookups = hits + counters.get("cache.miss", 0)
        skips = state.epochs - state.retunes
        return {
            "mobility.skip_frac": (
                skips / state.epochs if state.epochs else 0.0,
                "fraction", "epochs", state.epochs,
            ),
            "mobility.retunes_per_km": (
                state.retunes / state.km if state.km else 0.0,
                "1/km", "km", state.km,
            ),
            "mobility.failed_clients": (
                state.failed_clients, "count", "clients", state.clients,
            ),
            "cache.hit_frac": (
                hits / lookups if lookups else 0.0,
                "fraction", "cache.lookups", lookups,
            ),
        }


class _State:
    def __init__(self, subdivision, families, boundary) -> None:
        self.subdivision = subdivision
        self.families = families
        self.boundary = boundary
        self.clients = 0
        self.failed_clients = 0
        self.epochs = 0
        self.retunes = 0
        self.tuning = 0
        self.latency = 0.0
        self.km = 0.0
