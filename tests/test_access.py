"""The one access walk (repro.broadcast.access) across its configurations:
counters on every error-free path, the skewed schedule's timeline
contract, and where a retry after version skew may start."""

import random

import pytest

from repro.broadcast import (
    BroadcastClient,
    BroadcastPlan,
    CachingBroadcastClient,
    ChannelHoppingClient,
    SkewedBroadcastSchedule,
    SystemParameters,
)
from repro.datasets.catalog import SERVICE_AREA
from repro.dynamic import (
    DynamicBroadcastClient,
    DynamicBroadcastServer,
    churn_sites,
    diff_subdivisions,
    sites_subdivision,
)
from repro.engine import INDEX_REGISTRY
from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.obs import collecting

from tests.conftest import random_points_in


class TestOneCounterSet:
    def test_cached_k1_clients_emit_the_same_counters(self, voronoi60):
        family = INDEX_REGISTRY["dtree"]
        params = family.parameters()
        paged = family.build(voronoi60, seed=7).page(params)
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params, channels=1
        )
        points = random_points_in(voronoi60, 200, seed=11)
        rng = random.Random(12)
        times = [rng.uniform(0, plan.cycle_length) for _ in points]

        runs = []
        for client in (
            CachingBroadcastClient(paged, plan, cache_packets=8),
            ChannelHoppingClient(paged, plan, cache_packets=8),
        ):
            with collecting() as col:
                results = client.run_session(points, times)
            runs.append((
                [
                    (r.region_id, r.access_latency, r.total_tuning_time)
                    for r in results
                ],
                dict(col.counters),
            ))
        (answers_a, counters_a), (answers_b, counters_b) = runs
        assert answers_a == answers_b
        assert counters_a["client.queries"] == len(points)
        assert counters_a == counters_b


class TestWalkPath:
    """The path-fed entry of the walk gives what ``query`` gives for the
    same point on the error-free paths too (the lossy simulator's use is
    covered in tests/test_simulation.py)."""

    @pytest.mark.parametrize("channels", (1, 2))
    def test_matches_query_on_error_free_clients(self, voronoi60, channels):
        family = INDEX_REGISTRY["dtree"]
        params = family.parameters()
        paged = family.build(voronoi60, seed=7).page(params)
        plan = BroadcastPlan(
            len(paged.packets), voronoi60.region_ids, params,
            channels=channels, index_placement="distributed",
        )
        points = random_points_in(voronoi60, 120, seed=4)
        rng = random.Random(5)
        times = [rng.uniform(0, plan.cycle_length) for _ in points]
        for make in (
            lambda: ChannelHoppingClient(paged, plan),
            lambda: ChannelHoppingClient(paged, plan, cache_packets=8),
        ):
            by_query, by_path = make(), make()
            for point, t in zip(points, times):
                want = by_query.query(point, t)
                trace = paged.trace(point)
                path = list(dict.fromkeys(trace.packets_accessed))
                assert by_path.walk_path(trace.region_id, path, t) == (
                    want.access_latency, want.total_tuning_time, 0
                )


class TestSkewedSegmentForOffset:
    def test_matches_brute_force_scan(self):
        params = SystemParameters(packet_capacity=1024)
        weights = {rid: 1.0 + (rid % 5) ** 2 for rid in range(12)}
        schedule = SkewedBroadcastSchedule(5, weights, params, m=3)
        length = schedule.cycle_length
        rng = random.Random(3)
        for _ in range(500):
            time = rng.uniform(-length, 3 * length)
            if rng.random() < 0.3:
                time = float(round(time))  # exact slot boundaries
            offset = rng.randrange(schedule.index_packet_count)
            starts = [
                c * length + s
                for c in range(-3, 5)
                for s in schedule.index_segment_starts
            ]
            want = min(s for s in starts if s + offset >= time)
            assert schedule.segment_for_offset(offset, time) == want

    def test_negative_offset_rejected(self):
        schedule = SkewedBroadcastSchedule(
            2, {0: 1.0, 1: 4.0}, SystemParameters(packet_capacity=1024)
        )
        with pytest.raises(BroadcastError):
            schedule.segment_for_offset(-1, 0.0)

    def test_cached_client_runs_on_a_skewed_schedule(self, voronoi60):
        family = INDEX_REGISTRY["dtree"]
        params = family.parameters()
        paged = family.build(voronoi60, seed=7).page(params)
        schedule = SkewedBroadcastSchedule(
            len(paged.packets), {rid: 1.0 for rid in voronoi60.region_ids},
            params,
        )
        client = CachingBroadcastClient(paged, schedule, cache_packets=4)
        rng = random.Random(5)
        for p in random_points_in(voronoi60, 30, seed=6):
            result = client.query(p, rng.uniform(0, schedule.cycle_length))
            assert result.region_id == voronoi60.locate(p)


class TestSkewRetryStart:
    """A retry after skew found on the bucket header starts where the
    skew was seen, not back at the failed attempt's probe."""

    @pytest.mark.parametrize("kind", ["dtree", "rstar"])
    def test_data_stage_retry_starts_at_the_stale_header(self, kind):
        rng = random.Random(41)
        sites = {
            i: Point(rng.uniform(0, 1), rng.uniform(0, 1)) for i in range(60)
        }
        sub0 = sites_subdivision(sites, SERVICE_AREA)
        moved = churn_sites(
            sites, SERVICE_AREA, n_move=2, move_scale=0.05, seed=4
        )
        sub1 = sites_subdivision(moved, SERVICE_AREA)
        batch = diff_subdivisions(sub0, sub1, tolerance=1e-9)

        for trial in range(12):
            server = DynamicBroadcastServer(kind, sub0, packet_capacity=256)
            _, paged0, schedule0 = server.history[0]
            static0 = BroadcastClient(paged0, schedule0)

            def hook(stage, attempt):
                if stage == "data" and attempt == 1:
                    server.apply_updates(sub1, batch)

            client = DynamicBroadcastClient(server, on_packet_read=hook)
            point = sub0.random_points(1, random.Random(trial))[0]
            issue = rng.uniform(0, schedule0.cycle_length)
            stale = static0.query(point, issue)
            stale_start = issue + stale.access_latency - schedule0.bucket_packets

            result = client.query(point, issue)
            assert result.attempts == 2
            assert result.version == 1
            assert result.wasted_tuning == 1 + stale.index_tuning_time + 1
            finish = issue + result.access_latency
            assert finish > stale_start
            # The retry is a fresh walk on the new cycle from the slot
            # the stale header was read in.
            detect = stale_start + 1
            fresh = BroadcastClient(server.paged, server.schedule).query(
                point, detect
            )
            assert finish == detect + fresh.access_latency
