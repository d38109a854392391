"""Integration tests for the fleet layer: chunk-size and worker-count
invariance, shared-memory fan-out, compensated energy totals and
profile merging.  The single-process runner is the oracle every
multi-process configuration is compared against."""

import math
import os
import pickle
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import BroadcastSchedule
from repro.engine import QueryEngine, index_family
from repro.errors import ReproError
from repro.fleet import (
    FleetRunner,
    FleetSpec,
    ShmArena,
    UniformFleetWorkload,
    run_fleet,
    spawned_seed,
)
from repro.fleet.shm import export_compiled_state
from repro.geometry.kernels import PointBatch, point_coords
from repro.geometry.point import Point
from repro.obs import collecting
from repro.datasets.catalog import SERVICE_AREA, uniform_dataset

INDEX_KINDS = ("dtree", "trian", "trap", "rstar")


@pytest.fixture(scope="module")
def fleet_world():
    """One small dataset with a paged index, schedule and spec per kind."""
    dataset = uniform_dataset(n=40, seed=5)
    world = {}
    for kind in INDEX_KINDS:
        family = index_family(kind)
        params = family.parameters(256)
        paged = family.build(dataset.subdivision, seed=5).page(params)
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(dataset.subdivision.region_ids),
            params=params,
        )
        world[kind] = (paged, schedule, params)
    return dataset, world


def _spec(fleet_world, kind="dtree", mode="engine", **kwargs):
    _, world = fleet_world
    paged, schedule, params = world[kind]
    workload = UniformFleetWorkload(SERVICE_AREA, schedule.cycle_length, seed=9)
    return FleetSpec(
        paged_index=paged,
        schedule=schedule,
        params=params,
        workload=workload,
        mode=mode,
        index_kind=kind,
        **kwargs,
    )


class TestWorkload:
    def test_chunking_is_transparent(self):
        workload = UniformFleetWorkload(SERVICE_AREA, 1000, seed=3)
        whole_pts, whole_times = workload.chunk(0, 500)
        left_pts, left_times = workload.chunk(0, 179)
        right_pts, right_times = workload.chunk(179, 321)
        assert whole_pts == left_pts + right_pts
        np.testing.assert_array_equal(
            whole_times, np.concatenate([left_times, right_times])
        )

    def test_points_inside_area_and_times_in_cycle(self):
        workload = UniformFleetWorkload(SERVICE_AREA, 640, seed=0)
        points, times = workload.chunk(0, 300)
        for p in points:
            assert SERVICE_AREA.contains_point(p)
        assert np.all(times >= 0) and np.all(times < 640)

    def test_spawned_seed_deterministic_and_distinct(self):
        seeds = [spawned_seed(7, k) for k in range(50)]
        assert seeds == [spawned_seed(7, k) for k in range(50)]
        assert len(set(seeds)) == 50


class TestPointBatch:
    """``chunk`` returns an array-backed ``PointBatch``: the tracers read
    its arrays directly, scalar consumers see the same points a list
    would hold."""

    def test_chunk_split_is_bit_exact(self):
        workload = UniformFleetWorkload(SERVICE_AREA, 1000, seed=3)
        whole, _ = workload.chunk(0, 500)
        left, _ = workload.chunk(0, 179)
        right, _ = workload.chunk(179, 321)
        joined = left + right
        assert isinstance(joined, PointBatch)
        for name in ("xs", "ys"):
            got = getattr(joined, name).view(np.uint64)
            want = getattr(whole, name).view(np.uint64)
            np.testing.assert_array_equal(got, want)

    def test_point_coords_returns_the_batch_arrays(self):
        batch, _ = UniformFleetWorkload(SERVICE_AREA, 640, seed=1).chunk(0, 64)
        xs, ys = point_coords(batch)
        assert xs is batch.xs and ys is batch.ys
        assert not xs.flags.writeable and not ys.flags.writeable

    def test_iteration_yields_the_list_points(self):
        batch, _ = UniformFleetWorkload(SERVICE_AREA, 640, seed=2).chunk(5, 200)
        # The list the chunk used to return, built from the same draws.
        listed = [
            Point(float(x), float(y)) for x, y in zip(batch.xs, batch.ys)
        ]
        points = list(batch)
        assert all(type(p) is Point for p in points)
        assert points == listed
        assert batch == listed and listed == batch
        assert [batch[i] for i in range(-3, 3)] == listed[-3:] + listed[:3]
        assert batch[10:20] == listed[10:20]
        assert listed[:7] + batch[7:] == listed
        assert pickle.loads(pickle.dumps(batch)) == batch

    def test_simulate_mode_same_for_batch_and_list(self, fleet_world):
        class ListWorkload(UniformFleetWorkload):
            def chunk(self, start, size):
                points, times = super().chunk(start, size)
                return list(points), times

        spec = _spec(fleet_world, mode="simulate", error_rate=0.1)
        listed = _spec(fleet_world, mode="simulate", error_rate=0.1)
        workload = spec.workload
        listed.workload = ListWorkload(
            workload.area, workload.cycle_length, seed=workload.seed
        )
        got = FleetRunner(spec, chunk_size=150).run(450)
        want = FleetRunner(listed, chunk_size=150).run(450)
        assert got.losses == want.losses > 0
        assert got.attempts == want.attempts
        np.testing.assert_array_equal(
            got.merged_answers(), want.merged_answers()
        )
        assert got.summary() == want.summary()


class TestShmArena:
    def test_round_trip_and_zero_copy(self):
        arrays = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0, 1, 37, dtype=np.float64),
        }
        arena = ShmArena.create(arrays)
        try:
            attached = ShmArena.attach(arena.shm.name, arena.manifest)
            try:
                for name, src in arrays.items():
                    view = attached.view(name)
                    np.testing.assert_array_equal(view, src)
                    assert view.dtype == src.dtype
                # Zero-copy: writes through one mapping are visible in
                # the other because both alias the same shared block.
                arena.view("a")[0] = -1
                assert attached.view("a")[0] == -1
            finally:
                attached.close()
        finally:
            arena.close()
            arena.unlink()

    def test_export_compiled_state_dtree(self, fleet_world):
        _, world = fleet_world
        paged, schedule, _ = world["dtree"]
        engine = QueryEngine(paged, schedule)
        arrays, meta = export_compiled_state(paged, engine)
        assert meta["family"] == "dtree"
        assert any(name.startswith("dtree.") for name in arrays)
        assert "schedule.segment_starts" in arrays

    @pytest.mark.parametrize("kind", ("trap", "trian"))
    def test_export_compiled_state_trap_trian(self, fleet_world, kind):
        _, world = fleet_world
        paged, schedule, _ = world[kind]
        engine = QueryEngine(paged, schedule)
        arrays, meta = export_compiled_state(paged, engine)
        assert meta["family"] == kind
        assert any(name.startswith(f"{kind}.") for name in arrays)
        assert "schedule.segment_starts" in arrays


    def test_export_compiled_state_rstar(self, fleet_world):
        _, world = fleet_world
        paged, schedule, _ = world["rstar"]
        arrays, meta = export_compiled_state(paged, QueryEngine(paged, schedule))
        assert meta == {"family": "rstar", "index_version": 0}
        assert "rstar.entry_rank" in arrays and "rstar.all_ax" in arrays


class TestEngineModeDeterminism:
    def test_answers_invariant_to_chunk_size(self, fleet_world):
        spec = _spec(fleet_world)
        whole = FleetRunner(spec, chunk_size=1200).run(1200)
        chunked = FleetRunner(spec, chunk_size=173).run(1200)
        np.testing.assert_array_equal(
            whole.merged_answers(), chunked.merged_answers()
        )
        assert whole.queries == chunked.queries == 1200
        # Sums may differ in grouping, so only to float tolerance.
        for key, value in whole.summary().items():
            assert chunked.summary()[key] == pytest.approx(
                value, rel=1e-12, nan_ok=True
            )

    def test_worker_count_invariance_fork(self, fleet_world):
        spec = _spec(fleet_world)
        solo = FleetRunner(spec, chunk_size=300).run(1500)
        fanned = FleetRunner(
            spec, chunk_size=300, workers=3, start_method="fork"
        ).run(1500)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        s1, s3 = solo.summary(), fanned.summary()
        for key in s1:
            assert s1[key] == s3[key] or (
                math.isnan(s1[key]) and math.isnan(s3[key])
            )

    def test_worker_count_invariance_spawn(self, fleet_world):
        spec = _spec(fleet_world)
        solo = FleetRunner(spec, chunk_size=250).run(750)
        fanned = FleetRunner(
            spec, chunk_size=250, workers=2, start_method="spawn"
        ).run(750)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        assert solo.summary() == fanned.summary()

    def test_fleet_matches_monolithic_engine_all_families(self, fleet_world):
        dataset, world = fleet_world
        for kind in INDEX_KINDS:
            spec = _spec(fleet_world, kind=kind)
            report = FleetRunner(spec, chunk_size=160).run(480)
            points, times = spec.workload.chunk(0, 480)
            paged, schedule, params = world[kind]
            result = QueryEngine(paged, schedule).run(points, issue_times=times)
            np.testing.assert_array_equal(
                report.merged_answers(), result.region_ids, err_msg=kind
            )
            assert report.metrics["access_latency"].total == pytest.approx(
                float(np.sum(result.access_latency)), rel=1e-12
            )

    def test_energy_total_matches_fsum_oracle(self, fleet_world):
        spec = _spec(fleet_world)
        report = FleetRunner(spec, chunk_size=100).run(1100)
        points, times = spec.workload.chunk(0, 1100)
        paged, schedule, params = spec.paged_index, spec.schedule, spec.params
        result = QueryEngine(paged, schedule).run(points, issue_times=times)
        energy = spec.energy_model.batch_joules(
            result.total_tuning_time,
            result.access_latency,
            params.packet_capacity,
        )
        oracle = math.fsum(float(v) for v in energy)
        assert report.metrics["energy_joules"].total == pytest.approx(
            oracle, rel=1e-13
        )


class TestTrapTrianWorkerParity:
    """The compiled trap/trian state fans out through the arena with
    exact worker-count invariance: answers array-exact, every summary
    float bit-identical, under both start methods."""

    @pytest.mark.parametrize("kind", ("trap", "trian"))
    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_workers_1_vs_8(self, fleet_world, kind, start_method):
        spec = _spec(fleet_world, kind=kind)
        solo = FleetRunner(spec, chunk_size=100).run(800)
        fanned = FleetRunner(
            spec, chunk_size=100, workers=8, start_method=start_method
        ).run(800)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        s1, s8 = solo.summary(), fanned.summary()
        for key in s1:
            assert s1[key] == s8[key] or (
                math.isnan(s1[key]) and math.isnan(s8[key])
            ), key


class TestRStarWorkerParity:
    """The flat R*-tree arrays fan out through the arena: workers attach
    them without rebuilding any node graph, answers array-exact."""

    @pytest.mark.parametrize("start_method", ("fork", "spawn"))
    def test_workers_1_vs_2(self, fleet_world, start_method):
        spec = _spec(fleet_world, kind="rstar")
        solo = FleetRunner(spec, chunk_size=200).run(800)
        fanned = FleetRunner(
            spec, chunk_size=200, workers=2, start_method=start_method
        ).run(800)
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        assert solo.summary() == fanned.summary()


class TestSimulateModeDeterminism:
    @pytest.mark.parametrize("cache_packets", (0, 16))
    def test_lossy_parity_across_workers(self, fleet_world, cache_packets):
        """With a cache, each chunk's client must start cold: a cache
        warmed by the worker's previous chunk would tie the results to
        the chunk-to-worker mapping."""
        spec = _spec(
            fleet_world,
            mode="simulate",
            error_rate=0.1,
            error_model_name="bernoulli",
            cache_packets=cache_packets,
        )
        solo = FleetRunner(spec, chunk_size=200).run(800)
        fanned = FleetRunner(
            spec, chunk_size=200, workers=3, start_method="fork"
        ).run(800)
        assert solo.losses == fanned.losses > 0
        assert solo.attempts == fanned.attempts
        np.testing.assert_array_equal(
            solo.merged_answers(), fanned.merged_answers()
        )
        assert solo.summary() == fanned.summary()

    def test_seeded_rerun_is_identical(self, fleet_world):
        spec = _spec(fleet_world, mode="simulate", error_rate=0.08)
        first = FleetRunner(spec, chunk_size=150).run(450)
        second = FleetRunner(spec, chunk_size=150).run(450)
        assert first.losses == second.losses
        assert first.summary() == second.summary()


class TestProfileMerge:
    def test_collector_counters_invariant_to_workers(self, fleet_world):
        spec = _spec(fleet_world)
        with collecting() as solo_col:
            FleetRunner(spec, chunk_size=300).run(900)
        with collecting() as fan_col:
            FleetRunner(
                spec, chunk_size=300, workers=2, start_method="fork"
            ).run(900)
        assert solo_col.counters["fleet.queries"] == 900
        assert solo_col.counters["fleet.chunks"] == 3
        assert solo_col.counters["engine.queries"] == 900
        for name in ("fleet.queries", "fleet.chunks", "engine.queries",
                     "engine.runs"):
            assert solo_col.counters[name] == fan_col.counters[name], name


class TestRunnerEdges:
    def test_zero_queries(self, fleet_world):
        report = FleetRunner(_spec(fleet_world)).run(0)
        assert report.queries == 0
        assert report.merged_answers().size == 0

    def test_negative_queries_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            FleetRunner(_spec(fleet_world)).run(-1)

    def test_bad_chunk_size_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            FleetRunner(_spec(fleet_world), chunk_size=0)

    def test_bad_worker_count_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            FleetRunner(_spec(fleet_world), workers=0)

    def test_bad_mode_rejected(self, fleet_world):
        with pytest.raises(ReproError):
            _spec(fleet_world, mode="nonsense")

    def test_keep_answers_false_drops_parity_arrays(self, fleet_world):
        spec = _spec(fleet_world, keep_answers=False)
        report = FleetRunner(spec, chunk_size=100).run(300)
        assert report.queries == 300
        assert report.merged_answers().size == 0

    def test_spec_pickles_for_every_family(self, fleet_world):
        for kind in INDEX_KINDS:
            spec = _spec(fleet_world, kind=kind)
            clone = pickle.loads(pickle.dumps(spec))
            assert clone.index_kind == kind
            assert clone.schedule.cycle_length == spec.schedule.cycle_length


class TestRunFleetEndToEnd:
    def test_run_fleet_quickstart(self):
        report = run_fleet(
            400, index_kind="dtree", regions=30, chunk_size=100, seed=2
        )
        assert report.queries == 400
        assert report.chunk_count == 4
        assert report.mode == "engine"
        assert report.elapsed_seconds is not None
        s = report.summary()
        assert s["latency_mean"] > 0 and s["energy_j_mean"] > 0


class _WorkerKillingWorkload(UniformFleetWorkload):
    """Chunks of the usual stream, except that the chunk starting at
    ``kill_start`` SIGKILLs the process evaluating it."""

    kill_start = 100

    def chunk(self, start, size):
        if start == self.kill_start:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().chunk(start, size)


class TestKilledWorker:
    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
    def test_killed_worker_fails_the_run_and_unlinks_the_arena(
        self, fleet_world, monkeypatch
    ):
        spec = _spec(fleet_world)
        spec.workload = _WorkerKillingWorkload(
            SERVICE_AREA, spec.schedule.cycle_length, seed=9
        )
        created = []
        create = ShmArena.create

        def recording_create(arrays):
            arena = create(arrays)
            created.append(arena.shm.name)
            return arena

        monkeypatch.setattr(ShmArena, "create", recording_create)

        def hung(signum, frame):
            raise TimeoutError("fleet run hung on a killed worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ReproError, match="worker died"):
                FleetRunner(
                    spec, chunk_size=100, workers=2, start_method="fork"
                ).run(400)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0])

