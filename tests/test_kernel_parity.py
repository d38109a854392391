"""End-to-end parity of the kernel tracers with the scalar path.

The vectorized kernel layer must be invisible in the results: for every
index family, :func:`repro.engine.batched_trace` has to agree element
for element with the per-point ``paged.trace`` path — the one oracle —
and :func:`repro.engine.evaluate_workload` has to reproduce the scalar
tracer plus per-query ``rng.uniform`` issue-time draws array-exact.
All four families have dedicated kernel tracers; adversarial boundary
points (region vertices, edge midpoints) ride along everywhere.  For
the trap/trian families the scalar paths can legitimately *reject* a
boundary vertex (``QueryError``) — those points are filtered out of the
parity batches and asserted separately to raise identical errors
through the batched path.
"""

import random

import numpy as np
import pytest

from repro.broadcast.schedule import BroadcastSchedule
from repro.core.paging import PagedDTree
from repro.engine import batched_trace, evaluate_workload, index_family
from repro.engine.batch import QueryEngine, _uniform_issue_times
from repro.engine.trace import (
    _trace_batch_dtree,
    _trace_batch_generic,
    _trace_batch_rstar,
    _trace_batch_trap,
    _trace_batch_trian,
)
from repro.errors import BroadcastError, QueryError
from repro.geometry.kernels import PointBatch, point_coords
from repro.geometry.point import Point
from repro.geometry.predicates import EPS
from repro.geometry.rect import Rect
from repro.rstar.paged import PagedRStarTree, rstar_fanout
from repro.rstar.tree import RStarTree

from tests.conftest import random_points_in
from tests.test_geometry_kernels import adversarial_points

ALL_KINDS = ("dtree", "trian", "trap", "rstar")
KERNEL_KINDS = ALL_KINDS  # every family has a dedicated kernel tracer
#: Families whose scalar tracer may reject boundary points outright.
REJECTING_KINDS = ("trap", "trian")
DATASETS = ("voronoi60", "grid4x4")

_KERNEL_TRACER = {
    "dtree": _trace_batch_dtree,
    "rstar": _trace_batch_rstar,
    "trap": _trace_batch_trap,
    "trian": _trace_batch_trian,
}


class _ScalarView:
    """A paged index seen through the ``PagedIndex`` protocol only: no
    tracer is registered for it, so the engine traces it point by point
    with the scalar ``paged.trace``."""

    def __init__(self, paged):
        self.packets = paged.packets
        self.trace = paged.trace


@pytest.fixture(scope="module", params=DATASETS)
def dataset(request):
    return request.param, request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def cells(dataset):
    """Paged index + params per kind on the parametrized dataset."""
    _, subdivision = dataset
    out = {}
    for kind in ALL_KINDS:
        family = index_family(kind)
        params = family.parameters(packet_capacity=256)
        out[kind] = (family.build(subdivision, seed=7).page(params), params)
    return out


def _accepts(paged, point):
    try:
        paged.trace(point)
    except QueryError:
        return False
    return True


def _query_points(subdivision, kind, paged=None, n=200, seed=13):
    points = random_points_in(subdivision, n, seed=seed)
    boundary = adversarial_points(subdivision)
    if kind in REJECTING_KINDS and paged is not None:
        # Keep only the boundary points the scalar path accepts; the
        # rejected ones are covered by TestErrorParity.
        boundary = [p for p in boundary if _accepts(paged, p)]
    return points + boundary


def _rejected_points(subdivision, paged):
    return [p for p in adversarial_points(subdivision) if not _accepts(paged, p)]


def _assert_traces_equal(got, want):
    assert got.region_ids.tolist() == want.region_ids.tolist()
    assert got.last_packet.tolist() == want.last_packet.tolist()
    assert got.tuning_time.tolist() == want.tuning_time.tolist()


class TestTracerParity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_batched_trace_matches_per_point_trace(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        _assert_traces_equal(
            batched_trace(paged, points),
            _trace_batch_generic(paged, points),
        )

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_kernel_tracer_matches_reference_tracer(self, dataset, cells, kind):
        """The family's kernel tracer, called directly, against the
        scalar reference."""
        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        _assert_traces_equal(
            _KERNEL_TRACER[kind](paged, points),
            _trace_batch_generic(paged, points),
        )


class TestPathParity:
    """With ``paths=True`` every tracer also returns each query's search
    path: the scalar trace's packets, de-duplicated in read order."""

    @staticmethod
    def _assert_paths_match_scalar(paged, points, batch):
        start = batch.path_start
        packets = batch.path_packets.tolist()
        assert len(start) == len(points) + 1 and start[0] == 0
        assert batch.tuning_time.tolist() == np.diff(start).tolist()
        for i, point in enumerate(points):
            path = packets[start[i] : start[i + 1]]
            assert path == list(dict.fromkeys(paged.trace(point).packets_accessed))
            assert batch.last_packet[i] == (path[-1] if path else 0)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_kernel_paths_match_scalar_trace(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        batch = batched_trace(paged, points, paths=True)
        _assert_traces_equal(batch, _trace_batch_generic(paged, points))
        self._assert_paths_match_scalar(paged, points, batch)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_generic_paths_match_scalar_trace(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged, n=40)
        batch = batched_trace(_ScalarView(paged), points, paths=True)
        self._assert_paths_match_scalar(paged, points, batch)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_paths_only_on_request(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        batch = batched_trace(paged, random_points_in(subdivision, 5, seed=2))
        assert batch.path_start is None and batch.path_packets is None


class TestRStarParity:
    """The flat R*-tree tracer expands every MBR-reachable (query, entry)
    pair and keeps each query's events up to its lowest-rank hit; these
    cases pin it to the scalar DFS where that differs most from a DFS:
    boundary points, and points whose first candidate polygon fails so
    the DFS backtracks into a sibling or cousin subtree."""

    @staticmethod
    def _fresh(voronoi60, capacity):
        family = index_family("rstar")
        params = family.parameters(packet_capacity=capacity)
        return family.build(voronoi60, seed=7).page(params)

    @pytest.fixture(scope="class", params=(256, 64))
    def rstar(self, request, voronoi60):
        return self._fresh(voronoi60, request.param)

    @staticmethod
    def _leaves_read(paged, point):
        """Preorder paths of the leaf nodes the scalar search reads."""
        paths = {}

        def walk(node, path):
            if node.is_leaf:
                paths[paged._node_packet[id(node)]] = path
            else:
                for i, entry in enumerate(node.entries):
                    walk(entry.child, path + (i,))

        walk(paged.tree.root, ())
        return [
            paths[pkt]
            for pkt in paged.trace(point).packets_accessed
            if pkt in paths
        ]

    @staticmethod
    def _service_area_points(area):
        out = []
        for f in (0.0, 0.125, 0.5, 0.875, 1.0):
            x = area.min_x + f * (area.max_x - area.min_x)
            y = area.min_y + f * (area.max_y - area.min_y)
            out += [
                Point(x, area.min_y),
                Point(x, area.max_y),
                Point(area.min_x, y),
                Point(area.max_x, y),
            ]
        return out

    def test_boundary_and_backtracking_points(self, voronoi60, rstar):
        sample = random_points_in(voronoi60, 400, seed=29)
        sibling, cousin = [], []
        for p in sample:
            leaves = self._leaves_read(rstar, p)
            if len(leaves) > 1:
                answer = leaves[-1]
                if all(path[:-1] == answer[:-1] for path in leaves):
                    sibling.append(p)
                else:
                    cousin.append(p)
        assert sibling, "no point backtracks into a sibling leaf"
        if rstar.params.packet_capacity == 64:
            assert cousin, "no point backtracks into a cousin subtree"
        points = (
            adversarial_points(voronoi60, max_regions=len(voronoi60.regions))
            + self._service_area_points(voronoi60.service_area)
            + sibling
            + cousin
            + sample[:50]
        )
        want = _trace_batch_generic(rstar, points)
        _assert_traces_equal(_trace_batch_rstar(rstar, points), want)
        xs, ys = point_coords(points)
        _assert_traces_equal(_trace_batch_rstar(rstar, PointBatch(xs, ys)), want)

    @pytest.mark.parametrize("where", ("inside the span", "across spans"))
    def test_backwards_shape_packet_raises_scalar_error(self, voronoi60, where):
        paged = self._fresh(voronoi60, 64)
        good = random_points_in(voronoi60, 30, seed=31)
        victim = good[12]
        region = voronoi60.locate(victim)
        first = paged._shape_packets[region][0]
        if where == "inside the span":
            # Only the per-event backwards flag can see this one.
            paged._shape_packets[region] = [first, first + 1, first]
        else:
            # Packet 0 is the root's, read before every shape span.
            paged._shape_packets[region] = [0]
        with pytest.raises(BroadcastError) as scalar_err:
            _trace_batch_generic(paged, good)
        with pytest.raises(BroadcastError) as batch_err:
            _trace_batch_rstar(paged, good)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_leaf_mbr_wider_than_polygon_bbox(self, grid4x4):
        """The exact leaf test keeps the polygon's own bbox gate: a leaf
        MBR wider than its region admits points the scalar
        ``contains_point`` rejects even within ``EPS`` of an edge."""
        params = index_family("rstar").parameters(packet_capacity=256)
        tree = RStarTree(grid4x4, rstar_fanout(params))
        for region in grid4x4.regions:
            box = region.polygon.bbox
            wide = Rect(
                box.min_x - 1.0, box.min_y - 1.0, box.max_x + 1.0, box.max_y + 1.0
            )
            tree.insert(region.region_id, wide)
        paged = PagedRStarTree(tree, params)
        area = grid4x4.service_area
        mid_y = (area.min_y + area.max_y) / 2
        near = Point(area.max_x + EPS / 2, mid_y)
        points = random_points_in(grid4x4, 10, seed=41) + [near]
        with pytest.raises(QueryError) as scalar_err:
            paged.trace(near)
        with pytest.raises(QueryError) as batch_err:
            _trace_batch_rstar(paged, points)
        assert str(batch_err.value) == str(scalar_err.value)
        inside = random_points_in(grid4x4, 40, seed=43)
        _assert_traces_equal(
            _trace_batch_rstar(paged, inside),
            _trace_batch_generic(paged, inside),
        )

    def test_unlocated_point_names_lowest_index(self, voronoi60, rstar):
        area = voronoi60.service_area
        outside = [
            Point(area.max_x + 1.0, area.min_y),
            Point(area.min_x - 2.0, area.max_y + 2.0),
        ]
        good = random_points_in(voronoi60, 20, seed=37)
        batch = good[:8] + [outside[0]] + good[8:] + [outside[1]]
        with pytest.raises(QueryError) as scalar_err:
            rstar.trace(outside[0])
        with pytest.raises(QueryError) as batch_err:
            _trace_batch_rstar(rstar, batch)
        assert str(batch_err.value) == str(scalar_err.value)
        assert repr(outside[0]) in str(batch_err.value)


class TestDTreePagingVariants:
    """§4.4 packet charging across packet capacities and early-termination
    modes: the flat-frontier tracer must reproduce the scalar charging
    (whole-span vs first-packet) in every configuration."""

    @pytest.mark.parametrize("capacity", (32, 64))
    @pytest.mark.parametrize("early", (True, False))
    def test_charging_parity(self, voronoi60, capacity, early):
        family = index_family("dtree")
        params = family.parameters(packet_capacity=capacity)
        tree = family.build(voronoi60, seed=7)
        paged = PagedDTree(tree, params, early_termination=early)
        points = _query_points(voronoi60, "dtree", n=150, seed=17)
        got = batched_trace(paged, points)
        _assert_traces_equal(got, _trace_batch_generic(paged, points))

    @pytest.mark.parametrize("capacity", (32, 64))
    @pytest.mark.parametrize("early", (True, False))
    def test_path_parity(self, voronoi60, capacity, early):
        """Whole-span reads put every packet of the span on the path."""
        family = index_family("dtree")
        params = family.parameters(packet_capacity=capacity)
        paged = PagedDTree(
            family.build(voronoi60, seed=7), params, early_termination=early
        )
        points = _query_points(voronoi60, "dtree", n=150, seed=17)
        TestPathParity._assert_paths_match_scalar(
            paged, points, batched_trace(paged, points, paths=True)
        )


class TestWorkloadParity:
    """evaluate_workload vs the scalar path, array-exact."""

    def _reference_evaluate(self, paged, region_ids, params, points, seed):
        """Scalar tracer + per-query ``rng.uniform`` issue draws."""
        schedule = BroadcastSchedule(
            index_packet_count=len(paged.packets),
            region_ids=list(region_ids),
            params=params,
        )
        engine = QueryEngine(paged, schedule)
        rng = random.Random(seed)
        issue_times = [rng.uniform(0, schedule.cycle_length) for _ in points]
        return engine.run(points, issue_times=issue_times)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_results_are_array_exact(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, params = cells[kind]
        points = _query_points(subdivision, kind, paged)
        reference_paged = _ScalarView(paged)
        got = evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        )
        want = self._reference_evaluate(
            reference_paged, subdivision.region_ids, params, points, seed=3
        )
        assert got.region_ids.tolist() == want.region_ids.tolist()
        assert got.access_latency.tolist() == want.access_latency.tolist()
        assert (
            got.index_tuning_time.tolist() == want.index_tuning_time.tolist()
        )


class TestIssueTimes:
    def test_uniform_issue_times_bit_equal_to_scalar_draws(self):
        for seed, n, length in ((3, 100, 977.0), (11, 257, 12.5)):
            batch = _uniform_issue_times(random.Random(seed), n, length)
            rng = random.Random(seed)
            scalar = [rng.uniform(0, length) for _ in range(n)]
            assert batch.tolist() == scalar
            assert batch.dtype == np.float64


class TestObservabilityInertness:
    """DESIGN.md §10 inertness contract: with or without an installed
    ``repro.obs.Collector``, every engine result is bit-for-bit
    identical — the collector only *reads* values the computation
    produced anyway (no rng draws, no arithmetic)."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_enabled_run_is_array_exact(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, params = cells[kind]
        points = _query_points(subdivision, kind, paged)
        baseline = evaluate_workload(
            paged, subdivision.region_ids, params, points, seed=3
        )
        with collecting() as col:
            collected = evaluate_workload(
                paged, subdivision.region_ids, params, points, seed=3
            )
        # The collector saw the run ...
        assert col.counters["engine.runs"] == 1
        assert col.counters["engine.queries"] == len(points)
        # ... and the run did not see the collector.
        for name in (
            "issue_times",
            "region_ids",
            "access_latency",
            "index_tuning_time",
            "total_tuning_time",
        ):
            got = getattr(collected, name)
            want = getattr(baseline, name)
            assert np.array_equal(got, want), name
            assert got.dtype == want.dtype, name

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_summary_is_bit_identical(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, params = cells[kind]
        points = _query_points(subdivision, kind, paged)
        region_ids = subdivision.region_ids
        baseline = evaluate_workload(
            paged, region_ids, params, points, seed=5
        ).summary(region_ids, params)
        with collecting():
            collected = evaluate_workload(
                paged, region_ids, params, points, seed=5
            ).summary(region_ids, params)
        for field in baseline.__slots__:
            assert getattr(collected, field) == getattr(baseline, field), field


class TestErrorParity:
    """Boundary points the scalar tracer rejects must be rejected with
    the *identical* ``QueryError`` message by the batched kernel path —
    including inside a mixed batch, where the earliest failing point in
    input order wins."""

    @pytest.mark.parametrize("kind", REJECTING_KINDS)
    def test_rejected_points_raise_identical_errors(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        rejected = _rejected_points(subdivision, paged)
        if not rejected:
            pytest.skip("no rejected boundary points on this dataset")
        for point in rejected[:8]:
            with pytest.raises(QueryError) as scalar_err:
                paged.trace(point)
            with pytest.raises(QueryError) as batch_err:
                batched_trace(paged, [point])
            assert str(batch_err.value) == str(scalar_err.value)

    @pytest.mark.parametrize("kind", REJECTING_KINDS)
    def test_mixed_batch_reports_first_failing_point(self, dataset, cells, kind):
        _, subdivision = dataset
        paged, _ = cells[kind]
        rejected = _rejected_points(subdivision, paged)
        if not rejected:
            pytest.skip("no rejected boundary points on this dataset")
        good = random_points_in(subdivision, 20, seed=23)
        with pytest.raises(QueryError) as scalar_err:
            paged.trace(rejected[0])
        batch = good[:10] + [rejected[0]] + good[10:] + rejected[1:]
        with pytest.raises(QueryError) as batch_err:
            batched_trace(paged, batch)
        assert str(batch_err.value) == str(scalar_err.value)


class TestTraceObservability:
    """The kernel tracers publish per-descent counters and
    frontier-width histograms mirroring the D-tree instrumentation
    (inertness of these stats is covered by
    :class:`TestObservabilityInertness` above)."""

    COUNTERS = {
        "dtree": ("trace.dtree.levels",),
        "trap": ("trace.trap.levels",),
        "trian": ("trace.trian.levels",),
        "rstar": ("trace.rstar.levels",),
    }
    HISTOGRAMS = {
        "dtree": ("trace.dtree.frontier_width",),
        "trap": ("trace.trap.frontier_width",),
        "trian": ("trace.trian.frontier_width", "trace.trian.scan_width"),
        "rstar": ("trace.rstar.frontier_width", "trace.rstar.candidate_pairs"),
    }

    @pytest.mark.parametrize("kind", sorted(COUNTERS))
    def test_descent_stats_are_published(self, dataset, cells, kind):
        from repro.obs import collecting

        _, subdivision = dataset
        paged, _ = cells[kind]
        points = _query_points(subdivision, kind, paged)
        with collecting() as col:
            batched_trace(paged, points)
        for name in self.COUNTERS[kind]:
            assert col.counters[name] > 0, name
        for name in self.HISTOGRAMS[kind]:
            hist = col.histograms[name]
            assert hist.count > 0, name
            assert hist.total > 0, name
