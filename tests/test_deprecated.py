"""Import hygiene and stream compatibility across the 2.0 clean-up.

Importing the package must be warning-free, and the kernel-backed
rejection sampler must keep the historical random stream bit for bit.
"""

import random
import subprocess
import sys

import numpy as np

from repro.datasets.catalog import uniform_dataset
from repro.geometry.point import Point
from repro.workload.generators import _point_in_polygon, zipf_region_workload


class TestImportIsWarningFree:
    def test_importing_repro_emits_no_deprecation_warning(self):
        """Every module imports clean even under
        -W error::DeprecationWarning."""
        code = (
            "import repro, repro.cli, repro.experiments.runner, "
            "repro.broadcast.client, repro.fleet, repro.mobility"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestRejectionSamplerStreamCompat:
    """_point_in_polygon now classifies via the compiled kernel; the
    random.Random draw stream must be unchanged from the historical
    scalar-geometry implementation."""

    @staticmethod
    def _reference(polygon, rng):
        # The pre-kernel implementation, verbatim.
        bb = polygon.bbox
        for _ in range(10000):
            p = Point(
                rng.uniform(bb.min_x, bb.max_x),
                rng.uniform(bb.min_y, bb.max_y),
            )
            if polygon.contains_point(p, include_boundary=False):
                return p
        raise RuntimeError("rejection sampling failed")

    def test_stream_identical_to_scalar_implementation(self):
        sub = uniform_dataset(n=24, seed=3).subdivision
        r_new, r_old = random.Random(17), random.Random(17)
        for region in sub.regions[:10]:
            for _ in range(5):
                a = _point_in_polygon(region.polygon, r_new)
                b = self._reference(region.polygon, r_old)
                assert (a.x, a.y) == (b.x, b.y)
        # Not just the same points: the same number of draws consumed.
        assert r_new.getstate() == r_old.getstate()

    def test_zipf_workload_unchanged(self):
        sub = uniform_dataset(n=24, seed=3).subdivision
        a = zipf_region_workload(sub, 120, seed=19)
        b = zipf_region_workload(sub, 120, seed=19)
        assert [(p.x, p.y) for p in a.points] == [
            (p.x, p.y) for p in b.points
        ]

    def test_numpy_generator_batched_path(self):
        sub = uniform_dataset(n=24, seed=3).subdivision
        g = np.random.default_rng(23)
        for region in sub.regions[:10]:
            p = _point_in_polygon(region.polygon, g)
            assert region.polygon.contains_point(p, include_boundary=False)
