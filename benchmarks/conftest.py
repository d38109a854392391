"""Shared benchmark fixtures and the machine-readable results flush.

The figure benchmarks run on the ``quick`` configuration (datasets ~10x
smaller than the paper's) so a full `pytest benchmarks/ --benchmark-only`
finishes in minutes; `python -m repro run all --scale paper` regenerates the
full-scale numbers recorded in EXPERIMENTS.md.  Every benchmark prints the
series it measured and asserts the paper's qualitative shape.

Besides the interactive pytest-benchmark tables, every case timed through
:func:`benchmarks._recorder.run_recorded` lands in a committed
``BENCH_<suite>.json`` at the repo root (see that module's docstring for
why the recorder cannot live here).
"""

import datetime

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentMatrix

from _recorder import flush_records, resolve_git_sha


@pytest.fixture(scope="session")
def quick_matrix():
    """One shared matrix: logical indexes built once per (dataset, kind)."""
    return ExperimentMatrix(ExperimentConfig.quick(queries=400, seed=7))


def run_once(benchmark, fn):
    """Time *fn* exactly once (cells are seconds-scale; adaptive rounds
    would make the suite take hours)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def pytest_sessionfinish(session, exitstatus):
    now = datetime.datetime.now(datetime.timezone.utc)
    flush_records(
        git_sha=resolve_git_sha(),
        timestamp=now.isoformat(timespec="seconds"),
    )
