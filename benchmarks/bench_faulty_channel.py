"""Faulty-channel simulation benchmarks (the PR-3 subsystem).

One cell per (index family, error model, error rate): the whole workload
through :func:`repro.simulation.simulate_workload`, printing the
latency/tuning/energy tail percentiles that the error-free engine cannot
produce.  Error rates cover the acceptance grid {0, 0.01, 0.05, 0.1}
under both Bernoulli and Gilbert-Elliott loss.  Every cell also checks
that the batched simulator's report equals a per-query
``UnreliableBroadcastClient.query`` loop over the same seed, bit for bit.
"""

import random

import pytest

from repro.datasets.catalog import uniform_dataset
from repro.engine import index_family
from repro.broadcast.plan import workload_timeline
from repro.simulation import (
    UnreliableBroadcastClient,
    make_error_model,
    simulate_workload,
)

from conftest import run_once

ALL_KINDS = ("dtree", "trian", "trap", "rstar")
ERROR_RATES = (0.0, 0.01, 0.05, 0.1)
QUERIES = 300
CAPACITY = 256


@pytest.fixture(scope="module")
def sim_dataset():
    return uniform_dataset(n=120, seed=42)


@pytest.fixture(scope="module")
def paged_indexes(sim_dataset):
    """Logical indexes built and paged once, shared by every cell."""
    out = {}
    for kind in ALL_KINDS:
        family = index_family(kind)
        params = family.parameters(CAPACITY)
        paged = family.build(sim_dataset.subdivision, seed=7).page(params)
        out[kind] = (paged, params)
    return out


@pytest.mark.parametrize("error_rate", ERROR_RATES)
@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("model", ("bernoulli", "gilbert"))
def test_bench_simulate(
    benchmark, paged_indexes, sim_dataset, kind, model, error_rate
):
    paged, params = paged_indexes[kind]
    sub = sim_dataset.subdivision
    rng = random.Random(11)
    points = [sub.random_point(rng) for _ in range(QUERIES)]

    report = run_once(
        benchmark,
        lambda: simulate_workload(
            paged,
            sub.region_ids,
            params,
            points,
            error_rate=error_rate,
            error_model=model,
            seed=7,
            index_kind=kind,
        ),
    )
    summary = report.summary()
    print(
        f"\n  {kind} {model} rate={error_rate:g}: "
        f"lat p50/p95/p99 = {summary['latency_p50']:.0f}/"
        f"{summary['latency_p95']:.0f}/{summary['latency_p99']:.0f}p, "
        f"tuning p50/p95/p99 = {summary['tuning_p50']:.0f}/"
        f"{summary['tuning_p95']:.0f}/{summary['tuning_p99']:.0f}, "
        f"energy p99 = {summary['energy_j_p99'] * 1000:.2f}mJ, "
        f"losses = {report.total_losses}"
    )
    assert len(report) == QUERIES
    _assert_equals_query_loop(
        report, paged, sub.region_ids, params, points, model, error_rate, seed=7
    )
    if error_rate == 0.0:
        assert report.total_losses == 0
    if error_rate >= 0.05:
        assert report.total_losses > 0
    assert summary["latency_p50"] <= summary["latency_p99"]


def _assert_equals_query_loop(
    report, paged, region_ids, params, points, model, error_rate, seed
):
    """The report equals a fresh client answering *points* one
    ``query`` at a time, with the simulator's issue-time and channel
    streams for *seed*."""
    client = UnreliableBroadcastClient(
        paged,
        workload_timeline(paged, region_ids, params),
        error_model=make_error_model(model, error_rate),
    )
    rng = random.Random(seed)
    times = [rng.uniform(0, client.cycle_length) for _ in points]
    client.error_model.reset(random.Random(f"channel:{seed}"))
    results = [client.query(p, t) for p, t in zip(points, times)]
    assert report.issue_times.tolist() == times
    for field, attr in (
        ("region_ids", "region_id"),
        ("access_latency", "access_latency"),
        ("tuning_time", "total_tuning_time"),
        ("energy_joules", "energy_joules"),
        ("packet_losses", "packet_losses"),
        ("read_attempts", "read_attempts"),
    ):
        assert getattr(report, field).tolist() == [
            getattr(r, attr) for r in results
        ], field
