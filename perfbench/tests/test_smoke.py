"""Smoke-size runs of all four workloads, and the BENCHMARK.json contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.measure import WORKLOADS, run_traced, run_untraced
from perfbench.metrics import END_TO_END, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Inputs small enough for a test; the contract is the same.
SMOKE = {
    "static-fleet": {"regions": 60, "chunk": 200, "warmup": 50},
    "lossy-fleet": {"regions": 60, "chunk": 20, "warmup": 20, "cache_packets": 4},
    "moving-fleet": {"regions": 60},
    "update-churn": {"regions": 40, "reads": 16},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    workload = WORKLOADS[name](3, **SMOKE[name])
    metrics, acct, details = run_untraced(workload, seconds=0.01, setup_reps=2)
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics
    assert details["cycle_samples"] >= 100
    assert acct.attempted > 0
    assert acct.correct, acct.breakdown()
    assert metrics["cycle_ms_p90"] >= metrics["cycle_ms_p50"]
    if name == "moving-fleet":
        # One continuous query per client session and family, however
        # many epochs the client skips.
        assert set(details["step_queries"]) == {4}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_attributes_the_wall(name):
    workload = WORKLOADS[name](4, **SMOKE[name])
    metrics, acct, details, trace = run_traced(workload, seconds=0.02)
    assert set(metrics) == set(PER_LAYER)
    assert details["layer_self_s_sum"] + metrics["unattributed_s"] == pytest.approx(
        details["traced_wall_s"], rel=1e-9
    )
    assert metrics["unattributed_s"] < 0.25 * details["traced_wall_s"]
    assert metrics["cycle_samples"] >= 50
    assert trace["traceEvents"] and json.dumps(trace)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_keeps_to_the_format():
    import re

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        text = fh.read()
    bench = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in bench["workloads"]]
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
