"""Set-up shared by the workloads: dataset, index families, schedules."""

from __future__ import annotations

import itertools
from typing import Dict, Sequence

from repro.broadcast.schedule import BroadcastSchedule
from repro.datasets import uniform_dataset
from repro.engine import index_family

from perfbench.metrics import FAMILIES, PER_LAYER
from perfbench.tracing import TOP_LEVEL

#: The paper's packet capacity (bytes).
PACKET_CAPACITY = 256
#: Seed of the UNIFORM site set and of the index builds.  The maps and
#: indexes are fixed, as in the paper's evaluation; ``--seed`` drives the
#: traffic over them (queries, trajectories, churn, loss).
MAP_SEED = 42


class Workload:
    """What every workload provides, with the defaults most of them use.

    ``setup(tracer)`` builds the state; ``inputs`` yields step inputs;
    ``step`` runs the program on one (timed); ``check`` scores the
    outcome and returns the step's (queries, epochs); ``paper_metrics``
    and ``layer_counts`` reduce the state after the run.  The two
    ``*_methods`` hooks name program methods the traced run wraps.
    """

    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_reps = 7

    def setup_methods(self):
        return ()

    def step_methods(self, state):
        return ()

    def inputs(self, state, tracer, phase):
        return itertools.count()


class FamilySetup:
    """One family's built, paged and scheduled index."""

    def __init__(self, kind: str, index, paged, params, schedule) -> None:
        self.kind = kind
        self.index = index
        self.paged = paged
        self.params = params
        self.schedule = schedule


def generate_dataset(n_regions: int, tracer):
    """The UNIFORM sites (MAP_SEED) and their Voronoi map."""
    with tracer.span("datasets.generate"):
        dataset = uniform_dataset(n=n_regions, seed=MAP_SEED)
        dataset.subdivision  # the lazily built Voronoi map
    return dataset


def build_families(
    subdivision, tracer, kinds: Sequence[str] = FAMILIES
) -> Dict[str, FamilySetup]:
    """Build, page and schedule every family over *subdivision*."""
    out = {}
    for kind in kinds:
        family = index_family(kind)
        params = family.parameters(PACKET_CAPACITY)
        with tracer.span(f"build.{kind}"):
            index = family.build(subdivision, seed=MAP_SEED)
        with tracer.span(f"page.{kind}"):
            paged = index.page(params)
        with tracer.span("broadcast.schedule"):
            schedule = BroadcastSchedule(
                len(paged.packets), subdivision.region_ids, params
            )
        out[kind] = FamilySetup(kind, index, paged, params, schedule)
    return out


#: Layers named only after the program's own spans (see
#: :func:`rename_program_span`); the benchmark records none of them.
PROGRAM_LAYERS = frozenset(
    {"engine.timeline"} | {f"engine.trace.{f}" for f in FAMILIES}
)
#: Names of the spans the benchmark records itself.  Every other span in
#: the traced run's collector is the program's own.
BENCH_SPANS = frozenset(TOP_LEVEL) | (
    {name[: -len("_s")] for name, unit in PER_LAYER.items() if unit == "s"}
    - PROGRAM_LAYERS
    - {"unattributed"}
)


def rename_program_span(program_name: str, layer: str) -> str:
    """Layer name of a ``repro.obs`` span inside benchmark layer *layer*.

    Inside ``engine.run.<f>`` the engine's trace and timeline spans are
    layers of their own; every other program span (the engine's outer
    ``engine.run``, ``sim.run``, ...) belongs to the benchmark layer
    that called it.
    """
    if layer.startswith("engine.run."):
        if program_name == "engine.trace":
            return "engine.trace." + layer[len("engine.run."):]
        if program_name == "engine.timeline":
            return "engine.timeline"
    return layer
