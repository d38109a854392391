"""The mobile client of the paper's three-step access protocol (§2).

:class:`BroadcastClient` is the cold, error-free configuration of the
one access walk in :mod:`repro.broadcast.access`: it probes, searches
the index and retrieves the data with every read succeeding.  It is the
per-query oracle the batched engine and the lossy simulator are
checked against.
"""

from __future__ import annotations

from repro.broadcast.access import (
    AccessClient,
    AccessResult,
    run_workload,
    single_channel,
)
from repro.broadcast.packets import PagedIndex

__all__ = ["AccessResult", "BroadcastClient", "run_workload"]


class BroadcastClient(AccessClient):
    """A cold mobile client on an error-free timeline.

    The timeline is a :class:`BroadcastSchedule` or a
    :class:`~repro.broadcast.plan.BroadcastPlan`: a K=1 plan is its
    single channel's schedule, a K>1 plan makes the client hop between
    channels (returning :class:`~repro.broadcast.channels.HopAccessResult`).
    """

    def __init__(self, paged_index: PagedIndex, schedule) -> None:
        super().__init__(paged_index, single_channel(schedule))
