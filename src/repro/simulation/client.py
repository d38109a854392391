"""The unreliable-channel client: the access protocol under packet loss.

:class:`UnreliableBroadcastClient` is the access walk of
:mod:`repro.broadcast.access` with loss and recovery switched on: every
read — probe, index, data — may be lost (decided by an
:class:`~repro.simulation.faults.ErrorModel`).  A read attempt occupies
one slot and costs tuning and energy, received or lost; the packet in
slot ``p`` is fully received at ``p + 1``.  A lost probe re-reads the
following slots until one packet survives, a lost index packet invokes
a :class:`~repro.simulation.policies.RecoveryPolicy`, and a lost data
packet is re-read at the bucket's next airing, one cycle later.  Cached
index packets (``cache_packets > 0``) cost nothing and cannot be lost.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.broadcast.access import AccessClient, SimAccessResult, single_channel
from repro.broadcast.packets import PagedIndex
from repro.simulation.energy import EnergyModel
from repro.simulation.faults import ErrorModel, PerfectChannel
from repro.simulation.policies import RecoveryPolicy

__all__ = ["SimAccessResult", "UnreliableBroadcastClient"]


class UnreliableBroadcastClient(AccessClient):
    """A mobile client on a lossy broadcast timeline.

    The timeline is a schedule or a
    :class:`~repro.broadcast.plan.BroadcastPlan`.  A K=1 plan is its
    single channel's schedule; a K>1 plan hops between channels with
    every read subject to the error model.  Loss is decided at the
    *receiver* (one error model regardless of channel — interference
    hits the client's radio, not one carrier), and each lost index
    packet invokes the recovery policy against the schedule of the
    channel being read.  Without *error_model* the channel is a
    :class:`~repro.simulation.faults.PerfectChannel`.
    """

    def __init__(
        self,
        paged_index: PagedIndex,
        schedule,
        *,
        error_model: Optional[ErrorModel] = None,
        policy: Union[str, RecoveryPolicy] = "retry-next-segment",
        energy_model: Optional[EnergyModel] = None,
        cache_packets: int = 0,
    ) -> None:
        super().__init__(
            paged_index,
            single_channel(schedule),
            cache_packets=cache_packets if cache_packets > 0 else None,
            error_model=error_model if error_model is not None else PerfectChannel(),
            policy=policy,
            energy_model=energy_model,
        )
