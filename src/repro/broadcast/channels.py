"""Channels and the channel-hopping client of a multi-channel broadcast.

A :class:`~repro.broadcast.plan.BroadcastPlan` splits the server's data
(and optionally its index) across K parallel broadcast channels.  Each
:class:`Channel` is one ordinary (1, m) timeline — exactly the
:class:`~repro.broadcast.schedule.BroadcastSchedule` of the single-channel
system, reused unchanged — carrying a shard of the data buckets plus
either a full copy of the index (``replicated`` placement) or a
contiguous chunk of it (``distributed`` placement).

All channels are slot-synchronous: the packet occupying slot ``t`` on
channel ``c`` airs in the same instant as slot ``t`` on every other
channel, so a client's clock is channel-independent and *hopping* between
channels costs a configurable number of packet slots during which the
receiver is retuning and cannot listen.

:class:`ChannelHoppingClient` is the access walk of
:mod:`repro.broadcast.access` over a plan taken as given — a K=1 plan
stays a plan, so every query reports its (zero) hops.
"""

from __future__ import annotations

from typing import Optional

from repro.broadcast.access import AccessClient, HopAccessResult
from repro.broadcast.packets import PagedIndex
from repro.broadcast.plan import Channel

__all__ = ["Channel", "ChannelHoppingClient", "HopAccessResult"]


class ChannelHoppingClient(AccessClient):
    """A mobile client that tunes, hops and dozes across the K channels
    of a :class:`~repro.broadcast.plan.BroadcastPlan`, starting on
    ``start_channel``.

    With ``cache_packets`` set (not ``None``) an LRU cache of index
    packets is kept, with the same semantics as
    :class:`~repro.broadcast.caching.CachingBroadcastClient` (capacity 0
    models a cache-aware client whose cache never retains).
    """

    def __init__(
        self,
        paged_index: PagedIndex,
        plan,
        *,
        cache_packets: Optional[int] = None,
        start_channel: int = 0,
    ) -> None:
        super().__init__(
            paged_index,
            plan,
            cache_packets=cache_packets,
            start_channel=start_channel,
        )
