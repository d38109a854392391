"""Client-side index caching (extension; cf. the paper's reference [11]).

A mobile client that queries repeatedly — a driver re-asking "which
district am I in?" every few minutes — re-reads the same top index packets
each time.  Hambrusch et al. (SSTD 2001) study caching parts of a
broadcast spatial index on the client; :class:`CachingBroadcastClient`
is the access walk of :mod:`repro.broadcast.access` with an LRU
:class:`PacketCache` in front of the paged index:

* a cached packet costs no tuning time and no channel wait;
* the first *uncached* packet on the search path anchors the wait for the
  next index segment; later misses are read forward as usual;
* a fully cached search skips the index segment altogether and sleeps
  straight until the data bucket.

Cache entries are keyed by index version, so a cached packet never
answers for another version of the index.
"""

from __future__ import annotations

from repro.broadcast.access import AccessClient, PacketCache, single_channel
from repro.broadcast.packets import PagedIndex

__all__ = ["CachingBroadcastClient", "PacketCache"]


class CachingBroadcastClient(AccessClient):
    """A broadcast client with an LRU cache of index packets.

    The timeline may be a :class:`~repro.broadcast.schedule.BroadcastSchedule`
    or a :class:`~repro.broadcast.plan.BroadcastPlan` — a K=1 plan is its
    single channel's schedule, a K>1 plan makes the client hop between
    channels.
    """

    def __init__(
        self, paged_index: PagedIndex, schedule, cache_packets: int = 8
    ) -> None:
        super().__init__(
            paged_index, single_channel(schedule), cache_packets=cache_packets
        )

    def rebind(self, paged_index: PagedIndex, schedule) -> None:
        """Point the client at a new paged index + timeline (an index
        update went on the air).

        The session's cache object survives, but it is re-keyed to the
        new timeline's version: packets cached under the old index can
        never answer a search over the new one.
        """
        self._bind(paged_index, single_channel(schedule))
