"""The paper's access protocol (§2), written once.

A mobile client answers a point query in three steps: an *initial
probe* learns when the next index segment starts; the *index search*
selectively reads the packets on the search path, forward only (a
pointer to an already-passed packet would cost a full cycle, so index
broadcast orders never need one and the walk asserts it); *data
retrieval* dozes until the answer's bucket airs and downloads it.

:class:`AccessClient` walks these steps over a timeline: a
:class:`~repro.broadcast.schedule.BroadcastSchedule` (one (1, m) channel)
or a :class:`~repro.broadcast.plan.BroadcastPlan` of K slot-synchronous
channels.  Everything beyond the paper's error-free channel is a part the
walk consults: channel hops, a :class:`PacketCache`, loss with recovery
(error model, recovery policy and energy model from
:mod:`repro.simulation`) and a version check against a live
:class:`~repro.dynamic.DynamicBroadcastServer`.  When nothing can be lost
or skewed the search costs one anchor per channel and ends at
``base + last_needed + 1``; with loss or a version check, reads are made
one slot at a time.  DESIGN.md §3 maps each public client to its
configuration.

The walk has two entry points.  :meth:`AccessClient.query` binds (under
a version check, to the index live at each probe), traces the point and
walks its search path; :meth:`AccessClient.walk_path` walks a path traced
beforehand — the lossy simulator traces a whole batch at once with the
compiled tracers and feeds each query's path in.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import BroadcastError
from repro.geometry.point import Point
from repro.obs import active_collector
from repro.broadcast.packets import PagedIndex, QueryTrace
from repro.broadcast.plan import BroadcastPlan


def run_workload(
    client,
    points: Sequence[Point],
    *,
    issue_times: Optional[Sequence[float]] = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> list:
    """Query each point at a uniform-random instant of the broadcast cycle.

    Every client's ``run_workload`` method; *client* needs a
    ``query(point, issue_time)`` method and a ``cycle_length``.  Pass
    *rng* to draw issue times from an externally owned stream (one shared
    across components for reproducible runs); otherwise a fresh
    ``random.Random(seed)`` is used.  Explicit *issue_times* bypass the
    rng entirely.
    """
    if issue_times is not None:
        if len(issue_times) != len(points):
            raise BroadcastError(
                f"{len(issue_times)} issue times for {len(points)} query points"
            )
        return [client.query(p, t) for p, t in zip(points, issue_times)]
    if rng is None:
        rng = random.Random(seed)
    length = client.cycle_length
    return [client.query(p, rng.uniform(0, length)) for p in points]


def single_channel(timeline):
    """A one-channel plan's own schedule; any other timeline unchanged."""
    if isinstance(timeline, BroadcastPlan) and timeline.is_single_channel:
        return timeline.primary_schedule
    return timeline


# -- outcomes ----------------------------------------------------------------


class AccessResult:
    """Latency/tuning outcome of one client query."""

    __slots__ = (
        "region_id",
        "access_latency",
        "index_tuning_time",
        "total_tuning_time",
        "trace",
    )

    def __init__(
        self,
        region_id: int,
        access_latency: float,
        index_tuning_time: int,
        total_tuning_time: int,
        trace: QueryTrace,
    ) -> None:
        self.region_id = region_id
        #: Packets elapsed between query issue and end of data download.
        self.access_latency = access_latency
        #: Packet accesses during the index-search step only (the unit of
        #: the paper's Figure 12).
        self.index_tuning_time = index_tuning_time
        #: Index search + initial probe + data download.
        self.total_tuning_time = total_tuning_time
        self.trace = trace

    def __repr__(self) -> str:
        return (
            f"AccessResult(region={self.region_id}, "
            f"latency={self.access_latency:.1f}p, "
            f"index_tuning={self.index_tuning_time}p)"
        )


class HopAccessResult(AccessResult):
    """One multi-channel query's outcome, with hop accounting.

    ``hop_slots`` (= hops x hop cost) is the time the receiver spent
    retuning; it is part of the access latency but *not* of the tuning
    time — a retuning radio is not demodulating packets, so its energy
    draw is modelled at doze level (see DESIGN.md §11).
    """

    __slots__ = ("hops", "hop_slots")

    def __init__(
        self,
        region_id: int,
        access_latency: float,
        index_tuning_time: int,
        total_tuning_time: int,
        trace,
        hops: int,
        hop_slots: float,
    ) -> None:
        super().__init__(
            region_id, access_latency, index_tuning_time, total_tuning_time, trace
        )
        #: Channel switches performed during this query.
        self.hops = hops
        #: Packet slots spent retuning (hops x hop cost).
        self.hop_slots = hop_slots

    def __repr__(self) -> str:
        return (
            f"HopAccessResult(region={self.region_id}, "
            f"latency={self.access_latency:.1f}p, "
            f"index_tuning={self.index_tuning_time}p, hops={self.hops})"
        )


class SimAccessResult(HopAccessResult):
    """One lossy query's outcome, with fault and energy accounting."""

    __slots__ = ("read_attempts", "packet_losses", "energy_joules")

    def __init__(
        self,
        region_id: int,
        access_latency: float,
        index_tuning_time: int,
        total_tuning_time: int,
        trace: QueryTrace,
        read_attempts: int,
        packet_losses: int,
        energy_joules: float,
        hops: int = 0,
        hop_slots: float = 0.0,
    ) -> None:
        super().__init__(
            region_id, access_latency, index_tuning_time, total_tuning_time,
            trace, hops, hop_slots,
        )
        #: All read attempts (probe + index + data), lost reads included.
        self.read_attempts = read_attempts
        #: Reads that were lost or received corrupted.
        self.packet_losses = packet_losses
        #: Energy spent on this query (receive + doze), in joules.
        self.energy_joules = energy_joules

    def __repr__(self) -> str:
        return (
            f"SimAccessResult(region={self.region_id}, "
            f"latency={self.access_latency:.1f}p, "
            f"losses={self.packet_losses}, "
            f"energy={self.energy_joules * 1000:.2f}mJ)"
        )


class DynamicAccessResult(AccessResult):
    """A static access outcome plus the version-check bookkeeping."""

    __slots__ = ("version", "attempts", "wasted_tuning")

    def __init__(
        self,
        *,
        version: int,
        attempts: int,
        wasted_tuning: int,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        #: Index version the answer is valid for (all packets read in the
        #: successful attempt carried this stamp).
        self.version = version
        #: Probe attempts used (1 = no skew encountered).
        self.attempts = attempts
        #: Packets read in abandoned attempts (skew detections included).
        self.wasted_tuning = wasted_tuning

    def __repr__(self) -> str:
        return (
            f"DynamicAccessResult(region={self.region_id}, v={self.version}, "
            f"attempts={self.attempts}, wasted={self.wasted_tuning}p)"
        )


# -- the cache part ----------------------------------------------------------


class PacketCache:
    """A fixed-capacity LRU set of packet ids, keyed by index version.

    Entries are keyed ``(version, packet_id)``: a packet cached under one
    index version can never answer for another — the staleness bug this
    fixes served pre-update search-path packets after the broadcast index
    changed.  :meth:`set_version` is the invalidation hook called when the
    client is bound to a timeline of another version; stale-version
    entries age out through the ordinary LRU eviction.
    """

    def __init__(self, capacity: int, version: int = 0) -> None:
        if capacity < 0:
            raise BroadcastError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: Index version lookups and inserts are keyed under.
        self.version = version
        self._entries: "OrderedDict[tuple, None]" = OrderedDict()

    def set_version(self, version: int) -> None:
        """Re-key the cache to *version* — entries cached under other
        versions become unreachable (and are LRU-evicted over time)."""
        self.version = version

    def __contains__(self, packet_id: int) -> bool:
        hit = (self.version, packet_id) in self._entries
        col = active_collector()
        if col is not None:
            col.count("cache.hit" if hit else "cache.miss")
        return hit

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Forget every entry (a cold client)."""
        self._entries.clear()

    def touch(self, packet_id: int) -> None:
        """Record a use (insert or refresh), evicting LRU on overflow."""
        if self.capacity == 0:
            return
        key = (self.version, packet_id)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = None


# -- the walk ----------------------------------------------------------------


class _Fallback(Exception):
    """The recovery policy abandoned the index search after a loss."""

    def __init__(self, fail_time: float, channel: int, read: int) -> None:
        #: Instant the lost read ended.
        self.fail_time = fail_time
        #: Channel the lost packet aired on.
        self.channel = channel
        #: Needed packets received before the loss.
        self.read = read


class _Skew(Exception):
    """A read carried a foreign version stamp."""

    def __init__(self, slot: float, reads: int) -> None:
        #: The instant the skewed packet was read: the retry starts here.
        self.slot = slot
        #: Packets read in the abandoned attempt, the skewed one included.
        self.reads = reads


def check_forward(accessed: List[int]) -> None:
    """The forward-only channel invariant of every index search."""
    if accessed != sorted(accessed):
        raise BroadcastError(
            "index traversal moved backwards on the broadcast channel: "
            f"{accessed} — the index broadcast order is invalid"
        )


class AccessClient:
    """One mobile client walking the access protocol over a timeline
    (a schedule or a plan, used as given).

    ``cache_packets`` (``None``: cold) keeps an LRU :class:`PacketCache`;
    capacity 0 is cache-aware but never retains.  ``start_channel`` is
    the channel a plan's client starts on.  ``error_model`` switches on
    loss, recovered by ``policy`` and priced by ``energy_model``.
    ``server`` switches on the version check: each probe re-reads the
    server's paged index and schedule, at most ``max_attempts`` probes
    per query, and ``on_packet_read(stage, attempt)`` is called before
    the probe, each index packet and the data read.
    """

    def __init__(
        self,
        paged_index: PagedIndex,
        timeline,
        *,
        cache_packets: Optional[int] = None,
        start_channel: int = 0,
        error_model=None,
        policy="retry-next-segment",
        energy_model=None,
        server=None,
        max_attempts: int = 16,
        on_packet_read: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise BroadcastError(f"max_attempts must be >= 1, got {max_attempts}")
        self.cache = PacketCache(cache_packets) if cache_packets is not None else None
        self.error_model = error_model
        if error_model is not None:
            # Imported here: repro.simulation builds on this module.
            from repro.simulation.energy import EnergyModel
            from repro.simulation.policies import recovery_policy

            self.policy = (
                recovery_policy(policy) if isinstance(policy, str) else policy
            )
            self.energy_model = (
                energy_model if energy_model is not None else EnergyModel()
            )
        self.server = server
        self.max_attempts = max_attempts
        self.on_packet_read = on_packet_read
        #: Reads are made one slot at a time only when one can fail.
        self._per_packet = error_model is not None or server is not None
        self._bind(paged_index, timeline)
        if not 0 <= start_channel < len(self._channels):
            raise BroadcastError(
                f"start channel {start_channel} out of range "
                f"(plan has {len(self._channels)} channels)"
            )
        self.start_channel = start_channel

    def _bind(self, paged_index: PagedIndex, timeline) -> None:
        """Attach to one paged index + timeline.  A cache survives,
        re-keyed to the timeline's index version."""
        if len(paged_index.packets) != timeline.index_packet_count:
            raise BroadcastError(
                f"timeline built for {timeline.index_packet_count} index "
                f"packets but the paged index has {len(paged_index.packets)}"
            )
        self.paged_index = paged_index
        self.schedule = timeline
        if isinstance(timeline, BroadcastPlan):
            self.plan = timeline
            self._channels = [c.schedule for c in timeline.channels]
            self._hop_cost = timeline.hop_cost
            self._split_index = timeline.index_placement != "replicated"
        else:
            self.plan = None
            self._channels = [timeline]
            self._hop_cost = 0.0
            self._split_index = False
        self._candidates = None
        if self.cache is not None:
            self.cache.set_version(timeline.version)

    @property
    def cycle_length(self) -> int:
        """Issue-time horizon of the timeline (plan-wide for a plan)."""
        return self.schedule.cycle_length

    # -- queries -------------------------------------------------------------

    def query(self, point: Point, issue_time: float) -> AccessResult:
        """Run the access protocol for a query issued at *issue_time*
        (absolute packet slot, the same on every channel)."""
        if self.server is None:
            return self._walk(point, issue_time, issue_time)
        issue_time = float(issue_time)
        start = issue_time
        self._wasted = 0
        for attempt in range(1, self.max_attempts + 1):
            self._attempt = attempt
            try:
                return self._walk(point, issue_time, start)
            except _Skew as skew:
                self._wasted += skew.reads
                start = float(skew.slot)
        raise BroadcastError(
            f"no consistent cycle within {self.max_attempts} attempts "
            "(server updating faster than the client can read?)"
        )

    run_workload = run_workload

    def run_session(
        self, points: Sequence[Point], issue_times: Sequence[float]
    ) -> list:
        """A sequence of queries sharing the client's cache (a session)."""
        if len(points) != len(issue_times):
            raise BroadcastError("points and issue_times lengths differ")
        return [self.query(p, t) for p, t in zip(points, issue_times)]

    # -- the walk ------------------------------------------------------------

    def walk_path(
        self, region: int, path: List[int], issue_time: float
    ) -> Tuple[float, int, int]:
        """The walk of a query traced beforehand: probe at *issue_time*,
        search *path* (the list of its forward-only, de-duplicated packet
        ids, a row of :attr:`~repro.engine.TraceBatch.path_packets`) and
        retrieve *region*'s bucket.

        Consumes the channel and the cache exactly as :meth:`query` on
        the same point does and emits the same profile counters.
        Returns ``(access latency, tuning time, packet losses)``; under
        loss the tuning time counts every read attempt.  Not for a
        version-checked client: its index can change between probes, so
        only :meth:`query` (which traces after binding) is sound there.
        """
        if self.server is not None:
            raise BroadcastError(
                "a version-checked client traces after each probe; use query()"
            )
        self._start_walk()
        needed, probe, latency = self._access(region, path, issue_time, issue_time)
        self._count(len(path), needed, probe, latency)
        if self.error_model is not None:
            return latency, self._reads, self._losses
        return latency, probe + len(needed) + self.schedule.bucket_packets, 0

    def _start_walk(self) -> None:
        """Zero the per-query tallies (and start the loss process)."""
        self._hops = 0
        if self._per_packet:
            self._reads = self._probe_reads = self._index_reads = 0
            self._losses = self._retries = 0
            self._fell_back = False
            if self.error_model is not None:
                self.error_model.start_query()

    def _walk(self, point: Point, issue_time: float, start: float):
        """Bind and trace one attempt, then walk its search path."""
        self._start_walk()
        if self.server is not None:
            # The probe packet names the index generation on the air:
            # everything this attempt reads must carry its stamp, so the
            # trace follows the bind.
            self._notify("probe")
            server = self.server
            self._bind(server.paged, server.schedule)
            self._version = server.version
        trace = self.paged_index.trace(point)
        accessed = trace.packets_accessed
        check_forward(accessed)
        # Forward-only + consecutive-dedup means ids are strictly
        # increasing; dict.fromkeys guards duck-typed indexes that repeat.
        path = list(dict.fromkeys(accessed))
        needed, probe, latency = self._access(
            trace.region_id, path, issue_time, start
        )
        return self._result(trace, len(path), needed, probe, latency)

    def _access(
        self, region: int, path: List[int], issue_time: float, start: float
    ) -> Tuple[List[int], int, float]:
        """Probe at *start*, search *path*, retrieve *region*'s bucket.
        Returns ``(needed, probe, latency)``: the path packets read from
        the air, the probes made (0 or 1) and the access latency."""
        cache = self.cache
        needed = path if cache is None else [p for p in path if p not in cache]
        current = self.start_channel
        unread: Sequence[int] = ()
        if cache is not None and not needed:
            # Fully cached search: a warmed client already knows the
            # timing — no probe, doze straight until the data bucket.
            probe = 0
            finish = self._retrieve(region, start, current)
        else:
            probe = 1
            synced = self._probe(start) if self._per_packet else start
            try:
                ready, current = self._search(needed, synced, current)
            except _Fallback as fallback:
                unread = needed[fallback.read:]
                last_good = needed[fallback.read - 1] if fallback.read else None
                finish = self._fallback_download(
                    region, last_good, fallback.fail_time, fallback.channel
                )
            else:
                finish = self._retrieve(region, ready, current)
        if cache is not None:
            for pid in path:
                if pid not in unread:
                    cache.touch(pid)
        return needed, probe, finish - issue_time

    def _probe(self, t: float) -> float:
        """Step 1: read the packet in flight at *t* to learn the broadcast
        timing; on loss, keep reading successive slots until one packet
        survives.  Returns the instant the timing is known."""
        self._reads += 1
        self._probe_reads += 1
        model = self.error_model
        if model is None:
            return t
        slot = math.floor(t)
        if not model.packet_lost(slot):
            return t
        self._losses += 1
        while True:
            slot += 1
            self._reads += 1
            self._probe_reads += 1
            if not model.packet_lost(slot):
                return float(slot + 1)
            self._losses += 1

    def _search(
        self, needed: List[int], t: float, channel: int
    ) -> Tuple[float, int]:
        """Step 2: read the uncached packets of the search path, channel
        by channel.  Returns ``(index_done, channel)``."""
        if not needed:
            # Empty search path: the search trivially ends one slot into
            # the next index segment.
            return self._channels[channel].next_index_start(t) + 1, channel
        cold = self.cache is None
        read = 0
        if self._split_index:
            runs = self._runs(needed, channel)
        else:
            runs = ((channel, needed),)
        for home, offsets in runs:
            if home != channel:
                t += self._hop_cost
                self._hops += 1
                channel = home
            schedule = self._channels[home]
            # A cold client waits for the segment start its probe points
            # at; a cache-aware one only for the first packet it needs,
            # which may still be ahead in a segment already on the air.
            if cold:
                base = schedule.next_index_start(t)
                cold = False
            else:
                base = schedule.segment_for_offset(offsets[0], t)
            if self._per_packet:
                for offset in offsets:
                    base = self._read_index(
                        schedule, home, base, offset, needed[read], read
                    )
                    read += 1
            t = base + offsets[-1] + 1
        return t, channel

    def _runs(self, needed: List[int], channel: int):
        """The search path as ``(channel, offsets)`` runs when a plan
        splits the index across channels (otherwise the whole path is one
        run on the current channel).

        The offsets of one run ascend on one channel, so they all fit in
        the index segment the run's first packet is read in.
        """
        runs: List[Tuple[int, List[int]]] = []
        for pid in needed:
            home, offset = self.plan.index_home(pid, channel)
            if runs and runs[-1][0] == home:
                runs[-1][1].append(offset)
            else:
                runs.append((home, [offset]))
        return runs

    def _read_index(
        self, schedule, channel: int, base: int, offset: int, pid: int, read: int
    ) -> int:
        """Read packet *pid* at *offset* of the segment starting at
        *base* on *channel*, re-reading it as the recovery policy directs
        after each loss.  Returns the start of the segment it was
        received in."""
        while True:
            position = base + offset
            if self.server is not None:
                self._check_stamp("index", pid, position + 1)
            self._reads += 1
            self._index_reads += 1
            model = self.error_model
            if model is None or not model.packet_lost(position):
                return base
            self._losses += 1
            policy = self.policy
            if policy.falls_back:
                from repro.simulation.policies import record_recovery

                record_recovery(policy)
                self._fell_back = True
                raise _Fallback(float(position + 1), channel, read)
            self._retries += 1
            base = policy.resume_segment_base(schedule, base, position)

    def _home_channel(self, region: int, channel: int) -> int:
        return self.plan.channel_of_region(region) if self.plan is not None else channel

    def _retrieve(self, region: int, t: float, channel: int) -> float:
        """Step 3: hop to the bucket's channel, doze until it airs and
        download it.  Returns the instant the download completes."""
        home = self._home_channel(region, channel)
        if home != channel:
            t += self._hop_cost
            self._hops += 1
        schedule = self._channels[home]
        start = schedule.next_bucket_arrival(region, float(t))
        if self.server is not None:
            # The bucket header carries the stamp too.
            self._check_stamp("data", None, start + 1)
        if self.error_model is None:
            return start + schedule.bucket_packets
        return self._download(schedule, start, first_done=False)

    def _download(self, schedule, start: int, first_done: bool) -> float:
        """Read a bucket's packets from its airing at *start*; packets
        lost in one airing are re-read one cycle later, until all are in.
        ``first_done`` marks the first packet as already received."""
        cycle = schedule.cycle_length
        pending = list(range(1 if first_done else 0, schedule.bucket_packets))
        finish = float(start + 1) if first_done else float(start)
        base = start
        while pending:
            still_lost: List[int] = []
            for j in pending:
                position = base + j
                self._reads += 1
                if self.error_model.packet_lost(position):
                    self._losses += 1
                    still_lost.append(j)
                else:
                    finish = max(finish, float(position + 1))
            pending = still_lost
            base += cycle
        return finish

    def _fallback_download(
        self, true_region: int, last_good: Optional[int], t: float, channel: int
    ) -> float:
        """Upper-bound fallback: inspect candidate buckets in arrival
        order (first packet carries the valid scope; a bucket on another
        channel is charged a hop) until the query's own region arrives,
        then download it fully on its home channel."""
        if self._candidates is None:
            from repro.simulation.candidates import candidate_provider

            self._candidates = candidate_provider(
                self.paged_index, self.schedule.region_ids
            )
        candidates = sorted(self._candidates(last_good))
        if true_region not in candidates:
            raise BroadcastError(
                f"candidate bound for packet {last_good} omits the true "
                f"region {true_region} — the provider is unsound"
            )
        while True:
            best = None
            for r in candidates:
                home = self._home_channel(r, channel)
                t_r = t + self._hop_cost if home != channel else t
                arrival = self._channels[home].next_bucket_arrival(r, float(t_r))
                if best is None or arrival < best[1]:
                    best = (r, arrival, home)
            region, arrival, home = best
            if home != channel:
                self._hops += 1
                channel = home
            self._reads += 1
            if self.error_model.packet_lost(arrival):
                self._losses += 1
                t = float(arrival + 1)
                continue
            if region == true_region:
                return self._download(self._channels[home], arrival, first_done=True)
            candidates.remove(region)
            t = float(arrival + 1)

    def _check_stamp(self, stage: str, pid: Optional[int], slot: float) -> None:
        """Version check before a read (of index packet *pid*, or of the
        bucket header when *pid* is None) ending at *slot*."""
        self._notify(stage)
        server = self.server
        if pid is None:
            skewed = server.version != self._version
        else:
            live = server.paged.packets
            skewed = pid >= len(live) or live[pid].version != self._version
        if skewed:
            raise _Skew(slot, self._reads + 1)

    def _notify(self, stage: str) -> None:
        if self.on_packet_read is not None:
            self.on_packet_read(stage, self._attempt)

    # -- outcome -------------------------------------------------------------

    def _count(
        self, path_packets: int, needed: List[int], probe: int, latency: float
    ) -> None:
        """Emit one query's profile counters (``sim.*`` with loss,
        ``client.*`` otherwise; none under a version check).  Counters
        only observe the walk's bookkeeping, so collected runs stay
        bit-for-bit identical."""
        col = active_collector()
        if col is None or self.server is not None:
            return
        hops = self._hops
        hop_slots = hops * self._hop_cost
        if self.error_model is None:
            total_tuning = probe + len(needed) + self.schedule.bucket_packets
            col.count("client.queries")
            col.count("client.probes", probe)
            col.count("client.packets.index", len(needed))
            col.count("client.packets.data", self.schedule.bucket_packets)
            col.count("client.hops", hops)
            col.count("client.hop_slots", hop_slots)
            col.count("client.doze_slots", latency - total_tuning - hop_slots)
            return
        reads = self._reads
        col.count("sim.queries")
        col.count("sim.losses", self._losses)
        col.count("sim.read_attempts", reads)
        col.count("sim.reads.probe", self._probe_reads)
        col.count("sim.reads.index", self._index_reads)
        col.count("sim.reads.data", reads - self._probe_reads - self._index_reads)
        col.count("sim.retries", self._retries)
        if self._fell_back:
            col.count("sim.fallbacks")
        col.count("sim.hops", hops)
        col.count("sim.hop_slots", hop_slots)
        col.count("sim.doze_slots", max(latency - reads - hop_slots, 0.0))
        if self.cache is not None:
            col.count("sim.cache.hits", path_packets - len(needed))
            col.count("sim.cache.misses", len(needed))
        receive_j, doze_j = self.energy_model.query_components(
            reads, latency, self.schedule.params.packet_capacity
        )
        col.count("sim.energy.receive_j", receive_j)
        col.count("sim.energy.doze_j", doze_j)

    def _result(
        self,
        trace: QueryTrace,
        path_packets: int,
        needed: List[int],
        probe: int,
        latency: float,
    ) -> AccessResult:
        """Package one query's outcome and emit its profile counters."""
        self._count(path_packets, needed, probe, latency)
        region = trace.region_id
        hops = self._hops
        hop_slots = hops * self._hop_cost
        if self.error_model is not None:
            reads = self._reads
            energy = self.energy_model.query_joules(
                reads, latency, self.schedule.params.packet_capacity
            )
            return SimAccessResult(
                region, latency, self._index_reads, reads, trace,
                reads, self._losses, energy, hops, hop_slots,
            )
        index_tuning = len(needed)
        total_tuning = probe + index_tuning + self.schedule.bucket_packets
        if self.server is not None:
            return DynamicAccessResult(
                region_id=region,
                access_latency=latency,
                index_tuning_time=index_tuning,
                total_tuning_time=self._wasted + total_tuning,
                trace=trace,
                version=self._version,
                attempts=self._attempt,
                wasted_tuning=self._wasted,
            )
        if self.plan is None:
            return AccessResult(region, latency, index_tuning, total_tuning, trace)
        return HopAccessResult(
            region, latency, index_tuning, total_tuning, trace, hops, hop_slots
        )
