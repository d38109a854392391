"""Skewed broadcast scheduling — "broadcast disks" (extension).

The paper assumes a *flat* broadcast: every data instance appears once per
cycle.  Acharya et al.'s broadcast disks (the paper's reference [1]) air
popular items more often, trading cycle length for latency on skewed
workloads.  This module implements a frequency-scheduled data broadcast
behind the same interface as :class:`~repro.broadcast.schedule.BroadcastSchedule`,
so any paged index and the unmodified client can run on top of it.

Frequencies follow the square-root rule (optimal for mean latency:
broadcast frequency proportional to the square root of access
probability), discretised to small integers, and buckets are laid out with
an urgency scheduler (always air the bucket furthest past its period) —
the classic fair-queuing construction that spaces each item's occurrences
near-evenly.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import BroadcastError
from repro.broadcast.params import SystemParameters
from repro.broadcast.schedule import optimal_m


def square_root_frequencies(
    weights: Mapping[int, float], max_frequency: int = 8
) -> Dict[int, int]:
    """Integer broadcast frequencies from access weights.

    Frequencies are proportional to sqrt(weight), scaled so the rarest
    item airs once per cycle and capped at *max_frequency*.
    """
    if not weights:
        raise BroadcastError("no regions to schedule")
    if max_frequency < 1:
        raise BroadcastError("max_frequency must be >= 1")
    floor = max(min(weights.values()), 1e-12)
    roots = {rid: math.sqrt(max(w, floor) / floor) for rid, w in weights.items()}
    return {
        rid: max(1, min(max_frequency, round(r))) for rid, r in roots.items()
    }


def urgency_sequence(frequencies: Mapping[int, int]) -> List[int]:
    """Bucket order for one cycle: each region appears ``frequency`` times,
    spaced as evenly as the integer slots allow."""
    total = sum(frequencies.values())
    period = {rid: total / f for rid, f in frequencies.items()}
    next_due = {rid: 0.0 for rid in frequencies}
    remaining = dict(frequencies)
    sequence: List[int] = []
    for _ in range(total):
        rid = min(
            (r for r in remaining if remaining[r] > 0),
            key=lambda r: (next_due[r], r),
        )
        sequence.append(rid)
        next_due[rid] += period[rid]
        remaining[rid] -= 1
    return sequence


class SkewedBroadcastSchedule:
    """A broadcast-disks data program with (1, m) index interleaving.

    Duck-type compatible with :class:`BroadcastSchedule`: exposes
    ``cycle_length``, ``bucket_packets``, ``data_packet_count``, ``m``,
    ``index_packet_count``, ``version``, ``next_index_start``,
    ``segment_for_offset`` and ``next_bucket_arrival``.
    """

    def __init__(
        self,
        index_packet_count: int,
        region_weights: Mapping[int, float],
        params: SystemParameters,
        m: Optional[int] = None,
        max_frequency: int = 8,
    ) -> None:
        if not region_weights:
            raise BroadcastError("schedule needs at least one data bucket")
        self.params = params
        self.index_packet_count = index_packet_count
        #: Index version this timeline airs (a static program: always 0).
        self.version = 0
        self.frequencies = square_root_frequencies(region_weights, max_frequency)
        self.bucket_sequence = urgency_sequence(self.frequencies)
        self.bucket_packets = params.data_packets_per_instance
        self.data_packet_count = self.bucket_packets * len(self.bucket_sequence)
        if m is None:
            m = optimal_m(index_packet_count, self.data_packet_count)
        self.m = max(1, min(m, len(self.bucket_sequence)))
        self._build_timeline()

    def _build_timeline(self) -> None:
        n = len(self.bucket_sequence)
        base, extra = divmod(n, self.m)
        self.index_segment_starts: List[int] = []
        #: region -> sorted absolute positions of its bucket occurrences.
        self.bucket_positions: Dict[int, List[int]] = {}
        pos = 0
        cursor = 0
        for segment in range(self.m):
            self.index_segment_starts.append(pos)
            pos += self.index_packet_count
            chunk = base + (1 if segment < extra else 0)
            for _ in range(chunk):
                region = self.bucket_sequence[cursor]
                self.bucket_positions.setdefault(region, []).append(pos)
                pos += self.bucket_packets
                cursor += 1
        self.cycle_length = pos

    # -- timeline queries (same contract as BroadcastSchedule) -----------------

    def next_index_start(self, time: float) -> int:
        cycle, offset = divmod(time, self.cycle_length)
        for start in self.index_segment_starts:
            if start >= offset:
                return int(cycle) * self.cycle_length + start
        return (int(cycle) + 1) * self.cycle_length + self.index_segment_starts[0]

    def segment_for_offset(self, offset: int, time: float) -> int:
        """Start of the earliest index segment whose *offset*-th packet
        airs at or after *time* (see
        :meth:`BroadcastSchedule.segment_for_offset`)."""
        if offset < 0:
            raise BroadcastError(f"packet offset must be >= 0, got {offset}")
        return self.next_index_start(time - offset)

    def next_bucket_arrival(self, region_id: int, time: float) -> int:
        try:
            positions = self.bucket_positions[region_id]
        except KeyError:
            raise BroadcastError(f"region {region_id} not in schedule") from None
        cycle, offset = divmod(time, self.cycle_length)
        idx = bisect.bisect_left(positions, offset)
        if idx < len(positions):
            return int(cycle) * self.cycle_length + positions[idx]
        return (int(cycle) + 1) * self.cycle_length + positions[0]

    @property
    def index_overhead_packets(self) -> int:
        return self.m * self.index_packet_count

    @property
    def replication_factor(self) -> float:
        """Mean broadcasts per region per cycle (1.0 = flat)."""
        return len(self.bucket_sequence) / len(self.frequencies)

    def __repr__(self) -> str:
        return (
            f"SkewedBroadcastSchedule(m={self.m}, "
            f"slots={len(self.bucket_sequence)}, "
            f"replication={self.replication_factor:.2f}, "
            f"cycle={self.cycle_length}p)"
        )


def region_weights_from_workload(
    subdivision, points: Sequence, smoothing: float = 0.5
) -> Dict[int, float]:
    """Estimate per-region access weights by locating a query sample.

    ``smoothing`` is an add-constant prior so unseen regions keep a
    nonzero weight (they must still appear in every cycle).
    """
    counts: Dict[int, float] = {
        rid: smoothing for rid in subdivision.region_ids
    }
    for p in points:
        counts[subdivision.locate(p)] += 1.0
    return counts
