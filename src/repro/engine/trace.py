"""Batched traced queries over paged indexes.

The per-query path answers one ``trace(point)`` at a time, walking the
index in pure Python.  The batched tracers here answer a whole workload at
once and return only what the broadcast timeline needs per query — the
containing region, the last index packet read and the tuning time — while
guaranteeing results identical to the per-query path:

* **D-tree** — shared traversal: all queries descend the tree together,
  splitting at each node with one
  :class:`~repro.geometry.kernels.CompiledPartition` side test (D1/D3
  exclusive zones plus the vectorized ray-parity test for the
  interlocking zone).  The partitions are compiled to flat segment
  arrays once per paged tree and cached, and queries that follow the
  same packet path share one interned *prefix*, so the per-query Python
  bookkeeping of the scalar path disappears entirely.
* **R*-tree** — level-synchronous pair expansion over the tree
  compiled to preorder arrays (:class:`_CompiledRStarTree`): each level
  gates every (query, entry) pair of the frontier by its closed MBR at
  once, the leaf candidates go through one ragged closed-polygon pass
  (:func:`~repro.geometry.kernels.classify_pairs`, the kernel of
  :class:`~repro.geometry.kernels.CompiledSubdivision`), and each
  query's answer is its lowest-DFS-rank hit, charging only the events
  ranked at or before it per §4.4.
* **trap-tree** — flat-frontier descent over the trapezoidal-map DAG
  compiled to packed structure-of-arrays form
  (:class:`_CompiledTrapTree`): x-node comparisons and y-node
  cross-product tests run vectorized over the whole frontier
  (:func:`~repro.geometry.kernels.cross_batch`), with the degenerate
  ``effective_point`` nudge resolved by a vectorized pre-pass.
* **trian-tree** — level-synchronous descent over the Kirkpatrick
  hierarchy compiled to CSR child arrays in broadcast order
  (:class:`_CompiledTrianTree`): each level expands the frontier's
  candidate children raggedly and picks the first containing triangle
  with one :func:`~repro.geometry.kernels.point_in_triangles_batch`
  sweep, charging the scanned packets incrementally per §4.4.
* **anything else** — a per-point fallback over the index's own
  ``trace``, so third-party families registered via
  :func:`repro.engine.register_index` work unchanged; they can opt into
  batching with :func:`register_tracer`.

On request (``batched_trace(..., paths=True)``, the lossy simulator's
call) a tracer also returns every query's search path in CSR form: the
de-duplicated, forward-only packet sequence the access walk reads.  The
compiled tracers collect it from the packets they already charge; the
engine never asks, so its tracer work is unchanged.

The per-point scalar path (``paged.trace``, batched by
:func:`_trace_batch_generic`) is the one oracle: the kernel tracers are
parity-tested against it, re-run it to raise its exact error, and the
``benchmarks/bench_kernels.py`` speedup assertions compare to it.

Every tracer applies the same forward-only channel check as
:class:`repro.broadcast.client.BroadcastClient`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import BroadcastError, QueryError
from repro.obs import active_collector
from repro.broadcast.access import check_forward as _check_forward
from repro.broadcast.packets import PagedIndex
from repro.geometry.kernels import (
    EDGE_POOL_FIELDS,
    CompiledPartition,
    classify_pairs,
    cross_batch,
    point_coords,
    ragged_ranges,
)
from repro.geometry.predicates import EPS
from repro.geometry.point import Point


class TraceBatch:
    """Per-query trace outcomes of one batched workload."""

    __slots__ = (
        "region_ids", "last_packet", "tuning_time", "path_start", "path_packets"
    )

    def __init__(
        self,
        region_ids: np.ndarray,
        last_packet: np.ndarray,
        tuning_time: np.ndarray,
        path_start: Optional[np.ndarray] = None,
        path_packets: Optional[np.ndarray] = None,
    ) -> None:
        #: Data region answering each query.
        self.region_ids = region_ids
        #: Offset of the last index packet read (0 for an empty trace),
        #: i.e. ``accessed[-1] if accessed else 0`` of the scalar path.
        self.last_packet = last_packet
        #: Index-search tuning time in packet accesses (Figure 12 unit).
        self.tuning_time = tuning_time
        #: Search paths in CSR form, present only when asked for: query
        #: ``i`` reads ``path_packets[path_start[i]:path_start[i + 1]]``,
        #: the scalar path's ``list(dict.fromkeys(packets_accessed))``.
        self.path_start = path_start
        self.path_packets = path_packets

    def __len__(self) -> int:
        return len(self.region_ids)

    def __repr__(self) -> str:
        return f"TraceBatch(n={len(self)})"


Tracer = Callable[[PagedIndex, Sequence[Point]], TraceBatch]

#: Paged-index class -> batched tracer.  Populated lazily with the
#: built-ins; extended via :func:`register_tracer`.
TRACER_REGISTRY: Dict[type, Tracer] = {}
#: The built-in tracers, which also return search paths on request.
_PATH_TRACERS: set = set()
_BUILTINS_LOADED = False


def register_tracer(paged_cls: type, tracer: Tracer) -> None:
    """Register a batched tracer ``tracer(paged, points)`` for a
    paged-index class.  A caller asking for search paths gets the
    per-point fallback instead."""
    TRACER_REGISTRY[paged_cls] = tracer


# -- compiled-cache generations ----------------------------------------------
#
# Every ``_compile_*`` memoizes its compiled SoA form on the paged index.
# The compiled form is a *snapshot*: if the underlying structure mutates
# (the dynamic-update subsystem rebuilds subtrees in place), a cached
# snapshot would keep answering with pre-mutation geometry.  Caches are
# therefore keyed by a structure generation: whoever mutates a paged
# index (or the logical tree under it) calls
# :func:`bump_structure_generation`, and the next trace recompiles.


def structure_generation(paged) -> int:
    """Current structure generation of *paged* (0 until first mutation)."""
    return getattr(paged, "_structure_generation", 0)


def bump_structure_generation(paged) -> int:
    """Invalidate every compiled cache memoized on *paged*.

    Returns the new generation.  Cheap: caches are dropped lazily, at
    the next compile-cache lookup.
    """
    generation = structure_generation(paged) + 1
    paged._structure_generation = generation
    return generation


def _cached_compiled(paged, attr: str, missing):
    """The memoized compiled form under *attr*, or *missing* when absent
    or compiled at a stale structure generation."""
    cached = getattr(paged, attr, missing)
    if cached is missing:
        return missing
    if getattr(paged, attr + "_gen", 0) != structure_generation(paged):
        return missing
    return cached


def _store_compiled(paged, attr: str, value):
    """Memoize *value* under *attr*, stamped with the current generation."""
    setattr(paged, attr, value)
    setattr(paged, attr + "_gen", structure_generation(paged))
    return value


def _load_builtin_tracers() -> None:
    # Imported lazily: the paged-index modules import the broadcast layer,
    # which would cycle if pulled in while this package loads.
    global _BUILTINS_LOADED
    from repro.core.paging import PagedDTree
    from repro.pointloc.kirkpatrick import PagedTrianTree
    from repro.pointloc.trapezoidal import PagedTrapTree
    from repro.rstar.paged import PagedRStarTree

    for cls, tracer in (
        (PagedDTree, _trace_batch_dtree),
        (PagedRStarTree, _trace_batch_rstar),
        (PagedTrapTree, _trace_batch_trap),
        (PagedTrianTree, _trace_batch_trian),
    ):
        TRACER_REGISTRY.setdefault(cls, tracer)
        _PATH_TRACERS.add(tracer)
    _BUILTINS_LOADED = True


def batched_trace(
    paged_index: PagedIndex, points: Sequence[Point], *, paths: bool = False
) -> TraceBatch:
    """Trace a whole workload, dispatching on the paged index's class.

    ``paths=True`` also returns each query's search path (see
    :class:`TraceBatch`).
    """
    if not _BUILTINS_LOADED:
        _load_builtin_tracers()
    for cls in type(paged_index).__mro__:
        tracer = TRACER_REGISTRY.get(cls)
        if tracer is not None:
            break
    else:
        tracer = _trace_batch_generic
    if not paths:
        batch = tracer(paged_index, points)
    elif tracer is _trace_batch_generic or tracer in _PATH_TRACERS:
        batch = tracer(paged_index, points, paths=True)
    else:
        batch = _trace_batch_generic(paged_index, points, paths=True)
    col = active_collector()
    if col is not None:
        # Per-family packet counters, keyed by the paged-index class.
        family = type(paged_index).__name__
        col.count(f"trace.{family}.queries", len(batch))
        col.count(
            f"trace.{family}.index_packets", int(batch.tuning_time.sum())
        )
    return batch


# -- generic fallback -------------------------------------------------------


def _trace_batch_generic(
    paged_index: PagedIndex, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Per-point fallback over the index's own ``trace``."""
    n = len(points)
    regions = np.empty(n, np.int64)
    last = np.empty(n, np.int64)
    tuning = np.empty(n, np.int64)
    path_start = np.zeros(n + 1, np.int64) if paths else None
    flat: List[int] = []
    for i, p in enumerate(points):
        trace = paged_index.trace(p)
        accessed = trace.packets_accessed
        _check_forward(accessed)
        regions[i] = trace.region_id
        last[i] = accessed[-1] if accessed else 0
        tuning[i] = trace.tuning_time
        if paths:
            flat.extend(dict.fromkeys(accessed))
            path_start[i + 1] = len(flat)
    return TraceBatch(
        regions, last, tuning, path_start,
        np.array(flat, np.int64) if paths else None,
    )


def _with_paths(
    batch: TraceBatch,
    paths: bool,
    packet_count: int,
    queries: List[np.ndarray],
    packets: List[np.ndarray],
) -> TraceBatch:
    """*batch*, given its CSR search paths when *paths* asks for them,
    from every (query, packet) read the tracer charged, in any order.

    Reads are forward-only (the tracers check it before they return),
    so each query's path in read order is its distinct packets in
    ascending order: one sort of ``query * packet_count + packet`` keys
    with duplicates dropped.
    """
    if not paths:
        return batch
    keys = (
        np.unique(np.concatenate(queries) * packet_count + np.concatenate(packets))
        if queries
        else np.zeros(0, np.int64)
    )
    query, batch.path_packets = np.divmod(keys, packet_count)
    batch.path_start = np.zeros(len(batch) + 1, np.int64)
    np.cumsum(np.bincount(query, minlength=len(batch)), out=batch.path_start[1:])
    return batch


# -- D-tree: shared prefix traversal over compiled partitions ----------------


class _CompiledDTree:
    """The whole paged D-tree flattened to structure-of-arrays form.

    Every per-node attribute the descent needs — partition bounds,
    partition bucket (dimension x described side), slice of the shared
    segment pool, packet-span charging constants, child codes — lives in
    one array indexed by ``node_id``, so the traversal advances a whole
    frontier with gathers instead of touching Python node objects.
    Child codes are the child's ``node_id`` for internal children and
    ``~region_id`` (always negative) for data pointers.  A node's whole
    packet span sits in ``span_packets[span_start:span_start +
    span_count]`` for the search paths.
    """

    __slots__ = (
        "root",
        "dim_y",
        "described",
        "bucket",
        "first_bound",
        "second_bound",
        "seg_start",
        "seg_count",
        "left_code",
        "right_code",
        "pkt_first",
        "pkt_last",
        "pkt_distinct",
        "multi",
        "span_bad",
        "span_start",
        "span_count",
        "span_packets",
        "seg_ax",
        "seg_ay",
        "seg_bx",
        "seg_by",
    )


def _compile_dtree(paged) -> _CompiledDTree:
    """Compile the paged D-tree, built once per paged tree and cached.

    Packet charging is reduced to three constants per node (first
    packet, last packet, distinct-packet count): with the forward-only
    channel invariant, equal packets in a trace are always consecutive,
    so ``len(set(path))`` accumulates as distinct-per-span minus a
    duplicate adjustment where one span's first packet equals the
    previous span's last.  ``span_bad`` marks nodes whose own packet
    span moves backwards; the tracer defers to the scalar path to
    raise its exact error.
    """
    compiled = _cached_compiled(paged, "_compiled_dtree", None)
    if compiled is not None:
        return compiled
    from repro.core.dtree import DTreeNode

    nodes = sorted(paged.tree.iter_nodes(), key=lambda nd: nd.node_id)
    count = len(nodes)
    if [nd.node_id for nd in nodes] != list(range(count)):
        raise QueryError("paged D-tree node ids are not dense — rebuild it")

    ct = _CompiledDTree()
    ct.root = paged.tree.root.node_id
    ct.dim_y = np.empty(count, bool)
    ct.described = np.empty(count, bool)
    ct.bucket = np.empty(count, np.int8)
    ct.first_bound = np.empty(count, np.float64)
    ct.second_bound = np.empty(count, np.float64)
    ct.seg_start = np.empty(count, np.int64)
    ct.seg_count = np.empty(count, np.int64)
    ct.left_code = np.empty(count, np.int64)
    ct.right_code = np.empty(count, np.int64)
    ct.pkt_first = np.empty(count, np.int64)
    ct.pkt_last = np.empty(count, np.int64)
    ct.pkt_distinct = np.empty(count, np.int64)
    ct.multi = np.empty(count, bool)
    ct.span_bad = np.empty(count, bool)
    ct.span_start = np.empty(count, np.int64)
    ct.span_count = np.empty(count, np.int64)
    spans: List[int] = []

    segs: List[List[np.ndarray]] = [[], [], [], []]
    offset = 0
    for i, node in enumerate(nodes):
        partition = CompiledPartition(node.partition)
        ct.dim_y[i] = partition.dim_y
        ct.described[i] = partition.described_first
        ct.bucket[i] = (0 if partition.dim_y else 2) + (
            0 if partition.described_first else 1
        )
        ct.first_bound[i] = partition.first_bound
        ct.second_bound[i] = partition.second_bound
        ct.seg_start[i] = offset
        ct.seg_count[i] = len(partition.ax)
        offset += len(partition.ax)
        for pool, arr in zip(segs, (partition.ax, partition.ay, partition.bx, partition.by)):
            pool.append(arr)
        packets = list(paged._node_packets[node.node_id])
        ct.pkt_first[i] = packets[0]
        ct.pkt_last[i] = packets[-1]
        ct.pkt_distinct[i] = len(set(packets))
        ct.multi[i] = len(packets) > 1
        ct.span_bad[i] = any(b < a for a, b in zip(packets, packets[1:]))
        ct.span_start[i] = len(spans)
        ct.span_count[i] = len(packets)
        spans.extend(packets)
        for code_arr, child in ((ct.left_code, node.left), (ct.right_code, node.right)):
            code_arr[i] = (
                child.node_id if isinstance(child, DTreeNode) else ~int(child)
            )

    empty = np.zeros(0, np.float64)
    ct.seg_ax, ct.seg_ay, ct.seg_bx, ct.seg_by = (
        np.concatenate(pool) if pool else empty for pool in segs
    )
    ct.span_packets = np.array(spans, np.int64)
    _store_compiled(paged, "_compiled_dtree", ct)
    return ct


def _pair_parity(
    ct: _CompiledDTree,
    bucket: int,
    nd: np.ndarray,
    ex: np.ndarray,
    ey: np.ndarray,
) -> np.ndarray:
    """Ray-parity side decisions for (node, point) pairs of one bucket.

    Each pair expands to its node's slice of the shared segment pool,
    the scalar ``Partition.side_of`` crossing expressions run once over
    the flat pair-segment arrays (identical IEEE-754 operation order),
    and ``reduceat`` folds the hits back per pair.  Returns the boolean
    "first side" answer per pair.
    """
    pair_count = ct.seg_count[nd]
    edge = ragged_ranges(ct.seg_start[nd], pair_count)
    rep = np.repeat(np.arange(len(ex), dtype=np.int64), pair_count)
    dim_y = bucket < 2
    described = bucket % 2 == 0
    # Only the few edges whose ray-coordinate range straddles the query
    # contribute a crossing; compress to those before the expensive
    # crossing-abscissa arithmetic (the straddle makes the divisor
    # provably nonzero, so no division guard is needed).
    if dim_y:
        say = ct.seg_ay[edge]
        sby = ct.seg_by[edge]
        er = ey[rep]
        straddle = np.flatnonzero((say > er) != (sby > er))
        say = say[straddle]
        sby = sby[straddle]
        hit_rep = rep[straddle]
        hit_edge = edge[straddle]
        sax = ct.seg_ax[hit_edge]
        sbx = ct.seg_bx[hit_edge]
        eyc = ey[hit_rep]
        t_at = sax + (eyc - say) / (sby - say) * (sbx - sax)
        exc = ex[hit_rep]
        hit = (t_at > exc) if described else (t_at < exc)
    else:
        sax = ct.seg_ax[edge]
        sbx = ct.seg_bx[edge]
        er = ex[rep]
        straddle = np.flatnonzero((sax > er) != (sbx > er))
        sax = sax[straddle]
        sbx = sbx[straddle]
        hit_rep = rep[straddle]
        hit_edge = edge[straddle]
        say = ct.seg_ay[hit_edge]
        sby = ct.seg_by[hit_edge]
        exc = ex[hit_rep]
        t_at = say + (exc - sax) / (sbx - sax) * (sby - say)
        eyc = ey[hit_rep]
        hit = (t_at < eyc) if described else (t_at > eyc)
    crossings = np.bincount(hit_rep[hit], minlength=len(ex))
    odd = (crossings % 2).astype(bool)
    return odd if described else ~odd


def _trace_batch_dtree(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Level-synchronous traversal of the paged D-tree.

    The whole frontier advances one tree level per iteration over flat
    per-point state arrays (current node, last packet read, tuning so
    far): the cheap D1/D3 exclusive-zone comparisons decide most points
    with a handful of gathers, and the leftover interlocking-zone (D2)
    points of the entire level are resolved by at most four
    :func:`_pair_parity` ragged kernel calls — one per partition bucket
    — instead of one broadcast per node.  Packet charging follows §4.4:
    the first packet only, unless the node spans several packets and
    the query needs the whole partition (D2, or early termination off);
    tuning accumulates incrementally via the distinct-per-span
    constants of :func:`_compile_dtree`; a packet path is materialised
    only when *paths* asks for it.
    """
    tree = paged.tree
    n = len(points)
    if tree.root is None:
        only = tree.subdivision.regions[0].region_id
        zero = np.zeros(n, np.int64)
        batch = TraceBatch(np.full(n, only, np.int64), zero, zero.copy())
        return _with_paths(batch, paths, 1, [], [])

    xs, ys = point_coords(points)
    ct = _compile_dtree(paged)
    early = paged.early_termination
    col = active_collector()
    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)

    apt = np.arange(n)  # active point index
    anode = np.full(n, ct.root, np.int64)  # current node per active point
    alast = np.full(n, -1, np.int64)  # last packet read (-1 = none yet)
    atun = np.zeros(n, np.int64)  # distinct packets read so far
    read_q: List[np.ndarray] = []  # (query, packet) reads, for paths
    read_p: List[np.ndarray] = []

    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.dtree.levels")
            col.observe("trace.dtree.frontier_width", apt.size)
        x = xs[apt]
        y = ys[apt]

        # Early D1/D3 exclusive-zone tests, both dimensions at once.
        dim_y = ct.dim_y[nd]
        first = np.where(dim_y, x <= ct.first_bound[nd], y >= ct.first_bound[nd])
        interlocked = ~first & np.where(
            dim_y, x < ct.second_bound[nd], y > ct.second_bound[nd]
        )

        if interlocked.any():
            seg_count = ct.seg_count[nd]
            zero_seg = interlocked & (seg_count == 0)
            if zero_seg.any():
                # Degenerate partition without boundary segments: the
                # scalar parity test sees zero crossings (odd = False).
                first[zero_seg] = ~ct.described[nd[zero_seg]]
            d2 = np.flatnonzero(interlocked & (seg_count > 0))
            if d2.size:
                buckets = ct.bucket[nd[d2]]
                for bucket in range(4):
                    sel = d2[buckets == bucket]
                    if sel.size:
                        if col is not None:
                            col.observe(
                                "kernels.pair_parity.size", sel.size
                            )
                        first[sel] = _pair_parity(
                            ct, bucket, nd[sel], x[sel], y[sel]
                        )

        # Packet charging (§4.4).
        pf = ct.pkt_first[nd]
        use_long = ct.multi[nd] & interlocked if early else ct.multi[nd]
        if (alast > pf).any() or ct.span_bad[nd].any():
            # Backwards broadcast order: the scalar path raises the
            # client's error for the earliest offending point.
            _trace_batch_generic(paged, points)
            raise BroadcastError(
                "index traversal moved backwards on the broadcast channel"
            )
        atun += np.where(use_long, ct.pkt_distinct[nd], 1) - (alast == pf)
        alast = np.where(use_long, ct.pkt_last[nd], pf)
        if paths:
            read_q.append(apt)
            read_p.append(pf)
            spanned = nd[use_long]
            counts = ct.span_count[spanned]
            read_q.append(np.repeat(apt[use_long], counts))
            read_p.append(
                ct.span_packets[ragged_ranges(ct.span_start[spanned], counts)]
            )

        # Descend: negative child codes are data pointers (~region_id).
        code = np.where(first, ct.left_code[nd], ct.right_code[nd])
        at_leaf = code < 0
        if at_leaf.any():
            done = apt[at_leaf]
            regions[done] = ~code[at_leaf]
            last_out[done] = alast[at_leaf]
            tuning_out[done] = atun[at_leaf]
            keep = ~at_leaf
            apt = apt[keep]
            anode = code[keep]
            alast = alast[keep]
            atun = atun[keep]
        else:
            anode = code

    return _with_paths(
        TraceBatch(regions, last_out, tuning_out),
        paths, len(paged.packets), read_q, read_p,
    )


# -- R*-tree: level-synchronous pair expansion over preorder arrays ----------


class _CompiledRStarTree:
    """The paged R*-tree flattened to preorder structure-of-arrays form.

    Nodes sit in the DFS preorder of the paging walk (root at 0); node
    ``i`` owns the entry slice ``entry_start[i] : entry_start[i] +
    entry_count[i]``.  Per entry: the MBR and a child code — the
    child's node index, or ``~pos`` for a leaf entry pointing at
    position ``pos`` of the subdivision's scan order.

    The scalar search reads in DFS order: a node's packet, then per
    entry either the child subtree or a leaf entry's shape span.  Each
    such read event has a DFS rank (``node_rank``, and ``entry_rank``
    for leaf entries, ``-1`` otherwise), and the ``event_*`` tables,
    indexed by rank, hold its packet span as first/last/distinct-count
    constants plus a backwards flag, a leaf entry's region id (``-1``
    for a node) and, for the search paths, the span itself
    (``event_packets[event_pkt_start:event_pkt_start +
    event_pkt_count]``).  The ``bb_*`` polygon bboxes and the
    :data:`EDGE_POOL_FIELDS` arrays are the subdivision's compiled form,
    indexed by scan position.
    """

    __slots__ = (
        "node_rank",
        "entry_start",
        "entry_count",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "code",
        "entry_rank",
        "event_first",
        "event_last",
        "event_distinct",
        "event_bad",
        "event_region",
        "event_pkt_start",
        "event_pkt_count",
        "event_packets",
        "bb_min_x",
        "bb_min_y",
        "bb_max_x",
        "bb_max_y",
    ) + EDGE_POOL_FIELDS


def _compile_rstar(paged) -> _CompiledRStarTree:
    """Compile the paged R*-tree, built once per paged tree and cached."""
    compiled = _cached_compiled(paged, "_compiled_rstar", None)
    if compiled is not None:
        return compiled
    csub = paged.tree.subdivision.compiled()
    scan_pos = {rid: i for i, rid in enumerate(csub.region_ids.tolist())}
    nodes = paged._nodes_preorder()
    index = {id(node): i for i, node in enumerate(nodes)}
    count = len(nodes)

    ct = _CompiledRStarTree()
    ct.node_rank = np.empty(count, np.int64)
    ct.entry_start = np.empty(count, np.int64)
    ct.entry_count = np.empty(count, np.int64)
    rects: List[tuple] = []
    code: List[int] = []
    entry_rank: List[int] = []
    # Per rank: (first packet, last packet, distinct, backwards, region),
    # and the packet span in event_packets.
    events: List[tuple] = []
    event_packets: List[int] = []
    event_pkt_count: List[int] = []
    for i, node in enumerate(nodes):
        packet = paged._node_packet[id(node)]
        ct.node_rank[i] = len(events)
        events.append((packet, packet, 1, False, -1))
        event_packets.append(packet)
        event_pkt_count.append(1)
        ct.entry_start[i] = len(code)
        ct.entry_count[i] = len(node.entries)
        for entry in node.entries:
            mbr = entry.mbr
            rects.append((mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y))
            if node.is_leaf:
                code.append(~scan_pos[entry.region_id])
                entry_rank.append(len(events))
                packets = paged._shape_packets[entry.region_id]
                events.append((
                    packets[0],
                    packets[-1],
                    len(set(packets)),
                    any(b < a for a, b in zip(packets, packets[1:])),
                    entry.region_id,
                ))
                event_packets.extend(packets)
                event_pkt_count.append(len(packets))
            else:
                code.append(index[id(entry.child)])
                entry_rank.append(-1)

    rect_arr = np.array(rects, np.float64).reshape(-1, 4)
    ct.min_x, ct.min_y, ct.max_x, ct.max_y = (
        np.ascontiguousarray(col) for col in rect_arr.T
    )
    ct.code = np.array(code, np.int64)
    ct.entry_rank = np.array(entry_rank, np.int64)
    event_arr = np.array(events, np.int64).reshape(-1, 5)
    ct.event_first = np.ascontiguousarray(event_arr[:, 0])
    ct.event_last = np.ascontiguousarray(event_arr[:, 1])
    ct.event_distinct = np.ascontiguousarray(event_arr[:, 2])
    ct.event_bad = event_arr[:, 3].astype(bool)
    ct.event_region = np.ascontiguousarray(event_arr[:, 4])
    ct.event_pkt_count = np.array(event_pkt_count, np.int64)
    ct.event_pkt_start = np.cumsum(ct.event_pkt_count) - ct.event_pkt_count
    ct.event_packets = np.array(event_packets, np.int64)
    ct.bb_min_x = csub.bb_min_x
    ct.bb_min_y = csub.bb_min_y
    ct.bb_max_x = csub.bb_max_x
    ct.bb_max_y = csub.bb_max_y
    for field in EDGE_POOL_FIELDS:
        setattr(ct, field, getattr(csub, field))
    _store_compiled(paged, "_compiled_rstar", ct)
    return ct


def _trace_batch_rstar(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Level-synchronous traversal of the paged R*-tree.

    Every level expands the frontier's (query, node) pairs into
    (query, entry) pairs and applies the closed MBR gate to all of them
    at once; internal survivors form the next frontier, leaf survivors
    are the candidate pairs, tested by one ragged closed-polygon pass
    (:func:`~repro.geometry.kernels.classify_pairs` behind the polygon
    bbox gate).  The traversal reaches every event the scalar DFS could
    read, each encoded as one sortable ``(query, rank, hit)`` key.  The
    scalar search stops at its first containing polygon, so a query's
    answer is its lowest-rank hit and it reads exactly the run of its
    events up to that hit.  Charging follows the D-tree rule: in rank
    order, each event costs its distinct packets minus one when its
    first packet repeats the previous event's last.  A backwards packet
    span, or a query no polygon contains, re-runs the scalar path to
    raise its exact error.  A query's search path is the packets of the
    same run of events.
    """
    n = len(points)
    if n == 0:
        empty = np.zeros(0, np.int64)
        return _with_paths(
            TraceBatch(empty, empty.copy(), empty.copy()), paths, 1, [], []
        )
    xs, ys = point_coords(points)
    ct = _compile_rstar(paged)
    col = active_collector()
    ranks = len(ct.event_first)

    # The closed MBR gate tests the x interval of every (query, entry)
    # pair and the y interval of the survivors only.  At the root every
    # query faces the same entries: one dense broadcast compare.
    lo = ct.entry_start[0]
    hi = lo + ct.entry_count[0]
    entry, q = np.nonzero(
        (ct.min_x[lo:hi, None] <= xs) & (xs <= ct.max_x[lo:hi, None])
    )
    e = entry + lo
    fq = np.arange(n, dtype=np.int64)  # frontier query
    fn = np.zeros(n, np.int64)  # frontier node (root = 0)
    node_keys: List[np.ndarray] = []  # (query * ranks + rank), per level
    leaf_q: List[np.ndarray] = []
    leaf_e: List[np.ndarray] = []
    while True:
        if col is not None:
            col.count("trace.rstar.levels")
            col.observe("trace.rstar.frontier_width", fq.size)
        node_keys.append(fq * ranks + ct.node_rank[fn])
        py = ys[q]
        inside = np.flatnonzero((ct.min_y[e] <= py) & (py <= ct.max_y[e]))
        e = e[inside]
        q = q[inside]
        code = ct.code[e]
        leaf = code < 0
        leaf_q.append(q[leaf])
        leaf_e.append(e[leaf])
        internal = ~leaf
        fq = q[internal]
        fn = code[internal]
        if not fq.size:
            break
        # Expand the next frontier's (query, node) pairs ragged.
        counts = ct.entry_count[fn]
        e = ragged_ranges(ct.entry_start[fn], counts)
        px = np.repeat(xs[fq], counts)
        inside = np.flatnonzero((ct.min_x[e] <= px) & (px <= ct.max_x[e]))
        e = e[inside]
        q = np.repeat(fq, counts)[inside]

    cq = np.concatenate(leaf_q)
    ce = np.concatenate(leaf_e)
    if col is not None:
        col.observe("trace.rstar.candidate_pairs", cq.size)
    pos = ~ct.code[ce]
    px = xs[cq]
    py = ys[cq]
    gated = np.flatnonzero(
        (ct.bb_min_x[pos] <= px)
        & (px <= ct.bb_max_x[pos])
        & (ct.bb_min_y[pos] <= py)
        & (py <= ct.bb_max_y[pos])
    )
    hit = np.zeros(cq.size, np.int64)
    if gated.size:
        on_edge, odd = classify_pairs(ct, xs, ys, pos[gated], cq[gated])
        hit[gated] = on_edge | odd

    # Every read event as one key, sorted into (query, rank) order.
    node_keys.append(cq * ranks + ct.entry_rank[ce])
    events = np.concatenate(node_keys) << 1
    events[events.size - cq.size :] |= hit
    events.sort()
    ev_hit = (events & 1).astype(bool)
    ev_q, ev_rank = np.divmod(events >> 1, ranks)

    # Each query's answer: its first hit.  Every query owns a non-empty
    # run of events (the root visit) starting at ``starts``.
    hit_at = np.flatnonzero(ev_hit)
    hit_q = ev_q[hit_at]
    lead = np.ones(hit_at.size, bool)
    lead[1:] = hit_q[1:] != hit_q[:-1]
    answer = hit_at[lead]
    if answer.size != n:
        # No containing polygon: the scalar path raises its QueryError
        # for the earliest failing point.
        _trace_batch_generic(paged, points)
        raise QueryError("R*-tree search failed")  # pragma: no cover
    counts = np.bincount(ev_q, minlength=n)
    starts = np.cumsum(counts) - counts

    # §4.4 charging in rank order (the D-tree rule), summed over each
    # query's run starts..answer.
    first = ct.event_first[ev_rank]
    last = ct.event_last[ev_rank]
    same = ev_q[1:] == ev_q[:-1]
    backwards = ct.event_bad[ev_rank]
    backwards[1:] |= same & (first[1:] < last[:-1])
    charge = ct.event_distinct[ev_rank]
    charge[1:] -= same & (first[1:] == last[:-1])

    def run_sums(values: np.ndarray) -> np.ndarray:
        total = np.cumsum(values)
        return total[answer] - total[starts] + values[starts]

    if run_sums(backwards).any():
        # Backwards broadcast order: the scalar path raises the
        # client's error for the earliest offending point.
        _trace_batch_generic(paged, points)
        raise BroadcastError(
            "index traversal moved backwards on the broadcast channel"
        )
    batch = TraceBatch(
        ct.event_region[ev_rank[answer]],
        last[answer],
        run_sums(charge),
    )
    if not paths:
        return batch
    read = np.flatnonzero(np.arange(ev_q.size) <= answer[ev_q])
    rank = ev_rank[read]
    counts = ct.event_pkt_count[rank]
    return _with_paths(
        batch,
        paths,
        len(paged.packets),
        [np.repeat(ev_q[read], counts)],
        [ct.event_packets[ragged_ranges(ct.event_pkt_start[rank], counts)]],
    )


# -- trap-tree: flat-frontier descent over the packed DAG --------------------

_UNCOMPILED = object()

_TRAP_XNODE = np.int8(0)
_TRAP_YNODE = np.int8(1)
_TRAP_LEAF = np.int8(2)


class _CompiledTrapTree:
    """The trapezoidal-map search DAG flattened to structure-of-arrays.

    Nodes are indexed in the paged tree's topological (broadcast) order,
    root at index 0.  ``kind`` discriminates x-node / y-node / leaf;
    x-nodes store their vertex in ``ax/ay``, y-nodes their segment in
    ``ax/ay -> bx/by``.  ``on_true``/``on_false`` are the child indices
    for a true/false branch decision (right/left at an x-node,
    above/below at a y-node); ``packet`` is each node's broadcast packet
    and ``region`` the leaf's data region (``-1`` for the uncovered
    slivers outside the subdivision).
    """

    __slots__ = (
        "kind",
        "ax",
        "ay",
        "bx",
        "by",
        "on_true",
        "on_false",
        "packet",
        "region",
    )


def _compile_trap(paged):
    """Compile the paged trap-tree, built once and cached on it.

    Validates at compile time what the incremental §4.4 charging relies
    on: a dense DAG (no dangling children) whose child packets never
    precede a parent's packet — guaranteed by the allocator, which
    places every node at or after its latest parent packet.  Returns
    None (cached) when the invariants do not hold, sending the tracer
    to the per-point scalar path.
    """
    compiled = _cached_compiled(paged, "_compiled_trap", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    from repro.pointloc.trapezoidal import _Leaf, _XNode

    nodes = paged.tree.nodes_topological()
    count = len(nodes)
    pos = {id(node): i for i, node in enumerate(nodes)}
    kind = np.empty(count, np.int8)
    ax = np.zeros(count, np.float64)
    ay = np.zeros(count, np.float64)
    bx = np.zeros(count, np.float64)
    by = np.zeros(count, np.float64)
    on_true = np.zeros(count, np.int32)
    on_false = np.zeros(count, np.int32)
    packet = np.empty(count, np.int32)
    region = np.full(count, -1, np.int32)

    ok = count > 0 and pos.get(id(paged.tree.root)) == 0
    for i, node in enumerate(nodes):
        if not ok:
            break
        packet[i] = paged._node_packet[id(node)]
        if isinstance(node, _Leaf):
            kind[i] = _TRAP_LEAF
            if node.trap.region is not None:
                region[i] = node.trap.region
        elif isinstance(node, _XNode):
            kind[i] = _TRAP_XNODE
            ax[i] = node.point.x
            ay[i] = node.point.y
            if node.left is None or node.right is None:
                ok = False
                break
            on_true[i] = pos[id(node.right)]
            on_false[i] = pos[id(node.left)]
        else:  # _YNode
            kind[i] = _TRAP_YNODE
            seg = node.seg
            ax[i] = seg.p.x
            ay[i] = seg.p.y
            bx[i] = seg.q.x
            by[i] = seg.q.y
            if node.above is None or node.below is None:
                ok = False
                break
            on_true[i] = pos[id(node.above)]
            on_false[i] = pos[id(node.below)]

    if ok:
        internal = kind != _TRAP_LEAF
        for child in (on_true[internal], on_false[internal]):
            if not (packet[child] >= packet[internal]).all():
                ok = False
                break

    compiled = None
    if ok:
        ct = _CompiledTrapTree()
        ct.kind = kind
        ct.ax = ax
        ct.ay = ay
        ct.bx = bx
        ct.by = by
        ct.on_true = on_true
        ct.on_false = on_false
        ct.packet = packet
        ct.region = region
        compiled = ct
    _store_compiled(paged, "_compiled_trap", compiled)
    return compiled


def _trap_tree_regions(
    ct: _CompiledTrapTree, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Leaf region per (already sheared) point under the *tree* descent
    rules — ``TrapTree._descend(pt, None)``: x ties go right on the x
    comparison alone, zero cross goes above.  Backs the vectorized
    ``effective_point`` degeneracy check; ``-1`` marks points landing
    in an uncovered sliver."""
    n = len(xs)
    out = np.full(n, -1, np.int64)
    apt = np.arange(n)
    anode = np.zeros(n, np.int64)
    while apt.size:
        nd = anode
        leaf = ct.kind[nd] == _TRAP_LEAF
        if leaf.any():
            out[apt[leaf]] = ct.region[nd[leaf]]
            keep = ~leaf
            apt = apt[keep]
            nd = nd[keep]
            if apt.size == 0:
                break
        x = xs[apt]
        y = ys[apt]
        nax = ct.ax[nd]
        cond = x >= nax
        is_y = ct.kind[nd] == _TRAP_YNODE
        if is_y.any():
            cross = cross_batch(nax, ct.ay[nd], ct.bx[nd], ct.by[nd], x, y)
            cond = np.where(is_y, cross >= 0.0, cond)
        anode = np.where(cond, ct.on_true[nd], ct.on_false[nd]).astype(np.int64)
    return out


def _trace_batch_trap(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Flat-frontier descent of the paged trap-tree.

    Two vectorized passes over the compiled DAG: first the tree-rule
    descent of the sheared points replicates ``effective_point`` (the
    rare degenerate hits fall back to the scalar nudge loop per point),
    then the paged-trace descent — lexicographic x ties, zero cross
    above — walks all queries level-synchronously, charging each
    visited node's packet incrementally.  The allocator guarantees
    nondecreasing packets along every root-to-leaf path (checked at
    compile time), so distinct-packet tuning time is simply the count
    of packet changes.  Any query ending in an uncovered sliver defers
    to the per-point scalar path, which raises its error for the
    earliest failing point.
    """
    ct = _compile_trap(paged)
    if ct is None:
        return _trace_batch_generic(paged, points, paths)
    from repro.pointloc.trapezoidal import SHEAR

    n = len(points)
    xs, ys = point_coords(points)
    col = active_collector()

    # effective_point, vectorized: shear every point (identical
    # arithmetic to the scalar `_shear`), then nudge the degenerate
    # landings via the scalar fallback — a measure-zero event.
    ex = xs + SHEAR * ys
    ey = ys.copy()
    degenerate = _trap_tree_regions(ct, ex, ey) < 0
    if degenerate.any():
        if col is not None:
            col.count("trace.trap.nudged", int(degenerate.sum()))
        tree = paged.tree
        for i in np.flatnonzero(degenerate).tolist():
            nudged = tree.effective_point(points[i])
            ex[i] = nudged.x
            ey[i] = nudged.y

    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)

    apt = np.arange(n)  # active point index
    anode = np.zeros(n, np.int64)  # current node (root = 0)
    alast = np.full(n, -1, np.int64)  # last packet read (-1 = none yet)
    atun = np.zeros(n, np.int64)  # distinct packets read so far
    read_q: List[np.ndarray] = []  # (query, packet) reads, for paths
    read_p: List[np.ndarray] = []

    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.trap.levels")
            col.observe("trace.trap.frontier_width", apt.size)
        # Charge the node being read: packets never decrease along a
        # descent, so every packet change is a new distinct packet.
        pkt = ct.packet[nd]
        atun += pkt != alast
        alast = pkt.astype(np.int64)
        if paths:
            read_q.append(apt)
            read_p.append(alast)
        leaf = ct.kind[nd] == _TRAP_LEAF
        if leaf.any():
            done = apt[leaf]
            regions[done] = ct.region[nd[leaf]]
            last_out[done] = alast[leaf]
            tuning_out[done] = atun[leaf]
            keep = ~leaf
            apt = apt[keep]
            nd = nd[keep]
            alast = alast[keep]
            atun = atun[keep]
            if apt.size == 0:
                break
        x = ex[apt]
        y = ey[apt]
        nax = ct.ax[nd]
        # Paged-trace x rule: lexicographic (x, y) >= (node.x, node.y).
        cond = (x > nax) | ((x == nax) & (y >= ct.ay[nd]))
        is_y = ct.kind[nd] == _TRAP_YNODE
        if is_y.any():
            cross = cross_batch(nax, ct.ay[nd], ct.bx[nd], ct.by[nd], x, y)
            cond = np.where(is_y, cross >= 0.0, cond)
        anode = np.where(cond, ct.on_true[nd], ct.on_false[nd]).astype(np.int64)

    if (regions < 0).any():
        # Uncovered sliver: the scalar path raises its QueryError for
        # the earliest failing point.
        _trace_batch_generic(paged, points)
        raise QueryError("trap-tree descent failed")  # pragma: no cover
    return _with_paths(
        TraceBatch(regions, last_out, tuning_out),
        paths, len(paged.packets), read_q, read_p,
    )


# -- trian-tree: level-synchronous descent over CSR child arrays -------------


class _CompiledTrianTree:
    """The Kirkpatrick hierarchy flattened to CSR child arrays.

    Nodes are indexed in the paged tree's level (broadcast) order; a
    synthetic entry at index ``len(region)`` represents the root
    directory, whose children are the coarsest triangles.  Each node's
    children sit in ``child_flat[child_start[i] : child_start[i] +
    child_count[i]]``, sorted stably by packet — the exact scan order
    of the scalar ``_scan``.  ``child_pkt`` mirrors each child's
    packet and ``child_distinct`` the running count of distinct packets
    in the child list's prefix, which turns §4.4 charging of a partial
    scan into one gather.

    The ``ctri_*`` arrays duplicate each child's CCW triangle vertices
    per CSR slot, so the level sweep gathers candidate coordinates
    with one indirection instead of two.
    """

    __slots__ = (
        "region",
        "child_start",
        "child_count",
        "child_flat",
        "child_pkt",
        "child_distinct",
        "ctri_ax",
        "ctri_ay",
        "ctri_bx",
        "ctri_by",
        "ctri_cx",
        "ctri_cy",
    )


def _compile_trian(paged):
    """Compile the paged trian-tree, built once and cached on it.

    Validates the broadcast-order invariants the batched scan charging
    relies on: every child's packet at or after its parent's (the
    greedy level-order allocator guarantees this) and a non-empty root
    level.  Returns None (cached) otherwise, deferring to the
    per-point scalar path.
    """
    compiled = _cached_compiled(paged, "_compiled_trian", _UNCOMPILED)
    if compiled is not _UNCOMPILED:
        return compiled
    order = paged._order
    count = len(order)
    pos = {id(node): i for i, node in enumerate(order)}
    node_pkt = paged._node_packet

    tri_ax = np.empty(count, np.float64)
    tri_ay = np.empty(count, np.float64)
    tri_bx = np.empty(count, np.float64)
    tri_by = np.empty(count, np.float64)
    tri_cx = np.empty(count, np.float64)
    tri_cy = np.empty(count, np.float64)
    region = np.full(count, -1, np.int32)
    child_start = np.zeros(count + 1, np.int64)
    child_count = np.zeros(count + 1, np.int64)
    flat: List[int] = []
    flat_pkt: List[int] = []
    flat_distinct: List[int] = []

    ok = count > 0 and len(paged.tree.roots) > 0

    def append_children(parent_packet: int, children) -> bool:
        # Stable sort by packet — the scalar ``_scan`` candidate order.
        ordered = sorted(children, key=lambda nd: node_pkt[id(nd)])
        distinct = 0
        prev = None
        for child in ordered:
            cpos = pos.get(id(child))
            pkt = node_pkt[id(child)]
            if cpos is None or pkt < parent_packet:
                return False
            if pkt != prev:
                distinct += 1
                prev = pkt
            flat.append(cpos)
            flat_pkt.append(pkt)
            flat_distinct.append(distinct)
        return True

    for i, node in enumerate(order):
        if not ok:
            break
        tri = node.triangle
        tri_ax[i] = tri.a.x
        tri_ay[i] = tri.a.y
        tri_bx[i] = tri.b.x
        tri_by[i] = tri.b.y
        tri_cx[i] = tri.c.x
        tri_cy[i] = tri.c.y
        if node.region_id is not None:
            region[i] = node.region_id
        child_start[i] = len(flat)
        ok = append_children(node_pkt[id(node)], node.children)
        child_count[i] = len(flat) - child_start[i]
    if ok:
        child_start[count] = len(flat)
        ok = append_children(paged._root_dir_packet, paged.tree.roots)
        child_count[count] = len(flat) - child_start[count]

    compiled = None
    if ok:
        ct = _CompiledTrianTree()
        ct.region = region
        ct.child_start = child_start
        ct.child_count = child_count
        ct.child_flat = np.asarray(flat, np.int64)
        ct.child_pkt = np.asarray(flat_pkt, np.int64)
        ct.child_distinct = np.asarray(flat_distinct, np.int64)
        ct.ctri_ax = tri_ax[ct.child_flat]
        ct.ctri_ay = tri_ay[ct.child_flat]
        ct.ctri_bx = tri_bx[ct.child_flat]
        ct.ctri_by = tri_by[ct.child_flat]
        ct.ctri_cx = tri_cx[ct.child_flat]
        ct.ctri_cy = tri_cy[ct.child_flat]
        compiled = ct
    _store_compiled(paged, "_compiled_trian", compiled)
    return compiled


def _trace_batch_trian(
    paged, points: Sequence[Point], paths: bool = False
) -> TraceBatch:
    """Level-synchronous descent of the paged trian-tree.

    Every level expands the frontier's candidate children into one
    ragged array, tests them with a single batched point-in-triangle
    sweep over the packed ``scan_pack`` operands (the arithmetic of
    :func:`~repro.geometry.kernels.point_in_triangles_batch`), and
    picks the first containing triangle per point with a
    ``minimum.reduceat`` — the scalar scan order, since children are
    compiled sorted by packet.
    Charging is incremental: a scan through child slots ``0..f`` reads
    ``child_distinct[f]`` distinct packets, minus one when the scan's
    first packet repeats the previous level's last.  A point whose scan
    finds no containing triangle, or which terminates in a gap
    triangle, defers the whole batch to the per-point scalar path to
    raise its error for the earliest failing point.
    """
    ct = _compile_trian(paged)
    if ct is None:
        return _trace_batch_generic(paged, points, paths)
    n = len(points)
    xs, ys = point_coords(points)
    col = active_collector()

    regions = np.empty(n, np.int64)
    last_out = np.empty(n, np.int64)
    tuning_out = np.empty(n, np.int64)

    count = len(ct.region)
    apt = np.arange(n)  # active point index
    anode = np.full(n, count, np.int64)  # synthetic root-directory node
    alast = np.full(n, paged._root_dir_packet, np.int64)
    atun = np.ones(n, np.int64)  # the root directory is always read
    read_q: List[np.ndarray] = [apt]  # (query, packet) reads, for paths
    read_p: List[np.ndarray] = [alast]

    flat_sentinel = np.iinfo(np.int64).max
    while apt.size:
        nd = anode
        if col is not None:
            col.count("trace.trian.levels")
            col.observe("trace.trian.frontier_width", apt.size)
        counts = ct.child_count[nd]
        starts = ct.child_start[nd]
        # CSR slot index per (active point, candidate child) pair.
        flat = ragged_ranges(starts, counts)
        if col is not None:
            col.observe("trace.trian.scan_width", flat.size)
        rep = np.repeat(apt, counts)
        px = xs[rep]
        py = ys[rep]
        tax = ct.ctri_ax[flat]
        tay = ct.ctri_ay[flat]
        tbx = ct.ctri_bx[flat]
        tby = ct.ctri_by[flat]
        tcx = ct.ctri_cx[flat]
        tcy = ct.ctri_cy[flat]
        # Triangle.contains_point, IEEE-754 expression order verbatim
        # (the arithmetic of point_in_triangles_batch); min(c1, c2, c3)
        # >= -EPS is exactly "all three signs non-negative" — the
        # operands are finite, never NaN.
        c1 = (tbx - tax) * (py - tay) - (tby - tay) * (px - tax)
        c2 = (tcx - tbx) * (py - tby) - (tcy - tby) * (px - tbx)
        c3 = (tax - tcx) * (py - tcy) - (tay - tcy) * (px - tcx)
        contains = np.minimum(np.minimum(c1, c2), c3) >= -EPS
        # First containing child per point: flat indices ascend within a
        # node's slice, so the minimum hit is the scalar scan's choice.
        f = np.minimum.reduceat(
            np.where(contains, flat, flat_sentinel), np.cumsum(counts) - counts
        )
        if (f == flat_sentinel).any():
            # No containing child: the scalar path raises its
            # "outside the super-triangle" / "descent lost" error.
            _trace_batch_generic(paged, points)
            raise QueryError("trian-tree descent failed")  # pragma: no cover
        # §4.4: the scan read child slots 0..f, touching
        # child_distinct[f] distinct packets; the first one may repeat
        # the previous level's last packet.
        atun += ct.child_distinct[f] - (ct.child_pkt[starts] == alast)
        alast = ct.child_pkt[f]
        if paths:
            scanned = f - starts + 1
            read_q.append(np.repeat(apt, scanned))
            read_p.append(ct.child_pkt[ragged_ranges(starts, scanned)])
        anode = ct.child_flat[f]
        term = ct.child_count[anode] == 0
        if term.any():
            treg = ct.region[anode[term]]
            if (treg < 0).any():
                # Gap triangle: "outside the subdivided area" per point.
                _trace_batch_generic(paged, points)
                raise QueryError("trian-tree descent failed")  # pragma: no cover
            done = apt[term]
            regions[done] = treg
            last_out[done] = alast[term]
            tuning_out[done] = atun[term]
            keep = ~term
            apt = apt[keep]
            anode = anode[keep]
            alast = alast[keep]
            atun = atun[keep]

    return _with_paths(
        TraceBatch(regions, last_out, tuning_out),
        paths, len(paged.packets), read_q, read_p,
    )
