"""Zero-copy sharing of compiled index state across worker processes.

Compiling a paged index to its structure-of-arrays form
(:mod:`repro.engine.trace`) is the expensive part of engine start-up,
and the compiled arrays are strictly read-only during evaluation.  The
fleet layer therefore builds them **once** in the parent, copies them
into a single :class:`multiprocessing.shared_memory.SharedMemory` block,
and hands workers a *manifest* — ``name -> (offset, dtype, shape)`` —
from which each worker reconstructs numpy views into the very same
pages.  No per-worker copy, no per-worker recompilation, O(1) attach.

Five groups of arrays travel through the arena:

* ``dtree.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledDTree` (the scalar ``root`` rides
  in the meta dict);
* ``rstar.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledRStarTree` (the preorder node
  and entry arrays plus the subdivision's bbox and edge-pool arrays the
  leaf test reads, so nothing rides in the meta dict);
* ``trap.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledTrapTree` (the flattened
  trapezoidal-map DAG is pure SoA, nothing rides in the meta dict);
* ``trian.*`` — every array slot of
  :class:`~repro.engine.trace._CompiledTrianTree` (the CSR child
  directory plus per-slot triangle vertices; the root-directory packet
  lives on the pickled paged index itself);
* ``schedule.*`` — the :class:`~repro.engine.QueryEngine` memoized
  timeline arrays (index-segment starts, dense region->position map).

All four index families therefore fan out zero-copy.  A paged index
whose compile step declines (``_compile_* -> None``) falls back to the
``generic`` family: workers share the ``schedule.*`` arrays only and
trace through the per-point reference path.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.engine.trace import (
    _CompiledDTree,
    _CompiledRStarTree,
    _CompiledTrapTree,
    _CompiledTrianTree,
    _compile_dtree,
    _compile_rstar,
    _compile_trap,
    _compile_trian,
    _store_compiled,
)

#: Byte alignment of every array inside the arena block.
_ALIGN = 64

#: Manifest entry: (byte offset, dtype string, shape tuple).
ManifestEntry = Tuple[int, str, Tuple[int, ...]]
Manifest = Dict[str, ManifestEntry]

#: Array slots of _CompiledDTree shipped through the arena (everything
#: except the scalar ``root``).
_DTREE_SLOTS = tuple(s for s in _CompiledDTree.__slots__ if s != "root")

#: Family -> (compiled class, cache attribute) of the compiled
#: R*-tree/trap/trian trees — pure SoA, every slot is an ndarray, so the
#: whole compiled object ships through the arena.
_SOA_FAMILIES = {
    "rstar": (_CompiledRStarTree, "_compiled_rstar"),
    "trap": (_CompiledTrapTree, "_compiled_trap"),
    "trian": (_CompiledTrianTree, "_compiled_trian"),
}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class ShmArena:
    """One shared-memory block holding many named read-only arrays."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: Manifest,
        owner: bool,
    ) -> None:
        self.shm = shm
        self.manifest = manifest
        #: Whether this process created (and must unlink) the block.
        self.owner = owner

    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "ShmArena":
        """Copy *arrays* into a fresh shared block; returns the arena."""
        manifest: Manifest = {}
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            offset = _align(offset)
            manifest[name] = (offset, arr.dtype.str, arr.shape)
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        arena = cls(shm, manifest, owner=True)
        for name, arr in arrays.items():
            view = arena.view(name)
            view[...] = np.ascontiguousarray(arr)
        return arena

    @classmethod
    def attach(cls, name: str, manifest: Manifest) -> "ShmArena":
        """Attach to an existing block by name (zero-copy)."""
        try:
            # track=False (3.13+) keeps the resource tracker from
            # unlinking the parent's block when this attachment closes.
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - pre-3.13 signature
            shm = shared_memory.SharedMemory(name=name)
        return cls(shm, manifest, owner=False)

    def view(self, name: str) -> np.ndarray:
        """Numpy view of one named array, backed by the shared pages."""
        entry = self.manifest.get(name)
        if entry is None:
            raise ReproError(f"array {name!r} not in the arena manifest")
        offset, dtype, shape = entry
        return np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=offset)

    def views(self) -> Dict[str, np.ndarray]:
        return {name: self.view(name) for name in self.manifest}

    def close(self) -> None:
        """Detach this process's mapping (views become invalid)."""
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - live views still exported
            pass

    def unlink(self) -> None:
        """Destroy the block (owner only; idempotent)."""
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:
        return (
            f"ShmArena({self.shm.name}, arrays={len(self.manifest)}, "
            f"bytes={self.shm.size})"
        )


# -- compiled-state export / attach ------------------------------------------


def export_compiled_state(paged, engine) -> Tuple[Dict[str, np.ndarray], dict]:
    """Arrays + meta describing *paged*'s compiled form and *engine*'s
    memoized schedule arrays, ready for :meth:`ShmArena.create`."""
    from repro.core.paging import PagedDTree
    from repro.pointloc.kirkpatrick import PagedTrianTree
    from repro.pointloc.trapezoidal import PagedTrapTree
    from repro.rstar.paged import PagedRStarTree

    arrays: Dict[str, np.ndarray] = {}
    meta: dict = {"family": "generic"}
    if isinstance(paged, PagedDTree):
        ct = _compile_dtree(paged)
        meta = {"family": "dtree", "root": int(ct.root)}
        for slot in _DTREE_SLOTS:
            arrays[f"dtree.{slot}"] = getattr(ct, slot)
    else:
        for family, paged_cls, compile_fn in (
            ("rstar", PagedRStarTree, _compile_rstar),
            ("trap", PagedTrapTree, _compile_trap),
            ("trian", PagedTrianTree, _compile_trian),
        ):
            if isinstance(paged, paged_cls):
                ct = compile_fn(paged)
                if ct is not None:
                    meta = {"family": family}
                    for slot in _SOA_FAMILIES[family][0].__slots__:
                        arrays[f"{family}.{slot}"] = getattr(ct, slot)
                break
    if getattr(engine, "_vectorized", False):
        arrays["schedule.segment_starts"] = engine._segment_starts
        arrays["schedule.bucket_position"] = engine._bucket_position
    meta["index_version"] = _index_version(paged)
    return arrays, meta


def _index_version(paged) -> int:
    """Version stamp of *paged*'s packets (0 for static indexes)."""
    packets = getattr(paged, "packets", None)
    return int(packets[0].version) if packets else 0


def attach_compiled_state(
    paged, views: Dict[str, np.ndarray], meta: dict, engine=None
) -> None:
    """Install shared-memory views as *paged*'s compiled caches (and the
    engine's schedule arrays), so the worker never recompiles.

    The arena is keyed by index version: attaching compiled state that
    was exported for a different version of the index (the parent
    applied updates after exporting) would silently serve stale answers,
    so a mismatch is an error.
    """
    exported = meta.get("index_version", 0)
    current = _index_version(paged)
    if exported != current:
        raise ReproError(
            f"arena holds compiled state for index version {exported} but "
            f"the paged index is at version {current} — re-export after "
            "applying updates"
        )
    family = meta.get("family")
    if family == "dtree":
        ct = _CompiledDTree()
        ct.root = meta["root"]
        for slot in _DTREE_SLOTS:
            setattr(ct, slot, views[f"dtree.{slot}"])
        _store_compiled(paged, "_compiled_dtree", ct)
    elif family in _SOA_FAMILIES:
        compiled_cls, attr = _SOA_FAMILIES[family]
        ct = compiled_cls()
        for slot in compiled_cls.__slots__:
            setattr(ct, slot, views[f"{family}.{slot}"])
        _store_compiled(paged, attr, ct)
    if engine is not None and "schedule.segment_starts" in views:
        engine._segment_starts = views["schedule.segment_starts"]
        engine._bucket_position = views["schedule.bucket_position"]
