"""The zero-copy shared-memory data plane for shard-parallel execution.

Each relation a shard reads goes to the workers as a **named
shared-memory segment**: the parent-side :class:`ShmArena` lays a
relation's canonical flat columns into one ``multiprocessing.
shared_memory`` segment (header + columns, the layout ``Relation.to_shm``
writes and ``Relation.from_shm`` attaches to), and the wire then carries
:class:`ShmRef` / :class:`ShmSlice` payloads — segment *names*, not
bytes.  Workers attach once per segment and build relations whose
columns are zero-copy ``memoryview``\\ s over the mapped pages; a
shard's clip becomes a ``(lo, hi)`` row range over the shared canonical
order (:class:`SlicePlan` → :class:`ShmSlice`) instead of a materialized
copy.

Fallback, not failure: a relation below :data:`MIN_BYTES`, or one whose
segment cannot be created, reserved or written, ships as a pickled blob
instead.  Parity is bit-exact either way.  The arena reserves a new
segment's pages (``posix_fallocate``) before writing them, so a tmpfs
``/dev/shm`` too small for the segment fails the export with ``ENOSPC``
rather than turning the write into SIGBUS.  The size floor and the
arena budget are module constants (tests patch them).

Lifecycle safety is the hard part and is handled here:

* The arena **ref-counts** each segment by ``(pool, worker)`` owner;
  owners are acquired when a ref is shipped and released when the
  worker acknowledges evicting the keyed relation or the pool closes.
  Unowned segments are unlinked LRU-first when the arena exceeds its
  byte budget, and ``close()`` (pool shutdown / ``atexit``) unlinks
  everything — no leaked ``/dev/shm`` entries even after a worker
  crash or a failed export, because only the parent ever creates or
  unlinks.
* Workers attach with :func:`attach_segment`, which keeps Python's
  ``resource_tracker`` from registering (and later double-unlinking)
  segments the parent owns.
* ``SharedMemory.close()`` raises ``BufferError`` while a relation
  still exports views over the mapping; the worker-side segment table
  ref-counts cached relations per segment and tolerates late closes by
  leaving the final unmap to the garbage collector.
"""

from __future__ import annotations

import atexit
import functools
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.relation import Relation


#: Relations whose nominal payload (8 bytes × rows × attrs) is below
#: this ship as pickle blobs: segment create + attach has a fixed cost
#: that tiny relations never amortize (tests set ``0`` to share all).
MIN_BYTES = 8192

#: Arena byte budget before unowned segments are unlinked LRU-first.
CAPACITY_BYTES = 1 << 28  # 256 MiB


#: Where POSIX shared-memory segments appear as files (Linux).
_SHM_DIR = "/dev/shm/"


def _reserve(name: str, size: int) -> None:
    """Allocate a new segment's pages before anything writes to them.

    A write to an unbacked page of a full tmpfs is SIGBUS, which no
    handler here can turn into a fallback; ``posix_fallocate`` fails the
    same shortage up front as ``OSError(ENOSPC)``.  Without the call or
    the ``/dev/shm`` file there is nothing to reserve through, and the
    write goes ahead unreserved.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fd = os.open(_SHM_DIR + name.lstrip("/"), os.O_RDWR)
    except FileNotFoundError:
        return
    try:
        fallocate(fd, 0, size)
    finally:
        os.close(fd)


def _destroy(shm) -> None:
    """Close and unlink a parent-created segment."""
    try:
        shm.close()
    except BufferError:  # views still alive: the unmap waits for the GC
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


class _MappedSegment:
    """A read-only ``mmap`` attach of a POSIX shm segment.

    Duck-types the two members workers touch on a ``SharedMemory``
    (``buf``, ``close()``), including the ``BufferError`` a close raises
    while relation views still reference the mapping.
    """

    __slots__ = ("name", "buf", "_mm")

    def __init__(self, name: str, mm):
        self.name = name
        self._mm = mm
        self.buf = memoryview(mm)

    def close(self) -> None:
        self.buf.release()  # BufferError while sub-views are alive
        self._mm.close()


def attach_segment(name: str):
    """Attach to a parent-created segment without tracker side effects.

    The parent is the sole owner of every segment's lifetime, so an
    attach has no business talking to the resource tracker — but before
    Python 3.13's ``track=False``, ``SharedMemory(name=...)`` *does*
    register the name, and every register is a lock + liveness probe +
    pipe write: hundreds of microseconds a worker pays per segment.  On
    Linux the segment is a plain file under ``/dev/shm``, so the fast
    path here maps it read-only with ``mmap`` directly — no tracker
    traffic at all, the same semantics ``track=False`` provides.

    Elsewhere (or when the mapping fails) the ``SharedMemory`` attach is
    used as-is; its tracker registration is harmless because
    multiprocessing children share the parent's tracker process, whose
    registry is a per-name set — the duplicate register is idempotent
    and the parent's eventual ``unlink()`` clears the single entry.
    (Unregistering here instead would strip the *parent's* registration
    — losing the tracker's crash safety-net and making the parent's own
    unregister a KeyError.)
    """
    try:
        import mmap as _mmap

        fd = os.open(_SHM_DIR + name.lstrip("/"), os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            mm = _mmap.mmap(fd, size, prot=_mmap.PROT_READ)
        finally:
            os.close(fd)
        return _MappedSegment(name, mm)
    except (OSError, ImportError, AttributeError, ValueError):
        pass
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


# -- wire payloads -------------------------------------------------------------


@dataclass(frozen=True)
class ShmRef:
    """A whole relation by reference: attach ``segment`` and read it all.

    ``generation`` disambiguates re-created segments: the OS may reuse a
    name after an unlink, so worker segment tables key on
    ``(segment, generation)``, never the bare name.
    """

    segment: str
    generation: int
    nbytes: int


@dataclass(frozen=True)
class ShmSlice:
    """A clipped relation by reference: canonical rows ``[lo, hi)`` of
    the base segment, optionally restricted further by a residual box.

    ``rest`` holds ``(column index, lo value, hi value)`` inclusive range
    filters for shard constraints beyond the leading attribute: the
    worker bisected nothing for those, so it filters the slice's rows on
    arrival.  Empty ``rest`` is the fully zero-copy form — the relation's
    columns stay memoryviews over the mapped segment."""

    base: ShmRef
    lo: int
    hi: int
    rest: Tuple[Tuple[int, int, int], ...] = ()


def filter_rows(rows, rest: Tuple[Tuple[int, int, int], ...]):
    """Apply a residual box to schema-order rows (shared by both ends:
    the worker materializing an :class:`ShmSlice` and the parent's
    pickle fallback must select byte-identical content)."""
    if not rest:
        return rows
    return [
        r
        for r in rows
        if all(lo <= r[i] <= hi for i, lo, hi in rest)
    ]


@dataclass(frozen=True)
class SlicePlan:
    """Parent-side intent to ship a clip as a slice (never on the wire).

    ``prepare_jobs`` emits these where :func:`~repro.parallel.partition.
    clip_slice` applies; the scheduler resolves them at dispatch time —
    into an :class:`ShmSlice` over the base relation's segment, or, when
    export falls back, into a materialized clipped relation.  ``rest``
    carries the residual box exactly as :class:`ShmSlice` does; for
    filtered plans ``__len__``/:meth:`nominal_bytes` are the slice's
    *upper bound* (the parent never counts the filtered rows — not
    materializing them is the point).
    """

    base: Relation
    lo: int
    hi: int
    rest: Tuple[Tuple[int, int, int], ...] = ()

    def __len__(self) -> int:
        return max(0, self.hi - self.lo)

    def nominal_bytes(self) -> int:
        return 8 * len(self) * self.base.schema.arity

    def materialize(self) -> Relation:
        """The equivalent clipped relation: the pickle-fallback form,
        and what a shard executed in the parent reads.

        Built once per plan.  Plans live in the prepared-job cache, so
        a repeated query finds the relation — and the sorted views it
        memoizes — already there, as a warm worker does.
        """
        return self._materialized

    @functools.cached_property
    def _materialized(self) -> Relation:
        rows = filter_rows(self.base.rows()[self.lo:self.hi], self.rest)
        return Relation.from_sorted_rows(
            self.base.schema, rows, self.base.domain
        )


# -- the parent-side arena -----------------------------------------------------


class _Segment:
    __slots__ = ("shm", "generation", "nbytes", "owners")

    def __init__(self, shm, generation: int, nbytes: int):
        self.shm = shm
        self.generation = generation
        self.nbytes = nbytes
        #: ``(pool id, worker id)`` pairs holding cached relations that
        #: reference this segment.
        self.owners: Set[Tuple[int, int]] = set()


class ShmArena:
    """Parent-side store of relation segments, keyed by content.

    One segment per exported relation (``Relation.cache_key()``), laid
    out by ``Relation.to_shm``.  ``export`` is memoized: re-shipping the
    same content to another worker returns the existing ref without
    touching the bytes.  Segments are unlinked when evicted with no
    owners, and unconditionally at :meth:`close` — unlinking only
    removes the *name*; workers that already attached keep their mapping
    until they drop it, so eviction can never corrupt an in-flight
    shard.
    """

    def __init__(self, capacity_bytes: int = CAPACITY_BYTES):
        self.capacity_bytes = capacity_bytes
        self._segments: "OrderedDict[Tuple, _Segment]" = OrderedDict()
        self._generation = 0
        self.created = 0
        self.unlinked = 0
        self.fallbacks = 0
        self.exported_bytes = 0
        self.export_seconds = 0.0

    # -- exporting -------------------------------------------------------------

    def export(
        self,
        rel: Relation,
        owner: Optional[Tuple[int, int]] = None,
    ) -> Optional[ShmRef]:
        """The relation's segment ref, creating the segment on first use.

        Returns ``None`` — *ship a blob instead* — when the segment
        cannot be created, reserved or written (a ``/dev/shm`` too small
        for it, exotic platforms); a half-made segment is closed and
        unlinked, and the caller records the fallback.  Callers must
        treat an export that *raises* (platform states the
        ``(OSError, ValueError)`` net below doesn't cover) as a
        fallback too, never as query failure.
        """
        key = rel.cache_key()
        seg = self._segments.get(key)
        if seg is None:
            from multiprocessing import shared_memory

            t0 = time.perf_counter()
            nbytes, header = rel.shm_layout()
            size = max(1, nbytes)
            shm = None
            try:
                shm = shared_memory.SharedMemory(create=True, size=size)
                _reserve(shm.name, size)
                rel.to_shm(shm.buf, header=header)
            except (OSError, ValueError):
                if shm is not None:
                    _destroy(shm)
                self.fallbacks += 1
                return None
            self._generation += 1
            seg = _Segment(shm, self._generation, nbytes)
            self._segments[key] = seg
            self.created += 1
            self.exported_bytes += nbytes
            self.export_seconds += time.perf_counter() - t0
        self._segments.move_to_end(key)
        if owner is not None:
            seg.owners.add(owner)
        # Never sweep the segment whose ref is about to go on the wire.
        self._sweep(exclude=key)
        return ShmRef(seg.shm.name, seg.generation, seg.nbytes)

    # -- ownership -------------------------------------------------------------

    def release(self, seg_id: Tuple[str, int], owner: Tuple[int, int]) -> None:
        """Drop one owner of a segment (worker evicted the relation)."""
        for key, seg in self._segments.items():
            if (seg.shm.name, seg.generation) == seg_id:
                seg.owners.discard(owner)
                break
        self._sweep()

    def release_owner(self, owner: Tuple[int, int]) -> None:
        """Drop one ``(pool, worker)`` owner from every segment (the
        worker died: its attachments died with it)."""
        for seg in self._segments.values():
            seg.owners.discard(owner)
        self._sweep()

    def release_owners(self, pool_id: int) -> None:
        """Drop every owner belonging to a pool (pool closed/crashed)."""
        for seg in self._segments.values():
            seg.owners = {o for o in seg.owners if o[0] != pool_id}
        self._sweep()

    # -- eviction / shutdown ---------------------------------------------------

    def total_bytes(self) -> int:
        return sum(seg.nbytes for seg in self._segments.values())

    def _unlink(self, seg: _Segment) -> None:
        _destroy(seg.shm)
        self.unlinked += 1

    def _sweep(self, exclude: Optional[Tuple] = None) -> None:
        """Unlink LRU unowned segments until under the byte budget."""
        if self.total_bytes() <= self.capacity_bytes:
            return
        for key in list(self._segments):
            seg = self._segments[key]
            if seg.owners or key == exclude:
                continue
            del self._segments[key]
            self._unlink(seg)
            if self.total_bytes() <= self.capacity_bytes:
                return

    def evict(self, rel: Relation) -> bool:
        """Explicitly unlink one relation's segment (tests, memory pressure)."""
        seg = self._segments.pop(rel.cache_key(), None)
        if seg is None:
            return False
        self._unlink(seg)
        return True

    def close(self) -> None:
        """Unlink every segment (pool shutdown, atexit)."""
        while self._segments:
            _, seg = self._segments.popitem(last=False)
            self._unlink(seg)

    def segment_names(self) -> Tuple[str, ...]:
        """Live segment names, oldest first (introspection/tests)."""
        return tuple(seg.shm.name for seg in self._segments.values())

    def __len__(self) -> int:
        return len(self._segments)


#: The process-wide arena the scheduler exports through.  Forked workers
#: inherit a snapshot but never touch it — only the parent creates or
#: unlinks (multiprocessing children exit via ``os._exit`` and skip
#: ``atexit``, so a worker can't tear these segments down by accident).
ARENA = ShmArena()

atexit.register(ARENA.close)


def _collect_arena_metrics() -> Dict[str, float]:
    return {
        "parallel.shm.arena.entries": len(ARENA),
        "parallel.shm.segments.created": ARENA.created,
        "parallel.shm.segments.unlinked": ARENA.unlinked,
        "parallel.shm.export.bytes": ARENA.exported_bytes,
        "parallel.shm.export.fallbacks": ARENA.fallbacks,
    }


_METRICS.register_collector("shm_arena", _collect_arena_metrics)
