"""Relation instances: columnar, order-cached sets of integer tuples.

The data plane under every index and join backend.  A ``Relation`` keeps
its data in **flat columnar buffers** — one ``array('q')`` per attribute,
aligned with the canonical (schema-order) sorted row order — plus a
lazily materialized row-tuple list for consumers that walk tuples, and
memoizes a :class:`SortedView` per attribute permutation.  Views are
computed once and shared **zero-copy** with every consumer — B-tree
builds, the dyadic/kd indexes, Leapfrog's tries and ``select_prefix``
all read the same cached lists instead of re-sorting, which is what
keeps repeated executions of a served workload from paying O(N log N)
per query on the storage layer.

The flat buffers are the relation's canonical storage and interchange
format: pickling ships the raw column bytes (a memcpy each way, no
per-tuple encode/decode), the compiled kernels of
:mod:`repro.engine.codegen` gallop over the per-level column arrays
directly, and ``multiprocessing.shared_memory`` can attach to the same
byte layout without a translation step.  The view cache is bounded
(:data:`Relation.VIEW_CACHE_CAP`, LRU) so long-lived server processes
holding many relations cannot grow a per-permutation cache without
bound; the canonical schema-order view is pinned.  Each view also holds
what is derived from its order — the index over it and that index's
gap boxes (:meth:`SortedView.derived`) — so a relation's geometry is
built once per (relation, order) and lives and dies with the view.
"""

from __future__ import annotations

import bisect
import pickle
import struct
from array import array
from collections import OrderedDict
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.metrics import REGISTRY as _METRICS
from repro.relational.schema import Domain, RelationSchema

Tuple_ = Tuple[int, ...]

#: The array typecode of every flat column buffer: signed 64-bit, the
#: widest value any packed box or domain code needs, and the layout
#: shared-memory attachment expects.
COLUMN_TYPECODE = "q"

#: Leading magic of a relation laid out in a shared-memory segment:
#: 8 bytes of magic, a little-endian ``u64`` header length, the pickled
#: ``(schema, domain, nrows)`` header, padding to 8-byte alignment, then
#: the flat columns back to back (``nrows × 8`` bytes each, schema
#: order, canonical row order).
SHM_MAGIC = b"RPRSHM1\n"

_SHM_LEN_FMT = "<Q"
_SHM_LEN_OFF = len(SHM_MAGIC)
_SHM_HEADER_OFF = _SHM_LEN_OFF + struct.calcsize(_SHM_LEN_FMT)


def _shm_data_offset(header_len: int) -> int:
    """First column byte: the header padded to 8-byte alignment."""
    return (_SHM_HEADER_OFF + header_len + 7) & ~7


def _columns_of(rows: Sequence[Tuple_], arity: int) -> Tuple[array, ...]:
    """Flat per-attribute buffers for a row list (one pass via zip)."""
    if rows:
        return tuple(array(COLUMN_TYPECODE, col) for col in zip(*rows))
    return tuple(array(COLUMN_TYPECODE) for _ in range(arity))


class SortedView:
    """A memoized sorted materialization of a relation in one attribute order.

    ``rows`` holds the relation's tuples permuted into ``attr_order``
    layout and sorted lexicographically — the exact layout a B-tree with
    that search-key order stores.  ``column(k)`` exposes the k-th
    attribute of the same layout as a flat ``array('q')`` buffer (built
    lazily, memoized): the per-level arrays the compiled leapfrog
    kernels gallop over.  Both are **shared** by every consumer of the
    owning relation: treat them as read-only.

    The view also carries whatever else is **derived from this order**
    (:meth:`derived`): the index built over these rows and, inside it,
    the gap-box geometry it exposes.  Such an artifact has the view's
    lifetime exactly — it is reached only through the view, so it is
    evicted with it (:data:`Relation.VIEW_CACHE_CAP`, no second cap),
    never shipped (pickling and shm attach start with no views) and
    never invalidated (relations are immutable).
    """

    __slots__ = ("attr_order", "rows", "_cols", "_derived")

    def __init__(self, attr_order: Tuple[str, ...], rows: List[Tuple_]):
        self.attr_order = attr_order
        self.rows = rows
        self._cols: Optional[Tuple[array, ...]] = None
        self._derived: Dict[object, object] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self.rows)

    def columns(self) -> Tuple[array, ...]:
        """Flat per-attribute buffers aligned with ``rows`` (lazy, cached)."""
        if self._cols is None:
            self._cols = _columns_of(self.rows, len(self.attr_order))
        return self._cols

    def column(self, k: int) -> array:
        """The k-th attribute's flat buffer in this view's sort order."""
        return self.columns()[k]

    def derived(self, key, build: Callable[[], object]):
        """The artifact ``build()`` makes of this order, built once.

        ``key`` names the kind of artifact (the index classes key by
        themselves); every later request for it under this view returns
        the same object.  Indexes are what is derived today, hence the
        counter's name.
        """
        artifact = self._derived.get(key)
        if artifact is None:
            artifact = self._derived[key] = build()
            _METRICS.inc("relation.index.builds")
        return artifact

    def prefix_range(self, prefix: Sequence[int]) -> Tuple[int, int]:
        """``[lo, hi)`` row range whose tuples extend ``prefix``.

        Two bisections on the sorted rows — O(log N), never a scan.
        """
        prefix = tuple(prefix)
        if len(prefix) > len(self.attr_order):
            raise ValueError(
                f"prefix {prefix} longer than attribute order "
                f"{self.attr_order}"
            )
        if not prefix:
            return 0, len(self.rows)
        lo = bisect.bisect_left(self.rows, prefix)
        hi = bisect.bisect_left(
            self.rows, prefix[:-1] + (prefix[-1] + 1,), lo
        )
        return lo, hi

    def select_prefix(self, prefix: Sequence[int]) -> List[Tuple_]:
        """The rows extending ``prefix`` — an O(log N + matches) slice."""
        lo, hi = self.prefix_range(prefix)
        return self.rows[lo:hi]

    def distinct_leading(self) -> int:
        """Distinct values of the leading attribute: one adjacent-change
        pass over the already-sorted rows, no set needed."""
        count = 0
        prev = None
        for row in self.rows:
            if count == 0 or row[0] != prev:
                count += 1
                prev = row[0]
        return count


class Relation:
    """A relation instance: a set of tuples over a schema and shared domain.

    Storage is columnar and order-cached: the canonical representation
    is one flat ``array('q')`` buffer per attribute in schema order,
    sorted by the canonical row order; the row-tuple list, the tuple
    set and any other sort order materialize lazily and are memoized.
    Instances are immutable after construction, so every cached artifact
    is valid for the lifetime of the relation.

    Sorted-view memoization is a bounded LRU (:data:`VIEW_CACHE_CAP`
    entries; the canonical view is pinned) with an eviction counter, so
    a long-lived process serving many GAOs over one relation keeps a
    working set, not an unbounded history.
    """

    #: Max memoized :class:`SortedView` permutations per relation (the
    #: pinned canonical view does not count against the cap).
    VIEW_CACHE_CAP = 16

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[Sequence[int]],
        domain: Domain,
    ):
        self.schema = schema
        self.domain = domain
        # Insertion-ordered and duplicate-free, so the first offending
        # tuple of the input is the first offending key.
        seen = dict.fromkeys(map(tuple, tuples))
        cells = chain.from_iterable
        if seen and not (
            set(map(len, seen)) == {schema.arity}
            and set(map(type, cells(seen))) == {int}
            and 0 <= min(cells(seen))
            and max(cells(seen)) < domain.size
        ):
            self._reject(seen)
        rows: List[Tuple_] = sorted(seen)
        self._init_from_rows(rows, tuples_set=frozenset(seen))

    def _reject(self, tuples: Iterable[Tuple_]) -> None:
        """Raise for the first tuple the schema or the domain rules out.

        The value-at-a-time check behind the constructor's bulk one;
        returns only when every value is an in-domain integer of some
        ``int`` subclass (``bool``), which the bulk check does not know.
        """
        schema, domain = self.schema, self.domain
        for t in tuples:
            if len(t) != schema.arity:
                raise ValueError(
                    f"tuple {t} has arity {len(t)}, schema {schema} expects "
                    f"{schema.arity}"
                )
            for v in t:
                if not isinstance(v, int) or v not in domain:
                    raise ValueError(
                        f"value {v} outside domain [0, {domain.size}) "
                        f"in relation {schema.name}"
                    )

    def _init_from_rows(
        self,
        rows: Optional[List[Tuple_]],
        cols: Optional[Tuple[array, ...]] = None,
        nrows: Optional[int] = None,
        tuples_set: Optional[frozenset] = None,
    ) -> None:
        """Shared constructor tail: seed storage, empty caches."""
        self._rows = rows
        self._cols = cols
        self._nrows = len(rows) if rows is not None else int(nrows or 0)
        self._tuples = tuples_set
        #: Keep-alive for shm-backed relations: the attached
        #: ``SharedMemory`` whose mapping the columns view into.
        self._shm_keep = None
        self._views: "OrderedDict[Tuple[str, ...], SortedView]" = (
            OrderedDict()
        )
        self.view_evictions = 0
        self._distinct_counts: Optional[Dict[str, int]] = None
        self._column_ranges: Optional[Dict[str, Tuple[int, int]]] = None
        self._fingerprint: Optional[Tuple] = None

    @classmethod
    def from_sorted_rows(
        cls,
        schema: RelationSchema,
        rows: List[Tuple_],
        domain: Domain,
    ) -> "Relation":
        """Trusted fast path: build a relation from already-clean rows.

        ``rows`` must be schema-order tuples, sorted, duplicate-free and
        inside ``domain`` — the invariants every bisect slice of an
        existing relation's canonical view satisfies.  Skips the
        validation passes of ``__init__``; used by shard clipping, where
        the rows come from a relation that was already validated once.
        """
        rel = cls.__new__(cls)
        rel.schema = schema
        rel.domain = domain
        rel._init_from_rows(rows)
        return rel

    # -- pickling: flat buffers on the wire ------------------------------------

    def __getstate__(self):
        """Ship the flat column buffers as raw bytes; every cache is dropped.

        A pickled relation costs one ``tobytes`` memcpy per column on
        the way out and one ``frombytes`` on the way in — no per-tuple
        encode/decode — which is what makes shipping a relation to a
        shard worker two orders of magnitude cheaper in CPU than
        pickling the row-tuple list.  Memoized sorted views, columns and
        statistics are all derivable, so workers rebuild them lazily on
        first use.
        """
        return (
            self.schema,
            self.domain,
            self._nrows,
            tuple(c.tobytes() for c in self.columns()),
        )

    def __setstate__(self, state):
        schema, domain, nrows, blobs = state
        self.schema = schema
        self.domain = domain
        cols = []
        for blob in blobs:
            col = array(COLUMN_TYPECODE)
            col.frombytes(blob)
            cols.append(col)
        self._init_from_rows(None, cols=tuple(cols), nrows=nrows)

    def cache_key(self) -> Tuple:
        """A cheap content key for the shard workers' relation caches.

        Unlike :meth:`stats_fingerprint` this never forces the distinct
        counts — just name, schema, domain, cardinality and the tuple-set
        hash (which ``frozenset`` memoizes), so keying a clipped shard
        payload costs one hash pass, not a statistics build.
        """
        return (
            self.name,
            self.schema.attrs,
            self.domain.depth,
            self._nrows,
            hash(self.tuples()),
        )

    # -- shared memory: the zero-copy wire -------------------------------------

    def nominal_bytes(self) -> int:
        """The payload's nominal size: 8 bytes per column value.

        What the shm size threshold and the ``parallel.ship.
        bytes_nominal`` metric measure — pickle framing and the shm
        header vary, this stays comparable across runs.
        """
        return 8 * self._nrows * self.schema.arity

    def shm_layout(self) -> Tuple[int, bytes]:
        """``(total segment bytes, header blob)`` for :meth:`to_shm`."""
        header = pickle.dumps(
            (self.schema, self.domain, self._nrows),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        total = _shm_data_offset(len(header)) + self.nominal_bytes()
        return total, header

    def to_shm(self, buf, header: Optional[bytes] = None) -> int:
        """Lay this relation into a writable buffer (a shm segment).

        Magic + header + the flat columns, one ``tobytes`` memcpy per
        column — the same cost as pickling, paid **once** per relation
        instead of once per worker.  Returns the bytes written.  Every
        sub-view of ``buf`` is transient, so the caller can still
        ``close()`` a ``SharedMemory`` segment afterwards.
        """
        if header is None:
            _, header = self.shm_layout()
        data_off = _shm_data_offset(len(header))
        buf[:_SHM_LEN_OFF] = SHM_MAGIC
        struct.pack_into(_SHM_LEN_FMT, buf, _SHM_LEN_OFF, len(header))
        buf[_SHM_HEADER_OFF:_SHM_HEADER_OFF + len(header)] = header
        colbytes = 8 * self._nrows
        offset = data_off
        for col in self.columns():
            buf[offset:offset + colbytes] = (
                col.tobytes() if self._nrows else b""
            )
            offset += colbytes
        return offset

    @staticmethod
    def parse_shm_header(buf) -> Tuple[RelationSchema, Domain, int, int]:
        """``(schema, domain, nrows, data offset)`` of a laid-out buffer.

        Split out of :meth:`from_shm` so attach-side callers building
        many slices of one segment can unpickle the header once and pass
        it back in, instead of re-parsing per slice.
        """
        mv = memoryview(buf)
        if bytes(mv[:_SHM_LEN_OFF]) != SHM_MAGIC:
            raise ValueError("buffer does not hold a relation layout")
        (header_len,) = struct.unpack_from(_SHM_LEN_FMT, mv, _SHM_LEN_OFF)
        schema, domain, nrows = pickle.loads(
            mv[_SHM_HEADER_OFF:_SHM_HEADER_OFF + header_len]
        )
        return schema, domain, nrows, _shm_data_offset(header_len)

    @classmethod
    def from_shm(
        cls,
        buf,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
        keep=None,
        header: Optional[Tuple[RelationSchema, Domain, int, int]] = None,
    ) -> "Relation":
        """A relation whose columns view ``buf`` zero-copy.

        ``buf`` is a buffer laid out by :meth:`to_shm` (typically
        ``SharedMemory.buf``).  With ``lo``/``hi`` the columns are
        sliced to canonical rows ``[lo, hi)`` — still zero-copy, the
        shard-clip path.  ``keep`` is retained on the relation so the
        mapping outlives it (pass the attached ``SharedMemory``).
        ``header`` is an optional pre-parsed :meth:`parse_shm_header`
        result (workers cache it per attached segment).  Lazy rows,
        sorted views and statistics build on demand exactly as after
        unpickling.
        """
        mv = memoryview(buf)
        if header is None:
            header = cls.parse_shm_header(mv)
        schema, domain, nrows, data_off = header
        colbytes = 8 * nrows
        if lo is None:
            lo2, hi2 = 0, nrows
        else:
            lo2 = max(0, min(lo, nrows))
            hi2 = max(lo2, min(nrows if hi is None else hi, nrows))
        cols = []
        for i in range(schema.arity):
            start = data_off + i * colbytes
            col = mv[start:start + colbytes].cast(COLUMN_TYPECODE)
            if (lo2, hi2) != (0, nrows):
                col = col[lo2:hi2]
            cols.append(col)
        rel = cls.__new__(cls)
        rel.schema = schema
        rel.domain = domain
        rel._init_from_rows(None, cols=tuple(cols), nrows=hi2 - lo2)
        rel._shm_keep = keep
        return rel

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def attrs(self) -> Tuple[str, ...]:
        return self.schema.attrs

    @property
    def arity(self) -> int:
        return self.schema.arity

    def __len__(self) -> int:
        return self._nrows

    def __contains__(self, t: Sequence[int]) -> bool:
        return tuple(t) in self.tuples()

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self.rows())

    def tuples(self) -> frozenset:
        """The tuple set (lazy after unpickling, memoized)."""
        if self._tuples is None:
            self._tuples = frozenset(self.rows())
        return self._tuples

    def rows(self) -> List[Tuple_]:
        """The canonical schema-order sorted rows, shared zero-copy.

        This is the same list every schema-order consumer (the hash
        kernels, the canonical sorted view and the shard clips above all)
        reads — callers must treat it as read-only.
        After unpickling only the flat buffers exist; the row list is
        re-materialized here in one C-level ``zip`` pass and memoized.
        """
        if self._rows is None:
            if self._nrows:
                self._rows = list(zip(*self._cols))
            else:
                self._rows = []
        return self._rows

    def view(self, attr_order: Sequence[str]) -> SortedView:
        """The memoized :class:`SortedView` for an attribute permutation.

        Computed once per permutation per relation and LRU-retained:
        every later request — from any consumer — returns the same
        object while it stays within the :data:`VIEW_CACHE_CAP` working
        set.  The canonical schema-order view shares the row list
        zero-copy and is never evicted.
        """
        key = tuple(attr_order)
        cached = self._views.get(key)
        if cached is not None:
            self._views.move_to_end(key)
            return cached
        if key == self.schema.attrs:
            cached = SortedView(key, self.rows())
            # Pinned: insert at the cold end so LRU eviction (which
            # skips the canonical key) keeps it without inspecting it.
            self._views[key] = cached
            self._views.move_to_end(key, last=False)
            return cached
        perm = self.schema.permutation(key)
        rows = sorted(tuple(t[i] for i in perm) for t in self.rows())
        cached = SortedView(key, rows)
        self._views[key] = cached
        canonical = self.schema.attrs
        while len(self._views) > self.VIEW_CACHE_CAP + (
            1 if canonical in self._views else 0
        ):
            oldest = next(iter(self._views))
            if oldest == canonical:
                self._views.move_to_end(canonical, last=False)
                oldest = next(
                    k for k in self._views if k != canonical
                )
            del self._views[oldest]
            self.view_evictions += 1
        return cached

    def cached_view_orders(self) -> Tuple[Tuple[str, ...], ...]:
        """The attribute orders with a materialized view (introspection)."""
        return tuple(self._views)

    def sorted_by(self, attr_order: Sequence[str]) -> List[Tuple_]:
        """Tuples re-ordered and sorted by the given attribute order.

        The returned tuples have their components permuted to follow
        ``attr_order`` (which must be a permutation of the schema attrs) —
        the layout a B-tree with that search-key order would store.  The
        list is the cached view's own storage (zero-copy, read-only):
        repeated calls cost a dict lookup, not a sort.
        """
        return self.view(attr_order).rows

    def columns(self) -> Tuple[array, ...]:
        """Flat per-attribute buffers aligned with :meth:`rows`.

        These ``array('q')`` buffers are the canonical storage: what
        pickling ships, what compiled kernels index, and the byte layout
        a shared-memory segment can hold.  Built lazily when the
        relation was constructed from rows; present from the start after
        unpickling.
        """
        if self._cols is None:
            self._cols = _columns_of(self.rows(), self.schema.arity)
        return self._cols

    def column(self, attr: str) -> array:
        """One attribute's flat buffer, aligned with the canonical rows."""
        return self.columns()[self.schema.position(attr)]

    def column_bytes(self) -> Tuple[bytes, ...]:
        """The raw per-column byte payloads (the wire / shared-memory form)."""
        return tuple(c.tobytes() for c in self.columns())

    def column_ranges(self) -> Dict[str, Tuple[int, int]]:
        """Per-attribute ``(min, max)`` value ranges, cached.

        The planner's range-overlap selectivity reads these: attributes
        whose value ranges barely intersect across relations join far
        below the independence estimate (the split-certificate family
        is the extreme case — zero overlap, empty join).
        """
        if self._column_ranges is None:
            ranges: Dict[str, Tuple[int, int]] = {}
            if self._nrows:
                for attr, col in zip(self.schema.attrs, self.columns()):
                    ranges[attr] = (min(col), max(col))
            self._column_ranges = ranges
        return self._column_ranges

    def project(self, attrs: Sequence[str]) -> "Relation":
        """π_attrs(R) as a fresh relation (duplicates removed)."""
        positions = [self.schema.position(a) for a in attrs]
        out = {tuple(t[i] for i in positions) for t in self.rows()}
        schema = RelationSchema(f"π({self.name})", tuple(attrs))
        return Relation(schema, out, self.domain)

    def distinct_counts(self) -> Dict[str, int]:
        """Per-attribute number of distinct values, cached.

        The planner's cardinality estimates key off these counts.  An
        attribute that leads some already-materialized sorted view is
        counted with one adjacent-change pass over that view; the rest
        are counted off their columns in a single set-building pass.
        Relations are immutable, so the result is cached for the lifetime
        of the instance.
        """
        if self._distinct_counts is None:
            counts: Dict[str, int] = {}
            for attr in self.schema.attrs:
                view = next(
                    (v for o, v in self._views.items() if o[0] == attr),
                    None,
                )
                if view is not None:
                    counts[attr] = view.distinct_leading()
                else:
                    counts[attr] = len(set(self.column(attr)))
            self._distinct_counts = counts
        return self._distinct_counts

    def stats_fingerprint(self) -> Tuple:
        """A cheap content signature for plan/stats-cache keys.

        Name, schema, domain depth, cardinality, distinct counts, plus
        the tuple-set hash (computed once and cached by frozenset), so
        content-dependent statistics — the value ranges above all — are
        never reused across relations that merely share summary counts.
        """
        if self._fingerprint is None:
            counts = self.distinct_counts()
            self._fingerprint = (
                self.name,
                self.schema.attrs,
                self.domain.depth,
                self._nrows,
                tuple(counts[a] for a in self.schema.attrs),
                hash(self.tuples()),
            )
        return self._fingerprint

    def select_prefix(
        self, attr_order: Sequence[str], prefix: Sequence[int]
    ) -> List[Tuple_]:
        """All tuples (in ``attr_order`` layout) extending a value prefix.

        A bisect range lookup on the cached sorted view — O(log N +
        matches), where the seed core paid a full re-sort plus a linear
        scan per call.
        """
        return self.view(attr_order).select_prefix(prefix)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, |{self.name}|={len(self)})"
