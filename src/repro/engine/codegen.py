"""Per-plan compiled kernels over flat columnar buffers.

A hand-written join loop is an interpreter of its plan: a leapfrog
recursion re-reads per-level participant lists at every node, a hash
pipeline threads each row through a chain of generator frames, and the
Tetris resume skeleton re-tests mode flags (``uniform``, oracle and
frontier presence) on every traversal step.  PR 4 showed
the cure in miniature — the per-ndim ``exec``-compiled probe walks of
:class:`~repro.core.dyadic_tree.MultilevelDyadicTree` — and this module
generalizes it to whole backends: for each plan shape a specialized
Python source is generated with the per-level dispatch,
attribute-position lookups, packed-box bit arithmetic and mode branches
**constant-folded**, then ``exec``-compiled once and memoized in a
bounded LRU keyed by the plan's identity.

Four kernel families, each the *only* implementation of what it runs.
:mod:`repro.joins.leapfrog` and :mod:`repro.joins.hashjoin` validate
their arguments and run the kernel, every valid query gets one, and the
tests compare them to :func:`~repro.joins.nested_loop.join_nested_loop`
/ ``evaluate_reference``:

* :func:`leapfrog_kernel` — the generic-WCOJ intersection unrolled into
  literal nested ``while`` loops, one per GAO level, galloping directly
  over the relations' flat ``array('q')`` columns (no row-tuple
  indexing, no recursion, no generator frames between levels).
* :func:`hash_kernel` — the left-deep probe cascade as one lazy
  expression: stage tables are built with scalar keys when the join
  key is a single attribute and scalar values when the stage adds one,
  a stage that adds none is a set-membership test — or, when the
  lookup binding its last attribute adds just that one, a set
  intersection fused into that lookup — and the projection reads its
  components straight out of the stage variables.  Yannakakis' join
  phase runs this kernel too.
* :func:`tetris_kernel` — Tetris's one loop, the frontier-resuming
  skeleton, with ``ndim``, ``depth``, the SAO permutation and the oracle
  discipline (preloaded/on-demand) baked in as literals.  On the dyadic
  tree over a uniform space the knowledge-base probe of
  :class:`~repro.core.dyadic_tree.MultilevelDyadicTree` is inlined and
  the traversal frontier lives in kernel locals; any other store, and
  the generalized spaces of Tetris-LB (per-axis unit tests emitted
  inline), probe through ``find_container``.  The unwind containment
  test is one int compare, box splits, resolvents and SAO translations
  are unrolled per axis, the stats counters run as locals flushed once
  on exit, and an opt-in proof log appends one step per resolution.
* :func:`probe_kernel` — the gap-box probe Tetris-Reloaded asks of its
  oracle, per oracle shape (each index's kind and output axes, ``ndim``,
  ``depth``) in two modes, first hit (``container``) and collect-all
  (``containing``): every B-tree index's walk is unrolled inline, one
  ``bisect_left`` per level, and writes its answer in the oracle's
  axes; other indexes are called and their answer lifted inline.
  ``BTreeIndex.gap_box_around`` is the same walk for one index.  The
  hand-written loops it replaced are the tests' reference
  (``tests/helpers.py``, ``tests/indexes/test_oracle.py``).

**The block contract.**  The leapfrog and hash kernels are generators
called as ``kernel(inputs, block_rows)`` that yield *lists* of rows,
never a row: every block but the last holds at least ``block_rows``
rows, none reaches ``2 × block_rows``, each is a fresh list the consumer
owns, and their concatenation is the same stream whatever ``block_rows``
is (GAO-lexicographic for leapfrog, probe order for hash).  Nothing runs
before the first pull and a pull does one block's work, so ``limit=k``
(``block_rows = min(k, BLOCK_ROWS)``) still costs O(k).

Join-kernel cache keys include the *attribute names*, not just the
shape — two schemas that differ only in naming never share a kernel
(the EXPLAIN surface would otherwise lie about which query a cached
kernel belongs to).  A probe names no attribute: its key is axes.

Every kernel family is total: each plan, oracle and Tetris engine shape
gets a kernel, and nothing falls back to an interpreted twin.  The
Tetris kernel's step-for-step reference is the interpreted loop kept in
``tests/helpers.py``, which ``tests/engine/test_tetris_kernel.py`` pins
it to field for field.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, defaultdict
from itertools import chain, islice, product
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs import tracing as _tracing
from repro.obs.metrics import REGISTRY as _METRICS

#: Compiled kernels kept per family cache before LRU eviction.  Small
#: enough that a process streaming never-seen query shapes stays bounded,
#: large enough that a benchmark sweep over every Table-1 family never
#: thrashes.
KERNEL_CACHE_CAP = 256

class KernelCache:
    """A bounded LRU of compiled kernels with hit/miss/eviction counters."""

    __slots__ = ("name", "capacity", "hits", "misses", "evictions",
                 "_entries")

    def __init__(self, name: str, capacity: int = KERNEL_CACHE_CAP):
        if capacity < 1:
            raise ValueError("kernel cache capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[tuple, Callable]" = OrderedDict()

    def lookup(self, key: tuple, build: Callable[[], Callable]) -> Callable:
        entries = self._entries
        kernel = entries.get(key)
        if kernel is not None:
            self.hits += 1
            entries.move_to_end(key)
            return kernel
        self.misses += 1
        tracer = _tracing.current_tracer()
        if tracer is not None:
            # Span the build, not the probe: hits stay untraced (they
            # are the steady state), compiles are the rare event worth
            # a line on the timeline.
            with tracer.span("kernel.compile", cache=self.name):
                kernel = build()
        else:
            kernel = build()
        entries[key] = kernel
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        return kernel

    def __len__(self) -> int:
        return len(self._entries)

    def cached_sources(self) -> Tuple[str, ...]:
        """The generated source of every live compiled kernel (LRU order)."""
        return tuple(fn.source for fn in self._entries.values())

    def info(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0


_LEAPFROG_CACHE = KernelCache("leapfrog")
_HASH_CACHE = KernelCache("hash")
_TETRIS_CACHE = KernelCache("tetris")
_PROBE_CACHE = KernelCache("probe")

_CACHES = (_LEAPFROG_CACHE, _HASH_CACHE, _TETRIS_CACHE, _PROBE_CACHE)


def kernel_cache_info() -> dict:
    """Per-family cache statistics, keyed by kernel family name."""
    return {cache.name: cache.info() for cache in _CACHES}


def kernel_cache_summary() -> str:
    """One EXPLAIN-ready line: live kernels, hits, misses, evictions."""
    entries = sum(len(c) for c in _CACHES)
    hits = sum(c.hits for c in _CACHES)
    misses = sum(c.misses for c in _CACHES)
    evictions = sum(c.evictions for c in _CACHES)
    return (
        f"{entries} cached, {hits} hits, {misses} misses, "
        f"{evictions} evicted"
    )


def clear_kernel_caches() -> None:
    """Drop every compiled kernel and reset the counters (tests, benchmarks)."""
    for cache in _CACHES:
        cache.clear()


def _collect_kernel_metrics() -> dict:
    """Registry collector: the kernel caches under ``kernels.compile.*``."""
    out = {
        "kernels.compile.hits": 0,
        "kernels.compile.misses": 0,
        "kernels.compile.evictions": 0,
        "kernels.cache.entries": 0,
    }
    for cache in _CACHES:
        out["kernels.compile.hits"] += cache.hits
        out["kernels.compile.misses"] += cache.misses
        out["kernels.compile.evictions"] += cache.evictions
        out["kernels.cache.entries"] += len(cache)
    return out


_METRICS.register_collector("kernels", _collect_kernel_metrics)


def _compile(source: str, namespace: dict) -> Callable:
    """``exec`` a generated ``def kernel(...)`` and return the function.

    The source is attached as ``kernel.source`` for inspection (README's
    "how do I read the generated code" path and the codegen tests).
    The function leaves its own globals, which would otherwise hold it
    in a reference cycle: an evicted kernel is freed by refcount.
    """
    ns = dict(namespace)
    code = compile(source, "<repro-kernel>", "exec")
    exec(code, ns)
    fn = ns.pop("kernel")
    fn.source = source
    return fn


def _tuple_expr(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _scalar_or_tuple(items: Sequence[str]) -> str:
    """One item bare (scalar keys and values), several as a tuple."""
    return items[0] if len(items) == 1 else _tuple_expr(items)


# -- leapfrog -------------------------------------------------------------------


def _seek(col, lo: int, hi: int, v: int) -> int:
    """First index in ``[lo, hi)`` with ``col[idx] >= v`` (gallop + bisect).

    Doubling steps from ``lo`` find a window whose far edge passes
    ``v``, then a bisection inside the window finds the boundary —
    O(log d) comparisons for a seek that lands ``d`` rows ahead, never
    a linear scan.
    """
    if lo >= hi or col[lo] >= v:
        return lo
    step = 1
    pos = lo
    while pos + step < hi and col[pos + step] < v:
        pos += step
        step <<= 1
    lo = pos + 1
    if pos + step < hi:
        hi = pos + step
    while lo < hi:
        mid = (lo + hi) >> 1
        if col[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    return lo


#: What the generated leapfrog / hash sources may name.
_JOIN_GLOBALS = {
    "_seek": _seek, "chain": chain, "defaultdict": defaultdict,
    "islice": islice, "product": product,
}

def _leapfrog_source(
    atoms: Sequence[Tuple[str, Tuple[str, ...]]],
    gao: Tuple[str, ...],
    variables: Tuple[str, ...],
) -> str:
    """Generate the nested-loop leapfrog kernel for one (query, GAO).

    ``kernel(views, block_rows)`` takes the per-atom GAO-restricted
    :class:`~repro.relational.relation.SortedView` objects (in atom
    order) and yields the output in blocks (the module's block
    contract), duplicate-free and in GAO-lexicographic order.

    Two facts about a view shape the code.  A view is a *set* of rows
    sorted in its own column order, so under a fixed prefix the values
    of an atom's **last** column are distinct: a participant reading its
    last column has runs of length 1 and advances by ``+= 1`` with no
    run-narrowing test — at the innermost level that is every
    participant.  And a GAO level whose variable occurs in one atom
    only, as that atom's last column, constrains nothing else: the
    maximal suffix of such levels (star rays, path ends — the acyclic
    fringe) is the Cartesian product of column slices the bound prefix
    already delimits — ``itertools.product`` over them, with singletons
    for the prefix, when the fringe keeps its GAO order in ``variables``
    (the product then enumerates in GAO order), one nested generator
    expression otherwise.
    """
    n = len(gao)
    orders = [
        tuple(a for a in gao if a in attrs) for _name, attrs in atoms
    ]
    parts_by_level: List[List[Tuple[int, int]]] = []
    for var in gao:
        parts = [
            (ai, order.index(var))
            for ai, order in enumerate(orders)
            if var in order
        ]
        if not parts:
            # Not a natural join; JoinQuery cannot express it.
            raise ValueError(f"GAO attribute {var!r} occurs in no atom")
        parts_by_level.append(parts)

    def last_column(ai: int, k: int) -> bool:
        return k == len(orders[ai]) - 1

    # Levels cut..n-1 are the product fringe.
    cut = n
    while cut and len(parts_by_level[cut - 1]) == 1 and last_column(
        *parts_by_level[cut - 1][0]
    ):
        cut -= 1

    lines: List[str] = ["def kernel(views, block_rows):"]
    w = lines.append
    w("    seek = _seek")
    needed = sorted({p for parts in parts_by_level for p in parts})
    for ai, k in needed:
        w(f"    c{ai}_{k} = views[{ai}].column({k})")
    for ai in sorted({ai for ai, _ in needed}):
        w(f"    n{ai} = len(views[{ai}].rows)")
    w("    out = []")

    def lo(ai: int, k: int) -> str:
        return "0" if k == 0 else f"p{ai}_{k - 1}"

    def hi(ai: int, k: int) -> str:
        return f"n{ai}" if k == 0 else f"e{ai}_{k - 1}"

    def emit_level(level: int, ind: str) -> None:
        if level == cut:
            return emit_fringe(ind)
        parts = parts_by_level[level]
        for ai, k in parts:
            w(f"{ind}p{ai}_{k} = {lo(ai, k)}")
        cond = " and ".join(f"p{ai}_{k} < {hi(ai, k)}" for ai, k in parts)
        w(f"{ind}while {cond}:")
        body = ind + "    "
        a0, k0 = parts[0]
        w(f"{body}v{level} = c{a0}_{k0}[p{a0}_{k0}]")
        if len(parts) == 1:
            emit_runs_and_inner(level, parts, body)
        else:
            for j, (ai, k) in enumerate(parts[1:], start=1):
                w(f"{body}t{level}_{j} = c{ai}_{k}[p{ai}_{k}]")
            aligned = " == ".join(
                [f"v{level}"]
                + [f"t{level}_{j}" for j in range(1, len(parts))]
            )
            w(f"{body}if {aligned}:")
            emit_runs_and_inner(level, parts, body + "    ")
            w(f"{body}else:")
            alt = body + "    "
            # m = max over participants; everyone strictly below seeks.
            w(f"{alt}m = v{level}")
            for j in range(1, len(parts)):
                w(f"{alt}if t{level}_{j} > m:")
                w(f"{alt}    m = t{level}_{j}")
            for j, (ai, k) in enumerate(parts):
                val = f"v{level}" if j == 0 else f"t{level}_{j}"
                w(f"{alt}if {val} < m:")
                w(
                    f"{alt}    p{ai}_{k} = seek(c{ai}_{k}, p{ai}_{k}, "
                    f"{hi(ai, k)}, m)"
                )

    def emit_runs_and_inner(
        level: int, parts: List[Tuple[int, int]], ind: str
    ) -> None:
        # Narrow each participant with deeper columns to its run of v
        # (keys are near-unique in practice: test before galloping).
        runs = [(ai, k) for ai, k in parts if not last_column(ai, k)]
        for ai, k in runs:
            w(f"{ind}e{ai}_{k} = p{ai}_{k} + 1")
            w(
                f"{ind}if e{ai}_{k} < {hi(ai, k)} and "
                f"c{ai}_{k}[e{ai}_{k}] == v{level}:"
            )
            w(
                f"{ind}    e{ai}_{k} = seek(c{ai}_{k}, e{ai}_{k}, "
                f"{hi(ai, k)}, v{level} + 1)"
            )
        if level + 1 == n:
            refs = [f"v{gao.index(v)}" for v in variables]
            w(f"{ind}out.append({_tuple_expr(refs)})")
            w(f"{ind}if len(out) >= block_rows:")
            w(f"{ind}    yield out")
            w(f"{ind}    out = []")
        else:
            emit_level(level + 1, ind)
        for ai, k in parts:
            step = f"= e{ai}_{k}" if (ai, k) in runs else "+= 1"
            w(f"{ind}p{ai}_{k} {step}")

    def emit_fringe(ind: str) -> None:
        """Levels ``cut..n-1``: independent given the bound prefix."""
        slices = {}
        for level in range(cut, n):
            (ai, k), = parts_by_level[level]
            slices[gao[level]] = (
                f"c{ai}_{k}" if k == 0
                else f"c{ai}_{k}[{lo(ai, k)}:{hi(ai, k)}]"
            )
        fringe = gao[cut:]
        if tuple(v for v in variables if v in slices) == fringe:
            args = [
                slices.get(v) or f"(v{gao.index(v)},)" for v in variables
            ]
            w(f"{ind}rest = product({', '.join(args)})")
        else:
            refs = [
                f"{'x' if v in slices else 'v'}{gao.index(v)}"
                for v in variables
            ]
            loops = " ".join(
                f"for x{gao.index(v)} in {slices[v]}" for v in fringe
            )
            w(f"{ind}rest = ({_tuple_expr(refs)} {loops})")
        # Top ``out`` (< block_rows rows) up by at most one block, hand
        # over every full block, keep the remainder: none reaches 2×.
        w(f"{ind}out += islice(rest, block_rows)")
        w(f"{ind}while len(out) >= block_rows:")
        w(f"{ind}    yield out")
        w(f"{ind}    out = list(islice(rest, block_rows))")

    emit_level(0, "    ")
    # The emitters reach each other through their closure cells:
    # unbind one, and they are freed by refcount.
    emit_level = None
    w("    if out:")
    w("        yield out")
    return "\n".join(lines) + "\n"


def leapfrog_kernel(query, gao: Tuple[str, ...]) -> Callable:
    """The compiled leapfrog kernel for ``(query, gao)``.

    Keyed by the GAO and the query's signature (the atoms' names *and*
    attribute tuples, which fix the output variable order) — renaming an
    attribute is a different kernel.
    """
    key = (gao, query.signature)

    def build() -> Callable:
        source = _leapfrog_source(query.signature, gao, query.variables)
        return _compile(source, _JOIN_GLOBALS)

    return _LEAPFROG_CACHE.lookup(key, build)


# -- hash -----------------------------------------------------------------------


def _hash_source(
    atom_specs: Sequence[Tuple[str, Tuple[str, ...]]],
    variables: Tuple[str, ...],
) -> str:
    """Generate the probe-cascade kernel for one ordered left-deep plan.

    ``kernel(rels, block_rows)`` takes the per-atom row collections in
    plan order, builds each stage's table inline and yields the
    projected output in blocks of ``block_rows`` rows, in the order a
    left-deep probe pipeline over the same atom order produces them.

    The cascade is **one lazy expression** drained through ``islice``: a
    generator expression with a ``for`` clause per stage that adds
    attributes (over a table of scalars when it adds one, of tuples when
    more) and an ``if key in set`` clause per stage that adds none
    (exact: relations are sets and the key covers the whole atom).  The
    maximal suffix of one-attribute stages keyed only on what the stages
    before it bound — every ray of a star probed from its hub, both ends
    of a path probed from the middle — is independent given that
    binding and becomes one ``itertools.product`` per binding, chained.

    **Fusion.**  A stage that adds no attribute is *fused* when its
    latest-bound attribute ``v`` was bound by an earlier stage ``s``
    that adds exactly ``v`` through a table lookup.  It then emits no
    clause; stage ``s`` binds ``v`` from the intersection
    ``c{s} = g{s}(key, F) & h{k}(others, F)`` instead, sorted when it
    holds more than one value.  Both tables become dicts of sets (a
    unary check atom a plain set), and every check fused into ``s``
    joins the one intersection, which runs in C over the smaller set.
    So a triangle costs Σ over R's rows of min(deg_S b, deg_T a) ≤
    N^{3/2}, not |R ⋈ S| probes.  A check whose latest attribute comes
    from the first atom, or from a stage that adds several attributes
    or has no key, stays a set test, and stages that fuse nothing are
    emitted exactly as they would be alone.

    Sorting keeps the probe order.  Over sorted relations a table's
    values for one key arrive ascending (rows sharing a key are ordered
    by their remaining components), so the unfused cascade walks ``v``'s
    candidates ascending and filters them at the check; the fused one
    walks the same survivors in the same order, and the rows come out
    identical.  Over unsorted input (Yannakakis' reduced sets) the order
    differs, and only the row set is promised.
    """
    first_attrs = list(atom_specs[0][1])
    acc = list(first_attrs)
    bound_at = [0] * len(first_attrs)
    #: Per later stage: its attributes, the bound ones it keys on (in
    #: binding order) and the ones it adds.
    shapes: List[Tuple[List[str], List[str], List[str]]] = []
    for s, (_name, attrs) in enumerate(atom_specs[1:], start=1):
        right = list(attrs)
        new = [a for a in right if a not in acc]
        shapes.append((right, [a for a in acc if a in right], new))
        acc.extend(new)
        bound_at.extend([s] * len(new))
    #: Check stage -> the lookup stage it fuses into.
    into = {}
    for k, (right, _common, new) in enumerate(shapes, start=1):
        s = max(bound_at[acc.index(a)] for a in right)
        if not new and s and len(shapes[s - 1][2]) == 1 and shapes[s - 1][1]:
            into[k] = s

    # Per acc position: the expression that reads it.
    ref = [f"x0[{j}]" for j in range(len(first_attrs))]
    lines: List[str] = ["def kernel(rels, block_rows):"]
    w = lines.append
    w("    E = ()")
    if into:
        w("    F = frozenset()")

    def emit_table(s: int, get: str, key: str, val: str, of_sets: bool):
        if of_sets:
            w(f"    t{s} = defaultdict(set)")
            w(f"    for r in rels[{s}]:")
            w(f"        t{s}[{key}].add({val})")
        else:
            w(f"    t{s} = {{}}")
            w(f"    for r in rels[{s}]:")
            w(f"        k = {key}")
            w(f"        l = t{s}.get(k)")
            w("        if l is None:")
            w(f"            t{s}[k] = [{val}]")
            w("        else:")
            w(f"            l.append({val})")
        w(f"    {get} = t{s}.get")

    def others(k: int) -> List[str]:
        """A fused check's attributes but the one it fuses on."""
        return [a for a in shapes[k - 1][0] if a not in shapes[into[k] - 1][2]]

    #: Per stage: (clause, table lookup when it adds exactly one
    #: attribute, the stages its key reads).
    stages: List[Tuple[str, Optional[str], set]] = [
        ("for x0 in rels[0]", None, set())
    ]
    for s, (right, common, new) in enumerate(shapes, start=1):
        rkey = _scalar_or_tuple([f"r[{right.index(a)}]" for a in common])
        lkey = _scalar_or_tuple([ref[acc.index(a)] for a in common])
        val = _scalar_or_tuple([f"r[{right.index(a)}]" for a in new])
        fused_here = [k for k, t in into.items() if t == s]
        if s in into:
            # Fused: a table from the other attributes to the last one's
            # values, which stage into[s]'s intersection reads.
            (v,) = shapes[into[s] - 1][2]
            keys = [f"r[{right.index(a)}]" for a in others(s)]
            if keys:
                emit_table(s, f"h{s}", _scalar_or_tuple(keys),
                           f"r[{right.index(v)}]", True)
            else:
                w(f"    s{s} = {{r[{right.index(v)}] for r in rels[{s}]}}")
            clause, source = "", None
        elif not new:
            keys = (
                f"set(rels[{s}])" if common == right and len(right) > 1
                else f"{{{rkey} for r in rels[{s}]}}"
            )
            w(f"    s{s} = {keys}")
            clause, source = f"if {lkey} in s{s}", None
        elif common:
            emit_table(s, f"g{s}", rkey, val, bool(fused_here))
            source = f"g{s}({lkey}, {'F' if fused_here else 'E'})"
        else:
            # Disconnected hypergraph: a genuine cross-product stage.
            w(f"    a{s} = [{val} for r in rels[{s}]]")
            source = f"a{s}"
        if fused_here:
            operands = [source]
            for k in fused_here:
                keys = [ref[acc.index(a)] for a in others(k)]
                operands.append(
                    f"h{k}({_scalar_or_tuple(keys)}, F)" if keys else f"s{k}"
                )
            # For clauses, never a product argument.  A set of at most
            # one value is already in order, and skipping ``sorted``
            # there keeps sparse inputs as cheap as the probe was.
            clause = (
                f"for c{s} in [{' & '.join(operands)}] for x{s} in "
                f"(sorted(c{s}) if len(c{s}) > 1 else c{s})"
            )
            source = None
        elif new:
            clause = f"for x{s} in {source}"
        key_levels = {bound_at[acc.index(a)] for a in common}
        stages.append((clause, source if len(new) == 1 else None, key_levels))
        ref.extend(
            [f"x{s}"] if len(new) == 1
            else [f"x{s}[{j}]" for j in range(len(new))]
        )
    # Stages tail.. are the product suffix.
    tail = len(stages)
    while tail > 1 and stages[tail - 1][1] is not None and all(
        level < tail - 1
        for _clause, _source, levels in stages[tail - 1:]
        for level in levels
    ):
        tail -= 1
    clauses = " ".join(clause for clause, _s, _l in stages[:tail] if clause)
    if tail == len(stages):
        row = _tuple_expr([ref[acc.index(v)] for v in variables])
        w(f"    rows = ({row} {clauses})")
    else:
        args = [
            stages[bound_at[i]][1] if bound_at[i] >= tail else f"({ref[i]},)"
            for i in map(acc.index, variables)
        ]
        w("    rows = chain.from_iterable(")
        w(f"        product({', '.join(args)}) {clauses})")
    w("    while block := list(islice(rows, block_rows)):")
    w("        yield block")
    return "\n".join(lines) + "\n"


def hash_kernel(
    atom_specs: Sequence[Tuple[str, Tuple[str, ...]]],
    variables: Tuple[str, ...],
) -> Callable:
    """The compiled hash-cascade kernel for one ordered plan.

    ``atom_specs`` is the plan-ordered ``(name, attrs)`` sequence; the
    key carries names and attributes, so renamed schemas never collide.
    A tuple of ``(name, attrs tuple)`` pairs — a plan's
    :attr:`~repro.engine.planner.Plan.atom_order` — is its own key.
    """
    if type(atom_specs) is not tuple:
        atom_specs = tuple([(n, tuple(a)) for n, a in atom_specs])
    key = (atom_specs, tuple(variables))

    def build() -> Callable:
        return _compile(
            _hash_source(atom_specs, tuple(variables)), _JOIN_GLOBALS
        )

    return _HASH_CACHE.lookup(key, build)


# -- tetris ---------------------------------------------------------------------

#: Up to this many dimensions a probe's exact ``get`` chain nests one
#: ``if`` per level; wider chains are one loop, so the source's
#: indentation (CPython's tokenizer stops at 100 levels) and its probe
#: code stay bounded per cursor whatever the dimensionality.
_NESTED_CHAIN_CAP = 8


def _tetris_source(
    n: int,
    depth: int,
    sao: Tuple[int, ...],
    fetch: bool,
    capped: bool,
    cache_resolvents: bool,
    units: Optional[Tuple[tuple, ...]] = None,
    frontier: bool = True,
    boxes: bool = False,
    proof: bool = False,
) -> str:
    """Generate the specialized frontier-resuming loop.

    The resume-mode traversal of :class:`~repro.core.tetris.TetrisEngine`
    with every mode branch resolved at generation time.  With
    ``frontier`` the knowledge base is a
    :class:`~repro.core.dyadic_tree.MultilevelDyadicTree` and its probe
    is *inlined* — the frontier walk of
    :func:`~repro.core.dyadic_tree.frontier_probe`, ``box_contains`` and
    the resolution counting (the reference loop's
    ``tests/helpers.py::record_resolution``) become straight-line code
    over kernel locals.  Without it (any other store, or a generalized
    space) every traversal box is probed with ``kb.find_container(b)``
    and no frontier is kept.

    * **Frontier in locals.**  ``L1..L{n-1}`` are the frontier's node
      lists (``Lj``: tree nodes reachable through prefixes of the
      box's first ``j`` components, all unit below the cursor).  A
      component below the cursor changes only at a split whose halves
      are unit on the axis and at that frame's stage flip, so ``Lj`` is
      rebuilt exactly there and no probe compares a frozen prefix.  The
      probe is emitted once per cursor value: an exact ``get`` where the
      split axis is pinned, ``get(1)`` on the components after the
      cursor (they are λ; past ``_NESTED_CHAIN_CAP`` dimensions one
      loop rather than one nested ``if`` each), the band walk
      elsewhere — in the shipped order (list order with move-to-front
      on the last two levels, the LIFO order of the generic walk above
      them).
    * **One-compare unwind.**  Split frame box ``b`` on axis ``a`` into
      half ``c``, answered by witness ``w ⊇ c``.  For ``j ≠ a``, ``w[j] ⪯
      c[j] = b[j]``; the prefixes of ``c[a]`` are itself and those of
      ``b[a] = c[a] >> 1``; so ``w ⊇ b`` iff ``w[a] ≠ c[a]``.  Every
      witness contains its half (a stored container, the output half, a
      ``container(c)`` answer, a resolvent of the frame), so frames carry
      ``c[a]`` (its low bit doubles as the stage flag).
    * **Local bookkeeping.**  The resolvent is unrolled per axis, and
      every stats counter — ``by_axis`` and ``ordered`` included — is a
      local flushed once in ``finally``; a local ``version`` counts
      stores for the second-half pin.

    ``fetch`` is the on-demand (Reloaded) discipline: every
    knowledge-base miss on the traversal box ``b`` is followed by one
    ``oracle.container(b)`` probe — a hit is stored and is the witness,
    a miss on a unit box is an output, a miss on a thick box splits.
    Without it an uncovered leaf is an output by construction
    (preloaded runs, or no oracle at all).

    ``units`` is ``None`` for the uniform ``{0,1}^depth`` space, where
    a split moves the cursor (the first thick axis) by one compare.  A
    generalized space passes one :func:`_unit_kind` per axis: each
    axis's unit test is emitted inline and the cursor is re-scanned from
    the split axis after every split.  Generalized spaces and stores
    other than the tree run without ``frontier``.  ``boxes`` emits each
    output as its packed unit box; ``proof`` appends one
    :class:`~repro.core.trace.ProofStep` per resolution to
    ``engine.proof``.
    """
    unit = 1 << depth
    last = n - 1
    identity = sao == tuple(range(n))
    inv = [0] * n
    for pos, dim in enumerate(sao):
        inv[dim] = pos

    def tup(f) -> str:
        return _tuple_expr([f(i) for i in range(n)])

    def emitted(var: str) -> str:
        if boxes:
            return var if identity else to_ext(var)
        if units is not None:
            return tup(lambda i: f"pvalue({var}[{inv[i]}])")
        return tup(lambda i: f"{var}[{inv[i]}] ^ {unit}")

    def is_unit(i: int) -> str:
        """Axis ``i`` of ``b`` is at its unit level (generalized)."""
        kind = units[i]
        if kind[0] == "depth":
            return f"b[{i}] >= {1 << kind[1]}"
        if kind[0] == "code":
            return f"b[{i}] in code{i}"
        if kind[0] == "remainder":
            return (
                f"b[{i}].bit_length() + b[{kind[1]}].bit_length() "
                f"== {kind[2] + 2}"
            )
        return f"unit{i}(b, {i})"

    def emit_scan(ind: int, start: int) -> None:
        """``cursor`` = the first thick axis of ``b`` from ``start``."""
        for i in range(start, n):
            w(ind, f"{'if' if i == start else 'elif'} not {is_unit(i)}:")
            w(ind + 1, f"cursor = {i}")
        w(ind, "else:")
        w(ind + 1, f"cursor = {n}")

    def to_ext(var: str) -> str:
        return tup(lambda i: f"{var}[{inv[i]}]")

    def to_int(var: str) -> str:
        return tup(lambda i: f"{var}[{sao[i]}]")

    def witness_depth(var: str) -> str:
        return (
            " + ".join(f"{var}[{i}].bit_length()" for i in range(n))
            + f" - {n}"
        )

    lines: List[str] = ["def kernel(engine, oracle, max_outputs):"]

    def w(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    def trimmed(q: str, s: str) -> str:
        """``q`` (of string length ``s``) cut to the node's stored band."""
        return f"{q} >> ({s} - k) if k < {s} else {q}"

    def emit_freeze(ind: int, j: int, comp: str) -> None:
        """Rebuild ``L{j+1}`` from ``L{j}`` for the unit component ``comp``."""
        w(ind, f"L{j + 1} = freeze(L{j}, {comp})")
        w(ind, f"ids[{j + 1}] = None")

    def emit_probe(ind: int, t: int, exact: bool, unit_t: bool) -> None:
        """Containment probe of ``b`` from frontier level ``t``.

        Leaves the stored container in ``witness`` (``None`` on a miss;
        the caller has set it to ``None``) and the frontier node it was
        found under in ``node`` — see :func:`emit_move_to_front`.  Level
        ``t`` is an exact ``get`` when ``exact``; later levels are λ.
        ``unit_t`` says ``b[t]`` has full length.
        """
        # The interpreted probe walks the last two levels node by node,
        # deepest prefix first, with move-to-front; above them it is a
        # LIFO DFS: nodes from the back, shallowest child first.
        ordered_walk = t >= last - 1

        def length(j: int) -> str:
            return str(depth) if (j > t or unit_t) else f"s{j}"

        w(ind, f"q{t} = b[{t}]")
        if not exact and not unit_t:
            w(ind, f"s{t} = q{t}.bit_length() - 1")

        def level(ind: int, j: int, node: str) -> None:
            if j > t:
                key = "1"
            else:
                key = f"q{j}" if exact else None
            if j == last:
                if key is not None:
                    w(ind, f"witness = {node}.get({key})")
                    return
                w(ind, f"k = {node}[0].bit_length() - 1")
                w(ind, "if k >= 0:")
                w(ind + 1, f"q = {trimmed(f'q{j}', length(j))}")
                w(ind + 1, f"get = {node}.get")
                w(ind + 1, "while True:")
                w(ind + 2, "witness = get(q)")
                w(ind + 2, "if witness is not None or q == 1:")
                w(ind + 3, "break")
                w(ind + 2, "q >>= 1")
                return
            child = f"c{j}"
            if key is not None and n > _NESTED_CHAIN_CAP:
                # Every key after the first is λ (j >= t): one loop.
                w(ind, f"witness = {node}.get({key})")
                w(ind, "if witness is not None:")
                w(ind + 1, f"for _ in range({last - j}):")
                w(ind + 2, "witness = witness.get(1)")
                w(ind + 2, "if witness is None:")
                w(ind + 3, "break")
                return
            if key is not None:
                w(ind, f"{child} = {node}.get({key})")
                w(ind, f"if {child} is not None:")
                level(ind + 1, j + 1, child)
                return
            w(ind, f"k = {node}[0].bit_length() - 1")
            w(ind, "if k >= 0:")
            ind += 1
            w(ind, f"x{j} = {trimmed(f'q{j}', length(j))}")
            w(ind, f"g{j} = {node}.get")
            if ordered_walk:
                w(ind, "while True:")
                w(ind + 1, f"{child} = g{j}(x{j})")
            else:
                w(ind, f"h{j} = x{j}.bit_length() - 1")
                w(ind, f"while h{j} >= 0:")
                w(ind + 1, f"{child} = g{j}(x{j} >> h{j})")
            w(ind + 1, f"if {child} is not None:")
            level(ind + 2, j + 1, child)
            w(ind + 2, "if witness is not None:")
            w(ind + 3, "break")
            if ordered_walk:
                w(ind + 1, f"if x{j} == 1:")
                w(ind + 2, "break")
                w(ind + 1, f"x{j} >>= 1")
            else:
                w(ind + 1, f"h{j} -= 1")

        if t == 0:
            level(ind, 0, "root")
        else:
            nodes = f"L{t}" if ordered_walk else f"reversed(L{t})"
            w(ind, f"for node in {nodes}:")
            level(ind + 1, t, "node")
            w(ind + 1, "if witness is not None:")
            w(ind + 2, "break")
        level = None  # it reaches itself through its cell: free it

    def moves_to_front(t: int) -> bool:
        return t >= max(1, last - 1)

    def emit_move_to_front(ind: int, t: int) -> None:
        """After a hit under ``node``: the interpreted walk of the last
        two levels swaps the hit node to the head of its list —
        consecutive probes tend to hit the same stored region."""
        w(ind, f"if node is not L{t}[0]:")
        w(ind + 1, "idx = 1")
        w(ind + 1, f"while L{t}[idx] is not node:")
        w(ind + 2, "idx += 1")
        w(ind + 1, f"L{t}[idx] = L{t}[0]")
        w(ind + 1, f"L{t}[0] = node")

    all_levels = _tuple_expr([f"L{j}" for j in range(n)])

    def emit_store(ind: int, box: str, frozen: int, count: bool) -> None:
        """``kb.add(box)``, counted, and noted in the kernel's frontier.

        ``frozen`` is how many leading components of the last probed
        box ``b`` the frontier has frozen (``-1``: read the cursor).
        """
        if not frontier:
            if count:
                w(ind, f"if kb_add({box}):")
                w(ind + 1, "loaded += 1")
            else:
                w(ind, f"kb_add({box})")
            return
        w(ind, f"if kb_add({box}):")
        if count:
            w(ind + 1, "loaded += 1")
        w(ind + 1, "version += 1")
        if frozen:
            upto = (
                f"cursor if cursor < {last} else {last}" if frozen < 0
                else str(frozen)
            )
            w(ind + 1,
              f"note_add(root, b[:{upto}], {all_levels}, ids, {box})")

    def emit_capped_return(ind: int) -> None:
        if capped:
            w(ind, "if max_outputs is not None and "
                   "len(outputs) >= max_outputs:")
            w(ind + 1, "return outputs")

    def emit_probe_b(ind: int, t: int, unit_t: bool) -> None:
        """Probe the traversal box; a hit ends the descent."""
        w(ind, "if exact:")
        emit_probe(ind + 1, t, True, unit_t)
        w(ind, "else:")
        emit_probe(ind + 1, t, False, unit_t)
        w(ind, "if witness is not None:")
        if moves_to_front(t):
            emit_move_to_front(ind + 1, t)
        w(ind + 1, "hits += 1")
        w(ind + 1, "res_w = witness")
        w(ind + 1, "break")

    def emit_fetch(ind: int, t: int) -> None:
        """The knowledge base missed ``b``: ask the oracle for a gap
        box around all of it.  A hit is stored and is the witness."""
        w(ind, "oq += 1")
        w(ind, f"res_w = oracle_container({'b' if identity else to_ext('b')})")
        w(ind, "if res_w is not None:")
        if not identity:
            w(ind + 1, f"res_w = {to_int('res_w')}")
        emit_store(ind + 1, "res_w", t, True)
        w(ind + 1, "resumes += 1")
        w(ind + 1, f"wdepth += {witness_depth('res_w')}")
        w(ind + 1, "break")

    def emit_leaf(ind: int) -> None:
        """An uncovered unit box: an oracle hit or an output."""
        if fetch and frontier:
            emit_fetch(ind, last)
        # Preloaded runs (or no oracle) get here directly: an uncovered
        # leaf is an output by construction.
        w(ind, "resumes += 1")
        w(ind, f"out_append({emitted('b')})")
        emit_capped_return(ind)
        emit_store(ind, "b", last, False)
        w(ind, "loaded += 1")
        w(ind, "res_w = b")
        w(ind, "break")

    # A frame is [axis, half, b2, w1, version, fb]; version pins the
    # frontier probe and is left out without one.
    ver = "version, " if frontier else ""

    def emit_split(ind: int, axis: int) -> None:
        w(ind, f"half = b[{axis}] << 1")
        halves = [
            tup(lambda i, h=h: h if i == axis else f"b[{i}]")
            for h in ("half", "half | 1")
        ]
        w(ind, f"push([{axis}, half, {halves[1]}, None, {ver}b])")
        w(ind, f"b = {halves[0]}")
        if units is not None:
            emit_scan(ind, axis)
            return
        w(ind, f"if half >= {unit}:")
        w(ind + 1, f"cursor = {axis + 1}")
        if not frontier:
            return
        if axis < last:
            # The axis component is unit from here down: it joins the
            # frozen prefix, so the pin no longer reaches the probe.
            w(ind + 1, "exact = False")
            emit_freeze(ind + 1, axis, "half")
            w(ind, "else:")
            w(ind + 1, "exact = True")
        else:
            w(ind, "exact = True")

    # -- prologue ---------------------------------------------------------------
    w(1, "kb = engine.knowledge_base")
    w(1, "stats = engine.stats")
    w(1, "kb_add = kb.add")
    if frontier:
        w(1, "root = kb._root")
        w(1, "L0 = (root,)")
        for j in range(1, n):
            w(1, f"L{j} = []")
        w(1, f"ids = [None] * {n}")
        w(1, "version = 0")
    else:
        w(1, "find = kb.find_container")
    if units is not None:
        w(1, "dims = engine.dims")
        for i, kind in enumerate(units):
            if kind[0] == "code":
                w(1, f"code{i} = dims[{i}].code")
            elif kind[0] == "spec":
                w(1, f"unit{i} = dims[{i}].is_unit")
    if proof:
        w(1, "log = engine.proof.steps.append")
    if fetch:
        w(1, "oracle_container = oracle.container")
    w(1, "outputs = []")
    w(1, "out_append = outputs.append")
    w(1, "cq = hits = resumes = loaded = wdepth = oq = ordered = 0")
    w(1, " = ".join(f"ba{a}" for a in range(n)) + " = 0")
    w(1, "axes_seen = []")
    w(1, "stats.skeleton_calls += 1")
    w(1, "stack = []")
    w(1, "push = stack.append")
    w(1, "pop = stack.pop")
    w(1, f"b = {tup(lambda i: '1')}")
    if units is not None:
        emit_scan(1, 0)
    else:
        w(1, f"cursor = {n if depth == 0 else 0}")
    if frontier:
        w(1, "exact = False")
        if depth == 0:
            # The universe is the unit box: every component is frozen.
            for j in range(last):
                emit_freeze(1, j, "1")
    w(1, "try:")
    w(2, "while True:")
    # -- descend: probe, then split, until something answers ---------------------
    w(3, "while True:")
    w(4, "cq += 1")
    if frontier:
        w(4, "witness = None")
        # Deep cursors are the common case: test them first.
        w(4, f"if cursor == {n}:")
        emit_probe_b(5, last, True)
    else:
        w(4, "res_w = find(b)")
        w(4, "if res_w is not None:")
        w(5, "hits += 1")
        w(5, "break")
        if fetch:
            emit_fetch(4, 0)
        w(4, f"if cursor == {n}:")
    emit_leaf(5)
    for axis in range(last, -1, -1):
        w(4, f"elif cursor == {axis}:" if axis else "else:")
        if frontier:
            emit_probe_b(5, axis, False)
            if fetch:
                emit_fetch(5, axis)
        emit_split(5, axis)
    # -- unwind: pop covered frames, flip or resolve the first that is not -------
    w(3, "while True:")
    w(4, "if not stack:")
    w(5, "return outputs")
    w(4, "frame = stack[-1]")
    # res_w contains the half it answers, so it contains the frame box
    # iff it is shorter than the half on the split axis.
    w(4, "if res_w[frame[0]] != frame[1]:")
    w(5, "pop()")
    w(5, "continue")
    w(4, f"axis, half, b2, w1, {'ver, ' if frontier else ''}fb = frame")
    w(4, "if not half & 1:")
    w(5, "frame[1] = half | 1")
    w(5, "frame[3] = res_w")
    w(5, "b = b2")
    if units is not None:
        for axis in range(last, -1, -1):
            if n > 1:
                w(5, "else:" if axis == 0
                     else f"{'if' if axis == last else 'elif'} axis == {axis}:")
            emit_scan(6 if n > 1 else 5, axis)
    elif not frontier:
        w(5, f"cursor = axis if half < {unit} else axis + 1")
    else:
        # The half b2 inherits fb's miss: if nothing was stored since the
        # split, its probe can pin the axis too.
        w(5, f"if half < {unit}:")
        w(6, "cursor = axis")
        w(6, "exact = ver == version")
        for axis in range(last):
            w(5, f"elif axis == {axis}:")
            w(6, f"cursor = {axis + 1}")
            w(6, "exact = False")
            emit_freeze(6, axis, "half | 1")
        w(5, "else:")
        w(6, f"cursor = {n}")
        w(6, "exact = ver == version")
    w(5, "break")
    # Both halves covered, neither witness covers fb: resolve on axis.
    # half is odd here, so half >> 1 is fb's own axis component.
    if proof:
        w(4, "w2 = res_w")
    w(4, f"{_tuple_expr([f'y{i}' for i in range(n)])} = w1")
    w(4, f"{_tuple_expr([f'z{i}' for i in range(n)])} = res_w")
    for axis in range(last, -1, -1):
        if n > 1:
            w(4, "else:" if axis == 0
                 else f"{'if' if axis == last else 'elif'} axis == {axis}:")
        ind = 5 if n > 1 else 4
        for j in range(axis + 1, n):
            w(ind, f"r{j} = y{j} if y{j} > z{j} else z{j}")
        meet = tup(
            lambda i, a=axis: "half >> 1" if i == a
            else f"r{i}" if i > a
            else f"y{i} if y{i} > z{i} else z{i}"
        )
        w(ind, f"res_w = {meet}")
        # Ordered (Definition 4.3): λ on both premises after the axis.
        is_ordered = "True"
        if axis < last:
            later = " | ".join(f"r{j}" for j in range(axis + 1, n))
            is_ordered = f"{later} == 1"
            w(ind, f"if {is_ordered}:")
            w(ind + 1, "ordered += 1")
        else:
            w(ind, "ordered += 1")
        w(ind, f"if ba{axis}:")
        w(ind + 1, f"ba{axis} += 1")
        w(ind, "else:")
        w(ind + 1, f"ba{axis} = 1")
        w(ind + 1, f"axes_seen.append({axis})")
        if proof:
            w(ind, f"log(ProofStep(w1, w2, {axis}, res_w, {is_ordered}))")
    if cache_resolvents:
        # A resolvent no wider than its frame box can never be probed
        # again — only witnesses reaching beyond the frame earn a slot.
        w(4, "if res_w != fb:")
        emit_store(5, "res_w", -1 if last else 0, False)
    w(4, "pop()")
    w(1, "finally:")
    w(2, "stats.containment_queries += cq")
    w(2, "stats.cache_hits += hits")
    w(2, "stats.resumes += resumes")
    w(2, "stats.boxes_loaded += loaded")
    w(2, "stats.witness_depth_sum += wdepth")
    w(2, "stats.oracle_queries += oq")
    w(2, "stats.ordered_resolutions += ordered")
    counts = _tuple_expr([f"ba{a}" for a in range(n)])
    w(2, f"counts = {counts}")
    w(2, "stats.resolutions += sum(counts)")
    w(2, "by_axis = stats.by_axis")
    w(2, "for axis in axes_seen:")
    w(3, "by_axis[axis] = by_axis.get(axis, 0) + counts[axis]")
    return "\n".join(lines) + "\n"


def _unit_kind(spec) -> tuple:
    """How the kernel tests one axis of a generalized space for unit:
    inline for the three :class:`~repro.core.tetris.DimensionSpec`
    kinds the engine ships, through ``spec.is_unit`` for any other."""
    from repro.core.tetris import CodeDimension, FixedDepth, RemainderDimension

    if type(spec) is FixedDepth:
        return ("depth", spec.depth)
    if type(spec) is CodeDimension:
        # The code set is read when the kernel runs, not keyed.
        return ("code",)
    if type(spec) is RemainderDimension:
        return ("remainder", spec.partner_axis, spec.total_depth)
    return ("spec",)


def tetris_kernel(
    engine,
    oracle,
    on_demand: bool,
    preload: Optional[bool] = None,
    *,
    capped: bool,
) -> Callable:
    """The compiled Tetris kernel for one engine configuration.

    ``on_demand`` is the run's Reloaded discipline (an oracle and no
    preload): the kernel then asks ``oracle.container`` after every
    knowledge-base miss.  ``preload`` is accepted and ignored — a
    preloaded run is one that is not ``on_demand`` — so callers that
    pass both of a run's flags keep working.

    Every engine gets a kernel.  The key adds to the traversal's shape
    the per-axis unit tests of a generalized space, whether the store is
    the dyadic tree (probe inlined) or anything else (probe called),
    ``return_boxes`` output and whether ``engine.proof`` records.
    """
    from repro.core.dyadic_tree import (
        MultilevelDyadicTree,
        frontier_children,
        frontier_note_add,
    )
    from repro.core.intervals import pvalue

    dims = engine.dims
    key = (
        engine.ndim,
        engine.depth,
        engine.sao,
        on_demand,
        capped,
        engine.cache_resolvents,
        None if dims is None else tuple(map(_unit_kind, dims)),
        dims is None
        and isinstance(engine.knowledge_base, MultilevelDyadicTree),
        engine._return_boxes,
        engine.proof is not None,
    )

    def build() -> Callable:
        from repro.core.trace import ProofStep

        return _compile(
            _tetris_source(*key),
            {
                "freeze": frontier_children,
                "note_add": frontier_note_add,
                "pvalue": pvalue,
                "ProofStep": ProofStep,
            },
        )

    return _TETRIS_CACHE.lookup(key, build)


# -- oracle probes --------------------------------------------------------------


def _probe_source(
    specs: Tuple[Tuple[str, Tuple[int, ...], int], ...],
    ndim: int,
    collect: bool,
) -> str:
    """Source of ``kernel(t0, t1, ...)``: it returns one oracle's probe.

    ``specs`` has one ``(kind, axes, depth)`` per index, in the oracle's
    index order; ``axes[j]`` is the probe axis of the index's ``j``-th
    attribute (its ``attr_order``).  A ``"btree"`` index passes its trie
    root and is walked inline; any other index passes its own
    ``gap_box_around``, called on the restricted box.  The probe unpacks
    its box into locals once and writes every answer straight in the
    probe's axes, λ on the axes an index does not mention.  It returns
    the first answer, in index order, or ``None`` — ``container`` — or,
    with ``collect``, the list of every index's answer — ``containing``.
    """
    from repro.core.intervals import PLAMBDA

    lines: List[str] = []

    def w(ind: int, text: str) -> None:
        lines.append("    " * ind + text)

    def hit(ind: int, answer: str) -> None:
        w(ind, f"out.append({answer})" if collect else f"return {answer}")

    def lifted(values) -> str:
        comps = [str(PLAMBDA)] * ndim
        for axis, value in values:
            comps[axis] = value
        return _tuple_expr(comps)

    w(0, f"def kernel({', '.join(f't{k}' for k in range(len(specs)))}):")
    for k, (kind, axes, _depth) in enumerate(specs):
        if kind == "btree":
            w(1, f"keys{k} = t{k}.keys")
            if len(axes) > 1:
                w(1, f"kids{k} = t{k}.children")
    w(1, "def probe(box):")
    w(2, f"{_tuple_expr([f'b{a}' for a in range(ndim)])} = box")
    if collect:
        w(2, "out = []")
    for k, (kind, axes, depth) in enumerate(specs):
        if kind == "btree":
            _emit_btree_walk(w, hit, lifted, k, axes, depth)
        else:
            w(2, f"found = t{k}({_tuple_expr([f'b{a}' for a in axes])})")
            w(2, "if found is not None:")
            hit(3, lifted((a, f"found[{j}]") for j, a in enumerate(axes)))
    w(2, "return out" if collect else "return None")
    w(1, "return probe")
    return "\n".join(lines) + "\n"


def _emit_btree_walk(w, hit, lifted, k, axes, depth) -> None:
    """One B-tree index's gap-box walk, one ``bisect_left`` per level.

    A level reads its probe component ``b``, which spans ``[lo, lo +
    2^s)``, and finds the first key at or past ``lo``.  No key inside:
    the component lies in the gap between the keys around it, and the
    answer is the probe's (unit) components above this level, the
    maximal dyadic piece of the gap around the component, λ below.  A
    key inside a thick component: no gap box of this index contains the
    box.  A key equal to a unit component: descend to its child.

    The piece is ``b``'s widest ancestor holding neither neighbouring
    key.  The ancestor of span ``2^j`` holds a value ``v`` iff ``lo >> j
    == v >> j``, i.e. iff ``j >= (lo ^ v).bit_length()``; with ``m`` the
    smaller of the two bit lengths (``depth + 1`` for a missing key) the
    piece spans ``2^(m - 1)``: packed, ``(b << s) >> (m - 1)``.  The
    tests check it against the parent-by-parent growth loop
    (``tests/helpers.py::pmaximal_piece``).
    """
    unit = 1 << depth
    ind = 2
    for level, axis in enumerate(axes):
        b = f"b{axis}"
        w(ind, f"keys = {'node.keys' if level else f'keys{k}'}")
        w(ind, f"s = {depth + 1} - {b}.bit_length()")
        w(ind, f"lo = ({b} << s) ^ {unit}")
        w(ind, "i = bisect_left(keys, lo)")
        w(ind, "n = len(keys)")
        w(ind, "if i == n or keys[i] >= lo + (1 << s):")
        w(ind + 1, (
            f"m = (lo ^ keys[i - 1]).bit_length() if i else {depth + 1}"
        ))
        w(ind + 1, "if i < n and (lo ^ keys[i]).bit_length() < m:")
        w(ind + 2, "m = (lo ^ keys[i]).bit_length()")
        w(ind + 1, f"piece = ({b} << s) >> (m - 1)")
        above = [(a, f"b{a}") for a in axes[:level]]
        hit(ind + 1, lifted(above + [(axis, "piece")]))
        if level == len(axes) - 1:
            break
        w(ind, "elif not s:")
        ind += 1
        w(ind, f"node = {'node.children' if level else f'kids{k}'}[i]")


def probe_kernel(
    specs: Tuple[Tuple[str, Tuple[int, ...], int], ...],
    ndim: int,
    collect: bool,
) -> Callable:
    """The compiled probe factory for one oracle shape (see
    :func:`_probe_source`); call it with each index's trie root or
    ``gap_box_around`` to get the probe."""
    key = (specs, ndim, collect)

    def build() -> Callable:
        return _compile(
            _probe_source(specs, ndim, collect),
            {"bisect_left": bisect_left},
        )

    return _PROBE_CACHE.lookup(key, build)
