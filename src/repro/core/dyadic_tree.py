"""Multilevel dyadic tree — the Tetris knowledge-base store (Appendix C.1).

The structure stores a set of dyadic boxes over ``n`` dimensions and
answers the one query Tetris needs in Õ(1): *given a box* ``b``, *find a
stored box that contains* ``b``.  A stored box ``a`` contains ``b`` iff
each component of ``a`` is a prefix of the corresponding component of
``b``, so the query walks, level by level, the prefixes of each component
of ``b`` that are actually present in the store — at most ``(d+1)^n``
node visits, the paper's polylog factor (Proposition B.12), and usually
far fewer.

Boxes arrive in **packed** marker-bit form (see
:mod:`repro.core.intervals`), which lets each level be a flat hash map
keyed by the whole packed component: one dict probe replaces the
per-bit binary-trie hops of the classical layout (Figure 16 of the
paper), and the prefixes of a query component are enumerated by shifting
the packed int — ``q >> k`` for ``k = 0..|q|``.

Every node additionally keeps a **stored-length bitmask**: bit ``k`` is
set when some key of string length ``k`` is present in the node's map.
The probe loop reads it to trim both tails — it starts at the deepest
stored length (probing prefixes longer than anything stored is a
guaranteed miss) and stops at the shallowest, so a level costs one dict
probe per length in the *stored band* instead of ``|q| + 1``.  The mask
lives inside the node's own dict under the sentinel key ``0`` (packed
components are ``>= 1``, so the key is free): no wrapper object, no
extra indirection on the hot path.  Boxes are only ever added, so a
mask only ever gains bits.

On the last level a node maps each packed component to the stored box
itself; on interior levels it maps to the next level's node dict.

Reads and writes are both generated per dimensionality: the probe walks
(:func:`_emit_walker`) are nested loops with one local per level, and
so are the writers (:func:`_emit_writers`) — an unrolled ``insert``
behind :meth:`MultilevelDyadicTree.add` and the bulk loader behind
:meth:`MultilevelDyadicTree.add_many`, which keeps the previous box's
path nodes in locals.

The store is probes plus writers and holds no traversal state.  The
Tetris resume loop freezes box components left to right and probes from
its *frontier*: per frozen level ``j``, the tree nodes reachable through
prefixes of the first ``j`` components, so a probe walks only the levels
at and past the cursor.  The generated loop keeps that frontier in
locals, with three functions at the end of this module:
:func:`frontier_children` builds a level, :func:`frontier_note_add`
registers a stored box, :func:`frontier_probe` answers a probe (the
kernel inlines it; it is its reference, and the walk of wide boxes).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.boxes import PackedBox

#: Sentinel key under which a node dict keeps its stored-length bitmask.
_MASK = 0

#: Unrolled probe walks are generated per dimensionality up to this cap;
#: wider boxes fall back to the generic stack DFS.  The writers have no
#: cap: their source is linear in the dimensionality.
_UNROLL_CAP = 8

_COMPILED: dict = {}


def _emit_walker(ndim: int) -> str:
    """Source of a specialized containment walker over node dicts.

    The DFS over per-level prefix walks is written out as nested
    ``while`` loops — no stack tuples, no per-node push/pop — with each
    level's walk trimmed to the node's stored band by the length mask
    (interior nodes always hold at least one real key, so only the root
    needs an emptiness check).
    """
    lines = [
        "def find(root, box):",
        "    if root[0] == 0:",
        "        return None",
    ]
    indent = "    "
    closers = []
    for i in range(ndim):
        node = "root" if i == 0 else f"n{i}"
        lines += [
            f"{indent}q{i} = box[{i}]",
            f"{indent}k = {node}[0].bit_length() - 1",
            f"{indent}shift = q{i}.bit_length() - 1",
            f"{indent}if k < shift:",
            f"{indent}    q{i} >>= shift - k",
            f"{indent}get{i} = {node}.get",
            f"{indent}while True:",
        ]
        inner = indent + "    "
        if i == ndim - 1:
            lines.append(f"{inner}hit = get{i}(q{i})")
            lines.append(f"{inner}if hit is not None:")
            lines.append(f"{inner}    return hit")
        else:
            lines.append(f"{inner}n{i + 1} = get{i}(q{i})")
            lines.append(f"{inner}if n{i + 1} is not None:")
        # Tail to append once the nested levels are emitted.
        closers.append(
            f"{inner}if q{i} == 1:\n{inner}    break\n{inner}q{i} >>= 1"
        )
        indent = inner + "    "
    # Close the loops from the innermost outward: each level's tail
    # advances its own walk and breaks at λ.
    lines.extend(reversed(closers))
    lines.append("    return None")
    return "\n".join(lines)


def _compiled(emit, *args) -> dict:
    """The namespace ``emit(*args)``'s source defines, compiled once."""
    key = (emit, *args)
    namespace = _COMPILED.get(key)
    if namespace is None:
        namespace = {}
        exec(  # noqa: S102 - source is generated from static templates
            emit(*args), namespace
        )
        _COMPILED[key] = namespace
    return namespace


def _emit_writers(ndim: int) -> str:
    """Source of the two writers of an ``ndim``-level tree.

    ``insert(root, box)`` stores one box and returns whether it was new.
    ``load(tree, boxes)`` stores a stream: consecutive boxes sharing a
    component prefix (the natural order of index-emitted gap boxes) keep
    the previous box's path nodes, held in locals level by level, and a
    change at one level re-walks every level below it.  Both unpack the
    box into locals (a wrong arity raises before anything is stored),
    create missing nodes with their length-mask bit ORed in, and leave
    dict insertion order as a box-at-a-time descent would.  The loader
    adds to the tree's size once, even when the stream raises.
    """
    last = ndim - 1
    comps = ", ".join(f"q{i}" for i in range(ndim)) + ("," if ndim == 1 else "")

    def unpack(ind: str) -> List[str]:
        return [
            f"{ind}try:",
            f"{ind}    {comps} = box",
            f"{ind}except ValueError:",
            f"{ind}    raise ValueError(",
            f'{ind}        f"box has {{len(box)}} components, store has {ndim}"',
            f"{ind}    ) from None",
        ]

    def child(ind: str, i: int) -> List[str]:
        # Level i's node is root for i == 0, n{i} below it.
        node = "root" if i == 0 else f"n{i}"
        return [
            f"{ind}n{i + 1} = {node}.get(q{i})",
            f"{ind}if n{i + 1} is None:",
            f"{ind}    n{i + 1} = {node}[q{i}] = {{0: 0}}",
            f"{ind}    {node}[0] |= 1 << (q{i}.bit_length() - 1)",
        ]

    leaf = "root" if last == 0 else f"n{last}"
    store = [
        f"{leaf}[q{last}] = box",
        f"{leaf}[0] |= 1 << (q{last}.bit_length() - 1)",
    ]
    lines = ["def insert(root, box):"] + unpack("    ")
    for i in range(last):
        lines += child("    ", i)
    lines += [f"    if q{last} in {leaf}:", "        return False"]
    lines += ["    " + s for s in store] + ["    return True", ""]

    lines += [
        "def load(tree, boxes):",
        "    root = tree._root",
        "    added = 0",
    ]
    if last:
        lines.append("    " + " = ".join(f"p{i}" for i in range(last)) + " = None")
    lines += ["    try:", "        for box in boxes:"]
    lines += unpack("            ")
    for i in range(last):
        lines += [f"            if q{i} != p{i}:", f"                p{i} = q{i}"]
        if i + 1 < last:
            lines.append(f"                p{i + 1} = None")
        lines += child("                ", i)
    lines.append(f"            if q{last} not in {leaf}:")
    lines += ["                " + s for s in store]
    lines += [
        "                added += 1",
        "    finally:",
        "        tree._size += added",
        "    return added",
    ]
    return "\n".join(lines)


class MultilevelDyadicTree:
    """A set of packed dyadic boxes with Õ(1) ``find_container`` queries."""

    __slots__ = ("ndim", "_root", "_size", "_find", "_insert", "_load")

    def __init__(self, ndim: int):
        if ndim < 1:
            raise ValueError("ndim must be at least 1")
        self.ndim = ndim
        self._root: dict = {_MASK: 0}
        self._size = 0
        writers = _compiled(_emit_writers, ndim)
        self._insert, self._load = writers["insert"], writers["load"]
        self._find = (
            _compiled(_emit_walker, ndim)["find"]
            if ndim <= _UNROLL_CAP else None
        )

    def __len__(self) -> int:
        return self._size

    def __contains__(self, box: PackedBox) -> bool:
        node = self._root
        last = self.ndim - 1
        for level in range(last):
            node = node.get(box[level])
            if node is None:
                return False
        return box[last] in node

    def add(self, box: PackedBox) -> bool:
        """Insert a packed box; returns ``False`` when already present.

        The walk is the generated ``insert`` (see :func:`_emit_writers`);
        a box of the wrong arity raises ``ValueError``.
        """
        if not self._insert(self._root, box):
            return False
        self._size += 1
        return True

    def add_many(self, boxes) -> int:
        """Bulk insert; returns how many were new.

        One pass of the generated loader (see :func:`_emit_writers`):
        consecutive boxes sharing a component prefix reuse the walked
        path nodes — the preload fast path.  A box of the wrong arity
        raises ``ValueError``; the boxes before it stay stored.
        """
        return self._load(self, boxes)

    def find_container(self, box: PackedBox) -> Optional[PackedBox]:
        """A stored box containing ``box``, or ``None``.

        DFS over the stored prefixes of each component: at every level
        each packed prefix of the query component (``q >> k``) is one
        dict probe, with the probe walk trimmed to the node's stored
        band by its length mask.  The first hit is returned; Tetris only
        needs *some* witness (Algorithm 1, line 1).

        Dispatches to an unrolled walk compiled per dimensionality (no
        DFS stack traffic); very wide boxes walk with :func:`frontier_probe`
        from the root, the frontier of a box with nothing frozen.
        """
        find = self._find
        if find is not None:
            return find(self._root, box)
        return frontier_probe([self._root], box, 0, None)

    def __iter__(self) -> Iterator[PackedBox]:
        """Iterate over all stored boxes (test/debug helper)."""

        def walk(level: int, node: dict) -> Iterator[PackedBox]:
            if level == self.ndim - 1:
                for comp, stored in node.items():
                    if comp:
                        yield stored
            else:
                for comp, child in node.items():
                    if comp:
                        yield from walk(level + 1, child)

        yield from walk(0, self._root)


# -- the traversal frontier ------------------------------------------------------


def frontier_children(nodes, comp: int) -> list:
    """The tree nodes one level below ``nodes`` along prefixes of ``comp``.

    One frontier level extended by a newly frozen component: parents in
    list order, each one's stored prefixes of ``comp`` deepest first.
    """
    nxt: list = []
    append = nxt.append
    shift = comp.bit_length() - 1
    for node in nodes:
        k = node[_MASK].bit_length() - 1
        if k < 0:
            continue
        q = comp >> (shift - k) if k < shift else comp
        get = node.get
        while True:
            child = get(q)
            if child is not None:
                append(child)
            if q == 1:
                break
            q >>= 1
    return nxt


def frontier_note_add(root: dict, frozen, levels, level_ids, box) -> None:
    """Register a freshly stored ``box`` with a frontier's node lists.

    ``levels[j]`` holds the tree nodes reachable through prefixes of
    ``frozen[:j]`` and ``level_ids[j]`` their identities — or ``None``
    where the owner has not needed the set since it rebuilt the level;
    it is built here on first use.  Only levels ``1..len(frozen)`` are
    touched.
    """
    node = root
    for j, comp_frozen in enumerate(frozen, 1):
        comp = box[j - 1]
        shift = comp_frozen.bit_length() - comp.bit_length()
        if shift < 0 or (comp_frozen >> shift) != comp:
            return
        node = node.get(comp)
        if node is None:
            return
        nodes = levels[j]
        ids = level_ids[j]
        if ids is None:
            ids = level_ids[j] = set(map(id, nodes))
        key = id(node)
        if key not in ids:
            ids.add(key)
            nodes.append(node)


def frontier_probe(
    nodes: list, box: PackedBox, level: int, pinned: Optional[int]
) -> Optional[PackedBox]:
    """``find_container(box)`` from frontier ``level``'s node list.

    ``nodes`` are the tree nodes reachable through ``box[:level]``; the
    walk covers levels ``level..ndim-1``, in the generated kernel's
    order.  With at most two levels left it takes the nodes in list
    order and each prefix deepest first, and moves the node it hits
    under to the front (consecutive probes tend to hit the same stored
    region); above that it takes the nodes from the back and interior
    prefixes shallowest first.  On level ``pinned`` only the exact
    component is looked up: the split axis of a half whose parent
    missed with nothing stored since, where a container of the half
    that does not contain the parent must carry the half's component.
    """
    last = len(box) - 1
    ordered = level >= last - 1
    for idx in range(len(nodes)) if ordered else range(len(nodes) - 1, -1, -1):
        stack = [(level, nodes[idx])]
        while stack:
            j, node = stack.pop()
            q = box[j]
            if j == pinned:
                stop = q
            else:
                k = node[_MASK].bit_length() - 1
                if k < 0:
                    continue
                shift = q.bit_length() - 1
                if k < shift:
                    q >>= shift - k
                stop = 1
            get = node.get
            if j == last:
                while True:
                    hit = get(q)
                    if hit is not None:
                        if ordered and idx:
                            nodes[0], nodes[idx] = nodes[idx], nodes[0]
                        return hit
                    if q == stop:
                        break
                    q >>= 1
                continue
            found = []
            while True:
                child = get(q)
                if child is not None:
                    found.append((j + 1, child))
                if q == stop:
                    break
                q >>= 1
            if ordered:
                found.reverse()
            stack += found
    return None

