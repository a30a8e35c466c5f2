"""Dyadic intervals, each one packed marker-bit int.

The paper (Definition 3.2) encodes the domain of every attribute as the set
of binary strings of length ``d``; a *dyadic interval* is a binary string
``x`` with ``|x| <= d`` and represents every length-``d`` string having
``x`` as a prefix.  On the integer domain ``[0, 2**d)`` the interval with
value ``i`` and length ``k`` covers ``[i * 2**(d-k), (i+1) * 2**(d-k))``.

An interval is the single int that folds both fields together::

    packed = (1 << length) | value

i.e. the bitstring with a leading marker ``1`` bit.  λ (the empty string,
the wildcard spanning the whole domain) packs to ``1``, ``'0'`` to
``0b10``, ``'101'`` to ``0b1101``; a *unit* interval has length ``d`` and
represents a single point.  Write one with :func:`pfrom_bits` or
:func:`pmake` and read it with :func:`pto_bits`.  Invariants:

* every packed interval is ``>= 1``; the length is
  ``packed.bit_length() - 1`` and the value is ``packed`` with the top
  bit cleared;
* appending a bit is ``(packed << 1) | bit`` — so the two dyadic halves
  of ``p`` are ``2p`` and ``2p + 1`` and the parent is ``p >> 1``;
* ``a`` is a prefix of ``b`` (``a`` contains ``b``) iff
  ``b >> (len(b) - len(a)) == a`` — one shift and one compare, which is
  the paper's "string operations take time linear in the length of
  strings" claim;
* two intervals are dyadic siblings iff ``a ^ b == 1``;
* for *comparable* intervals the longer one is numerically larger, so
  the meet (intersection) is ``max(a, b)``.

Ints hash and compare by value for free, so boxes — tuples of them — live
directly in the sets and dicts of the Tetris knowledge base.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

#: A packed dyadic interval: ``(1 << length) | value``.
Packed = int

#: λ in packed form: the lone marker bit.
PLAMBDA: Packed = 1


def pmake(value: int, length: int) -> Packed:
    """Build a packed interval, validating ``0 <= value < 2**length``."""
    if length < 0:
        raise ValueError(f"interval length must be non-negative, got {length}")
    if not 0 <= value < (1 << length):
        raise ValueError(f"value {value} does not fit in {length} bits")
    return (1 << length) | value


def pfrom_bits(bits: str) -> Packed:
    """Parse a packed interval from bitstring notation (λ is ``''``)."""
    if bits and set(bits) - {"0", "1"}:
        raise ValueError(f"bitstring may only contain 0/1, got {bits!r}")
    return int("1" + bits, 2)


def pto_bits(p: Packed) -> str:
    """Render a packed interval as its bitstring; λ renders as ``'λ'``."""
    if p == PLAMBDA:
        return "λ"
    return bin(p)[3:]  # strip '0b' and the marker bit


def plength(p: Packed) -> int:
    """The string length of a packed interval."""
    return p.bit_length() - 1


def pvalue(p: Packed) -> int:
    """The value bits of a packed interval (marker bit cleared)."""
    return p ^ (1 << (p.bit_length() - 1))


def pfrom_point(point: int, depth: int) -> Packed:
    """The packed unit interval of a domain value at the given depth."""
    if not 0 <= point < (1 << depth):
        raise ValueError(f"point {point} outside domain of depth {depth}")
    return (1 << depth) | point


def pis_unit(p: Packed, depth: int) -> bool:
    """True when the packed interval is a single depth-``depth`` point."""
    return p >> depth == 1


def pis_prefix(a: Packed, b: Packed) -> bool:
    """True when ``a`` is a prefix of ``b`` (equivalently, contains ``b``).

    λ is a prefix of everything.  As dyadic segments this is the containment
    order of the paper's poset (Definition 3.3): shorter strings are bigger
    boxes.  One shift and one compare.
    """
    shift = b.bit_length() - a.bit_length()
    return shift >= 0 and (b >> shift) == a


#: Containment of packed dyadic segments coincides with the prefix test.
pcontains = pis_prefix


def poverlaps(a: Packed, b: Packed) -> bool:
    """True when two packed segments intersect (one prefixes the other)."""
    shift = b.bit_length() - a.bit_length()
    if shift >= 0:
        return (b >> shift) == a
    return (a >> -shift) == b


def pmeet(a: Packed, b: Packed) -> Packed:
    """Intersection of two comparable packed intervals: the longer one.

    This is the ``y_i ∩ z_i`` operation of the resolution definition in
    Section 4.1.  For comparable packed intervals the longer is
    numerically larger, so the meet is simply ``max``.  Raises when
    disjoint.
    """
    if poverlaps(a, b):
        return a if a >= b else b
    raise ValueError(
        f"intervals {pto_bits(a)} and {pto_bits(b)} are disjoint"
    )


def psplit(p: Packed) -> Tuple[Packed, Packed]:
    """The dyadic halves ``x0`` and ``x1`` of ``p``: ``2p`` and ``2p + 1``."""
    q = p << 1
    return q, q | 1


def pextend(p: Packed, bit: int) -> Packed:
    """Append one bit (string concatenation ``x·b``) in packed form."""
    return (p << 1) | (bit & 1)


def pparent(p: Packed) -> Packed:
    """Drop the last bit (the dyadic parent); λ has no parent."""
    if p <= PLAMBDA:
        raise ValueError("λ has no parent")
    return p >> 1


def plast_bit(p: Packed) -> int:
    """The final bit of a non-λ packed interval."""
    if p <= PLAMBDA:
        raise ValueError("λ has no last bit")
    return p & 1


def pare_siblings(a: Packed, b: Packed) -> bool:
    """True when ``a = x·0`` and ``b = x·1`` (or vice versa): one XOR.

    This is condition (1) of geometric resolution in Section 4.1.
    """
    return (a ^ b) == 1 and a > 1 and b > 1


def pprefixes(p: Packed) -> Iterator[Packed]:
    """All packed prefixes from λ down to ``p`` itself (inclusive)."""
    for shift in range(p.bit_length() - 1, -1, -1):
        yield p >> shift


def pto_range(p: Packed, depth: int) -> Tuple[int, int]:
    """Inclusive integer range ``[lo, hi]`` covered on a depth-d domain."""
    length = p.bit_length() - 1
    if length > depth:
        raise ValueError(f"interval deeper ({length}) than domain ({depth})")
    width = depth - length
    lo = (p ^ (1 << length)) << width
    return lo, lo + (1 << width) - 1


def pwidth(p: Packed, depth: int) -> int:
    """Number of domain points covered on a depth-``depth`` domain."""
    return 1 << (depth - p.bit_length() + 1)


def pcovers_point(p: Packed, point: int, depth: int) -> bool:
    """True when the packed interval contains the given domain point.

    A point outside ``[0, 2**depth)`` is in no interval of the domain.
    """
    shift = depth + 1 - p.bit_length()
    return (
        shift >= 0
        and 0 <= point < (1 << depth)
        and ((1 << depth) | point) >> shift == p
    )


def pdecompose_range(lo: int, hi: int, depth: int) -> List[Packed]:
    """Decompose the inclusive integer range ``[lo, hi]`` into dyadic intervals.

    This is Proposition B.14: every closed interval over a depth-``d`` domain
    is a disjoint union of at most ``2d`` dyadic segments.  Returns the
    canonical (greedy, left-to-right, maximal) decomposition in increasing
    order; an empty range (``lo > hi``) yields ``[]``.
    """
    if lo > hi:
        return []
    if lo < 0 or hi >= (1 << depth):
        raise ValueError(f"range [{lo}, {hi}] outside domain of depth {depth}")
    pieces: List[Packed] = []
    cursor = lo
    remaining = hi - lo + 1
    while remaining > 0:
        # Largest power-of-two block that is aligned at `cursor` and fits.
        align = cursor & -cursor if cursor else 1 << depth
        size = min(align, 1 << remaining.bit_length() - 1)
        length = depth - size.bit_length() + 1
        pieces.append((1 << length) | (cursor >> (depth - length)))
        cursor += size
        remaining -= size
    return pieces
