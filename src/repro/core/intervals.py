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

Code applies these identities inline (the resolution step, the
certificates, the generated kernels), so this module keeps only
construction, rendering and the conversions to and from integer ranges.

Ints hash and compare by value for free, so boxes — tuples of them — live
directly in the sets and dicts of the Tetris knowledge base.
"""

from __future__ import annotations

from typing import List, Tuple

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


def pvalue(p: Packed) -> int:
    """The value bits of a packed interval (marker bit cleared)."""
    return p ^ (1 << (p.bit_length() - 1))


def pto_range(p: Packed, depth: int) -> Tuple[int, int]:
    """Inclusive integer range ``[lo, hi]`` covered on a depth-d domain."""
    length = p.bit_length() - 1
    if length > depth:
        raise ValueError(f"interval deeper ({length}) than domain ({depth})")
    width = depth - length
    lo = (p ^ (1 << length)) << width
    return lo, lo + (1 << width) - 1


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
