"""Dyadic boxes: tuples of packed intervals.

A *dyadic box* (Definition 3.3) is an n-tuple of dyadic intervals, one per
attribute of the output space — here a plain tuple of packed marker-bit
ints (see :mod:`repro.core.intervals`).  A box whose components are all
unit intervals is a point (a potential output tuple).  Boxes form a poset
under component-wise prefix containment.
"""

from __future__ import annotations

from typing import Tuple

from repro.core import intervals as dy
from repro.core.intervals import Packed

#: A box: one packed marker-bit int per attribute.
PackedBox = Tuple[Packed, ...]


def pbox_from_bits(*components: str) -> PackedBox:
    """Packed box from bitstring components (``''``/``'λ'``/``'*'`` = λ)."""
    return tuple(
        dy.PLAMBDA if comp in ("", "λ", "*") else dy.pfrom_bits(comp)
        for comp in components
    )


def check_packed(box) -> PackedBox:
    """``box`` as a tuple, once every component is checked to be an int.

    The one boundary test of the BCP entry points: a box in any other
    form (a ``(value, length)`` pair per component, say) fails here
    with a ``TypeError`` rather than deep inside the engine.
    """
    box = tuple(box)
    for c in box:
        if type(c) is not int:
            raise TypeError(
                f"box component {c!r} is not a packed interval: a dyadic "
                f"interval is the int (1 << length) | value "
                f"(see repro.core.intervals.pfrom_bits / pmake)"
            )
    return box


def box_contains(outer: PackedBox, inner: PackedBox) -> bool:
    """Packed containment test used on the Tetris hot path.

    ``outer`` contains ``inner`` iff every outer component is a prefix
    of the matching inner component — one shift + compare per axis.
    """
    for a, b in zip(outer, inner):
        shift = b.bit_length() - a.bit_length()
        if shift < 0 or (b >> shift) != a:
            return False
    return True
