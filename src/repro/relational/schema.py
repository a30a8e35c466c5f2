"""Relational schemas: attributes, domains, relation symbols (Section 3.1).

The paper assumes every attribute ranges over a finite, discrete, ordered
domain; for the geometric encoding all domains are ``{0, 1}^d`` (integers
``0 .. 2^d - 1``).  ``Domain`` records the bit-depth; ``RelationSchema``
names a relation symbol and its attribute tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


#: The deepest domain: relation columns and the shared-memory wire hold
#: values as int64 (``array('q')``), whose largest value is ``2**63 - 1``.
MAX_DEPTH = 63


@dataclass(frozen=True)
class Domain:
    """An attribute domain: the integers ``0 .. 2**depth - 1``."""

    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("domain depth must be non-negative")
        if self.depth > MAX_DEPTH:
            raise ValueError(
                f"domain depth {self.depth} exceeds {MAX_DEPTH}: values are "
                f"stored as int64, so the largest is 2**63 - 1"
            )

    @property
    def size(self) -> int:
        return 1 << self.depth

    def __contains__(self, value: int) -> bool:
        return 0 <= value < self.size

    @classmethod
    def for_values(cls, max_value: int) -> "Domain":
        """The smallest power-of-two domain containing ``0 .. max_value``."""
        if max_value < 0:
            raise ValueError("max_value must be non-negative")
        return cls(max(1, max_value).bit_length() if max_value else 0)


@dataclass(frozen=True)
class RelationSchema:
    """A relation symbol with its ordered attribute tuple, e.g. ``R(A, B)``."""

    name: str
    attrs: Tuple[str, ...]

    def __init__(self, name: str, attrs: Sequence[str]):
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"duplicate attributes in {name}{tuple(attrs)}")
        if not attrs:
            raise ValueError("relations must have at least one attribute")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attrs", tuple(attrs))

    @property
    def arity(self) -> int:
        return len(self.attrs)

    def position(self, attr: str) -> int:
        """Index of an attribute within the schema."""
        try:
            return self.attrs.index(attr)
        except ValueError:
            raise KeyError(f"{attr} not in {self}") from None

    def permutation(self, attr_order: Sequence[str]) -> Tuple[int, ...]:
        """Schema positions realizing ``attr_order``, validated.

        The shared check behind every order-keyed consumer (sorted views,
        B-tree builds): ``attr_order`` must be a permutation of the
        schema's attributes.
        """
        if sorted(attr_order) != sorted(self.attrs):
            raise ValueError(
                f"{tuple(attr_order)} is not a permutation of {self.attrs}"
            )
        return tuple(self.attrs.index(a) for a in attr_order)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(self.attrs)})"
