"""Core geometric machinery: dyadic boxes, resolution, and Tetris.

A box is a tuple of packed marker-bit intervals (see
:mod:`repro.core.intervals`); :func:`pbox_from_bits` writes one from
bitstrings.
"""

from repro.core.boxes import pbox_from_bits
from repro.core.dyadic_tree import MultilevelDyadicTree
from repro.core.resolution import ResolutionStats, Resolver
from repro.core.tetris import (
    BoxSetOracle,
    TetrisEngine,
    boolean_box_cover,
    solve_bcp,
    tetris_preloaded,
    tetris_reloaded,
)

__all__ = [
    "BoxSetOracle",
    "MultilevelDyadicTree",
    "ResolutionStats",
    "Resolver",
    "TetrisEngine",
    "boolean_box_cover",
    "pbox_from_bits",
    "solve_bcp",
    "tetris_preloaded",
    "tetris_reloaded",
]
