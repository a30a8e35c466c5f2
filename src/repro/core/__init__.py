"""Core geometric machinery: dyadic boxes, resolution, and Tetris.

A box is a tuple of packed marker-bit intervals (see
:mod:`repro.core.intervals`); :func:`pbox_from_bits` writes one from
bitstrings.
"""

from repro import _lazy_exports

__getattr__ = _lazy_exports(__name__, {
    "BoxSetOracle": "repro.core.tetris",
    "MultilevelDyadicTree": "repro.core.dyadic_tree",
    "ResolutionStats": "repro.core.resolution",
    "TetrisEngine": "repro.core.tetris",
    "boolean_box_cover": "repro.core.tetris",
    "pbox_from_bits": "repro.core.boxes",
    "solve_bcp": "repro.core.tetris",
    "tetris_preloaded": "repro.core.tetris",
    "tetris_reloaded": "repro.core.tetris",
})

__all__ = [
    "BoxSetOracle",
    "MultilevelDyadicTree",
    "ResolutionStats",
    "TetrisEngine",
    "boolean_box_cover",
    "pbox_from_bits",
    "solve_bcp",
    "tetris_preloaded",
    "tetris_reloaded",
]
