"""The environment knobs the program honours, declared and read here only.

Each ``REPRO_*`` variable is one :class:`Knob` — name, default, parser
and the one-line doc the README's environment table carries — and
:meth:`Knob.get` is the only code under ``src/`` that reads the process
environment.  The fault spec and the shard stall budget are read at
each use, so a ``monkeypatch.setenv`` takes effect on the next call.

An unset or empty variable means the default.  An integer that does
not parse raises one ``ValueError`` naming the variable instead of
quietly running with the default.

Like :mod:`repro.errors`, a leaf: standard library only, imports nothing
from ``repro``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class Knob:
    """One environment variable: what it is called, means and defaults to."""

    name: str
    default: object
    parse: Callable[["Knob", str], object]
    doc: str

    def get(self):
        """The variable's current value, parsed (the default when unset)."""
        raw = os.environ.get(self.name, "")
        return self.parse(self, raw) if raw else self.default


def _int(knob: Knob, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{knob.name}={raw!r}: expected an integer"
        ) from None


def _text(knob: Knob, raw: str) -> str:
    return raw


SHARD_TIMEOUT_MS = Knob(
    "REPRO_SHARD_TIMEOUT_MS", 0, _int,
    "Per-shard stall budget: a silent worker is killed; its shard runs "
    "in the parent.",
)
FAULTS = Knob(
    "REPRO_FAULTS", None, _text,
    "Deterministic fault injection spec (tests/benchmarks only).",
)

#: Every knob, by variable name.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (SHARD_TIMEOUT_MS, FAULTS)
}
