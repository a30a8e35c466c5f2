"""The environment knobs the program honours, declared and read here only.

Each ``REPRO_*`` variable is one :class:`Knob` — name, default, parser
and the one-line doc the README's environment table carries — and
:meth:`Knob.get` is the only code under ``src/`` that reads the process
environment.  Callers choose *when* to read: the metrics registry
latches its knob at import, while the fault spec, the shard stall
budget and the ANALYZE log path are read at each use,
so a ``monkeypatch.setenv`` takes effect on the next call.

An unset or empty variable means the default.  A flag accepts
``1/true/on/yes`` and ``0/false/off/no`` (any other value keeps the
default); an integer that does not parse raises one ``ValueError``
naming the variable instead of quietly running with the default.

Like :mod:`repro.errors`, a leaf: standard library only, imports nothing
from ``repro``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict

_ON = ("1", "true", "on", "yes")
_OFF = ("0", "false", "off", "no")


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


def _flag(knob: Knob, raw: str) -> bool:
    word = raw.lower()
    if word in _ON:
        return True
    if word in _OFF:
        return False
    return knob.default


def _int(knob: Knob, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{knob.name}={raw!r}: expected an integer"
        ) from None


def _text(knob: Knob, raw: str) -> str:
    return raw


METRICS = Knob(
    "REPRO_METRICS", True, _flag,
    "`0` disables the process-wide metrics registry.",
)
ANALYZE_LOG = Knob(
    "REPRO_ANALYZE_LOG", os.path.join(".repro", "analyze_log.jsonl"), _text,
    "Where `explain --analyze` appends the records `repro calibrate` fits.",
)
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
    for knob in (METRICS, ANALYZE_LOG, SHARD_TIMEOUT_MS, FAULTS)
}
