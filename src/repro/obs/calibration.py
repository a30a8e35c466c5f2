"""The cost-model refit: measured ANALYZE runs → new shipped constants.

* every ``repro explain --analyze`` run appends one JSON line to the
  **calibration log** (:func:`append_run`; ``REPRO_ANALYZE_LOG``, or per
  call): the backend that ran, its kernel seconds (the ``execute`` span
  less its ``sort`` span, which the cost model prices apart), the cost
  model's abstract quantity and predicted cost, and actual vs.
  predicted cardinality;
* ``repro calibrate`` replays the log (:func:`fit`) — its serial runs
  of the backends ``auto`` prices, whose predictions were ``factor ×
  quantity``; it skips the rest and says how many: per-backend
  constants come from the median measured seconds-per-unit (medians
  shrug off the stray cold-cache outlier a mean would chase) and pass
  through :meth:`CostModel.calibrate`, with ``unit_seconds`` — the
  wall-clock value of one abstract cost unit — refit beside them.
  :func:`diff_lines` prints the result as an old → new diff of
  ``DEFAULT_CALIBRATION`` / ``DEFAULT_UNIT_SECONDS`` in
  ``engine/cost.py``.

The refit is written nowhere: a constant changes when someone pastes it
into ``engine/cost.py``, so a query plans the same wherever it runs.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Mapping, Optional, Tuple

from repro import config

#: Size cap of the append-forever calibration log: crossing it rotates
#: ``path`` → ``path.1`` (one generation kept) before the append.
LOG_MAX_BYTES = 10 * 1024 * 1024


# -- the run log ---------------------------------------------------------------


def append_run(record: Mapping, path: Optional[str] = None) -> str:
    """Append one ANALYZE record to the calibration log; returns the path.

    When the file's size plus this write would cross
    :data:`LOG_MAX_BYTES` the existing file first moves to ``path.1``
    (replacing any previous generation), so analyzing in a loop is
    disk-bounded; ``repro calibrate`` fits from the newest cap's worth
    of runs, which is also the freshest signal for the constants.
    """
    path = path or config.ANALYZE_LOG.get()
    text = json.dumps(dict(record), sort_keys=True) + "\n"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    if size and size + len(text.encode()) > LOG_MAX_BYTES:
        try:
            os.replace(path, path + ".1")
        except OSError:
            pass
    with open(path, "a") as fh:
        fh.write(text)
    return path


def load_runs(path: Optional[str] = None) -> List[Dict]:
    """Every well-formed record in the log (missing file → empty)."""
    path = path or config.ANALYZE_LOG.get()
    runs: List[Dict] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    runs.append(record)
    except FileNotFoundError:
        pass
    return runs


def _usable(run: Mapping) -> bool:
    """Whether the planner predicted this run as ``factor × quantity``:
    a measured serial run of a backend ``auto`` prices.  A parallel
    run's plan added shard overhead to that, and a log may predate a
    backend leaving :data:`~repro.engine.cost.CANDIDATES`."""
    from repro.engine.cost import CANDIDATES

    try:
        return (
            float(run["seconds"]) > 0
            and float(run["quantity"]) > 0
            and run["backend"] in CANDIDATES
            and run.get("workers", 1) == 1
        )
    except (KeyError, TypeError, ValueError):
        return False


# -- fitting -------------------------------------------------------------------


def fit(
    runs: List[Dict], base_model=None
) -> Tuple[object, Dict]:
    """Refit a :class:`CostModel` from logged runs.

    Only measured serial runs of a :data:`~repro.engine.cost.CANDIDATES`
    backend are fitted.
    Per-backend seconds-per-unit is the median over that backend's runs;
    the medians go through :meth:`CostModel.calibrate` (which normalizes
    them into the model's relative-factor space), and ``unit_seconds``
    is refit as the median of measured seconds over refit predicted
    cost.  Returns ``(model, info)`` where ``info`` carries the
    per-backend sample counts and the before/after error.
    """
    from repro.engine.cost import CostModel

    model = base_model if base_model is not None else CostModel()
    usable = [r for r in runs if _usable(r)]
    per_backend: Dict[str, List[float]] = {}
    for r in usable:
        per_unit = float(r["seconds"]) / float(r["quantity"])
        per_backend.setdefault(r["backend"], []).append(per_unit)
    measurements = {
        backend: (_median(units), 1.0)
        for backend, units in per_backend.items()
    }
    before = cost_error(usable, model)
    fitted = model.calibrate(measurements)
    ratios = [
        float(r["seconds"])
        / (fitted.calibration[r["backend"]] * float(r["quantity"]))
        for r in usable
    ]
    if ratios:
        fitted.unit_seconds = _median(ratios)
    after = cost_error(usable, fitted)
    info = {
        "runs": len(runs),
        "usable_runs": len(usable),
        "samples_per_backend": {
            b: len(v) for b, v in sorted(per_backend.items())
        },
        "error_before": before,
        "error_after": after,
    }
    return fitted, info


def _median(xs: List[float]) -> float:
    ordered = sorted(xs)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def cost_error(runs: List[Dict], model) -> float:
    """Mean |log₂(actual / predicted seconds)| over the runs :func:`fit`
    fits.

    The number ANALYZE prints and ``repro calibrate`` shrinks: 0 means
    the model predicts wall time exactly; 1 means off by 2× on average.
    """
    errors = []
    for r in runs:
        if not _usable(r):
            continue
        factor = model.calibration[r["backend"]]
        predicted = factor * float(r["quantity"]) * model.unit_seconds
        if predicted <= 0:
            continue
        errors.append(abs(math.log2(float(r["seconds"]) / predicted)))
    if not errors:
        return 0.0
    return sum(errors) / len(errors)


# -- the refit as a diff ------------------------------------------------------


def diff_lines(model) -> List[str]:
    """A fitted model against the shipped constants, as a unified diff.

    One line per backend of ``DEFAULT_CALIBRATION`` plus
    ``DEFAULT_UNIT_SECONDS``, each value rounded to three significant
    digits: unchanged ones as context, changed ones as a ``-`` / ``+``
    pair to paste into ``engine/cost.py``.
    """
    from repro.engine.cost import DEFAULT_CALIBRATION, DEFAULT_UNIT_SECONDS

    pairs = [
        (f'    "{backend}": {{!r}},', old, model.calibration[backend])
        for backend, old in DEFAULT_CALIBRATION.items()
    ]
    pairs.append(
        ("DEFAULT_UNIT_SECONDS = {!r}", DEFAULT_UNIT_SECONDS,
         model.unit_seconds)
    )
    lines = ["--- src/repro/engine/cost.py", "+++ refit"]
    for template, old, new in pairs:
        before, after = (
            template.format(float(f"{value:.3g}")) for value in (old, new)
        )
        if before == after:
            lines.append(" " + before)
        else:
            lines += ["-" + before, "+" + after]
    return lines
