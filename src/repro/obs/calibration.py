"""The cost-model feedback loop: measured runs → refit calibration.

:class:`~repro.engine.cost.CostModel` has had a ``calibrate`` hook since
PR 2 — ``{backend: (seconds, quantity)}`` measurements refit the
constant factors — but nothing produced measurements automatically.
This module closes the loop:

* every ``repro explain --analyze`` run appends one JSON line to the
  **calibration log** (:func:`append_run`): the backend that ran, its
  measured wall seconds, the cost model's abstract quantity and
  predicted cost, and actual vs. predicted cardinality;
* ``repro calibrate`` replays the log (:func:`fit`): per-backend
  constants come from the median measured seconds-per-unit (medians
  shrug off the stray cold-cache outlier a mean would chase), pass
  through :meth:`CostModel.calibrate`, and land in the **saved
  calibration file** together with ``unit_seconds`` — the wall-clock
  value of one abstract cost unit, which turns predicted costs into
  predicted seconds;
* :func:`load_saved` feeds the saved file back into every
  ``CostModel()`` the planner builds (memoized on file mtime), so the
  next query is planned — and its ANALYZE error measured — under the
  refit constants.

Paths default to a ``.repro/`` directory under the working directory and
are overridable with ``REPRO_ANALYZE_LOG`` / ``REPRO_CALIBRATION`` (or
per call), which is also how the tests isolate themselves.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Mapping, Optional, Tuple

ANALYZE_LOG_ENV = "REPRO_ANALYZE_LOG"
CALIBRATION_ENV = "REPRO_CALIBRATION"

_DEFAULT_DIR = ".repro"
_DEFAULT_LOG = "analyze_log.jsonl"
_DEFAULT_CALIBRATION = "calibration.json"

#: Size cap of the append-forever calibration log: crossing it rotates
#: ``path`` → ``path.1`` (one generation kept) before the append.
LOG_MAX_BYTES = 10 * 1024 * 1024

#: Wall seconds of one abstract cost unit before any fit: one hash-table
#: probe, ~0.8µs on the bench hosts (see the CostModel constants).
DEFAULT_UNIT_SECONDS = 8e-7


def default_log_path() -> str:
    return os.environ.get(
        ANALYZE_LOG_ENV, os.path.join(_DEFAULT_DIR, _DEFAULT_LOG)
    )


def default_calibration_path() -> str:
    return os.environ.get(
        CALIBRATION_ENV, os.path.join(_DEFAULT_DIR, _DEFAULT_CALIBRATION)
    )


# -- the run log ---------------------------------------------------------------


def append_run(record: Mapping, path: Optional[str] = None) -> str:
    """Append one ANALYZE record to the calibration log; returns the path.

    When the file's size plus this write would cross
    :data:`LOG_MAX_BYTES` the existing file first moves to ``path.1``
    (replacing any previous generation), so analyzing in a loop is
    disk-bounded; ``repro calibrate`` fits from the newest cap's worth
    of runs, which is also the freshest signal for the constants.
    """
    path = path or default_log_path()
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
    path = path or default_log_path()
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
    try:
        return (
            float(run["seconds"]) > 0
            and float(run["quantity"]) > 0
            and bool(run["backend"])
        )
    except (KeyError, TypeError, ValueError):
        return False


# -- fitting -------------------------------------------------------------------


def fit(
    runs: List[Dict], base_model=None
) -> Tuple[object, Dict]:
    """Refit a :class:`CostModel` from logged runs.

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
        per_backend.setdefault(str(r["backend"]), []).append(per_unit)
    measurements = {
        backend: (_median(units), 1.0)
        for backend, units in per_backend.items()
    }
    before = cost_error(usable, model)
    fitted = model.calibrate(measurements)
    ratios = [
        float(r["seconds"])
        / (fitted.calibration.get(str(r["backend"]), 1.0)
           * float(r["quantity"]))
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
    """Mean |log₂(actual / predicted seconds)| over usable runs.

    The number ANALYZE prints and ``repro calibrate`` shrinks: 0 means
    the model predicts wall time exactly; 1 means off by 2× on average.
    """
    errors = []
    for r in runs:
        if not _usable(r):
            continue
        factor = model.calibration.get(str(r["backend"]), 1.0)
        predicted = factor * float(r["quantity"]) * model.unit_seconds
        if predicted <= 0:
            continue
        errors.append(abs(math.log2(float(r["seconds"]) / predicted)))
    if not errors:
        return 0.0
    return sum(errors) / len(errors)


# -- the saved calibration file ------------------------------------------------

_LOAD_CACHE: Dict[str, Tuple[int, Optional[Dict]]] = {}


def save_calibration(model, path: Optional[str] = None, info=None) -> str:
    """Persist a fitted model's constants; returns the path written."""
    path = path or default_calibration_path()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    payload = {
        "calibration": dict(model.calibration),
        "unit_seconds": model.unit_seconds,
    }
    if info:
        payload["fit_info"] = info
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _LOAD_CACHE.pop(path, None)
    return path


def load_saved(path: Optional[str] = None) -> Optional[Dict]:
    """The saved calibration payload, or ``None`` when absent/invalid.

    Memoized on the file's mtime: the planner builds a ``CostModel`` per
    uncached plan, and a stat call is all the steady state should pay.
    """
    path = path or default_calibration_path()
    try:
        mtime = os.stat(path).st_mtime_ns
    except OSError:
        return None
    cached = _LOAD_CACHE.get(path)
    if cached is not None and cached[0] == mtime:
        return cached[1]
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload.get("calibration"), dict):
            payload = None
    except (OSError, json.JSONDecodeError, ValueError):
        payload = None
    _LOAD_CACHE[path] = (mtime, payload)
    return payload


def clear_saved_cache() -> None:
    """Forget memoized calibration loads (tests flipping env paths)."""
    _LOAD_CACHE.clear()
