"""One path per algorithm: the selectors that chose between twins are gone.

Leapfrog and hash run their generated kernel and nothing else; Tetris
resume mode runs the kernel or the interpreted loop according to the
engine's shape alone.  This fence keeps a ``compiled=`` / ``one_pass=``
keyword, a third traversal mode or a frozen ``benchmarks/_*.py`` copy
from coming back — and the serving-era telemetry surfaces with their
``REPRO_*`` knobs.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro
import repro.core.tetris
import repro.joins
import repro.obs

REMOVED_SELECTORS = {"compiled", "one_pass"}

ROOT = Path(__file__).resolve().parent.parent

#: Every environment variable the program reads; a twelfth needs two
#: callers that want different values (and a README row).
KNOBS = {
    "REPRO_METRICS", "REPRO_TRACE", "REPRO_ANALYZE_LOG",
    "REPRO_CALIBRATION", "REPRO_NO_SHM", "REPRO_SHM_MIN_BYTES",
    "REPRO_SHM_CAPACITY_BYTES", "REPRO_QUERY_TIMEOUT_MS",
    "REPRO_SHARD_TIMEOUT_MS", "REPRO_DRAIN_TIMEOUT_MS", "REPRO_FAULTS",
}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj):
            continue
        yield f"{module.__name__}.{name}", obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_path_selector_on_the_public_api():
    modules = [repro, repro.joins, repro.core.tetris] + [
        importlib.import_module(f"repro.joins.{info.name}")
        for info in pkgutil.iter_modules(repro.joins.__path__)
    ]
    checked = 0
    for module in modules:
        for where, fn in _public_callables(module):
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # no introspectable signature
                continue
            checked += 1
            assert not REMOVED_SELECTORS & set(params), where
    assert checked > 50
    assert repro.core.tetris.MODES == ("resume", "faithful")


def test_no_frozen_baseline_modules_in_benchmarks():
    benchmarks = ROOT / "benchmarks"
    assert benchmarks.is_dir()
    assert sorted(p.name for p in benchmarks.glob("_*.py")) == []


def test_knobs_are_the_documented_eleven():
    in_src = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_src |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    readme = (ROOT / "README.md").read_text()
    table = readme.split("### Environment variables", 1)[1]
    table = table.split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", table, re.M))
    assert in_src == documented == KNOBS
    submodules = {m.name for m in pkgutil.iter_modules(repro.obs.__path__)}
    assert not {"flight", "slowlog"} & submodules
