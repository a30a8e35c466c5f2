"""Beyond-worst-case crossover — who wins as |C|/N shrinks (§1, fn 1).

Paper narrative: worst-case-optimal joins must examine Θ(N) data, while
certificate-based Tetris-Reloaded touches Õ(|C| + Z) gap boxes.  When
the certificate is comparable to N the WCOJ baseline's lower constants
win (CPython amplifies this); as |C|/N → 0 Tetris-Reloaded's work stays
flat while the baseline's need not.

Measured: warm runtimes of Tetris-Reloaded and Leapfrog on a family
whose certificate is fixed while N sweeps two orders of magnitude.  Both
sides are warm — each gets one untimed run first (Reloaded builds its
indexes, Leapfrog compiles its kernel) and the best of 3 timed runs is
reported — so neither pays a one-off cost the other is spared.  Each
row prints the winner; the asserted shape claim is the paper's, on
resolution counts: Reloaded's stay flat across the sweep.
"""

import time

from benchmarks.conftest import print_sweep
from repro.core.tetris import TetrisEngine
from repro.joins.leapfrog import join_leapfrog
from repro.joins.tetris_join import make_oracle
from repro.workloads.generators import split_path_instance

DEPTH = 12
SIZES = (50, 200, 800, 3200)
REPEATS = 3


def _best_of(fn):
    """Best of :data:`REPEATS` timed calls after one untimed warm call."""
    fn()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reloaded(query, db, gao):
    """A fresh-engine Reloaded run over the instance's (cached) indexes."""
    oracle, gao = make_oracle(query, db, gao=gao)
    attrs = oracle.attrs
    sao = tuple(attrs.index(a) for a in gao)

    def run():
        engine = TetrisEngine(len(attrs), DEPTH, sao=sao)
        assert engine.run(oracle, preload=False) == []
        return engine.stats.resolutions

    return run


def test_crossover_fixed_certificate(benchmark):
    rows = []
    resolutions = []
    for m in SIZES:
        query, db, gao = split_path_instance(m, depth=DEPTH, seed=1)
        run = _reloaded(query, db, gao)
        t_tetris = _best_of(run)
        resolutions.append(run())
        t_lf = _best_of(lambda: join_leapfrog(query, db, gao=gao))
        assert join_leapfrog(query, db, gao=gao) == []
        rows.append(
            (db.total_tuples, resolutions[-1], round(t_tetris * 1e3, 3),
             round(t_lf * 1e3, 3),
             "tetris" if t_tetris < t_lf else "leapfrog")
        )
    print_sweep(
        "Crossover: fixed |C|, growing N (warm, best of 3, times in ms)",
        ("N", "resolutions", "tetris-reloaded", "leapfrog", "winner"),
        rows,
    )
    # The shape claim: Õ(|C| + Z) with |C| and Z fixed — Reloaded's
    # resolutions do not grow with N.  (Who wins the wall clock at these
    # sizes is printed above, not asserted: both are flat and warm.)
    assert len(set(resolutions)) == 1, resolutions
    query, db, gao = split_path_instance(SIZES[-1], depth=DEPTH, seed=1)
    assert benchmark(_reloaded(query, db, gao)) == resolutions[-1]


def test_dense_regime_baseline_competitive(benchmark):
    """When |C| ≈ N (random dense data) the WCOJ baseline is competitive:
    the paper's beyond-worst-case story is about *sparse certificates*."""
    from repro.workloads.generators import random_path_db

    query, db = random_path_db(2, 300, seed=4, depth=8)
    t0 = time.perf_counter()
    lf = join_leapfrog(query, db)
    t_lf = time.perf_counter() - t0
    print(f"\ndense regime: leapfrog {t_lf * 1e3:.1f} ms on N = "
          f"{db.total_tuples}")
    benchmark(lambda: join_leapfrog(query, db))
