"""ResolutionStats field coverage: absorb/merge/reset/as_metrics are
field-driven, so a counter added by a future PR cannot silently vanish
in the parallel shard merge or the metrics block.  These tests enumerate
``dataclasses.fields`` — they hold for today's eleven counters and for
whatever lands next."""

import dataclasses

from repro.core.resolution import ResolutionStats
from tests.helpers import record_resolution

FIELDS = dataclasses.fields(ResolutionStats)


def _filled(base: int) -> ResolutionStats:
    """A stats object with every field set to a distinct nonzero value."""
    stats = ResolutionStats()
    for i, f in enumerate(FIELDS):
        current = getattr(stats, f.name)
        if isinstance(current, dict):
            current[i] = base + i
            current[i + 100] = base + i + 1
        else:
            setattr(stats, f.name, base + i)
    return stats


def test_every_field_is_int_or_dict():
    """The two kinds absorb() understands — anything else must extend it."""
    stats = ResolutionStats()
    for f in FIELDS:
        value = getattr(stats, f.name)
        assert isinstance(value, (int, dict)), (
            f"ResolutionStats.{f.name} is {type(value).__name__}; "
            "absorb()/reset()/as_metrics() only handle int and dict "
            "fields — extend them (and this test) for the new kind"
        )


def test_absorb_covers_every_field():
    a = _filled(1)
    b = _filled(1000)
    a.absorb(b)
    for i, f in enumerate(FIELDS):
        got = getattr(a, f.name)
        if isinstance(got, dict):
            assert got[i] == (1 + i) + (1000 + i), f.name
            assert got[i + 100] == (1 + i + 1) + (1000 + i + 1), f.name
        else:
            assert got == (1 + i) + (1000 + i), f.name


def test_merge_equals_sequential_absorb():
    parts = [_filled(1), _filled(50), _filled(900)]
    merged = ResolutionStats.merge(parts)
    expected = ResolutionStats()
    for part in parts:
        expected.absorb(part)
    assert dataclasses.asdict(merged) == dataclasses.asdict(expected)


def test_merge_disjoint_dict_keys():
    a = ResolutionStats()
    record_resolution(a, axis=0, ordered=True)
    b = ResolutionStats()
    record_resolution(b, axis=3, ordered=False)
    merged = ResolutionStats.merge([a, b])
    assert merged.by_axis == {0: 1, 3: 1}
    assert merged.resolutions == 2
    assert merged.ordered_resolutions == 1


def test_reset_zeroes_every_field():
    stats = _filled(7)
    stats.reset()
    assert dataclasses.asdict(stats) == dataclasses.asdict(
        ResolutionStats()
    )


def test_as_metrics_covers_every_field():
    stats = _filled(3)
    metrics = stats.as_metrics()
    for i, f in enumerate(FIELDS):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            for key, count in value.items():
                matches = [
                    name for name in metrics
                    if name.startswith("tetris.")
                    and name.endswith(f".{key}")
                    and f.name in name
                ]
                assert matches, (f.name, key)
                assert metrics[matches[0]] == count
        else:
            assert metrics[f"tetris.{f.name}"] == value


def test_as_metrics_by_axis_namespace():
    stats = ResolutionStats()
    record_resolution(stats, axis=2, ordered=False)
    record_resolution(stats, axis=2, ordered=True)
    metrics = stats.as_metrics()
    assert metrics["tetris.resolutions.by_axis.2"] == 2
    assert metrics["tetris.resolutions"] == 2


def test_absorb_rejects_nothing_today_guard():
    """absorb() of empty stats is the identity (parallel no-op shards)."""
    a = _filled(4)
    before = dataclasses.asdict(a)
    a.absorb(ResolutionStats())
    assert dataclasses.asdict(a) == before
