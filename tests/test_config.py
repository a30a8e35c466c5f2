"""``repro.config``: each knob kind parses one way, and fails loudly."""

import pytest

from repro import config


def test_flag_keeps_its_spellings(monkeypatch):
    knob = config.METRICS
    monkeypatch.delenv(knob.name, raising=False)
    assert knob.get() is knob.default
    for word in ("1", "true", "ON", "yes"):
        monkeypatch.setenv(knob.name, word)
        assert knob.get() is True
    for word in ("0", "false", "Off", "no"):
        monkeypatch.setenv(knob.name, word)
        assert knob.get() is False
    # Anything else (or empty) keeps the default, as it always did.
    for word in ("", "maybe"):
        monkeypatch.setenv(knob.name, word)
        assert knob.get() is knob.default


def test_malformed_integer_names_the_variable(monkeypatch):
    knob = config.SHARD_TIMEOUT_MS
    monkeypatch.delenv(knob.name, raising=False)
    assert knob.get() == 0
    monkeypatch.setenv(knob.name, " 250 ")
    assert knob.get() == 250
    monkeypatch.setenv(knob.name, "")
    assert knob.get() == 0
    monkeypatch.setenv(knob.name, "400ms")
    with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT_MS='400ms'"):
        knob.get()


def test_text_is_the_raw_value_or_the_default(monkeypatch):
    for knob in (config.ANALYZE_LOG, config.FAULTS):
        monkeypatch.delenv(knob.name, raising=False)
        assert knob.get() == knob.default
        monkeypatch.setenv(knob.name, "")
        assert knob.get() == knob.default
        monkeypatch.setenv(knob.name, "crash@3,x/y.jsonl")
        assert knob.get() == "crash@3,x/y.jsonl"
    assert config.FAULTS.default is None
    assert config.ANALYZE_LOG.default.endswith("analyze_log.jsonl")


def test_a_malformed_stall_budget_fails_the_parallel_query(monkeypatch):
    from repro.engine import execute
    from repro.parallel import shutdown_pools
    from repro.workloads.generators import graph_triangle_db, random_graph_edges

    query, db = graph_triangle_db(random_graph_edges(20, 40, seed=3))
    monkeypatch.setenv(config.SHARD_TIMEOUT_MS.name, "soon")
    try:
        with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT_MS"):
            execute(query, db, algorithm="hash", workers=2)
    finally:
        monkeypatch.delenv(config.SHARD_TIMEOUT_MS.name)
        shutdown_pools()
