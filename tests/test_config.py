"""``repro.config``: each knob kind parses one way, and fails loudly."""

import pytest

from repro import config


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
    knob = config.FAULTS
    monkeypatch.delenv(knob.name, raising=False)
    assert knob.get() is None
    monkeypatch.setenv(knob.name, "")
    assert knob.get() is None
    monkeypatch.setenv(knob.name, "crash@3,hang@7")
    assert knob.get() == "crash@3,hang@7"


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
