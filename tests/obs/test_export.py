"""OpenMetrics exposition: the golden text format."""

from repro.obs.export import render_openmetrics
from repro.obs.metrics import MetricsRegistry, QuantileHistogram


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry(enabled=True)
    reg.inc("engine.queries", 3)
    reg.gauge("pool.size", 2)
    for v in (0.0, 1.0, 2.0):
        reg.observe("query.latency", v)
    return reg


def test_openmetrics_golden_document():
    """The full exposition text, byte for byte.  Bucket boundaries are
    fixed powers of the module base, so the document is deterministic;
    a diff here means the scrape format changed.  Declared families
    carry their catalogue help and unit (a unit-bearing name ends in
    it); the undeclared ``pool.size`` has a type and no help."""
    text = render_openmetrics(_sample_registry().snapshot())
    lat = "repro_query_latency_seconds"
    assert text == (
        "# HELP repro_engine_queries Queries executed.\n"
        "# TYPE repro_engine_queries counter\n"
        "repro_engine_queries_total 3\n"
        "# TYPE repro_pool_size gauge\n"
        "repro_pool_size 2\n"
        f"# HELP {lat} Wall time of one execute() call.\n"
        f"# TYPE {lat} histogram\n"
        f"# UNIT {lat} seconds\n"
        f'{lat}_bucket{{le="0"}} 1\n'
        f'{lat}_bucket{{le="1.2"}} 2\n'
        f'{lat}_bucket{{le="2.0736"}} 3\n'
        f'{lat}_bucket{{le="+Inf"}} 3\n'
        f"{lat}_count 3\n"
        f"{lat}_sum 3\n"
        f"# HELP {lat}_min Smallest sample of {lat}.\n"
        f"# TYPE {lat}_min gauge\n"
        f"{lat}_min 0\n"
        f"# HELP {lat}_max Largest sample of {lat}.\n"
        f"# TYPE {lat}_max gauge\n"
        f"{lat}_max 2\n"
        "# EOF\n"
    )


def test_bucket_boundaries_are_exact_powers():
    # The boundary printed for bucket i is B^(i+1) — what makes PromQL
    # histogram_quantile agree with the in-process estimates.
    h = QuantileHistogram()
    h.record(1.0)
    ((index, _),) = h.bucket_items()
    assert QuantileHistogram.bucket_upper(index) == 1.2 ** (index + 1)


def test_names_are_sanitized_and_prefixed():
    reg = MetricsRegistry(enabled=True)
    reg.inc("tetris.resolutions.by_axis.0", 4)
    reg.inc("weird-name with spaces", 1)
    text = render_openmetrics(reg.snapshot())
    assert "repro_tetris_resolutions_by_axis_0_total 4" in text
    assert "repro_weird_name_with_spaces_total 1" in text
    assert text.endswith("# EOF\n")


def test_histogram_flat_scalars_are_not_doubled():
    """query.latency.count/sum/min/max belong to the histogram series —
    they must not also appear as standalone counters."""
    text = render_openmetrics(_sample_registry().snapshot())
    assert "# TYPE repro_query_latency_count" not in text
    assert "repro_query_latency_count_total" not in text
    assert text.count("repro_query_latency_seconds_count 3") == 1
