"""Benchmark-side spans: nesting, operation ids, self time."""

from spans import Tracer


def test_spans_nest_and_share_an_operation_id():
    tracer = Tracer()
    for _ in range(2):
        with tracer.operation("op") as root:
            with tracer.span("outer") as outer:
                with tracer.span("inner", rows=3) as inner:
                    pass
            with tracer.span("outer"):
                pass
    assert [r.name for r in tracer.roots()] == ["op", "op"]
    assert inner.parent == outer.id and outer.parent == root.id
    assert {s.op for s in tracer.spans if s.id >= root.id} == {2}
    assert inner.attrs == {"rows": 3}
    assert root.start <= outer.start <= inner.start <= inner.end <= outer.end <= root.end
    assert set(tracer.by_name(root)) == {"outer"}
    assert abs(
        tracer.self_time(root) + sum(tracer.by_name(root).values()) - root.duration
    ) < 1e-9
