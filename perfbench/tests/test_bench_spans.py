import json

import pytest

from harness.spans import NullTracer, Span, Tracer


def _tracer(spans):
    t = Tracer()
    t.spans = [Span(i, n, s, e, p, c) for i, (n, s, e, p, c) in enumerate(spans)]
    return t


def test_self_time_subtracts_children():
    t = _tracer([
        ("op", 0.0, 10.0, None, 1),
        ("a", 1.0, 3.0, 0, 1),
        ("b", 4.0, 8.0, 0, 1),
        ("b.inner", 5.0, 6.0, 2, 1),
    ])
    assert t.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    t = _tracer([
        ("op", 0.0, 10.0, None, 1),
        ("a", 1.0, 5.0, 0, 1),
        ("b", 3.0, 7.0, 0, 1),  # overlaps a on [3, 5]
        ("c", 9.0, 12.0, 0, 1),  # runs past the parent's end
    ])
    assert t.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_per_call_divides_self_time_by_calls():
    t = _tracer([
        ("loop", 0.0, 2.0, None, 4),
        ("loop", 5.0, 6.0, None, 6),
        ("other", 6.0, 7.0, None, 1),
    ])
    assert t.per_call("loop") == pytest.approx(3.0 / 10)
    assert t.per_call("missing") == 0.0


def test_span_nesting_records_parents(tmp_path):
    t = Tracer()
    with t.span("op"):
        with t.span("part", calls=3):
            pass
    assert [(s.name, s.parent, s.calls) for s in t.spans] == [("op", None, 1), ("part", 0, 3)]
    assert all(s.end >= s.start for s in t.spans)
    t.dump(tmp_path / "t.json")
    rows = json.loads((tmp_path / "t.json").read_text())
    assert [r["name"] for r in rows] == ["op", "part"] and "self" in rows[0]


def test_null_tracer_records_nothing():
    t = NullTracer()
    with t.span("op"):
        pass
    assert t.spans == []
