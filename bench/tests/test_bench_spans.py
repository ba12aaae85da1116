"""Trace plumbing: nesting, self time, NDJSON, off means off."""

import types

import pytest

import spans
from spans import Span, Tracer


def traced() -> Tracer:
    tracer = Tracer()
    tracer.enabled = True
    return tracer


def test_spans_nest_by_parent_and_inherit_the_check_id():
    tracer = traced()
    with tracer.span("check", check="c1") as outer:
        with tracer.span("layer.a") as inner:
            with tracer.span("layer.b") as innermost:
                pass
        with tracer.span("layer.a") as sibling:
            pass
    assert outer.parent is None
    assert inner.parent == outer.id and sibling.parent == outer.id
    assert innermost.parent == inner.id
    assert {span.check for span in tracer.spans} == {"c1"}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_span_is_closed_when_the_call_raises():
    tracer = traced()
    with pytest.raises(KeyError):
        with tracer.span("boom"):
            raise KeyError("x")
    (span,) = tracer.spans
    assert span.end >= span.start > 0.0
    with tracer.span("after") as after:
        pass
    assert after.parent is None   # the stack was unwound


def test_self_time_is_duration_minus_child_coverage():
    rows = [
        Span(0, "check", 0.0, 10.0, None, "c"),
        Span(1, "a", 1.0, 4.0, 0, "c"),
        Span(2, "b", 3.0, 6.0, 0, "c"),      # overlaps a: union is 1..6
        Span(3, "c", 8.0, 12.0, 0, "c"),     # clipped to the parent: 8..10
        Span(4, "leaf", 1.5, 2.0, 1, "c"),
    ]
    own = spans.self_times(rows)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    by_layer = spans.layer_self_times(rows + [Span(5, "a", 20.0, 21.0, None,
                                                   None)])
    assert by_layer["a"] == pytest.approx(2.5 + 1.0)


def test_ndjson_round_trips(tmp_path):
    tracer = traced()
    with tracer.span("check", check="c9"):
        with tracer.span("layer"):
            pass
    with tracer.span("probe"):
        pass
    path = tmp_path / "trace.ndjson"
    spans.write_ndjson(tracer.spans, str(path))
    assert len(path.read_text().splitlines()) == 3
    assert spans.read_ndjson(str(path)) == tracer.spans


def test_tracing_off_records_nothing():
    tracer = Tracer()
    owner = types.SimpleNamespace(double=lambda x: 2 * x)
    assert tracer.wrap(owner, "double", "layer.double")
    with tracer.span("check", check="c") as span:
        assert owner.double(4) == 8
    assert span is None and tracer.spans == []
    tracer.enabled = True
    assert owner.double(5) == 10
    assert [s.name for s in tracer.spans] == ["layer.double"]


def test_wrap_hands_results_on_and_tolerates_a_missing_seam(capsys):
    tracer = Tracer()
    seen = []
    owner = types.SimpleNamespace(make=lambda: "graph")
    tracer.wrap(owner, "make", "layer.make", on_result=seen.append)
    owner.make()
    assert seen == ["graph"]          # tap works with tracing off
    assert tracer.wrap(owner, "renamed_away", "layer.gone") is False
    assert "layer.gone will read 0" in capsys.readouterr().err


def test_overhead_share_is_taken_against_the_untraced_median():
    assert spans.overhead_share(10.3, [10.0, 50.0, 9.0]) == \
        pytest.approx(0.03)
    assert spans.overhead_share(9.0, [10.0, 10.0]) == pytest.approx(-0.1)
