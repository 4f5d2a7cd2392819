"""Span self-time arithmetic, including the ``(unattributed)`` row."""

import pytest

import spans as sp


def _tree() -> list[sp.Span]:
    # pass [0, 10]
    #   udf [1, 7]  -> llm [2, 4], llm [4, 5]
    #   eval [7, 9]
    return [
        sp.Span("pass", 0.0, 10.0, None),
        sp.Span("udf", 1.0, 7.0, 0, "q1"),
        sp.Span("llm", 2.0, 4.0, 1, "q1"),
        sp.Span("llm", 4.0, 5.0, 1, "q1"),
        sp.Span("eval", 7.0, 9.0, 0, "q1"),
    ]


def test_self_time_is_span_minus_direct_children():
    assert sp.self_times(_tree()) == [2.0, 3.0, 2.0, 1.0, 2.0]
    assert sp.total(_tree(), "llm") == 3.0
    assert sp.self_total(_tree(), "udf") == 3.0
    assert sp.durations(_tree(), "llm") == [2.0, 1.0]


def test_table_ends_with_unattributed_and_sums_to_root_wall():
    table = sp.summarize(_tree())
    assert [row["name"] for row in table] == ["llm", "udf", "eval", sp.UNATTRIBUTED]
    assert table[-1]["self_s"] == 2.0
    assert table[-1]["total_s"] == 10.0
    assert sum(row["self_s"] for row in table) == pytest.approx(10.0)
    llm = next(row for row in table if row["name"] == "llm")
    assert (llm["count"], llm["total_s"], llm["self_s"]) == (2, 3.0, 3.0)


def test_recorder_tracks_parent_and_op():
    recorder = sp.SpanRecorder()
    with recorder.span("pass"):
        with recorder.span("udf", "q7"):
            recorder.add("llm", 1.0, 2.0)
            with recorder.span("inner"):
                pass
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError
    names = [(s.name, s.parent, s.op) for s in recorder.spans]
    assert names == [
        ("pass", None, ""), ("udf", 0, "q7"), ("llm", 1, "q7"),
        ("inner", 1, "q7"), ("boom", 0, ""),
    ]
    assert all(s.end >= s.start for s in recorder.spans)
    assert [r["parent"] for r in recorder.as_records()] == [None, 0, 1, 1, 0]
