"""Input parsing, label interning and time-order checking."""

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tinprov import Interaction, VertexTable, parse_stream, sort_check

CSV = """\
# comment
source,dest,time,quantity
a,b,1,3
b,c,2.5,1.5

c,a,4,2
"""


def test_parse_basic():
    table, stream, rejected = parse_stream(CSV.splitlines())
    assert rejected == []
    assert table.labels == ["a", "b", "c"]
    assert stream == [
        Interaction(0, 1, 1.0, 3.0),
        Interaction(1, 2, 2.5, 1.5),
        Interaction(2, 0, 4.0, 2.0),
    ]


def test_parse_tsv_sniffed():
    _, stream, rejected = parse_stream(["a\tb\t1\t2", "b\ta\t2\t3"])
    assert rejected == []
    assert [r.quantity for r in stream] == [2.0, 3.0]


def test_parse_rejects_bad_records():
    lines = [
        "a,b,1,3",
        "a,b,2",           # wrong arity
        "a,b,x,3",         # non-numeric time after data started
        "a,b,3,0",         # non-positive quantity
        "a,b,4,-1",        # negative quantity
        "a,b,-1,2",        # negative time
        "a,b,1,nan",       # non-finite quantity
        "a,b,2,inf",
        "a,b,3,-inf",
        "a,b,nan,3",       # non-finite time
        "a,b,inf,3",
        "a,b,5,2",
    ]
    _, stream, rejected = parse_stream(lines)
    assert len(stream) == 2
    assert [r.line_no for r in rejected] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    reasons = " ".join(r.reason for r in rejected)
    assert "expected 4 fields" in reasons
    assert "non-positive quantity" in reasons
    assert "negative time" in reasons
    assert [r.reason for r in rejected[5:]] == [
        "non-finite quantity nan",
        "non-finite quantity inf",
        "non-finite quantity -inf",
        "non-finite time nan",
        "non-finite time inf",
    ]


def test_parse_only_first_line_is_header():
    table, stream, rejected = parse_stream(["src,dst,time,qty", "x,y,t1,q1", "a,b,1,2"])
    assert [(r.line_no, r.reason) for r in rejected] == [(2, "non-numeric time/quantity")]
    assert table.labels == ["a", "b"]
    assert stream == [Interaction(0, 1, 1.0, 2.0)]


def test_parse_self_loop_allowed():
    _, stream, rejected = parse_stream(["a,a,1,2"])
    assert rejected == []
    assert stream[0].source == stream[0].dest == 0


def test_vertex_table_roundtrip():
    t = VertexTable()
    assert t.intern("x") == 0
    assert t.intern("y") == 1
    assert t.intern("x") == 0
    assert t.index_of("y") == 1
    assert t.label_of(0) == "x"
    assert "y" in t and "z" not in t
    assert len(t) == 2


def test_sort_check_ordered_passthrough(example_stream):
    assert sort_check(example_stream) is example_stream


def test_sort_check_stable_sort(caplog):
    a = Interaction(0, 1, 2.0, 1.0)
    b = Interaction(1, 0, 1.0, 1.0)
    c = Interaction(0, 1, 2.0, 2.0)
    with caplog.at_level(logging.WARNING):
        out = sort_check([a, c, b])
    assert out == [b, a, c]  # equal times keep input order
    assert any("out of time order" in m for m in caplog.messages)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.floats(0, 100, allow_nan=False),
            st.floats(0.001, 100, allow_nan=False),
        )
    )
)
def test_sort_check_always_nondecreasing(records):
    stream = [Interaction(*t) for t in records]
    out = sort_check(stream)
    assert sorted(out, key=lambda r: r.time) == out
    assert sorted(r.time for r in stream) == [r.time for r in out]
