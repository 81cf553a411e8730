"""Input parsing, label interning and time-order checking."""

import io
import logging
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tinprov import Interaction, VertexTable, core, parse_stream, sort_check

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


def per_line(lines):
    """The per-line parser alone over ``lines``: (labels, stream, rejected)."""
    table, stream, rejected = VertexTable(), [], []
    core._parse_lines(lines, 0, None, table, stream, rejected)
    return table.labels, stream, rejected


def parsed(lines):
    table, stream, rejected = parse_stream(lines)
    return table.labels, stream, rejected


PLAIN_ROWS = st.builds(
    "{},{},{},{}".format,
    st.sampled_from(["a", "b", "v1", "10", ""]),
    st.sampled_from(["a", "b", "c", "2.5"]),
    st.sampled_from(["0", "1", "2.5", "1e3", "-0.0", "1_0"]),
    st.sampled_from(["1", "3", "0.5", "1e-300", "1e308"]),  # 1e308 + 1e308 overflows
)
ODD_LINES = st.sampled_from([
    "source,dest,time,quantity",  # a header, or a non-numeric row later on
    "# comment",
    "#a,b,1,2",
    "",
    "   ",
    "a\tb\t1\t2",  # TSV, sniffed only from the first record line
    " a , b ,1, 2",
    "a,b ,1,2",
    "\xa0a,b,1,2",  # whitespace that str.strip removes, around labels
    "a\x0b,b,1,2",
    "a,\x1cb,1,2",
    "a,b\u2028,1,2",
    "a,b,1,2\x0c",
    "a,b,1,2\r",
    "a,b,1,2\nb,a,2,3",  # two lines in one list item
    "a,b,1",
    "a,b,1,2,3",
    ",,,",
    "a,b,x,2",
    "a,b,1,nan",
    "a,b,inf,1",
    "a,b,1,1e400",
    "a,b,1,0",
    "a,b,1,-2",
    "a,b,-1,2",
])


@given(
    st.lists(st.one_of(PLAIN_ROWS, PLAIN_ROWS, ODD_LINES), max_size=30),
    st.integers(1, 5),
    st.booleans(),
)
def test_bulk_parse_equals_per_line(lines, chunk_lines, final_newline):
    """Bulk-capable parse_stream and the per-line parser agree on any input:
    labels, stream, and rejected records with their line numbers and reasons."""
    text = "\n".join(lines) + ("\n" if final_newline else "")
    with mock.patch.object(core, "CHUNK_LINES", chunk_lines):
        # as a text file (universal newlines), and as list items with and
        # without a final newline each
        assert parsed(io.StringIO(text, newline=None)) == per_line(
            io.StringIO(text, newline=None)
        )
        assert parsed(lines) == per_line(lines)
        ended = [line + "\n" for line in lines]
        assert parsed(ended) == per_line(ended)


def test_tsv_input_keeps_its_delimiter_in_later_chunks(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_LINES", 1)
    lines = ["a\tb\t1\t2\n", "a,b,2,3\n"]
    assert parsed(lines) == per_line(lines)
    assert [(r.line_no, r.reason) for r in parsed(lines)[2]] == [(2, "expected 4 fields, got 1")]


def test_rejected_row_in_later_chunk_keeps_line_number(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_LINES", 3)
    lines = ["# header follows", "s,d,t,q"] + [f"a,b,{t},2" for t in range(1, 9)]
    lines[8] = "a,b,x,2"  # line 9, in the third chunk
    text = "".join(line + "\n" for line in lines)
    for source in (io.StringIO(text), lines):
        _, stream, rejected = parse_stream(source)
        assert [(r.line_no, r.line, r.reason) for r in rejected] == [
            (9, "a,b,x,2", "non-numeric time/quantity")
        ]
        assert [r.time for r in stream] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]


def test_labels_lose_unicode_padding():
    table, stream, rejected = parse_stream(["\xa0a\u2028,\x1cb\x0b,1,2\n"])
    assert rejected == []
    assert table.labels == ["a", "b"]


def test_plain_chunks_skip_the_per_line_parser(monkeypatch):
    monkeypatch.setattr(core, "CHUNK_LINES", 2)
    monkeypatch.setattr(core, "_parse_lines", mock.Mock(side_effect=AssertionError))
    table, stream, rejected = parse_stream(io.StringIO("a,b,1,2\nb,c,2,3\nc,a,3,4\n"))
    assert rejected == []
    assert table.labels == ["a", "b", "c"]
    assert stream == [
        Interaction(0, 1, 1.0, 2.0),
        Interaction(1, 2, 2.0, 3.0),
        Interaction(2, 0, 3.0, 4.0),
    ]
    assert all(type(r) is Interaction for r in stream)


def test_interaction_record():
    r = Interaction(source=0, dest=1, time=2.0, quantity=3.0)
    assert (r.source, r.dest, r.time, r.quantity) == (0, 1, 2.0, 3.0)
    assert r == Interaction(0, 1, 2.0, 3.0)
    assert hash(r) == hash(Interaction(0, 1, 2.0, 3.0))
    with pytest.raises(AttributeError):
        r.time = 5.0


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
