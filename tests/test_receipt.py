"""FIFO/LIFO policies: golden table, oracle agreement, replay-path equivalence."""

import pytest
from conftest import multiset, rand_stream

from tinprov import Interaction, Oracle, Policy, ReceiptEngine

# per-origin (origin, quantity) multisets after each example interaction (LIFO)
LIFO_ROWS = [
    ([], [], [(1, 3.0)]),
    ([(1, 3.0), (2, 2.0)], [], []),
    ([(1, 2.0)], [(1, 1.0), (2, 2.0)], []),
    ([(1, 2.0)], [], [(1, 1.0), (2, 2.0), (1, 4.0)]),
    ([(1, 2.0)], [(1, 2.0)], [(1, 1.0), (2, 2.0), (1, 2.0)]),
    ([(1, 2.0), (1, 1.0)], [(1, 2.0)], [(1, 1.0), (2, 2.0), (1, 1.0)]),
]


def test_example_lifo_row_by_row(example_stream):
    e = ReceiptEngine(3, lifo=True)
    for r, row in zip(example_stream, LIFO_ROWS):
        e.process(r)
        assert [multiset(e.snapshot(v)) for v in range(3)] == [sorted(x) for x in row]


def test_example_lifo_receipt_order(example_stream):
    # beyond the multisets: buffers keep arrival order, selection order lands
    # at the destination back-to-front
    e = ReceiptEngine(3, lifo=True).run(example_stream)
    assert e.snapshot(0) == [(1, 2.0), (1, 1.0)]
    assert e.snapshot(2) == [(1, 1.0), (2, 2.0), (1, 1.0)]


def test_example_fifo(example_stream):
    e = ReceiptEngine(3)
    for r in example_stream[:3]:
        e.process(r)
    # FIFO relays v0's front parcel (origin v1) first
    assert e.snapshot(1) == [(1, 3.0)]
    assert e.snapshot(0) == [(2, 2.0)]


@pytest.mark.parametrize("lifo", [False, True])
def test_oracle_agreement(lifo):
    policy = Policy.LIFO if lifo else Policy.FIFO
    for seed in range(15):
        stream = rand_stream(10, 300, seed, self_loops=True)
        eng = ReceiptEngine(10, lifo=lifo)
        orc = Oracle(10, policy)
        for r in stream:
            eng.process(r)
            orc.process(r)
            for v in range(10):
                assert eng.snapshot(v) == orc.snapshot(v)
            assert eng.totals == orc.totals


def assert_run_matches_process(lifo, backend):
    """run() on a fresh engine, through ``backend``, equals stepwise
    process(), also after the replay."""
    for seed in range(5):
        stream = rand_stream(12, 400, seed, self_loops=True)
        ref = ReceiptEngine(12, lifo=lifo)
        for r in stream:
            ref.process(r)
        e = ReceiptEngine(12, lifo=lifo).run(stream)
        assert e.backend == backend
        assert [e.snapshot(v) for v in range(12)] == [ref.snapshot(v) for v in range(12)]
        assert e.totals == ref.totals
        assert e.generated == ref.generated
        assert e.entries == ref.entries
        assert e.peak_entries == ref.peak_entries
        assert e.cumulative_newborn == ref.cumulative_newborn
        # engine stays usable after a bulk replay
        e.process(Interaction(0, 1, 9999.0, 5.0))
        ref.process(Interaction(0, 1, 9999.0, 5.0))
        assert [e.snapshot(v) for v in range(12)] == [ref.snapshot(v) for v in range(12)]


@pytest.mark.parametrize("lifo", [False, True])
def test_run_paths_agree(lifo, pure_python):
    """process() and the pure-Python run() loop give one answer."""
    assert_run_matches_process(lifo, "python")


@pytest.mark.parametrize("lifo", [False, True])
def test_kernel_agrees_with_process(lifo, compiled):
    """The compiled kernel gives the same buffers, in order, as process()."""
    assert_run_matches_process(lifo, "compiled")


def test_lifo_split_remainder_stays_on_top():
    e = ReceiptEngine(2, lifo=True)
    e.process(Interaction(0, 1, 1.0, 3.0))
    e.process(Interaction(0, 1, 2.0, 4.0))  # v1 stack: [(0,3),(0,4)]
    e.process(Interaction(1, 0, 3.0, 5.0))  # takes (0,4) whole, splits (0,3)
    assert e.snapshot(1) == [(0, 2.0)]
    assert e.snapshot(0) == [(0, 4.0), (0, 1.0)]  # selection order preserved


def test_fifo_front_consumption_and_compaction():
    # long alternating stream forces many front pops and splits
    e = ReceiptEngine(2)
    stream = []
    t = 1.0
    for i in range(600):
        stream.append(Interaction(0, 1, t, 3.0))
        t += 1.0
        stream.append(Interaction(1, 0, t, 2.0))
        t += 1.0
    ref = Oracle(2, Policy.FIFO)
    for r in stream:
        e.process(r)
        ref.process(r)
        assert e.snapshot(0) == ref.snapshot(0)
        assert e.snapshot(1) == ref.snapshot(1)


def test_self_loop_literal_rotation():
    # a self-interaction's selection rejoins once selection ends: FIFO rotates
    # it to the back, LIFO puts it back on top in reverse
    stream = [
        Interaction(0, 1, 1.0, 2.0),
        Interaction(2, 1, 2.0, 3.0),
        Interaction(1, 1, 3.0, 4.0),
    ]
    for lifo, policy in ((False, Policy.FIFO), (True, Policy.LIFO)):
        eng = ReceiptEngine(3, lifo=lifo).run(stream)
        orc = Oracle(3, policy).run(stream)
        assert eng.snapshot(1) == orc.snapshot(1)
        assert eng.totals == orc.totals


def test_totals_match_baseline_exactly(example_stream):
    from tinprov import NoProvEngine

    base = NoProvEngine(3).run(example_stream)
    for lifo in (False, True):
        e = ReceiptEngine(3, lifo=lifo).run(example_stream)
        assert e.totals == base.totals
        assert e.generated == base.generated
