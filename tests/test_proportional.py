"""Proportional policy: golden vectors, dense/sparse equivalence, sparse-vector invariants."""

from fractions import Fraction

import pytest
from conftest import prop_dense, rand_stream
from hypothesis import given
from hypothesis import strategies as st

from tinprov import (
    UNKNOWN,
    BudgetSpec,
    Interaction,
    Oracle,
    Policy,
    ProportionalSparseEngine,
    ScopeMap,
    densify,
)

# Table rows are rounded to two decimals in the source material
TABLE_ROWS = [
    ([0, 0, 0], [0, 0, 0], [0, 3, 0]),
    ([0, 3, 2], [0, 0, 0], [0, 0, 0]),
    ([0, 1.2, 0.8], [0, 1.8, 1.2], [0, 0, 0]),
    ([0, 1.2, 0.8], [0, 0, 0], [0, 5.8, 1.2]),
    ([0, 1.2, 0.8], [0, 1.66, 0.34], [0, 4.14, 0.86]),
    ([0, 2.03, 0.97], [0, 1.66, 0.34], [0, 3.31, 0.69]),
]


def exact_replay(stream, n):
    """Rational-arithmetic replay of the proportional update rule."""
    totals = [Fraction(0)] * n
    vectors = [[Fraction(0)] * n for _ in range(n)]
    for r in stream:
        s, d, rq = r.source, r.dest, Fraction(r.quantity)
        bs = totals[s]
        if rq >= bs:
            moved = vectors[s]
            vectors[s] = [Fraction(0)] * n
            for i in range(n):
                vectors[d][i] += moved[i]
            vectors[d][s] += rq - bs
            totals[s] = Fraction(0)
        else:
            alpha = rq / bs
            for i in range(n):
                slice_ = vectors[s][i] * alpha
                vectors[s][i] -= slice_
                vectors[d][i] += slice_
            totals[s] = bs - rq
        totals[d] += rq
    return vectors


def test_example_dense_row_by_row(example_stream):
    e = prop_dense(3)
    for r, row in zip(example_stream, TABLE_ROWS):
        e.process(r)
        for v in range(3):
            got = densify(e.snapshot(v), 3)
            assert got == pytest.approx(list(map(float, row[v])), abs=0.01)


def test_example_matches_exact_rationals(example_stream):
    e = prop_dense(3)
    s = ProportionalSparseEngine(3)
    for i, r in enumerate(example_stream, start=1):
        e.process(r)
        s.process(r)
        exact = exact_replay(example_stream[:i], 3)
        for v in range(3):
            want = [float(x) for x in exact[v]]
            assert densify(e.snapshot(v), 3) == pytest.approx(want, abs=1e-9)
            assert densify(s.snapshot(v), 3) == pytest.approx(want, abs=1e-9)


def test_dense_sparse_equivalence_random():
    for seed in range(10):
        stream = rand_stream(12, 300, seed, self_loops=True)
        dense = prop_dense(12)
        sparse = ProportionalSparseEngine(12)
        for r in stream:
            dense.process(r)
            sparse.process(r)
            for v in range(12):
                dv = densify(dense.snapshot(v), 12)
                sv = densify(sparse.snapshot(v), 12)
                assert dv == pytest.approx(sv, abs=1e-6)
            assert dense.totals == sparse.totals


@pytest.mark.parametrize(
    "engine_cls",
    [prop_dense, ProportionalSparseEngine],
    ids=["dense", "sparse"],
)
def test_oracle_agreement(engine_cls):
    for seed in range(10):
        stream = rand_stream(10, 250, seed, self_loops=True)
        eng = engine_cls(10)
        orc = Oracle(10, Policy.PROP_DENSE)
        for r in stream:
            eng.process(r)
            orc.process(r)
            for v in range(10):
                assert densify(eng.snapshot(v), 10) == pytest.approx(
                    orc.vectors[v], abs=1e-9
                )


def test_full_self_interaction_keeps_relayed_origin():
    # v1 holds 3 from v0, then relays 5 to itself: the 3 stay with origin v0
    # and only the 2-unit shortfall is born at v1
    stream = [Interaction(0, 1, 1.0, 3.0), Interaction(1, 1, 2.0, 5.0)]
    for tracker in (
        Oracle(2, Policy.PROP_DENSE),
        prop_dense(2),
        ProportionalSparseEngine(2),
        ProportionalSparseEngine(2, window=10),
    ):
        for r in stream:
            tracker.process(r)
        assert tracker.snapshot(1) == [(0, 3.0), (1, 2.0)], type(tracker).__name__


def test_full_drain_zeroes_source():
    e = ProportionalSparseEngine(2)
    e.process(Interaction(0, 1, 1.0, 4.0))
    e.process(Interaction(1, 0, 2.0, 10.0))  # rq > |B_1|: drains completely
    assert e.snapshot(1) == []
    assert e.snapshot(0) == [(0, 4.0), (1, 6.0)]


def test_self_loop_aliasing_safe():
    e = ProportionalSparseEngine(2)
    d = prop_dense(2)
    stream = [
        Interaction(0, 1, 1.0, 4.0),
        Interaction(1, 1, 2.0, 2.0),  # partial self-transfer
        Interaction(1, 1, 3.0, 10.0),  # full self-transfer with newborn
    ]
    for r in stream:
        e.process(r)
        d.process(r)
    assert densify(e.snapshot(1), 2) == pytest.approx(densify(d.snapshot(1), 2), abs=1e-9)
    assert sum(q for _, q in e.snapshot(1)) == pytest.approx(e.totals[1], abs=1e-9)


def test_dust_dropped_is_tracked_not_folded():
    # without a scope mechanism dust leaves the vector but shows up in the
    # dropped diagnostic, never as UNKNOWN
    e = ProportionalSparseEngine(3, epsilon=1e-3)
    e.process(Interaction(0, 1, 1.0, 0.002))
    e.process(Interaction(2, 1, 2.0, 0.998))  # v1 = [(0,0.002),(2,0.998)]
    e.process(Interaction(1, 0, 3.0, 0.9))  # residual (0, 2e-4) falls below eps
    assert [o for o, _ in e.snapshot(1)] == [2]
    assert all(o != UNKNOWN for o, _ in e.snapshot(0))
    assert e.total_dropped() == pytest.approx(2e-4, rel=1e-6)


# -- sparse-vector invariants -----------------------------------------------

DUST_EPSILON = 0.5  # large enough that partial transfers leave dust behind

# integer quantities keep every buffer total integral, so a near-drain
# (rq >= |B_s| - epsilon) is always an exact drain and never strands mass
small_streams = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 20)),
    max_size=40,
).map(
    lambda rows: [Interaction(s, d, float(t), float(q)) for t, (s, d, q) in enumerate(rows, 1)]
)


@given(small_streams)
def test_sparse_vectors_sorted_dust_free_and_mass_conserving(stream):
    trackers = [
        ProportionalSparseEngine(
            6, scope=ScopeMap.selective([0, 1], 6), epsilon=DUST_EPSILON
        ),
        ProportionalSparseEngine(6, budget=BudgetSpec(3), epsilon=DUST_EPSILON),
        ProportionalSparseEngine(6, window=3, epsilon=DUST_EPSILON),
    ]
    # dust leaves an unscoped vector, so this one is checked for entry counts only
    plain = ProportionalSparseEngine(6, epsilon=DUST_EPSILON)
    for r in stream:
        for e in (*trackers, plain):
            e.process(r)
            assert e.entries == sum(len(vec) for bank in e.banks for vec in bank)
            assert e.peak_entries >= e.entries
        for e in trackers:
            for v in range(6):
                snap = e.snapshot(v)
                origins = [o for o, _ in snap]
                assert origins == sorted(set(origins))
                assert all(q > DUST_EPSILON for o, q in snap if o != UNKNOWN)
                # dust is folded into UNKNOWN, so the vector keeps the whole
                # buffer total up to float rounding
                assert sum(q for _, q in snap) == pytest.approx(
                    e.totals[v], rel=1e-9, abs=1e-9
                )
